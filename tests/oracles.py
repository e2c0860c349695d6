"""Independent references the tests check expkin against.

None of these runs in `expkin` itself: the scalar phi functions (in double
precision and at 40 digits), the embedded exponential-Euler step and a
fixed-step EPI3V march, a central-difference Jacobian, a loop-form source
term and Jacobian written from the NASA-7 and Arrhenius definitions, a
line-by-line mechanism parser that searches every line with each
unsupported-syntax pattern, and a CSV reader for the files
`expkin.mechio.write_csv` writes. They use only public names of the package.
"""
import csv
import math
import re

import mpmath
import numpy as np

from expkin import phikrylov
from expkin.integrator import epi3v_step
from expkin.kinetics import (EXP_ARG_MAX, P_STANDARD, R_GAS, InvalidStateError,
                             KineticsError, Mechanism, Reaction, Species)
from expkin.mechio import FORMAT_VERSION, MechIoError

PHI_TAYLOR_CUTOFF = 0.5      # |z| below which the Taylor series is used
PHI_TAYLOR_TERMS = 30


def phi_scalar(k, z):
    """phi_k(z) for k in 0..3; phi_0 = exp, phi_{k+1}(z) = (phi_k(z) - 1/k!)/z."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"phi order {k} not supported")
    z = float(z)
    if k == 0:
        return math.exp(z)
    if abs(z) < PHI_TAYLOR_CUTOFF:
        # phi_k(z) = sum_j z^j / (j + k)!
        acc = 0.0
        term = 1.0 / math.factorial(k)
        for j in range(PHI_TAYLOR_TERMS):
            acc += term
            term *= z / (j + k + 1)
        return acc
    if k == 1:
        return (math.exp(z) - 1.0) / z
    if k == 2:
        return (math.exp(z) - 1.0 - z) / z**2
    return (math.exp(z) - 0.5 * z**2 - z - 1.0) / z**3


def phi_mp(k, z):
    """phi_k at 40 digits via the defining recurrence."""
    with mpmath.workdps(40):
        z = mpmath.mpf(repr(z))
        val = mpmath.exp(z)
        for j in range(1, k + 1):
            val = (val - 1 / mpmath.factorial(j - 1)) / z
        return float(val)


def exp_euler_step(y, h, F, J, krylov_tol=1.0e-12):
    """Embedded first-stage method: y + h phi_1(h J) F.

    The adaptive march does not call it; the tests use it as the reference
    for the embedded error estimate (EPI3V minus this step).
    """
    res = phikrylov.kiops_eval(h * J, [None, h * F], tol=krylov_tol)
    return y + res.values[0]


def integrate_fixed(y0, t0, t_final, n_steps, problem, krylov_tol=1.0e-12):
    """n_steps equal EPI3V steps; controller bypassed. Returns the final state."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (t_final - t0) / n_steps
    y = np.asarray(y0, dtype=float).copy()
    for _ in range(n_steps):
        F, J = problem.jac(y)
        y, _, _ = epi3v_step(y, h, F, J, problem, np.ones(len(y)),
                             krylov_tol=krylov_tol)
    return y


def fd_jacobian(f, y, typical=None, step=None):
    """Dense central-difference Jacobian of f at y, the oracle for
    rhs_and_jacobian().

    Perturbation per component: step * max(|y_j|, typical_j), with step
    sqrt(machine eps) by default. Falls back to a one-sided difference if a
    perturbed evaluation fails.

    Valid only at interior states: rhs_vector reads mass fractions in
    [-Y_NEG_TOL, 0) as 0, so at a species with Y_k = 0 the backward point
    lands in that clip and the central difference halves the column. The
    exact derivative there is the one-sided forward difference.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if typical is None:
        typical = np.ones(n)
    if step is None:
        step = np.sqrt(np.finfo(float).eps)
    f0 = None
    J = np.empty((n, n))
    for j in range(n):
        delta = step * max(abs(y[j]), typical[j])
        yp = y.copy()
        ym = y.copy()
        yp[j] += delta
        ym[j] -= delta
        try:
            J[:, j] = (f(yp) - f(ym)) / (2 * delta)
        except KineticsError:
            if f0 is None:
                f0 = f(y)
            try:
                J[:, j] = (f(yp) - f0) / delta
            except KineticsError:
                J[:, j] = (f0 - f(ym)) / delta
    if not np.all(np.isfinite(J)):
        raise InvalidStateError("non-finite Jacobian entry")
    return J


def _nasa7(sp, T):
    """Molar c_p, H, S and dc_p/dT of one species at T from its NASA-7 fit
    (the high range above t_mid)."""
    a1, a2, a3, a4, a5, a6, a7 = sp.coeffs_high if T > sp.t_mid else sp.coeffs_low
    cp = R_GAS * (a1 + a2 * T + a3 * T**2 + a4 * T**3 + a5 * T**4)
    h = R_GAS * (a1 * T + a2 * T**2 / 2 + a3 * T**3 / 3 + a4 * T**4 / 4
                 + a5 * T**5 / 5 + a6)
    s = R_GAS * (a1 * math.log(T) + a2 * T + a3 * T**2 / 2 + a4 * T**3 / 3
                 + a5 * T**4 / 4 + a7)
    dcp = R_GAS * (a2 + 2 * a3 * T + 3 * a4 * T**2 + 4 * a5 * T**3)
    return cp, h, s, dcp


def _clamped(arg):
    """(arg clipped to +-EXP_ARG_MAX, whether it was clipped)."""
    clipped = min(max(arg, -EXP_ARG_MAX), EXP_ARG_MAX)
    return clipped, clipped != arg


def kinetics_reference(mech, y, p):
    """(F, J, saturated) of the isobaric reactor at state y = [T, Y...] and
    pressure p, one reaction and one species at a time.

    rho = p / (R T sum Y_k/W_k), chi_k = rho Y_k / W_k; the forward rate
    constant is A T^beta exp(-E/(R T)), a reversible reaction's reverse one
    k_f / K_c with K_c = exp(-dG/(R T)) (P_STANDARD/(R T))^dnu; an exponent
    beyond EXP_ARG_MAX is clipped (`saturated`) and its factor is constant.
    F = [-sum_k H_k omega_k / (rho c_p), omega W / rho] with
    c_p = sum_k Y_k c_p,k / W_k, and J = dF/d[T, Y] by the chain rule
    through chi(T, Y) and rho(T, Y). Mass fractions below 0 read as 0.
    """
    K = mech.n_species
    T = float(y[0])
    Y = [max(float(v), 0.0) for v in y[1:]]
    W = [sp.molar_mass for sp in mech.species]
    thermo = [_nasa7(sp, T) for sp in mech.species]
    cp = [t[0] for t in thermo]
    H = [t[1] for t in thermo]
    dcp = [t[3] for t in thermo]
    mean_inv = sum(Y[k] / W[k] for k in range(K))
    rho = p / (R_GAS * T * mean_inv)
    chi = [rho * Y[k] / W[k] for k in range(K)]
    # d chi_k/dT and d chi_k/dY_m; d rho/dT and d rho/dY_m.
    dchi_dT = [-c / T for c in chi]
    drho = [-rho / T] + [-rho / (W[m] * mean_inv) for m in range(K)]
    saturated = False
    # d omega_i / d[T, Y_m], accumulated reaction by reaction.
    omega = [0.0] * K
    domega = [[0.0] * (K + 1) for _ in range(K)]
    for rxn in mech.reactions:
        A, beta, E = rxn.arrhenius
        arg, clip = _clamped(-E / (R_GAS * T))
        saturated |= clip
        kf = A * T**beta * math.exp(arg)
        dlnkf = (beta + (0.0 if clip else E / (R_GAS * T))) / T
        sides = [(kf, dlnkf, rxn.reactants, 1.0)]
        if rxn.reversible:
            nu = {k: rxn.products.get(k, 0) - rxn.reactants.get(k, 0)
                  for k in set(rxn.products) | set(rxn.reactants)}
            dH = sum(n * H[k] for k, n in nu.items())
            dS = sum(n * thermo[k][2] for k, n in nu.items())
            dnu = sum(nu.values())
            arg, clip = _clamped(-(dH - T * dS) / (R_GAS * T))
            saturated |= clip
            kc = math.exp(arg) * (P_STANDARD / (R_GAS * T)) ** dnu
            dlnkc = ((0.0 if clip else dH / (R_GAS * T)) - dnu) / T
            sides.append((kf / kc, dlnkf - dlnkc, rxn.products, -1.0))
        # q = sum over sides of sign k prod chi^nu, and dq/d[T, Y].
        q = 0.0
        dq = [0.0] * (K + 1)
        for k_side, dlnk, stoich, sign in sides:
            prod = math.prod(chi[k] ** n for k, n in stoich.items())
            q += sign * k_side * prod
            dq[0] += sign * dlnk * k_side * prod
            for k, n in stoich.items():
                # d prod / d chi_k
                dprod = n * chi[k] ** (n - 1) * math.prod(
                    chi[i] ** m for i, m in stoich.items() if i != k)
                g = sign * k_side * dprod
                dq[0] += g * dchi_dT[k]
                for m in range(K):
                    dchi = (rho / W[k] if m == k else 0.0) - chi[k] / (W[m] * mean_inv)
                    dq[1 + m] += g * dchi
        for k in set(rxn.products) | set(rxn.reactants):
            n = rxn.products.get(k, 0) - rxn.reactants.get(k, 0)
            omega[k] += n * q
            for c in range(K + 1):
                domega[k][c] += n * dq[c]
    J = np.empty((K + 1, K + 1))
    F = np.empty(K + 1)
    for i in range(K):
        F[1 + i] = omega[i] * W[i] / rho
        for c in range(K + 1):
            J[1 + i, c] = (W[i] / rho * domega[i][c]
                           - omega[i] * W[i] / rho**2 * drho[c])
    cp_mean = sum(Y[k] * cp[k] / W[k] for k in range(K))
    D = rho * cp_mean
    heat = sum(H[k] * omega[k] for k in range(K))
    F[0] = -heat / D
    for c in range(K + 1):
        dheat = sum(H[k] * domega[k][c] for k in range(K))
        dD = drho[c] * cp_mean
        if c == 0:
            dheat += sum(cp[k] * omega[k] for k in range(K))
            dD += rho * sum(Y[k] * dcp[k] / W[k] for k in range(K))
        else:
            dD += rho * cp[c - 1] / W[c - 1]
        J[0, c] = -dheat / D + heat * dD / D**2
    return F, J, saturated


def read_csv(path):
    """Read back a CSV written by write_csv; numeric fields become floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            parsed = []
            for cell in row:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return header, rows


# The reference parser's unsupported-syntax patterns: a falloff "(+M)", a
# third body "+ M" and the falloff/PLOG keywords, each searched on every
# reaction line.
_UNSUPPORTED_RXN = (
    re.compile(r"\(\+\s*\w+\s*\)"),
    re.compile(r"(?:^|\s)\+\s*M(?:\s|$)"),
    re.compile(r"\b(?:LOW|TROE|PLOG)\b"),
)


def _fail(code, message, line=None):
    raise MechIoError(code, message, line)


def _parse_float(tok, line, what="number"):
    try:
        return float(tok)
    except ValueError:
        _fail("BadNumber", f"cannot parse {what} {tok!r}", line)


def _records(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_mechanism_reference(text):
    """The mechanism text format parsed one record at a time: the reference
    for `expkin.mechio.parse_mechanism`'s Mechanism and for the code,
    message and line of each diagnostic. Every reaction line is searched
    with all three unsupported-syntax patterns, each term is looked up with
    `in`, and the products are parsed from their tokens joined by single
    spaces."""
    species = []
    names = {}
    reactions = []
    section = None
    records = _records(text)
    lineno, line = next(records, (None, ""))
    if line.lower().split() != ["format", str(FORMAT_VERSION)]:
        _fail("BadFormatVersion", f"first record {line!r} is not the 'format 1' header", lineno)
    for lineno, line in records:
        if line.startswith("["):
            if line == "[species]":
                section = "species"
            elif line == "[reactions]":
                section = "reactions"
            else:
                _fail("UnknownSection", f"unknown section {line!r}", lineno)
            continue
        if section == "species":
            sp = _species_record(line, lineno)
            if sp.name in names:
                _fail("DuplicateSpecies", f"species {sp.name!r} already declared", lineno)
            names[sp.name] = len(species)
            species.append(sp)
        elif section == "reactions":
            reactions.append(_reaction_record(line, lineno, names))
        else:
            _fail("UnknownSection", "content before any section header", lineno)
    if not species:
        _fail("NoSpecies", "mechanism declares no species")
    try:
        return Mechanism(species=tuple(species), reactions=tuple(r for r, _ in reactions))
    except KineticsError as exc:
        _fail("MassImbalance", str(exc), reactions[exc.reaction][1])


def _species_record(line, lineno):
    toks = line.split()
    if len(toks) != 19:
        _fail("BadSpecies",
              f"species line needs name + 18 numbers, got {len(toks)} tokens", lineno)
    name = toks[0]
    nums = [_parse_float(t, lineno) for t in toks[1:]]
    try:
        return Species(name=name, molar_mass=nums[0], t_low=nums[1],
                       t_mid=nums[2], t_high=nums[3],
                       coeffs_low=tuple(nums[4:11]), coeffs_high=tuple(nums[11:18]))
    except KineticsError as exc:
        _fail("BadSpecies", str(exc), lineno)


def _stoich_record(side, lineno, names):
    stoich = {}
    for term in side.split("+"):
        term = term.strip()
        if not term:
            _fail("BadReaction", "empty stoichiometric term", lineno)
        parts = term.split()
        if len(parts) == 1:
            count, name = 1, parts[0]
        elif len(parts) == 2:
            try:
                count = int(parts[0])
            except ValueError:
                _fail("BadReaction", f"bad stoichiometric count {parts[0]!r}", lineno)
            name = parts[1]
        else:
            _fail("BadReaction", f"cannot parse term {term!r}", lineno)
        if count <= 0:
            _fail("BadReaction", f"stoichiometric count must be positive: {term!r}", lineno)
        if name not in names:
            _fail("UnknownSpecies", f"species {name!r} not declared", lineno)
        idx = names[name]
        stoich[idx] = stoich.get(idx, 0) + count
    return stoich


def _reaction_record(line, lineno, names):
    if any(pattern.search(line) for pattern in _UNSUPPORTED_RXN):
        _fail("UnsupportedReactionType",
              "third-body / falloff / pressure-dependent reactions are not supported",
              lineno)
    if "rev:" in line:
        _fail("UnsupportedReactionType",
              "explicit reverse fits ('rev:') are not supported; reverse rates "
              "come from detailed balance", lineno)
    if "<=>" in line:
        reversible = True
        lhs, rest = line.split("<=>", 1)
    elif "=>" in line:
        reversible = False
        lhs, rest = line.split("=>", 1)
    else:
        _fail("BadReaction", "missing '=>' or '<=>'", lineno)
    rest_toks = rest.split()
    if len(rest_toks) < 4:
        _fail("BadArrhenius", "reaction needs products plus 3 Arrhenius numbers", lineno)
    arrhenius = tuple(_parse_float(t, lineno, "Arrhenius value") for t in rest_toks[-3:])
    rhs_text = " ".join(rest_toks[:-3])
    reactants = _stoich_record(lhs, lineno, names)
    products = _stoich_record(rhs_text, lineno, names)
    try:
        rxn = Reaction(reactants=reactants, products=products, arrhenius=arrhenius,
                       reversible=reversible)
    except KineticsError as exc:
        _fail("BadReaction", str(exc), lineno)
    return rxn, lineno
