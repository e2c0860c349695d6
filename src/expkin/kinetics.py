"""Chemical source term and its exact Jacobian for an isobaric zero-D
ideal-gas reactor.

State vector layout is [T, Y_1, ..., Y_K] (temperature first, then mass
fractions in mechanism order). All quantities are SI: K, Pa, kg/mol, mol/m^3,
J/mol, s.

Every evaluation works on the arrays a `Mechanism` builds once (`_Tables`):
one table per interval between the species' T_mid values over the basis
[1, T, ..., T^5, ln T, 1/T, 1/T^2], which holds R/W-scaled NASA-7 rows, the
Arrhenius rows and the reactions' -dG/RT and d ln K_c/dT rows (nu folded
into the NASA-7 rows), stoichiometric matrices, one padded slot table of
the forward rows and of the reverse rows of reversible reactions, and the
sparse scatter of the Jacobian. So one pass takes the thermo, ln k,
d ln k/dT and K_c from one product and one exp, and the mass-action
products and their derivatives from one gather of slot columns. The
Jacobian is analytical in the manner of pyJac (Niemeyer, Curtis & Sung, Comput. Phys.
Commun. 215, 2017): rate-of-progress derivatives in the concentrations come
from the mass-action products, temperature derivatives from the Arrhenius
and equilibrium-constant log-derivatives, and both are chained through
rho(T, Y). One private evaluation, `_evaluate`, checks the state and makes
that pass; `rhs_vector`, `rhs_and_jacobian` and `reaction_rates` each take
their part of its result. So linearising at a state costs one kinetics
pass, and the three agree bit for bit.
"""
from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

R_GAS = 8.314462618          # J/(mol K)
P_STANDARD = 1.0e5           # Pa, reference pressure for equilibrium constants
EXP_ARG_MAX = 700.0          # exp() argument clamp, avoids overflow
Y_NEG_TOL = 1.0e-8           # mass fractions in [-Y_NEG_TOL, 0) are treated as 0
# Typical magnitudes that size the perturbations of a forward-difference
# Jacobian. Only perfbench/prepare.py's reference Jacobian (and the tests'
# difference oracles) use them, until ROADMAP item 1 replaces it.
TYPICAL_T = 1.0
TYPICAL_Y = 1.0e-6
# Largest stoichiometric coefficient of a species in a reaction. The slot
# table (`_slots`) holds one column per unit of the largest reaction order,
# so an unbounded count would size it without limit.
MAX_STOICH = 100


class KineticsError(ValueError):
    """Base class for kinetics errors; `reaction` is the bad reaction's index."""

    def __init__(self, message, reaction=None):
        self.reaction = reaction
        super().__init__(message)


class ThermoRangeError(KineticsError):
    def __init__(self, species_name, T, t_low, t_high):
        self.species_name = species_name
        self.T = T
        super().__init__(
            f"temperature {T} K outside thermo range [{t_low}, {t_high}] "
            f"of species {species_name!r}"
        )


class InvalidStateError(KineticsError):
    """A state or derived quantity the kinetics cannot evaluate."""


class RateTelemetry:
    """Accumulates evaluation flags across a run (e.g. clamped exponentials)."""

    def __init__(self):
        self.saturated = False

    def mark_saturated(self):
        self.saturated = True


def _clamp(arg, telemetry=None):
    """arg clipped to +-EXP_ARG_MAX, the argument of a safe exp(), and the
    mask of the unclipped entries (where the factor's derivative passes
    through), or None when no entry is clipped."""
    if np.abs(arg).max(initial=0.0) <= EXP_ARG_MAX:
        return arg, None
    clipped = np.minimum(np.maximum(arg, -EXP_ARG_MAX), EXP_ARG_MAX)
    live = clipped == arg
    if telemetry is not None and not live.all():
        telemetry.mark_saturated()
    return clipped, live


def _nasa7_map():
    """(6, 7, 9): row i of block q maps NASA-7 coefficient a_(i+1) onto the
    basis columns (`_basis`) of c_p/R, H/R, S/R, (dc_p/dT)/R, -G/(R T) and
    H/(R T^2) (q = 0 .. 5)."""
    L = np.zeros((6, 7, 9))
    for i in range(5):
        # c_p/R = a1 + a2 T + a3 T^2 + a4 T^3 + a5 T^4
        L[0, i, i] = 1.0
        # H/R = a6 + a1 T + a2 T^2/2 + a3 T^3/3 + a4 T^4/4 + a5 T^5/5
        L[1, i, i + 1] = 1.0 / (i + 1)
    L[1, 5, 0] = 1.0
    # S/R = a7 + a2 T + a3 T^2/2 + a4 T^3/3 + a5 T^4/4 + a1 ln T
    for i in range(1, 5):
        L[2, i, i] = 1.0 / i
        # (dc_p/dT)/R = a2 + 2 a3 T + 3 a4 T^2 + 4 a5 T^3
        L[3, i, i - 1] = float(i)
    L[2, 6, 0] = L[2, 0, 6] = 1.0
    # Division by T moves basis column c to over_t[c]: T^j to T^(j-1), 1 to
    # 1/T and 1/T to 1/T^2 (H/R has no ln T term).
    over_t = np.zeros((9, 9))
    over_t[[0, 1, 2, 3, 4, 5, 7], [7, 0, 1, 2, 3, 4, 8]] = 1.0
    L[4] = L[2] - L[1] @ over_t
    L[5] = L[1] @ over_t @ over_t
    L.flags.writeable = False
    return L


_NASA7_MAP = _nasa7_map()


def _basis(T):
    """[1, T, T^2, T^3, T^4, T^5, ln T, 1/T, 1/T^2], the columns of the
    tables (`_Tables.terms_at`)."""
    T2 = T * T
    inv_T = 1.0 / T
    return np.array([1.0, T, T2, T2 * T, T2 * T2, T2 * T2 * T, math.log(T),
                     inv_T, inv_T * inv_T])


@lru_cache(maxsize=64)
def _cp_columns(T):
    """The c_p block of `_NASA7_MAP` times `_basis(T)`, as floats: its dot
    product with a NASA-7 row is c_p/R at T. Mechanisms share a few T_mid
    values, so it is cached."""
    return tuple((_NASA7_MAP[0] @ _basis(T)).tolist())


@dataclass(frozen=True)
class Species:
    """One chemical species with a two-range NASA-7 thermodynamic fit."""

    name: str
    molar_mass: float                # kg/mol
    t_low: float
    t_mid: float
    t_high: float
    coeffs_low: tuple                # 7 coefficients, valid on [t_low, t_mid]
    coeffs_high: tuple               # 7 coefficients, valid on [t_mid, t_high]

    def __post_init__(self):
        if not math.isfinite(self.molar_mass) or self.molar_mass <= 0:
            raise KineticsError(f"species {self.name!r}: molar mass must be > 0")
        if not all(map(math.isfinite, (self.t_low, self.t_mid, self.t_high,
                                       *self.coeffs_low, *self.coeffs_high))):
            raise KineticsError(f"species {self.name!r}: non-finite thermo number")
        if not (0 < self.t_low < self.t_mid < self.t_high):
            raise KineticsError(
                f"species {self.name!r}: thermo ranges must satisfy "
                "0 < T_low < T_mid < T_high"
            )
        if len(self.coeffs_low) != 7 or len(self.coeffs_high) != 7:
            raise KineticsError(f"species {self.name!r}: need 7+7 NASA coefficients")
        # c_p/R of both ranges at T_mid, from the c_p columns alone.
        columns = _cp_columns(self.t_mid)
        cp_lo = sum(map(operator.mul, self.coeffs_low, columns))
        cp_hi = sum(map(operator.mul, self.coeffs_high, columns))
        if abs(cp_lo - cp_hi) > 0.01 * max(abs(cp_lo), abs(cp_hi)):
            raise KineticsError(
                f"species {self.name!r}: c_p discontinuity at T_mid exceeds 1%"
            )


@dataclass(frozen=True)
class Reaction:
    """One elementary reaction with integer stoichiometry.

    `reactants` and `products` map species index -> stoichiometric coefficient.
    `arrhenius` is (A, temperature exponent, activation energy J/mol). A
    `reversible` reaction's reverse rate comes from detailed balance.
    """

    reactants: dict
    products: dict
    arrhenius: tuple
    reversible: bool = False

    def __post_init__(self):
        counts = (*self.reactants.values(), *self.products.values())
        if not counts:
            raise KineticsError("reaction with empty stoichiometry")
        for nu in counts:
            # Written so that NaN fails too; `nu % 1` is 0 for a whole number.
            if not 0 <= nu <= MAX_STOICH or nu % 1:
                raise KineticsError(f"stoichiometric coefficient {nu} must be "
                                    f"an integer from 0 to {MAX_STOICH}")
        if not all(map(math.isfinite, self.arrhenius)):
            raise KineticsError(f"Arrhenius numbers must be finite, got {self.arrhenius}")
        A = self.arrhenius[0]
        if not (A > 0):
            raise KineticsError(f"pre-exponential factor must be > 0, got {A}")


def _slots(nu):
    """Row j of nu (M, K) as species index k nu[j, k] times, ascending,
    padded with K to a common width >= 1: an (M, width) index array."""
    order = nu.sum(axis=1)
    width = max(1, order.max(initial=0))
    slots = np.full((len(nu), width), nu.shape[1], dtype=np.intp)
    slots[np.arange(width) < order[:, None]] = np.repeat(
        np.broadcast_to(np.arange(nu.shape[1]), nu.shape), nu.ravel())
    return slots


class _Tables:
    """The arrays every evaluation of one mechanism uses, all read-only.

    An evaluation runs over "rows": the forward direction of every reaction
    (rows 0 .. N - 1), then the reverse direction of every reversible one,
    whose rate constant follows from detailed balance. A mechanism without
    reversible reactions has no reverse rows.

    - `dnu` (N,), the row sums of nu_net = nu_reverse - nu_forward,
      `reversible` (N,) the reactions with a reverse row, `reverse` (R,)
      their indices and `dnu_reverse` (R,) their dnu; `kc_order` (N,),
      the reversible reactions, then the others, each ascending;
    - the range limits `t_low`, `t_mid`, `t_high` (K,) and the window
      where every fit holds, [`t_min`, `t_max`] (floats); `t_mids`, the
      sorted distinct T_mid values as a tuple of floats, and
      `terms_by_range`, a tuple of one (4K + 4N, 9) table per interval
      between them (`terms_at`). Its product with `_basis(T)` gives, in
      blocks: c_p, H, S and dc_p/dT per unit mass of every species (4K
      rows: the NASA-7 rows of each species' range in that interval,
      scaled by R/W), then ln k_f of every reaction, -dG/RT of every
      reaction in `kc_order`, d ln k_f/dT and d ln K_c/dT in the same two
      orders (N rows each; the reaction rows fold nu_net into the NASA-7
      rows). So `ln_k_rows` (ln k_f, then -dG/RT of the reversible
      reactions) and `dln_k_rows` (d ln k_f/dT, then d ln K_c/dT of the
      reversible reactions) are contiguous, and so are `neg_dg_rows` and
      `dln_kc_rows` (every reaction in `kc_order`);
    - `arrhenius` (3, N): ln A, beta and E/R of every reaction, which the
      activation clamp reads, and `e_r_max`, the largest |E|/R;
    - the nonzeros of nu_rows (rows, K), the signed nu_net of every row (a
      reverse row negates its reaction's), row by row: their rows `nz_row`,
      species `nz_species` and values `nz_nu`, so that omega = r nu_rows
      for the rates of progress r of the rows is one `bincount`, summed in
      a fixed order (a BLAS product's rounding moved with the thread count
      at K = 250) and over the nonzeros only;
    - `inv_molar_masses` (K,) and `inv_w` (K + 1,), the same with a
      leading 0 in the [T, Y] column layout; `w_ratio` (K, K + 1), the
      columns W_i and W_i / W_k;
    - `slots` (width, rows): `_slots` of every row's reactants (a reverse
      row's are its reaction's products), shifted by one, so that it
      indexes the vector [0, chi_1 .. chi_K, 1] (index K + 1, the padding,
      holds a constant 1) and the columns of dq/d[T, chi], where column 0
      is dq/dT at fixed chi;
    - the scatter of B = nu^T dq/d[T, chi] (K, K + 1) in one `bincount`:
      `jacobian_gather` picks Jacobian weights (slot by slot, then the
      dq/dT one, each over all rows; padding slots left out),
      `jacobian_nu` multiplies each by one nonzero entry of its row of
      `nu_rows`, and `jacobian_index` is the flat index into B of the
      product. nu is sparse (7% nonzero at K = 53), so this beats the dense
      product.
    """

    def __init__(self, mech):
        N, K = mech.n_reactions, mech.n_species
        species, reactions = mech.species, mech.reactions
        W = mech.molar_masses
        nu_net = np.subtract(mech.nu_reverse, mech.nu_forward, dtype=float)
        self.dnu = nu_net.sum(axis=1)
        self.reversible = np.array([r.reversible for r in reactions], dtype=bool)
        rev = np.flatnonzero(self.reversible)
        self.reverse = rev
        self.dnu_reverse = self.dnu[rev]
        self.kc_order = np.concatenate((rev, np.flatnonzero(~self.reversible)))
        self.t_low = np.array([s.t_low for s in species])
        self.t_mid = np.array([s.t_mid for s in species])
        self.t_high = np.array([s.t_high for s in species])
        self.t_min = float(self.t_low.max())
        self.t_max = float(self.t_high.min())
        self.t_mids = tuple(sorted(set(self.t_mid.tolist())))
        # In interval i, (t_mids[i-1], t_mids[i]], a species takes its high
        # range iff its T_mid is one of t_mids[:i] (so at T = T_mid it keeps
        # its low range).
        n_ranges = len(self.t_mids) + 1
        high = (np.arange(n_ranges)[:, None]
                > np.searchsorted(self.t_mids, self.t_mid))[..., None]
        coeffs = np.where(high, [s.coeffs_high for s in species],
                          [s.coeffs_low for s in species])
        # blocks[i, k, q]: block q of _NASA7_MAP for species k in range i.
        blocks = (coeffs @ _NASA7_MAP.transpose(1, 0, 2).reshape(7, -1)
                  ).reshape(n_ranges, K, 6, 9)
        A, beta, E = np.array([r.arrhenius for r in reactions],
                              dtype=float).reshape(N, 3).T
        self.arrhenius = np.array([np.log(A), beta, E / R_GAS])
        self.e_r_max = float(np.abs(self.arrhenius[2]).max(initial=0.0))
        terms = np.zeros((n_ranges, 4 * (K + N), 9))
        terms[:, :4 * K] = (blocks[:, :, :4].transpose(0, 2, 1, 3)
                            * (R_GAS / W)[:, None]).reshape(n_ranges, 4 * K, 9)
        # ln k_f = ln A + beta ln T - (E/R)/T, then -dG/RT, then
        # d ln k_f/dT = beta/T + (E/R)/T^2, then d ln K_c/dT = dH/(R T^2)
        # - dnu/T: nu_net times the -G/RT and H/(R T^2) blocks.
        ln_kf, neg_dg, dln_kf, dln_kc = terms[:, 4 * K:].reshape(
            n_ranges, 4, N, 9).transpose(1, 0, 2, 3)
        ln_kf[..., [0, 6, 7]] = (self.arrhenius * [[1.0], [1.0], [-1.0]]).T
        dln_kf[..., [7, 8]] = self.arrhenius[1:].T
        reaction = (nu_net @ blocks[:, :, 4:].transpose(1, 2, 0, 3).reshape(
            K, -1))[self.kc_order]
        neg_dg[:], dln_kc[:] = reaction.reshape(N, 2, n_ranges, 9).transpose(
            1, 2, 0, 3)
        dln_kc[..., 7] -= self.dnu[self.kc_order]
        terms.flags.writeable = False
        self.terms_by_range = tuple(terms)
        start = 4 * K
        R = len(rev)
        self.ln_k_rows = slice(start, start + N + R)
        self.neg_dg_rows = slice(start + N, start + 2 * N)
        self.dln_k_rows = slice(start + 2 * N, start + 3 * N + R)
        self.dln_kc_rows = slice(start + 3 * N, start + 4 * N)
        rows = np.concatenate((np.arange(N), rev))
        nu_rows = np.concatenate((nu_net, -nu_net[rev]))
        self.inv_molar_masses = 1.0 / W
        self.inv_w = np.concatenate(([0.0], self.inv_molar_masses))
        self.w_ratio = np.multiply.outer(W, self.inv_w)
        self.w_ratio[:, 0] = W
        self.slots = (_slots(np.vstack((mech.nu_forward, mech.nu_reverse[rev])))
                      + 1).T.copy()
        # The Jacobian scatter: every weight of `_evaluate` (slot by slot,
        # then dq/dT, each over all rows) but the padding slots', repeated
        # once per nonzero of its row of nu_rows. Those nonzeros come row by
        # row, `count[r]` of them for row r.
        column = np.vstack((self.slots,
                            np.zeros((1, len(rows)), dtype=np.intp))).ravel()
        weight = np.flatnonzero(column <= K)
        row = weight % len(rows)
        nz_row, nz_species = np.nonzero(nu_rows)
        count = np.bincount(nz_row, minlength=len(rows))
        repeats = count[row]
        # Expanded entry t, of weight i, takes nonzero first[i] + t - offset[i].
        first = (np.cumsum(count) - count)[row]
        offset = np.cumsum(repeats) - repeats
        nz = np.arange(repeats.sum()) + np.repeat(first - offset, repeats)
        self.nz_row, self.nz_species = nz_row, nz_species
        self.nz_nu = nu_rows[nz_row, nz_species]
        self.jacobian_gather = np.repeat(weight, repeats)
        self.jacobian_nu = self.nz_nu[nz]
        self.jacobian_index = (nz_species[nz] * (K + 1)
                               + column[self.jacobian_gather])
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def terms_at(self, T):
        """The (4K + 4N, 9) table of the T_mid interval T falls in: each
        species' high-range rows where T > T_mid, else its low-range rows."""
        return self.terms_by_range[bisect.bisect_left(self.t_mids, T)]


@dataclass(frozen=True)
class Mechanism:
    """Immutable set of species and reactions plus precomputed arrays.

    It is built from `species` and `reactions` alone: __post_init__ checks
    them and derives `molar_masses` and the integer stoichiometric matrices
    `nu_forward` and `nu_reverse` (N, K), which take no part in equality;
    `tables` derives the rest from these on first use.
    """

    species: tuple
    reactions: tuple
    molar_masses: np.ndarray = field(init=False, compare=False, repr=False)
    nu_forward: np.ndarray = field(init=False, compare=False, repr=False)
    nu_reverse: np.ndarray = field(init=False, compare=False, repr=False)

    MASS_BALANCE_TOL = 1.0e-8  # kg/mol

    def __post_init__(self):
        if len(self.species) < 1:
            raise KineticsError("mechanism needs at least one species")
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise KineticsError("duplicate species names")
        K = len(self.species)
        N = len(self.reactions)
        W = np.array([s.molar_mass for s in self.species])
        nu_f = np.zeros((N, K), dtype=int)
        nu_r = np.zeros((N, K), dtype=int)
        for j, rxn in enumerate(self.reactions):
            for idx, n in rxn.reactants.items():
                if not 0 <= idx < K:
                    raise KineticsError(f"reaction {j}: species index {idx} out of range", j)
                nu_f[j, idx] = n
            for idx, n in rxn.products.items():
                if not 0 <= idx < K:
                    raise KineticsError(f"reaction {j}: species index {idx} out of range", j)
                nu_r[j, idx] = n
        imbalance = np.abs((nu_r - nu_f) @ W)
        unbalanced = np.flatnonzero(imbalance > self.MASS_BALANCE_TOL)
        if unbalanced.size:
            j = int(unbalanced[0])
            raise KineticsError(
                f"reaction {j} violates mass balance by {imbalance[j]:.3e} kg/mol", j)
        object.__setattr__(self, "molar_masses", W)
        object.__setattr__(self, "nu_forward", nu_f)
        object.__setattr__(self, "nu_reverse", nu_r)

    @cached_property
    def tables(self):
        """Evaluation arrays (see _Tables), built once on first use."""
        return _Tables(self)

    @property
    def n_species(self):
        return len(self.species)

    @property
    def n_reactions(self):
        return len(self.reactions)

    def species_index(self, name):
        for i, s in enumerate(self.species):
            if s.name == name:
                return i
        raise KeyError(name)


@dataclass
class ThermoState:
    """Reactor state: temperature, mass fractions and the fixed pressure."""

    T: float
    Y: np.ndarray
    p: float

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)

    def to_vector(self):
        return np.concatenate(([self.T], self.Y))


def _unpack(y, mech):
    """T and Y of the state vector y, the one check of an evaluated state:
    y must have shape (K + 1,), T must be positive and finite and each Y
    within [-Y_NEG_TOL, 1 + Y_NEG_TOL]. Mass fractions in [-Y_NEG_TOL, 0)
    read as 0. A bad pressure shows as a bad density (`_density`)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (mech.n_species + 1,):
        raise InvalidStateError(f"state vector of shape {y.shape} for "
                                f"{mech.n_species} species, expected "
                                f"({mech.n_species + 1},)")
    T, Y = float(y[0]), y[1:]
    if not 0 < T < np.inf:
        raise InvalidStateError(f"temperature must be positive, got {T}")
    # On a few species the builtin min and max of a list cost a fifth of
    # numpy's reductions. They skip a NaN that does not come first; a NaN
    # passes the bounds either way and fails in _density.
    values = Y.tolist()
    low = min(values)
    if not (low >= -Y_NEG_TOL and max(values) <= 1 + Y_NEG_TOL):
        out = (Y < -Y_NEG_TOL) | (Y > 1 + Y_NEG_TOL)
        if out.any():
            bad = int(np.argmax(out))
            raise InvalidStateError(f"mass fraction {bad} out of bounds: {Y[bad]}")
    if low < 0:
        Y = np.where(Y < 0, 0.0, Y)
    return T, Y


def _density(T, Y, p, mech):
    """rho and 1/W_mean = sum Y_i/W_i of clipped mass fractions Y."""
    mean_inv = float(Y @ mech.tables.inv_molar_masses)
    # Written so that NaN fails too; a mixture of no moles has no density.
    if not mean_inv > 0:
        raise InvalidStateError(f"non-physical mixture: sum Y/W = {mean_inv}")
    rho = p / (R_GAS * T * mean_inv)
    if not math.isfinite(rho) or rho <= 0:
        raise InvalidStateError(f"non-physical density {rho}")
    return rho, mean_inv


def density(state, mech):
    """Mixture mass density from the ideal-gas law, kg/m^3."""
    return _density(*_unpack(state.to_vector(), mech), state.p, mech)[0]


def concentrations(state, mech):
    """Molar concentrations chi_i = rho Y_i / W_i, mol/m^3."""
    T, Y = _unpack(state.to_vector(), mech)
    return _density(T, Y, state.p, mech)[0] * Y / mech.molar_masses


def _check_range(T, tb, mech):
    """Refuse a temperature outside some species' thermo fit."""
    if not (tb.t_min <= T <= tb.t_max):
        bad = int(np.argmax((T < tb.t_low) | (T > tb.t_high)))
        raise ThermoRangeError(mech.species[bad].name, T,
                               tb.t_low[bad], tb.t_high[bad])


def _temperature_terms(T, tb):
    """Every temperature-dependent term at T, one product of the table of
    T's range (`_Tables.terms_at`) with `_basis(T)`: c_p, H, S and dc_p/dT
    per unit mass (the first 4K entries, in blocks of K), then ln k_f,
    -dG/RT, d ln k_f/dT and d ln K_c/dT of the reactions (see _Tables)."""
    return tb.terms_at(T) @ _basis(T)


def species_thermo(T, mech):
    """Molar c_p, H, S and dc_p/dT of every species at temperature T."""
    tb = mech.tables
    _check_range(T, tb, mech)
    K = mech.n_species
    return _temperature_terms(T, tb)[:4 * K].reshape(4, K) * mech.molar_masses


def _ln_kc(T, neg_dg, dnu, telemetry):
    """ln K_c = -dG/RT + dnu ln(P_STANDARD/(R T)) of the reactions whose
    -dG/RT and dnu are given, with -dG/RT clipped (`_clamp`), and the mask
    of the unclipped entries, or None."""
    arg, live = _clamp(neg_dg, telemetry)
    return arg + dnu * math.log(P_STANDARD / (R_GAS * T)), live


def equilibrium_constants(T, mech, telemetry=None):
    """Concentration-based equilibrium constant K_c of every reaction; a
    reversible reaction's is the one its reverse rate constant divides by."""
    tb = mech.tables
    _check_range(T, tb, mech)
    neg_dg = _temperature_terms(T, tb)[tb.neg_dg_rows]
    kc = np.empty(mech.n_reactions)
    kc[tb.kc_order] = np.exp(_ln_kc(T, neg_dg, tb.dnu[tb.kc_order],
                                    telemetry)[0])
    return kc


def _rate_constants(T, terms, tb, telemetry):
    """Rate constant k = A T^beta exp(-E/(R T)) of every row (see _Tables)
    and d ln k/dT, from the product `terms` (`_temperature_terms`) and one
    exp. A reverse row's k is k_f / K_c (detailed balance) and its
    log-derivative d ln k_f/dT - d ln K_c/dT.

    When no |E|/(R T) can exceed EXP_ARG_MAX no entry is checked; else an
    activation factor beyond it is clamped, constant (its derivative is
    dropped), and marks `telemetry` saturated. A reversible reaction's
    exp(-dG/RT) factor of K_c is always checked, and clamped the same way.
    """
    ln_k, dln_k = terms[tb.ln_k_rows], terms[tb.dln_k_rows]
    n = len(tb.reversible)
    if tb.e_r_max > EXP_ARG_MAX * T:
        inv_T = 1.0 / T
        arg, live = _clamp(tb.arrhenius[2] * -inv_T, telemetry)
        if live is not None:
            ln_a, beta = tb.arrhenius[:2]
            ln_k[:n] = np.where(live, ln_k[:n], ln_a + beta * math.log(T) + arg)
            dln_k[:n] = np.where(live, dln_k[:n], beta * inv_T)
    if not len(tb.reverse):
        return np.exp(ln_k), dln_k
    ln_k[n:], live = _ln_kc(T, ln_k[n:], tb.dnu_reverse, telemetry)
    if live is not None:
        dln_k[n:] = np.where(live, dln_k[n:], tb.dnu_reverse / -T)
    # k_f, then K_c of the reversible reactions, which k_r = k_f / K_c
    # replaces.
    k = np.exp(ln_k)
    np.divide(k[tb.reverse], k[n:], out=k[n:])
    np.subtract(dln_k[tb.reverse], dln_k[n:], out=dln_k[n:])
    return k, dln_k


def rate_constants(T, mech, *, telemetry=None):
    """Forward and reverse rate constants (k_f, k_r) of every reaction; the
    reverse one follows from detailed balance, k_r = k_f / K_c, for
    reversible reactions, and is 0 for irreversible ones."""
    tb = mech.tables
    _check_range(T, tb, mech)
    k = _rate_constants(T, _temperature_terms(T, tb), tb, telemetry)[0]
    n = mech.n_reactions
    kr = np.zeros(n)
    kr[tb.reversible] = k[n:]
    return k[:n], kr


def _slot_products(x, jacobian):
    """(p, others) of slot values x (width, rows): p = x[0] x[1] ... of
    every row and, if `jacobian` is set, for every entry the product of its
    row's other entries (prefix times suffix: exact when some entry is 0),
    else None."""
    others = np.empty_like(x)
    others[0] = 1.0
    for j in range(1, len(x)):
        np.multiply(others[j - 1], x[j - 1], out=others[j])
    p = others[-1] * x[-1]
    if not jacobian:
        return p, None
    suffix = x[-1]
    for j in range(len(x) - 2, -1, -1):
        others[j] *= suffix
        if j:
            suffix = suffix * x[j]
    return p, others


def _check_finite(values, what, carrier):
    """Refuse `values` if some entry is not finite. `carrier` is a scalar
    that is not finite whenever some entry is not, so the entries are
    scanned only when it is not finite: a finite array whose carrier
    overflowed passes."""
    if not math.isfinite(carrier):
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmax(~finite.ravel()))
            raise InvalidStateError(f"non-finite {what} component {bad}")
    return values


def _evaluate(y, mech, p, telemetry, jacobian):
    """(r, F, J) at state vector y: the rates of progress of every row (see
    _Tables), the source term [dT/dt, dY/dt] and, if `jacobian` is set, its
    exact dense Jacobian dF/d[T, Y] (else None), from one pass over the
    kinetics.

    The pass takes the specific thermo and ln k and d ln k/dT of every row
    from one product (`_temperature_terms`, then `_rate_constants`), and
    the mass-action products from the slot columns. With
    B = nu^T dq/d[T, chi] (dq/dT at fixed chi in column 0),
    g = (W/rho) (B_chi chi) and the specific c_p, h = H/W and mean
    c_p-bar = sum Y c_p:

        J_Y = B (W/rho | W_i/W_k) + (F_Y - g) (1/T, 1/(W_k sum Y/W))
        J_T = -(h J_Y + F_T (Y dc_p/dT, c_p) + e_0 (c_p F_Y)) / c_p-bar

    which includes the coupling through rho(T, Y) = p / (R T sum Y_i/W_i).
    Mass fractions in [-Y_NEG_TOL, 0) read as 0, and their columns are the
    derivatives at 0 from above. A factor whose exponent is clamped (see
    RateTelemetry) is constant, so its derivative is 0.
    """
    T, Y = _unpack(y, mech)
    tb = mech.tables
    rho, mean_inv = _density(T, Y, p, mech)
    K = mech.n_species
    _check_range(T, tb, mech)
    terms = _temperature_terms(T, tb)
    cp, h, dcp = terms[:K], terms[K:2 * K], terms[3 * K:4 * K]
    k, dln_k = _rate_constants(T, terms, tb, telemetry)
    # [0, chi_1 .. chi_K, 1], the vector `slots` indexes.
    chi1 = np.empty(K + 2)
    chi1[0], chi1[-1] = 0.0, 1.0
    chi = np.multiply(Y, rho * tb.inv_molar_masses, out=chi1[1:-1])
    prod, others = _slot_products(chi1[tb.slots], jacobian)
    r = k * prod
    F = np.empty(K + 1)
    w_rho = mech.molar_masses / rho
    F_Y = np.multiply(np.bincount(tb.nz_species, r[tb.nz_row] * tb.nz_nu, K),
                      w_rho, out=F[1:])
    cp_mean = float(Y @ cp)
    # F[0] carries the check of F: an inf or NaN in F_Y makes the dot
    # product, and with it F[0], inf or NaN (0 times inf is NaN).
    F[0] = f_T = -float(h @ F_Y) / cp_mean
    _check_finite(F, "rhs", f_T)
    if not jacobian:
        return r, F, None
    # The weights of dq/d[T, chi]: every slot's k times its others, then
    # dq/dT at fixed chi = d ln k/dT r; one scatter sums nu^T times them.
    n = mech.n_reactions
    weights = np.empty((len(others) + 1, len(r)))
    np.multiply(k, others, out=weights[:-1])
    np.multiply(dln_k, r, out=weights[-1])
    B = np.bincount(tb.jacobian_index,
                    weights.ravel()[tb.jacobian_gather] * tb.jacobian_nu,
                    K * (K + 1)).reshape(K, K + 1)
    g = w_rho * (B[:, 1:] @ chi)
    J = np.empty((K + 1, K + 1))
    J_Y = np.multiply(B, tb.w_ratio, out=J[1:])
    J_Y[:, 0] /= rho
    c = tb.inv_w * (1.0 / mean_inv)
    c[0] = 1.0 / T
    J_Y += np.multiply.outer(F_Y - g, c)
    J_T = np.matmul(h, J_Y, out=J[0])
    J_T[1:] += f_T * cp
    J_T[0] += f_T * float(Y @ dcp) + float(cp @ F_Y)
    J_T *= -1.0 / cp_mean
    # The sum of all entries carries the check: an inf or NaN entry makes
    # it inf or NaN. (J_T alone would carry it only where no gemv skips a
    # zero entry of h.)
    return r, F, _check_finite(J, "Jacobian", np.add.reduce(J, axis=None))


def reaction_rates(state, mech, *, telemetry=None):
    """Net molar rate of progress of every reaction, mol/(m^3 s)."""
    r = _evaluate(state.to_vector(), mech, state.p, telemetry, False)[0]
    n = mech.n_reactions
    q = r[:n].copy()
    q[mech.tables.reversible] -= r[n:]
    return q


def rhs_vector(y, mech, p, *, telemetry=None):
    """Time derivative of the state vector [T, Y_1..Y_K] of the isobaric
    reactor at pressure p; refuses a state `_unpack` or `_density` refuses."""
    return _evaluate(y, mech, p, telemetry, False)[1]


def rhs_and_jacobian(y, mech, p, *, telemetry=None):
    """(F, J): rhs_vector at y and its exact dense Jacobian dF/d[T, Y], from
    one evaluation of the kinetics (see `_evaluate`)."""
    return _evaluate(y, mech, p, telemetry, True)[1:]
