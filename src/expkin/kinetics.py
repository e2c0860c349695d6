"""Chemical source term and its exact Jacobian for an isobaric zero-D
ideal-gas reactor.

State vector layout is [T, Y_1, ..., Y_K] (temperature first, then mass
fractions in mechanism order). All quantities are SI: K, Pa, kg/mol, mol/m^3,
J/mol, s.

Every evaluation works on the arrays a `Mechanism` builds once: NASA-7
coefficient tables, Arrhenius parameters, stoichiometric matrices and padded
reactant/product slot indices. The Jacobian is analytical in the manner of
pyJac (Niemeyer, Curtis & Sung, Comput. Phys. Commun. 215, 2017): rate-of-
progress derivatives in the concentrations come from the mass-action
products, temperature derivatives from the Arrhenius and equilibrium-constant
log-derivatives, and both are chained through rho(T, Y). One private
evaluation, `_evaluate`, checks the state and makes one pass over the thermo,
rate constants and rates of progress; `rhs_vector`, `rhs_and_jacobian` and
`reaction_rates` each take their part of its result. So linearising at a
state costs one kinetics pass, and the three agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

R_GAS = 8.314462618          # J/(mol K)
P_STANDARD = 1.0e5           # Pa, reference pressure for equilibrium constants
EXP_ARG_MAX = 700.0          # exp() argument clamp, avoids overflow
Y_NEG_TOL = 1.0e-8           # mass fractions in [-Y_NEG_TOL, 0) are treated as 0
TYPICAL_T = 1.0              # typical magnitudes for FD perturbation sizing
TYPICAL_Y = 1.0e-6


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


def _clamped_exp(arg, telemetry=None):
    """exp(arg) with arg clipped to +-EXP_ARG_MAX, and the mask of the
    unclipped entries (where the factor's derivative passes through)."""
    clipped = np.minimum(np.maximum(arg, -EXP_ARG_MAX), EXP_ARG_MAX)
    live = clipped == arg
    if telemetry is not None and not live.all():
        telemetry.mark_saturated()
    return np.exp(clipped), live


def _nasa(a, T):
    """Molar c_p, H, S and dc_p/dT at T of NASA-7 rows a, shape (n, 7);
    four arrays of length n."""
    T2, T3, T4 = T * T, T * T * T, T * T * T * T
    RT = R_GAS * T
    weights = np.array([
        [R_GAS, R_GAS * T, R_GAS * T2, R_GAS * T3, R_GAS * T4, 0.0, 0.0],
        [RT, RT * T / 2, RT * T2 / 3, RT * T3 / 4, RT * T4 / 5, R_GAS, 0.0],
        [R_GAS * np.log(T), R_GAS * T, R_GAS * T2 / 2, R_GAS * T3 / 3,
         R_GAS * T4 / 4, 0.0, R_GAS],
        [0.0, R_GAS, 2 * R_GAS * T, 3 * R_GAS * T2, 4 * R_GAS * T3, 0.0, 0.0],
    ])
    return (np.asarray(a, dtype=float) @ weights.T).T


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
        if not np.isfinite(self.molar_mass) or self.molar_mass <= 0:
            raise KineticsError(f"species {self.name!r}: molar mass must be > 0")
        if not all(map(math.isfinite, (self.t_low, self.t_mid, self.t_high,
                                       *self.coeffs_low, *self.coeffs_high))):
            raise KineticsError(f"species {self.name!r}: non-finite thermo number")
        if not (self.t_low < self.t_mid < self.t_high):
            raise KineticsError(
                f"species {self.name!r}: thermo ranges must satisfy "
                "T_low < T_mid < T_high"
            )
        if len(self.coeffs_low) != 7 or len(self.coeffs_high) != 7:
            raise KineticsError(f"species {self.name!r}: need 7+7 NASA coefficients")
        cp_lo, cp_hi = _nasa([self.coeffs_low, self.coeffs_high], self.t_mid)[0]
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
        if not self.reactants and not self.products:
            raise KineticsError("reaction with empty stoichiometry")
        for stoich in (self.reactants, self.products):
            for idx, nu in stoich.items():
                if int(nu) != nu or nu < 0:
                    raise KineticsError(
                        f"stoichiometric coefficient {nu} must be a non-negative integer"
                    )
        if not all(map(math.isfinite, self.arrhenius)):
            raise KineticsError(f"Arrhenius numbers must be finite, got {self.arrhenius}")
        A = self.arrhenius[0]
        if not (A > 0):
            raise KineticsError(f"pre-exponential factor must be > 0, got {A}")


def _slots(nu):
    """Row j of nu (N, K) as species index k nu[j, k] times, ascending,
    padded with K to a common width >= 1: an (N, width) index array."""
    order = nu.sum(axis=1)
    width = max(1, order.max(initial=0))
    slots = np.full((len(nu), width), nu.shape[1], dtype=np.intp)
    slots[np.arange(width) < order[:, None]] = np.repeat(
        np.broadcast_to(np.arange(nu.shape[1]), nu.shape), nu.ravel())
    return slots


class _Tables:
    """The arrays every evaluation of one mechanism uses, all read-only.

    - `nu_net` (N, K) = nu_reverse - nu_forward as floats, `dnu` its row sums;
    - NASA-7 coefficients `nasa_low`/`nasa_high` (K, 7), the range
      limits `t_low`, `t_mid`, `t_high` and the window where every fit
      holds, [`t_min`, `t_max`] (floats);
    - forward Arrhenius rows `arrhenius` (N, 3), and `reversible` (N,), the
      reactions reversed by detailed balance; `no_reverse` (N,) zeros, the
      k_r and d ln k_r/dT of a mechanism without reversible reactions, else
      None;
    - `reactant_slots`/`product_slots`: `_slots` of `nu_forward`/`nu_reverse`,
      padded with K, which indexes a constant 1;
    - `jacobian_index`: the flat index into dq/dchi (N, K + 1) of every
      reactant slot, then every product slot, row by row (the `bincount`
      scatter of the Jacobian).
    """

    def __init__(self, mech):
        N = mech.n_reactions
        species, reactions = mech.species, mech.reactions
        self.nu_net = np.subtract(mech.nu_reverse, mech.nu_forward, dtype=float)
        self.dnu = self.nu_net.sum(axis=1)
        self.nasa_low = np.array([s.coeffs_low for s in species], dtype=float)
        self.nasa_high = np.array([s.coeffs_high for s in species], dtype=float)
        self.t_low = np.array([s.t_low for s in species])
        self.t_mid = np.array([s.t_mid for s in species])
        self.t_high = np.array([s.t_high for s in species])
        self.t_min = float(self.t_low.max())
        self.t_max = float(self.t_high.min())
        self.reversible = np.array([r.reversible for r in reactions], dtype=bool)
        self.arrhenius = np.array([r.arrhenius for r in reactions],
                                  dtype=float).reshape(N, 3)
        self.no_reverse = None if self.reversible.any() else np.zeros(N)
        self.reactant_slots = _slots(mech.nu_forward)
        self.product_slots = _slots(mech.nu_reverse)
        slots = np.hstack((self.reactant_slots, self.product_slots))
        self.jacobian_index = (np.arange(N)[:, None] * (mech.n_species + 1)
                               + slots).ravel()
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


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
            for stoich, nu in ((rxn.reactants, nu_f), (rxn.products, nu_r)):
                for idx, n in stoich.items():
                    if not 0 <= idx < K:
                        raise KineticsError(
                            f"reaction {j}: species index {idx} out of range", j)
                    nu[j, idx] = n
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
    low = Y.min()
    if not (low >= -Y_NEG_TOL and Y.max() <= 1 + Y_NEG_TOL):
        # A NaN passes the bounds and fails in _density.
        out = (Y < -Y_NEG_TOL) | (Y > 1 + Y_NEG_TOL)
        if out.any():
            bad = int(np.argmax(out))
            raise InvalidStateError(f"mass fraction {bad} out of bounds: {Y[bad]}")
    if low < 0:
        Y = np.where(Y < 0, 0.0, Y)
    return T, Y


def _density(T, Y, p, mech):
    """rho and 1/W_mean = sum Y_i/W_i of clipped mass fractions Y."""
    mean_inv = float((Y / mech.molar_masses).sum())
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


def species_thermo(T, mech):
    """Molar c_p, H, S and dc_p/dT of every species at temperature T."""
    tb = mech.tables
    if not (tb.t_min <= T <= tb.t_max):
        bad = int(np.argmax((T < tb.t_low) | (T > tb.t_high)))
        raise ThermoRangeError(mech.species[bad].name, T,
                               tb.t_low[bad], tb.t_high[bad])
    return _nasa(np.where((T > tb.t_mid)[:, None], tb.nasa_high, tb.nasa_low), T)


def _arrhenius(rows, T, telemetry):
    """k = A T^beta exp(-E/(R T)) of Arrhenius rows (n, 3), and d ln k/dT."""
    A, beta, E = rows.T
    e_rt = E / (R_GAS * T)
    e, live = _clamped_exp(-e_rt, telemetry)
    return A * T**beta * e, (beta + np.where(live, e_rt, 0.0)) / T


def _equilibrium(T, H, S, tb, telemetry, rows=slice(None)):
    """Concentration-based K_c of reactions `rows`, and d ln K_c/dT."""
    neg_dg = -(tb.nu_net @ ((H - T * S) / (R_GAS * T)))[rows]
    kp, live = _clamped_exp(neg_dg, telemetry)
    dnu = tb.dnu[rows]
    dh = (tb.nu_net @ H)[rows]
    kc = kp * (P_STANDARD / (R_GAS * T)) ** dnu
    return kc, (np.where(live, dh / (R_GAS * T), 0.0) - dnu) / T


def equilibrium_constants(T, mech, telemetry=None):
    """Concentration-based equilibrium constant K_c of every reaction."""
    _, H, S, _ = species_thermo(T, mech)
    return _equilibrium(T, H, S, mech.tables, telemetry)[0]


def _rate_constants(T, H, S, tb, *, telemetry):
    """Forward and reverse rate constants and their T log-derivatives.

    The reverse rate follows from detailed balance, k_r = k_f / K_c, for
    reversible reactions; irreversible reactions have k_r = 0.
    """
    kf, dkf = _arrhenius(tb.arrhenius, T, telemetry)
    if tb.no_reverse is not None:
        return kf, tb.no_reverse, dkf, tb.no_reverse
    kr = np.zeros_like(kf)
    dkr = np.zeros_like(kf)
    rev = tb.reversible
    kc, dkc = _equilibrium(T, H, S, tb, telemetry, rev)
    kr[rev], dkr[rev] = kf[rev] / kc, dkf[rev] - dkc
    return kf, kr, dkf, dkr


def rate_constants(T, mech, *, telemetry=None):
    """Forward and reverse rate constants (k_f, k_r) of every reaction."""
    _, H, S, _ = species_thermo(T, mech)
    return _rate_constants(T, H, S, mech.tables, telemetry=telemetry)[:2]


def _others(x):
    """Per entry of x (n, width), the product of the other entries in its
    row (prefix times suffix: exact when some entry is 0).

    One pass over the slot columns each way; width is the largest
    stoichiometric order, so at most a few columns.
    """
    others = np.ones_like(x)
    for j in range(1, x.shape[1]):
        others[:, j] = others[:, j - 1] * x[:, j - 1]
    suffix = x[:, -1]
    for j in range(x.shape[1] - 2, -1, -1):
        others[:, j] *= suffix
        suffix = suffix * x[:, j]
    return others


def production_rates(rates, mech):
    """Net molar production rate of every species, mol/(m^3 s)."""
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (mech.n_reactions,):
        raise ValueError("rate vector length does not match reaction count")
    return mech.tables.nu_net.T @ rates


def _check_finite(values, what):
    if not np.isfinite(values).all():
        bad = int(np.argmax(~np.isfinite(values.ravel())))
        raise InvalidStateError(f"non-finite {what} component {bad}")
    return values


def _evaluate(y, mech, p, telemetry, jacobian):
    """(q, F, J) at state vector y: the net rates of progress, the source
    term [dT/dt, dY/dt] and, if `jacobian` is set, its exact dense Jacobian
    dF/d[T, Y] (else None), from one pass over the kinetics.

    J includes the coupling through rho(T, Y) = p / (R T sum Y_i/W_i). Mass
    fractions in [-Y_NEG_TOL, 0) read as 0, and their columns are the
    derivatives at 0 from above. A factor whose exponent is clamped (see
    RateTelemetry) is constant, so its derivative is 0.
    """
    T, Y = _unpack(y, mech)
    rho, mean_inv = _density(T, Y, p, mech)
    W, K = mech.molar_masses, mech.n_species
    # chi1 is chi = rho Y / W with a trailing 1, the padding slots' factor.
    chi1 = np.empty(K + 1)
    chi = np.divide(rho * Y, W, out=chi1[:K])
    chi1[K] = 1.0
    cp, H, S, dcp = species_thermo(T, mech)
    tb = mech.tables
    kf, kr, dkf, dkr = _rate_constants(T, H, S, tb, telemetry=telemetry)
    xf = chi1[tb.reactant_slots]
    xr = chi1[tb.product_slots]
    fwd = kf * xf.prod(axis=1)
    rev = kr * xr.prod(axis=1)
    q = fwd - rev
    omega = production_rates(q, mech)
    cp_w = cp / W
    D = rho * float(Y @ cp_w)                        # rho c_p, J/(m^3 K)
    F = np.empty(K + 1)
    F[0] = -float(omega @ H) / D
    F[1:] = omega * W / rho
    _check_finite(F, "rhs")
    if not jacobian:
        return q, F, None
    # dq_j/dchi_k: sum over reaction j's slots holding species k, one
    # bincount; the last column is the padding slot.
    n = mech.n_reactions
    weights = np.hstack((kf[:, None] * _others(xf), -kr[:, None] * _others(xr)))
    dq_dchi = np.bincount(tb.jacobian_index, weights.ravel(),
                          n * (K + 1)).reshape(n, K + 1)
    nu_t = tb.nu_net.T
    # domega/dchi at fixed T. With chi_i = rho Y_i / W_i, dchi/dT = -chi/T
    # and dchi_i/dY_k = rho delta_ik / W_i - chi_i / (mean_inv W_k); dq/dT
    # at fixed concentrations is dkf fwd - dkr rev.
    A = (nu_t @ dq_dchi)[:, :K]
    A_chi = A @ chi
    domega = np.empty((K, K + 1))
    domega[:, 0] = nu_t @ (dkf * fwd - dkr * rev) - A_chi / T
    domega[:, 1:] = (rho * A - A_chi[:, None] / mean_inv) / W
    # dY/dt = omega W / rho, with drho/dT = -rho/T, drho/dY_k = -rho/(mean_inv W_k).
    dY = F[1:]
    J = np.empty((K + 1, K + 1))
    J[1:] = (W / rho)[:, None] * domega
    J[1:, 0] += dY / T
    J[1:, 1:] += dY[:, None] / (mean_inv * W)
    # dT/dt = -(omega . H) / D with dH/dT = cp.
    dD = np.empty(K + 1)
    dD[0] = -D / T + rho * float(Y @ (dcp / W))
    dD[1:] = rho * cp_w - D / (mean_inv * W)
    J[0] = -(H @ domega) - F[0] * dD
    J[0, 0] -= float(omega @ cp)
    J[0] /= D
    return q, F, _check_finite(J, "Jacobian")


def reaction_rates(state, mech, *, telemetry=None):
    """Net molar rate of progress of every reaction, mol/(m^3 s)."""
    return _evaluate(state.to_vector(), mech, state.p, telemetry, False)[0]


def rhs_vector(y, mech, p, *, telemetry=None):
    """Time derivative of the state vector [T, Y_1..Y_K] of the isobaric
    reactor at pressure p; refuses a state `_unpack` or `_density` refuses."""
    return _evaluate(y, mech, p, telemetry, False)[1]


def rhs_and_jacobian(y, mech, p, *, telemetry=None):
    """(F, J): rhs_vector at y and its exact dense Jacobian dF/d[T, Y], from
    one evaluation of the kinetics (see `_evaluate`)."""
    return _evaluate(y, mech, p, telemetry, True)[1:]
