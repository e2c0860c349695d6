"""Shared fixtures: tiny hand-built mechanisms, the packaged toy files and
the benchmark's seeded mechanism generator."""
import importlib.util
import pathlib

import numpy as np
import pytest

import expkin
from expkin.kinetics import R_GAS, Mechanism, Reaction, Species

FIXTURE_DIR = pathlib.Path(expkin.__file__).parent / "fixtures"
FORMAT_DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "format.md"

_MECHGEN_SPEC = importlib.util.spec_from_file_location(
    "mechgen", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "mechgen.py")
mechgen = importlib.util.module_from_spec(_MECHGEN_SPEC)
_MECHGEN_SPEC.loader.exec_module(mechgen)

# Flat-cp NASA-7 rows: cp/R = a1 everywhere, H/(RT) = a1 + a6/T, S/R = a1 lnT + a7.
def flat_coeffs(a1, a6=0.0, a7=0.0):
    return (a1, 0.0, 0.0, 0.0, 0.0, a6, a7)


def flat_thermo(species, T):
    """Molar c_p, H and S at T of flat-c_p species (rows from flat_coeffs),
    three arrays from the closed forms above: a reference that shares no
    code with the NASA-7 evaluation in expkin.kinetics."""
    rows = []
    for sp in species:
        a1, a2, a3, a4, a5, a6, a7 = sp.coeffs_low
        assert tuple(sp.coeffs_high) == tuple(sp.coeffs_low)
        assert a2 == a3 == a4 == a5 == 0.0
        rows.append((R_GAS * a1, R_GAS * T * (a1 + a6 / T),
                     R_GAS * (a1 * np.log(T) + a7)))
    return tuple(np.array(col) for col in zip(*rows))


def make_species(name, w, a1=3.5, a6=0.0, a7=0.0,
                 t_low=200.0, t_mid=1000.0, t_high=6000.0):
    c = flat_coeffs(a1, a6, a7)
    return Species(name=name, molar_mass=w, t_low=t_low, t_mid=t_mid,
                   t_high=t_high, coeffs_low=c, coeffs_high=c)


def make_mechanism(species, reactions):
    return Mechanism(species=tuple(species), reactions=tuple(reactions))


@pytest.fixture
def ab_mech():
    """A => B, both 0.030 kg/mol, identical thermo. k = 2 (T-independent)."""
    sp = [make_species("A", 0.030), make_species("B", 0.030)]
    rx = [Reaction(reactants={0: 1}, products={1: 1},
                   arrhenius=(2.0, 0.0, 0.0), reversible=False)]
    return make_mechanism(sp, rx)


@pytest.fixture
def ab_equilibrium_mech():
    """A <=> B with identical thermo, so K_c = 1 exactly."""
    sp = [make_species("A", 0.030), make_species("B", 0.030)]
    rx = [Reaction(reactants={0: 1}, products={1: 1},
                   arrhenius=(2.0, 0.0, 0.0), reversible=True)]
    return make_mechanism(sp, rx)


@pytest.fixture
def dead_mech():
    """Two species, no reactions: the RHS is identically zero."""
    sp = [make_species("A", 0.030), make_species("B", 0.030)]
    return make_mechanism(sp, [])


@pytest.fixture
def toy_mech():
    from expkin.mechio import parse_mechanism
    return parse_mechanism((FIXTURE_DIR / "toy3.mech").read_text())


@pytest.fixture
def toy_state(toy_mech):
    from expkin.kinetics import ThermoState
    return ThermoState(T=1000.0, p=101325.0, Y=np.array([0.1, 0.0, 0.9]))


def random_balanced_mechanism(rng, n_species=None, n_reactions=None):
    """A random mechanism whose reactions all conserve mass exactly.

    Species masses are integer multiples of 0.010 kg/mol, so each product
    side can be assembled greedily to match the reactant-side mass.
    """
    k = n_species if n_species is not None else rng.integers(2, 7)
    n = n_reactions if n_reactions is not None else rng.integers(1, 6)
    units = rng.integers(1, 4, size=k)          # mass in units of 0.010
    units[0] = 1                                # guarantees any mass is reachable
    names = [f"S{i}" for i in range(k)]
    species = [make_species(names[i], 0.010 * units[i],
                            a1=3.0 + rng.uniform(0.0, 2.0),
                            a6=rng.uniform(-5e3, 5e3),
                            a7=rng.uniform(0.0, 15.0))
               for i in range(k)]
    reactions = []
    for _ in range(n):
        while True:
            nu_f = rng.integers(0, 3, size=k)
            mass = int(np.dot(nu_f, units))
            if 0 < mass and nu_f.sum() <= 3:
                break
        nu_r = np.zeros(k, dtype=int)
        remaining = mass
        while remaining > 0:
            ok = np.flatnonzero(units <= remaining)
            i = int(rng.choice(ok))
            nu_r[i] += 1
            remaining -= int(units[i])
        reactants = {i: int(nu_f[i]) for i in range(k) if nu_f[i]}
        products = {i: int(nu_r[i]) for i in range(k) if nu_r[i]}
        reactions.append(Reaction(
            reactants=reactants, products=products,
            arrhenius=(10.0 ** rng.uniform(0, 8), rng.uniform(-1, 2),
                       rng.uniform(0, 2e5)),
            reversible=bool(rng.integers(0, 2))))
    return make_mechanism(species, reactions)


def stiff_diag_matrix(rng, n, span):
    """Random matrix with real spectrum in [-span, 0] and mild conditioning."""
    lam = -span * rng.random(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ np.diag(lam) @ Q.T
