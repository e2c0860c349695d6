"""The seeded mechanism generator: size, balance, round trip, thermo range, ignition."""
import pathlib
import sys
import time

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import mechgen  # noqa: E402
from expkin import mechio  # noqa: E402
from expkin.kinetics import R_GAS  # noqa: E402

SIZES = (20, 53, 100)


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_size_and_exact_mass_balance(k, seed):
    mech = mechgen.generate_mechanism(k, seed)
    assert mech.n_species == k
    assert mech.n_reactions == mechgen.n_reactions_for(k)
    imbalance = (mech.nu_reverse - mech.nu_forward) @ mech.molar_masses
    assert np.max(np.abs(imbalance)) < 1e-12


def test_gri_sized_at_53_species():
    assert mechgen.n_reactions_for(53) == 325


def test_too_few_species_rejected():
    with pytest.raises(ValueError):
        mechgen.generate_mechanism(mechgen.MIN_SPECIES - 1, 0)


@pytest.mark.parametrize("k", SIZES)
def test_serialize_parse_round_trip(k):
    mech = mechgen.generate_mechanism(k, 3)
    assert mechio.parse_mechanism(mechio.serialize_mechanism(mech)) == mech


def test_same_seed_same_mechanism():
    text = [mechio.serialize_mechanism(mechgen.generate_mechanism(53, s))
            for s in (4, 4, 5)]
    assert text[0] == text[1] != text[2]


def test_rate_perturbation_is_seeded_and_touches_only_pre_exponentials():
    network = mechgen.generate_mechanism(53, 0)
    a, b, c = (mechgen.perturb_rates(network, s, 0.05) for s in (1, 1, 2))
    assert a == b != c
    ratios = []
    for r0, r1 in zip(network.reactions, a.reactions):
        assert (r0.reactants, r0.products, r0.reversible) == (r1.reactants, r1.products,
                                                              r1.reversible)
        assert r0.arrhenius[1:] == r1.arrhenius[1:]
        ratios.append(r1.arrhenius[0] / r0.arrhenius[0])
    assert 0.03 < np.std(np.log(ratios)) < 0.07
    assert mechio.parse_mechanism(mechio.serialize_mechanism(a)) == a


def test_k100_generation_is_prompt():
    start = time.perf_counter()
    mechgen.generate_mechanism(100, 0)
    assert time.perf_counter() - start < 2.0


def _initial_y(mech):
    Y = np.zeros(mech.n_species)
    for name, frac in mechgen.initial_mass_fractions(mech).items():
        Y[mech.species_index(name)] = frac
    return Y


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", (0, 1, 7))
def test_reachable_temperatures_inside_thermo_range(k, seed):
    """Enthalpy and mass conservation bound the temperature of every state.

    With flat c_p, the mass-specific enthalpy is sum_i Y_i (c_i T + e_i), with
    c_i = R a1_i / W_i and e_i = R a6_i / W_i. The bath gases never react, so
    the hottest reachable state puts all reactive mass in the species of
    lowest e and lowest c.
    """
    mech = mechgen.generate_mechanism(k, seed)
    assert all(s.coeffs_low == s.coeffs_high and s.coeffs_low[1:5] == (0.0,) * 4
               for s in mech.species)
    W = mech.molar_masses
    c = np.array([R_GAS * s.coeffs_low[0] for s in mech.species]) / W
    e = np.array([R_GAS * s.coeffs_low[5] for s in mech.species]) / W
    inert = ~np.any(mech.nu_forward + mech.nu_reverse, axis=0)
    assert inert.sum() == mechgen.class_counts(k)["B"]
    Y = _initial_y(mech)
    T0 = 1000.0
    H0 = Y @ (c * T0 + e)
    reactive = 1.0 - Y[inert].sum()
    T_max = ((H0 - Y[inert] @ e[inert] - reactive * e[~inert].min())
             / (Y[inert] @ c[inert] + reactive * c[~inert].min()))
    assert T0 < T_max < mechgen.T_HIGH


@pytest.mark.parametrize("k,seed", [(20, 0), (20, 1), (20, 2), (53, 0)])
def test_ignites(k, seed):
    """The temperature rises by 500 K within 1 s and never leaves the thermo range."""
    import prepare

    mech = mechgen.generate_mechanism(k, seed)
    y0 = np.concatenate(([1000.0], _initial_y(mech)))

    def ignited(t, y):
        return y[0] - 1500.0
    ignited.terminal = True
    ignited.direction = 1.0
    sol = prepare.radau(mech, 101325.0, y0, 1.0, rtol=1e-3, atol=1e-9,
                        events=[ignited])
    assert sol.status == 1
    assert sol.y[0].min() > mechgen.T_LOW
