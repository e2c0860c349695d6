"""Property tests of the kinetics and of one EPI3V step on generated
mechanisms.

The networks come from the benchmark's seeded generator
(`perfbench/mechgen.py`) at K = 9-20 species, and the states are interior:
Dirichlet mass fractions, with no species at zero, and T from 800 to
2500 K. Examples are derandomised, so every run checks the same cases.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mechgen
from expkin.integrator import epi3v_step, problem_from_mechanism
from expkin.kinetics import (Mechanism, RateTelemetry, equilibrium_constants,
                              rate_constants, rhs_and_jacobian, rhs_vector)
from expkin.mechio import parse_mechanism, serialize_mechanism
from oracles import kinetics_reference
from test_kinetics import assert_mass_conserving, oracle_error

PRESSURE = 101325.0
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


@st.composite
def cases(draw):
    """(mechanism, state vector [T, Y...])."""
    mech = mechgen.generate_mechanism(draw(st.integers(9, 20)),
                                      draw(st.integers(0, 50)))
    T = draw(st.floats(800.0, 2500.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = rng.dirichlet(np.ones(mech.n_species))
    return mech, np.concatenate(([T], Y))


@PROPERTY
@given(cases())
def test_round_trip(case):
    mech, _ = case
    text = serialize_mechanism(mech)
    again = parse_mechanism(text)
    assert again == mech
    assert serialize_mechanism(again) == text


@PROPERTY
@given(cases())
def test_mass_fraction_rates_sum_to_zero(case):
    mech, y = case
    dY = rhs_vector(y, mech, PRESSURE)[1:]
    assert abs(dY.sum()) <= 1e-12 * np.abs(dY).sum()


@PROPERTY
@given(cases())
def test_jacobian_matches_fd_oracle(case):
    mech, y = case
    assert oracle_error(mech, y, PRESSURE) < 1e-6


@PROPERTY
@given(cases())
def test_jacobian_mass_conserving(case):
    mech, y = case
    F, J = rhs_and_jacobian(y, mech, PRESSURE)
    assert_mass_conserving(J)
    # F and J come from one evaluation, and F is the same bits as rhs_vector.
    assert np.array_equal(F, rhs_vector(y, mech, PRESSURE))


@PROPERTY
@given(cases())
def test_reverse_rates_follow_detailed_balance(case):
    # Detailed balance is the one reverse-rate law: k_r = k_f / K_c, bit for
    # bit, for reversible reactions and 0 for the others.
    mech, y = case
    T = y[0]
    kf, kr = rate_constants(T, mech)
    rev = mech.tables.reversible
    assert rev.any() and not rev.all()
    expected = np.zeros_like(kf)
    expected[rev] = kf[rev] / equilibrium_constants(T, mech)[rev]
    assert np.array_equal(kr, expected)


def one_step(mech, y, divisor=1):
    """(y_new, lte) of one EPI3V step from y with h = 1e-2 / (divisor ||J||_1)."""
    problem = problem_from_mechanism(mech, PRESSURE)
    F, J = problem.jac(y)
    h = 1e-2 / (divisor * np.linalg.norm(J, 1))
    y_new, lte, _ = epi3v_step(y, h, F, J, problem, np.ones(len(y)),
                               krylov_tol=1e-14)
    return y_new, lte


@PROPERTY
@given(cases())
def test_step_conserves_mass(case):
    y_new, _ = one_step(*case)
    assert abs(y_new[1:].sum() - 1.0) <= 1e-12


@PROPERTY
@given(cases())
def test_step_lte_is_third_order(case):
    # The window of the order tests in test_acceptance.py.
    _, lte = one_step(*case)
    _, lte_half = one_step(*case, divisor=2)
    slope = np.log2(np.linalg.norm(lte) / np.linalg.norm(lte_half))
    assert 2.7 <= slope <= 3.3


def two_range_thermo(mech, seed):
    """The mechanism with every species' flat fit replaced by a two-range
    one: c_p/R = a1 + a2 T + a3 T^2 up to a t_mid drawn in [900, 1100] K,
    constant above it, with c_p, H and S continuous at t_mid."""
    rng = np.random.default_rng(seed)
    species = []
    for sp in mech.species:
        a1, _, _, _, _, a6, a7 = sp.coeffs_low
        t = rng.uniform(900.0, 1100.0)
        a2, a3 = rng.uniform(-1e-3, 1e-3), rng.uniform(-2e-7, 2e-7)
        b1 = a1 + a2 * t + a3 * t**2
        high = (b1, 0.0, 0.0, 0.0, 0.0,
                a6 + a1 * t + a2 * t**2 / 2 + a3 * t**3 / 3 - b1 * t,
                a7 + (a1 - b1) * np.log(t) + a2 * t + a3 * t**2 / 2)
        species.append(replace(sp, t_mid=t, coeffs_low=(a1, a2, a3, 0.0, 0.0, a6, a7),
                               coeffs_high=high))
    return Mechanism(species=tuple(species), reactions=mech.reactions)


def clamped_first_reaction(mech):
    """The mechanism with E = 1e9 J/mol in reaction 0: its exponent clamps."""
    first = mech.reactions[0]
    rxn = replace(first, arrhenius=(*first.arrhenius[:2], 1.0e9))
    return Mechanism(species=mech.species, reactions=(rxn, *mech.reactions[1:]))


def reference_states(mech, seed):
    """Three states: interior at a random T; T = 1000 K (between two
    species' t_mid in a two-range mechanism) with one mass fraction at 0 and
    one at -5e-9; and a hot one."""
    rng = np.random.default_rng(seed)
    K = mech.n_species
    Y = rng.dirichlet(np.ones(K))
    edge = rng.dirichlet(np.ones(K))
    edge[:2] = 0.0, -5e-9
    edge[2:] /= edge[2:].sum()
    return [np.concatenate(([T], Y)) for T, Y in (
        (rng.uniform(800.0, 2500.0), Y), (1000.0, edge), (2400.0, Y))]


@pytest.mark.parametrize("K, seed", [(9, 0), (9, 3), (20, 1), (20, 2),
                                     (53, 0), (53, 11)])
@pytest.mark.parametrize("variant", ["flat", "two-range", "clamp"])
def test_kinetics_match_loop_reference(K, seed, variant):
    # The vectorised pass against the loop-form reference: F normwise (and
    # its Y block on its own), J row by row, and the saturation flag set
    # exactly when an exponent was clamped.
    mech = mechgen.generate_mechanism(K, seed)
    assert mech.tables.reversible.any()
    if variant == "two-range":
        mech = two_range_thermo(mech, seed)
        assert len(set(mech.tables.t_mid)) == K
    elif variant == "clamp":
        mech = clamped_first_reaction(mech)
    for y in reference_states(mech, seed):
        F_ref, J_ref, saturated = kinetics_reference(mech, y, PRESSURE)
        tel_rhs, tel_jac = RateTelemetry(), RateTelemetry()
        F = rhs_vector(y, mech, PRESSURE, telemetry=tel_rhs)
        F_jac, J = rhs_and_jacobian(y, mech, PRESSURE, telemetry=tel_jac)
        assert saturated == (variant == "clamp")
        assert tel_rhs.saturated == tel_jac.saturated == saturated
        np.testing.assert_array_equal(F, F_jac)
        assert np.linalg.norm(F - F_ref) <= 1e-13 * np.linalg.norm(F_ref)
        assert (np.linalg.norm(F[1:] - F_ref[1:])
                <= 1e-13 * np.linalg.norm(F_ref[1:]))
        # A species no reaction touches has a zero row in both.
        row_scale = np.abs(J_ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(J - J_ref) <= 1e-12 * row_scale)
