"""Property tests of the kinetics and of one EPI3V step on generated
mechanisms.

The networks come from the benchmark's seeded generator
(`perfbench/mechgen.py`) at K = 9-20 species, and the states are interior:
Dirichlet mass fractions, with no species at zero, and T from 800 to
2500 K. Examples are derandomised, so every run checks the same cases.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mechgen
from expkin.integrator import epi3v_step, problem_from_mechanism
from expkin.kinetics import (equilibrium_constants, rate_constants,
                              rhs_and_jacobian, rhs_vector)
from expkin.mechio import parse_mechanism, serialize_mechanism
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
