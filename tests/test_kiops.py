"""Adaptive Krylov phi evaluator against the dense augmented-matrix oracle."""
import functools
import importlib
import math
import pathlib

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from conftest import stiff_diag_matrix
from expkin import cli, integrator, phikrylov
from expkin.integrator import (
    epi3v_step, integrate_mechanism, problem_from_mechanism, scaled_error_norm,
)
from expkin.kinetics import rhs_and_jacobian
from expkin.phikrylov import (
    M_INIT, PhiConvergenceError, PhiStats, dense_phi_oracle, expm, kiops_eval,
    phi_blocks,
)
from oracles import phi_mp, phi_scalar

ROOT = pathlib.Path(__file__).resolve().parents[1]


def augmented_operator(A, bs, nu=1.0):
    """[[A, nu b_p .. nu b_1], [0, shift]] and the start vector
    [b_0; 0 .. 0, 1/nu].

    Built here independently of the module, so that
    exp(T aug) v = sum_k T^k phi_k(T A) b_k in the first n entries for any
    nu; `kiops_eval` scales by a power of two.
    """
    n, p = A.shape[0], len(bs) - 1
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = A
    for col, k in enumerate(range(p, 0, -1)):
        if bs[k] is not None:
            aug[:n, n + col] = np.multiply(nu, bs[k])
    aug[n:-1, n + 1:] = np.eye(p - 1)
    v = np.zeros(n + p)
    if bs[0] is not None:
        v[:n] = bs[0]
    v[-1] = 1.0 / nu
    return aug, v


class TestRequestValidation:
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_vector_is_a_failed_evaluation(self, bad):
        # Not an OverflowError from the scaling's exponent.
        b = np.ones(2)
        b[1] = bad
        with pytest.raises(PhiConvergenceError, match="not finite"):
            kiops_eval(-np.eye(2), b, 1, tol=1e-10)

    def test_time_points_must_end_at_one(self):
        with pytest.raises(ValueError):
            kiops_eval(np.zeros((2, 2)), np.ones(2), 1, time_points=(0.5,),
                       tol=1e-10)

    def test_time_points_strictly_increasing(self):
        # A NaN compares false both ways, so it must not pass as ordered:
        # unrefused, these two returned 0 and 1 values instead of 2 and 3.
        for time_points in ((0.8, 0.8, 1.0), (math.nan, 1.0),
                            (0.5, math.nan, 1.0)):
            with pytest.raises(ValueError):
                kiops_eval(np.zeros((2, 2)), np.ones(2), 1,
                           time_points=time_points, tol=1e-10)

    def test_positive_tolerance(self):
        with pytest.raises(ValueError):
            kiops_eval(np.zeros((2, 2)), np.ones(2), 1, time_points=(1.0,),
                       tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_finite_tolerance(self, tol):
        # An infinite budget would accept any basis and leave the size the
        # call passes on undefined.
        with pytest.raises(ValueError):
            kiops_eval(np.zeros((2, 2)), np.ones(2), 1, time_points=(1.0,),
                       tol=tol)

    @pytest.mark.parametrize("p", [0, 4, -1])
    def test_phi_order_from_one_to_three(self, p):
        # Both paths refuse an order outside 1 .. 3, phi_0 included.
        A, b = np.zeros((2, 2)), np.ones(2)
        with pytest.raises(ValueError, match="phi orders"):
            kiops_eval(A, b, p, time_points=(1.0,), tol=1e-10)
        with pytest.raises(ValueError, match="phi orders"):
            dense_phi_oracle(A, b, p)

    @pytest.mark.parametrize("m_init", [0, -3, 2.5, np.float64(4.0)])
    def test_first_basis_size_is_a_positive_integer(self, m_init):
        # Unrefused, 0 and -3 returned w = 0 with no matvec, and 2.5 ran
        # with a float basis size. A whole float is refused too.
        A, b = -np.diag(np.arange(1.0, 21.0)), np.ones(20)
        with pytest.raises(ValueError, match="first basis size"):
            kiops_eval(A, b, 1, m_init=m_init)
        # None still means M_INIT.
        res = kiops_eval(A, b, 1, m_init=None)
        assert np.abs(res.values[0]).max() == pytest.approx(1 - math.exp(-1))
        assert res.stats.matvecs > 0


class TestKiopsBasics:
    def test_zero_matrix_phi1(self):
        res = kiops_eval(np.zeros((4, 4)), np.ones(4), 1, tol=1e-12)
        np.testing.assert_allclose(res.values[0], np.ones(4), rtol=1e-12)

    def test_scalar_matches_phi_scalar(self):
        z = -3.7
        got = sum(kiops_eval(np.array([[z]]), np.array([c]), p,
                             tol=1e-13).values[0][0]
                  for p, c in ((1, 2.0), (2, 0.5), (3, -1.0)))
        want = (2.0 * phi_scalar(1, z) + 0.5 * phi_scalar(2, z)
                - 1.0 * phi_scalar(3, z))
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_scalar_order_matches_phi_scalar(self, p):
        # One order per call, at both time points: T^p phi_p(T z).
        z = -3.7
        res = kiops_eval(np.array([[z]]), np.array([1.0]), p,
                         time_points=(0.75, 1.0), tol=1e-13)
        for T, got in zip((0.75, 1.0), res.values, strict=True):
            assert got[0] == pytest.approx(T**p * phi_scalar(p, T * z),
                                           rel=1e-13)

    def test_matches_dense_oracle_easy(self):
        # phi_1(A) b_1 + phi_2(A) b_2, one call per term.
        rng = np.random.default_rng(101)
        A = rng.standard_normal((20, 20))
        terms = [(p, rng.standard_normal(20)) for p in (1, 2)]
        got = sum(kiops_eval(A, b, p, tol=1e-12).values[0] for p, b in terms)
        want = sum(dense_phi_oracle(A, b, p) for p, b in terms)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 1e-10

    def test_matches_dense_oracle_stiff(self):
        # phi_1(A) b_1 + phi_3(A) b_3, one call per term.
        rng = np.random.default_rng(202)
        A = stiff_diag_matrix(rng, 100, 1e4)
        terms = [(p, rng.standard_normal(100)) for p in (1, 3)]
        results = [kiops_eval(A, b, p, tol=1e-10) for p, b in terms]
        got = sum(res.values[0] for res in results)
        want = sum(dense_phi_oracle(A, b, p) for p, b in terms)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 1e-8
        assert all(res.stats.substeps >= 1 for res in results)

    def test_time_point_scaling(self):
        # w(T) = sum T^k phi_k(T A) b_k: check T = 0.75 against a direct
        # evaluation with A and b pre-scaled by 0.75.
        rng = np.random.default_rng(303)
        A = rng.standard_normal((15, 15))
        b1 = rng.standard_normal(15)
        res = kiops_eval(A, b1, 1, time_points=(0.75, 1.0), tol=1e-12)
        w34 = res.values[0]
        want = 0.75 * dense_phi_oracle(0.75 * A, b1, 1)
        np.testing.assert_allclose(w34, want, rtol=1e-9, atol=1e-11)

    def test_intermediate_point_consistency(self):
        # Requesting {0.5, 1} together must agree with separate evaluations.
        rng = np.random.default_rng(404)
        A = stiff_diag_matrix(rng, 30, 50.0)
        b1 = rng.standard_normal(30)
        both = kiops_eval(A, b1, 1, time_points=(0.5, 1.0), tol=1e-12)
        half = 0.5 * dense_phi_oracle(0.5 * A, b1, 1)
        full = dense_phi_oracle(A, b1, 1)
        np.testing.assert_allclose(both.values[0], half, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(both.values[1], full, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_time_points_scale_by_t_to_the_p(self, p):
        # Three inner time points of one substep, each against a dense
        # evaluation with A pre-scaled by T.
        rng = np.random.default_rng(5353)
        A = stiff_diag_matrix(rng, 100, 100.0)
        b = rng.standard_normal(100)
        time_points = (0.25, 0.5, 0.75, 1.0)
        res = kiops_eval(A, b, p, time_points=time_points, tol=1e-12)
        # A Krylov basis, not the whole augmented space.
        assert res.stats.max_krylov_dim < 100
        for T, got in zip(time_points, res.values, strict=True):
            want = T**p * dense_phi_oracle(T * A, b, p)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want), T

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_power_of_two_scale_of_b_is_exact(self, p):
        # The balancing nu follows ||b||_1, so scaling b by 2^k scales nu by
        # 2^-k exactly: the basis and every count stay, and every value
        # scales exactly.
        rng = np.random.default_rng(5151)
        A = stiff_diag_matrix(rng, 50, 1e4)
        b = rng.standard_normal(50)
        want = kiops_eval(A, b, p, (0.75, 1.0), tol=1e-10)
        assert want.stats.rejections > 0
        for k in (40, -40):
            res = kiops_eval(A, math.ldexp(1.0, k) * b, p, (0.75, 1.0),
                             tol=1e-10)
            assert res.stats == want.stats and res.m_next == want.m_next
            for got, w in zip(res.values, want.values, strict=True):
                np.testing.assert_array_equal(got, math.ldexp(1.0, k) * w)

    @pytest.mark.parametrize("p", [1, 2])
    def test_recurrence_between_orders(self, p):
        # phi_p(A) b = b / p! + A phi_(p+1)(A) b, from two Krylov calls.
        rng = np.random.default_rng(5252)
        A = stiff_diag_matrix(rng, 60, 100.0)
        b = rng.standard_normal(60)
        lo = kiops_eval(A, b, p, tol=1e-12)
        hi = kiops_eval(A, b, p + 1, tol=1e-12)
        assert lo.stats.max_krylov_dim < 60 + p
        want = b / math.factorial(p) + A @ hi.values[0]
        assert np.linalg.norm(lo.values[0] - want) <= 1e-10 * np.linalg.norm(want)

    def test_deterministic(self):
        rng = np.random.default_rng(606)
        A = stiff_diag_matrix(rng, 40, 1e3)
        b1 = rng.standard_normal(40)
        r1 = kiops_eval(A, b1, 1, tol=1e-10)
        r2 = kiops_eval(A, b1, 1, tol=1e-10)
        np.testing.assert_array_equal(r1.values[0], r2.values[0])


class TestKiopsAdaptivity:
    def test_substeps_increase_with_stiffness(self, monkeypatch):
        # With the basis capped at 24 it cannot span the augmented space
        # (61), so a stiff operator must halve tau.
        monkeypatch.setattr(phikrylov, "M_MAX", 24)
        rng = np.random.default_rng(707)
        b1 = rng.standard_normal(60)
        mild = kiops_eval(stiff_diag_matrix(rng, 60, 10.0), b1, 1, tol=1e-10)
        hard = kiops_eval(stiff_diag_matrix(rng, 60, 1e5), b1, 1, tol=1e-10)
        assert hard.stats.substeps > mild.stats.substeps == 1
        assert hard.stats.matvecs > mild.stats.matvecs

    def test_krylov_cap_respected(self, monkeypatch):
        rng = np.random.default_rng(808)
        A = stiff_diag_matrix(rng, 80, 1e4)
        monkeypatch.setattr(phikrylov, "M_MAX", 24)
        res = kiops_eval(A, rng.standard_normal(80), 1, tol=1e-10)
        assert res.stats.max_krylov_dim <= 24

    def test_tighter_tolerance_smaller_error(self):
        rng = np.random.default_rng(909)
        A = stiff_diag_matrix(rng, 50, 1e3)
        b1 = rng.standard_normal(50)
        want = dense_phi_oracle(A, b1, 1)
        errs = []
        for tol in (1e-4, 1e-8, 1e-12):
            res = kiops_eval(A, b1, 1, tol=tol)
            errs.append(np.linalg.norm(res.values[0] - want))
        assert errs[2] < errs[0]

    def test_convergence_failure_reports_diagnostics(self, monkeypatch):
        # m capped at 1 with a hugely stiff operator: the substep underflows.
        rng = np.random.default_rng(111)
        A = stiff_diag_matrix(rng, 30, 1e12)
        monkeypatch.setattr(phikrylov, "M_INIT", 1)
        monkeypatch.setattr(phikrylov, "M_MAX", 1)
        with pytest.raises(PhiConvergenceError) as exc_info:
            kiops_eval(A, rng.standard_normal(30), 1, tol=1e-14)
        assert exc_info.value.diagnostics  # non-empty context dict

    def test_happy_breakdown_exact(self):
        # Rank-deficient Krylov space: b1 an eigenvector gives the exact
        # answer with a single basis vector. At n = 3 (where the first basis
        # could span the augmented space) and at n = 12 the Krylov basis
        # breaks down happily at dimension 2.
        for diag in ([-2.0, -5.0, -9.0], [-2.0, -5.0] + [-9.0 - k for k in range(10)]):
            A = np.diag(diag)
            b1 = np.zeros(len(diag))
            b1[1] = 1.0
            res = kiops_eval(A, b1, 1, tol=1e-12)
            assert res.values[0][1] == pytest.approx(phi_scalar(1, -5.0), rel=1e-12)
            assert np.all(np.delete(res.values[0], 1) == 0.0)
            assert res.stats.max_krylov_dim == 2 and res.stats.matvecs == 2


class TestAgainstExpmMultiply:
    """kiops_eval against scipy's expm_multiply (Al-Mohy & Higham) on the
    augmented matrix, at the size and stiffness of the gen53 Jacobian."""

    @staticmethod
    def reference(A, b, p, T):
        aug, v = augmented_operator(A, [None] * p + [b])
        # One call per time point: expm_multiply's interval mode (start/stop)
        # is off by about 2e-3 relative on this operator.
        return scipy.sparse.linalg.expm_multiply(T * aug, v)[:A.shape[0]]

    def test_phi1_at_three_quarters_and_one(self):
        rng = np.random.default_rng(1212)
        A = stiff_diag_matrix(rng, 56, 1e5)
        b = rng.standard_normal(56)
        res = kiops_eval(A, b, 1, time_points=(0.75, 1.0), tol=1e-10)
        for T, got in zip((0.75, 1.0), res.values):
            want = self.reference(A, b, 1, T)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), T

    def test_phi3_vector(self):
        rng = np.random.default_rng(1213)
        A = stiff_diag_matrix(rng, 56, 1e5)
        b = rng.standard_normal(56)
        got, = kiops_eval(A, b, 3, time_points=(1.0,), tol=1e-10).values
        want = self.reference(A, b, 3, 1.0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


    def test_phi2_at_three_quarters_and_one(self):
        rng = np.random.default_rng(1214)
        A = stiff_diag_matrix(rng, 56, 1e5)
        b = rng.standard_normal(56)
        res = kiops_eval(A, b, 2, time_points=(0.75, 1.0), tol=1e-10)
        for T, got in zip((0.75, 1.0), res.values):
            want = self.reference(A, b, 2, T)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), T


class TestProjectionCounts:
    def test_extra_time_point_costs_no_matvecs(self):
        # Every substep aims at T = 1 and serves T = 0.75 from its basis, so
        # asking for 0.75 as well changes neither the work nor w(1).
        rng = np.random.default_rng(1313)
        A = stiff_diag_matrix(rng, 56, 1e5)
        b1 = rng.standard_normal(56)
        one = kiops_eval(A, b1, 1, time_points=(1.0,), tol=1e-10)
        two = kiops_eval(A, b1, 1, time_points=(0.75, 1.0), tol=1e-10)
        # Not a happy breakdown: the basis stays below the full dimension 57.
        assert 0 < one.stats.max_krylov_dim < 57
        assert two.stats.matvecs == one.stats.matvecs
        assert two.stats.substeps == one.stats.substeps
        np.testing.assert_array_equal(two.values[1], one.values[0])


class UnseededArnoldi:
    """`phikrylov.Arnoldi` as it ran before it seeded known columns and
    trimmed its iteration, on its row-major basis: a product and two
    projections for every vector, and max|H| from a numpy scan of each new
    column (the reference for bit equality)."""

    def __init__(self, A, v, m_cap):
        self.matvec = np.asarray(A, dtype=float).dot
        v = np.asarray(v, dtype=float)
        self.beta = math.sqrt(v.dot(v))
        self.V = np.zeros((m_cap + 1, v.size))
        self.H = np.zeros((m_cap + 1, m_cap + 1))
        self.V[0] = v / self.beta
        self.m = 0
        self.happy = False
        self.hmax = 0.0

    def extend(self, m_target):
        while self.m < m_target and not self.happy:
            j = self.m
            Vj = self.V[:j + 1]
            w = self.matvec(self.V[j])
            h = Vj.dot(w)
            w -= h.dot(Vj)
            c = Vj.dot(w)
            w -= c.dot(Vj)
            self.H[:j + 1, j] = h + c
            hnext = math.sqrt(w.dot(w))
            self.H[j + 1, j] = hnext
            self.m = j + 1
            self.hmax = max(self.hmax, float(np.abs(self.H[:j + 2, j]).max()))
            if hnext <= 1.0e-14 * max(1.0, self.hmax):
                self.happy = True
            else:
                self.V[j + 1] = w / hnext


def scaled_augmented(A, bs):
    """The augmented matrix and start vector of `kiops_eval`, with its nu:
    the power of two at or above the largest 1-norm of the b's, inverted."""
    norm_b = max((float(np.abs(b).sum()) for b in bs[1:] if b is not None),
                 default=0.0)
    nu = 2.0 ** -math.ceil(math.log2(norm_b)) if norm_b > 0 else 1.0
    return augmented_operator(A, bs, nu)


def kiops_unseeded(A, bs, time_points, tol, m_init=None):
    """`kiops_eval` as it ran before the seeded basis, on `UnseededArnoldi`:
    (values, stats, m_next), or the PhiConvergenceError message."""
    A = np.asarray(A, dtype=float)
    n, p = A.shape[0], len(bs) - 1
    aug, w = scaled_augmented(A, bs)
    stats = PhiStats(calls=1)
    m = min(phikrylov.M_INIT if m_init is None else m_init, phikrylov.M_MAX)
    m_cap = min(phikrylov.M_MAX, n + p)
    values, tau_now, tau = [], 0.0, 1.0
    while tau_now < 1.0:
        hits_end = tau >= 1.0 - tau_now
        tau_try = 1.0 - tau_now if hits_end else tau
        proc = UnseededArnoldi(aug, w, m_cap)
        beta = proc.beta
        while True:
            proc.extend(min(m, m_cap))
            j = proc.m
            if proc.happy:
                hits_end = True
                tau_try = 1.0 - tau_now
                Hx = proc.H[:j, :j]
            else:
                Hx = np.zeros((j + 1, j + 1))
                Hx[:j, :j] = proc.H[:j, :j]
                Hx[0, j] = 1.0
            tau_end = 1.0 if hits_end else tau_now + tau_try
            inner = [T - tau_now for T in time_points[len(values):]
                     if T < tau_end]
            F = expm(np.multiply.outer([tau_try, *inner], Hx))
            if proc.happy:
                easy, err = True, 0.0
                break
            err = beta * proc.H[j, j - 1] * abs(F[0, j - 1, j])
            budget = tol * beta * tau_try
            if err <= budget:
                easy = err <= phikrylov.EASY_SUCCESS * budget
                break
            stats.rejections += 1
            if m < m_cap:
                m = min(m_cap, max(m + 1, int(math.ceil(4.0 * m / 3.0))))
            else:
                hits_end = False
                tau_try = 0.5 * tau_try
                if tau_try < phikrylov.MIN_SUBSTEP:
                    return str(PhiConvergenceError(
                        "Krylov substep underflow before reaching tolerance",
                        diagnostics={"tau": tau_try, "tau_now": tau_now,
                                     "err": err, "m": j, "beta": beta}))
        stats.substeps += 1
        stats.max_krylov_dim = max(stats.max_krylov_dim, j)
        stats.matvecs += j
        basis = proc.V[:j]
        values.extend((beta * F_T[:j, 0]).dot(basis)[:n] for F_T in F[1:])
        w = (beta * F[0, :j, 0]).dot(basis)
        if (len(values) < len(time_points)
                and time_points[len(values)] == tau_end):
            values.append(w[:n])
        tau_now = tau_end
        tau = 2.0 * tau_try if easy else tau_try
    # The size passed on: the last substep's dimension, less, after a call
    # with no rejection and an easy success, max(1, floor(log10(budget /
    # err) / 3)), or 1 when err = 0.
    m_next = j
    if stats.rejections:
        pass
    elif err == 0.0:
        m_next = max(1, j - 1)
    elif err <= phikrylov.EASY_SUCCESS * budget:
        m_next = max(1, j - max(1, math.floor(math.log10(budget / err) / 3)))
    return values, stats, m_next


def assert_bits_match_unseeded(A, b, p, time_points=(1.0,), tol=1e-10,
                               m_init=None):
    """kiops_eval and kiops_unseeded agree bit for bit on T^p phi_p(T A) b,
    in every value and every count, and in the size passed on, or raise the
    same error; returns kiops_eval's stats."""
    want = kiops_unseeded(A, [None] * p + [b], time_points, tol, m_init)
    if isinstance(want, str):
        with pytest.raises(PhiConvergenceError) as exc_info:
            kiops_eval(A, b, p, time_points, tol, m_init)
        assert str(exc_info.value) == want
        return None
    res = kiops_eval(A, b, p, time_points, tol, m_init)
    assert res.stats == want[1]
    assert [v.tobytes() for v in res.values] == [v.tobytes() for v in want[0]]
    assert res.m_next == want[2]
    return res.stats


class TestFirstBasisSize:
    """`m_init` sets the size of a call's first basis, and `m_next` is the
    size the call passes on to the next call of its kind."""

    @pytest.mark.parametrize("m_init", [1, 4, 10, 20])
    @pytest.mark.parametrize("p", [1, 3])
    def test_values_do_not_depend_on_first_size(self, m_init, p):
        # Every first size is below the 40-odd vectors the step needs, so
        # each call regrows its basis from a different start.
        rng = np.random.default_rng(2121)
        A = stiff_diag_matrix(rng, 60, 1e4)
        b = rng.standard_normal(60)
        res = kiops_eval(A, b, p, time_points=(0.75, 1.0), tol=1e-10,
                         m_init=m_init)
        for T, got in zip((0.75, 1.0), res.values, strict=True):
            want = T**p * dense_phi_oracle(T * A, b, p)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        assert res.stats.rejections > 0

    def test_regrown_call_passes_on_its_dimension(self):
        rng = np.random.default_rng(2222)
        A = stiff_diag_matrix(rng, 60, 1e4)
        b = rng.standard_normal(60)
        stats = assert_bits_match_unseeded(A, b, 1, (0.75, 1.0), m_init=2)
        res = kiops_eval(A, b, 1, (0.75, 1.0), m_init=2)
        assert stats.rejections > 0 and stats.substeps == 1
        assert res.m_next == stats.max_krylov_dim > 2

    def test_size_above_cap_is_clamped(self, monkeypatch):
        # A first size above M_MAX runs as M_MAX, bit for bit.
        monkeypatch.setattr(phikrylov, "M_MAX", 24)
        rng = np.random.default_rng(5454)
        A = stiff_diag_matrix(rng, 60, 1e4)
        b = rng.standard_normal(60)
        big = kiops_eval(A, b, 1, (0.75, 1.0), m_init=1000)
        cap = kiops_eval(A, b, 1, (0.75, 1.0), m_init=24)
        assert big.stats == cap.stats and big.m_next == cap.m_next
        assert big.stats.substeps > 1
        for got, want in zip(big.values, cap.values, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_numpy_integer_size_runs_as_int(self):
        # A size read back from an array is accepted and changes nothing.
        rng = np.random.default_rng(5454)
        A = stiff_diag_matrix(rng, 60, 1e4)
        b = rng.standard_normal(60)
        got = kiops_eval(A, b, 2, (0.75, 1.0), m_init=np.int64(5))
        want = kiops_eval(A, b, 2, (0.75, 1.0), m_init=5)
        assert got.stats == want.stats and got.stats.rejections > 0
        assert got.m_next == want.m_next and type(got.m_next) is int
        for g, w in zip(got.values, want.values, strict=True):
            np.testing.assert_array_equal(g, w)

    def test_clean_call_shrinks_by_its_slack(self):
        # A mild operator and a large first basis: the error lies decades
        # below the budget, and the size passed on drops by one per three.
        rng = np.random.default_rng(2323)
        A = stiff_diag_matrix(rng, 60, 10.0)
        b = rng.standard_normal(60)
        stats = assert_bits_match_unseeded(A, b, 3, m_init=30)
        res = kiops_eval(A, b, 3, m_init=30)
        assert stats.rejections == 0 and not stats.max_krylov_dim < 30
        assert res.m_next < 29

    @pytest.mark.parametrize("m_init", [4, 10, 20])
    def test_happy_breakdown_shrinks_by_one(self, m_init):
        # n + p = 7: a basis of 7 spans the augmented space, so its error
        # is 0 and bounds no slack. A first basis of 4 regrows to 7 and
        # passes 7 on; a larger one breaks down at once and passes on 6,
        # so the next call estimates its error.
        rng = np.random.default_rng(2424)
        A = stiff_diag_matrix(rng, 6, 1e3)
        b = rng.standard_normal(6)
        stats = assert_bits_match_unseeded(A, b, 1, (0.75, 1.0), m_init=m_init)
        res = kiops_eval(A, b, 1, (0.75, 1.0), m_init=m_init)
        assert stats.max_krylov_dim == 7
        assert res.m_next == (7 if m_init < 7 else 6)

    def test_chain_matches_reference(self):
        # A chain of calls as an integration makes them, each starting at
        # the size the last one passed on, on operators that stiffen and
        # relax again: every call's values, counts and size passed on
        # match the reference, and sizes both grow and shrink.
        rng = np.random.default_rng(2525)
        m, sizes = None, []
        for span in np.geomspace(1.0, 1e5, 12).tolist() + [10.0, 1.0]:
            A = stiff_diag_matrix(rng, 40, span)
            b = rng.standard_normal(40)
            assert_bits_match_unseeded(A, b, 3, (1.0,), 1e-10, m_init=m)
            m = kiops_eval(A, b, 3, (1.0,), 1e-10, m).m_next
            sizes.append(m)
        steps = np.diff(sizes)
        assert (steps > 0).any() and (steps < 0).any()


class TestSeededBasis:
    """The first p basis vectors of a call are unit vectors of the shift
    block, then the column of b in the augmented matrix; `kiops_eval` writes
    them without products. Every value and count stays that of the unseeded
    process, bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("time_points", [(1.0,), (0.75, 1.0),
                                             (0.25, 0.5, 0.75, 1.0)])
    def test_bits_match_for_every_order(self, p, time_points):
        # The signed zeros in b must not reach the basis as -0.0.
        rng = np.random.default_rng(4242)
        A = stiff_diag_matrix(rng, 40, 1e4)
        b = rng.standard_normal(40)
        b[:5] = -0.0
        assert_bits_match_unseeded(A, b, p, time_points)

    def test_bits_match_when_tau_halves(self, monkeypatch):
        # A basis capped at 4 cannot hold a stiff step, so tau halves and
        # the later substeps start from general vectors.
        monkeypatch.setattr(phikrylov, "M_INIT", 4)
        monkeypatch.setattr(phikrylov, "M_MAX", 4)
        rng = np.random.default_rng(4444)
        A = stiff_diag_matrix(rng, 30, 50.0)
        for p in (1, 3):
            stats = assert_bits_match_unseeded(A, rng.standard_normal(30), p,
                                               (0.75, 1.0))
            assert stats.substeps > 1 and stats.rejections > 0

    def test_bits_match_when_m_regrows(self):
        # A tight tolerance on a stiff operator grows the basis past M_INIT
        # on the seeded process.
        rng = np.random.default_rng(4545)
        A = stiff_diag_matrix(rng, 60, 1e5)
        for p in (1, 3):
            stats = assert_bits_match_unseeded(A, rng.standard_normal(60), p,
                                               (0.75, 1.0), 1e-13)
            assert stats.rejections > 0 and stats.max_krylov_dim > M_INIT

    def test_bits_match_with_one_vector_bases(self, monkeypatch):
        # M_INIT = M_MAX = 1: each basis is the seeded start vector alone.
        # Its error estimate does not shrink with tau, so a nonzero b ends
        # in a substep underflow, which must fail with the same message; a
        # zero b_1 breaks down happily at once.
        monkeypatch.setattr(phikrylov, "M_INIT", 1)
        monkeypatch.setattr(phikrylov, "M_MAX", 1)
        rng = np.random.default_rng(4646)
        A = stiff_diag_matrix(rng, 12, 1e3)
        b = rng.standard_normal(12)
        for p in (1, 3):
            assert assert_bits_match_unseeded(A, b, p, (0.75, 1.0)) is None
        stats = assert_bits_match_unseeded(A, np.zeros(12), 1, (0.75, 1.0))
        assert stats.matvecs == 1

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_happy_breakdown_at_seeded_vector(self, p):
        # b_p = 0: the seeded column is zero, so the process breaks down
        # happily after p vectors, as the unseeded one does.
        rng = np.random.default_rng(4747)
        A = stiff_diag_matrix(rng, 20, 1e3)
        stats = assert_bits_match_unseeded(A, np.zeros(20), p, (0.75, 1.0))
        assert stats.max_krylov_dim == stats.matvecs == p

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_full_space_happy_breakdown(self, p, monkeypatch):
        # A nonzero b with n + p <= M_INIT: the first basis spans the whole
        # augmented space and breaks down happily, so the one substep
        # reaches T = 1 with no error estimate, and serves T = 0.75 too.
        happy = []

        class Recorded(phikrylov.Arnoldi):
            def extend(self, m_target):
                super().extend(m_target)
                happy.append(self.happy)

        monkeypatch.setattr(phikrylov, "Arnoldi", Recorded)
        rng = np.random.default_rng(4949)
        n = M_INIT - p
        A = stiff_diag_matrix(rng, n, 1e3)
        stats = assert_bits_match_unseeded(A, rng.standard_normal(n), p,
                                           (0.75, 1.0))
        assert happy == [True]
        assert stats.substeps == 1 and stats.rejections == 0
        assert stats.max_krylov_dim == stats.matvecs == M_INIT

    def test_seeded_arnoldi_basis_bits(self):
        # The seeded process writes the unseeded V and H, signed zeros
        # included, and builds the same number of vectors.
        rng = np.random.default_rng(4848)
        A = stiff_diag_matrix(rng, 30, 1e4)
        b = rng.standard_normal(30)
        b[::3] = -0.0
        aug, w = scaled_augmented(A, [None, None, None, b])
        want = UnseededArnoldi(aug, w, 12)
        want.extend(12)
        got = phikrylov.Arnoldi(aug, w, 12, columns=[32, 31, 30])
        got.extend(2)
        got.extend(12)
        assert (got.m, got.happy, got.beta) == (want.m, want.happy, want.beta)
        assert got.V.tobytes() == want.V.tobytes()
        assert got.H.tobytes() == want.H.tobytes()


def count_expm_calls(monkeypatch):
    """Record the argument shape of every phikrylov.expm call."""
    shapes = []
    real = phikrylov.expm

    def counted(A, **kwargs):
        shapes.append(np.shape(A))
        return real(A, **kwargs)

    monkeypatch.setattr(phikrylov, "expm", counted)
    return shapes


class TestOneExponentialPerEvaluation:
    def test_toy_attempt_makes_one_expm_call(self, toy_mech, toy_state, monkeypatch):
        problem = problem_from_mechanism(toy_mech, toy_state.p)
        y = toy_state.to_vector()
        F, J = problem.jac(y)
        shapes = count_expm_calls(monkeypatch)
        _, _, stats = epi3v_step(y, 1e-4, F, J, problem, np.ones(len(y)))
        assert stats == PhiStats()
        # n = 4: the phi blocks of h J at T = 3/4 and T = 1, one 16 x 16
        # matrix each.
        assert shapes == [(2, 16, 16)]

    def test_toy_attempts_use_one_expm_call_each(self, toy_mech, toy_state,
                                                 monkeypatch):
        # On toy3 (n + MAX_PHI_ORDER <= DENSE_PHI_MAX) every attempt, completed or
        # failed at Y1 or at its new state, makes one expm call and no
        # Krylov work.
        shapes = count_expm_calls(monkeypatch)
        out = integrate_mechanism(toy_state, toy_mech, 0.3, atol=1e-10,
                                  rtol=1e-8)
        assert out.success
        completed = [r for r in out.records if np.isfinite(r.err_est)]
        assert len(completed) >= len(out.accepted_records) > 1000
        assert len(shapes) == len(out.records)
        assert set(shapes) == {(2, 16, 16)}
        assert all(r.kiops_calls == r.substeps == r.matvecs == r.krylov_dim == 0
                   for r in out.records)

    def test_krylov_path_one_expm_per_attempt(self, monkeypatch):
        # One expm per substep attempt, accepted (substeps) or rejected; the
        # T = 3/4 point rides in the attempt that spans it.
        rng = np.random.default_rng(1414)
        A = stiff_diag_matrix(rng, 56, 1e5)
        shapes = count_expm_calls(monkeypatch)
        res = kiops_eval(A, rng.standard_normal(56), 1,
                         time_points=(0.75, 1.0), tol=1e-10)
        assert res.stats.matvecs > 0 and res.stats.rejections > 0
        assert len(shapes) == res.stats.substeps + res.stats.rejections
        assert sum(shape[0] == 2 for shape in shapes) >= 1


def phi_reach(m):
    """a_m: the ||A||_1 at which degree m truncates T^3 phi_3 (its powers
    up to A^(m-3)) at unit roundoff, 3! a^(m-2) / (m+1)! = 2^-53."""
    return (math.factorial(m + 1) / 6 * 2.0**-53) ** (1 / (m - 2))


PHI_DEGREES = (4, 6, 9, 12, 16)


class TestPhiBlocks:
    """phi_blocks: [T phi_1 | T^2 phi_2 | T^3 phi_3](T A) from one expm."""

    @staticmethod
    def block(P, p):
        n = P.shape[0]
        return P[:, (p - 1) * n:p * n]

    @pytest.mark.parametrize("h, bound", [(1e-5, 1e-12), (1e-3, 1e-12),
                                          (1.72, 1e-10)],
                             ids=["1e-05", "0.001", "norm1e6"])
    def test_toy_matches_scipy_expm(self, toy_mech, toy_state, h, bound):
        # T^p phi_p(T h J) h F for p = 1..3 at T = 3/4 and 1, against scipy's
        # exponential of the unscaled augmented operator. At h = 1.72,
        # ||h J||_1 is about 1e6 and expm squares 18 times (toy3-sweep's
        # loose steps up to 20); each squaring doubles the rounding error,
        # measured 3.2e-11 against a 50-digit reference.
        y = toy_state.to_vector()
        F, J = rhs_and_jacobian(y, toy_mech, toy_state.p)
        A = h * J
        n = A.shape[0]
        blocks = phi_blocks(A, (0.75, 1.0))
        assert blocks.shape == (2, n, 3 * n)
        for p in (1, 2, 3):
            aug, v = augmented_operator(A, [None] * p + [h * F])
            for T, P in zip((0.75, 1.0), blocks):
                got = self.block(P, p) @ (h * F)
                want = (scipy.linalg.expm(T * aug) @ v)[:n]
                assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want), (p, T)

    @pytest.mark.parametrize("lam, bound", [
        ([-3e3, -20.0, -1.0, -1e-4, 1e-6, 0.3, 2.0], 1e-12),
        ([-1e6, -3e3, -20.0, -1.0, -1e-4, 0.3, 2.0], 1e-10),
    ], ids=["mild", "stiff"])
    def test_diagonal_matches_scalar_phi(self, lam, bound):
        # On a diagonal operator each block is diagonal with entries
        # T^p phi_p(T lambda), checked against the 40-digit scalar phi.
        n = len(lam)
        blocks = phi_blocks(np.diag(lam), (0.75, 1.0))
        for T, P in zip((0.75, 1.0), blocks):
            for p in (1, 2, 3):
                got = self.block(P, p)
                want = np.array([T**p * phi_mp(p, T * z) for z in lam])
                np.testing.assert_allclose(np.diag(got), want, rtol=bound, atol=0)
                assert np.all(got[~np.eye(n, dtype=bool)] == 0.0)

    def assert_bits_match_reference(self, A, monkeypatch):
        degree = expected_degree(A, (0.75, 1.0))
        want_stack = reference_stack(A, (0.75, 1.0))
        want = reference_blocks(A, (0.75, 1.0))
        calls = []
        real = phikrylov.expm

        def recorded(X, **kwargs):
            calls.append((np.array(X), kwargs))
            return real(X, **kwargs)

        monkeypatch.setattr(phikrylov, "expm", recorded)
        # Twice: the first call must not change the cached blocks.
        for _ in range(2):
            got = phi_blocks(A, (0.75, 1.0))
            (stack, kwargs), = calls
            del calls[:]
            np.testing.assert_array_equal(stack, want_stack)
            assert kwargs == {"degree": degree}
            np.testing.assert_array_equal(got, want)
        return degree

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bits_match_full_stack_reference(self, n, monkeypatch):
        rng = np.random.default_rng(100 + n)
        A = rng.standard_normal((n, n)) * np.geomspace(1e-3, 1e3, n)
        A[0, -1] = -0.0
        self.assert_bits_match_reference(A, monkeypatch)

    @pytest.mark.parametrize("norm", [0.0, 1e-9, 1e-5, 0.01, 0.1, 0.5, 1.0])
    def test_bits_match_reference_at_every_degree(self, norm, monkeypatch):
        # Norms in each degree's bracket, 4 to 16, and one past a_16.
        A = with_norm(np.random.default_rng(2121), 4, norm)
        self.assert_bits_match_reference(A, monkeypatch)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bits_match_reference_over_norms_and_times(self, n):
        # 200 norms in [1e-12, 1e7] and three sets of time points. Where
        # the stack overflows, both sides give the same NaNs.
        rng = np.random.default_rng(3030 + n)
        for norm in np.geomspace(1e-12, 1e7, 200):
            A = with_norm(rng, n, norm)
            for time_points in ((0.75, 1.0), (1.0,), (0.5, 1.0)):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = phi_blocks(A, time_points)
                    want = reference_blocks(A, time_points)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("h", [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_bits_match_on_balanced_toy_jacobian(self, toy_mech, toy_state, h,
                                                 monkeypatch):
        # The balanced h J that an EPI3V attempt at toy_ignition.cfg's
        # tolerances hands to phi_blocks; it names a degree below 20.
        problem = problem_from_mechanism(toy_mech, toy_state.p)
        y = toy_state.to_vector()
        F, J = problem.jac(y)
        seen = []
        real = phikrylov.phi_blocks

        def recorded(A, time_points):
            seen.append(A)
            return real(A, time_points)

        with monkeypatch.context() as m:
            m.setattr(phikrylov, "phi_blocks", recorded)
            epi3v_step(y, h, F, J, problem, 1e-10 + 1e-8 * np.abs(y))
        A, = seen
        assert not np.array_equal(A, h * J)
        assert self.assert_bits_match_reference(A, monkeypatch) in PHI_DEGREES

    @pytest.mark.parametrize("norm", [1e-9, 1e-5, 0.01, 0.1, 0.5])
    def test_scaling_is_exact_at_fixed_degree(self, norm):
        # At one Taylor degree, a stack with eta I shift blocks (eta = 2^k
        # just below theta_m, the norm that would make expm pick m itself)
        # unscaled by eta^-j and the unit-shift stack give the same blocks,
        # bit for bit: the unit-shift stack needs no scaling.
        A = with_norm(np.random.default_rng(2222), 4, norm)
        m = expected_degree(A, (0.75, 1.0))
        eta = 2.0 ** math.floor(math.log2(taylor_theta(m)))
        scaled = reference_stack(A, (0.75, 1.0), eta)
        unit = reference_stack(A, (0.75, 1.0))
        assert taylor_degree(norm1(scaled)) == m
        got = phikrylov._taylor_stack(scaled, m)[:, :4, 4:]
        want = phikrylov._taylor_stack(unit, m)[:, :4, 4:]
        np.testing.assert_array_equal(got * np.repeat([1 / eta, 1 / eta**2,
                                                       1 / eta**3], 4), want)

    @pytest.mark.parametrize("m", PHI_DEGREES)
    @pytest.mark.parametrize("side", [0.999, 1.001], ids=["below", "above"])
    def test_degree_follows_norm_of_a(self, m, side, monkeypatch):
        # Just below a_m the stack runs at degree m; just above, at the next
        # degree (past a_16, at 20, which expm picks from the norm).
        degrees = record_taylor_degrees(monkeypatch)
        A = with_norm(np.random.default_rng(2323 + m), 4, side * phi_reach(m))
        phi_blocks(A, (0.75, 1.0))
        following = PHI_DEGREES[PHI_DEGREES.index(m) + 1:] + (20,)
        assert degrees == [m if side < 1 else following[0]]

    @pytest.mark.parametrize("m", PHI_DEGREES + (20,))
    @pytest.mark.parametrize("side", [0.999, 1.001], ids=["below", "above"])
    def test_blocks_match_mp_reference(self, m, side):
        # Beside every a_m and theta_20 (where the Pade tier takes over),
        # each block is within 1e-15 of a 40-digit reference in the 1-norm.
        n = 3
        norm = side * (taylor_theta(20) if m == 20 else phi_reach(m))
        A = with_norm(np.random.default_rng(2424 + m), n, norm)
        blocks = phi_blocks(A, (0.75, 1.0))
        for T, P in zip((0.75, 1.0), blocks):
            want = mp_phi_blocks(A, T)
            for p in (1, 2, 3):
                got_p, want_p = self.block(P, p), want[:, (p - 1) * n:p * n]
                assert norm1(got_p - want_p) <= 1e-15 * norm1(want_p), (T, p)

    def test_toy_run_stays_below_degree_20(self, toy_mech, toy_state,
                                           monkeypatch):
        # toy_ignition.cfg's run: no stack whose ||A||_1 is at most a_16
        # runs at degree 20, and most run at degree 9.
        degrees = record_taylor_degrees(monkeypatch)
        seen = []
        real = phikrylov.phi_blocks

        def recorded(A, time_points):
            del degrees[:]
            P = real(A, time_points)
            seen.append((norm1(A), degrees[0] if degrees else "pade"))
            return P

        monkeypatch.setattr(phikrylov, "phi_blocks", recorded)
        out = integrate_mechanism(toy_state, toy_mech, 0.3, atol=1e-10,
                                  rtol=1e-8)
        assert out.success and len(seen) == len(out.records) > 1000
        small = [d for a, d in seen if a <= phi_reach(16)]
        assert len(small) > 0.9 * len(seen)
        assert all(d in PHI_DEGREES for d in small)
        assert sum(d == 9 for _, d in seen) > 0.5 * len(seen)

    def test_non_finite_norm_is_a_failed_evaluation(self):
        # Column sums that overflow: a PhiConvergenceError and no overflow
        # warning (warnings are errors here).
        A = np.array([[-1e308, 1e308], [1e308, -1e308]])
        for X in (A, np.array([[1.0, math.nan], [0.0, 1.0]])):
            with pytest.raises(PhiConvergenceError, match="not finite"):
                phi_blocks(X, (0.75, 1.0))


def expected_degree(A, time_points):
    """The Taylor degree phi_blocks should name: the lowest m whose a_m
    covers max(T) ||A||_1, else None (expm picks it from the norm)."""
    a = max(time_points) * norm1(A)
    return next((m for m in PHI_DEGREES if a <= phi_reach(m)), None)


def reference_stack(A, time_points, eta=1.0):
    """The stack T M of phi_blocks built in one piece: M with A and the
    eta I shift blocks, then one outer product with the time points."""
    n = A.shape[0]
    M = np.zeros((4 * n, 4 * n))
    M[:n, :n] = A
    M[:3 * n, n:] = eta * np.eye(3 * n)
    return np.multiply.outer(time_points, M)


def reference_blocks(A, time_points):
    """The top block row of phi_blocks from the unit-shift stack: its
    Taylor polynomial at `expected_degree`, or expm's own choice past a_16."""
    n = A.shape[0]
    stack = reference_stack(A, time_points)
    degree = expected_degree(A, time_points)
    if degree is None:
        E = phikrylov.expm(stack)
    else:
        E = phikrylov._taylor_stack(stack, degree)
    return E[:, :n, n:]


def taylor_degree(top):
    """The Taylor degree expm takes for a stack of largest 1-norm `top`."""
    return next(m for m in TAYLOR_DEGREES if top <= taylor_theta(m))


def record_taylor_degrees(monkeypatch):
    """The degree of every Taylor polynomial expm evaluates."""
    degrees = []
    real = phikrylov._taylor_stack

    def recorded(As, m):
        degrees.append(m)
        return real(As, m)

    monkeypatch.setattr(phikrylov, "_taylor_stack", recorded)
    return degrees


def mp_phi_blocks(A, T):
    """[T phi_1 | T^2 phi_2 | T^3 phi_3](T A) from a 40-digit mpmath
    exponential of the unit-shift stack T M."""
    n = A.shape[0]
    M = np.zeros((4 * n, 4 * n))
    M[:n, :n] = A
    M[:3 * n, n:] = np.eye(3 * n)
    with mpmath.workdps(40):
        E = mpmath.expm(mpmath.matrix((T * M).tolist()))
        return np.array([[float(E[i, j]) for j in range(n, 4 * n)]
                         for i in range(n)])


def reference_phi_products(A, hF, weights):
    """The small-state branch of integrator._phi_products with d from
    numpy and the unscaling applied to each vector: scale it by d,
    multiply, divide by d."""
    n = len(hF)
    e = np.frexp(weights)[1]
    d = np.ldexp(1.0, np.maximum(e.min() - e, -20))
    P = phikrylov.phi_blocks(A * np.divide.outer(d, d), (0.75, 1.0))
    w34, w1 = P[:, :, :n] @ (d * hF) / d

    def phi3(v):
        return P[1, :, 2 * n:] @ (d * v) / d
    return w34, w1, phi3


class TestFoldedUnscaling:
    @pytest.mark.parametrize("atol", [1e-10, 1e-20, 1e-30],
                             ids=["toy", "clip", "past-clip"])
    @pytest.mark.parametrize("h", [1e-8, 1e-6, 1e-4, 1e-3])
    def test_bits_match_reference(self, toy_mech, toy_state, h, atol):
        # d_j / d_i is a power of two, so scaling the phi blocks by it is
        # exact. At atol 1e-20 and 1e-30 the absent species' weight lies 50
        # and 83 binades below T's, so d spreads to the 2^-20 clip.
        y = toy_state.to_vector()
        F, J = rhs_and_jacobian(y, toy_mech, toy_state.p)
        weights = atol + 1e-8 * np.abs(y)
        e = np.frexp(weights)[1]
        assert (e.max() - e.min() > 20) == (atol < 1e-10)
        v = np.random.default_rng(7).standard_normal(len(y)) * weights
        got = integrator._phi_products(h * J, h * F, weights, 1e-12,
                                       PhiStats())
        want = reference_phi_products(h * J, h * F, weights)
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got[2](v), want[2](v))

    def test_balancing_is_cached_and_read_only(self):
        # One (d column, d, 1/d) triple per tuple of binary exponents of the
        # weights.
        weights = 1e-10 + 1e-8 * np.array([1500.0, 0.1, 0.0, 0.9])
        e = tuple(math.frexp(w)[1] for w in weights)
        key = np.frexp(weights)[1].tobytes()
        got = integrator._balancing(key)
        assert all(a is b for a, b in zip(integrator._balancing(key), got))
        d_col, d, d_inv = got
        assert not any(x.flags.writeable for x in got)
        want = np.ldexp(1.0, np.maximum(min(e) - np.array(e), -20))
        np.testing.assert_array_equal(d, want)
        np.testing.assert_array_equal(d_col, want[:, None])
        np.testing.assert_array_equal(d_inv, 1.0 / want)


class TestDenseAgainstKrylovStep:
    @pytest.mark.parametrize("h", [1e-8, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_toy_step_agrees(self, toy_mech, toy_state, h, monkeypatch):
        # One EPI3V step on toy3 through the phi blocks and through the two
        # Krylov calls (forced by a dense threshold below the state, and
        # started from a basis too small to break down at once): y_new and
        # lte agree in the controller's norm.
        problem = problem_from_mechanism(toy_mech, toy_state.p)
        y = toy_state.to_vector()
        F, J = problem.jac(y)
        weights = 1e-10 + 1e-8 * np.abs(y)
        y_dense, lte_dense, stats = epi3v_step(y, h, F, J, problem, weights,
                                               krylov_tol=1e-12)
        assert stats == PhiStats()
        monkeypatch.setattr(integrator, "DENSE_PHI_MAX", 2)
        monkeypatch.setattr(phikrylov, "M_INIT", 2)
        y_kry, lte_kry, stats = epi3v_step(y, h, F, J, problem, weights,
                                           krylov_tol=1e-12)
        assert stats.calls == 2 and stats.matvecs > 0
        for a, b in ((y_dense, y_kry), (lte_dense, lte_kry)):
            assert scaled_error_norm(a - b, weights) <= 1e-9


# Degree-13 Pade coefficients and theta_13 (Higham, SIAM J. Matrix Anal.
# Appl. 26(4), 2005), kept here so that the reference below does not read
# the module's tables.
PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
THETA_13 = 5.371920351148152


def expm_with_identity(A):
    """The single-matrix Pade 13 exponential with b*I added to U and V, the
    form expm had before it took stacks and chose its degree."""
    n = A.shape[0]
    theta = THETA_13
    norm1 = float(np.abs(A).sum(axis=0).max())
    s = max(0, int(math.ceil(math.log2(norm1 / theta)))) if norm1 > theta else 0
    As = A / 2**s
    b = PADE13_B
    I = np.eye(n)
    A2 = As @ As
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = As @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
              + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    F = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        F = F @ F
    return F


def pade13_stack_reference(A):
    """expm's Pade tier on a stack as it was before it shared
    `_paterson_stockmeyer` with the Taylor tier: [I, A^2, A^4, A^6] in its
    own buffer, the coefficient rows of the A^6 factors first, and its own
    Horner step."""
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    As = A.reshape(-1, n, n)
    b = np.array(PADE13_B)
    C = np.zeros((4, 4))
    C[0, 1:], C[1, 1:] = b[9::2], b[8:13:2]
    C[2], C[3] = b[1:8:2], b[0:7:2]
    theta = THETA_13
    norms = np.abs(As).sum(axis=1).max(axis=1).tolist()
    s = [max(0, math.ceil(math.log2(x / theta))) if x > theta else 0
         for x in norms]
    if max(norms) > theta:
        As = As * np.array([0.5**k for k in s]).reshape(-1, 1, 1)
    batch = len(As)
    P = np.empty((4, batch, n, n))
    P[0] = np.eye(n)
    np.matmul(As, As, out=P[1])
    for j in range(2, 4):
        np.matmul(P[1], P[j - 1], out=P[j])
    W = (C @ P.reshape(4, -1)).reshape(-1, batch, n, n)
    W = P[3] @ W[:2] + W[2:]
    U = As @ W[0]
    V = W[1]
    F = np.linalg.solve(V - U, V + U)
    if max(norms) > theta:
        common = min(s)
        for _ in range(common):
            F = F @ F
        for i, k in enumerate(s):
            for _ in range(k - common):
                F[i] = F[i] @ F[i]
    return F.reshape(A.shape)


def norm1(X):
    return float(np.abs(X).sum(axis=-2).max())


def with_norm(rng, n, norm):
    """A random n x n matrix with 1-norm `norm`."""
    A = rng.standard_normal((n, n))
    return A * (norm / norm1(A))


def stiff_with_norm(rng, n, norm):
    """A random symmetric n x n matrix with 1-norm `norm` and its spectrum
    spread geometrically over four decades below 0, so that its exponential
    keeps entries of order one at any norm."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(-np.geomspace(1e-4, 1.0, n)) @ Q.T
    return A * (norm / norm1(A))


def stable_with_norm(rng, n, norm):
    """A random nonnormal n x n matrix with 1-norm `norm` and its spectrum
    in [-1.5, -0.5] times its scale, so that its exponential stays finite."""
    T = np.triu(rng.standard_normal((n, n)), 1) - np.diag(0.5 + rng.random(n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ T @ Q.T
    return A * (norm / norm1(A))


def mixed_norm_stack():
    """Three 9 x 9 matrices: 1-norm 1, at least 1e4 and half that."""
    rng = np.random.default_rng(1515)
    small = rng.standard_normal((9, 9))
    small /= np.abs(small).sum(axis=0).max()
    large = stiff_diag_matrix(rng, 9, 2e4)
    assert np.abs(large).sum(axis=0).max() >= 1e4
    return np.stack([small, large, 0.5 * large])


class TestExpmStack:
    def test_stack_matches_each_matrix(self):
        # 1-norms 1e4 apart. Each matrix keeps its own scaling exponent: at
        # the largest one's, the small matrix would be squared about 14 times
        # more and lose about 2**14 ulps (measured 1e-12 relative).
        stack = mixed_norm_stack()
        got = expm(stack)
        for X, G in zip(stack, got):
            want = expm(X)
            assert np.abs(G - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_pade_tier_bits_match_inline_reference(self, n):
        # The Pade tier evaluates U / A and V by the Taylor tier's
        # Paterson-Stockmeyer routine; the old inline evaluation's bits
        # are kept, for single matrices and for stacks whose members' norms
        # lie 1e3 apart, from just above the Taylor tier's cap to 1e6.
        rng = np.random.default_rng(1900 + n)
        for norm in np.geomspace(1.0001 * taylor_cap(), 1e6, 12):
            X = stable_with_norm(rng, n, norm)
            for A in (X, np.stack([X, *(stable_with_norm(rng, n, norm * f)
                                        for f in (1e-3, 1e-6))])):
                got, want = expm(A), pade13_stack_reference(A)
                assert np.isfinite(want).all()
                assert got.tobytes() == want.tobytes(), (n, norm)

    def test_pade_tier_bits_match_inline_reference_on_mixed_stack(self):
        stack = mixed_norm_stack()
        for A in (stack, stack[::-1], stack[1]):
            assert expm(A).tobytes() == pade13_stack_reference(A).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_norm_is_a_failed_evaluation(self, bad):
        # A PhiConvergenceError, not an OverflowError from the Pade tier's
        # squaring count; a NaN norm past the stack's first is caught too.
        X = np.zeros((2, 3, 3))
        X[1, 2, 0] = bad
        with pytest.raises(PhiConvergenceError, match="not finite"):
            expm(X)

    @pytest.mark.parametrize("span, bound_ref, bound_scipy", [
        (0.1, 1e-15, 1e-15), (3.0, 1e-15, 1e-14), (1e4, 1e-12, 2e-12)])
    def test_single_matrix_matches_references(self, span, bound_ref,
                                              bound_scipy):
        # The degree rule changes the bits of every matrix below theta_20
        # (Taylor degree 12 at span 0.1, norm 0.23; Pade 13 at 3.0 and 1e4,
        # which squares 13 times), so the pin is a normwise bound against
        # the old degree-13 form and against scipy. Measured: 2.0e-16 /
        # 1.4e-16, 3.6e-16 / 3.0e-15 and 4.8e-13 / 9.8e-13; the largest
        # entrywise difference, 7e-11 relative, sits in entries of size
        # 1e-198 at span 1e4.
        rng = np.random.default_rng(1616)
        A = stiff_diag_matrix(rng, 11, span) + 0.1 * span * rng.standard_normal((11, 11))
        got = expm(A)
        for want, bound in ((expm_with_identity(A), bound_ref),
                            (scipy.linalg.expm(A), bound_scipy)):
            assert norm1(got - want) <= bound * norm1(want)


@functools.lru_cache(maxsize=None)
def taylor_theta(m, terms=120):
    """theta_m of the degree-m Taylor polynomial T_m at 50 digits: the x at
    which sum_k |c_k| x^(k-1) = 2^-53, for the series
    log(e^-x T_m(x)) = sum_{k>m} c_k x^k, by bisection."""
    with mpmath.workdps(50):
        p = [1 / mpmath.factorial(k) if k <= m else mpmath.mpf(0)
             for k in range(terms + 1)]
        # L = log T_m from L' T_m = T_m', then minus x.
        L = [mpmath.mpf(0)] * (terms + 1)
        for k in range(1, terms + 1):
            L[k] = p[k] - sum(j * L[j] * p[k - j] for j in range(1, k)) / k
        L[1] -= 1
        assert max(abs(c) for c in L[:m + 1]) < mpmath.mpf(10) ** -45
        tail = [abs(c) for c in L[m + 1:]]

        def excess(x):
            return sum(c * x ** k for k, c in enumerate(tail, start=m)) - mpmath.mpf(2) ** -53
        lo, hi = mpmath.mpf(0), mpmath.mpf(2)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if excess(mid) > 0 else (mid, hi)
        return float(lo)


TAYLOR_DEGREES = (2, 4, 6, 9, 12, 16, 20)


def taylor_cap():
    """The largest 1-norm the squared degree-20 Taylor polynomial takes:
    theta_20 times 2^TAYLOR_SQUARINGS."""
    return math.ldexp(taylor_theta(20), phikrylov.TAYLOR_SQUARINGS)


class SolveCounter:
    """Counts np.linalg.solve calls: the Pade tier makes one, Taylor none."""

    def __init__(self, monkeypatch):
        self.calls = 0
        solve = np.linalg.solve

        def counting(*args):
            self.calls += 1
            return solve(*args)
        monkeypatch.setattr(np.linalg, "solve", counting)


class TestTaylorDegree:
    """expm takes the Taylor polynomial of the lowest degree m whose theta_m
    bounds the stack's largest 1-norm (Al-Mohy & Higham 2011) up to
    theta_20, the degree-20 polynomial with scaling and squaring up to
    theta_20 2^TAYLOR_SQUARINGS (the cap), and the degree-13 Pade
    approximant above it."""

    def test_thresholds_from_backward_error_series(self):
        assert tuple(phikrylov._TAYLOR) == TAYLOR_DEGREES
        for m, (theta, _) in phikrylov._TAYLOR.items():
            assert theta == pytest.approx(taylor_theta(m), rel=1e-6), m
        assert phikrylov._PADE13[0] == THETA_13
        assert phikrylov._TAYLOR_CAP == pytest.approx(taylor_cap(), rel=1e-6)

    @pytest.mark.parametrize("m", TAYLOR_DEGREES)
    @pytest.mark.parametrize("side", [0.999, 1.001], ids=["below", "above"])
    def test_norm_beside_theta(self, m, side, monkeypatch):
        # Just below theta_m expm uses degree m; just above, the next one,
        # and above theta_20 degree 20 with one squaring. No Taylor step
        # solves.
        rng = np.random.default_rng(1717 + m)
        solves = SolveCounter(monkeypatch)
        degrees = record_taylor_degrees(monkeypatch)
        norm = side * taylor_theta(m)
        for _ in range(5):
            A = with_norm(rng, 8, norm)
            got, want = expm(A), scipy.linalg.expm(A)
            assert norm1(got - want) <= 1e-14 * norm1(want)
        following = TAYLOR_DEGREES[TAYLOR_DEGREES.index(m) + 1:] + (20,)
        assert degrees == [m if side < 1 else following[0]] * 5
        assert solves.calls == 0

    @pytest.mark.parametrize("side", [0.999, 1.001], ids=["below", "above"])
    def test_norm_beside_cap(self, side, monkeypatch):
        # Stacks of three stiff matrices, the largest just below or just
        # above the cap and the others at 0.3 and 0.01 of it: below, the
        # degree-20 Taylor polynomial squared up to TAYLOR_SQUARINGS times;
        # above, the Pade approximant, the only tier that solves (one
        # solve per stack). Each matrix is within 1e-12 of scipy's
        # exponential (measured 3.2e-13 below, 2.6e-13 above).
        rng = np.random.default_rng(2525)
        solves = SolveCounter(monkeypatch)
        degrees = record_taylor_degrees(monkeypatch)
        for _ in range(5):
            stack = np.stack([stiff_with_norm(rng, 8, side * taylor_cap() * f)
                              for f in (1.0, 0.3, 0.01)])
            for X, G in zip(stack, expm(stack)):
                want = scipy.linalg.expm(X)
                assert norm1(G - want) <= 1e-12 * norm1(want)
        assert degrees == ([20] * 5 if side < 1 else [])
        assert solves.calls == (0 if side < 1 else 5)

    def test_taylor_tier_squares_each_matrix_by_its_own_norm(self):
        # A stack in the Taylor tier: each matrix is scaled by its own
        # power of two and squared back as often, so it gets the bits it
        # gets alone (12 and 2 squarings here).
        rng = np.random.default_rng(2626)
        large = stiff_with_norm(rng, 8, 0.9 * taylor_cap())
        small = stiff_with_norm(rng, 8, 3.0 * taylor_theta(20))
        for A, G in zip((large, small), expm(np.stack([large, small]))):
            np.testing.assert_array_equal(G, expm(A))

    def test_stack_uses_one_degree(self):
        # Norms 0.5 and 1.5 theta_9: the stack takes degree 12 for both, so
        # the small member's bits follow the bracket of the largest norm,
        # not its own (degree 9), and still match its single-matrix
        # exponential.
        rng = np.random.default_rng(1818)
        theta = phikrylov._TAYLOR[9][0]
        small = with_norm(rng, 8, 0.5 * theta)
        large = with_norm(rng, 8, 1.5 * theta)
        got = expm(np.stack([small, large]))
        again = expm(np.stack([small, 1.1 * large]))
        alone = expm(small)
        np.testing.assert_array_equal(got[0], again[0])
        assert not np.array_equal(got[0], alone)
        for X, G in zip((small, large), got):
            want = expm(X)
            assert np.abs(G - want).max() <= 1e-13 * np.abs(want).max()

    def test_stack_straddling_cap_takes_pade(self, monkeypatch):
        # Norms 3 theta_20 and 1.5 times the cap: every member takes Pade
        # 13, one solve for the stack, and matches its single-matrix
        # exponential (the small one's alone is the Taylor polynomial
        # squared twice; at most 1.2e-15 off over 40 draws).
        rng = np.random.default_rng(1919)
        small = stiff_with_norm(rng, 8, 3.0 * taylor_theta(20))
        large = stiff_with_norm(rng, 8, 1.5 * taylor_cap())
        alone = [expm(small), expm(large)]
        solves = SolveCounter(monkeypatch)
        got = expm(np.stack([small, large]))
        assert solves.calls == 1
        assert not np.array_equal(got[0], alone[0])
        for G, want in zip(got, alone):
            assert np.abs(G - want).max() <= 1e-13 * np.abs(want).max()


def squarings(stack):
    """The squarings `expm` gives the stack in its Taylor tier: those of its
    largest 1-norm, ceil(log2(||X||_1 / theta_20)), or 0."""
    top = norm1(stack)
    return max(0, math.ceil(math.log2(top / taylor_theta(20))))


class TestHessenbergSquarings:
    def test_gen53_ignition_squares_at_most_6_times(self, tmp_path,
                                                    monkeypatch):
        # The gen53-ignition workload (seed 1): every Hessenberg stack a
        # Krylov call exponentiates is below the cap and squares at most 6
        # times, with no solve. Weighting shrinks their 1-norms: unweighted,
        # the 46 calls' stacks had a median of 1.6e4 and squared 9 to 16
        # times, in the Pade tier.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        prepare = importlib.import_module("prepare")
        cfg = prepare.write_generated(tmp_path, 1)
        stacks = []
        real_kiops, real_expm = phikrylov.kiops_eval, phikrylov.expm

        def kiops(*args, **kwargs):
            monkeypatch.setattr(phikrylov, "expm", recorded)
            try:
                return real_kiops(*args, **kwargs)
            finally:
                monkeypatch.setattr(phikrylov, "expm", real_expm)

        def recorded(X, **kwargs):
            stacks.append(np.array(X))
            return real_expm(X, **kwargs)

        monkeypatch.setattr(phikrylov, "kiops_eval", kiops)
        solves = SolveCounter(monkeypatch)
        assert cli.main(["run", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
        assert len(stacks) > 40
        assert max(map(norm1, stacks)) <= taylor_cap()
        assert max(map(squarings, stacks)) <= 6
        assert solves.calls == 0


def mp_product(A, b, p, T):
    """T^p phi_p(T A) b from a 50-digit mpmath exponential of the (n + p)
    augmented matrix."""
    aug, v = augmented_operator(A, [None] * p + [b])
    with mpmath.workdps(50):
        E = mpmath.expm(mpmath.matrix((T * aug).tolist()))
        w = E * mpmath.matrix(v.tolist())
        return np.array([float(w[i]) for i in range(len(b))])


class TestWeightedPhiProducts:
    """The dense path's phi products, taken from the blocks of D h J D^-1
    with D = diag(1/weights) in powers of two, then unscaled."""

    @staticmethod
    def products(A, hF, weights):
        stats = PhiStats()
        w34, w1, phi3 = integrator._phi_products(A, hF, weights, 1e-12, stats)
        assert stats == PhiStats()
        return w34, w1, phi3(hF)

    def test_toy_against_mpmath(self, toy_mech, toy_state):
        # At h = 1.72 ||h J||_1 is about 1e6. Balanced by toy3's own error
        # weights (atol 1e-10, rtol 1e-8) expm needs no squaring; measured
        # 2.2e-14, 6.3e-14 and 6.2e-14 off the reference, against 3.3e-12
        # for unit weights (18 squarings).
        y = toy_state.to_vector()
        F, J = rhs_and_jacobian(y, toy_mech, toy_state.p)
        h = 1.72
        A, hF = h * J, h * F
        got = self.products(A, hF, 1e-10 + 1e-8 * np.abs(y))
        for g, (p, T) in zip(got, ((1, 0.75), (1, 1.0), (3, 1.0))):
            want = mp_product(A, hF, p, T)
            assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want), (p, T)

    @pytest.mark.parametrize("h", [1e-8, 1e-5, 1e-3, 0.1, 1.72])
    @pytest.mark.parametrize("exponents", [(-1070, 1020, 0, -1000),
                                           (1020, -1074, 3, 500)],
                             ids=["tiny-first", "huge-first"])
    def test_extreme_weights_stay_finite(self, toy_mech, toy_state, h,
                                         exponents):
        # Weights 2^-1074 .. 2^1020 apart: D is clipped to a 2^20 spread, so
        # every block stays finite (a warning fails the test) and the
        # products stay near the unit-weight ones (measured <= 5e-5).
        y = toy_state.to_vector()
        F, J = rhs_and_jacobian(y, toy_mech, toy_state.p)
        A, hF = h * J, h * F
        got = self.products(A, hF, 2.0 ** np.array(exponents, dtype=float))
        for g, want in zip(got, self.products(A, hF, np.ones(len(y)))):
            assert np.isfinite(g).all()
            assert np.linalg.norm(g - want) <= 1e-4 * np.linalg.norm(want)
