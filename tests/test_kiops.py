"""Adaptive Krylov phi evaluator against the dense augmented-matrix oracle."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from conftest import stiff_diag_matrix
from expkin import phikrylov
from expkin.integrator import epi3v_step, integrate_mechanism, problem_from_mechanism
from expkin.kinetics import rhs_and_jacobian
from expkin.phikrylov import (
    M_INIT, PhiConvergenceError, dense_phi_oracle, expm, kiops_eval,
)
from oracles import phi_scalar


def augmented_operator(A, bs):
    """[[A, b_p .. b_1], [0, shift]] and the start vector [b_0; 0 .. 0, 1].

    Built here independently of the module, with no scaling, so that
    exp(T aug) v = sum_k T^k phi_k(T A) b_k in the first n entries.
    """
    n, p = A.shape[0], len(bs) - 1
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = A
    for col, k in enumerate(range(p, 0, -1)):
        aug[:n, n + col] = np.zeros(n) if bs[k] is None else bs[k]
    aug[n:-1, n + 1:] = np.eye(p - 1)
    v = np.zeros(n + p)
    if bs[0] is not None:
        v[:n] = bs[0]
    v[-1] = 1.0
    return aug, v


class TestRequestValidation:
    def test_time_points_must_end_at_one(self):
        with pytest.raises(ValueError):
            kiops_eval(np.zeros((2, 2)), (None, np.ones(2)),
                       time_points=(0.5,), tol=1e-10)

    def test_time_points_strictly_increasing(self):
        with pytest.raises(ValueError):
            kiops_eval(np.zeros((2, 2)), (None, np.ones(2)),
                       time_points=(0.8, 0.8, 1.0), tol=1e-10)

    def test_positive_tolerance(self):
        with pytest.raises(ValueError):
            kiops_eval(np.zeros((2, 2)), (None, np.ones(2)),
                       time_points=(1.0,), tol=0.0)

    def test_max_phi_order(self):
        with pytest.raises(ValueError):
            kiops_eval(np.zeros((2, 2)),
                       (None, None, None, None, np.ones(2)),
                       time_points=(1.0,), tol=1e-10)
        # Orders run from 1: a lone b_0 (p = 0) is refused by both paths.
        A, b0 = np.zeros((2, 2)), np.ones(2)
        with pytest.raises(ValueError):
            kiops_eval(A, [b0])
        with pytest.raises(ValueError):
            dense_phi_oracle(A, [b0])


class TestKiopsBasics:
    def test_zero_matrix_phi1(self):
        res = kiops_eval(np.zeros((4, 4)), [None, np.ones(4)], tol=1e-12)
        np.testing.assert_allclose(res.values[0], np.ones(4), rtol=1e-12)

    def test_scalar_matches_phi_scalar(self):
        z = -3.7
        bs = [None, np.array([2.0]), np.array([0.5]), np.array([-1.0])]
        res = kiops_eval(np.array([[z]]), bs, tol=1e-13)
        want = (2.0 * phi_scalar(1, z) + 0.5 * phi_scalar(2, z)
                - 1.0 * phi_scalar(3, z))
        assert res.values[0][0] == pytest.approx(want, rel=1e-10)

    def test_matches_dense_oracle_easy(self):
        rng = np.random.default_rng(101)
        A = rng.standard_normal((20, 20))
        bs = [rng.standard_normal(20) for _ in range(3)]
        res = kiops_eval(A, bs, tol=1e-12)
        want = dense_phi_oracle(A, bs)
        err = np.linalg.norm(res.values[0] - want) / np.linalg.norm(want)
        assert err < 1e-10

    def test_matches_dense_oracle_stiff(self):
        rng = np.random.default_rng(202)
        A = stiff_diag_matrix(rng, 100, 1e4)
        bs = [None, rng.standard_normal(100), None, rng.standard_normal(100)]
        res = kiops_eval(A, bs, tol=1e-10)
        want = dense_phi_oracle(A, bs)
        err = np.linalg.norm(res.values[0] - want) / np.linalg.norm(want)
        assert err < 1e-8
        assert res.stats.substeps >= 1

    def test_time_point_scaling(self):
        # w(T) = sum T^k phi_k(T A) b_k: check T = 0.75 against a direct
        # evaluation with A and b pre-scaled by 0.75.
        rng = np.random.default_rng(303)
        A = rng.standard_normal((15, 15))
        b1 = rng.standard_normal(15)
        res = kiops_eval(A, [None, b1], time_points=(0.75, 1.0), tol=1e-12)
        w34 = res.values[0]
        want = 0.75 * dense_phi_oracle(0.75 * A, [None, b1])
        np.testing.assert_allclose(w34, want, rtol=1e-9, atol=1e-11)

    def test_intermediate_point_consistency(self):
        # Requesting {0.5, 1} together must agree with separate evaluations.
        rng = np.random.default_rng(404)
        A = stiff_diag_matrix(rng, 30, 50.0)
        b1 = rng.standard_normal(30)
        both = kiops_eval(A, [None, b1], time_points=(0.5, 1.0), tol=1e-12)
        half = 0.5 * dense_phi_oracle(0.5 * A, [None, b1])
        full = dense_phi_oracle(A, [None, b1])
        np.testing.assert_allclose(both.values[0], half, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(both.values[1], full, rtol=1e-9, atol=1e-11)

    def test_none_entries_are_zero_vectors(self):
        rng = np.random.default_rng(505)
        A = rng.standard_normal((10, 10))
        b1 = rng.standard_normal(10)
        a = kiops_eval(A, [None, b1, None, None], tol=1e-12)
        b = kiops_eval(A, [np.zeros(10), b1], tol=1e-12)
        np.testing.assert_allclose(a.values[0], b.values[0], rtol=1e-10)

    @pytest.mark.parametrize("n", [4, 40], ids=["dense", "krylov"])
    @pytest.mark.parametrize("pattern", [(0, 1), (0, 0, 0, 1), (1, 0, 1)],
                             ids=["phi1", "phi3", "b0-and-phi2"])
    def test_none_entries_match_zero_vectors_bit_for_bit(self, n, pattern):
        # A None entry allocates nothing and is left out of the scaling
        # norm; the values and the work counts are those of a zero vector.
        rng = np.random.default_rng(515)
        A = stiff_diag_matrix(rng, n, 1e3)
        vectors = [rng.standard_normal(n) if used else None for used in pattern]
        zeros = [np.zeros(n) if v is None else v for v in vectors]
        a = kiops_eval(A, vectors, time_points=(0.75, 1.0), tol=1e-10)
        b = kiops_eval(A, zeros, time_points=(0.75, 1.0), tol=1e-10)
        assert (a.stats.matvecs == 0) == (n + len(pattern) - 1 <= M_INIT)
        assert a.stats == b.stats
        for got, want in zip(a.values, b.values, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(dense_phi_oracle(A, vectors),
                                      dense_phi_oracle(A, zeros))

    def test_deterministic(self):
        rng = np.random.default_rng(606)
        A = stiff_diag_matrix(rng, 40, 1e3)
        b1 = rng.standard_normal(40)
        r1 = kiops_eval(A, [None, b1], tol=1e-10)
        r2 = kiops_eval(A, [None, b1], tol=1e-10)
        np.testing.assert_array_equal(r1.values[0], r2.values[0])


class TestKiopsAdaptivity:
    def test_substeps_increase_with_stiffness(self):
        rng = np.random.default_rng(707)
        b1 = rng.standard_normal(60)
        mild = kiops_eval(stiff_diag_matrix(rng, 60, 10.0),
                          [None, b1], tol=1e-10)
        hard = kiops_eval(stiff_diag_matrix(rng, 60, 1e5),
                          [None, b1], tol=1e-10)
        assert hard.stats.substeps >= mild.stats.substeps
        assert hard.stats.matvecs > mild.stats.matvecs

    def test_krylov_cap_respected(self, monkeypatch):
        rng = np.random.default_rng(808)
        A = stiff_diag_matrix(rng, 80, 1e4)
        monkeypatch.setattr(phikrylov, "M_MAX", 24)
        res = kiops_eval(A, [None, rng.standard_normal(80)], tol=1e-10)
        assert res.stats.max_krylov_dim <= 24

    def test_tighter_tolerance_smaller_error(self):
        rng = np.random.default_rng(909)
        A = stiff_diag_matrix(rng, 50, 1e3)
        b1 = rng.standard_normal(50)
        want = dense_phi_oracle(A, [None, b1])
        errs = []
        for tol in (1e-4, 1e-8, 1e-12):
            res = kiops_eval(A, [None, b1], tol=tol)
            errs.append(np.linalg.norm(res.values[0] - want))
        assert errs[2] < errs[0]

    def test_convergence_failure_reports_diagnostics(self, monkeypatch):
        # m capped at 1 with a hugely stiff operator: the substep underflows.
        rng = np.random.default_rng(111)
        A = stiff_diag_matrix(rng, 30, 1e12)
        monkeypatch.setattr(phikrylov, "M_INIT", 1)
        monkeypatch.setattr(phikrylov, "M_MAX", 1)
        with pytest.raises(PhiConvergenceError) as exc_info:
            kiops_eval(A, [None, rng.standard_normal(30)], tol=1e-14)
        assert exc_info.value.diagnostics  # non-empty context dict

    def test_happy_breakdown_exact(self):
        # Rank-deficient Krylov space: b1 an eigenvector gives the exact
        # answer with a single basis vector. At n = 3 the augmented matrix is
        # exponentiated directly; at n = 12 (n + p above M_INIT) the Krylov
        # basis breaks down happily at dimension 2.
        for diag in ([-2.0, -5.0, -9.0], [-2.0, -5.0] + [-9.0 - k for k in range(10)]):
            A = np.diag(diag)
            b1 = np.zeros(len(diag))
            b1[1] = 1.0
            res = kiops_eval(A, [None, b1], tol=1e-12)
            assert res.values[0][1] == pytest.approx(phi_scalar(1, -5.0), rel=1e-12)
            assert np.all(np.delete(res.values[0], 1) == 0.0)
        assert res.stats.max_krylov_dim == 2 and res.stats.matvecs == 2


class TestAgainstExpmMultiply:
    """kiops_eval against scipy's expm_multiply (Al-Mohy & Higham) on the
    augmented matrix, at the size and stiffness of the gen53 Jacobian."""

    @staticmethod
    def reference(A, bs, T):
        aug, v = augmented_operator(A, bs)
        # One call per time point: expm_multiply's interval mode (start/stop)
        # is off by about 2e-3 relative on this operator.
        return scipy.sparse.linalg.expm_multiply(T * aug, v)[:A.shape[0]]

    def test_phi1_at_three_quarters_and_one(self):
        rng = np.random.default_rng(1212)
        A = stiff_diag_matrix(rng, 56, 1e5)
        bs = [None, rng.standard_normal(56)]
        res = kiops_eval(A, bs, time_points=(0.75, 1.0), tol=1e-10)
        for T, got in zip((0.75, 1.0), res.values):
            want = self.reference(A, bs, T)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), T

    def test_phi3_vector(self):
        rng = np.random.default_rng(1213)
        A = stiff_diag_matrix(rng, 56, 1e5)
        bs = [None, None, None, rng.standard_normal(56)]
        got, = kiops_eval(A, bs, time_points=(1.0,), tol=1e-10).values
        want = self.reference(A, bs, 1.0)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestProjectionCounts:
    def test_extra_time_point_costs_no_matvecs(self):
        # Every substep aims at T = 1 and serves T = 0.75 from its basis, so
        # asking for 0.75 as well changes neither the work nor w(1).
        rng = np.random.default_rng(1313)
        A = stiff_diag_matrix(rng, 56, 1e5)
        b1 = rng.standard_normal(56)
        one = kiops_eval(A, [None, b1], time_points=(1.0,), tol=1e-10)
        two = kiops_eval(A, [None, b1], time_points=(0.75, 1.0), tol=1e-10)
        # Not a happy breakdown: the basis stays below the full dimension 57.
        assert 0 < one.stats.max_krylov_dim < 57
        assert two.stats.matvecs == one.stats.matvecs
        assert two.stats.substeps == one.stats.substeps
        np.testing.assert_array_equal(two.values[1], one.values[0])

    def test_toy_attempts_use_one_projection_per_call(self, toy_mech, toy_state):
        # On toy3 (n = 4, so n + p <= M_INIT) every phi call exponentiates its
        # augmented matrix directly: one substep, no matvecs.
        out = integrate_mechanism(toy_state, toy_mech, 0.3, atol=1e-10,
                                  rtol=1e-8)
        assert out.success
        completed = [r for r in out.records if np.isfinite(r.err_est)]
        assert len(completed) >= len(out.accepted_records) > 1000
        assert all(r.kiops_calls == 2 and r.substeps == 2 for r in completed)
        assert all(r.matvecs == 0 and r.krylov_dim == 7 for r in completed)


def count_expm_calls(monkeypatch):
    """Record the argument shape of every phikrylov.expm call."""
    shapes = []
    real = phikrylov.expm

    def counted(A):
        shapes.append(np.shape(A))
        return real(A)

    monkeypatch.setattr(phikrylov, "expm", counted)
    return shapes


class TestOneExponentialPerEvaluation:
    def test_toy_attempt_makes_two_expm_calls(self, toy_mech, toy_state, monkeypatch):
        problem = problem_from_mechanism(toy_mech, toy_state.p)
        y = toy_state.to_vector()
        F, J = problem.jac(y)
        shapes = count_expm_calls(monkeypatch)
        _, _, stats = epi3v_step(y, 1e-4, F, J, problem)
        assert stats.calls == 2 and stats.matvecs == 0
        # Call 1 stacks T = 3/4 and T = 1; call 2 has T = 1 alone.
        assert shapes == [(2, 5, 5), (1, 7, 7)]

    def test_krylov_path_one_expm_per_attempt(self, monkeypatch):
        # One expm per substep attempt, accepted (substeps) or rejected; the
        # T = 3/4 point rides in the attempt that spans it.
        rng = np.random.default_rng(1414)
        A = stiff_diag_matrix(rng, 56, 1e5)
        shapes = count_expm_calls(monkeypatch)
        res = kiops_eval(A, [None, rng.standard_normal(56)],
                         time_points=(0.75, 1.0), tol=1e-10)
        assert res.stats.matvecs > 0 and res.stats.rejections > 0
        assert len(shapes) == res.stats.substeps + res.stats.rejections
        assert sum(shape[0] == 2 for shape in shapes) >= 1


class TestDenseBranch:
    """n + p <= M_INIT: kiops_eval exponentiates the augmented matrix."""

    @pytest.mark.parametrize("h", [1e-5, 1e-3])
    @pytest.mark.parametrize("p, time_points", [(1, (0.75, 1.0)), (3, (1.0,))])
    def test_toy_matches_scipy_expm(self, toy_mech, toy_state, h, p, time_points):
        y = toy_state.to_vector()
        F, J = rhs_and_jacobian(y, toy_mech, toy_state.p)
        A = h * J
        bs = [None] * p + [h * F]
        assert A.shape[0] + p <= M_INIT
        res = kiops_eval(A, bs, time_points=time_points, tol=1e-12)
        assert res.stats.matvecs == 0 and res.stats.substeps == 1
        assert res.stats.max_krylov_dim == A.shape[0] + p
        aug, v = augmented_operator(A, bs)
        for T, got in zip(time_points, res.values):
            want = (scipy.linalg.expm(T * aug) @ v)[:A.shape[0]]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), T


def expm_with_identity(A):
    """The single-matrix Pade 13 exponential with b*I added to U and V, the
    form expm had before it took stacks (the reference for bit equality)."""
    n = A.shape[0]
    theta = phikrylov._PADE13_THETA
    norm1 = float(np.abs(A).sum(axis=0).max())
    s = max(0, int(math.ceil(math.log2(norm1 / theta)))) if norm1 > theta else 0
    As = A / 2**s
    b = phikrylov._PADE13_B
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


class TestExpmStack:
    def test_stack_matches_each_matrix(self):
        # 1-norms 1e4 apart. Each matrix keeps its own scaling exponent: at
        # the largest one's, the small matrix would be squared about 14 times
        # more and lose about 2**14 ulps (measured 1e-12 relative).
        rng = np.random.default_rng(1515)
        small = rng.standard_normal((9, 9))
        small /= np.abs(small).sum(axis=0).max()
        large = stiff_diag_matrix(rng, 9, 2e4)
        assert np.abs(large).sum(axis=0).max() >= 1e4
        got = expm(np.stack([small, large, 0.5 * large]))
        for X, G in zip((small, large, 0.5 * large), got):
            want = expm(X)
            assert np.abs(G - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("span", [0.1, 3.0, 1e4])
    def test_single_matrix_bits_unchanged(self, span):
        rng = np.random.default_rng(1616)
        A = stiff_diag_matrix(rng, 11, span) + 0.1 * span * rng.standard_normal((11, 11))
        np.testing.assert_array_equal(expm(A), expm_with_identity(A))
