"""Scalar phi functions, the Pade exponential, the dense oracle and Arnoldi."""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from conftest import stiff_diag_matrix
from expkin.phikrylov import Arnoldi, dense_phi_oracle, expm
from oracles import phi_mp, phi_scalar


class TestPhiScalar:
    def test_values_at_zero(self):
        assert phi_scalar(0, 0.0) == 1.0
        assert phi_scalar(1, 0.0) == 1.0
        assert phi_scalar(2, 0.0) == 0.5
        assert phi_scalar(3, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_phi1_closed_form(self):
        assert phi_scalar(1, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_phi0_is_exp(self):
        assert phi_scalar(0, -3.0) == pytest.approx(math.exp(-3.0), rel=1e-15)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            phi_scalar(4, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_against_high_precision(self, k):
        # Sweep across the Taylor/closed-form switch, both signs, wide range.
        zs = [1e-8, 1e-4, 1e-2, 0.4999, 0.5001, 1.0, 10.0, 50.0,
              -1e-8, -1e-4, -1e-2, -0.4999, -0.5001, -1.0, -10.0, -50.0,
              -700.0]
        for z in zs:
            ref = phi_mp(k, z)
            assert phi_scalar(k, z) == pytest.approx(ref, rel=1e-12), z

    def test_recurrence_consistency(self):
        for z in (0.7, -2.3, 5.0):
            for k in (1, 2, 3):
                lhs = phi_scalar(k, z)
                rhs = (phi_scalar(k - 1, z) - 1.0 / math.factorial(k - 1)) / z
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_allclose(expm(np.zeros((3, 3))), np.eye(3),
                                   atol=1e-15)

    def test_diagonal(self):
        d = np.array([-1.0, 0.5, 2.0])
        np.testing.assert_allclose(expm(np.diag(d)), np.diag(np.exp(d)),
                                   rtol=1e-14)

    def test_nilpotent(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(expm(N), np.eye(2) + N, atol=1e-15)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0])
    def test_against_scipy(self, scale):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = scale * rng.standard_normal((8, 8))
            np.testing.assert_allclose(expm(A), scipy.linalg.expm(A),
                                       rtol=1e-11, atol=1e-11)

    def test_inverse_property(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 6))
        np.testing.assert_allclose(expm(A) @ expm(-A), np.eye(6),
                                   rtol=0, atol=1e-12)

    def test_scaled_stack_is_exact(self):
        # Each B has 1-norm 4, inside (theta_13 / 2, theta_13], so expm(B)
        # is the unscaled Pade approximant. expm of the stack [8 B_0,
        # 32 B_1] scales it back to [B_0, B_1] exactly and squares 3 and 5
        # times, so it matches squaring expm(B) bit for bit.
        rng = np.random.default_rng(8)
        B = rng.standard_normal((2, 7, 7))
        B *= 4.0 / np.abs(B).sum(axis=1).max(axis=1)[:, None, None]
        got = expm(B * np.array([8.0, 32.0])[:, None, None])
        want = expm(B)
        for _ in range(3):
            want = want @ want
        for _ in range(2):
            want[1] = want[1] @ want[1]
        assert np.array_equal(got, want)


def ode_phi_oracle(A, bs, T=1.0):
    """w(T) = sum_k T^k phi_k(T A) b_k by a tight non-stiff ODE solve.

    Integrates w' = A w + sum_{k>=1} b_k t^{k-1}/(k-1)! from w(0) = b_0,
    which is an independent formulation of the same linear combination.
    """
    n = A.shape[0]
    dense = [np.zeros(n) if b is None else np.asarray(b, float) for b in bs]

    def f(t, w):
        out = A @ w
        for k in range(1, len(dense)):
            out = out + dense[k] * t ** (k - 1) / math.factorial(k - 1)
        return out

    sol = scipy.integrate.solve_ivp(f, (0.0, T), dense[0], method="DOP853",
                                    rtol=1e-13, atol=1e-13)
    assert sol.success
    return sol.y[:, -1]


class TestDenseOracle:
    def test_zero_matrix_phi1(self):
        b = np.arange(1.0, 5.0)
        np.testing.assert_allclose(dense_phi_oracle(np.zeros((4, 4)), [None, b]),
                                   b, rtol=1e-14)

    def test_diagonal_reduces_to_scalar(self):
        d = np.array([-2.0, 0.3, 1.5])
        A = np.diag(d)
        b3 = np.ones(3)
        got = dense_phi_oracle(A, [None, None, None, b3])
        want = np.array([phi_scalar(3, z) for z in d])
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_exp_term_included(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5))
        b0 = rng.standard_normal(5)
        np.testing.assert_allclose(dense_phi_oracle(A, [b0, None]),
                                   expm(A) @ b0, rtol=1e-12)

    def test_random_combination_vs_ode(self):
        rng = np.random.default_rng(19)
        for _ in range(4):
            A = rng.standard_normal((12, 12))
            bs = [rng.standard_normal(12) for _ in range(4)]
            got = dense_phi_oracle(A, bs)
            want = ode_phi_oracle(A, bs)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            dense_phi_oracle(np.zeros((500, 500)), [None, np.ones(500)])


def arnoldi(A, v, m_max):
    """Run the Arnoldi process to m_max vectors: (V_m, H_m, breakdown), the
    basis vectors as the columns of V_m."""
    proc = Arnoldi(A, v, m_max)
    proc.extend(m_max)
    return proc.V[:proc.m].T, proc.H[:proc.m, :proc.m], proc.happy


def arnoldi_rescan(A, v, m_max):
    """The row-major Arnoldi process with the products of `Arnoldi.extend`
    as it ran before it kept a running max|H|: each iteration rescans all
    of H and takes np.linalg.norm (the reference for bit equality)."""
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
    beta = float(np.linalg.norm(v))
    V = np.zeros((m_max + 1, v.size))
    H = np.zeros((m_max + 1, m_max + 1))
    V[0] = v / beta
    happy = False
    m = 0
    while m < m_max and not happy:
        j = m
        Vj = V[:j + 1]
        w = A.dot(V[j])
        h = Vj.dot(w)
        w -= h.dot(Vj)
        c = Vj.dot(w)
        w -= c.dot(Vj)
        H[:j + 1, j] = h + c
        hnext = float(np.linalg.norm(w))
        H[j + 1, j] = hnext
        m = j + 1
        scale = max(1.0, float(np.abs(H[: j + 2, : j + 1]).max()))
        if hnext <= 1.0e-14 * scale:
            happy = True
        else:
            V[j + 1] = w / hnext
    return beta, V, H, m, happy


class TestArnoldi:
    @pytest.mark.parametrize("case", ["stiff", "happy"])
    def test_bits_match_rescanning_reference(self, case):
        # The running max|H| and the dot-product norm change no bit of V, H,
        # beta or the breakdown flag, also when the basis grows in two calls.
        rng = np.random.default_rng(37)
        if case == "stiff":
            A = stiff_diag_matrix(rng, 56, 1e5)
            v = rng.standard_normal(56)
        else:
            # Three eigenvector components: happy breakdown at dimension 3.
            A = np.diag(-np.geomspace(1.0, 1e6, 12))
            v = np.zeros(12)
            v[[1, 5, 9]] = rng.standard_normal(3)
        m_max = 30
        proc = Arnoldi(A, v, m_max)
        proc.extend(2)
        proc.extend(m_max)
        beta, V, H, m, happy = arnoldi_rescan(A, v, m_max)
        # Row j of V is basis vector j.
        assert proc.V.shape == (m_max + 1, len(v)) and proc.V.flags.c_contiguous
        assert happy == (case == "happy") and proc.happy == happy
        assert proc.m == m and proc.beta == beta
        np.testing.assert_array_equal(proc.V, V)
        np.testing.assert_array_equal(proc.H, H)

    def test_eigenvector_breakdown(self):
        A = np.diag([2.0, 3.0, 4.0])
        v = np.array([1.0, 0.0, 0.0])
        V, H, breakdown = arnoldi(A, v, m_max=5)
        assert breakdown and V.shape[1] == 1
        assert H[0, 0] == pytest.approx(2.0)

    def test_full_space_residual(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((6, 6))
        v = rng.standard_normal(6)
        V, H, _ = arnoldi(A, v, m_max=6)
        # With m = n the projected operator reproduces A on the Krylov space.
        np.testing.assert_allclose(A @ V, V @ H, atol=1e-10)

    def test_arnoldi_relation(self):
        rng = np.random.default_rng(29)
        A = rng.standard_normal((50, 50))
        v = rng.standard_normal(50)
        m = 12
        V, H, breakdown = arnoldi(A, v, m_max=m + 1)
        assert not breakdown
        # A V_m = V_{m+1} H_{m+1,m} restricted to the first m columns.
        Vm, Hm = V[:, :m], H[: m + 1, :m]
        np.testing.assert_allclose(A @ Vm, V[:, : m + 1] @ Hm, atol=1e-10)

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(31)
        A = rng.standard_normal((40, 40))
        V, _, _ = arnoldi(A, rng.standard_normal(40), m_max=15)
        G = V.T @ V
        np.testing.assert_allclose(G, np.eye(V.shape[1]), atol=1e-12)

    @pytest.mark.parametrize("span", [1e5, 1e8])
    def test_orthonormal_basis_stiff(self, span):
        # Spectra as wide as a chemistry Jacobian's times the step size.
        rng = np.random.default_rng(31)
        A = stiff_diag_matrix(rng, 56, span)
        V, _, breakdown = arnoldi(A, rng.standard_normal(56), m_max=40)
        assert not breakdown and V.shape[1] == 40
        assert np.linalg.norm(V.T @ V - np.eye(40), 2) <= 1e-12
