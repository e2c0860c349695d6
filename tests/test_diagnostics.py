"""Eigenvalue bounding-rectangle diagnostics and step cost."""
import numpy as np
import pytest

from expkin.diagnostics import (
    SpectrumStats, jacobian_spectrum, normalized_step_cost, spectrum_bounds,
)
from expkin.integrator import StepRecord
from expkin.kinetics import ThermoState, rhs_and_jacobian


def sorted_eigs(eigs):
    return np.sort_complex(np.asarray(eigs))


class TestEigenvalues:
    """The LAPACK eigensolver jacobian_spectrum calls, on known spectra."""

    def test_diagonal(self):
        eigs = sorted_eigs(np.linalg.eigvals(np.diag([-1.0, -3.0, 2.0])))
        np.testing.assert_allclose(eigs, [-3.0, -1.0, 2.0], atol=1e-12)

    def test_rotation_block_conjugate_pair(self):
        A = np.array([[0.0, 2.0], [-2.0, 0.0]])
        eigs = sorted_eigs(np.linalg.eigvals(A))
        np.testing.assert_allclose(eigs, [-2j, 2j], atol=1e-12)

    def test_companion_matrix(self):
        # Companion matrix of (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6.
        C = np.array([[6.0, -11.0, 6.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])
        eigs = sorted_eigs(np.linalg.eigvals(C))
        np.testing.assert_allclose(eigs, [1.0, 2.0, 3.0], atol=1e-8)

    def test_symmetric_against_eigh(self):
        rng = np.random.default_rng(77)
        A = rng.standard_normal((30, 30))
        A = A + A.T
        got = np.sort(np.linalg.eigvals(A).real)
        want = np.linalg.eigvalsh(A)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(78)
        D = np.diag(rng.uniform(-5.0, -0.1, 8))
        S = rng.standard_normal((8, 8)) + 3 * np.eye(8)
        A = S @ D @ np.linalg.inv(S)
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(A).real),
                                   np.sort(np.diag(D)), rtol=1e-7, atol=1e-9)


class TestSpectrumBounds:
    def test_rectangle_fixture(self):
        # Spread 3 on the real axis, 4 on the imaginary axis: area 12.
        eigs = [-1.0, -4.0, -2.0 + 2.0j, -2.0 - 2.0j]
        st = spectrum_bounds(eigs, t=0.5)
        assert st.alpha == pytest.approx(3.0)
        assert st.beta == pytest.approx(4.0)
        assert st.omega == pytest.approx(12.0)
        assert st.max_real == pytest.approx(-1.0)
        assert st.t == 0.5

    def test_single_eigenvalue(self):
        st = spectrum_bounds([-7.0])
        assert st.alpha == 0.0 and st.beta == 0.0 and st.omega == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        eigs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a = spectrum_bounds(eigs)
        b = spectrum_bounds(rng.permutation(eigs))
        assert (a.alpha, a.beta, a.omega) == (b.alpha, b.beta, b.omega)

    def test_real_shift_property(self):
        # Shifting the spectrum by c changes max_real but not the spreads.
        eigs = np.array([-1.0, -4.0, -2.0 + 2.0j, -2.0 - 2.0j])
        a = spectrum_bounds(eigs)
        b = spectrum_bounds(eigs - 10.0)
        assert b.alpha == pytest.approx(a.alpha)
        assert b.omega == pytest.approx(a.omega)
        assert b.max_real == pytest.approx(a.max_real - 10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum_bounds([])


class TestJacobianSpectrum:
    def test_toy_jacobian(self, toy_mech):
        st = ThermoState(T=1100.0, p=101325.0, Y=np.array([0.09, 0.01, 0.9]))
        J = rhs_and_jacobian(st.to_vector(), toy_mech, st.p)[1]
        stats = jacobian_spectrum(J, t=0.1)
        eigs = np.linalg.eigvals(J)
        # Independent recomputation of the rectangle from the raw list.
        assert stats.alpha == pytest.approx(
            eigs.real.max() - eigs.real.min(), rel=1e-12)
        assert stats.omega == pytest.approx(stats.alpha * stats.beta)
        assert isinstance(stats, SpectrumStats)


class TestStepCost:
    def test_hand_value(self):
        rec = StepRecord(t=0.0, h=1e-4, accepted=True, err_est=0.5,
                         cpu_ns=2_000_000)
        assert normalized_step_cost(rec) == pytest.approx(2e-3 / 1e-4)

    def test_zero_step_rejected(self):
        rec = StepRecord(t=0.0, h=0.0, accepted=False, err_est=1.0)
        with pytest.raises(ValueError):
            normalized_step_cost(rec)
