"""`expkin spectrum`: the Jacobian's eigenvalue bounding rectangle
(`cli.spectrum_bounds`) and the normalised step cost, the rows of
spectrum.csv."""
import shutil
import types

import numpy as np
import pytest

from conftest import FIXTURE_DIR
from expkin import cli, integrator
from expkin.cli import EXIT_OK, main, spectrum_bounds
from expkin.integrator import H_MIN_FRACTION, integrate_mechanism
from expkin.kinetics import ThermoState, rhs_and_jacobian
from oracles import read_csv

# The toy ignition before its radical pool builds up: about 40 steps.
EARLY_CFG = """\
mechanism toy3.mech
T0 1000.0
pressure 101325.0
Y F 0.1
Y B 0.9
t_final 1e-4
atol 1e-8
rtol 1e-6
"""


@pytest.fixture
def early_cfg(tmp_path):
    shutil.copy(FIXTURE_DIR / "toy3.mech", tmp_path / "toy3.mech")
    (tmp_path / "early.cfg").write_text(EARLY_CFG)
    return tmp_path / "early.cfg"


def sorted_eigs(eigs):
    return np.sort_complex(np.asarray(eigs))


class TestEigenvalues:
    """The LAPACK eigensolver the spectrum rows use, on known spectra."""

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
    def test_rectangle_fixture(self, early_cfg):
        # Spread 3 on the real axis, 4 on the imaginary axis: area 12.
        eigs = [-1.0, -4.0, -2.0 + 2.0j, -2.0 - 2.0j]
        alpha, beta, omega, max_real = spectrum_bounds(eigs)
        assert alpha == pytest.approx(3.0)
        assert beta == pytest.approx(4.0)
        assert omega == pytest.approx(12.0)
        assert max_real == pytest.approx(-1.0)
        # Each row is stamped with the time of its accepted step.
        out = early_cfg.parent / "out"
        for command in ("run", "spectrum"):
            assert main([command, "--config", str(early_cfg), "--out", str(out)]) == EXIT_OK
        header, steps = read_csv(out / "steps.csv")
        _, rows = read_csv(out / "spectrum.csv")
        accepted = header.index("accepted")
        assert rows
        assert [r[0] for r in rows] == [r[0] for r in steps if r[accepted] == 1.0]

    def test_single_eigenvalue(self):
        alpha, beta, omega, _ = spectrum_bounds([-7.0])
        assert alpha == 0.0 and beta == 0.0 and omega == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        eigs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a = spectrum_bounds(eigs)
        b = spectrum_bounds(rng.permutation(eigs))
        assert a[:3] == b[:3]

    def test_real_shift_property(self):
        # Shifting the spectrum by c changes max_real but not the spreads.
        eigs = np.array([-1.0, -4.0, -2.0 + 2.0j, -2.0 - 2.0j])
        a_alpha, _, a_omega, a_max_real = spectrum_bounds(eigs)
        b_alpha, _, b_omega, b_max_real = spectrum_bounds(eigs - 10.0)
        assert b_alpha == pytest.approx(a_alpha)
        assert b_omega == pytest.approx(a_omega)
        assert b_max_real == pytest.approx(a_max_real - 10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectrum_bounds([])


class TestJacobianSpectrum:
    def test_toy_jacobian(self, toy_mech):
        st = ThermoState(T=1100.0, p=101325.0, Y=np.array([0.09, 0.01, 0.9]))
        J = rhs_and_jacobian(st.to_vector(), toy_mech, st.p)[1]
        stats = spectrum_bounds(np.linalg.eigvals(J))
        eigs = np.linalg.eigvals(J)
        # Independent recomputation of the rectangle from the raw list.
        alpha, beta, omega, _ = stats
        assert alpha == pytest.approx(eigs.real.max() - eigs.real.min(), rel=1e-12)
        assert omega == pytest.approx(alpha * beta)
        assert isinstance(stats, tuple) and len(stats) == 4


class TestStepCost:
    def test_hand_value(self, early_cfg, monkeypatch):
        # A clock that advances 2 ms per reading: each attempt reads it at
        # its start and end, so every attempt takes 2 ms and its row's cost
        # is 2e-3 s / h.
        clock = iter(range(0, 10**12, 2_000_000))
        monkeypatch.setattr(integrator, "time",
                            types.SimpleNamespace(perf_counter_ns=lambda: next(clock)))
        outputs = []

        def capture(*args, **kwargs):
            outputs.append(integrate_mechanism(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(cli, "integrate_mechanism", capture)
        out = early_cfg.parent / "out"
        assert main(["spectrum", "--config", str(early_cfg), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "spectrum.csv")
        result, = outputs
        assert all(r.cpu_ns == 2_000_000 for r in result.records)
        assert header[-1] == "norm_step_cost"
        assert [r[-1] for r in rows] == pytest.approx(
            [2e-3 / r.h for r in result.accepted_records])

    def test_zero_step_rejected(self, toy_mech, toy_state):
        # The step cost divides by h: the march never takes a step below its
        # floor, H_MIN_FRACTION of the interval, which is positive.
        out = integrate_mechanism(toy_state, toy_mech, 0.2, atol=1e-8,
                                  rtol=1e-6)
        assert out.success and out.records
        assert H_MIN_FRACTION * 0.2 > 0
        assert all(r.h >= H_MIN_FRACTION * 0.2 for r in out.records)
