"""EPI3V stepper, error controller and the adaptive march."""
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import FIXTURE_DIR, mechgen
from expkin import integrator, phikrylov
from expkin.integrator import (
    OdeProblem, SolverOutput, StepRecord, _interp_samples, controller_update,
    epi3v_step, integrate_adaptive, integrate_mechanism, krylov_tolerance,
    problem_from_mechanism, scaled_error_norm,
)
from expkin.kinetics import (
    Y_NEG_TOL, InvalidStateError, KineticsError, ThermoState, rhs_vector,
)
from expkin.mechio import parse_config, parse_mechanism
from expkin.phikrylov import PhiConvergenceError, PhiStats, expm
from oracles import exp_euler_step, integrate_fixed


ROOT = pathlib.Path(__file__).resolve().parents[1]


def ignition_state(mech):
    """The cold state of a generated network's full ignition: its
    `initial_mass_fractions` at 1000 K and 1 atm."""
    fractions = mechgen.initial_mass_fractions(mech)
    Y = np.array([fractions.get(sp.name, 0.0) for sp in mech.species])
    return ThermoState(T=1000.0, p=101325.0, Y=Y)


def linear_problem(M):
    M = np.asarray(M, dtype=float)
    return OdeProblem(f=lambda y: M @ y, jac=lambda y: (M @ y, M))


class TestStep:
    def test_linear_problem_exact(self):
        # For f = M y the remainder R vanishes and one step equals the
        # exact propagator y(h) = e^{hM} y0 for any h.
        rng = np.random.default_rng(17)
        M = rng.standard_normal((6, 6))
        y0 = rng.standard_normal(6)
        prob = linear_problem(M)
        for h in (0.01, 0.5, 2.0):
            y1, lte, _ = epi3v_step(y0, h, prob.f(y0), M, prob, np.ones(6),
                                    krylov_tol=1e-13)
            want = expm(h * M) @ y0
            np.testing.assert_allclose(y1, want, rtol=1e-9, atol=1e-11)
            assert np.linalg.norm(lte) < 1e-9 * np.linalg.norm(y0)

    def test_zero_rhs_identity(self):
        prob = OdeProblem(f=lambda y: np.zeros_like(y),
                          jac=lambda y: (np.zeros_like(y), np.zeros((3, 3))))
        y0 = np.array([1.0, -2.0, 3.0])
        y1, lte, _ = epi3v_step(y0, 1.0, *prob.jac(y0), prob, np.ones(3))
        np.testing.assert_allclose(y1, y0, atol=1e-14)
        np.testing.assert_allclose(lte, 0.0, atol=1e-14)

    def test_one_step_error_quadratic_rhs(self):
        # y' = y^2: the leading fourth-order local term vanishes (it is a
        # third-derivative tensor contraction), leaving local order five.
        # The measured h -> h/2 error ratio at h = 0.05 is ~33, not 16.
        prob = OdeProblem(f=lambda y: y ** 2,
                          jac=lambda y: (y ** 2, np.diag(2 * y)))
        y0 = np.array([0.5])
        exact = lambda t: 0.5 / (1.0 - 0.5 * t)
        F, J = prob.jac(y0)
        h = 0.05
        e1 = abs(epi3v_step(y0, h, F, J, prob, np.ones(1),
                            krylov_tol=1e-14)[0][0]
                 - exact(h))
        e2 = abs(epi3v_step(y0, h / 2, F, J, prob, np.ones(1),
                            krylov_tol=1e-14)[0][0]
                 - exact(h / 2))
        assert 28.0 < e1 / e2 < 38.0

    def test_lte_is_phi3_term(self):
        # y_new minus the embedded exponential-Euler step equals the LTE.
        prob = OdeProblem(f=lambda y: np.sin(y),
                          jac=lambda y: (np.sin(y), np.diag(np.cos(y))))
        y0 = np.array([0.3, 1.1])
        F, J = prob.jac(y0)
        y1, lte, _ = epi3v_step(y0, 0.2, F, J, prob, np.ones(2), krylov_tol=1e-13)
        y_euler = exp_euler_step(y0, 0.2, F, J, krylov_tol=1e-13)
        np.testing.assert_allclose(y1 - y_euler, lte, rtol=1e-8, atol=1e-13)

    def test_exp_euler_linear_matches_epi3v(self):
        rng = np.random.default_rng(41)
        M = rng.standard_normal((4, 4))
        y0 = rng.standard_normal(4)
        prob = linear_problem(M)
        ye = exp_euler_step(y0, 0.7, prob.f(y0), M, krylov_tol=1e-13)
        y3, _, _ = epi3v_step(y0, 0.7, prob.f(y0), M, prob, np.ones(4),
                              krylov_tol=1e-13)
        np.testing.assert_allclose(ye, y3, rtol=1e-9, atol=1e-11)


class TestFixedOrder:
    def test_global_order_three_generic(self):
        # y' = cos(y) has a non-vanishing third derivative, so the scheme
        # shows its true order: halving h divides the error by ~8.
        prob = OdeProblem(f=lambda y: np.cos(y),
                          jac=lambda y: (np.cos(y), np.diag(-np.sin(y))))
        y0 = np.array([0.0])
        ref = integrate_fixed(y0, 0.0, 2.0, 4096, prob, krylov_tol=1e-14)
        e64 = abs(integrate_fixed(y0, 0.0, 2.0, 64, prob,
                                  krylov_tol=1e-14)[0] - ref[0])
        e128 = abs(integrate_fixed(y0, 0.0, 2.0, 128, prob,
                                   krylov_tol=1e-14)[0] - ref[0])
        assert 6.5 < e64 / e128 < 9.5

    def test_global_order_four_on_quadratic(self):
        # Quadratic nonlinearity: superconvergence to global order four
        # (measured ratio ~16.1 between n=32 and n=64).
        prob = OdeProblem(f=lambda y: -y + y ** 2,
                          jac=lambda y: (-y + y ** 2, np.diag(-1.0 + 2.0 * y)))
        y0 = np.array([0.5])
        exact = 1.0 / (1.0 + np.exp(2.0))
        e32 = abs(integrate_fixed(y0, 0.0, 2.0, 32, prob,
                                  krylov_tol=1e-14)[0] - exact)
        e64 = abs(integrate_fixed(y0, 0.0, 2.0, 64, prob,
                                  krylov_tol=1e-14)[0] - exact)
        assert 14.0 < e32 / e64 < 19.0

    def test_single_step_linear(self):
        M = np.array([[0.0, 1.0], [-4.0, -0.4]])
        y0 = np.array([1.0, 0.0])
        y = integrate_fixed(y0, 0.0, 0.5, 1, linear_problem(M),
                            krylov_tol=1e-13)
        np.testing.assert_allclose(y, expm(0.5 * M) @ y0, rtol=1e-9)

    def test_bad_step_count(self):
        with pytest.raises(ValueError):
            integrate_fixed(np.ones(1), 0.0, 1.0, 0, linear_problem([[1.0]]))


class TestErrorNormAndController:
    def test_scaled_norm_hand_value(self):
        lte = np.array([2e-8, 0.0])
        y = np.array([1.0, 1.0])
        # scale = 1e-8 + 1e-6: rms of (2e-8/1.01e-6, 0).
        want = np.sqrt(((2e-8 / 1.01e-6) ** 2) / 2)
        assert scaled_error_norm(lte, 1e-8 + 1e-6 * np.abs(y)) == pytest.approx(want)

    def test_scaled_norm_overflow_is_inf(self):
        # (lte / w)^2 overflows: inf, which rejects the attempt. The march
        # runs with overflow warnings off (see TestNonFiniteOperator).
        lte = np.array([1e200, 1.0, 1e300])
        with np.errstate(over="ignore"):
            assert scaled_error_norm(lte, np.array([1.0, 1.0, 1e-300])) == math.inf
            assert scaled_error_norm(lte, np.array([1e-10, 1.0, 1.0])) == math.inf

    def test_err_one_accepts_with_safety_shrink(self):
        accept, h = controller_update(1.0, 1.0)
        assert accept and h == pytest.approx(0.9)

    def test_small_error_hits_facmax(self):
        accept, h = controller_update(1e-9, 1.0)
        assert accept and h == pytest.approx(5.0)

    def test_large_error_rejects(self):
        # err = 8, q = 2: h * 0.9 * 8^(-1/3) = 0.45 h.
        accept, h = controller_update(8.0, 1.0)
        assert not accept and h == pytest.approx(0.45)

    def test_facmin_floor(self):
        accept, h = controller_update(1e9, 1.0)
        assert not accept and h == pytest.approx(0.1)

    def test_nonfinite_error_rejects_at_facmin(self):
        accept, h = controller_update(float("nan"), 1.0)
        assert not accept and h == pytest.approx(0.1)

    def test_monotone_in_error(self):
        hs = [controller_update(e, 1.0)[1]
              for e in (1e-6, 1e-3, 1.0, 10.0, 1e3)]
        assert all(a >= b for a, b in zip(hs, hs[1:]))

    def test_paper_literal_growth_branch(self):
        # The paper-literal reading (h_hat > 100 h: double h_hat) went with
        # the clamp_mode field. h_hat = 0.9e4 h is clamped to facmax h.
        with pytest.raises(TypeError):
            integrate_adaptive(np.ones(1), 0.0, 1.0, linear_problem([[-1.0]]),
                               atol=1e-8, rtol=1e-6, clamp_mode="paper_literal")
        accept, h = controller_update(1e-12, 1.0)
        assert accept and h == pytest.approx(5.0)

    def test_paper_literal_shrink_branch(self):
        # The paper-literal reading divided h by 100 whenever h_hat < 1000 h.
        # With the one clamp left, h_hat = 0.9 h is kept as it is.
        with pytest.raises(TypeError):
            integrate_adaptive(np.ones(1), 0.0, 1.0, linear_problem([[-1.0]]),
                               atol=1e-8, rtol=1e-6, clamp_mode="paper_literal")
        accept, h = controller_update(1.0, 1.0)
        assert accept and h == pytest.approx(0.9)

    def test_h_min_floor(self):
        _, h = controller_update(1e9, 1.0, h_min=0.2)
        assert h == pytest.approx(0.2)


def huge_jacobian(n):
    """An n x n Jacobian with the block [[-1e308, 1e308], [1e308, -1e308]]
    and -1 on the rest of the diagonal: column sums of h J overflow."""
    J = -np.eye(n)
    J[:2, :2] = [[-1e308, 1e308], [1e308, -1e308]]
    return J


class TestNonFiniteOperator:
    """A Jacobian whose (balanced) h J has a column 1-norm that is not
    finite is a failed evaluation: the attempt is rejected with err = inf,
    on the dense path (n = 2) and the Krylov path (n = 9)."""

    @staticmethod
    def problem(n):
        J = huge_jacobian(n)
        return OdeProblem(lambda y: J @ y, lambda y: (J @ y, J))

    @pytest.mark.parametrize("n", [2, 9])
    def test_attempt_raises_phi_error(self, n):
        y = np.full(n, 0.5)
        y[:2] = 1.0, 0.0
        problem = self.problem(n)
        F, J = problem.jac(y)
        # Under the error state integrate_adaptive sets for its march.
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(PhiConvergenceError, match="not finite")):
            epi3v_step(y, 0.5, F, J, problem, 1e-6 + 1e-3 * np.abs(y))

    @pytest.mark.parametrize("n", [2, 9])
    def test_run_returns_without_warning(self, n):
        y0 = np.full(n, 0.5)
        y0[:2] = 1.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integrate_adaptive(y0, 0.0, 1.0, self.problem(n),
                                     atol=1e-6, rtol=1e-3, h0=0.5)
        assert isinstance(out, SolverOutput) and not out.success
        first = out.records[0]
        assert (first.h, first.accepted, first.err_est) == (0.5, False, math.inf)

    @pytest.mark.parametrize("n", [2, 9])
    def test_huge_rhs_fails_the_attempt(self, n):
        # h F's 1-norm overflows: on the Krylov path kiops_eval refuses it
        # (it raised OverflowError choosing its scaling); on the dense path
        # the products overflow to a non-finite error estimate.
        problem = OdeProblem(lambda y: np.full(n, 1e308),
                             lambda y: (np.full(n, 1e308), -np.eye(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = integrate_adaptive(np.ones(n), 0.0, 1.0, problem,
                                     atol=1e-6, rtol=1e-3, h0=0.5)
        assert not out.success
        first = out.records[0]
        assert (first.accepted, math.isfinite(first.err_est)) == (False, False)


class TestAdaptive:
    def test_dead_problem_stays_constant(self, dead_mech):
        st = ThermoState(T=900.0, p=1e5, Y=np.array([0.4, 0.6]))
        out = integrate_mechanism(st, dead_mech, 1.0, atol=1e-10, rtol=1e-8)
        assert out.success
        np.testing.assert_allclose(out.y, st.to_vector(), rtol=1e-12)

    def test_linear_decay_matches_exact(self):
        M = np.diag([-1.0, -100.0])
        y0 = np.array([1.0, 1.0])
        out = integrate_adaptive(y0, 0.0, 1.0, linear_problem(M), atol=1e-12,
                                 rtol=1e-10, h0=1e-6)
        assert out.success and out.t == 1.0
        np.testing.assert_allclose(out.y, np.exp(np.diag(M)), rtol=1e-8,
                                   atol=1e-12)

    def test_lands_exactly_on_t_final(self):
        prob = OdeProblem(f=lambda y: -y, jac=lambda y: (-y, -np.eye(1)))
        out = integrate_adaptive(np.ones(1), 0.0, 0.37, prob, atol=1e-10,
                                 rtol=1e-8)
        assert out.t == 0.37

    def test_toy_against_independent_reference(self, toy_mech, toy_state):
        import scipy.integrate
        from expkin.kinetics import rhs_vector
        out = integrate_mechanism(toy_state, toy_mech, 0.25, atol=1e-10,
                                  rtol=1e-8)
        assert out.success
        sol = scipy.integrate.solve_ivp(
            lambda t, y: rhs_vector(y, toy_mech, toy_state.p),
            (0.0, 0.25), toy_state.to_vector(), method="Radau",
            rtol=1e-10, atol=1e-12)
        assert sol.success
        ref = sol.y[:, -1]
        assert abs(out.y[0] - ref[0]) / ref[0] < 1e-5

    def test_two_kiops_calls_per_attempt(self, net12_mech, net12_state):
        # n = 13: every attempt takes the Krylov path.
        out = integrate_mechanism(net12_state, net12_mech, 1e-4, atol=1e-8,
                                  rtol=1e-6)
        completed = [r for r in out.records if np.isfinite(r.err_est)]
        assert completed
        assert all(r.kiops_calls == 2 for r in completed)

    def test_kiops_calls_independent_of_other_threads(self, net12_mech,
                                                      net12_state):
        # Work counts are carried per attempt, so an integration running in
        # another thread cannot leak its phi calls into these records.
        outs = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            outs[i] = integrate_mechanism(net12_state, net12_mech, 1e-4,
                                          atol=1e-8, rtol=1e-6)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for out in outs:
            completed = [r for r in out.records if np.isfinite(r.err_est)]
            assert out.success and completed
            assert all(r.kiops_calls == 2 for r in completed)

    def test_failed_phi_call_is_counted(self, monkeypatch):
        # A one-vector Krylov basis on a very stiff operator: the first phi
        # call of the first attempt underflows its substep and raises.
        rng = np.random.default_rng(111)
        Q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        M = Q @ np.diag(-1e12 * rng.random(30)) @ Q.T
        monkeypatch.setattr(phikrylov, "M_INIT", 1)
        monkeypatch.setattr(phikrylov, "M_MAX", 1)
        monkeypatch.setattr(integrator, "H_MIN_FRACTION", 0.1)
        out = integrate_adaptive(rng.standard_normal(30), 0.0, 10.0,
                                 linear_problem(M), atol=1e-16, rtol=1e-13,
                                 h0=1.0)
        assert not out.success
        rec, = out.records
        assert not rec.accepted and rec.err_est == float("inf")
        assert rec.kiops_calls == 1
        assert "Krylov substep underflow" in out.message
        assert "m=1" in out.message

    def test_cpu_ns_includes_f_and_j(self):
        def slow_jac(y):
            time.sleep(0.002)
            return -y, -np.eye(1)

        prob = OdeProblem(f=lambda y: -y, jac=slow_jac)
        out = integrate_adaptive(np.ones(1), 0.0, 1.0, prob, atol=1e-10,
                                 rtol=1e-8)
        assert out.records[0].cpu_ns >= 2e6

    def test_rejection_reuses_F_and_J(self, toy_mech, toy_state):
        calls = {"f": 0, "jac": 0}
        prob = problem_from_mechanism(toy_mech, toy_state.p)
        f0, j0 = prob.f, prob.jac

        def f(y):
            calls["f"] += 1
            return f0(y)

        def jac(y):
            calls["jac"] += 1
            return j0(y)

        prob.f, prob.jac = f, jac
        out = integrate_adaptive(toy_state.to_vector(), 0.0, 0.2, prob,
                                 atol=1e-8, rtol=1e-6)
        assert out.success
        n_accept = len(out.accepted_records)
        n_reject = len(out.records) - n_accept
        assert n_reject > 0  # this tolerance pair does produce rejections
        # F and J are evaluated once per fresh state only, never on a
        # rejection; f runs once per attempt, at the stage value Y1.
        assert calls["jac"] == n_accept
        assert calls["f"] == len(out.records)

    def test_every_attempt_logged(self, toy_mech, toy_state):
        out = integrate_mechanism(toy_state, toy_mech, 0.2, atol=1e-8,
                                  rtol=1e-6)
        assert out.records[-1].accepted
        assert out.records[0].h == pytest.approx(1e-10 * 0.2)

    def test_evaluation_failure_logged_beside_error_rejections(self, toy_mech,
                                                                toy_state):
        # The first stage evaluation fails (an evaluation failure), and later
        # attempts include error-norm rejections: both kinds are logged as
        # rejected attempts and the run recovers. F at y0 comes from jac, so
        # the first f call is the first attempt's stage value Y1.
        prob = problem_from_mechanism(toy_mech, toy_state.p)
        f0, calls = prob.f, [0]

        def f(y):
            calls[0] += 1
            if calls[0] == 1:
                raise KineticsError("injected stage failure")
            return f0(y)

        prob.f = f
        seen = []
        out = integrate_adaptive(toy_state.to_vector(), 0.0, 0.2, prob,
                                 atol=1e-8, rtol=1e-6,
                                 step_hook=lambda rec, y, J: seen.append(rec))
        assert out.success
        assert out.records[0].err_est == float("inf")
        assert any(not r.accepted and np.isfinite(r.err_est)
                   for r in out.records)
        # The hook sees every attempt, the failed evaluation included.
        assert seen == out.records

    def test_unevaluable_new_state_is_rejected(self):
        # Full ignition of a generated K = 20 network at rtol 1e-3, whose
        # jac refuses the first new state past 1500 K, as the kinetics
        # refuses one with a mass fraction below -Y_NEG_TOL. The attempt
        # that made it passed the error test; it is rejected when its new
        # state is linearised, so the run completes and no accepted state,
        # the one the march ends on included, is the refused one or out of
        # bounds.
        mech = mechgen.generate_mechanism(20, 0)
        problem = problem_from_mechanism(mech, 101325.0)
        jac, refused = problem.jac, []

        def refusing(y):
            if y[0] > 1500.0 and not refused:
                refused.append(y)
                raise InvalidStateError("refused new state")
            return jac(y)

        problem.jac = refusing
        seen = []
        out = integrate_adaptive(ignition_state(mech).to_vector(), 0.0, 0.5,
                                 problem, atol=1e-9, rtol=1e-3,
                                 step_hook=lambda rec, y, J: seen.append(y))
        assert out.success, out.message
        assert out.t == 0.5 and out.y[0] > 1900.0
        assert any(not r.accepted and r.err_est == float("inf")
                   for r in out.records)
        assert min(y[1:].min() for y in seen + [out.y]) >= -Y_NEG_TOL
        assert len(refused) == 1
        assert not any(y is refused[0] for y in seen + [out.y])

    def test_unevaluable_initial_state_fails_without_records(self, toy_mech):
        y0 = np.array([1000.0, -1e-6, 0.0, 1.0 + 1e-6])
        prob = problem_from_mechanism(toy_mech, 101325.0)
        out = integrate_adaptive(y0, 0.0, 0.1, prob, atol=1e-8, rtol=1e-6)
        assert not out.success
        assert out.message.startswith("state evaluation failed:")
        assert out.records == []

    def test_unevaluable_initial_mechanism_state(self, toy_mech):
        # integrate_mechanism does not check its initial state itself: the
        # first kinetics evaluation refuses it and the run ends at once.
        state = ThermoState(T=1000.0, p=101325.0, Y=[-1e-6, 0.0, 1.0 + 1e-6])
        out = integrate_mechanism(state, toy_mech, 0.1,
                                  atol=1e-8, rtol=1e-6)
        assert not out.success
        assert out.message.startswith("state evaluation failed:")
        assert out.records == []

    @pytest.mark.parametrize("Y", [[0.1, 0.0, 0.0, 0.9], [0.1, 0.9]],
                             ids=["too-long", "too-short"])
    def test_wrong_length_initial_mechanism_state(self, toy_mech, Y):
        # A state with a mass fraction more or fewer than the mechanism has
        # species is refused by the kinetics, which names both lengths.
        state = ThermoState(T=1000.0, p=101325.0, Y=Y)
        out = integrate_mechanism(state, toy_mech, 0.1,
                                  atol=1e-8, rtol=1e-6)
        assert not out.success
        assert out.message.startswith("state evaluation failed:")
        assert f"shape ({len(Y) + 1},) for 3 species, expected (4,)" in out.message
        assert out.records == []

    def test_zero_initial_mechanism_state(self, toy_mech):
        # Mass fractions that are all zero hold no moles: the kinetics
        # refuses the state, and the run ends as for any unevaluable one.
        state = ThermoState(T=1000.0, p=101325.0, Y=[0.0, 0.0, 0.0])
        out = integrate_mechanism(state, toy_mech, 0.1,
                                  atol=1e-8, rtol=1e-6)
        assert not out.success
        assert out.message.startswith("state evaluation failed:")
        assert out.records == []

    def test_output_sampling(self):
        prob = OdeProblem(f=lambda y: -y, jac=lambda y: (-y, -np.eye(1)))
        # Samples come from linear interpolation between accepted steps.
        # EPI3V is exact on a linear problem, so they equal the linear
        # interpolant of exp(-t) through the accepted step ends.
        times = np.linspace(0.0, 1.0, 11)
        out = integrate_adaptive(np.ones(1), 0.0, 1.0, prob, atol=1e-12,
                                 rtol=1e-10, h0=1e-3, output_times=times)
        ends = np.array([0.0] + [r.t + r.h for r in out.accepted_records])
        np.testing.assert_allclose(out.samples[:, 0],
                                   np.interp(times, ends, np.exp(-ends)),
                                   rtol=0, atol=1e-12)
        assert out.samples[0, 0] == 1.0
        assert out.samples[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-9)

    def test_interp_samples_matches_loop(self):
        # Per-time reference loop; the vectorised version must give the same
        # bits, so solution.csv does not change.
        def reference(times, ts, ys):
            out = np.empty((len(times), ys.shape[1]))
            for i, t in enumerate(times):
                j = np.searchsorted(ts, t)
                if j == 0:
                    out[i] = ys[0]
                elif j >= len(ts):
                    out[i] = ys[-1]
                else:
                    a = (t - ts[j - 1]) / (ts[j] - ts[j - 1])
                    out[i] = (1 - a) * ys[j - 1] + a * ys[j]
            return out

        rng = np.random.default_rng(5)
        ts = np.cumsum(rng.uniform(1e-3, 1.0, 40))
        ys = rng.standard_normal((40, 4))
        times = np.sort(np.concatenate((
            [ts[0] - 1.0, ts[-1] + 1.0],               # outside the steps
            ts,                                         # exactly at steps
            rng.uniform(ts[0] - 0.5, ts[-1] + 0.5, 200))))
        got = _interp_samples(times, ts, ys)
        assert np.array_equal(got, reference(times, ts, ys))
        # A march that failed on its first attempt has one accepted time.
        assert np.array_equal(_interp_samples(times, ts[:1], ys[:1]),
                              reference(times, ts[:1], ys[:1]))

    def test_error_estimate_is_exp_euler_error(self):
        # The controller's estimate (the scaled phi_3 term) is the error of
        # the embedded exponential-Euler step, not that of EPI3V itself: in
        # the toy ignition it exceeds EPI3V's true local error by 10^3-10^4.
        import scipy.integrate
        cfg = parse_config((FIXTURE_DIR / "toy_ignition.cfg").read_text())
        mech = parse_mechanism((FIXTURE_DIR / cfg.mechanism).read_text())
        state = ThermoState(T=cfg.T0, p=cfg.pressure, Y=[
            cfg.Y0.get(s.name, 0.0) for s in mech.species])
        seen = []

        def hook(rec, y, J):
            if rec.accepted:
                seen.append((rec, y.copy(), J))

        integrate_mechanism(state, mech, cfg.t_final, atol=cfg.atol,
                            rtol=cfg.rtol, h0=cfg.h0, step_hook=hook)
        prob = problem_from_mechanism(mech, state.p)
        ktol = krylov_tolerance(cfg.rtol)
        for t_pick in (0.15, 0.17, 0.185):
            rec, y, J = next(s for s in seen if s[0].t >= t_pick)
            assert rec.t <= 0.19
            ref = scipy.integrate.solve_ivp(
                lambda t, v: rhs_vector(v, mech, state.p), (0.0, rec.h), y,
                method="Radau", rtol=1e-13, atol=1e-20,
                jac=lambda t, v: prob.jac(v)[1]).y[:, -1]
            F = rhs_vector(y, mech, state.p)
            weights = cfg.atol + cfg.rtol * np.abs(y)
            err_euler = scaled_error_norm(
                exp_euler_step(y, rec.h, F, J, krylov_tol=ktol) - ref, weights)
            err_epi3v = scaled_error_norm(
                epi3v_step(y, rec.h, F, J, prob, weights,
                           krylov_tol=ktol)[0] - ref, weights)
            assert rec.err_est == pytest.approx(err_euler, rel=0.01)
            assert rec.err_est >= 100.0 * err_epi3v

    def test_step_hook_sees_accepted_state(self, toy_mech, toy_state):
        seen = []
        integrate_mechanism(toy_state, toy_mech, 0.1, atol=1e-8, rtol=1e-6,
                            step_hook=lambda rec, y, J: seen.append(
                                (rec.t, y[0], J.shape)))
        assert seen and all(s[2] == (4, 4) for s in seen)

    def test_invalid_span(self):
        prob = OdeProblem(f=lambda y: -y, jac=lambda y: (-y, -np.eye(1)))
        with pytest.raises(ValueError):
            integrate_adaptive(np.ones(1), 1.0, 1.0, prob, atol=1e-8,
                               rtol=1e-6)

    @pytest.mark.parametrize("h0", [np.nan, np.inf, 0.0, -1e-3])
    def test_bad_h0_refused(self, h0):
        # Unrefused, h0 = NaN made every step size NaN, so no attempt was
        # accepted and the underflow test never fired: the march never
        # ended. The hook stops such a march after 1000 attempts.
        prob = linear_problem([[-1.0, 0.0], [0.0, -2.0]])

        def bounded(rec, y, J):
            bounded.attempts += 1
            if bounded.attempts > 1000:
                raise RuntimeError("the march did not end")
        bounded.attempts = 0
        with pytest.raises(ValueError, match="h0"):
            integrate_adaptive(np.ones(2), 0.0, 1.0, prob, atol=1e-8,
                               rtol=1e-6, h0=h0, step_hook=bounded)
        assert bounded.attempts == 0

    @pytest.mark.parametrize("bad, match", [
        ({"atol": 0.0}, "atol and rtol"), ({"atol": -1e-9}, "atol and rtol"),
        ({"rtol": -1e-3}, "atol and rtol"), ({"atol": np.inf}, "atol and rtol"),
        ({"rtol": np.nan}, "atol and rtol"),
        ({"y0": np.array([1.0, np.nan])}, "y0"), ({"t_final": np.inf}, "t_final"),
    ], ids=["atol-zero", "atol-negative", "rtol-negative", "atol-inf",
            "rtol-nan", "y0-nan", "t_final-inf"])
    def test_bad_tolerance_end_or_state_refused(self, bad, match):
        # Unrefused on this problem, atol = 0 (beside the zero entry),
        # rtol = NaN and a NaN in y0 each ended in a step-size underflow
        # after 6 attempts, t_final = inf in one after 1 (operator 1-norm is
        # not finite), and a negative tolerance or atol = inf "completed".
        prob = linear_problem([[-1.0, 0.0], [0.0, -2.0]])
        args = {"y0": np.array([1.0, 0.0]), "t_final": 1.0, "atol": 1e-8,
                "rtol": 1e-6} | bad
        seen = []
        with pytest.raises(ValueError, match=match):
            integrate_adaptive(args["y0"], 0.0, args["t_final"], prob,
                               atol=args["atol"], rtol=args["rtol"],
                               step_hook=lambda *rec: seen.append(rec))
        assert not seen

    def test_failure_is_reported_not_raised(self, toy_mech, monkeypatch):
        # An unreachable tolerance with a huge floor (1e-3 s): the march
        # reports failure through SolverOutput rather than raising.
        monkeypatch.setattr(integrator, "H_MIN_FRACTION", 1e-3 / 0.3)
        bad = ThermoState(T=1000.0, p=101325.0, Y=np.array([0.1, 0.0, 0.9]))
        out = integrate_mechanism(bad, toy_mech, 0.3, atol=1e-300, rtol=1e-16,
                                  h0=1e-3)
        assert isinstance(out, SolverOutput)
        assert not out.success and out.message


BLAS_THREADS_RUN = """
import importlib.util, json, pathlib, sys
root = pathlib.Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))
import numpy as np
from expkin.integrator import integrate_mechanism
from expkin.kinetics import ThermoState
spec = importlib.util.spec_from_file_location(
    "mechgen", root / "perfbench" / "mechgen.py")
mechgen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mechgen)
mech = mechgen.generate_mechanism(250, 0)
fractions = mechgen.initial_mass_fractions(mech)
Y = [fractions.get(sp.name, 0.0) for sp in mech.species]
out = integrate_mechanism(ThermoState(T=1000.0, p=101325.0, Y=Y), mech, 0.5,
                          atol=1e-9, rtol=1e-3)
print(json.dumps({"success": out.success,
                  "err_est": [r.err_est.hex() for r in out.records],
                  "y": [v.hex() for v in out.y.tolist()]}))
"""


class TestWeightedKrylov:
    """The Krylov branch of `_phi_products` evaluates phi on D h J D^-1 and
    D b, D = diag(1/weights) in powers of two, and unscales the results."""

    def test_attempts_do_not_depend_on_first_basis_size(self, monkeypatch):
        # Full ignition of a generated K = 20 network (n = 21) at rtol 1e-3:
        # the attempts are those of the exact dense phi path
        # (DENSE_PHI_MAX >= n + 3) whatever basis size the run's first
        # Krylov calls start from. Unweighted, with every call starting at
        # M_INIT, M_INIT 6, 10 and 14 took 432, 246 and 243 attempts
        # against 243.
        mech = mechgen.generate_mechanism(20, 0)
        state = ignition_state(mech)
        runs = {}
        for m_init in (6, 10, 14, 24):
            monkeypatch.setattr(phikrylov, "M_INIT", m_init)
            if m_init == 24:
                monkeypatch.setattr(integrator, "DENSE_PHI_MAX", 24)
            out = integrate_mechanism(state, mech, 0.5, atol=1e-9, rtol=1e-3)
            assert out.success and out.y[0] > 1900.0
            calls = {r.kiops_calls for r in out.records
                     if np.isfinite(r.err_est)}
            assert calls == ({0} if m_init == 24 else {2})
            runs[m_init] = len(out.records)
        assert len(set(runs.values())) == 1, runs

    def test_blas_thread_count_changes_nothing(self):
        # Full ignition of a generated K = 250 network at rtol 1e-3, in two
        # child processes, one with one BLAS thread and one with two: the
        # same attempts, every err_est and the end state bit for bit.
        # Unweighted, one thread took 1,547 attempts and two 1,466.
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", BLAS_THREADS_RUN, str(ROOT)], env=env,
                capture_output=True, text=True, timeout=300, check=True)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        one, two = runs
        assert one["success"] and len(one["err_est"]) <= 220
        assert one == two

    @pytest.mark.parametrize("h", [1e-8, 1e-6, 1e-4])
    def test_bits_match_reference(self, net12_mech, net12_state, h):
        # n = 13: the Krylov branch. Both calls take D A D^-1 and D b with d
        # from numpy's frexp by the dense branch's rule, and the results
        # are divided by d.
        y = net12_state.to_vector()
        F, J = problem_from_mechanism(net12_mech, net12_state.p).jac(y)
        weights = 1e-12 + 1e-6 * np.abs(y)
        e = np.frexp(weights)[1]
        assert e.max() - e.min() > 20
        d = np.ldexp(1.0, np.maximum(e.min() - e, -20))
        DAD = h * J * np.divide.outer(d, d)
        v = np.random.default_rng(8).standard_normal(len(y)) * weights
        stats = PhiStats()
        w34, w1, phi3 = integrator._phi_products(h * J, h * F, weights,
                                                 1e-8, stats)
        want34, want1 = phikrylov.kiops_eval(DAD, d * h * F, 1, (0.75, 1.0),
                                             tol=1e-8).values
        want3, = phikrylov.kiops_eval(DAD, d * v, 3, (1.0,), tol=1e-8).values
        for got, want in ((w34, want34), (w1, want1), (phi3(v), want3)):
            np.testing.assert_array_equal(got, want / d)
        assert stats.calls == 2 and stats.matvecs > 0

    def test_scaling_is_the_dense_rule(self, monkeypatch):
        # One rule for both branches: the operator `phi_blocks` receives
        # (default DENSE_PHI_MAX) and the one `kiops_eval` receives
        # (DENSE_PHI_MAX = 2) are D A D^-1 with d from numpy's frexp,
        # subnormal and clipped weights included, bit for bit.
        weights = 2.0 ** np.array([-1074.0, 3.0, -30.0, 500.0, -2.0, 0.5])
        A = np.random.default_rng(3).standard_normal((6, 6))
        e = np.frexp(weights)[1]
        d = np.ldexp(1.0, np.maximum(e.min() - e, -20))
        seen = []

        def recorded(real):
            def first_argument_recorded(X, *args, **kwargs):
                seen.append(np.array(X))
                return real(X, *args, **kwargs)
            return first_argument_recorded

        for name in ("phi_blocks", "kiops_eval"):
            monkeypatch.setattr(phikrylov, name,
                                recorded(getattr(phikrylov, name)))
        integrator._phi_products(A, np.ones(6), weights, 1e-8, PhiStats())
        monkeypatch.setattr(integrator, "DENSE_PHI_MAX", 2)
        integrator._phi_products(A, np.ones(6), weights, 1e-8, PhiStats())
        assert len(seen) == 2
        for X in seen:
            np.testing.assert_array_equal(X, A * np.divide.outer(d, d))


class TestCarriedBasisSizes:
    """Each Krylov call of a run starts from the size the previous call of
    its kind (phi_1 or phi_3) passed on; the sizes belong to the run."""

    def test_each_call_starts_where_the_last_of_its_kind_left(
            self, net12_mech, net12_state, monkeypatch):
        real = phikrylov.kiops_eval
        calls = []

        def recorded(A, b, p, *args, **kwargs):
            res = real(A, b, p, *args, **kwargs)
            calls.append((p, kwargs["m_init"], res.m_next))
            return res

        monkeypatch.setattr(phikrylov, "kiops_eval", recorded)
        monkeypatch.setattr(phikrylov, "M_INIT", 7)
        integrate_mechanism(net12_state, net12_mech, 1e-4, atol=1e-8,
                            rtol=1e-6)
        for p in (1, 3):
            kind = [(m_init, m_next) for q, m_init, m_next in calls if q == p]
            assert len(kind) > 10
            starts = [m_init for m_init, _ in kind]
            assert starts == [7] + [m_next for _, m_next in kind[:-1]]
            assert len(set(starts)) > 1

    def test_repeated_runs_are_identical(self, net12_mech, net12_state):
        # Two runs in one process do the same work: no size outlives its
        # run.
        def run():
            out = integrate_mechanism(net12_state, net12_mech, 1e-4,
                                      atol=1e-8, rtol=1e-6)
            assert out.success
            return [(r.krylov_dim, r.matvecs, r.err_est.hex())
                    for r in out.records]

        first = run()
        assert len({dim for dim, _, _ in first}) > 1
        assert run() == first

    def test_sized_calls_cost_fewer_matvecs(self, monkeypatch):
        # Full ignition of a generated K = 20 network at rtol 1e-3, against
        # a run whose calls all start at M_INIT: the same attempts, with
        # 7.0 rather than 9.9 matvecs per Krylov call, for 1.07 rather than
        # 1.02 exponentials per call (the sizes hover where the error sits
        # within 100x of its budget, so a harder step regrows them).
        mech = mechgen.generate_mechanism(20, 0)
        state = ignition_state(mech)
        real_expm, real_kiops = phikrylov.expm, phikrylov.kiops_eval
        count = [0]

        def counted(A, **kwargs):
            count[0] += 1
            return real_expm(A, **kwargs)

        def fixed(A, b, p, *args, m_init=None, **kwargs):
            return real_kiops(A, b, p, *args, **kwargs)

        def run():
            count[0] = 0
            out = integrate_mechanism(state, mech, 0.5, atol=1e-9, rtol=1e-3)
            assert out.success and out.y[0] > 1900.0
            calls = sum(r.kiops_calls for r in out.records)
            return (len(out.records), count[0] / calls,
                    sum(r.matvecs for r in out.records) / calls)

        monkeypatch.setattr(phikrylov, "expm", counted)
        attempts, expm_per_call, matvecs_per_call = run()
        monkeypatch.setattr(phikrylov, "kiops_eval", fixed)
        want_attempts, want_expm, want_matvecs = run()
        assert attempts == want_attempts
        assert matvecs_per_call < 0.8 * want_matvecs
        assert expm_per_call < 1.1 * want_expm


class TestKrylovSubsteps:
    def test_capped_basis_substeps_tau(self, monkeypatch):
        # Full ignition of a generated K = 20 network at rtol 1e-3 with the
        # basis capped at 8: calls that need a larger basis halve tau and
        # take several substeps (63 of 243 attempts), and the run ends
        # where the uncapped one does (2017.2541 against 2017.2543 K).
        mech = mechgen.generate_mechanism(20, 0)
        state = ignition_state(mech)

        def run():
            out = integrate_mechanism(state, mech, 0.5, atol=1e-9, rtol=1e-3)
            assert out.success
            return out

        want = run()
        assert all(r.substeps == r.kiops_calls for r in want.records)
        monkeypatch.setattr(phikrylov, "M_MAX", 8)
        out = run()
        assert any(r.substeps > r.kiops_calls for r in out.records)
        assert abs(out.y[0] - want.y[0]) <= 0.01


class TestKrylovTolerance:
    def test_default_krylov_tol_tracks_rtol(self):
        assert krylov_tolerance(1e-8) == pytest.approx(1e-10)

    def test_krylov_tol_floor(self):
        assert krylov_tolerance(1e-13) == pytest.approx(1e-14)

