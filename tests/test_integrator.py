"""EPI3V stepper, error controller and the adaptive march."""
import functools
import sys
import threading
import time

import numpy as np
import pytest

from conftest import FIXTURE_DIR, mechgen
from expkin import phikrylov
from expkin.integrator import (
    ControllerConfig, OdeProblem, SolverOutput, StepRecord, _interp_samples,
    controller_update, epi3v_step, exp_euler_step, integrate_adaptive,
    integrate_fixed, integrate_mechanism, problem_from_mechanism,
    scaled_error_norm,
)
from expkin.kinetics import Y_NEG_TOL, KineticsError, ThermoState, rhs_vector
from expkin.mechio import parse_config, parse_mechanism
from expkin.phikrylov import expm


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
            y1, lte, _ = epi3v_step(y0, h, prob.f(y0), M, prob,
                                    krylov_tol=1e-13)
            want = expm(h * M) @ y0
            np.testing.assert_allclose(y1, want, rtol=1e-9, atol=1e-11)
            assert np.linalg.norm(lte) < 1e-9 * np.linalg.norm(y0)

    def test_zero_rhs_identity(self):
        prob = OdeProblem(f=lambda y: np.zeros_like(y),
                          jac=lambda y: (np.zeros_like(y), np.zeros((3, 3))))
        y0 = np.array([1.0, -2.0, 3.0])
        y1, lte, _ = epi3v_step(y0, 1.0, *prob.jac(y0), prob)
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
        e1 = abs(epi3v_step(y0, h, F, J, prob, krylov_tol=1e-14)[0][0]
                 - exact(h))
        e2 = abs(epi3v_step(y0, h / 2, F, J, prob, krylov_tol=1e-14)[0][0]
                 - exact(h / 2))
        assert 28.0 < e1 / e2 < 38.0

    def test_lte_is_phi3_term(self):
        # y_new minus the embedded exponential-Euler step equals the LTE.
        prob = OdeProblem(f=lambda y: np.sin(y),
                          jac=lambda y: (np.sin(y), np.diag(np.cos(y))))
        y0 = np.array([0.3, 1.1])
        F, J = prob.jac(y0)
        y1, lte, _ = epi3v_step(y0, 0.2, F, J, prob, krylov_tol=1e-13)
        y_euler = exp_euler_step(y0, 0.2, F, J, krylov_tol=1e-13)
        np.testing.assert_allclose(y1 - y_euler, lte, rtol=1e-8, atol=1e-13)

    def test_exp_euler_linear_matches_epi3v(self):
        rng = np.random.default_rng(41)
        M = rng.standard_normal((4, 4))
        y0 = rng.standard_normal(4)
        prob = linear_problem(M)
        ye = exp_euler_step(y0, 0.7, prob.f(y0), M, krylov_tol=1e-13)
        y3, _, _ = epi3v_step(y0, 0.7, prob.f(y0), M, prob, krylov_tol=1e-13)
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
    def cfg(self, **kw):
        base = dict(atol=1e-8, rtol=1e-6)
        base.update(kw)
        return ControllerConfig(**base)

    def test_scaled_norm_hand_value(self):
        lte = np.array([2e-8, 0.0])
        y = np.array([1.0, 1.0])
        # scale = 1e-8 + 1e-6: rms of (2e-8/1.01e-6, 0).
        want = np.sqrt(((2e-8 / 1.01e-6) ** 2) / 2)
        assert scaled_error_norm(lte, y, 1e-8, 1e-6) == pytest.approx(want)

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
            self.cfg(clamp_mode="paper_literal")
        accept, h = controller_update(1e-12, 1.0)
        assert accept and h == pytest.approx(5.0)

    def test_paper_literal_shrink_branch(self):
        # The paper-literal reading divided h by 100 whenever h_hat < 1000 h.
        # With the one clamp left, h_hat = 0.9 h is kept as it is.
        with pytest.raises(TypeError):
            self.cfg(clamp_mode="paper_literal")
        accept, h = controller_update(1.0, 1.0)
        assert accept and h == pytest.approx(0.9)

    def test_h_min_floor(self):
        _, h = controller_update(1e9, 1.0, h_min=0.2)
        assert h == pytest.approx(0.2)


class TestAdaptive:
    def test_dead_problem_stays_constant(self, dead_mech):
        st = ThermoState(T=900.0, p=1e5, Y=np.array([0.4, 0.6]))
        cfg = ControllerConfig(atol=1e-10, rtol=1e-8)
        out = integrate_mechanism(st, dead_mech, 1.0, cfg)
        assert out.success
        np.testing.assert_allclose(out.y, st.to_vector(), rtol=1e-12)

    def test_linear_decay_matches_exact(self):
        M = np.diag([-1.0, -100.0])
        y0 = np.array([1.0, 1.0])
        cfg = ControllerConfig(atol=1e-12, rtol=1e-10, h0=1e-6)
        out = integrate_adaptive(y0, 0.0, 1.0, linear_problem(M), cfg)
        assert out.success and out.t == 1.0
        np.testing.assert_allclose(out.y, np.exp(np.diag(M)), rtol=1e-8,
                                   atol=1e-12)

    def test_lands_exactly_on_t_final(self):
        prob = OdeProblem(f=lambda y: -y, jac=lambda y: (-y, -np.eye(1)))
        cfg = ControllerConfig(atol=1e-10, rtol=1e-8)
        out = integrate_adaptive(np.ones(1), 0.0, 0.37, prob, cfg)
        assert out.t == 0.37

    def test_toy_against_independent_reference(self, toy_mech, toy_state):
        import scipy.integrate
        from expkin.kinetics import rhs_vector
        cfg = ControllerConfig(atol=1e-10, rtol=1e-8)
        out = integrate_mechanism(toy_state, toy_mech, 0.25, cfg)
        assert out.success
        sol = scipy.integrate.solve_ivp(
            lambda t, y: rhs_vector(y, toy_mech, toy_state.p),
            (0.0, 0.25), toy_state.to_vector(), method="Radau",
            rtol=1e-10, atol=1e-12)
        assert sol.success
        ref = sol.y[:, -1]
        assert abs(out.y[0] - ref[0]) / ref[0] < 1e-5

    def test_two_kiops_calls_per_attempt(self, toy_mech, toy_state):
        cfg = ControllerConfig(atol=1e-8, rtol=1e-6)
        out = integrate_mechanism(toy_state, toy_mech, 0.2, cfg)
        completed = [r for r in out.records if np.isfinite(r.err_est)]
        assert completed
        assert all(r.kiops_calls == 2 for r in completed)

    def test_kiops_calls_independent_of_other_threads(self, toy_mech,
                                                      toy_state):
        # Work counts are carried per attempt, so an integration running in
        # another thread cannot leak its phi calls into these records.
        cfg = ControllerConfig(atol=1e-8, rtol=1e-6)
        outs = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            outs[i] = integrate_mechanism(toy_state, toy_mech, 0.2, cfg)

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
        monkeypatch.setattr(phikrylov, "kiops_eval", functools.partial(
            phikrylov.kiops_eval, m_init=1, m_max=1))
        cfg = ControllerConfig(atol=1e-16, rtol=1e-13, h0=1.0, h_min=1.0)
        out = integrate_adaptive(rng.standard_normal(30), 0.0, 10.0,
                                 linear_problem(M), cfg)
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
        cfg = ControllerConfig(atol=1e-10, rtol=1e-8)
        out = integrate_adaptive(np.ones(1), 0.0, 1.0, prob, cfg)
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
        cfg = ControllerConfig(atol=1e-8, rtol=1e-6)
        out = integrate_adaptive(toy_state.to_vector(), 0.0, 0.2, prob, cfg)
        assert out.success
        n_accept = len(out.accepted_records)
        n_reject = len(out.records) - n_accept
        assert n_reject > 0  # this tolerance pair does produce rejections
        # F and J are evaluated once per fresh state only, never on a
        # rejection; f runs once per attempt, at the stage value Y1.
        assert calls["jac"] == n_accept
        assert calls["f"] == len(out.records)

    def test_every_attempt_logged(self, toy_mech, toy_state):
        cfg = ControllerConfig(atol=1e-8, rtol=1e-6)
        out = integrate_mechanism(toy_state, toy_mech, 0.2, cfg)
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
        cfg = ControllerConfig(atol=1e-8, rtol=1e-6)
        seen = []
        out = integrate_adaptive(toy_state.to_vector(), 0.0, 0.2, prob, cfg,
                                 step_hook=lambda rec, y, J: seen.append(rec))
        assert out.success
        assert out.records[0].err_est == float("inf")
        assert any(not r.accepted and np.isfinite(r.err_est)
                   for r in out.records)
        # The hook sees every attempt, the failed evaluation included.
        assert seen == out.records

    def test_unevaluable_new_state_is_rejected(self):
        # Full ignition of a generated K = 20 network at rtol 1e-3: some
        # attempts pass the error test with a mass fraction below
        # -Y_NEG_TOL. Such an attempt is rejected when its new state is
        # linearised, so the run completes and no accepted state, the one
        # the march ends on included, is out of bounds.
        mech = mechgen.generate_mechanism(20, 0)
        fractions = mechgen.initial_mass_fractions(mech)
        Y = np.array([fractions.get(sp.name, 0.0) for sp in mech.species])
        state = ThermoState(T=1000.0, p=101325.0, Y=Y)
        seen = []
        out = integrate_mechanism(state, mech, 0.5,
                                  ControllerConfig(atol=1e-9, rtol=1e-3),
                                  step_hook=lambda rec, y, J: seen.append(y))
        assert out.success, out.message
        assert out.t == 0.5 and out.y[0] > 1900.0
        assert any(not r.accepted and r.err_est == float("inf")
                   for r in out.records)
        assert min(y[1:].min() for y in seen + [out.y]) >= -Y_NEG_TOL

    def test_unevaluable_initial_state_fails_without_records(self, toy_mech):
        y0 = np.array([1000.0, -1e-6, 0.0, 1.0 + 1e-6])
        prob = problem_from_mechanism(toy_mech, 101325.0)
        out = integrate_adaptive(y0, 0.0, 0.1, prob,
                                 ControllerConfig(atol=1e-8, rtol=1e-6))
        assert not out.success
        assert out.message.startswith("state evaluation failed:")
        assert out.records == []

    def test_output_sampling(self):
        prob = OdeProblem(f=lambda y: -y, jac=lambda y: (-y, -np.eye(1)))
        # Samples come from linear interpolation between accepted steps.
        # EPI3V is exact on a linear problem, so they equal the linear
        # interpolant of exp(-t) through the accepted step ends.
        cfg = ControllerConfig(atol=1e-12, rtol=1e-10, h0=1e-3)
        times = np.linspace(0.0, 1.0, 11)
        out = integrate_adaptive(np.ones(1), 0.0, 1.0, prob, cfg,
                                 output_times=times)
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

        integrate_mechanism(state, mech, cfg.t_final, cfg, step_hook=hook)
        prob = problem_from_mechanism(mech, state.p)
        ktol = cfg.krylov_tolerance()
        for t_pick in (0.15, 0.17, 0.185):
            rec, y, J = next(s for s in seen if s[0].t >= t_pick)
            assert rec.t <= 0.19
            ref = scipy.integrate.solve_ivp(
                lambda t, v: rhs_vector(v, mech, state.p), (0.0, rec.h), y,
                method="Radau", rtol=1e-13, atol=1e-20,
                jac=lambda t, v: prob.jac(v)[1]).y[:, -1]
            F = rhs_vector(y, mech, state.p)
            err_euler = scaled_error_norm(
                exp_euler_step(y, rec.h, F, J, krylov_tol=ktol) - ref, y,
                cfg.atol, cfg.rtol)
            err_epi3v = scaled_error_norm(
                epi3v_step(y, rec.h, F, J, prob, krylov_tol=ktol)[0] - ref, y,
                cfg.atol, cfg.rtol)
            assert rec.err_est == pytest.approx(err_euler, rel=0.01)
            assert rec.err_est >= 100.0 * err_epi3v

    def test_step_hook_sees_accepted_state(self, toy_mech, toy_state):
        seen = []
        cfg = ControllerConfig(atol=1e-8, rtol=1e-6)
        integrate_mechanism(toy_state, toy_mech, 0.1, cfg,
                            step_hook=lambda rec, y, J: seen.append(
                                (rec.t, y[0], J.shape)))
        assert seen and all(s[2] == (4, 4) for s in seen)

    def test_invalid_span(self):
        prob = OdeProblem(f=lambda y: -y, jac=lambda y: (-y, -np.eye(1)))
        cfg = ControllerConfig(atol=1e-8, rtol=1e-6)
        with pytest.raises(ValueError):
            integrate_adaptive(np.ones(1), 1.0, 1.0, prob, cfg)

    def test_failure_is_reported_not_raised(self, toy_mech):
        # An unreachable tolerance with a huge floor: the march reports
        # failure through SolverOutput rather than raising.
        bad = ThermoState(T=1000.0, p=101325.0, Y=np.array([0.1, 0.0, 0.9]))
        cfg = ControllerConfig(atol=1e-300, rtol=1e-16, h_min=1e-3, h0=1e-3)
        out = integrate_mechanism(bad, toy_mech, 0.3, cfg)
        assert isinstance(out, SolverOutput)
        assert not out.success and out.message


class TestControllerConfig:
    def test_default_krylov_tol_tracks_rtol(self):
        cfg = ControllerConfig(atol=1e-10, rtol=1e-8)
        assert cfg.krylov_tolerance() == pytest.approx(1e-10)

    def test_krylov_tol_floor(self):
        cfg = ControllerConfig(atol=1e-14, rtol=1e-13)
        assert cfg.krylov_tolerance() == pytest.approx(1e-14)

    def test_invalid_tolerances(self):
        with pytest.raises(ValueError):
            ControllerConfig(atol=0.0, rtol=1e-8)
        with pytest.raises(ValueError):
            ControllerConfig(atol=1e-8, rtol=-1.0)
