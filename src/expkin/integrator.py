"""Third-order adaptive exponential integrator (EPI3V) with an embedded
exponential-Euler error estimate.

One step with step size h, F = F(y_n), J = J(y_n):

    Y1      = y_n + phi_1(3/4 h J) h F
    R(z)    = f(z) - F - J (z - y_n)
    y_{n+1} = y_n + phi_1(h J) h F + phi_3(h J) 2 h R(Y1)

The phi_3 term is also the local truncation error estimate (the difference
to the embedded exponential-Euler step y_n + h phi_1(h J) F). Each step
attempt uses exactly two Krylov evaluations: one for phi_1 at time points
{3/4, 1}, one for the phi_3 term.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import phikrylov
from .kinetics import KineticsError, RateTelemetry, jacobian, rhs_vector
from .phikrylov import PhiConvergenceError, PhiStats, phi_combination


@dataclass
class ControllerConfig:
    """Step-size controller and solver settings."""

    atol: float = 1.0e-10
    rtol: float = 1.0e-8
    safety: float = 0.9
    facmin: float = 0.1
    facmax: float = 5.0
    embedded_order: int = 2      # q; controller exponent is 1/(q+1)
    h0: float = None             # default: 1e-10 * interval length
    h_min: float = None          # default: 1e-15 * interval length
    clamp_mode: str = "standard"  # or "paper_literal"
    krylov_tol: float = None     # default: 0.01 * rtol, floored at 1e-14
    krylov_m_max: int = 128

    def __post_init__(self):
        if not (self.atol > 0 and self.rtol > 0):
            raise ValueError("tolerances must be positive")
        if not (0 < self.facmin < 1 < self.facmax):
            raise ValueError("need 0 < facmin < 1 < facmax")
        if not (0 < self.safety <= 1):
            raise ValueError("need 0 < safety <= 1")
        if self.embedded_order not in (1, 2):
            raise ValueError("embedded order must be 1 or 2")
        if self.clamp_mode not in ("standard", "paper_literal"):
            raise ValueError(f"unknown clamp mode {self.clamp_mode!r}")
        if self.h0 is not None and self.h_min is not None and self.h0 < self.h_min:
            raise ValueError("initial step below h_min")

    def krylov_tolerance(self):
        if self.krylov_tol is not None:
            return self.krylov_tol
        return max(0.01 * self.rtol, 1.0e-14)


@dataclass
class StepRecord:
    """Telemetry for one step attempt."""

    t: float
    h: float
    accepted: bool
    err_scaled: float
    krylov_dim: int = 0
    substeps: int = 0
    matvecs: int = 0
    rejections_so_far: int = 0
    kiops_calls: int = 0
    cpu_ns: int = 0


@dataclass
class SolverOutput:
    success: bool
    message: str
    t: float
    y: np.ndarray
    sample_times: np.ndarray = None
    samples: np.ndarray = None
    records: list = field(default_factory=list)
    telemetry: RateTelemetry = None

    @property
    def accepted_records(self):
        return [r for r in self.records if r.accepted]


class OdeProblem:
    """Right-hand side plus a dense Jacobian evaluator."""

    def __init__(self, f, jac):
        self.f = f
        self.jac = jac


def problem_from_mechanism(mech, pressure, convention="divide", telemetry=None):
    """OdeProblem over the flat [T, Y...] state vector of a mechanism,
    with the exact analytical Jacobian."""

    def f(y):
        return rhs_vector(y, mech, pressure, convention, telemetry)

    def jac(y):
        return jacobian(y, mech, pressure, convention, telemetry)

    return OdeProblem(f, jac)


def epi3v_step(y, h, F, J, problem, krylov_tol=1.0e-12, m_max=128):
    """One EPI3V step. Returns (y_new, lte, combined PhiStats)."""
    A = h * J
    hF = h * F
    # Call 1: phi_1(T h J) h F at T = 3/4 and T = 1, one Krylov process.
    res1 = phi_combination(A, [None, hF], time_points=(0.75, 1.0),
                           tol=krylov_tol, m_max=m_max)
    w34, w1 = res1.values
    # w(3/4) carries the leading factor T = 3/4 of the evaluation convention.
    Y1 = y + w34 / 0.75
    r = problem.f(Y1) - F - J @ (Y1 - y)
    # Call 2: phi_3(h J) 2 h R(Y1); this vector is also the LTE estimate.
    res2 = phi_combination(A, [None, None, None, 2.0 * h * r],
                           time_points=(1.0,), tol=krylov_tol, m_max=m_max)
    lte = res2.values[0]
    y_new = y + w1 + lte
    stats = PhiStats(
        substeps=res1.stats.substeps + res2.stats.substeps,
        matvecs=res1.stats.matvecs + res2.stats.matvecs,
        max_krylov_dim=max(res1.stats.max_krylov_dim, res2.stats.max_krylov_dim),
        rejections=res1.stats.rejections + res2.stats.rejections,
    )
    return y_new, lte, stats


def exp_euler_step(y, h, F, J, krylov_tol=1.0e-12, m_max=128):
    """Embedded first-stage method: y + h phi_1(h J) F."""
    res = phi_combination(h * J, [None, h * F], time_points=(1.0,),
                          tol=krylov_tol, m_max=m_max)
    return y + res.values[0]


def scaled_error_norm(lte, y, atol, rtol):
    """RMS of lte components scaled by atol + rtol |y|."""
    scale = atol + rtol * np.abs(y)
    # Overflow here just yields inf, which the controller treats as a
    # rejection; no need to warn about it.
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean((lte / scale) ** 2)))


def controller_update(err_scaled, h_old, cfg, h_min=0.0):
    """Accept/reject decision and the next step size (Wanner-style I controller)."""
    if not np.isfinite(err_scaled):
        return False, max(h_old * cfg.facmin, h_min)
    accept = err_scaled <= 1.0
    k = 1.0 / (cfg.embedded_order + 1)
    if err_scaled == 0.0:
        h_hat = h_old * cfg.facmax
    else:
        h_hat = h_old * cfg.safety * err_scaled ** -k
    if cfg.clamp_mode == "paper_literal":
        # Printed piecewise rule, first matching branch in printed order.
        if h_hat > 100.0 * h_old:
            h_new = 2.0 * h_hat
        elif h_hat < 1000.0 * h_old:
            h_new = h_hat / 100.0
        else:
            h_new = h_hat
    else:
        fac = min(cfg.facmax, max(cfg.facmin, h_hat / h_old))
        h_new = h_old * fac
    return accept, max(h_new, h_min)


def _interp_samples(times, ts, ys):
    """Linear interpolation of the accepted-step trajectory."""
    ts = np.asarray(ts)
    ys = np.asarray(ys)
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


def integrate_adaptive(y0, t0, t_final, problem, cfg, output_times=None,
                       step_hook=None):
    """March EPI3V with the adaptive controller from t0 to t_final.

    Rejected attempts reuse the F and J of the unchanged state. The final
    step is truncated to land exactly on t_final. Every attempt is logged.
    """
    if not (t_final > t0):
        raise ValueError("t_final must exceed t0")
    span = t_final - t0
    h_min = cfg.h_min if cfg.h_min is not None else 1.0e-15 * span
    h = cfg.h0 if cfg.h0 is not None else 1.0e-10 * span
    h = max(h, h_min)
    ktol = cfg.krylov_tolerance()

    t = t0
    y = np.asarray(y0, dtype=float).copy()
    records = []
    ts = [t0]
    ys = [y.copy()]
    F = None
    J = None
    rejections = 0

    def finish(success, message):
        out = SolverOutput(success=success, message=message, t=t, y=y,
                           records=records)
        if output_times is not None:
            out.sample_times = np.asarray(output_times, dtype=float)
            out.samples = _interp_samples(out.sample_times, ts, ys)
        return out

    while t < t_final:
        last = h >= t_final - t
        h_try = t_final - t if last else h
        if F is None:
            try:
                F = problem.f(y)
                J = problem.jac(y)
            except KineticsError as exc:
                return finish(False, f"state evaluation failed: {exc}")
        start = time.perf_counter_ns()
        calls_before = phikrylov.invocation_count()
        try:
            y_new, lte, kstats = epi3v_step(y, h_try, F, J, problem,
                                            krylov_tol=ktol, m_max=cfg.krylov_m_max)
            err = scaled_error_norm(lte, y, cfg.atol, cfg.rtol)
        except (PhiConvergenceError, KineticsError):
            cpu = time.perf_counter_ns() - start
            rejections += 1
            records.append(StepRecord(t=t, h=h_try, accepted=False,
                                      err_scaled=float("inf"),
                                      rejections_so_far=rejections,
                                      kiops_calls=phikrylov.invocation_count()
                                      - calls_before,
                                      cpu_ns=cpu))
            h = max(h_try / 2, h_min)
            if h_try <= h_min * (1 + 1e-12):
                return finish(False, "step size underflow (evaluation failure)")
            continue
        cpu = time.perf_counter_ns() - start
        accept, h_next = controller_update(err, h_try, cfg, h_min)
        rec = StepRecord(t=t, h=h_try, accepted=accept, err_scaled=err,
                         krylov_dim=kstats.max_krylov_dim,
                         substeps=kstats.substeps, matvecs=kstats.matvecs,
                         rejections_so_far=rejections,
                         kiops_calls=phikrylov.invocation_count() - calls_before,
                         cpu_ns=cpu)
        records.append(rec)
        if step_hook is not None:
            step_hook(rec, y, J)
        if accept:
            t = t_final if last else t + h_try
            y = y_new
            if not np.all(np.isfinite(y)):
                return finish(False, "non-finite state")
            ts.append(t)
            ys.append(y.copy())
            F = None
            J = None
        else:
            rejections += 1
            if h_try <= h_min * (1 + 1e-12):
                return finish(False, "step size underflow")
        h = h_next
    return finish(True, "completed")


def integrate_fixed(y0, t0, t_final, n_steps, problem, krylov_tol=1.0e-12,
                    m_max=128):
    """n_steps equal EPI3V steps; controller bypassed. Returns the final state."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (t_final - t0) / n_steps
    y = np.asarray(y0, dtype=float).copy()
    for _ in range(n_steps):
        F = problem.f(y)
        J = problem.jac(y)
        y, _, _ = epi3v_step(y, h, F, J, problem, krylov_tol=krylov_tol,
                             m_max=m_max)
    return y


def integrate_mechanism(state0, mech, t_final, cfg, t0=0.0, output_times=None,
                        convention="divide", step_hook=None):
    """integrate_adaptive() on a chemical mechanism from a ThermoState."""
    state0.validate(check_sum=True)
    telemetry = RateTelemetry()
    problem = problem_from_mechanism(mech, state0.p, convention, telemetry)
    out = integrate_adaptive(state0.to_vector(), t0, t_final, problem, cfg,
                             output_times=output_times, step_hook=step_hook)
    out.telemetry = telemetry
    return out
