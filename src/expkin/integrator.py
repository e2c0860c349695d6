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

F and J come from one call, `OdeProblem.jac(y_n)`, which for a mechanism is
one kinetics pass per new state; rejected attempts reuse them. Each attempt
evaluates f once, at the stage value Y1. An attempt that passes the error
test also linearises the state it produced, so a state the next step cannot
evaluate is a rejection, not the end of the run.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import phikrylov
from .kinetics import KineticsError, RateTelemetry, rhs_and_jacobian, rhs_vector
from .phikrylov import PhiConvergenceError, PhiStats


# Step-size controller constants (Hairer, Norsett & Wanner, Solving ODEs I,
# II.4). The exponent is 1/(q+1) for the embedded order q = 2.
SAFETY = 0.9
FACMIN = 0.1
FACMAX = 5.0
ERROR_EXPONENT = 1 / 3
# The step floor of the adaptive march, as a fraction of its interval: a
# rejection at the floor ends the run with a step-size underflow.
H_MIN_FRACTION = 1.0e-15


def krylov_tolerance(rtol):
    """Krylov tolerance of the phi evaluations: 0.01 * rtol, floored at 1e-14."""
    return max(0.01 * rtol, 1.0e-14)


@dataclass
class StepRecord:
    """Telemetry for one step attempt: one row of steps.csv, whose columns
    are these fields in this order."""

    t: float
    h: float
    accepted: bool
    err_est: float
    krylov_dim: int = 0
    substeps: int = 0
    matvecs: int = 0
    kiops_calls: int = 0
    cpu_ns: int = 0


@dataclass
class SolverOutput:
    success: bool
    message: str
    t: float
    y: np.ndarray
    samples: np.ndarray = None
    records: list = field(default_factory=list)
    telemetry: RateTelemetry = None

    @property
    def accepted_records(self):
        return [r for r in self.records if r.accepted]


class OdeProblem:
    """Right-hand side f(y) plus the linearisation jac(y), which returns
    (f(y), J) with J the dense Jacobian at y."""

    def __init__(self, f, jac):
        self.f = f
        self.jac = jac


def problem_from_mechanism(mech, pressure, *, telemetry=None):
    """OdeProblem over the flat [T, Y...] state vector of a mechanism,
    with the exact analytical Jacobian; jac returns (F, J) from one kinetics
    pass."""

    def f(y):
        return rhs_vector(y, mech, pressure, telemetry=telemetry)

    def jac(y):
        return rhs_and_jacobian(y, mech, pressure, telemetry=telemetry)

    return OdeProblem(f, jac)


def epi3v_step(y, h, F, J, problem, krylov_tol=1.0e-12, stats=None):
    """One EPI3V step. Returns (y_new, lte, stats).

    Both phi evaluations are counted into `stats` (a new PhiStats when None),
    each one as it begins, so a step that raises has counted the failing call.
    """
    stats = PhiStats() if stats is None else stats
    A = h * J

    def phi(bs, time_points):
        stats.calls += 1
        res = phikrylov.kiops_eval(A, bs, time_points=time_points, tol=krylov_tol)
        stats.add_work(res.stats)
        return res.values

    # Call 1: phi_1(T h J) h F at T = 3/4 and T = 1, one Krylov process.
    w34, w1 = phi([None, h * F], (0.75, 1.0))
    # w(3/4) carries the leading factor T = 3/4 of the evaluation convention.
    Y1 = y + w34 / 0.75
    r = problem.f(Y1) - F - J @ (Y1 - y)
    # Call 2: phi_3(h J) 2 h R(Y1); this vector is also the LTE estimate.
    lte, = phi([None, None, None, 2.0 * h * r], (1.0,))
    return y + w1 + lte, lte, stats


def scaled_error_norm(lte, y, atol, rtol):
    """RMS of lte components scaled by atol + rtol |y|."""
    scale = atol + rtol * np.abs(y)
    # Overflow here just yields inf, which the controller treats as a
    # rejection; no need to warn about it.
    with np.errstate(over="ignore"):
        sq = (lte / scale) ** 2
        # sum / size: the bits of np.mean without its dispatch.
        return float(np.sqrt(sq.sum() / sq.size))


def controller_update(err_scaled, h_old, h_min=0.0):
    """Accept/reject decision and the next step size (Wanner-style I controller)."""
    if not np.isfinite(err_scaled):
        return False, max(h_old * FACMIN, h_min)
    accept = err_scaled <= 1.0
    if err_scaled == 0.0:
        h_hat = h_old * FACMAX
    else:
        h_hat = h_old * SAFETY * err_scaled ** -ERROR_EXPONENT
    fac = min(FACMAX, max(FACMIN, h_hat / h_old))
    return accept, max(h_old * fac, h_min)


def _interp_samples(times, ts, ys):
    """Linear interpolation of the accepted-step trajectory; times outside
    [ts[0], ts[-1]] take the end values."""
    times = np.asarray(times, dtype=float)
    ts = np.asarray(ts)
    ys = np.asarray(ys)
    j = np.searchsorted(ts, times)
    out = ys[np.minimum(j, len(ts) - 1)]
    mid = np.flatnonzero((j > 0) & (j < len(ts)))
    j = j[mid]
    a = ((times[mid] - ts[j - 1]) / (ts[j] - ts[j - 1]))[:, None]
    out[mid] = (1 - a) * ys[j - 1] + a * ys[j]
    return out


def integrate_adaptive(y0, t0, t_final, problem, *, atol, rtol, h0=None,
                       output_times=None, step_hook=None):
    """March EPI3V with the adaptive controller from t0 to t_final.

    F and J come from one `problem.jac` call per new state, and rejected
    attempts reuse them; each attempt calls `problem.f` once, at the stage
    value Y1. An attempt that passes the error test, other than the last,
    also evaluates `problem.jac` at its new state for the next step; a
    failure there rejects the attempt (err_est = inf). The final step is
    truncated to land exactly on t_final. Every attempt is logged and passed
    to `step_hook`, including one whose evaluation failed.

    `atol` and `rtol` weight the error estimate; `h0` is the first step size
    (default 1e-10 of the interval).
    """
    if not (t_final > t0):
        raise ValueError("t_final must exceed t0")
    span = t_final - t0
    h_min = H_MIN_FRACTION * span
    h = h0 if h0 is not None else 1.0e-10 * span
    h = max(h, h_min)
    ktol = krylov_tolerance(rtol)

    t = t0
    y = np.asarray(y0, dtype=float).copy()
    records = []
    ts = [t0]
    ys = [y]
    F = None
    J = None

    def finish(success, message):
        out = SolverOutput(success=success, message=message, t=t, y=y,
                           records=records)
        if output_times is not None:
            out.samples = _interp_samples(output_times, ts, ys)
        return out

    while t < t_final:
        last = h >= t_final - t
        h_try = t_final - t if last else h
        # The attempt's time includes the F and J it evaluates: the initial
        # state's (first attempt) and those of the state it produces.
        start = time.perf_counter_ns()
        if F is None:
            try:
                F, J = problem.jac(y)
            except KineticsError as exc:
                return finish(False, f"state evaluation failed: {exc}")
        kstats = PhiStats()
        failure = ""
        F_new = J_new = None
        try:
            y_new, lte, _ = epi3v_step(y, h_try, F, J, problem,
                                       krylov_tol=ktol, stats=kstats)
            err = scaled_error_norm(lte, y, atol, rtol)
            if err <= 1.0 and not last:
                F_new, J_new = problem.jac(y_new)
        except (PhiConvergenceError, KineticsError) as exc:
            err, failure = float("inf"), f" ({exc})"
        cpu = time.perf_counter_ns() - start
        accept, h_next = controller_update(err, h_try, h_min)
        rec = StepRecord(t=t, h=h_try, accepted=accept, err_est=err,
                         krylov_dim=kstats.max_krylov_dim,
                         substeps=kstats.substeps, matvecs=kstats.matvecs,
                         kiops_calls=kstats.calls, cpu_ns=cpu)
        records.append(rec)
        if step_hook is not None:
            step_hook(rec, y, J)
        if accept:
            t = t_final if last else t + h_try
            y = y_new
            if not np.isfinite(y).all():
                return finish(False, "non-finite state")
            ts.append(t)
            ys.append(y)
            F, J = F_new, J_new
        elif h_try <= h_min * (1 + 1e-12):
            return finish(False, "step size underflow" + failure)
        h = h_next
    return finish(True, "completed")


def integrate_mechanism(state0, mech, t_final, *, atol, rtol, h0=None,
                        output_times=None, step_hook=None):
    """integrate_adaptive() from t = 0 on a chemical mechanism from a
    ThermoState. A state the kinetics cannot evaluate ends the run at once
    (see integrate_adaptive)."""
    telemetry = RateTelemetry()
    problem = problem_from_mechanism(mech, state0.p, telemetry=telemetry)
    out = integrate_adaptive(state0.to_vector(), 0.0, t_final, problem,
                             atol=atol, rtol=rtol, h0=h0,
                             output_times=output_times, step_hook=step_hook)
    out.telemetry = telemetry
    return out
