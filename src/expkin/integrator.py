"""Third-order adaptive exponential integrator (EPI3V) with an embedded
exponential-Euler error estimate.

One step with step size h, F = F(y_n), J = J(y_n):

    Y1      = y_n + phi_1(3/4 h J) h F
    R(z)    = f(z) - F - J (z - y_n)
    y_{n+1} = y_n + phi_1(h J) h F + phi_3(h J) 2 h R(Y1)

The phi_3 term is also the local truncation error estimate (the difference
to the embedded exponential-Euler step y_n + h phi_1(h J) F). Every phi
evaluation is posed on D h J D^-1, D = diag(1/weights) of the error
weights in powers of two, and unscaled. On a small state
(n + MAX_PHI_ORDER <= DENSE_PHI_MAX) an attempt takes the phi_1 and phi_3
matrices at T = 3/4 and 1 from one dense exponential
(`phikrylov.phi_blocks`) and does no Krylov work. On a larger state it uses
exactly two weighted Krylov evaluations: one for phi_1 at time points
{3/4, 1}, one for the phi_3 term. Each starts from the basis size that the
previous call of its kind in the same run passed on (`kiops_eval`'s
`m_next`; the run's first calls start at `phikrylov.M_INIT`).

F and J come from one call, `OdeProblem.jac(y_n)`, which for a mechanism is
one kinetics pass per new state; rejected attempts reuse them. Each attempt
evaluates f once, at the stage value Y1. An attempt that passes the error
test also linearises the state it produced, so a state the next step cannot
evaluate is a rejection, not the end of the run.
"""
from __future__ import annotations

import functools
import math
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
    """Krylov tolerance of the phi evaluations: 0.01 * rtol, floored at 1e-14.

    `kiops_eval` holds each substep's error below this fraction of beta, the
    norm of its start vector; the integrator's calls start from the
    weighted vector D b (`_phi_products`), so the budget is relative to
    the weighted size of b, in the controller's units up to the constant
    scale of D."""
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


# log2 of the largest ratio of two entries of the balancing D: a wider
# spread makes D A D^-1 so far from normal that squaring it loses the
# weighted accuracy (on toy3 states at atol 1e-20, a spread of 2^40 left the
# products 2e-3 off in the weighted norm).
BALANCE_SPREAD = 20
# The largest n + MAX_PHI_ORDER whose phi products come from the dense
# `phikrylov.phi_blocks`; a larger state makes two Krylov calls.
DENSE_PHI_MAX = 10


@functools.lru_cache(maxsize=64)
def _balancing(exponents):
    """(d[:, None], d, 1/d) for error weights whose binary exponents
    (`np.frexp(weights)[1]`) have the bytes `exponents`, all read-only:
    d ~ 1/weights in powers of two, normalised to at most 1 and clipped at
    2^-BALANCE_SPREAD. D A D^-1 then exceeds A by at most 2^BALANCE_SPREAD
    entrywise and D v never exceeds v, for any positive weights."""
    e = np.frombuffer(exponents, dtype=np.intc)
    k = np.maximum(e.min() - e, -BALANCE_SPREAD)
    d, d_inv = np.ldexp(1.0, k), np.ldexp(1.0, -k)
    d.flags.writeable = d_inv.flags.writeable = False
    return d[:, None], d, d_inv


def _phi_products(A, hF, weights, krylov_tol, stats, basis_sizes=None):
    """(w34, w1, phi3) of an attempt with A = h J: T phi_1(T A) hF at T = 3/4
    and T = 1, and the map v -> phi_3(A) v.

    Both branches evaluate phi on D A D^-1 and D b, with D = diag(1/weights)
    rounded to powers of two and its spread clipped (`_balancing`, cached on
    the weights' binary exponents, which change at 10 of a toy3 run's 1,439
    attempts), and unscale the results; scaling by a power of two is exact.
    The similarity is exact too, so it leaves the phi values unchanged; it
    balances the matrix (T beside mass fractions spans many decades), which
    keeps the exponentials' norms and squarings low, and it poses the Krylov
    error in the controller's weighted norm (Brown & Hindmarsh, Appl. Math.
    Comput. 31, 1989). A small state (n + MAX_PHI_ORDER <= DENSE_PHI_MAX)
    takes the products from the `phikrylov.phi_blocks` of D A D^-1 and
    counts no work. A larger state makes two weighted Krylov evaluations,
    each counted into `stats` as it begins, so a call that raises has been
    counted. `basis_sizes` maps p = 1 and 3 to the first basis size of the
    phi_p call (`phikrylov.M_INIT` for a p it lacks), and takes the size
    that call passes on.
    """
    n = len(hF)
    d_col, d, d_inv = _balancing(np.frexp(weights)[1].tobytes())
    DAD = A * d_col
    DAD *= d_inv
    if n + phikrylov.MAX_PHI_ORDER <= DENSE_PHI_MAX:
        # [T phi_1 | T^2 phi_2 | T^3 phi_3](T D A D^-1) at T = 3/4 and 1.
        P = phikrylov.phi_blocks(DAD, (0.75, 1.0))
        w34, w1 = P[:, :, :n] @ (d * hF) * d_inv

        def phi3(v):
            return P[1, :, 2 * n:] @ (d * v) * d_inv
        return w34, w1, phi3

    if basis_sizes is None:
        basis_sizes = {}

    def phi(b, p, time_points):
        stats.calls += 1
        res = phikrylov.kiops_eval(DAD, [None] * p + [d * b],
                                   time_points=time_points, tol=krylov_tol,
                                   m_init=basis_sizes.get(p))
        basis_sizes[p] = res.m_next
        stats.add_work(res.stats)
        return [v * d_inv for v in res.values]

    # Call 1: phi_1(T A) hF at T = 3/4 and T = 1, one Krylov process.
    w34, w1 = phi(hF, 1, (0.75, 1.0))

    def phi3(v):
        # Call 2: phi_3(A) v.
        return phi(v, 3, (1.0,))[0]
    return w34, w1, phi3


def epi3v_step(y, h, F, J, problem, weights, krylov_tol=1.0e-12, stats=None,
               basis_sizes=None):
    """One EPI3V step. Returns (y_new, lte, stats).

    `weights` are the error weights atol + rtol |y| of the state y; every
    phi evaluation, dense or Krylov, is balanced by them (`_phi_products`).
    A larger state's two Krylov evaluations are counted into `stats` (a new
    PhiStats when None), start from the sizes in `basis_sizes` and leave
    there the sizes they pass on (see `_phi_products`).
    """
    stats = PhiStats() if stats is None else stats
    w34, w1, phi3 = _phi_products(h * J, h * F, weights, krylov_tol, stats,
                                  basis_sizes)
    # w(3/4) carries the leading factor T = 3/4 of the evaluation convention.
    Y1 = y + w34 / 0.75
    r = problem.f(Y1) - F - J @ (Y1 - y)
    # phi_3(h J) 2 h R(Y1); this vector is also the LTE estimate.
    lte = phi3(2.0 * h * r)
    return y + w1 + lte, lte, stats


def scaled_error_norm(lte, weights):
    """RMS of lte components scaled by the error weights atol + rtol |y|.
    An overflow gives inf, which the controller treats as a rejection."""
    q = lte / weights
    q *= q
    # sum / size: the bits of np.mean without its dispatch; both square
    # roots are correctly rounded.
    return math.sqrt(float(np.add.reduce(q)) / q.size)


def controller_update(err_scaled, h_old, h_min=0.0):
    """Accept/reject decision and the next step size (Wanner-style I controller)."""
    if not math.isfinite(err_scaled):
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


@np.errstate(over="ignore", invalid="ignore")
def integrate_adaptive(y0, t0, t_final, problem, *, atol, rtol, h0=None,
                       output_times=None, step_hook=None):
    """March EPI3V with the adaptive controller from t0 to t_final.

    F and J come from one `problem.jac` call per new state, and rejected
    attempts reuse them; each attempt calls `problem.f` once, at the stage
    value Y1. An attempt that passes the error test, other than the last,
    also evaluates `problem.jac` at its new state for the next step; a
    failure there rejects the attempt (err_est = inf). The final step is
    truncated to land exactly on t_final. Every attempt is logged and passed
    to `step_hook`, including one whose evaluation failed. The run carries
    the first basis size of its next phi_1 and phi_3 Krylov calls from
    attempt to attempt, starting at `phikrylov.M_INIT` (see `epi3v_step`);
    a new run starts afresh, so repeated runs do the same work.

    `atol` and `rtol` weight the error estimate; `h0` is the first step size
    (default 1e-10 of the interval). All three must be positive and finite,
    and t0, t_final and y0 finite, or a ValueError is raised.

    The march runs with numpy's overflow and invalid-operation warnings off,
    set once for the run: such a value shows as an operator or vector whose
    1-norm is not finite (PhiConvergenceError), a state the kinetics
    refuses (KineticsError) or a non-finite error estimate, and each fails
    its attempt.
    """
    if not (t_final > t0):
        raise ValueError("t_final must exceed t0")
    # Written so that a NaN fails too: with h0 = NaN every step size is NaN
    # and the march would never end.
    if h0 is not None and not 0 < h0 < math.inf:
        raise ValueError("h0 must be positive and finite")
    if not (0 < atol < math.inf and 0 < rtol < math.inf):
        raise ValueError("atol and rtol must be positive and finite")
    span = t_final - t0
    if not math.isfinite(span):
        raise ValueError("t0 and t_final must be finite")
    h_min = H_MIN_FRACTION * span
    h = h0 if h0 is not None else 1.0e-10 * span
    h = max(h, h_min)
    ktol = krylov_tolerance(rtol)
    basis_sizes = dict.fromkeys((1, 3), phikrylov.M_INIT)

    t = t0
    y = np.asarray(y0, dtype=float).copy()
    if not np.isfinite(y).all():
        raise ValueError("y0 must be finite")
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
        weights = atol + rtol * np.abs(y)
        kstats = PhiStats()
        failure = ""
        F_new = J_new = None
        try:
            y_new, lte, _ = epi3v_step(y, h_try, F, J, problem, weights,
                                       krylov_tol=ktol, stats=kstats,
                                       basis_sizes=basis_sizes)
            err = scaled_error_norm(lte, weights)
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
            # An inf or NaN entry makes the sum inf or NaN, so only such a
            # sum (or one that overflowed) is scanned entry by entry. The
            # check stays for every problem: its jac need validate nothing.
            if (not math.isfinite(np.add.reduce(y))
                    and not np.isfinite(y).all()):
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
