"""Acceptance gate: one test per headline requirement, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the report lines.

NOTE on the logistic order test: the scheme's h^4 local error term is
(1/72) h^4 f'''(F, F, F), a third-derivative tensor contraction (the
f''(F, J F) term cancels through the stage time 3/4). It vanishes for any
quadratic right-hand side, so y' = y (1 - y) posed in y superconverges at
global order four; test_integrator.py::TestFixedOrder::
test_global_order_four_on_quadratic pins that case. The acceptance test
therefore poses the same logistic trajectory in u = ln y, where the
right-hand side 1 - exp(u) has a nonzero third derivative and the
third-order slope shows.
"""
import math
import shutil
import time

import numpy as np
import pytest

from conftest import FIXTURE_DIR
from expkin.cli import EXIT_OK, main as cli_main, spectrum_bounds
from expkin.integrator import (
    OdeProblem, controller_update, epi3v_step, integrate_mechanism,
    problem_from_mechanism,
)
from expkin.kinetics import ThermoState
from expkin.mechio import MechIoError, parse_mechanism, serialize_mechanism
from expkin.phikrylov import dense_phi_oracle, expm, kiops_eval
from oracles import integrate_fixed, phi_mp, phi_scalar, read_csv


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def toy_mech():
    return parse_mechanism((FIXTURE_DIR / "toy3.mech").read_text())


@pytest.fixture(scope="module")
def toy_run(toy_mech):
    """One adaptive toy-ignition run at (atol, rtol) = (1e-10, 1e-8)."""
    state0 = ThermoState(T=1000.0, p=101325.0, Y=np.array([0.1, 0.0, 0.9]))
    traj = []
    out = integrate_mechanism(state0, toy_mech, 0.3, atol=1e-10, rtol=1e-8,
                              step_hook=lambda rec, y, J: traj.append(
                                  (rec.t, rec.accepted, y.copy())))
    assert out.success
    return out, traj


def test_phi_scalar_oracle():
    """phi_k values match a 40-digit reference to 1e-12 relative."""
    start = time.perf_counter()
    zs = [0.0]
    for mag in (1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.4999, 0.5001, 1.0, 5.0,
                25.0, 100.0, 690.0):
        zs += [mag, -mag]
    worst = 0.0
    for k in range(4):
        for z in zs:
            got = phi_scalar(k, z)
            want = 1.0 / math.factorial(k) if z == 0.0 else phi_mp(k, z)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    report("phi scalar vs high-precision oracle", worst <= 1e-12,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_kiops_matches_dense_oracle():
    """50 random matrices, n in {20, 50, 100}, rel err <= 1e-8 at tol 1e-10."""
    start = time.perf_counter()
    rng = np.random.default_rng(987654321)
    worst = 0.0
    for i in range(50):
        n = int(rng.choice([20, 50, 100]))
        # Stable spectrum in [-1e4, 0], with conjugate pairs up to +-100i
        # realized as 2x2 rotation blocks before the orthogonal similarity.
        re = -(10.0 ** rng.uniform(0, 4)) * rng.random(n)
        A = np.zeros((n, n))
        j = 0
        while j < n:
            if j + 1 < n and rng.random() < 0.5:
                w = rng.uniform(0.0, 100.0)
                A[j:j + 2, j:j + 2] = [[re[j], w], [-w, re[j]]]
                j += 2
            else:
                A[j, j] = re[j]
                j += 1
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = Q @ A @ Q.T
        p = int(rng.integers(1, 4))
        bs = [rng.standard_normal(n) if rng.random() < 0.8 else None
              for _ in range(p + 1)]
        if all(b is None for b in bs):
            bs[1] = rng.standard_normal(n)
        got = kiops_eval(A, bs, tol=1e-10).values[0]
        want = dense_phi_oracle(A, bs)
        scale = max(np.linalg.norm(want), 1e-300)
        worst = max(worst, np.linalg.norm(got - want) / scale)
    elapsed = time.perf_counter() - start
    report("kiops vs dense augmented oracle",
           worst <= 1e-8 and elapsed < 60.0,
           f"worst rel err {worst:.2e} over 50 matrices, {elapsed:.1f}s")


def test_linear_problem_exactness():
    """On f = M y a single step reproduces expm(hM) y0 to 1e-8."""
    rng = np.random.default_rng(24680)
    worst = 0.0
    for _ in range(20):
        M = rng.standard_normal((30, 30)) / np.sqrt(30)
        M -= (np.max(np.linalg.eigvals(M).real) + 0.01) * np.eye(30)  # stable
        y0 = rng.standard_normal(30)
        prob = OdeProblem(f=lambda y, M=M: M @ y,
                          jac=lambda y, M=M: (M @ y, M))
        for h in (1e-3, 1.0, 10.0):
            y1, _, _ = epi3v_step(y0, h, M @ y0, M, prob, np.ones(30),
                                  krylov_tol=1e-12)
            want = expm(h * M) @ y0
            worst = max(worst, np.linalg.norm(y1 - want)
                        / max(np.linalg.norm(want), 1e-300))
    report("linear-problem exactness", worst <= 1e-8,
           f"worst rel err {worst:.2e} over 20 matrices x 3 step sizes")


def test_order_verification_logistic():
    """Third-order slope on the logistic equation posed in u = ln y.

    u' = 1 - exp(u), u(0) = ln 0.1, is the trajectory of y' = y (1 - y),
    y(0) = 0.1. Its right-hand side is not polynomial, so its third
    derivative does not vanish; in y the RHS is quadratic and the method
    superconverges (see the module docstring). The error is measured
    against the closed-form solution u(2) = ln(1 / (1 + 9 exp(-2))).
    """
    prob = OdeProblem(f=lambda u: 1.0 - np.exp(u),
                      jac=lambda u: (1.0 - np.exp(u), np.diag(-np.exp(u))))
    u0 = np.array([math.log(0.1)])
    exact = math.log(1.0 / (1.0 + 9.0 * math.exp(-2.0)))
    ns = np.array([8, 16, 32, 64, 128])
    errs = np.array([abs(integrate_fixed(u0, 0.0, 2.0, int(n), prob,
                                         krylov_tol=1e-14)[0] - exact)
                     for n in ns])
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    report("order verification (logistic)", 2.7 <= slope <= 3.3,
           f"fitted slope {slope:.2f}")


# State on the toy ignition trajectory at t ~= 0.05 (from a spun-up adaptive
# run), safely away from the Y = 0 clamp kink of the radical species.
TOY_SPUN_UP = np.array([1.00010093e3, 9.99915888e-2, 8.41116796e-6, 0.9])


def test_order_verification_toy_mechanism(toy_mech):
    """Fixed-step self-convergence on the toy ignition transient."""
    start = time.perf_counter()
    prob = problem_from_mechanism(toy_mech, 101325.0)
    span = (0.0, 0.12)   # maps to t in [0.05, 0.17] of the original run
    ref = integrate_fixed(TOY_SPUN_UP, *span, 2 ** 13, prob, krylov_tol=1e-12)
    ns = np.array([2 ** k for k in range(7, 12)])
    errs = np.array([np.linalg.norm(
        integrate_fixed(TOY_SPUN_UP, *span, int(n), prob, krylov_tol=1e-12) - ref)
        for n in ns])
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    elapsed = time.perf_counter() - start
    report("order verification (toy mechanism)", 2.7 <= slope <= 3.3,
           f"fitted slope {slope:.2f}, {elapsed:.1f}s")


def test_mass_conservation(toy_run, toy_mech):
    """Mass-fraction sum drift <= 1e-8; per-step RHS residual <= 1e-10."""
    from expkin.kinetics import rhs_vector
    out, traj = toy_run
    drifts = [abs(y[1:].sum() - 1.0) for _, accepted, y in traj if accepted]
    drifts.append(abs(out.y[1:].sum() - 1.0))
    worst = max(drifts)
    # The species derivatives must sum to zero (relative to their largest
    # component) at every accepted state.
    residual = 0.0
    for _, accepted, y in traj:
        if not accepted:
            continue
        dy = rhs_vector(y, toy_mech, 101325.0)
        residual = max(residual,
                       abs(dy[1:].sum()) / max(np.abs(dy[1:]).max(), 1e-300))
    report("mass conservation", worst <= 1e-8 and residual <= 1e-10,
           f"max |sum Y - 1| = {worst:.2e}, max rhs residual {residual:.2e}")


def test_ignition_qualitative(toy_run):
    """Temperature rises to a plateau, fuel burns out, steps contract."""
    out, traj = toy_run
    T_final = out.y[0]
    fuel_final = out.y[1]
    accepted = out.accepted_records
    hs = np.array([r.h for r in accepted])
    ts = np.array([r.t for r in accepted])
    # Step contraction: smallest step inside the transient vs the pre-burn
    # cruise step size.
    cruise = hs[(ts > 0.05) & (ts < 0.15)].max()
    dip = hs[ts > 0.15].min()
    contraction = cruise / dip
    ok = (T_final > 2000.0
          and abs(fuel_final) < 1e-3 * 0.1
          and contraction >= 10.0)
    report("ignition qualitative behavior", ok,
           f"T_final {T_final:.0f} K, fuel {fuel_final:.1e}, "
           f"step contraction {contraction:.0f}x")


def test_tolerance_sweep_self_consistency(tmp_path):
    """Sweep errors shrink with tolerance; the reference reproduces itself."""
    start = time.perf_counter()
    shutil.copy(FIXTURE_DIR / "toy3.mech", tmp_path / "toy3.mech")
    cfg_text = (FIXTURE_DIR / "toy_sweep.cfg").read_text()
    # Duplicate the reference pair as a final sweep point: its error vs the
    # reference march must vanish.
    cfg_text += "sweep 1e-13 1e-11\n"
    (tmp_path / "sweep.cfg").write_text(cfg_text)
    rc = cli_main(["sweep", "--config", str(tmp_path / "sweep.cfg"),
                   "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    errs = np.array([r[3] for r in rows])
    ladder = errs[:-1]
    inversions = int(np.sum(np.diff(ladder) > 0))
    decades = np.log10(ladder.max() / ladder.min())
    self_err = errs[-1]
    elapsed = time.perf_counter() - start
    ok = (not np.any(np.isnan(errs)) and inversions <= 1
          and decades >= 3.0 and self_err <= 1e-12)
    report("tolerance sweep self-consistency", ok,
           f"{len(ladder)} points, {decades:.1f} decades, "
           f"{inversions} inversions, self err {self_err:.1e}, {elapsed:.0f}s")


def test_spectrum_statistics():
    """Rectangle statistics and the LAPACK eigensolver on known spectra."""
    alpha, beta, omega, _ = spectrum_bounds([-1.0, -4.0, -2.0 + 2.0j, -2.0 - 2.0j])
    rect_ok = (alpha == pytest.approx(3.0) and beta == pytest.approx(4.0)
               and omega == pytest.approx(12.0))
    rng = np.random.default_rng(1357)
    worst = 0.0
    for _ in range(10):
        lam = np.sort(rng.uniform(-1e4, -1.0, 25))
        S = rng.standard_normal((25, 25)) + 4.0 * np.eye(25)
        A = S @ np.diag(lam) @ np.linalg.inv(S)
        got = np.sort(np.linalg.eigvals(A).real)
        worst = max(worst, np.abs((got - lam) / lam).max())
        # The rectangle of the eigensolver's list spans the same real
        # eigenvalues.
        alpha, _, _, max_real = spectrum_bounds(np.linalg.eigvals(A))
        rect_ok = rect_ok and (max_real == pytest.approx(lam[-1], rel=1e-8)
                               and alpha == pytest.approx(lam[-1] - lam[0], rel=1e-8))
    report("spectrum statistics", rect_ok and worst <= 1e-8,
           f"rectangle exact, eigensolver worst rel err {worst:.2e}")


def test_controller_behavior():
    """Pinned controller decisions."""
    checks = []
    a, h = controller_update(1.0, 1.0)
    checks.append(a and h == pytest.approx(0.9))
    a, h = controller_update(8.0, 1.0)
    checks.append(not a and h == pytest.approx(0.45))
    a, h = controller_update(1e-9, 1.0)
    checks.append(a and h == pytest.approx(5.0))          # facmax clamp
    a, h = controller_update(1e9, 1.0)
    checks.append(not a and h == pytest.approx(0.1))      # facmin clamp
    a, h = controller_update(float("inf"), 1.0)
    checks.append(not a and h == pytest.approx(0.1))
    report("controller behavior", all(checks),
           f"{sum(checks)}/{len(checks)} pinned decisions")


def test_parser_robustness():
    """10k random mutations never escape MechIoError; round trips are exact."""
    start = time.perf_counter()
    base = serialize_mechanism(
        parse_mechanism((FIXTURE_DIR / "toy3.mech").read_text()))
    rng = np.random.default_rng(11223344)
    charset = list("abqFXB0123456789.+-=<>[]# \te")
    crashes = 0
    for _ in range(10_000):
        text = list(base)
        for _ in range(int(rng.integers(1, 4))):
            op = int(rng.integers(3))
            pos = int(rng.integers(len(text)))
            if op == 0:
                text[pos] = str(rng.choice(charset))
            elif op == 1:
                text.insert(pos, str(rng.choice(charset)))
            elif text:
                del text[pos]
        try:
            parse_mechanism("".join(text))
        except MechIoError:
            pass
        except Exception:
            crashes += 1
    from conftest import random_balanced_mechanism
    bad_round_trips = 0
    for _ in range(100):
        mech = random_balanced_mechanism(rng)
        if parse_mechanism(serialize_mechanism(mech)) != mech:
            bad_round_trips += 1
    elapsed = time.perf_counter() - start
    report("parser robustness", crashes == 0 and bad_round_trips == 0,
           f"0 crashes in 10k mutations, {bad_round_trips} bad round trips, "
           f"{elapsed:.0f}s")
