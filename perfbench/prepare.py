"""Make a workload's inputs and its independent reference solution.

    python3 perfbench/prepare.py --workload gen53-ignition --seed 3

writes into perfbench/.work/inputs/<workload>-<seed>/:

- for gen53-ignition, the generated `gen53.mech` and `gen53.cfg`;
- `reference.npz`: scipy `solve_ivp(method="Radau")` on `kinetics.rhs_vector`
  at the config's output times, with tolerances REFERENCE_TIGHTENING times the
  config's;
- `spec.json`: what the runner needs (CLI command, config path, weights).

Everything is cached: a directory whose spec matches is reused. The runner
calls this script in a child process before any timing, so scipy is never
loaded into the measured process.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import workloads as wl

sys.path.insert(0, str(wl.SRC))

from scipy.integrate import solve_ivp  # noqa: E402

from expkin import cli, mechio  # noqa: E402
from expkin.kinetics import TYPICAL_T, TYPICAL_Y, rhs_vector  # noqa: E402

import mechgen  # noqa: E402

SPEC_VERSION = 3
SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


def _physical_rhs(mech, pressure):
    """rhs_vector on the state with negative mass fractions read as 0.

    Radau's Newton iterates may dip below 0 where the true solution is 0;
    rhs_vector rejects such states, and the clipped extension is smooth
    enough for the reference.
    """
    def f(t, y):
        z = y.copy()
        np.maximum(z[1:], 0.0, out=z[1:])
        return rhs_vector(z, mech, pressure)
    return f


def _forward_jacobian(f, n):
    typical = np.concatenate(([TYPICAL_T], np.full(n - 1, TYPICAL_Y)))

    def jac(t, y):
        f0 = f(t, y)
        J = np.empty((n, n))
        for j in range(n):
            delta = SQRT_EPS * max(abs(y[j]), typical[j])
            yp = y.copy()
            yp[j] += delta
            J[:, j] = (f(t, yp) - f0) / delta
        return J
    return jac


def radau(mech, pressure, y0, t_end, rtol, atol, t_eval=None, events=None):
    f = _physical_rhs(mech, pressure)
    sol = solve_ivp(f, (0.0, t_end), y0, method="Radau", t_eval=t_eval,
                    rtol=rtol, atol=atol, jac=_forward_jacobian(f, y0.size),
                    events=events)
    if sol.status < 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol


def ignition_window(mech, seed):
    """Initial state and length of gen53's ignition window, from the cold state.

    A loose Radau run from GEN_T0 finds the times t_a, t_b at which the
    temperature has risen by GEN_WINDOW_DT; the window starts from the state
    at t_a and lasts t_b - t_a.
    """
    Y = np.zeros(mech.n_species)
    for name, frac in mechgen.initial_mass_fractions(mech).items():
        Y[mech.species_index(name)] = frac
    y0 = np.concatenate(([wl.GEN_T0], Y))

    def rise(dt):
        def event(t, y):
            return y[0] - (wl.GEN_T0 + dt)
        event.direction = 1.0
        return event
    opens, closes = rise(wl.GEN_WINDOW_DT[0]), rise(wl.GEN_WINDOW_DT[1])
    closes.terminal = True
    # Only the window's start state and length come from this run; the
    # reference itself starts from the written config.
    sol = radau(mech, wl.GEN_PRESSURE, y0, 1.0, rtol=1e-3, atol=1e-9,
                events=[opens, closes])
    if sol.status != 1:
        raise RuntimeError(f"generated mechanism (seed {seed}) does not ignite "
                           "within 1 s")
    (t_a,), (t_b,) = sol.t_events
    (y_a,), _ = sol.y_events
    Y_a = np.maximum(y_a[1:], 0.0)
    return float(y_a[0]), Y_a / Y_a.sum(), float(t_b - t_a)


def write_generated(out, seed):
    """gen53.mech and gen53.cfg for one seed; returns the config path."""
    network = mechgen.generate_mechanism(wl.GEN_SPECIES, wl.GEN_NETWORK_SEED)
    mech = mechgen.perturb_rates(network, seed, wl.GEN_RATE_SPREAD)
    text = mechio.serialize_mechanism(mech)
    if mechio.parse_mechanism(text) != mech:
        raise RuntimeError("serialized mechanism does not parse back to itself")
    T0, Y, t_final = ignition_window(mech, seed)
    lines = [
        f"# {wl.GENERATED}, seed {seed}: network {wl.GEN_NETWORK_SEED} with "
        f"K = {mech.n_species}, {mech.n_reactions} reactions; window from "
        f"T0 + {wl.GEN_WINDOW_DT[0]:g} K to T0 + {wl.GEN_WINDOW_DT[1]:g} K of the "
        f"ignition from {wl.GEN_T0:g} K",
        "mechanism gen53.mech",
        f"T0 {T0!r}",
        f"pressure {wl.GEN_PRESSURE!r}",
        *(f"Y {s.name} {float(y)!r}" for s, y in zip(mech.species, Y) if y > 0.0),
        f"t_final {t_final!r}",
        f"h0 {t_final * wl.GEN_H0_FRACTION!r}",
        f"atol {wl.GEN_ATOL!r}",
        f"rtol {wl.GEN_RTOL!r}",
        "method epi3v",
    ]
    (out / "gen53.mech").write_text(text)
    cfg = out / "gen53.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def prepare(workload, seed):
    """Create (or reuse) the inputs and reference of one workload and seed."""
    out = wl.input_dir(workload, seed)
    spec_path = out / "spec.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        if spec.get("version") == SPEC_VERSION:
            return spec
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    if workload == wl.GENERATED:
        command, config = "run", write_generated(out, seed)
    else:
        command, config = wl.TOY_CONFIGS[workload]
    args = argparse.Namespace(config=str(config), mech=None, clamp_mode=None,
                              reverse_rate_convention=None)
    run_cfg, mech, state0 = cli.load_run(args)
    t_eval = np.linspace(0.0, run_cfg.t_final, run_cfg.n_output_samples)
    sol = radau(mech, state0.p, state0.to_vector(), run_cfg.t_final,
                rtol=run_cfg.rtol * wl.REFERENCE_TIGHTENING,
                atol=run_cfg.atol * wl.REFERENCE_TIGHTENING, t_eval=t_eval)
    np.savez(out / "reference.npz", t=sol.t, y=sol.y.T)
    spec = {
        "version": SPEC_VERSION,
        "workload": workload,
        "seed": seed,
        "command": command,
        "config": str(config.relative_to(wl.ROOT)),
        "n_species": mech.n_species,
        "n_reactions": mech.n_reactions,
        "n_samples": run_cfg.n_output_samples,
        "t_final": run_cfg.t_final,
        "atol": run_cfg.atol,
        "rtol": run_cfg.rtol,
        "sweep_points": run_cfg.sweep_points,
        "reference_tols": run_cfg.reference_tols,
        "prepare_s": time.perf_counter() - start,
    }
    # Written last, so an interrupted preparation is redone.
    spec_path.write_text(json.dumps(spec, indent=1))
    return spec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    prepare(args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
