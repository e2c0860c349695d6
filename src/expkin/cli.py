"""Command-line harness: single runs, tolerance sweeps, spectrum analysis.

Exit codes: 0 success, 2 config/parse error, 3 solver failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import diagnostics, mechio
from .integrator import StepRecord, integrate_mechanism
from .kinetics import EXP_ARG_MAX, KineticsError, ThermoState
from .mechio import MechIoError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class CliError(Exception):
    def __init__(self, message, exit_code):
        self.exit_code = exit_code
        super().__init__(message)


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO)


def load_run(args):
    """Parse config + mechanism and build the initial state."""
    cfg_text = _read_text(args.config)
    try:
        run_cfg = mechio.parse_config(cfg_text)
    except MechIoError as exc:
        raise CliError(f"config error: {exc}", EXIT_CONFIG)
    mech_path = os.path.join(os.path.dirname(os.path.abspath(args.config)),
                             run_cfg.mechanism)
    try:
        mech = mechio.parse_mechanism(_read_text(mech_path))
    except MechIoError as exc:
        raise CliError(f"mechanism error: {exc}", EXIT_CONFIG)
    Y = np.zeros(mech.n_species)
    try:
        for name, frac in run_cfg.Y0.items():
            Y[mech.species_index(name)] = frac
    except KeyError as exc:
        raise CliError(f"config error: species {exc} not in mechanism", EXIT_CONFIG)
    try:
        state0 = ThermoState(T=run_cfg.T0, Y=Y, p=run_cfg.pressure).validate(check_sum=True)
    except KineticsError as exc:
        raise CliError(f"config error: {exc}", EXIT_CONFIG)
    return run_cfg, mech, state0


def _out_dir(args):
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output dir {args.out}: {exc}", EXIT_IO)
    return args.out


def _warn_saturated(results):
    if any(r.telemetry.saturated for r in results):
        print(f"warning: a rate or equilibrium exponent was clamped at "
              f"±{EXP_ARG_MAX:g}", file=sys.stderr)


def cmd_validate(args):
    load_run(args)
    print("ok")
    return EXIT_OK


def cmd_run(args):
    run_cfg, mech, state0 = load_run(args)
    out_dir = _out_dir(args)
    sample_times = np.linspace(0.0, run_cfg.t_final, run_cfg.n_output_samples)
    result = integrate_mechanism(state0, mech, run_cfg.t_final, run_cfg,
                                 output_times=sample_times)
    _warn_saturated([result])
    mechio.write_csv(os.path.join(out_dir, "solution.csv"),
                     ["t", "T"] + [f"Y_{s.name}" for s in mech.species],
                     np.column_stack((sample_times, result.samples)).tolist())
    # One row per StepRecord, its fields in order, `accepted` as 0/1.
    mechio.write_csv(os.path.join(out_dir, "steps.csv"),
                     [f.name for f in fields(StepRecord)],
                     [{**vars(r), "accepted": int(r.accepted)}.values()
                      for r in result.records])
    if not result.success:
        print(f"solver failure: {result.message}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"completed: {len(result.accepted_records)} accepted steps, "
          f"T(t_final) = {result.y[0]:.2f} K")
    return EXIT_OK


def cmd_sweep(args):
    run_cfg, mech, state0 = load_run(args)
    if not run_cfg.sweep_points:
        raise CliError("config error: sweep requires 'sweep atol rtol' lines",
                       EXIT_CONFIG)
    if run_cfg.reference_tols is None:
        raise CliError("config error: sweep requires a 'reference atol rtol' line",
                       EXIT_CONFIG)
    out_dir = _out_dir(args)

    ref_atol, ref_rtol = run_cfg.reference_tols
    ref = integrate_mechanism(state0, mech, run_cfg.t_final,
                              replace(run_cfg, atol=ref_atol, rtol=ref_rtol))
    results = [ref]
    if not ref.success:
        _warn_saturated(results)
        print(f"reference run failed: {ref.message}", file=sys.stderr)
        return EXIT_SOLVER
    y_ref = ref.y
    scale = run_cfg.atol + run_cfg.rtol * np.abs(y_ref)

    def one_point(tols):
        atol, rtol = tols
        start = time.perf_counter()
        res = integrate_mechanism(state0, mech, run_cfg.t_final,
                                  replace(run_cfg, atol=atol, rtol=rtol))
        elapsed = time.perf_counter() - start
        results.append(res)
        if res.success:
            err = float(np.linalg.norm(res.y - y_ref))
            err_scaled = float(np.linalg.norm((res.y - y_ref) / scale))
        else:
            err = err_scaled = float("nan")
        return (float(atol), float(rtol), float(elapsed), err, err_scaled,
                int(not res.success))

    rows = [one_point(p) for p in run_cfg.sweep_points]
    _warn_saturated(results)
    mechio.write_csv(os.path.join(out_dir, "sweep.csv"),
                     ("atol", "rtol", "cpu_s", "err_2norm", "err_scaled", "failed"),
                     rows)
    print(f"sweep complete: {len(rows)} points")
    return EXIT_OK


def cmd_spectrum(args):
    run_cfg, mech, state0 = load_run(args)
    out_dir = _out_dir(args)
    rows = []

    def hook(record, y, J):
        if not record.accepted:
            return
        try:
            stats = diagnostics.jacobian_spectrum(J, t=record.t)
            bounds = (stats.alpha, stats.beta, stats.omega, stats.max_real)
        except np.linalg.LinAlgError:
            bounds = (float("nan"),) * 4
        rows.append((record.t, *bounds, diagnostics.normalized_step_cost(record)))

    result = integrate_mechanism(state0, mech, run_cfg.t_final, run_cfg,
                                 step_hook=hook)
    _warn_saturated([result])
    mechio.write_csv(os.path.join(out_dir, "spectrum.csv"),
                     ("t", "alpha", "beta", "omega", "max_real", "norm_step_cost"),
                     rows)
    if not result.success:
        print(f"solver failure: {result.message}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"spectrum complete: {len(rows)} rows")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="expkin",
        description="Adaptive exponential integration of zero-D reactor kinetics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep),
                     ("spectrum", cmd_spectrum), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config file")
        if name != "validate":
            p.add_argument("--out", default=".",
                           help="output directory (default: the working directory)")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
