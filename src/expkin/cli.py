"""Command-line harness: single runs, tolerance sweeps, spectrum analysis.

Exit codes: 0 success, 2 config/parse error, 3 solver failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import fields
from operator import attrgetter

import numpy as np

from . import mechio
from .integrator import StepRecord, integrate_mechanism
from .kinetics import EXP_ARG_MAX, ThermoState
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
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc}", EXIT_CONFIG)


def _write_csv(path, header, rows):
    """mechio.write_csv, with a file that cannot be written an I/O error."""
    try:
        mechio.write_csv(path, header, rows)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


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
    try:
        return run_cfg, mech, _initial_state(run_cfg, mech)
    except MechIoError as exc:
        raise CliError(f"config error: {exc}", EXIT_CONFIG)


def _initial_state(run_cfg, mech):
    """The config's initial state on the mechanism; refuses a Y species the
    mechanism lacks and a T0 outside a species' thermo range."""
    Y = np.zeros(mech.n_species)
    for name, frac in run_cfg.Y0.items():
        try:
            Y[mech.species_index(name)] = frac
        except KeyError:
            raise MechIoError("UnknownSpecies",
                              f"species {name!r} not in mechanism") from None
    for s in mech.species:
        if not s.t_low <= run_cfg.T0 <= s.t_high:
            raise MechIoError("BadConfigValue",
                              f"T0 {run_cfg.T0} K outside thermo range "
                              f"[{s.t_low}, {s.t_high}] of species {s.name!r}")
    return ThermoState(T=run_cfg.T0, Y=Y, p=run_cfg.pressure)


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
    result = integrate_mechanism(state0, mech, run_cfg.t_final,
                                 atol=run_cfg.atol, rtol=run_cfg.rtol,
                                 h0=run_cfg.h0, output_times=sample_times)
    _warn_saturated([result])
    _write_csv(os.path.join(out_dir, "solution.csv"),
               ["t", "T"] + [f"Y_{s.name}" for s in mech.species],
               np.column_stack((sample_times, result.samples)).tolist())
    # One row per StepRecord: the tuple of its fields, `accepted` as 0/1.
    columns = [f.name for f in fields(StepRecord)]
    flag = columns.index("accepted")
    _write_csv(os.path.join(out_dir, "steps.csv"), columns,
               [row[:flag] + (int(row[flag]),) + row[flag + 1:]
                for row in map(attrgetter(*columns), result.records)])
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
    ref = integrate_mechanism(state0, mech, run_cfg.t_final, atol=ref_atol,
                              rtol=ref_rtol, h0=run_cfg.h0)
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
        res = integrate_mechanism(state0, mech, run_cfg.t_final, atol=atol,
                                  rtol=rtol, h0=run_cfg.h0)
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
    _write_csv(os.path.join(out_dir, "sweep.csv"),
               ("atol", "rtol", "cpu_s", "err_2norm", "err_scaled", "failed"),
               rows)
    print(f"sweep complete: {len(rows)} points")
    return EXIT_OK


def spectrum_bounds(eigs):
    """Bounding rectangle of an eigenvalue list in the complex plane:
    (alpha, beta, omega, max_real) with real spread alpha, imaginary spread
    beta and area omega = alpha * beta. An empty list raises ValueError."""
    eigs = np.asarray(eigs, dtype=complex)
    alpha = float(np.ptp(eigs.real))
    beta = float(np.ptp(eigs.imag))
    return alpha, beta, alpha * beta, float(eigs.real.max())


def cmd_spectrum(args):
    run_cfg, mech, state0 = load_run(args)
    out_dir = _out_dir(args)
    rows = []

    def hook(record, y, J):
        if not record.accepted:
            return
        try:
            bounds = spectrum_bounds(np.linalg.eigvals(J))
        except np.linalg.LinAlgError:
            bounds = (float("nan"),) * 4
        rows.append((record.t, *bounds, record.cpu_ns * 1e-9 / record.h))

    result = integrate_mechanism(state0, mech, run_cfg.t_final,
                                 atol=run_cfg.atol, rtol=run_cfg.rtol,
                                 h0=run_cfg.h0, step_hook=hook)
    _warn_saturated([result])
    _write_csv(os.path.join(out_dir, "spectrum.csv"),
               ("t", "alpha", "beta", "omega", "max_real", "norm_step_cost"),
               rows)
    if not result.success:
        print(f"solver failure: {result.message}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"spectrum complete: {len(rows)} rows")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and building it costs more than a parse."""
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
