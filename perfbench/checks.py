"""Output checks: every CLI call's files and solver outputs against the reference.

Each check returns the names of the checks that failed; an empty list means
the output is correct. The accuracy figure `err_scaled` uses the workload's
own weights atol + rtol * |y_ref|, as the solver's controller does:

- run workloads: the largest RMS-scaled error over the rows of solution.csv,
  so an error in ignition timing counts;
- sweep workloads: the geometric mean over the sweep points of the RMS-scaled
  error of the final state.
"""
from __future__ import annotations

import csv
import math

import numpy as np

# Every check name a failure can carry.
CHECKS = ("solver_success", "solution_columns", "solution_rows", "finite",
          "mass_sum", "accuracy", "steps_rows", "sweep_rows", "sweep_errors")

# Largest error, in units of the tolerance weights, that still counts as
# correct. At seed the largest seen is about 800 (toy3-run, where linear
# interpolation onto the output grid dominates).
ERR_LIMIT = 1.0e4

# The solver conserves mass to rounding error, and linear interpolation
# between accepted steps keeps the sum.
MASS_SUM_TOL = 1.0e-8
# Relative agreement of sweep.csv's err_2norm with the captured final states.
CSV_REL_TOL = 1.0e-9


def read_table(path):
    """(header, float array of rows) of a CSV file written by the CLI."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def scaled_rms(y, y_ref, atol, rtol):
    """RMS over components of (y - y_ref) / (atol + rtol |y_ref|), per row."""
    y, y_ref = np.atleast_2d(y), np.atleast_2d(y_ref)
    return np.sqrt(np.mean(((y - y_ref) / (atol + rtol * np.abs(y_ref))) ** 2,
                           axis=1))


def check_states(states):
    """Finite values and mass fractions summing to 1 for [T, Y...] rows."""
    states = np.atleast_2d(states)
    failures = []
    if not np.all(np.isfinite(states)):
        failures.append("finite")
    elif np.max(np.abs(states[:, 1:].sum(axis=1) - 1.0)) > MASS_SUM_TOL:
        failures.append("mass_sum")
    return failures


def check_run(solution, steps, output, spec, ref_t, ref_y):
    """Checks of one `expkin run`: solution.csv, steps.csv and the solver output.

    `solution` and `steps` are (header, rows) pairs, `output` the solver's
    SolverOutput. Returns (failures, err_scaled).
    """
    header, rows = solution
    failures = []
    if not output.success:
        failures.append("solver_success")
    if header[:2] != ["t", "T"] or len(header) != spec["n_species"] + 2:
        failures.append("solution_columns")
        return failures, math.inf
    if rows.shape[0] != ref_t.size or not np.allclose(
            rows[:, 0], ref_t, rtol=0.0, atol=1e-12 * spec["t_final"]):
        failures.append("solution_rows")
        return failures, math.inf
    failures += check_states(rows[:, 1:])
    err = float(np.max(scaled_rms(rows[:, 1:], ref_y, spec["atol"], spec["rtol"])))
    if not err <= ERR_LIMIT:
        failures.append("accuracy")
    steps_header, steps_rows = steps
    accepted = steps_rows[:, steps_header.index("accepted")]
    if (steps_rows.shape[0] != len(output.records)
            or int(accepted.sum()) != len(output.accepted_records)):
        failures.append("steps_rows")
    return failures, err


def check_sweep(sweep, outputs, spec, ref_y_final):
    """Checks of one `expkin sweep`.

    `sweep` is sweep.csv as (header, rows); `outputs` the solver outputs in
    call order, the sweep's own reference first. Returns (failures, err_scaled).
    """
    header, rows = sweep
    points = spec["sweep_points"]
    failures = []
    if len(outputs) != len(points) + 1 or not all(o.success for o in outputs):
        failures.append("solver_success")
        return failures, math.inf
    failures += check_states([o.y for o in outputs])
    col = {name: header.index(name) for name in ("atol", "rtol", "err_2norm", "failed")}
    if (rows.shape[0] != len(points)
            or not np.array_equal(rows[:, [col["atol"], col["rtol"]]], np.asarray(points))
            or np.any(rows[:, col["failed"]] != 0)):
        failures.append("sweep_rows")
        return failures, math.inf
    y_prog_ref = outputs[0].y
    norms = np.array([np.linalg.norm(o.y - y_prog_ref) for o in outputs[1:]])
    if not np.allclose(rows[:, col["err_2norm"]], norms, rtol=CSV_REL_TOL, atol=0.0):
        failures.append("sweep_errors")
    errs = scaled_rms([o.y for o in outputs[1:]], ref_y_final, spec["atol"], spec["rtol"])
    err = float(np.exp(np.mean(np.log(errs))))
    # Each point must be accurate to its own tolerances, within a factor.
    own = [scaled_rms(o.y, ref_y_final, atol, rtol)[0]
           for o, (atol, rtol) in zip(outputs[1:], points)]
    ref_tols = spec["reference_tols"]
    own.append(scaled_rms(y_prog_ref, ref_y_final, *ref_tols)[0])
    if not max(own) <= ERR_LIMIT:
        failures.append("accuracy")
    return failures, err
