"""Negative controls: every output check fails on deliberately wrong outputs."""
import pathlib
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402

N = 50
T_FINAL = 1.0
SPEC = {"n_species": 3, "t_final": T_FINAL, "atol": 1e-10, "rtol": 1e-8,
        "sweep_points": [[1e-6, 1e-4], [1e-8, 1e-6]],
        "reference_tols": [1e-12, 1e-10]}
STEPS_HEADER = ["t", "h", "accepted", "err_est", "krylov_dim", "substeps",
                "kiops_calls", "cpu_ns"]


@dataclass
class Record:
    accepted: bool


@dataclass
class Output:
    y: np.ndarray
    success: bool = True
    records: list = field(default_factory=list)

    @property
    def accepted_records(self):
        return [r for r in self.records if r.accepted]


def trajectory(t):
    """A smooth ignition-like [T, Y_F, Y_X, Y_B] trajectory."""
    s = 1.0 / (1.0 + np.exp(-30.0 * (t - 0.5)))
    return np.column_stack([1000.0 + 1000.0 * s, 0.1 * (1 - s), 0.1 * s,
                            np.full_like(t, 0.9)])


def run_case():
    """A correct `expkin run` result: outputs within rounding of the reference."""
    ref_t = np.linspace(0.0, T_FINAL, N)
    ref_y = trajectory(ref_t)
    rows = np.column_stack([ref_t, ref_y * (1 + 1e-13)])
    header = ["t", "T", "Y_F", "Y_X", "Y_B"]
    records = [Record(True), Record(False), Record(True)]
    steps = np.array([[0.0, 0.1, 1, 0.5, 5, 1, 2, 10],
                      [0.1, 0.2, 0, 2.0, 5, 1, 2, 10],
                      [0.1, 0.1, 1, 0.5, 5, 1, 2, 10]], dtype=float)
    output = Output(y=ref_y[-1], records=records)
    return {"solution": (header, rows), "steps": (STEPS_HEADER, steps),
            "output": output, "spec": SPEC, "ref_t": ref_t, "ref_y": ref_y}


def sweep_case():
    """A correct `expkin sweep`: its reference plus two points, near the truth."""
    y_ref = trajectory(np.array([T_FINAL]))[0]
    outputs = [Output(y=y_ref * (1 + d)) for d in (1e-13, 1e-5, 1e-7)]
    for o in outputs:
        o.y[1:] /= o.y[1:].sum()
    rows = []
    for o, (atol, rtol) in zip(outputs[1:], SPEC["sweep_points"]):
        rows.append([atol, rtol, 0.1, np.linalg.norm(o.y - outputs[0].y), 1.0, 0])
    header = ["atol", "rtol", "cpu_s", "err_2norm", "err_scaled", "failed"]
    return {"sweep": (header, np.array(rows)), "outputs": outputs, "spec": SPEC,
            "ref_y_final": y_ref}


def run_failures(case):
    return checks.check_run(**case)[0]


def sweep_failures(case):
    return checks.check_sweep(**case)[0]


def mutate_solution(fn):
    case = run_case()
    header, rows = case["solution"]
    case["solution"] = fn(list(header), rows.copy())
    return case


def shift_T(header, rows):
    rows[1:, 1] = rows[:-1, 1].copy()
    return header, rows


def drop_row(header, rows):
    return header, np.delete(rows, 10, axis=0)


def mass_off(header, rows):
    rows[25, 2] += 1e-3
    return header, rows


def nan_value(header, rows):
    rows[3, 1] = np.nan
    return header, rows


def wrong_header(header, rows):
    return header[:-1], rows[:, :-1]


def failed_solver():
    case = run_case()
    case["output"].success = False
    return case


def dropped_step():
    case = run_case()
    header, steps = case["steps"]
    case["steps"] = (header, steps[:-1])
    return case


RUN_CONTROLS = {
    "shifted T column": (lambda: mutate_solution(shift_T), "accuracy"),
    "dropped row": (lambda: mutate_solution(drop_row), "solution_rows"),
    "mass sum off by 1e-3": (lambda: mutate_solution(mass_off), "mass_sum"),
    "non-finite value": (lambda: mutate_solution(nan_value), "finite"),
    "missing column": (lambda: mutate_solution(wrong_header), "solution_columns"),
    "solver failure": (failed_solver, "solver_success"),
    "steps.csv short": (dropped_step, "steps_rows"),
}


def mutate_sweep(fn):
    case = sweep_case()
    fn(case)
    return case


def sweep_failed_flag(case):
    case["sweep"][1][0, 5] = 1


def sweep_dropped_row(case):
    header, rows = case["sweep"]
    case["sweep"] = (header, rows[:1])


def sweep_wrong_norm(case):
    case["sweep"][1][1, 3] *= 1.01


def sweep_point_off(case):
    case["outputs"][2].y[0] += 100.0


def sweep_reference_off(case):
    case["outputs"][0].y[0] += 1.0
    case["sweep"][1][:, 3] = [np.linalg.norm(o.y - case["outputs"][0].y)
                              for o in case["outputs"][1:]]


def sweep_mass_off(case):
    case["outputs"][1].y[2] += 1e-3


def sweep_solver_failure(case):
    case["outputs"][1].success = False


SWEEP_CONTROLS = {
    "failed flag set": (sweep_failed_flag, "sweep_rows"),
    "dropped row": (sweep_dropped_row, "sweep_rows"),
    "err_2norm not from the states": (sweep_wrong_norm, "sweep_errors"),
    "point off by 100 K": (sweep_point_off, "accuracy"),
    "sweep reference off by 1 K": (sweep_reference_off, "accuracy"),
    "mass sum off by 1e-3": (sweep_mass_off, "mass_sum"),
    "solver failure": (sweep_solver_failure, "solver_success"),
}


def test_correct_outputs_pass():
    assert run_failures(run_case()) == []
    assert sweep_failures(sweep_case()) == []


@pytest.mark.parametrize("name", RUN_CONTROLS)
def test_run_check_fails_on_wrong_output(name):
    make, expected = RUN_CONTROLS[name]
    assert expected in run_failures(make())


@pytest.mark.parametrize("name", SWEEP_CONTROLS)
def test_sweep_check_fails_on_wrong_output(name):
    fn, expected = SWEEP_CONTROLS[name]
    assert expected in sweep_failures(mutate_sweep(fn))


def test_every_check_has_a_negative_control():
    covered = {expected for _, expected in RUN_CONTROLS.values()}
    covered |= {expected for _, expected in SWEEP_CONTROLS.values()}
    assert covered == set(checks.CHECKS)


def test_err_scaled_counts_ignition_timing():
    """A one-row time shift of T moves err_scaled by orders of magnitude."""
    good = checks.check_run(**run_case())[1]
    shifted = checks.check_run(**mutate_solution(shift_T))[1]
    assert shifted > 1e4 * max(good, 1e-3)
