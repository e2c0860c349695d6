"""Spans, self time, hook installation and the traced CLI run."""
import pathlib
import shutil
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import expkin.cli  # noqa: E402
import expkin.integrator  # noqa: E402
import expkin.mechio  # noqa: E402
import expkin.phikrylov  # noqa: E402
from expkin.kinetics import KineticsError  # noqa: E402
from tracing import HOOKS, Patches, SolveProbe, Tracer  # noqa: E402
from workloads import FIXTURES  # noqa: E402

SHORT_CFG = """\
mechanism toy3.mech
T0 1000.0
pressure 101325.0
Y F 0.1
Y B 0.9
t_final 0.2
atol 1e-8
rtol 1e-6
n_output_samples 50
"""


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: inner() + inner())
    outer()
    (oid, oparent, *_), *children = tracer.spans
    assert oparent == -1 and [c[1] for c in children] == [oid, oid]
    summary = tracer.summary()
    outer_durs, outer_self = summary["outer"]
    inner_durs, inner_self = summary["inner"]
    assert outer_self == outer_durs[0] - sum(inner_durs)
    assert inner_self == sum(inner_durs)


def test_raising_call_is_counted_and_closed():
    tracer = Tracer()

    def fail():
        raise KineticsError("bad state")
    with pytest.raises(KineticsError):
        tracer.span("kinetics.rhs", fail)()
    assert tracer.counts["errors@kinetics.rhs"] == 1
    assert tracer.spans[0][4] >= tracer.spans[0][3] > 0
    tracer.span("after", lambda: None)()
    assert tracer.spans[1][1] == -1


def test_missing_hook_metrics_are_left_out():
    tracer = Tracer()
    tracer.missing = ["expm"]
    metrics = tracer.layer_metrics(solve_s=1.0, cpu_ns=0)
    assert "phikrylov.expm.calls" not in metrics
    assert "phikrylov.expm.self_s" not in metrics
    assert "phikrylov.kiops.calls" in metrics
    tracer.missing = ["kiops_eval"]
    metrics = tracer.layer_metrics(solve_s=1.0, cpu_ns=0)
    assert not [m for m in metrics if m.startswith("phikrylov.")
                and not m.startswith("phikrylov.expm.")]


def _originals():
    mods = {"expkin.cli": expkin.cli, "expkin.integrator": expkin.integrator,
            "expkin.phikrylov": expkin.phikrylov, "expkin.mechio": expkin.mechio}
    return {(m, a): getattr(mods[m], a) for m, a, _ in HOOKS}


def _cli_run(tmp_path, out, traced):
    patches, probe = Patches(), SolveProbe()
    patches.replace("expkin.cli", "integrate_mechanism", probe.wrap)
    tracer = Tracer()
    main = expkin.cli.main
    if traced:
        tracer.install(patches)
        main = tracer.span("cli", main)
    try:
        rc = main(["run", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    finally:
        patches.restore()
    return rc, probe, tracer


def test_traced_run_counts_and_restores(tmp_path):
    shutil.copy(FIXTURES / "toy3.mech", tmp_path / "toy3.mech")
    (tmp_path / "run.cfg").write_text(SHORT_CFG)
    before = _originals()
    rc, _, _ = _cli_run(tmp_path, tmp_path / "plain", traced=False)
    assert rc == 0
    rc, probe, tracer = _cli_run(tmp_path, tmp_path / "traced", traced=True)
    assert rc == 0
    assert _originals() == before
    assert not tracer.missing

    # Tracing does not change what the program computes or writes.
    for name in ("solution.csv", "steps.csv"):
        plain = (tmp_path / "plain" / name).read_text()
        if name == "steps.csv":  # the cpu_ns column is a timing
            strip = lambda text: [r.rsplit(",", 1)[0] for r in text.splitlines()]
            assert strip(plain) == strip((tmp_path / "traced" / name).read_text())
        else:
            assert plain == (tmp_path / "traced" / name).read_text()

    (out,) = [i.output for i in probe.integrations]
    m = tracer.layer_metrics(probe.integrations[0].solve_ns * 1e-9,
                             sum(r.cpu_ns for r in out.records))
    assert m["kinetics.jac.rhs_per_call"] == 2 * 3 + 2
    assert m["integrator.attempts"] == len(out.records)
    assert m["integrator.accepted"] == len(out.accepted_records)
    assert m["integrator.attempts"] == (m["integrator.accepted"] + m["integrator.rejected_err"]
                                        + m["integrator.rejected_eval"])
    assert m["integrator.controller.calls"] == (m["integrator.accepted"]
                                                + m["integrator.rejected_err"])
    assert m["kinetics.jac.calls"] == m["integrator.accepted"]
    assert m["phikrylov.kiops.calls"] == sum(r.kiops_calls for r in out.records)
    # StepRecord drops the matvecs of attempts rejected for evaluation.
    assert m["phikrylov.matvecs"] >= sum(r.matvecs for r in out.records)
    assert m["mechio.csv_rows"] == 50 + len(out.records)
    assert m["mechio.bytes_written"] == sum(
        (tmp_path / "traced" / n).stat().st_size for n in ("solution.csv", "steps.csv"))
    assert 0 < m["integrator.cpu_ns_accounted_frac"] < 1
    assert len(probe.integrations[0].segments()) - 1 == (m["integrator.attempts"]
                                                       - m["integrator.rejected_eval"])
