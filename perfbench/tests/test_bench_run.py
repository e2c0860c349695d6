"""The runner's result line and exit status, on a short toy3-run."""
import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402

ARGV = ["--workload", "toy3-run", "--seed", "0", "--seconds", "0.1"]


def result_line(capsys):
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1], captured.err


def test_end_to_end_result(capsys):
    assert run.main(ARGV + ["--trace", "0"]) == 0
    result, table, _ = result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert metric["value"] > 0, name
        assert any(name in line for line in table)


def test_failed_check_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(checks, "ERR_LIMIT", 1.0)
    assert run.main(ARGV + ["--trace", "0"]) == 1
    result, _, err = result_line(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "output check failed: accuracy" in err


def test_traced_result_has_every_layer_metric(capsys):
    assert run.main(ARGV + ["--trace", "1"]) == 0
    result, _, _ = result_line(capsys)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_result_when_last_call_is_untraced(capsys, monkeypatch):
    loop = run.run_loop

    def one_more_untraced(runner, seconds, trace):
        return loop(runner, seconds, trace) + [runner.call(False)]
    monkeypatch.setattr(run, "run_loop", one_more_untraced)
    assert run.main(ARGV + ["--trace", "1"]) == 0
    result, _, _ = result_line(capsys)
    assert result["correct"] is True and "trace.overhead_s" in result["metrics"]
