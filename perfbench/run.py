"""expkin benchmark: one workload in a closed loop for a fixed time.

    python3 perfbench/run.py --workload toy3-run --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout; expkin is imported from ./src.
Workloads are described in workloads.py. Each run:

1. prepares the workload's inputs and its Radau reference solution in a
   child process (cached under perfbench/.work/inputs/);
2. measures set-up (config + mechanism parsing and initial state, the CLI's
   `load_run`) several times and keeps the median;
3. calls the CLI in-process (`expkin.cli.main`) again and again, each call
   starting when the previous one has returned, until --seconds have passed;
   each call's output files and solver outputs are checked;
4. prints every metric with its unit, then one JSON line
   {"correct", "attempted", "failed", "metrics"} as the last line.

Every time is reported at the reference machine speed of gauge.py, which
samples a fixed kernel throughout the run, and excludes the sampling itself.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced calls
with calls traced by tracing.Tracer and reports the per-layer metrics, plus
the tracing overhead (traced minus untraced median solve time). Details
(per-call values, step_ms_tail with its percentile and sample count) go to
perfbench/.work/reports/, spans to perfbench/.work/traces/.

Exit status: 0 when every output check passed, 1 when one failed, 2 when the
benchmark could not run (no source tree, unknown workload, failed set-up).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread: the matrices are at most 54 x 54, and the host's two
# cores are better left to the single benchmark process than to BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from gauge import SpeedGauge  # noqa: E402
from tracing import Patches, SolveProbe, Tracer  # noqa: E402

PREPARE_TIMEOUT_S = 150
SETUP_MIN_REPS = 15
SETUP_MIN_NS = 1_000_000_000
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

# Metric names and units, from the benchmark definition at the checkout's root.
_DEFINITION = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in _DEFINITION["end_to_end"]]
UNITS = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"] + _DEFINITION["per_layer"]}
TIME_UNITS = ("s", "ms", "us")


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(n):
    """Highest percentile in TAIL_PERCENTILES with >= TAIL_MIN_BEYOND samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def prepare(workload, seed):
    cmd = [sys.executable, str(wl.BENCH_DIR / "prepare.py"),
           "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, timeout=PREPARE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupError(f"preparing {workload} took over {PREPARE_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SetupError(f"preparing {workload} failed (exit {proc.returncode})")
    spec = json.loads((wl.input_dir(workload, seed) / "spec.json").read_text())
    ref = np.load(wl.input_dir(workload, seed) / "reference.npz")
    return spec, ref["t"], ref["y"]


class Runner:
    """Calls the CLI on one prepared workload and checks every call."""

    def __init__(self, spec, ref_t, ref_y, out_dir):
        from expkin import cli
        self.cli = cli
        self.spec = spec
        self.ref_t, self.ref_y = ref_t, ref_y
        self.out_dir = out_dir
        self.config = str(wl.ROOT / spec["config"])
        self.argv = [spec["command"], "--config", self.config, "--out", str(out_dir)]
        self.gauge = SpeedGauge()

    def setup_s(self):
        """Median time of the CLI's load_run over repeated calls, at reference speed."""
        args = argparse.Namespace(config=self.config, mech=None, clamp_mode=None,
                                  reverse_rate_convention=None)
        spans = []
        first = time.perf_counter_ns()
        self.gauge.sample()
        while len(spans) < SETUP_MIN_REPS or time.perf_counter_ns() - first < SETUP_MIN_NS:
            self.gauge.maybe_sample()
            t0 = time.perf_counter_ns()
            self.cli.load_run(args)
            spans.append((t0, time.perf_counter_ns()))
        self.gauge.sample()
        spans = np.array(spans, dtype=float)
        times = (spans[:, 1] - spans[:, 0]) * self.gauge.factors_at(spans.mean(axis=1))
        return float(np.median(times)) * 1e-9, len(times)

    def call(self, traced):
        """One CLI call; returns a dict of its measurements and check results.

        Times are in seconds at the gauge's reference speed, without the time
        the gauge spent sampling.
        """
        patches, tracer = Patches(), Tracer()
        pause = self.gauge.maybe_sample
        if traced:
            # A child span, so that no layer's self time includes sampling.
            pause = tracer.span("bench.gauge", pause)
        probe = SolveProbe(pause)
        patches.replace("expkin.cli", "integrate_mechanism", probe.wrap)
        main = self.cli.main
        if traced:
            tracer.install(patches)
            main = tracer.span("cli", main)
        sink = io.StringIO()
        first = time.perf_counter_ns()
        self.gauge.sample()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = time.perf_counter_ns()
                rc = main(self.argv)
                wall_ns = time.perf_counter_ns() - t0 - probe.paused_ns
        finally:
            patches.restore()
        self.gauge.sample()
        speed = self.gauge.factor(first, time.perf_counter_ns())
        outputs = [i.output for i in probe.integrations]
        # Each attempt at the speed interpolated to its middle; the rest of the
        # call (parsing, CSV output) at the call's mean speed.
        attempt_ns, solve_ns = [], 0.0
        for i in probe.integrations:
            seg = np.array(i.segments(), dtype=float)
            scaled = (seg[:, 1] - seg[:, 0]) * self.gauge.factors_at(seg.mean(axis=1))
            attempt_ns.extend(scaled[:-1])
            solve_ns += scaled.sum()
        solve_raw_ns = sum(i.solve_ns for i in probe.integrations)
        failures, err = self.check(rc, outputs)
        result = {
            "traced": traced,
            "speed": speed,
            "wall_s": (solve_ns + (wall_ns - solve_raw_ns) * speed) * 1e-9,
            "solve_s": solve_ns * 1e-9,
            "attempt_ms": [ns * 1e-6 for ns in attempt_ns],
            "err_scaled": err,
            "failures": failures,
            "cli_output": sink.getvalue()[-2000:] if failures else "",
            "integrations": len(outputs) or 1,
            "signature": [(len(o.records), len(o.accepted_records)) for o in outputs],
        }
        if failures:
            result["failed"] = result["integrations"]
        else:
            result["failed"] = sum(not o.success for o in outputs)
        if traced:
            cpu_ns = sum(r.cpu_ns for o in outputs for r in o.records)
            result["layers"] = {
                name: value * speed if UNITS[name] in TIME_UNITS else value
                for name, value in tracer.layer_metrics(solve_raw_ns * 1e-9,
                                                        cpu_ns).items()}
            result["missing_hooks"] = tracer.missing
            result["tracer"] = tracer
        return result

    def check(self, rc, outputs):
        failures = [] if rc == 0 else ["exit_code"]
        try:
            if self.spec["command"] == "sweep":
                sweep = checks.read_table(self.out_dir / "sweep.csv")
                more, err = checks.check_sweep(sweep, outputs, self.spec, self.ref_y[-1])
            else:
                if len(outputs) != 1:
                    return failures + ["solver_calls"], math.inf
                solution = checks.read_table(self.out_dir / "solution.csv")
                steps = checks.read_table(self.out_dir / "steps.csv")
                more, err = checks.check_run(solution, steps, outputs[0], self.spec,
                                             self.ref_t, self.ref_y)
        except (OSError, ValueError, StopIteration) as exc:
            return failures + [f"output_files: {exc}"], math.inf
        return failures + more, err


def run_loop(runner, seconds, trace):
    """Closed loop of CLI calls for about `seconds`; alternates tracing if asked."""
    calls = []
    start = time.perf_counter()
    while True:
        traced = trace and sum(c["traced"] for c in calls) < sum(
            not c["traced"] for c in calls)
        t0 = time.perf_counter()
        calls.append(runner.call(traced))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        have_traced = any(c["traced"] for c in calls) or not trace
        # Start another call only if it can end within half a call of the deadline.
        if have_traced and elapsed + 0.5 * last >= seconds:
            return calls


def end_to_end(calls, setup_s):
    plain = [c for c in calls if not c["traced"]]
    # Percentiles of the attempts of all calls. The tail percentile follows
    # from one call's attempt count, which does not change between runs.
    per_call = [c["attempt_ms"] for c in plain if c["attempt_ms"]] or [[math.nan]]
    attempt_ms = [ms for a in per_call for ms in a]
    p_tail = tail_percentile(len(per_call[0]))
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(c["wall_s"] for c in plain),
        "solve_s": statistics.median(c["solve_s"] for c in plain),
        "step_ms_p50": float(np.percentile(attempt_ms, 50)),
        "err_scaled": plain[0]["err_scaled"],
        "ok_frac": 1.0 - sum(c["failed"] for c in calls) / sum(
            c["integrations"] for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Reported, but not a bounded metric: millisecond bursts of interference
    # on the host, which the speed gauge cannot see, moved it by up to 27%
    # (interquartile range over ten runs).
    details = {"step_ms_tail": float(np.percentile(attempt_ms, p_tail)),
               "step_ms_tail_percentile": p_tail, "step_samples": len(attempt_ms)}
    return values, details


def per_layer(calls):
    traced = [c for c in calls if c["traced"]]
    plain = [c for c in calls if not c["traced"]]
    names = traced[0]["layers"].keys()
    values = {name: statistics.median(c["layers"][name] for c in traced)
              for name in names}
    values["trace.overhead_s"] = (statistics.median(c["solve_s"] for c in traced)
                                  - statistics.median(c["solve_s"] for c in plain))
    return values


def consistency_failures(calls):
    """Deterministic outputs must repeat exactly across calls, traced or not."""
    first = calls[0]
    if any(c["signature"] != first["signature"] or c["err_scaled"] != first["err_scaled"]
           for c in calls):
        return ["deterministic"]
    counts = [{k: v for k, v in c["layers"].items() if UNITS[k] == "count"}
              for c in calls if c["traced"]]
    if any(c != counts[0] for c in counts):
        return ["deterministic"]
    return []


def run(args):
    if not (wl.SRC / "expkin" / "__init__.py").is_file():
        raise SetupError(f"no expkin source tree at {wl.SRC}")
    sys.path.insert(0, str(wl.SRC))
    spec, ref_t, ref_y = prepare(args.workload, args.seed)
    out_dir = wl.WORK / "out" / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(spec, ref_t, ref_y, out_dir)
    setup_s, setup_reps = runner.setup_s()
    calls = run_loop(runner, args.seconds, args.trace)

    failures = sorted({f for c in calls for f in c["failures"]}
                      | set(consistency_failures(calls)))
    if args.trace:
        metrics = per_layer(calls)
        # The last call may be an untraced one.
        details = {"missing_hooks": next(c["missing_hooks"] for c in calls if c["traced"])}
        trace_path = wl.WORK / "traces" / f"{args.workload}-{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w") as fh:
            for trace_id, c in enumerate(c for c in calls if c["traced"]):
                c.pop("tracer").dump(fh, trace_id)
    else:
        metrics, details = end_to_end(calls, setup_s)
    details.update(setup_reps=setup_reps, failures=failures, spec=spec,
                   calls=[{k: v for k, v in c.items()
                           if k not in ("attempt_ms", "tracer")} for c in calls])
    report = wl.WORK / "reports" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text(json.dumps(details, indent=1, default=str))

    for name, value in metrics.items():
        print(f"{args.workload:>16} {name:<34} {value:>14.6g} {UNITS[name]}")
    if "step_ms_tail" in details:
        print(f"{args.workload:>16} {'step_ms_tail':<34} {details['step_ms_tail']:>14.6g} ms"
              f" (p{details['step_ms_tail_percentile']:g} of {details['step_samples']}"
              " attempts; unbounded)")
    for attr in details.get("missing_hooks", []):
        print(f"hook target missing: {attr}; its metrics are not reported",
              file=sys.stderr)
    for failure in failures:
        print(f"output check failed: {failure}", file=sys.stderr)
    for c in calls:
        if c["cli_output"]:
            print(c["cli_output"], file=sys.stderr)
    correct = not failures
    result = {
        "correct": correct,
        "attempted": sum(c["integrations"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
