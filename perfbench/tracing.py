"""Probes and spans installed around expkin's public layer boundaries.

The benchmark never edits the program: it replaces module attributes with
wrappers for the duration of one CLI call and restores them afterwards.

`SolveProbe` is the only instrumentation of an untraced run: it times each
`integrate_mechanism` call made by the CLI, stamps every `step_hook` call
(where it also lets the speed gauge sample) and keeps the solver output for
the output checks.

`Tracer` adds spans for a traced run. Spans are kept in memory with their
parent ids and written out when the run ends. A span's self time is its
duration minus the time of its child spans. Hook targets:

    expkin.cli.integrate_mechanism            span integrator.loop
    expkin.integrator.problem_from_mechanism  wraps OdeProblem.f and .jac in
                                              spans kinetics.rhs, kinetics.jac
    expkin.integrator.rhs_vector              counts rhs evaluations per span
    expkin.integrator.epi3v_step              span integrator.epi3v
    expkin.integrator.controller_update       span integrator.controller
    expkin.phikrylov.kiops_eval               span phikrylov.kiops
    expkin.phikrylov.expm                     span phikrylov.expm
    expkin.mechio.parse_config                span mechio.parse_config
    expkin.mechio.parse_mechanism             span mechio.parse_mechanism
    expkin.mechio.write_csv                   span mechio.write_csv

A target missing from its module is recorded in `Tracer.missing`, and every
metric that depends on it is reported as missing, never as 0.
"""
from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

HOOKS = (
    ("expkin.cli", "integrate_mechanism", "integrator.loop"),
    ("expkin.integrator", "problem_from_mechanism", None),
    ("expkin.integrator", "rhs_vector", None),
    ("expkin.integrator", "epi3v_step", "integrator.epi3v"),
    ("expkin.integrator", "controller_update", "integrator.controller"),
    ("expkin.phikrylov", "kiops_eval", "phikrylov.kiops"),
    ("expkin.phikrylov", "expm", "phikrylov.expm"),
    ("expkin.mechio", "parse_config", "mechio.parse_config"),
    ("expkin.mechio", "parse_mechanism", "mechio.parse_mechanism"),
    ("expkin.mechio", "write_csv", "mechio.write_csv"),
)

# Metric name prefix -> hook targets it depends on; the longest prefix wins.
_METRIC_HOOKS = {
    "kinetics.": ("problem_from_mechanism",),
    "kinetics.jac.rhs_per_call": ("problem_from_mechanism", "rhs_vector"),
    "phikrylov.": ("kiops_eval",),
    "phikrylov.expm.": ("expm",),
    "integrator.": ("epi3v_step", "controller_update"),
    "integrator.epi3v.": ("epi3v_step",),
    "integrator.controller.": ("controller_update",),
    "integrator.loop.": ("integrate_mechanism",),
    "mechio.parse_mechanism_s": ("parse_mechanism",),
    "mechio.parse_config_s": ("parse_config",),
    "mechio.": ("write_csv",),
    "cli.": ("integrate_mechanism", "parse_config", "parse_mechanism", "write_csv"),
}


def hooks_needed(metric):
    """Hook targets a per-layer metric depends on."""
    best = max((p for p in _METRIC_HOOKS if metric.startswith(p)), key=len)
    return _METRIC_HOOKS[best]


@dataclass
class Integration:
    """One `integrate_mechanism` call seen by the probe (times in ns)."""

    start_ns: int
    end_ns: int
    ends_ns: list      # step_hook entered: an attempt has ended
    resumes_ns: list   # step_hook left: the next attempt starts
    paused_ns: int     # time the probe's `pause` took inside step_hook
    output: object

    def segments(self):
        """(start, end) ns of each attempt, then of the rest after the last one.

        An attempt runs from the call's start or the previous step_hook's
        return to the next step_hook call.
        """
        return list(zip([self.start_ns] + self.resumes_ns, self.ends_ns + [self.end_ns]))

    @property
    def solve_ns(self):
        return sum(end - start for start, end in self.segments())


@dataclass
class SolveProbe:
    """Times the CLI's integrate_mechanism calls and keeps their outputs.

    `pause` (optional) is called from every step_hook; it returns the ns it
    spent, which are left out of the call's times.
    """

    pause: object = None
    integrations: list = field(default_factory=list)

    @property
    def paused_ns(self):
        return sum(i.paused_ns for i in self.integrations)

    def wrap(self, original):
        clock, pause = time.perf_counter_ns, self.pause

        def integrate_mechanism(*args, **kwargs):
            user_hook = kwargs.get("step_hook")
            ends, resumes, paused = [], [], [0]

            def step_hook(record, y, J):
                ends.append(clock())
                if user_hook is not None:
                    user_hook(record, y, J)
                if pause is not None:
                    paused[0] += pause()
                resumes.append(clock())

            kwargs["step_hook"] = step_hook
            start = clock()
            out = original(*args, **kwargs)
            self.integrations.append(
                Integration(start, clock(), ends, resumes, paused[0], out))
            return out

        return integrate_mechanism


class Patches:
    """Module attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, modname, attr, make_wrapper):
        """Replace modname.attr by make_wrapper(original); False if absent."""
        module = importlib.import_module(modname)
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._undo.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))
        return True

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


class Tracer:
    """Spans [id, parent_id, name, start_ns, end_ns] and counts of one traced call."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []

    def span(self, name, fn, on_result=None):
        """Wrap `fn` so that every call records a span named `name`.

        A call that raises is counted as `errors@<name>`.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, \
            time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else -1, name, clock(), 0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts["errors@" + name] += 1
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def install(self, patches):
        for modname, attr, name in HOOKS:
            if not patches.replace(modname, attr,
                                   lambda orig, a=attr, n=name: self._hook(a, n, orig)):
                self.missing.append(attr)

    def _hook(self, attr, name, original):
        counts, stack = self.counts, self._stack
        if attr == "problem_from_mechanism":
            def problem_from_mechanism(*args, **kwargs):
                problem = original(*args, **kwargs)
                problem.f = self.span("kinetics.rhs", problem.f)
                problem.jac = self.span("kinetics.jac", problem.jac)
                return problem
            return problem_from_mechanism
        if attr == "rhs_vector":
            def rhs_vector(*args, **kwargs):
                counts["rhs_evals@" + (stack[-1][2] if stack else "")] += 1
                return original(*args, **kwargs)
            return rhs_vector
        on_result = None
        if attr == "kiops_eval":
            def on_result(result, args, kwargs):
                st = result.stats
                counts["phikrylov.matvecs"] += st.matvecs
                counts["phikrylov.substeps"] += st.substeps
                counts["phikrylov.krylov_rejections"] += st.rejections
                counts["phikrylov.krylov_dim_max"] = max(
                    counts["phikrylov.krylov_dim_max"], st.max_krylov_dim)
        elif attr == "controller_update":
            def on_result(result, args, kwargs):
                counts["integrator.accepted" if result[0]
                       else "integrator.rejected_err"] += 1
        elif attr == "write_csv":
            def on_result(result, args, kwargs):
                path, _, rows = args[:3]
                counts["mechio.csv_rows"] += len(rows)
                counts["mechio.bytes_written"] += os.path.getsize(path)
        return self.span(name, original, on_result)

    def summary(self):
        """{span name: (list of durations in ns, total self time in ns)}."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[1] >= 0:
                child_ns[s[1]] += s[4] - s[3]
        durs = defaultdict(list)
        self_ns = Counter()
        for s in self.spans:
            durs[s[2]].append(s[4] - s[3])
            self_ns[s[2]] += s[4] - s[3] - child_ns[s[0]]
        return {name: (durs[name], self_ns[name]) for name in durs}

    def layer_metrics(self, solve_s, cpu_ns):
        """Per-layer metrics of this traced call, as {name: value}.

        `solve_s` is the traced call's integration time and `cpu_ns` the sum of
        the solver's own per-attempt `cpu_ns` accounting. Metrics that need a
        missing hook target are left out.
        """
        summary = self.summary()

        def calls(name):
            return len(summary.get(name, ((), 0))[0])

        def self_s(name):
            return summary.get(name, ((), 0))[1] * 1e-9

        def total_s(name):
            return sum(summary.get(name, ((), 0))[0]) * 1e-9

        def p50(name, unit_ns):
            durs = summary.get(name, ((), 0))[0]
            return statistics.median(durs) / unit_ns if durs else 0.0

        c = self.counts
        attempts = calls("integrator.epi3v")
        jac_calls = calls("kinetics.jac")
        metrics = {
            "kinetics.rhs.calls": calls("kinetics.rhs"),
            "kinetics.rhs.us_p50": p50("kinetics.rhs", 1e3),
            "kinetics.rhs.self_s": self_s("kinetics.rhs"),
            "kinetics.jac.calls": jac_calls,
            "kinetics.jac.ms_p50": p50("kinetics.jac", 1e6),
            "kinetics.jac.self_s": self_s("kinetics.jac"),
            "kinetics.jac.rhs_per_call": (c["rhs_evals@kinetics.jac"] / jac_calls
                                          if jac_calls else 0.0),
            "kinetics.jac.solve_frac": total_s("kinetics.jac") / solve_s,
            "kinetics.errors": c["errors@kinetics.rhs"] + c["errors@kinetics.jac"],
            "phikrylov.kiops.calls": calls("phikrylov.kiops"),
            "phikrylov.kiops.ms_p50": p50("phikrylov.kiops", 1e6),
            "phikrylov.kiops.self_s": self_s("phikrylov.kiops"),
            "phikrylov.expm.calls": calls("phikrylov.expm"),
            "phikrylov.expm.self_s": self_s("phikrylov.expm"),
            "phikrylov.matvecs": c["phikrylov.matvecs"],
            "phikrylov.substeps": c["phikrylov.substeps"],
            "phikrylov.krylov_dim_max": c["phikrylov.krylov_dim_max"],
            "phikrylov.krylov_rejections": c["phikrylov.krylov_rejections"],
            "phikrylov.conv_errors": c["errors@phikrylov.kiops"],
            "integrator.attempts": attempts,
            "integrator.accepted": c["integrator.accepted"],
            "integrator.rejected_err": c["integrator.rejected_err"],
            "integrator.rejected_eval": c["errors@integrator.epi3v"],
            "integrator.accept_ratio": (c["integrator.accepted"] / attempts
                                        if attempts else 0.0),
            "integrator.epi3v.self_s": self_s("integrator.epi3v"),
            "integrator.controller.calls": calls("integrator.controller"),
            "integrator.controller.self_s": self_s("integrator.controller"),
            "integrator.loop.self_s": self_s("integrator.loop"),
            "integrator.cpu_ns_accounted_frac": cpu_ns * 1e-9 / solve_s,
            "mechio.parse_mechanism_s": total_s("mechio.parse_mechanism"),
            "mechio.parse_config_s": total_s("mechio.parse_config"),
            "mechio.write_csv_s": total_s("mechio.write_csv"),
            "mechio.csv_rows": c["mechio.csv_rows"],
            "mechio.bytes_written": c["mechio.bytes_written"],
            "cli.self_s": self_s("cli"),
        }
        return {name: value for name, value in metrics.items()
                if not set(hooks_needed(name)) & set(self.missing)}

    def dump(self, fh, trace_id):
        """Append every span as a JSON line {trace, id, parent, name, start_ns, end_ns}."""
        for sid, parent, name, start, end in self.spans:
            fh.write(json.dumps({"trace": trace_id, "id": sid, "parent": parent,
                                 "name": name, "start_ns": start,
                                 "end_ns": end}) + "\n")
