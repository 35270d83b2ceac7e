"""Spans around bictrace's layers, recorded from outside the package.

``Tracer.install`` wraps the public functions of the layer modules, the
public methods of ``GitRepo``, the per-repository detect task and every
git process that ``gitrepo`` starts. Spans stay in memory with their
parent span and are written once, when the traced command ends.
``layer_metrics`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import threading
import time

LAYERS = ("gitrepo", "langfilters", "engine", "cli", "miner", "evaluate", "oracle")
GIT_SUBCOMMANDS = ("blame", "show", "rev-parse", "diff")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, thread, attrs]
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, result)`` adds
        a dict to it (``result`` is None when ``fn`` raised)."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(args, kwargs, result) if attrs else None
            self.spans.append([sid, parent, name, start, end, threading.get_ident(), extra])

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def install(self, package) -> None:
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    setattr(mod, name, self.wrap(f"{layer}.{name}", obj, _ATTRS.get(f"{layer}.{name}")))
        repo_cls = package.gitrepo.GitRepo
        for name, obj in list(vars(repo_cls).items()):
            if inspect.isfunction(obj) and not name.startswith("_"):
                setattr(repo_cls, name, self.wrap(f"gitrepo.{name}", obj, _ATTRS.get(f"gitrepo.{name}")))
        # one task per repository in a detect run: the unit a worker runs
        cli = package.cli
        cli._detect_group = self.wrap("cli._detect_group", cli._detect_group,
                                      lambda a, k, r: {"skipped": len(r[2]) if r else 0})
        package.gitrepo.subprocess = _ProcessShim(package.gitrepo.subprocess, self)


class _ProcessShim:
    """Stands in for the ``subprocess`` module inside ``gitrepo``: every
    ``run`` becomes a span named after the git subcommand."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def run(self, argv, **kwargs):
        return self._tracer.call(
            f"gitrepo.proc.{_subcommand(argv)}", self._real.run, (argv,), kwargs,
            lambda a, k, r: {"argv": "\0".join(argv), "rc": r.returncode if r is not None else -1},
        )


def _subcommand(argv) -> str:
    i = 1
    while i < len(argv) and argv[i] in ("-C", "-c"):
        i += 2
    return argv[i] if i < len(argv) else "?"


_ATTRS = {
    "gitrepo.blame": lambda a, k, r: {"lines": len(set(a[3] if len(a) > 3 else k["lines"]))},
    "engine.trace_candidates": lambda a, k, r: {"key": [
        a[0].path, a[1].fix_commit,
        sorted(a[2].fix_line_filter), a[2].trace, a[2].depth_limit,
    ]},
    "langfilters.classify_lines": lambda a, k, r: {"lines": len(r) if r is not None else 0},
    "miner.word_prefilter": lambda a, k, r: {"pass": bool(r)},
    "miner.mine_stream": lambda a, k, r: {"total": r[1].total, "accepted": r[1].accepted} if r else None,
    "evaluate.true_positives": lambda a, k, r: {"run": id(a[0])},
}


# -- per-layer metrics -----------------------------------------------------------

PER_LAYER = (
    *(f"gitrepo.proc.{s}.{x}" for s in GIT_SUBCOMMANDS for x in ("n", "s")),
    "gitrepo.proc.failed.n",
    "gitrepo.proc.distinct_frac",
    "gitrepo.proc.busy_frac",
    "gitrepo.resolve.hit_frac",
    "gitrepo.commit_meta.hit_frac",
    "gitrepo.diff_against_parent.hit_frac",
    "gitrepo.blame.lines_per_call",
    "langfilters.classify_lines.n",
    "langfilters.classify_lines.s",
    "langfilters.classify_lines.lines",
    "langfilters.is_cosmetic_commit.n",
    "langfilters.is_cosmetic_commit.self_s",
    "engine.run_config.n",
    "engine.run_config.p50_ms",
    "engine.run_config.p90_ms",
    "engine.extract_fix_lines.self_s",
    "engine.trace_candidates.self_s",
    "engine.filter_candidates.self_s",
    "engine.select.self_s",
    "engine.trace_candidates.blame_per_call",
    "engine.trace_candidates.repeat_frac",
    "cli.detect.workers_busy_frac",
    "cli.detect.skipped.n",
    "miner.load_parses.s",
    "miner.word_prefilter.n",
    "miner.word_prefilter.s",
    "miner.word_prefilter.pass_frac",
    "miner.analyze_with_trees.n",
    "miner.analyze_with_trees.s",
    "miner.proximity_matches.n",
    "miner.proximity_matches.s",
    "miner.dedupe.s",
    "miner.mine_stream.self_s",
    "miner.accepted_frac",
    "evaluate.load_run.s",
    "evaluate.pooled_metrics.s",
    "evaluate.macro_metrics.s",
    "evaluate.overlap.s",
    "evaluate.exclusive_correct.s",
    "evaluate.true_positives.n",
    "evaluate.true_positives.repeat_frac",
    "evaluate.emit_report.self_s",
    "oracle.load_oracle.s",
)


HIT_SPANS = {f"gitrepo.{m}": m for m in ("resolve", "commit_meta", "diff_against_parent")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(invocations: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span dumps of its traced
    commands. Counts and seconds add up over the commands; ratios pool
    their numerators and denominators."""
    n: dict[str, int] = {}
    s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    run_config_ms: list[float] = []
    acc = dict.fromkeys(("procs", "distinct", "failed", "busy", "wall", "blame_lines", "classified",
                         "trace_repeats", "group_busy", "group_span",
                         "skipped", "pre_pass", "mined", "accepted", "tp_repeats"), 0)
    hits: dict[str, list[int]] = {k: [0, 0] for k in HIT_SPANS.values()}
    for inv in invocations:
        spans = inv["spans"]
        child_time: dict[int, float] = {}
        child_procs: dict[int, int] = {}
        for sid, parent, name, start, end, _, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            if name.startswith("gitrepo.proc."):
                child_procs[parent] = child_procs.get(parent, 0) + 1
        proc_intervals, argvs, traces_seen, tp_seen = [], set(), set(), set()
        groups = []
        for sid, parent, name, start, end, _, attrs in spans:
            dur = end - start
            n[name] = n.get(name, 0) + 1
            s[name] = s.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
            if name.startswith("gitrepo.proc."):
                proc_intervals.append((start, end))
                argvs.add(attrs["argv"])
                acc["failed"] += attrs["rc"] != 0
            elif name == "gitrepo.blame":
                acc["blame_lines"] += attrs["lines"]
            elif name in HIT_SPANS:
                # a hit answers from the cache without starting git
                h = hits[HIT_SPANS[name]]
                h[0] += sid not in child_procs
                h[1] += 1
            elif name == "langfilters.classify_lines":
                acc["classified"] += attrs["lines"]
            elif name == "engine.run_config":
                run_config_ms.append(dur * 1000)
            elif name == "engine.trace_candidates":
                key = json.dumps(attrs["key"])
                acc["trace_repeats"] += key in traces_seen
                traces_seen.add(key)
            elif name == "cli._detect_group":
                groups.append((start, end))
                acc["skipped"] += attrs["skipped"]
            elif name == "miner.word_prefilter":
                acc["pre_pass"] += attrs["pass"]
            elif name == "miner.mine_stream" and attrs:
                acc["mined"] += attrs["total"]
                acc["accepted"] += attrs["accepted"]
            elif name == "evaluate.true_positives":
                acc["tp_repeats"] += attrs["run"] in tp_seen
                tp_seen.add(attrs["run"])
        acc["procs"] += len(proc_intervals)
        acc["distinct"] += len(argvs)
        acc["busy"] += _union(proc_intervals)
        acc["wall"] += inv["meta"]["wall_s"]
        if groups:
            acc["group_busy"] += sum(e - b for b, e in groups)
            span = max(e for _, e in groups) - min(b for b, _ in groups)
            acc["group_span"] += span * inv["meta"]["workers"]

    out: dict[str, float] = {}
    for sub in GIT_SUBCOMMANDS:
        out[f"gitrepo.proc.{sub}.n"] = n.get(f"gitrepo.proc.{sub}", 0)
        out[f"gitrepo.proc.{sub}.s"] = s.get(f"gitrepo.proc.{sub}", 0.0)
    out["gitrepo.proc.failed.n"] = acc["failed"]
    out["gitrepo.proc.distinct_frac"] = _ratio(acc["distinct"], acc["procs"])
    out["gitrepo.proc.busy_frac"] = _ratio(acc["busy"], acc["wall"])
    for k, (hit, calls) in hits.items():
        out[f"gitrepo.{k}.hit_frac"] = _ratio(hit, calls)
    out["gitrepo.blame.lines_per_call"] = _ratio(acc["blame_lines"], n.get("gitrepo.blame", 0))
    out["langfilters.classify_lines.n"] = n.get("langfilters.classify_lines", 0)
    out["langfilters.classify_lines.s"] = s.get("langfilters.classify_lines", 0.0)
    out["langfilters.classify_lines.lines"] = acc["classified"]
    out["langfilters.is_cosmetic_commit.n"] = n.get("langfilters.is_cosmetic_commit", 0)
    out["langfilters.is_cosmetic_commit.self_s"] = self_s.get("langfilters.is_cosmetic_commit", 0.0)
    out["engine.run_config.n"] = len(run_config_ms)
    out["engine.run_config.p50_ms"] = _percentile(run_config_ms, 0.5)
    out["engine.run_config.p90_ms"] = _percentile(run_config_ms, 0.9)
    for stage in ("extract_fix_lines", "trace_candidates", "filter_candidates", "select"):
        out[f"engine.{stage}.self_s"] = self_s.get(f"engine.{stage}", 0.0)
    traces = n.get("engine.trace_candidates", 0)
    out["engine.trace_candidates.blame_per_call"] = _ratio(n.get("gitrepo.blame", 0), traces)
    out["engine.trace_candidates.repeat_frac"] = _ratio(acc["trace_repeats"], traces)
    out["cli.detect.workers_busy_frac"] = _ratio(acc["group_busy"], acc["group_span"])
    out["cli.detect.skipped.n"] = acc["skipped"]
    out["miner.load_parses.s"] = s.get("miner.load_parses", 0.0)
    out["miner.word_prefilter.n"] = n.get("miner.word_prefilter", 0)
    out["miner.word_prefilter.s"] = s.get("miner.word_prefilter", 0.0)
    out["miner.word_prefilter.pass_frac"] = _ratio(acc["pre_pass"], n.get("miner.word_prefilter", 0))
    for fn in ("analyze_with_trees", "proximity_matches"):
        out[f"miner.{fn}.n"] = n.get(f"miner.{fn}", 0)
        out[f"miner.{fn}.s"] = s.get(f"miner.{fn}", 0.0)
    out["miner.dedupe.s"] = s.get("miner.dedupe", 0.0)
    out["miner.mine_stream.self_s"] = self_s.get("miner.mine_stream", 0.0)
    out["miner.accepted_frac"] = _ratio(acc["accepted"], acc["mined"])
    for fn in ("load_run", "pooled_metrics", "macro_metrics", "overlap", "exclusive_correct"):
        out[f"evaluate.{fn}.s"] = s.get(f"evaluate.{fn}", 0.0)
    out["evaluate.true_positives.n"] = n.get("evaluate.true_positives", 0)
    out["evaluate.true_positives.repeat_frac"] = _ratio(acc["tp_repeats"], n.get("evaluate.true_positives", 0))
    out["evaluate.emit_report.self_s"] = self_s.get("evaluate.emit_report", 0.0)
    out["oracle.load_oracle.s"] = s.get("oracle.load_oracle", 0.0)
    return out
