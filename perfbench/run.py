"""End-to-end and per-layer benchmark of bictrace.

    python3 perfbench/run.py --workload deep|wide|offline --seed N \\
        --seconds S --trace 0|1 [--size full|smoke]

Run from the root of a checkout. bictrace is imported from ``src/`` of
that checkout and driven only through its command line
(``bictrace.cli.main``), one process per command, with
``--workers min(2, nproc)``.

Workloads (see BENCHMARK.json for why each exists):

* ``deep``: two generated repositories with long first-parent histories
  and ten fixes each;
  ``detect`` with all six presets, once per regime.
* ``wide``: two hundred small generated repositories in mixed languages;
  ``detect --presets MA --regime issue-date``.
* ``offline``: ``mine`` over a push-event stream, then ``evaluate`` over a
  large oracle and 18 run files. No git.

Each run sets the inputs up from the seed five times (``setup_s`` is the
median), then repeats passes over the same inputs for about ``--seconds``
and reports medians over the passes. Every output of every pass is
checked against expectations made by the generators, never by bictrace:
a result that is wrong or missing counts in ``failed``, and ``correct``
is false if any such result is not explained by a known defect, or if
two passes or two set-ups disagree.

With ``--trace 1`` the passes alternate between untraced and traced; the
traced ones yield the per-layer metrics and their ratio gives the
tracing overhead.

The last line of standard output is the result object; the line before
it records the provenance (seed, input sizes, workers, versions, output
digests, failures).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gitcorpus  # noqa: E402
import offline  # noqa: E402
import tracer  # noqa: E402

SIZES = {
    "full": {
        "deep": dict(repos=2, funcs=24, body=10, commits=2000, fixes=10, reach=240),
        "wide": dict(repos=200, commits=(10, 25)),
        "offline": dict(messages=38000, parsed_share=0.5, entries=1500),
    },
    "smoke": {
        "deep": dict(repos=2, funcs=8, body=8, commits=300, fixes=4, reach=60),
        "wide": dict(repos=12, commits=(8, 14)),
        "offline": dict(messages=700, parsed_share=0.5, entries=200),
    },
}
SETUP_REPEATS = 5
KNOWN_DEFECT = ("bictrace's diff parser reads a removed line starting with '-- ' "
                "as a '--- ' file header")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    unexplained: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def cpu_seconds() -> tuple[float, float]:
    """CPU time in user mode and in the kernel, of this process and of the
    child processes it has waited for."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- workloads -------------------------------------------------------------------


class GitWorkload:
    """deep and wide: generated repositories, ``detect``, and the
    last-writer model's expected results."""

    def __init__(self, name: str, seed: int, size: dict, workers: int):
        self.name, self.seed, self.size, self.workers = name, seed, size, workers
        if name == "deep":
            self.presets, self.regimes = gitcorpus.PRESETS, gitcorpus.REGIMES
        else:
            self.presets, self.regimes = ("MA",), ("issue-date",)

    def setup(self, dest: Path, env: dict) -> dict:
        models = gitcorpus.generate(self.name, self.seed, self.size)
        clones = dest / "clones"
        clones.mkdir(parents=True)
        empty = gitcorpus.empty_repo(dest / "empty.git", env)
        with ThreadPoolExecutor(self.workers) as pool:
            shas = list(pool.map(lambda m: gitcorpus.build(m, clones / m.name, empty, env), models))
        gitcorpus.write_inputs(models, shas, dest)
        self.dest = dest
        self.expected = gitcorpus.expectations(models, shas, self.presets, self.regimes)
        self.entries = sum(len(m.fixes) for m in models)
        return {
            "repositories": len(models),
            "commits": sum(len(m.commits) for m in models),
            "source_lines": sum(len(f.lines) for m in models for f in m.files),
            "entries": self.entries,
            "entries_exposed_to_known_defect": sum(r.exposed for m in models for r in m.fixes),
            "commit_hashes": hashlib.sha256("".join(h for s in shas for h in s).encode()).hexdigest(),
        }

    def commands(self, out: Path):
        for regime in self.regimes:
            yield "detect", [
                "detect", "--dataset", str(self.dest / "oracle.json"),
                "--clones-root", str(self.dest / "clones"),
                "--presets", ",".join(self.presets), "--regime", regime,
                *(["--refactorings", str(self.dest / "refactorings.csv")] if "RA-lite" in self.presets else []),
                "--workers", str(self.workers), "--out-dir", str(out),
            ]

    ok_codes = (0, 2)  # 2: some entries were skipped, which the check counts

    def units(self) -> int:
        """Work items of one main command: entries per detect run."""
        return self.entries

    def check(self, out: Path) -> Outcome:
        res = Outcome()
        for (preset, regime), table in self.expected.items():
            path = out / f"{preset.lower()}_{regime}.json"
            got = {}
            if path.is_file():
                res.digests[path.name] = digest(path)
                for e in json.loads(path.read_text())["entries"]:
                    got[(e["repo"], e["fix_commit"])] = (e["identified"], e.get("flags", []))
            for key, (found, flags, exposed) in table.items():
                res.attempted += 1
                if got.get(key) == (found, flags):
                    continue
                res.failed += 1
                if not exposed:
                    res.unexplained.append(f"{preset} {regime} {key}: expected {found} {flags}, got {got.get(key)}")
        return res


class OfflineWorkload:
    """offline: ``mine`` then ``evaluate``, no git."""

    ok_codes = (0,)

    def __init__(self, name: str, seed: int, size: dict, workers: int):
        self.seed, self.size = seed, size

    def setup(self, dest: Path, env: dict) -> dict:
        dest.mkdir(parents=True)
        rng = random.Random(f"offline:{self.seed}")
        self.dest = dest
        self.mined, self.summary = offline.write_mine_inputs(
            rng, dest, self.size["messages"], self.size["parsed_share"])
        self.eval_expected = offline.write_evaluate_inputs(rng, dest, self.size["entries"])
        return {
            "messages": self.summary["total"],
            "parsed_messages": (dest / "parses.txt").read_text().count("# commit ="),
            "oracle_entries": self.size["entries"],
            "run_files": len(self.eval_expected),
            "inputs": hashlib.sha256(b"".join(
                digest(p).encode() for p in sorted(dest.rglob("*")) if p.is_file())).hexdigest(),
        }

    def commands(self, out: Path):
        yield "mine", [
            "mine", str(self.dest / "events.ndjson"), "--format", "gharchive",
            "--parses", str(self.dest / "parses.txt"), "--proximity",
            "--out", str(out / "mined.ndjson"),
        ]
        yield "evaluate", [
            "evaluate", "--runs-dir", str(self.dest / "eval" / "runs"),
            "--dataset", str(self.dest / "eval" / "oracle.json"), "--out-dir", str(out / "eval"),
        ]

    def units(self) -> int:
        """Work items of one main command: messages per mine run."""
        return self.summary["total"]

    def check(self, out: Path) -> Outcome:
        res = Outcome()
        mined = out / "mined.ndjson"
        rows = []
        if mined.is_file():
            res.digests[mined.name] = digest(mined)
            rows = [json.loads(line) for line in mined.read_text().splitlines()]
        summary = rows.pop()["summary"] if rows and "summary" in rows[-1] else None
        for i, want in enumerate(self.mined):
            res.attempted += 1
            got = rows[i] if i < len(rows) else None
            if got != want:
                res.failed += 1
                res.unexplained.append(f"mined record {i}: expected {want}, got {got}")
        res.attempted += 1
        if summary != self.summary or len(rows) != len(self.mined):
            res.failed += 1
            res.unexplained.append(f"mine summary: expected {self.summary}, got {summary}")

        metrics = out / "eval" / "metrics.csv"
        got_rows = {}
        if metrics.is_file():
            for name in ("metrics.csv", "exclusive.csv", "summary.txt",
                         *(f"overlap_{r}.csv" for r in offline.REGIMES)):
                p = out / "eval" / name
                res.digests[f"eval/{name}"] = digest(p) if p.is_file() else "missing"
            with open(metrics, newline="") as fh:
                for row in csv.DictReader(fh):
                    got_rows[(row["variant"], row["regime"], row["aggregation"])] = row
        for (preset, regime), want in self.eval_expected.items():
            for agg in ("pooled", "macro"):
                res.attempted += 1
                row = got_rows.get((preset, regime, agg))
                if row is None or not _row_matches(row, agg, want[agg]):
                    res.failed += 1
                    res.unexplained.append(f"metrics {preset} {regime} {agg}: expected {want[agg]}, got {row}")
        return res


def _row_matches(row: dict, agg: str, want: tuple) -> bool:
    """Pooled counts and rates are exact; F1 and every macro average
    come out of float arithmetic whose rounding order is bictrace's, so
    they get a relative tolerance of 1e-12."""
    def close(text: str, value: Fraction) -> bool:
        return abs(float(text) - float(value)) <= 1e-12 * max(1.0, abs(float(value)))

    if agg == "pooled":
        n, correct, identified, tp, recall, precision, f1 = want
        return (
            (int(row["entries"]), int(row["correct"]), int(row["identified"]), int(row["true_positives"]))
            == (n, correct, identified, tp)
            and float(row["recall"]) == float(recall)
            and float(row["precision"]) == float(precision)
            and close(row["f1"], f1)
        )
    n, recall, precision, f1 = want
    return (int(row["entries"]) == n and close(row["recall"], recall)
            and close(row["precision"], precision) and close(row["f1"], f1))


WORKLOADS = {"deep": GitWorkload, "wide": GitWorkload, "offline": OfflineWorkload}


# -- running bictrace ----------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    cmds: list[tuple[str, float, float]]  # (command, seconds, peak RSS in MB), in order
    outcome: Outcome
    layers: dict[str, float] | None = None

    @property
    def wall(self) -> float:
        return sum(w for _, w, _ in self.cmds)

    def rss_mb(self, label: str) -> float:
        """Peak resident set of the ``label`` commands of this pass."""
        return max(r for name, _, r in self.cmds if name == label)

    def rate(self, label: str, units: int) -> float:
        """Units per second of the ``label`` commands of this pass: each
        command handles ``units`` items, and the rate is their total over
        the commands' total wall time."""
        walls = [w for name, w, _ in self.cmds if name == label]
        return units * len(walls) / sum(walls)

    def seconds(self, label: str) -> float:
        return sum(w for name, w, _ in self.cmds if name == label)


class Runner:
    def __init__(self, root: Path, work: Path, workload, env: dict):
        self.root, self.work, self.wl, self.env = root, work, workload, env
        self.count = 0

    def run_pass(self, traced: bool) -> Pass:
        self.count += 1
        out = self.work / f"pass{self.count}"
        out.mkdir()
        cmds: list[tuple[str, float, float]] = []
        dumps = []
        for i, (label, argv) in enumerate(self.wl.commands(out)):
            wall, report = self.invoke(argv, traced, out / f"report{i}.json", out / f"stderr{i}.txt")
            cmds.append((label, wall, report["peak_rss_mb"]))
            if traced:
                dumps.append(report)
        outcome = self.wl.check(out)
        layers = tracer.layer_metrics(dumps) if traced else None
        shutil.rmtree(out)
        return Pass(traced, cmds, outcome, layers)

    def invoke(self, argv: list[str], traced: bool, report: Path, stderr: Path) -> tuple[float, dict]:
        """Run one command to completion; returns its wall time and the
        report it wrote: the peak resident set of its process tree, and
        its spans when traced."""
        cmd = [sys.executable, str(HERE / "invoke.py"), str(self.root / "src"), str(report),
               "1" if traced else "0", *argv]
        with open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=self.env, cwd=self.root)
            try:
                rc = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        if rc not in self.wl.ok_codes or not report.is_file():
            tail = stderr.read_text(errors="replace")[-2000:]
            raise BenchError(f"bictrace {argv[0]} exited with {rc}:\n{tail}")
        return wall, json.loads(report.read_text())


def measure(runner: Runner, seconds: float, trace: bool) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least
    one, and with tracing at least one of each kind, alternating."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(traced=trace and len(passes) % 2 == 1))
        if trace and not any(p.traced for p in passes):
            continue
        next_traced = trace and len(passes) % 2 == 1
        typical = statistics.median(p.wall for p in passes if p.traced == next_traced)
        if time.perf_counter() - start + typical > seconds:
            return passes


# -- main -----------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    # a terminated run still stops its command and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "bictrace" / "cli.py").is_file():
        print(f"error: {root} is not a bictrace checkout (no src/bictrace/cli.py)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, provenance = run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench").rmdir()
        except OSError:
            pass
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args, root: Path, work: Path) -> tuple[dict, dict]:
    nproc = os.cpu_count() or 1
    workers = min(2, nproc)
    env = gitcorpus.git_env(work)
    size = SIZES[args.size][args.workload]
    wl = WORKLOADS[args.workload](args.workload, args.seed, size, workers)

    # set up several times from the same seed: the median is setup_s, and
    # every set-up must produce the same inputs, down to the commit hashes.
    # A set-up is timed by the CPU time it takes in user mode, in this
    # process and in the git processes it starts. Its wall time and its
    # time in the kernel both grow from one set-up to the next, on a disk
    # where earlier set-ups created and deleted thousands of files (wide:
    # kernel time 0.2 s in the first of six set-ups in one process, 1.3 s
    # in the last, user time 0.7-0.8 s throughout); both are recorded
    setups, setup_sys, setup_walls, inputs = [], [], [], []
    repeats = 1 if args.trace else SETUP_REPEATS
    for i in range(repeats):
        dest = work / f"setup{i}"
        start, (user, sys_) = time.perf_counter(), cpu_seconds()
        inputs.append(wl.setup(dest, env))
        user2, sys2 = cpu_seconds()
        setups.append(user2 - user)
        setup_sys.append(sys2 - sys_)
        setup_walls.append(time.perf_counter() - start)
        if i + 1 < repeats:
            shutil.rmtree(dest)
    reproducible = all(x == inputs[0] for x in inputs)

    runner = Runner(root, work, wl, env)
    passes = measure(runner, args.seconds, bool(args.trace))

    outcomes = [p.outcome for p in passes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    unexplained = [u for o in outcomes for u in o.unexplained]
    deterministic = all(o.digests == outcomes[0].digests for o in outcomes)
    correct = not unexplained and deterministic and reproducible

    plain = [p for p in passes if not p.traced]
    main_label = "mine" if args.workload == "offline" else "detect"
    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics = {k: statistics.median(p.layers[k] for p in traced) for k in tracer.PER_LAYER}
        # the commands' own figures, from the untraced passes of this run
        per_s = statistics.median(p.rate(main_label, wl.units()) for p in plain)
        metrics["cli.detect.entries_per_s"] = per_s if main_label == "detect" else 0.0
        metrics["cli.mine.msgs_per_s"] = per_s if main_label == "mine" else 0.0
        metrics["cli.evaluate.s"] = statistics.median(p.seconds("evaluate") for p in plain)
        metrics["cli.evaluate.peak_rss_mb"] = (
            statistics.median(p.rss_mb("evaluate") for p in plain) if main_label == "mine" else 0.0)
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(p.rate(main_label, wl.units()) for p in plain),
            "pass_s": statistics.median(p.wall for p in plain),
            # the main command's own peak: on offline, mine's and not
            # evaluate's, which is in the per-layer metrics
            "peak_rss_mb": statistics.median(p.rss_mb(main_label) for p in plain),
        }
        units = END_TO_END

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs": inputs[0],
        "workers": workers,
        "nproc": nproc,
        "git": subprocess.run(["git", "--version"], capture_output=True, text=True, env=env).stdout.strip(),
        "python": platform.python_version(),
        "setup_user_s": setups,
        "setup_sys_s": setup_sys,
        "setup_wall_s": setup_walls,
        "passes": [{"traced": p.traced, "commands": [{"command": c, "wall_s": w, "rss_mb": r} for c, w, r in p.cmds]}
                   for p in passes],
        "digests": outcomes[0].digests,
        "failed_frac": failed / attempted if attempted else 0.0,
        "failures_explained_by": KNOWN_DEFECT if failed and not unexplained else None,
        "unexplained_failures": unexplained[:20],
        "deterministic_outputs": deterministic,
        "reproducible_setup": reproducible,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, provenance


def _layer_unit(name: str) -> str:
    for suffix, unit in ((".n", "count"), ("_frac", "fraction"), ("_ms", "ms"), ("per_s", "1/s"),
                         (".lines", "lines"), ("lines_per_call", "lines"), ("blame_per_call", "calls"), ("_mb", "MB"),
                         (".s", "s"), ("self_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(name)


if __name__ == "__main__":
    sys.exit(main())
