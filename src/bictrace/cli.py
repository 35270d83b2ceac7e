"""Batch entry points: mine messages, detect inducers, evaluate them.

Detection processes oracle entries with a bounded thread pool; all work
for one repository stays on one worker so a repository is never read
concurrently. Output files are sorted by (repo, fix hash) and contain no
timestamps, making reruns byte-identical.

Exit status: 0 when every entry was processed, 2 when some entries were
skipped (missing clone, unresolvable commit, a git that cannot be
started; each skip is reported), 1 on hard failures such as unreadable
inputs, an empty oracle or no usable repository at all. A command
refuses by raising to ``main``, which prints one ``error:`` line and
returns 1, before it writes anything; ``evaluate`` prints the summary it
wrote.
A ``detect`` over several regimes exits with the worst status one call
per regime would give.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import engine, evaluate, miner, oracle
from .errors import BictraceError, ConfigurationError, SchemaError
from .gitrepo import GitRepo

CLONES_ROOT_ENV = "BICTRACE_CLONES_ROOT"
DEFAULT_PRESETS = "B,AG,MA,L,R"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BictraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bictrace",
        description="trace bug-inducing commits and mine developer-confirmed ones",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="classify commit messages from an event stream")
    mine.add_argument("events", help="newline-delimited JSON of commit events")
    mine.add_argument("--parses", help="dependency parses for the messages")
    mine.add_argument(
        "--proximity",
        action="store_true",
        help="fall back to token-window matching instead of parse trees",
    )
    mine.add_argument(
        "--format",
        choices=("plain", "gharchive"),
        default="plain",
        help="event file layout (default: plain)",
    )
    mine.add_argument("--out", help="output file (default: stdout)")
    mine.set_defaults(func=cmd_mine)

    detect = sub.add_parser("detect", help="run detector presets over a dataset")
    detect.add_argument("--dataset", required=True, help="oracle dataset JSON")
    detect.add_argument(
        "--clones-root",
        default=os.environ.get(CLONES_ROOT_ENV),
        help=f"directory holding the repository clones (or ${CLONES_ROOT_ENV})",
    )
    detect.add_argument(
        "--presets",
        default=DEFAULT_PRESETS,
        help=f"comma-separated preset names (default: {DEFAULT_PRESETS})",
    )
    detect.add_argument(
        "--regime",
        default="none",
        help=f"comma-separated date regimes, from {', '.join(engine.REGIMES)} (default: none)",
    )
    detect.add_argument(
        "--refactorings",
        help="CSV of refactored line ranges (required for RA-lite)",
    )
    detect.add_argument("--workers", type=int, default=4)
    detect.add_argument("--out-dir", required=True)
    detect.set_defaults(func=cmd_detect)

    ev = sub.add_parser("evaluate", help="score detection runs against the oracle")
    ev.add_argument("--runs-dir", required=True, help="directory of detection run files")
    ev.add_argument("--dataset", required=True, help="oracle dataset JSON")
    ev.add_argument("--out-dir", required=True)
    ev.add_argument("--outlier-threshold", type=int)
    ev.set_defaults(func=cmd_evaluate)

    return parser


# -- mine ---------------------------------------------------------------------


def cmd_mine(args) -> int:
    parses = None
    if args.parses:
        parses = miner.load_parses(args.parses)
    elif args.proximity:
        print(
            "note: no parses supplied; running in degraded token-window mode",
            file=sys.stderr,
        )
    else:
        print(
            "note: no parses supplied; unparsed messages are rejected as such",
            file=sys.stderr,
        )

    events = (miner.read_events if args.format == "plain" else miner.read_gharchive)(args.events)
    analyses = miner.analyze_events(events, parses=parses, proximity=args.proximity)
    try:
        summary = miner.write_mined(analyses, args.out, proximity=args.proximity)
    finally:
        if parses is not None:
            parses.close()
    print(
        f"mined {summary.total} events: {summary.accepted} accepted",
        file=sys.stderr,
    )
    return 0


# -- detect -------------------------------------------------------------------


def _reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _detect_group(path: Path, entries, configs, regimes, ranges):
    """Run every preset under every regime over one repository's entries,
    one shared pipeline call per entry.

    Returns (results, flags, skips): results maps (preset name, regime) to
    the hashes found for each (repo, fix), flags maps a regime to each
    (repo, fix)'s flags, and skips maps (repo, fix, regime) to a skip
    reason. A clone directory that does not exist is ``clone-missing``; one
    git refuses, or a fix that fails, skips the entry in every regime with
    the error; a best-case cutoff that cannot be simulated skips it in that
    regime. A git that cannot be started (an ``OSError``, such as an
    argument list too long) fails only the entry that started it."""
    results: dict[tuple[str, str], dict[tuple[str, str], frozenset[str]]] = defaultdict(dict)
    flags: dict[str, dict[tuple[str, str], tuple[str, ...]]] = defaultdict(dict)
    skips: dict[tuple[str, str, str], str] = {}
    try:
        repo = GitRepo(path)
    except BictraceError as exc:
        reason = _reason(exc) if path.exists() else "clone-missing"
        for e in entries:
            for regime in regimes:
                skips[(e.repo, e.fix_commit, regime)] = reason
        return results, flags, skips

    with repo:  # waits for the batch process before the task ends
        for e in entries:
            key = (e.repo, e.fix_commit)
            runs = {}  # (preset name, regime) -> (config, cutoff)
            for regime in regimes:
                try:
                    cutoff = engine.regime_cutoff(repo, regime, e.issue_dates, e.true_bics)
                except (BictraceError, OSError) as exc:
                    skips[(*key, regime)] = _reason(exc)
                    continue
                runs.update({(name, regime): (cfg, cutoff) for name, cfg in configs})
            if not runs:
                continue
            try:
                found = engine.run_configs(
                    repo, e.fix_commit, list(runs.values()), refactorings=ranges
                )
            except (BictraceError, OSError) as exc:
                for regime in regimes:
                    skips[(*key, regime)] = _reason(exc)
                continue
            for run, cands in zip(runs, found):
                results[run][key] = frozenset(c.commit for c in cands)
            if "issue-date" in regimes and not e.issue_dates:
                flags["issue-date"][key] = ("no-issue-dates",)
    return results, flags, skips


def cmd_detect(args) -> int:
    if not args.clones_root:
        raise ConfigurationError(f"--clones-root not given and ${CLONES_ROOT_ENV} unset")
    dataset = oracle.load_oracle(args.dataset)
    if not dataset.entries:
        raise ConfigurationError("cannot detect over an empty oracle")
    # a preset named twice, in any spelling, runs once
    names = list(dict.fromkeys(
        engine.preset_name(p) for p in args.presets.split(",") if p.strip()
    ))
    if not names:
        raise ConfigurationError("no presets requested")
    # likewise a regime named twice
    regimes = list(dict.fromkeys(r.strip() for r in args.regime.split(",") if r.strip()))
    if not regimes or not set(regimes) <= set(engine.REGIMES):
        raise ConfigurationError(f"unknown regime in {args.regime!r}; expected some of "
                                 f"{', '.join(engine.REGIMES)}")

    configs = [(n, engine.preset(n)) for n in names]
    ranges = None
    if args.refactorings:
        ranges = engine.load_refactoring_ranges(args.refactorings)
    elif any(cfg.drop_refactored for _, cfg in configs):
        raise ConfigurationError("RA-lite requires --refactorings")

    root = Path(args.clones_root)
    groups: dict[Path, list[oracle.OracleEntry]] = {}
    for e in dataset.entries:
        groups.setdefault(root / (e.clone_path or e.repo), []).append(e)

    # one task per repository keeps each clone single-reader
    with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
        futures = [
            pool.submit(_detect_group, path, entries, configs, regimes, ranges)
            for path, entries in sorted(groups.items())
        ]
        outcomes = [f.result() for f in futures]

    identified: dict[tuple[str, str], dict] = defaultdict(dict)
    flags: dict[str, dict] = defaultdict(dict)
    skips: dict[tuple[str, str, str], str] = {}
    for group_results, group_flags, group_skips in outcomes:
        for run, found in group_results.items():
            identified[run].update(found)
        for regime, entry_flags in group_flags.items():
            flags[regime].update(entry_flags)
        skips.update(group_skips)

    for repo_name, fix, regime in sorted(skips):
        where = f" under {regime}" if len(regimes) > 1 else ""
        print(
            f"skipped {repo_name} {fix}{where}: {skips[repo_name, fix, regime]}",
            file=sys.stderr,
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    skipped = {
        regime: sorted(key[:2] for key in skips if key[2] == regime)
        for regime in regimes
    }
    for regime in regimes:
        for name in names:
            run = evaluate.DetectionRun(
                name, regime, identified[name, regime], flags[regime], skipped[regime]
            )
            target = out_dir / f"{name.lower()}_{regime}.json"
            evaluate.save_run(run, target)
            print(f"wrote {target}", file=sys.stderr)

    # the worst status one call per regime would give: 1, then 2, then 0
    status = 0
    for regime in regimes:
        if skipped[regime] and len(skipped[regime]) == len(dataset.entries):
            print(f"error: no entry could be processed under {regime}", file=sys.stderr)
            status = 1
        elif skipped[regime] and not status:
            status = 2
    return status


# -- evaluate -------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    dataset = oracle.load_oracle(args.dataset)
    runs_dir = Path(args.runs_dir)
    run_files = sorted(runs_dir.glob("*.json"))
    if not run_files:
        raise ConfigurationError(f"no run files in {runs_dir}")
    runs = [evaluate.load_run(p) for p in run_files]
    first: dict[tuple[str, str], Path] = {}
    for path, run in zip(run_files, runs):
        if (other := first.setdefault((run.variant, run.regime), path)) != path:
            raise SchemaError(f"{other} and {path} both hold {run.variant} under {run.regime}")
    written = evaluate.emit_report(
        runs, dataset, args.out_dir, outlier_threshold=args.outlier_threshold
    )
    for name in sorted(written):
        print(f"wrote {written[name]}", file=sys.stderr)
    sys.stdout.write(written["summary"].read_bytes().decode("utf-8"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
