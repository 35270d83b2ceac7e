"""Batch entry points: mine messages, detect inducers, evaluate, report.

Detection processes oracle entries with a bounded thread pool; all work
for one repository stays on one worker so a repository is never read
concurrently. Output files are sorted by (repo, fix hash) and contain no
timestamps, making reruns byte-identical.

Exit status: 0 when every entry was processed, 2 when some entries were
skipped (missing clone, unresolvable commit; each skip is reported), 1 on
hard failures such as unreadable inputs or no usable repository at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import engine, evaluate, miner, oracle
from .errors import BictraceError
from .gitrepo import GitRepo

CLONES_ROOT_ENV = "BICTRACE_CLONES_ROOT"
DEFAULT_PRESETS = "B,AG,MA,L,R"
REGIMES = ("none", "issue-date", "best-case-date")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BictraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
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
    detect.add_argument("--regime", choices=REGIMES, default="none")
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

    rep = sub.add_parser("report", help="print the summary of an evaluation")
    rep.add_argument("--eval-dir", required=True)
    rep.set_defaults(func=cmd_report)

    return parser


# -- mine ---------------------------------------------------------------------


def _iter_events(path: str, layout: str):
    if layout == "plain":
        yield from miner.read_events(path)
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            yield from miner.events_from_gharchive(json.loads(line))


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

    events = _iter_events(args.events, args.format)
    analyses, summary = miner.mine_stream(events, parses=parses, proximity=args.proximity)

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for analysis in analyses:
            out.write(json.dumps(analysis.to_record(), sort_keys=True) + "\n")
        out.write(json.dumps({"summary": summary.to_record()}, sort_keys=True) + "\n")
    finally:
        if args.out:
            out.close()
    print(
        f"mined {summary.total} events: {summary.accepted} accepted",
        file=sys.stderr,
    )
    return 0


# -- detect -------------------------------------------------------------------


def _clone_dir(root: Path, entry: oracle.OracleEntry) -> Path:
    return root / (entry.clone_path or entry.repo)


def _detect_group(path: Path, entries, configs, regime, ranges):
    """Run every preset over one repository's entries, one shared
    pipeline call per entry.

    Returns (results, flags, skips): results maps (repo, fix, preset name)
    to a sorted hash tuple, flags maps (repo, fix) to the entry's flags,
    skips maps (repo, fix) to a reason. A missing or unreadable clone skips
    the whole group."""
    results: dict[tuple[str, str, str], tuple[str, ...]] = {}
    flags: dict[tuple[str, str], tuple[str, ...]] = {}
    skips: dict[tuple[str, str], str] = {}
    try:
        repo = GitRepo(path)
    except BictraceError:
        for e in entries:
            skips[(e.repo, e.fix_commit)] = "clone-missing"
        return results, flags, skips

    for e in entries:
        key = (e.repo, e.fix_commit)
        issue_dates = None
        try:
            if regime == "issue-date":
                issue_dates = e.issue_dates
                if not issue_dates:
                    flags[key] = ("no-issue-dates",)
            elif regime == "best-case-date":
                issue_dates = [
                    engine.simulate_best_case_issue_date(repo, e.true_bics)
                ]
            found = engine.run_configs(
                repo, e.fix_commit, [cfg for _, cfg in configs],
                issue_dates=issue_dates, refactorings=ranges,
            )
        except BictraceError as exc:
            skips[key] = f"{type(exc).__name__}: {exc}"
            flags.pop(key, None)
            continue
        for (name, _), cands in zip(configs, found):
            results[(e.repo, e.fix_commit, name)] = tuple(sorted(c.commit for c in cands))
    return results, flags, skips


def cmd_detect(args) -> int:
    if not args.clones_root:
        print(
            f"error: --clones-root not given and ${CLONES_ROOT_ENV} unset",
            file=sys.stderr,
        )
        return 1
    dataset = oracle.load_oracle(args.dataset)
    names = [engine.preset_name(p) for p in args.presets.split(",") if p.strip()]
    if not names:
        print("error: no presets requested", file=sys.stderr)
        return 1

    ranges = None
    if args.refactorings:
        ranges = engine.load_refactoring_ranges(args.refactorings)
    elif engine.preset_name("RA-lite") in names:
        print("error: RA-lite requires --refactorings", file=sys.stderr)
        return 1
    configs = [(n, engine.preset(n)) for n in names]

    root = Path(args.clones_root)
    groups: dict[Path, list[oracle.OracleEntry]] = {}
    for e in dataset.entries:
        groups.setdefault(_clone_dir(root, e), []).append(e)

    # one task per repository keeps each clone single-reader
    with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
        futures = [
            pool.submit(_detect_group, path, entries, configs, args.regime, ranges)
            for path, entries in sorted(groups.items())
        ]
        outcomes = [f.result() for f in futures]

    runs = {
        name: evaluate.DetectionRun(variant=name, regime=args.regime)
        for name, _ in configs
    }
    all_skips: dict[tuple[str, str], str] = {}
    for results, flags, skips in outcomes:
        all_skips.update(skips)
        for (repo_name, fix, preset_name_), shas in results.items():
            runs[preset_name_].identified[(repo_name, fix)] = frozenset(shas)
        for key, entry_flags in flags.items():
            for run in runs.values():
                run.entry_flags[key] = entry_flags

    for key in sorted(all_skips):
        print(f"skipped {key[0]} {key[1]}: {all_skips[key]}", file=sys.stderr)
    for run in runs.values():
        run.skipped = sorted(all_skips)
        run.identified = dict(sorted(run.identified.items()))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, _ in configs:
        target = out_dir / f"{name.lower()}_{args.regime}.json"
        evaluate.save_run(runs[name], target)
        print(f"wrote {target}", file=sys.stderr)

    if all_skips and len(all_skips) == len(dataset.entries):
        print("error: no entry could be processed", file=sys.stderr)
        return 1
    return 2 if all_skips else 0


# -- evaluate / report ----------------------------------------------------------


def cmd_evaluate(args) -> int:
    dataset = oracle.load_oracle(args.dataset)
    runs_dir = Path(args.runs_dir)
    run_files = sorted(runs_dir.glob("*.json"))
    if not run_files:
        print(f"error: no run files in {runs_dir}", file=sys.stderr)
        return 1
    runs = [evaluate.load_run(p) for p in run_files]
    try:
        written = evaluate.emit_report(
            runs, dataset, args.out_dir, outlier_threshold=args.outlier_threshold
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name in sorted(written):
        print(f"wrote {written[name]}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    summary = Path(args.eval_dir) / "summary.txt"
    if not summary.is_file():
        print(f"error: {summary} not found; run evaluate first", file=sys.stderr)
        return 1
    sys.stdout.write(summary.read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
