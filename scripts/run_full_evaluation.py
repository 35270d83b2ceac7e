"""Evaluation driver: detect and evaluate in one go.

Takes an oracle dataset plus a directory of repository clones, runs the
detector presets once over its supported entries under every date regime,
and scores that one run on each slice of the oracle: the supported
entries, those of them with issues, and those of each language. Each
slice's tables go to eval/<slice>/ under --out-dir, and its summary to
stdout; a slice whose evaluation is refused writes no eval/<slice>/. The
replication sequence is one command:

    python scripts/run_full_evaluation.py --dataset oracle.json \
        --clones-root /data/clones --out-dir runs_all

Expect hours of wall time on the ~1,900 entry corpus; entries whose
clone is missing are skipped and flagged in the run files. A slice
without entries is skipped with a note. The exit status is the worst of
detect's and each slice's evaluation: 1, then 2, then 0.

`--desk` instead builds the scripted history suite under --out-dir and
uses its oracle, clones and refactoring ranges; it takes a few seconds:

    python scripts/run_full_evaluation.py --desk --out-dir desk_run
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from bictrace.cli import CLONES_ROOT_ENV, DEFAULT_PRESETS, main as cli
from bictrace.engine import REGIMES, preset_name
from bictrace.errors import ConfigurationError
from bictrace.oracle import load_oracle, save_oracle, subset_issues, subset_language, subset_supported
from desk import build_all, suite_oracle, write_suite_refactorings

DATASET_ENV = "BICTRACE_REPLICATION_DATASET"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--dataset",
        default=os.environ.get(DATASET_ENV),
        help=f"oracle dataset JSON (or ${DATASET_ENV})",
    )
    ap.add_argument(
        "--clones-root",
        default=os.environ.get(CLONES_ROOT_ENV),
        help=f"directory holding the clones (or ${CLONES_ROOT_ENV})",
    )
    ap.add_argument(
        "--desk",
        action="store_true",
        help="build and use the scripted suite in place of --dataset and --clones-root",
    )
    ap.add_argument("--presets", default=DEFAULT_PRESETS)
    ap.add_argument("--refactorings", help="CSV of refactored ranges (enables RA-lite)")
    ap.add_argument("--workers", type=int, default=8)
    ap.add_argument("--outlier-threshold", type=int)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    if args.desk:
        clones = out / "clones"
        if clones.exists():
            ap.error(f"{clones} already exists; pick a fresh directory")
        clones.mkdir(parents=True)
        suite = build_all(clones)
        dataset = suite_oracle(suite)
        args.clones_root = str(clones)
        args.refactorings = str(write_suite_refactorings(suite, out / "refactorings.csv"))
    else:
        if not args.dataset:
            ap.error(f"--dataset is required (or set ${DATASET_ENV})")
        if not args.clones_root:
            ap.error(f"--clones-root is required (or set ${CLONES_ROOT_ENV})")
        dataset = load_oracle(args.dataset)

    print(f"loaded {len(dataset)} oracle entries")
    supported = subset_supported(dataset)
    if not supported.entries:
        print("error: no entry touches only supported languages", file=sys.stderr)
        return 1
    slices = {"supported": supported, "issues": subset_issues(supported)}
    for language in supported.counts_by_language():
        slices[language.lower()] = subset_language(supported, language)

    presets = args.presets
    try:
        requested = {preset_name(p) for p in presets.split(",") if p.strip()}
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.refactorings and "RA-lite" not in requested:
        presets += ",RA-lite"

    slices_dir = out / "slices"
    slices_dir.mkdir(parents=True, exist_ok=True)
    for name, cut in list(slices.items()):
        if cut.entries:
            save_oracle(cut, slices_dir / f"{name}.json")
        else:
            print(f"slice {name}: no entries, skipped")
            del slices[name]
    runs_dir = out / "runs"
    detect_args = [
        "detect",
        "--dataset", str(slices_dir / "supported.json"),
        "--clones-root", args.clones_root,
        "--presets", presets,
        "--regime", ",".join(REGIMES),
        "--workers", str(args.workers),
        "--out-dir", str(runs_dir),
    ]
    if args.refactorings:
        detect_args += ["--refactorings", args.refactorings]
    rc = cli(detect_args)
    if rc not in (0, 2):
        return rc

    statuses = [rc]
    for name, cut in slices.items():
        print(f"\nslice {name}: {len(cut)} entries")
        eval_args = [
            "evaluate",
            "--runs-dir", str(runs_dir),
            "--dataset", str(slices_dir / f"{name}.json"),
            "--out-dir", str(out / "eval" / name),
        ]
        if args.outlier_threshold is not None:
            eval_args += ["--outlier-threshold", str(args.outlier_threshold)]
        statuses.append(cli(eval_args))
    return 1 if 1 in statuses else max(statuses)


if __name__ == "__main__":
    raise SystemExit(main())
