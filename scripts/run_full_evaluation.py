"""Evaluation driver: detect, evaluate and report in one go.

Takes an oracle dataset plus a directory of repository clones, runs the
detector presets under each chosen regime over a slice of it, and scores
the results. Typical replication sequence:

    python scripts/run_full_evaluation.py --dataset oracle.json \
        --clones-root /data/clones --subset supported --out-dir runs_all
    python scripts/run_full_evaluation.py --dataset oracle.json \
        --clones-root /data/clones --subset issues \
        --regime none,issue-date,best-case-date --out-dir runs_issues

Expect hours of wall time on the ~1,900 entry corpus; entries whose
clone is missing are skipped and flagged in the run files.

`--desk` instead builds the scripted history suite under --out-dir and
uses its oracle, clones and refactoring ranges; every regime over it
takes a few seconds:

    python scripts/run_full_evaluation.py --desk \
        --regime none,issue-date,best-case-date --out-dir desk_run
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

from bictrace.cli import CLONES_ROOT_ENV, main as cli
from bictrace.oracle import load_oracle, save_oracle, subset_issues, subset_language, subset_supported
from bictrace.scenarios import build_all, suite_oracle, write_suite_refactorings

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
    ap.add_argument(
        "--subset",
        choices=("full", "supported", "issues", "language"),
        default="supported",
        help="slice of the dataset to evaluate (default: supported)",
    )
    ap.add_argument("--language", help="language name when --subset language")
    ap.add_argument("--regime", default="none", help="comma-separated date regimes")
    ap.add_argument("--presets", default="B,AG,MA,L,R")
    ap.add_argument("--refactorings", help="CSV of refactored ranges (enables RA-lite)")
    ap.add_argument("--workers", type=int, default=8)
    ap.add_argument("--outlier-threshold", type=int)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    if args.subset == "language" and not args.language:
        ap.error("--subset language needs --language")
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
    if args.subset != "full":
        dataset = subset_supported(dataset)
        if args.subset == "issues":
            dataset = subset_issues(dataset)
        elif args.subset == "language":
            dataset = subset_language(dataset, args.language)
        print(f"subset {args.subset}: {len(dataset)} entries")

    out.mkdir(parents=True, exist_ok=True)
    dataset_path = out / "dataset.json"
    save_oracle(dataset, dataset_path)

    presets = args.presets
    if args.refactorings and "RA-lite" not in presets:
        presets += ",RA-lite"

    runs_dir = out / "runs"
    detect_args = [
        "detect",
        "--dataset", str(dataset_path),
        "--clones-root", args.clones_root,
        "--presets", presets,
        "--regime", args.regime,
        "--workers", str(args.workers),
        "--out-dir", str(runs_dir),
    ]
    if args.refactorings:
        detect_args += ["--refactorings", args.refactorings]
    rc = cli(detect_args)
    if rc not in (0, 2):
        return rc

    eval_dir = out / "eval"
    eval_args = [
        "evaluate",
        "--runs-dir", str(runs_dir),
        "--dataset", str(dataset_path),
        "--out-dir", str(eval_dir),
    ]
    if args.outlier_threshold is not None:
        eval_args += ["--outlier-threshold", str(args.outlier_threshold)]
    eval_rc = cli(eval_args)
    if eval_rc != 0:
        return eval_rc

    print()
    report_rc = cli(["report", "--eval-dir", str(eval_dir)])
    return rc if report_rc == 0 else report_rc


if __name__ == "__main__":
    raise SystemExit(main())
