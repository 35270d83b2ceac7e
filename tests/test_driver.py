"""The evaluation driver end to end over the scripted desk corpus."""

import csv
import re
import runpy
from collections import Counter
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

from bictrace.cli import DEFAULT_PRESETS, main as cli
from bictrace.engine import REGIMES
from bictrace.oracle import (
    IssueRef,
    OracleDataset,
    OracleEntry,
    save_oracle,
    subset_issues,
    subset_language,
    subset_supported,
)

DRIVER = Path(__file__).resolve().parent.parent / "scripts" / "run_full_evaluation.py"


def test_desk_run_over_every_regime(tmp_path, capsys, git_subcommands):
    driver = runpy.run_path(str(DRIVER))
    code = driver["main"](["--desk", "--workers", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    # the git processes of one detect over three regimes, whatever the slices
    assert Counter(git_subcommands) == {"blame": 14, "rev-parse": 13, "cat-file": 13, "diff-tree": 13}
    assert len(list((tmp_path / "runs").glob("*.json"))) == 18
    # every desk entry is C and one has an issue
    assert sorted(p.name for p in (tmp_path / "eval").iterdir()) == ["c", "issues", "supported"]
    summary = (tmp_path / "eval" / "supported" / "summary.txt").read_text()
    rows = re.findall(r"^\S+ +(none|issue-date|best-case-date) +[0-9.]+ ", summary, re.M)
    assert len(rows) == 18
    assert "oracle entries: 13" in capsys.readouterr().out


def test_desk_outlier_drops_leave_exclusive_correct_undefined(tmp_path):
    # AG, B, MA and RA-lite drop selection_split as an outlier, L keeps it:
    # L's true positive there must not count as exclusive
    driver = runpy.run_path(str(DRIVER))
    code = driver["main"](
        [
            "--desk",
            "--outlier-threshold", "1",
            "--workers", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "eval" / "c" / "summary.txt").is_file()
    # the one entry with an issue is an outlier of AG, B, MA and RA-lite
    # under none: trimming empties their runs of the issues slice, which
    # score as undefined while the other runs keep their metrics
    issues = tmp_path / "eval" / "issues"
    metrics = {(row["variant"], row["regime"], row["aggregation"]): row for row in _rows(issues / "metrics.csv")}
    assert len(metrics) == 36
    for variant in ("AG", "B", "MA", "RA-lite"):
        pooled, macro = metrics[variant, "none", "pooled"], metrics[variant, "none", "macro"]
        assert [pooled[c] for c in ("entries", "correct", "identified", "true_positives")] == ["0"] * 4
        assert {pooled[c] for c in ("recall", "precision", "f1")} == {macro[c] for c in ("recall", "precision", "f1")} == {""}
        assert f"\n{variant:<10} none\n  outliers removed: 1\n" in (issues / "summary.txt").read_text()
        assert metrics[variant, "issue-date", "pooled"]["recall"] == "1.0"
    assert metrics["L", "none", "pooled"]["entries"] == "1"
    matrix = {row["variant"]: row for row in _rows(issues / "overlap_none.csv")}
    assert matrix["B"]["B"] == matrix["B"]["L"] == "" and matrix["L"]["R"] == "1.0"
    exclusive = {(row["variant"], row["regime"]): row for row in _rows(issues / "exclusive.csv")}
    assert exclusive["B", "none"]["exclusive"] == exclusive["L", "none"]["exclusive"] == ""
    eval_dir = tmp_path / "eval" / "supported"
    dropped = {
        (row["variant"], row["regime"])
        for row in _rows(eval_dir / "outliers.csv")
        if row["repo"] == "selection_split"
    }
    assert ("MA", "best-case-date") in dropped and ("L", "best-case-date") not in dropped
    exclusive = {(row["variant"], row["regime"]): row for row in _rows(eval_dir / "exclusive.csv")}
    assert len(exclusive) == 18
    for regime in ("none", "issue-date", "best-case-date"):
        assert exclusive["L", regime]["exclusive"] == ""
    matrix = {row["variant"]: row for row in _rows(eval_dir / "overlap_best-case-date.csv")}
    assert matrix["L"]["MA"] == ""


def test_one_detect_scores_each_slice_as_a_detect_over_it(suite, suite_dataset, suite_ranges_path, tmp_path):
    # languages, issues and a missing clone vary across the desk entries; the
    # Go entries are unsupported, and the Ruby slice holds only the entry
    # whose clone is missing, so evaluating it is refused
    base = min(i.opened_at for e in suite_dataset.entries for i in e.issues)
    languages = [("C",), ("Java",), ("Python",), ("C", "Java"), ("Go",)]
    entries = [
        replace(
            e,
            languages=languages[i % len(languages)],
            issues=e.issues or ((IssueRef("", base + timedelta(minutes=i)),) if i % 3 else ()),
        )
        for i, e in enumerate(suite_dataset.entries)
    ]
    entries.append(OracleEntry("absent", "d" * 40, ("e" * 40,), (IssueRef("", base),), ("Ruby",)))
    dataset_path = tmp_path / "oracle.json"
    save_oracle(OracleDataset(entries), dataset_path)
    clones_root = str(next(iter(suite.values())).path.parent)
    common = ["--clones-root", clones_root, "--refactorings", str(suite_ranges_path), "--workers", "1"]
    thresholds = {"eval": [], "eval_t": ["--outlier-threshold", "1"]}

    driver = runpy.run_path(str(DRIVER))
    for name, threshold in thresholds.items():
        code = driver["main"](["--dataset", str(dataset_path), *common, *threshold,
                               "--out-dir", str(tmp_path / "new" / name)])
        assert code == 1  # detect skips the missing clone, and Ruby is refused

    supported = subset_supported(OracleDataset(entries))
    slices = {"supported": supported, "issues": subset_issues(supported)}
    slices.update((lang.lower(), subset_language(supported, lang)) for lang in ("C", "Java", "Python", "Ruby"))
    for name in thresholds:  # a refused slice writes no directory
        assert sorted(p.name for p in (tmp_path / "new" / name / "eval").iterdir()) == sorted(slices.keys() - {"ruby"})
    refused = set()
    for slice_name, cut in slices.items():
        ref = tmp_path / "ref" / slice_name
        ref.mkdir(parents=True)
        save_oracle(cut, ref / "oracle.json")
        cli(["detect", "--dataset", str(ref / "oracle.json"), *common,
             "--presets", DEFAULT_PRESETS + ",RA-lite", "--regime", ",".join(REGIMES),
             "--out-dir", str(ref / "runs")])
        for name, threshold in thresholds.items():
            rc = cli(["evaluate", "--runs-dir", str(ref / "runs"), "--dataset", str(ref / "oracle.json"),
                      *threshold, "--out-dir", str(ref / name)])
            ours = tmp_path / "new" / name / "eval" / slice_name
            assert (rc == 1) != (ref / name).exists(), (slice_name, name)
            if rc:
                refused.add(slice_name)
                continue
            files = sorted(p.name for p in (ref / name).iterdir())
            assert files == sorted(p.name for p in ours.iterdir()), (slice_name, name)
            for file in files:
                assert (ref / name / file).read_bytes() == (ours / file).read_bytes(), (slice_name, name, file)
    assert refused == {"ruby"}


def test_a_slice_without_entries_is_skipped_with_a_note(tmp_path, capsys):
    entry = OracleEntry("absent", "d" * 40, ("e" * 40,), languages=("C",))
    save_oracle(OracleDataset([entry]), tmp_path / "oracle.json")
    driver = runpy.run_path(str(DRIVER))
    args = ["--dataset", str(tmp_path / "oracle.json"), "--clones-root", str(tmp_path)]
    code = driver["main"]([*args, "--out-dir", str(tmp_path / "out")])
    assert code == 1  # the one entry's clone is missing
    assert "slice issues: no entries, skipped" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "out" / "slices").iterdir()) == ["c.json", "supported.json"]


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
