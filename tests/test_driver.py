"""The evaluation driver end to end over the scripted desk corpus."""

import csv
import re
import runpy
from pathlib import Path

DRIVER = Path(__file__).resolve().parent.parent / "scripts" / "run_full_evaluation.py"


def test_desk_run_over_every_regime(tmp_path, capsys):
    driver = runpy.run_path(str(DRIVER))
    code = driver["main"](
        [
            "--desk",
            "--regime", "none,issue-date,best-case-date",
            "--workers", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert len(list((tmp_path / "runs").glob("*.json"))) == 18
    summary = (tmp_path / "eval" / "summary.txt").read_text()
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
            "--regime", "none,issue-date,best-case-date",
            "--outlier-threshold", "1",
            "--workers", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    eval_dir = tmp_path / "eval"
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


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
