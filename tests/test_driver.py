"""The evaluation driver end to end over the scripted desk corpus."""

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
