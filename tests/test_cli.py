"""End-to-end command-line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import errno
import json
import os
import shutil
import subprocess
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from bictrace import cli, gitrepo
from bictrace.cli import main
from bictrace.evaluate import DetectionRun, load_run, save_run
from bictrace.oracle import OracleDataset, OracleEntry, save_oracle
from desk import GitScripter

EVENTS = [
    {"repo": "org/app", "sha": "aal", "message": "fixes a search bug introduced by 2508e12"},
    {"repo": "org/app", "sha": "bbl", "message": "merge branch with bug fixes"},
    {"repo": "org/app", "sha": "ccl", "message": "fix the bug from a1b2c3d4"},
]

PARSES = """\
# commit = aal
# text = fixes a search bug introduced by 2508e12
1\tfixes\tfix\t0\troot
2\ta\ta\t4\tdet
3\tsearch\tsearch\t4\tcompound
4\tbug\tbug\t1\tobj
5\tintroduced\tintroduce\t4\tacl
6\tby\tby\t7\tcase
7\t2508e12\t2508e12\t5\tobl
"""


def _write_events(path: Path) -> Path:
    path.write_text("".join(json.dumps(e) + "\n" for e in EVENTS))
    return path


def _read_ndjson(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


# --- mine ---------------------------------------------------------------------


def test_mine_with_parses(tmp_path, capsys):
    events = _write_events(tmp_path / "events.ndjson")
    parses = tmp_path / "parses.txt"
    parses.write_text(PARSES)
    out = tmp_path / "mined.ndjson"

    code = main(["mine", str(events), "--parses", str(parses), "--out", str(out)])
    assert code == 0
    records = _read_ndjson(out)
    assert "summary" in records[-1]
    by_commit = {r["commit"]: r for r in records[:-1]}
    assert by_commit["aal"]["verdict"] == "accepted"
    assert by_commit["aal"]["matches"] == [
        {"sentence": 0, "hash": "2508e12", "heuristic": "h2"}
    ]
    assert by_commit["bbl"]["reason"] == "prefilter"
    assert by_commit["ccl"]["reason"] == "parse-unavailable"
    summary = records[-1]["summary"]
    assert summary["total"] == 3 and summary["accepted"] == 1
    assert "mined 3 events: 1 accepted" in capsys.readouterr().err


def test_mine_without_parses_warns(tmp_path, capsys):
    events = _write_events(tmp_path / "events.ndjson")
    out = tmp_path / "mined.ndjson"
    assert main(["mine", str(events), "--out", str(out)]) == 0
    assert "unparsed messages are rejected" in capsys.readouterr().err
    records = _read_ndjson(out)
    reasons = {r["commit"]: r.get("reason") for r in records[:-1]}
    assert reasons == {"aal": "parse-unavailable", "bbl": "prefilter", "ccl": "parse-unavailable"}


def test_mine_proximity_mode(tmp_path, capsys):
    events = _write_events(tmp_path / "events.ndjson")
    out = tmp_path / "mined.ndjson"
    assert main(["mine", str(events), "--proximity", "--out", str(out)]) == 0
    assert "degraded token-window mode" in capsys.readouterr().err
    records = _read_ndjson(out)
    by_commit = {r["commit"]: r for r in records[:-1]}
    assert by_commit["ccl"]["verdict"] == "accepted"
    assert by_commit["ccl"]["matches"][0]["heuristic"] == "proximity"
    assert by_commit["aal"]["verdict"] == "rejected"  # no parse, window too noisy


def test_mine_gharchive_format(tmp_path):
    push = {
        "type": "PushEvent",
        "repo": {"name": "org/app"},
        "payload": {"commits": [{"sha": "ccl", "message": "fix the bug from a1b2c3d4"}]},
    }
    ignored = {"type": "WatchEvent"}
    events = tmp_path / "archive.ndjson"
    events.write_text(json.dumps(push) + "\n" + json.dumps(ignored) + "\n")
    out = tmp_path / "mined.ndjson"
    code = main(
        ["mine", str(events), "--format", "gharchive", "--proximity", "--out", str(out)]
    )
    assert code == 0
    records = _read_ndjson(out)
    assert records[0]["verdict"] == "accepted"
    assert records[-1]["summary"]["total"] == 1


def test_mine_missing_file_fails(tmp_path, capsys):
    assert main(["mine", str(tmp_path / "nope.ndjson")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "layout, line",
    [
        ("plain", "{not json"),
        ("plain", '"repo sha message"'),
        ("plain", "[1]"),
        ("gharchive", "{not json"),
        ("gharchive", "[1]"),
        ("gharchive", '"PushEvent"'),
        ("gharchive", '{"type": "PushEvent", "repo": "org/app", "payload": {"commits": []}}'),
        ("gharchive", '{"type": "PushEvent", "repo": {"name": "a"}, "payload": {"commits": [5]}}'),
        ("plain", '{"repo": "org/app", "sha": "abc1234", "message": 5}'),
    ],
)
def test_mine_rejects_a_malformed_event_line(tmp_path, capsys, layout, line):
    first = EVENTS[0] if layout == "plain" else {"type": "WatchEvent"}
    events = tmp_path / "events.ndjson"
    events.write_text(json.dumps(first) + "\n" + line + "\n")
    args = ["mine", str(events), "--format", layout, "--proximity", "--out", str(tmp_path / "o")]
    assert main(args) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {events}:2: ")


def test_mine_fails_on_a_bad_parse_row_of_a_prefiltered_message(tmp_path, capsys):
    # rows are checked when the file is read, not when a tree is wanted:
    # "bbl" never passes the prefilter, yet its malformed row ends the run
    events = _write_events(tmp_path / "events.ndjson")
    parses = tmp_path / "parses.txt"
    parses.write_text(PARSES + "\n# commit = bbl\n# text = merge\n1\tmerge\tmerge\t0\n")
    out = tmp_path / "mined.ndjson"
    assert main(["mine", str(events), "--parses", str(parses), "--out", str(out)]) == 1
    assert f"error: {parses}:13: expected 5 tab-separated columns" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header, line_no", [("# commit", 1), ("# commits squashed = 3", 3)])
def test_mine_rejects_a_malformed_parse_header(tmp_path, capsys, header, line_no):
    # only a comment keyed exactly "commit" or "text" is a header; the
    # second file's row then comes before any commit
    events = _write_events(tmp_path / "events.ndjson")
    parses = tmp_path / "parses.txt"
    parses.write_text(f"{header}\n# text = fix\n1\tfix\tfix\t0\troot\n")
    assert main(["mine", str(events), "--parses", str(parses), "--out", str(tmp_path / "o")]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {parses}:{line_no}: ")


# a bad byte far past the decoder's first read, after lines that end in
# "\r\n" and "\r" as well as "\n": the line counted is the line read
_FILLER = ["\n", "\r\n", "\r"] * 1000


@pytest.mark.parametrize("layout", ["plain", "gharchive"])
def test_mine_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, layout):
    first = EVENTS[0] if layout == "plain" else {"type": "WatchEvent"}
    events = tmp_path / "events.ndjson"
    events.write_bytes(
        "".join(json.dumps(first) + end for end in _FILLER).encode()
        + b'{"repo": "org/app", "sha": "a", "message": "fix \xff bug"}\n'
    )
    args = ["mine", str(events), "--format", layout, "--proximity", "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    errors = [l for l in err.splitlines() if l.startswith("error:")]
    assert errors == [f"error: {events}:{len(_FILLER) + 1}: not valid UTF-8"]
    assert "Traceback" not in err


def test_mine_names_the_parse_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    events = _write_events(tmp_path / "events.ndjson")
    parses = tmp_path / "parses.txt"
    parses.write_bytes(
        "".join(f"# commit = c{i}{end}" for i, end in enumerate(_FILLER)).encode()
        + b"# text = fix\n1\tfix\xff\tfix\t0\troot\n"
    )
    assert main(["mine", str(events), "--parses", str(parses), "--out", str(tmp_path / "o")]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert errors == [f"error: {parses}:{len(_FILLER) + 2}: not valid UTF-8"]


def test_mine_writes_nothing_on_a_bad_event_line_past_many_good_ones(tmp_path, capsys):
    # the records before the bad line are already spilled: none reach --out
    events = tmp_path / "events.ndjson"
    good = "".join(json.dumps({**EVENTS[2], "sha": f"c{i}"}) + "\n" for i in range(1000))
    events.write_text(good + "{not json\n")
    out = tmp_path / "mined.ndjson"
    assert main(["mine", str(events), "--proximity", "--out", str(out)]) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {events}:1001: ")
    assert not out.exists()


def test_mine_writes_the_same_bytes_to_stdout_as_to_out(tmp_path, capsys, monkeypatch):
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    monkeypatch.setenv("TMPDIR", str(spill_dir))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    fork = {**EVENTS[2], "repo": "fork/app", "message": EVENTS[2]["message"] + " \u00e9\U0001f600"}
    events = tmp_path / "events.ndjson"
    events.write_text("".join(json.dumps(e) + "\n" for e in [fork, *EVENTS, fork]))
    parses = tmp_path / "parses.txt"
    parses.write_text(PARSES)
    argv = ["mine", str(events), "--parses", str(parses), "--proximity"]
    out = tmp_path / "mined.ndjson"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()
    records = _read_ndjson(out)
    assert records[0]["flags"] == ["duplicate-unresolved"]
    assert records[1]["matches"][0]["heuristic"] == "h2"  # read back from the parse spill
    assert list(spill_dir.iterdir()) == []  # neither spill was ever a named file


# --- detect -------------------------------------------------------------------


@pytest.fixture()
def corpus(suite, suite_dataset, tmp_path):
    """Dataset file plus clones root for the scripted suite."""
    dataset_path = tmp_path / "oracle.json"
    save_oracle(suite_dataset, dataset_path)
    clones_root = next(iter(suite.values())).path.parent
    return dataset_path, clones_root


def test_detect_writes_one_run_file_per_preset(corpus, suite, tmp_path, capsys):
    dataset_path, clones_root = corpus
    out_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.glob("*.json"))
    assert names == [
        "ag_none.json", "b_none.json", "l_none.json", "ma_none.json", "r_none.json",
    ]
    for preset in ("B", "AG", "MA", "L", "R"):
        run = load_run(out_dir / f"{preset.lower()}_none.json")
        assert run.variant == preset and run.regime == "none"
        assert run.skipped == []
        for name, sc in suite.items():
            got = set(run.identified[(name, sc.fix)])
            assert got == set(sc.expected[preset]), f"{name} under {preset}"
    assert "wrote" in capsys.readouterr().err



def test_detect_repeated_preset_runs_once(corpus, tmp_path, monkeypatch):
    import bictrace.engine as engine

    dataset_path, clones_root = corpus
    calls: list[int] = []
    run_configs = engine.run_configs

    def counting(repo, fix, runs, *args, **kwargs):
        calls.append(len(runs))
        return run_configs(repo, fix, runs, *args, **kwargs)

    monkeypatch.setattr(engine, "run_configs", counting)
    outs = {}
    for presets in ("MA", "MA,ma"):
        out_dir = tmp_path / presets.replace(",", "_")
        code = main(
            [
                "detect",
                "--dataset", str(dataset_path),
                "--clones-root", str(clones_root),
                "--presets", presets,
                "--workers", "1",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert [p.name for p in out_dir.glob("*.json")] == ["ma_none.json"]
        outs[presets] = (out_dir / "ma_none.json").read_bytes()
    assert outs["MA,ma"] == outs["MA"]
    # one (preset, regime) pair per entry, not two
    assert set(calls) == {1}


def test_detect_repeated_regime_runs_once(corpus, suite_dataset, tmp_path, monkeypatch, capsys):
    import bictrace.engine as engine

    _, clones_root = corpus
    ghost = OracleEntry(
        repo="ghost/app", fix_commit="f" * 40, true_bics=("b" * 40,), clone_path="ghost"
    )
    dataset_path = tmp_path / "with_ghost.json"
    save_oracle(
        OracleDataset(entries=[*suite_dataset.entries, ghost],
                      provenance=suite_dataset.provenance),
        dataset_path,
    )
    calls: list[int] = []
    run_configs = engine.run_configs

    def counting(repo, fix, runs, *args, **kwargs):
        calls.append(len(runs))
        return run_configs(repo, fix, runs, *args, **kwargs)

    monkeypatch.setattr(engine, "run_configs", counting)
    outs, errs = {}, {}
    for regimes in ("none", "none,none"):
        out_dir = tmp_path / regimes.replace(",", "_")
        code = main(
            [
                "detect",
                "--dataset", str(dataset_path),
                "--clones-root", str(clones_root),
                "--presets", "MA",
                "--regime", regimes,
                "--workers", "1",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 2
        assert [p.name for p in out_dir.glob("*.json")] == ["ma_none.json"]
        outs[regimes] = (out_dir / "ma_none.json").read_bytes()
        errs[regimes] = capsys.readouterr().err.replace(str(out_dir), "OUT")
    assert outs["none,none"] == outs["none"]
    # the skip reads as under one regime: no "under none" suffix
    assert "skipped ghost/app" in errs["none"]
    assert errs["none,none"] == errs["none"]
    assert set(calls) == {1}


def test_detect_ra_lite_with_ranges(corpus, suite, suite_ranges_path, tmp_path):
    dataset_path, clones_root = corpus
    out_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "RA-lite",
            "--refactorings", str(suite_ranges_path),
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    run = load_run(out_dir / "ra-lite_none.json")
    for name, sc in suite.items():
        assert set(run.identified[(name, sc.fix)]) == set(sc.expected["RA-lite"]), name


def test_detect_ra_lite_without_ranges_fails(corpus, tmp_path, capsys):
    dataset_path, clones_root = corpus
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "B,RA-lite",
            "--out-dir", str(tmp_path / "runs"),
        ]
    )
    assert code == 1
    assert "RA-lite requires --refactorings" in capsys.readouterr().err


def test_detect_issue_date_regime_flags_dateless_entries(corpus, suite, tmp_path):
    dataset_path, clones_root = corpus
    out_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "MA",
            "--regime", "issue-date",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    run = load_run(out_dir / "ma_issue-date.json")
    dated = suite["issue_date"]
    assert set(run.identified[("issue_date", dated.fix)]) == set(
        dated.notes["issue_filtered"]
    )
    # every entry without an issue reference carries the flag
    flagged = {key for key, flags in run.entry_flags.items() if "no-issue-dates" in flags}
    dateless = {
        (name, sc.fix) for name, sc in suite.items() if not sc.issues
    }
    assert flagged == dateless


def test_detect_best_case_regime_preserves_true_positives(corpus, suite, tmp_path):
    dataset_path, clones_root = corpus
    out_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "MA",
            "--regime", "best-case-date",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    run = load_run(out_dir / "ma_best-case-date.json")
    for name, sc in suite.items():
        got = set(run.identified[(name, sc.fix)])
        plain = set(sc.expected["MA"])
        assert got <= plain, name
        assert plain & set(sc.true_bics) <= got, name


def test_detect_skips_missing_clone(corpus, suite_dataset, tmp_path, capsys):
    _, clones_root = corpus
    with_ghost = OracleDataset(
        entries=list(suite_dataset.entries)
        + [
            OracleEntry(
                repo="ghost/app",
                fix_commit="f" * 40,
                true_bics=("b" * 40,),
                clone_path="ghost",
            )
        ],
        provenance=suite_dataset.provenance,
    )
    dataset_path = tmp_path / "with_ghost.json"
    save_oracle(with_ghost, dataset_path)
    out_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "B",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 2
    assert "skipped ghost/app" in capsys.readouterr().err
    run = load_run(out_dir / "b_none.json")
    assert ("ghost/app", "f" * 40) in run.skipped
    assert ("ghost/app", "f" * 40) not in run.identified


def test_detect_skips_unresolvable_fix(corpus, suite_dataset, tmp_path, capsys):
    _, clones_root = corpus
    sick = OracleDataset(
        entries=list(suite_dataset.entries)
        + [
            OracleEntry(
                repo="plain_bug_fix",
                fix_commit="0" * 40,
                true_bics=("b" * 40,),
                clone_path="plain_bug_fix",
            )
        ],
    )
    dataset_path = tmp_path / "sick.json"
    save_oracle(sick, dataset_path)
    out_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "B",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 2
    assert "UnknownCommitError" in capsys.readouterr().err
    run = load_run(out_dir / "b_none.json")
    assert ("plain_bug_fix", "0" * 40) in run.skipped


def test_detect_waits_for_every_git_process(
    corpus, suite, tmp_path, monkeypatch, batch_processes
):
    dataset_path, clones_root = corpus
    kept = []

    class Kept(gitrepo.GitRepo):
        # outlives detect, so only close() can have stopped its process
        def __init__(self, path):
            super().__init__(path)
            kept.append(self)

    monkeypatch.setattr(cli, "GitRepo", Kept)
    argv = ["detect", "--dataset", str(dataset_path), "--clones-root", str(clones_root)]
    assert main([*argv, "--workers", "2", "--out-dir", str(tmp_path / "runs")]) == 0
    # one batch process of each kind per repository, each reaped before
    # detect returns
    assert len(kept) == len(suite)
    for kind in ("cat-file", "diff-tree"):
        started = [proc.args[2] for proc in batch_processes if kind in proc.args]
        assert sorted(started) == sorted(repo.path for repo in kept), kind
    assert all(proc.returncode is not None for proc in batch_processes)


def test_detect_skips_an_entry_whose_git_times_out(
    corpus, suite_dataset, tmp_path, monkeypatch, capsys, git_subcommands
):
    dataset_path, clones_root = corpus
    real_blame = gitrepo.GitRepo.blame
    real_diff = gitrepo.GitRepo.diff_against_parent

    def blame(self, *args, **kwargs):
        if Path(self.path).name != "plain_bug_fix":
            return real_blame(self, *args, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(gitrepo, "GIT_TIMEOUT_S", 1e-6)
            return real_blame(self, *args, **kwargs)

    def diff_against_parent(self, commit_id, parent_id):
        if Path(self.path).name != "cosmetic_chain":
            return real_diff(self, commit_id, parent_id)
        self.commit_meta(commit_id)  # only the diff-tree request runs late
        with monkeypatch.context() as m:
            m.setattr(gitrepo, "GIT_TIMEOUT_S", 1e-6)
            return real_diff(self, commit_id, parent_id)

    monkeypatch.setattr(gitrepo.GitRepo, "blame", blame)
    monkeypatch.setattr(gitrepo.GitRepo, "diff_against_parent", diff_against_parent)
    argv = ["detect", "--dataset", str(dataset_path), "--clones-root", str(clones_root),
            "--presets", "B", "--workers", "1"]
    assert main([*argv, "--out-dir", str(tmp_path / "hung")]) == 2
    err = capsys.readouterr().err
    assert "skipped plain_bug_fix" in err and "GitTimeoutError: git blame" in err
    assert "skipped cosmetic_chain" in err and "GitTimeoutError: git diff-tree" in err
    assert "diff" not in git_subcommands  # no one-shot diff waits as long again
    run = load_run(tmp_path / "hung" / "b_none.json")
    assert sorted(key[0] for key in run.skipped) == ["cosmetic_chain", "plain_bug_fix"]
    assert len(run.identified) == len(suite_dataset.entries) - 2

    # a probe that does not answer is no missing clone
    monkeypatch.setattr(gitrepo, "GIT_TIMEOUT_S", 1e-6)
    assert main([*argv, "--out-dir", str(tmp_path / "all")]) == 1
    err = capsys.readouterr().err
    assert "GitTimeoutError: git rev-parse" in err and "clone-missing" not in err


def test_detect_skips_an_entry_whose_git_cannot_start(
    corpus, suite_dataset, tmp_path, monkeypatch, capsys
):
    dataset_path, clones_root = corpus
    real_blame = gitrepo.GitRepo.blame

    def blame(self, *args, **kwargs):
        if Path(self.path).name == "plain_bug_fix":
            raise OSError(errno.E2BIG, os.strerror(errno.E2BIG), "git")
        return real_blame(self, *args, **kwargs)

    monkeypatch.setattr(gitrepo.GitRepo, "blame", blame)
    argv = ["detect", "--dataset", str(dataset_path), "--clones-root", str(clones_root),
            "--presets", "B", "--workers", "2"]
    assert main([*argv, "--out-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "skipped plain_bug_fix" in err and "OSError: [Errno 7] Argument list too long" in err
    run = load_run(tmp_path / "runs" / "b_none.json")
    assert [key[0] for key in run.skipped] == ["plain_bug_fix"]
    assert len(run.identified) == len(suite_dataset.entries) - 1


def test_detect_blames_a_fix_too_large_for_one_range_per_line(tmp_path, capsys):
    # the fix deletes a file whose lines, passed to git blame as one
    # "-L n,n" each, would exceed the system's argument limit
    lines = os.sysconf("SC_ARG_MAX") // 8
    s = GitScripter(tmp_path / "clones" / "big")
    s.write("table.c", "int v;\n" * lines)
    bic = s.commit("add the table")
    s.delete("table.c")
    fix = s.commit("drop the table")
    s.finish()
    dataset_path = tmp_path / "oracle.json"
    save_oracle(OracleDataset(entries=[OracleEntry("big", fix, (bic,))]), dataset_path)
    argv = ["detect", "--dataset", str(dataset_path), "--clones-root", str(tmp_path / "clones"),
            "--presets", "B", "--workers", "1", "--out-dir", str(tmp_path / "runs")]
    assert main(argv) == 0, capsys.readouterr().err
    run = load_run(tmp_path / "runs" / "b_none.json")
    assert run.identified == {("big", fix): frozenset({bic})}


def _git(path, *args: str, stdin: str = "") -> str:
    return subprocess.run(
        ["git", "-C", str(path), *args], input=stdin, capture_output=True, text=True, check=True
    ).stdout


def test_detect_skips_a_fix_whose_committer_time_is_out_of_range(tmp_path, capsys):
    s = GitScripter(tmp_path / "clones" / "app")
    s.write("core.c", "int a;\n")
    bic = s.commit("add a")
    s.write("core.c", "int a = 1;\n")
    fix = s.commit("fix a")
    s.finish()
    # the same fix again, committed in a year no datetime holds
    tree = _git(s.path, "rev-parse", f"{fix}^{{tree}}").strip()
    far = _git(
        s.path, "hash-object", "-t", "commit", "--literally", "-w", "--stdin",
        stdin=f"tree {tree}\nparent {bic}\nauthor A <a@example.org> 1000000000 +0000\n"
        "committer C <c@example.org> 99999999999999 +0000\n\nfix a\n",
    ).strip()
    dataset_path = tmp_path / "oracle.json"
    save_oracle(
        OracleDataset(entries=[OracleEntry("app", fix, (bic,)), OracleEntry("app", far, (bic,))]),
        dataset_path,
    )
    argv = ["detect", "--dataset", str(dataset_path), "--clones-root", str(tmp_path / "clones"),
            "--presets", "B,MA", "--workers", "1", "--out-dir", str(tmp_path / "runs")]
    assert main(argv) == 2
    assert f"skipped app {far}" in capsys.readouterr().err
    for name in ("b_none.json", "ma_none.json"):
        run = load_run(tmp_path / "runs" / name)
        assert run.identified == {("app", fix): frozenset({bic})}
        assert run.skipped == [("app", far)]


def test_detect_all_missing_is_hard_failure(tmp_path, capsys):
    ds = OracleDataset(
        entries=[
            OracleEntry(
                repo="ghost/app", fix_commit="f" * 40, true_bics=("b" * 40,)
            )
        ]
    )
    dataset_path = tmp_path / "ghost.json"
    save_oracle(ds, dataset_path)
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(tmp_path / "empty"),
            "--presets", "B",
            "--out-dir", str(tmp_path / "runs"),
        ]
    )
    assert code == 1
    assert "no entry could be processed" in capsys.readouterr().err


def test_detect_reads_a_list_of_flat_records(corpus, suite_dataset, tmp_path):
    dataset_path, clones_root = corpus
    records = []
    for e in suite_dataset.entries:
        base = {
            "repo_name": e.repo, "fix_commit_hash": e.fix_commit,
            "languages": list(e.languages), "clone_path": e.clone_path,
        }
        records += [{**base, "inducing_commit_hash": b} for b in e.true_bics]
        records += [
            {**base, "earliest_issue_date": i.opened_at.isoformat(), "issue_url": i.url}
            for i in e.issues
        ]
    flat_path = tmp_path / "flat.json"
    flat_path.write_text(json.dumps(records))

    for dataset, out in ((dataset_path, "doc"), (flat_path, "flat")):
        code = main(
            [
                "detect",
                "--dataset", str(dataset),
                "--clones-root", str(clones_root),
                "--presets", "B,MA",
                "--regime", "none,issue-date",
                "--out-dir", str(tmp_path / out),
            ]
        )
        assert code == 0
    names = sorted(p.name for p in (tmp_path / "doc").glob("*.json"))
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "flat" / name).read_bytes() == (tmp_path / "doc" / name).read_bytes()


@pytest.mark.parametrize(
    "doc, where",
    [
        (
            [{"repo_name": "org/app", "fix_commit_hash": "f" * 40, "inducing_commit_hash": 5}],
            "record 0",
        ),
        (
            {"entries": [{"repo": "a", "fix_commit": "f" * 40, "true_bics": ["a" * 40],
                          "languages": [5]}]},
            "entry 0",
        ),
        (
            {"entries": [{"repo": "a", "fix_commit": "f" * 40, "true_bics": ["a" * 40],
                          "issues": [5]}]},
            "entry 0",
        ),
        ({"counts": 5, "entries": []}, "counts is not an object"),
        (
            [{"repo_name": "org/app", "fix_commit_hash": "f" * 40, "inducing_commit_hash": "a" * 40},
             {"repo_name": "org/app", "fix_commit_hash": "e" * 40, "inducing_commit_hash": "a" * 40,
              "earliest_issue_date": "last tuesday"}],
            "record 1",
        ),
        (
            {"entries": [{"repo": "a", "fix_commit": "f" * 40, "true_bics": ["a" * 40]},
                         {"repo": "a", "fix_commit": "e" * 40, "true_bics": ["a" * 40],
                          "issues": [{"url": "u", "opened_at": "2020-01-01"}]}]},
            "entry 1",
        ),
        (
            {"entries": [{"repo": "a\0b", "fix_commit": "f" * 40, "true_bics": ["a" * 40]}]},
            "entry 0",
        ),
        (
            {"entries": [{"repo": "a", "fix_commit": "f" * 40, "true_bics": ["a" * 40],
                          "clone_path": "a\0b"}]},
            "entry 0",
        ),
    ],
)
def test_detect_rejects_a_dataset_field_of_the_wrong_type(tmp_path, capsys, doc, where):
    dataset = tmp_path / "oracle.json"
    dataset.write_text(json.dumps(doc))
    argv = ["detect", "--dataset", str(dataset), "--clones-root", str(tmp_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dataset}: {where}: ") and err.count("\n") == 1


def test_detect_rejects_a_dataset_that_is_not_utf8(tmp_path, capsys):
    dataset = tmp_path / "oracle.json"
    dataset.write_bytes(b'{"entries": [], "note": "\xff"}')
    argv = ["detect", "--dataset", str(dataset), "--clones-root", str(tmp_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dataset}: not valid UTF-8: ") and err.count("\n") == 1


def test_detect_rejects_refactorings_that_are_not_utf8(corpus, tmp_path, capsys):
    dataset_path, clones_root = corpus
    ranges = tmp_path / "ranges.csv"
    ranges.write_bytes(f"{'b' * 40},x\xff.c,1,1\n".encode("latin-1"))
    argv = ["detect", "--dataset", str(dataset_path), "--clones-root", str(clones_root)]
    argv += ["--presets", "RA-lite", "--refactorings", str(ranges)]
    assert main([*argv, "--out-dir", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ranges}: not valid UTF-8: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "row, message",
    [
        ("abc,core.c,1,2", "refactoring range needs a full 40-char hash, got 'abc'"),
        (f"{'a' * 40},core.c,5,2", "bad refactoring range 5-2 for core.c"),
        # a superscript digit passes str.isdigit but not int()
        (f"{'a' * 40},core.c,\u00b2,3", "line numbers must be integers"),
    ],
)
def test_detect_rejects_a_bad_refactoring_range(corpus, tmp_path, capsys, row, message):
    dataset_path, clones_root = corpus
    ranges = tmp_path / "ranges.csv"
    ranges.write_text(
        f"commit_hash,file_path,start_line,end_line\n{'b' * 40},x.c,1,1\n{row}\n",
        encoding="utf-8",
    )
    argv = ["detect", "--dataset", str(dataset_path), "--clones-root", str(clones_root)]
    argv += ["--presets", "RA-lite", "--refactorings", str(ranges)]
    assert main([*argv, "--out-dir", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ranges}:3: {message}\n"


def test_detect_needs_clones_root(corpus, tmp_path, monkeypatch, capsys):
    dataset_path, _ = corpus
    monkeypatch.delenv("BICTRACE_CLONES_ROOT", raising=False)
    code = main(
        ["detect", "--dataset", str(dataset_path), "--out-dir", str(tmp_path / "r")]
    )
    assert code == 1
    assert "BICTRACE_CLONES_ROOT" in capsys.readouterr().err


def test_detect_clones_root_from_environment(corpus, tmp_path, monkeypatch):
    dataset_path, clones_root = corpus
    monkeypatch.setenv("BICTRACE_CLONES_ROOT", str(clones_root))
    out_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--presets", "B",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "b_none.json").is_file()


def test_detect_rejects_unknown_preset(corpus, tmp_path, capsys):
    dataset_path, clones_root = corpus
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "B,WRONG",
            "--out-dir", str(tmp_path / "runs"),
        ]
    )
    assert code == 1
    assert "unknown preset" in capsys.readouterr().err


def test_detect_rejects_empty_preset_list(corpus, tmp_path, capsys):
    dataset_path, clones_root = corpus
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", " , ",
            "--out-dir", str(tmp_path / "runs"),
        ]
    )
    assert code == 1
    assert "no presets" in capsys.readouterr().err


ALL_REGIMES = ("none", "issue-date", "best-case-date")


def _detect_all_presets(dataset_path, clones_root, ranges_path, regime, out_dir):
    return main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--presets", "B,AG,MA,L,R,RA-lite",
            "--refactorings", str(ranges_path),
            "--regime", regime,
            "--workers", "1",
            "--out-dir", str(out_dir),
        ]
    )


def _worst(codes):
    return 1 if 1 in codes else max(codes)


def test_detect_regime_list_matches_one_call_per_regime(
    corpus, suite, suite_dataset, suite_ranges_path, tmp_path
):
    _, clones_root = corpus
    plain = suite["plain_bug_fix"]
    unresolvable = ("plain_bug_fix", "0" * 40)
    bic_missing = ("plain_bug_fix", plain.labels["c1"])
    dataset = OracleDataset(
        entries=list(suite_dataset.entries)
        + [
            OracleEntry(repo=repo, fix_commit=fix, true_bics=("b" * 40,), clone_path=repo)
            for repo, fix in (unresolvable, bic_missing)
        ],
    )
    dataset_path = tmp_path / "sick.json"
    save_oracle(dataset, dataset_path)

    single = tmp_path / "single"
    codes = [
        _detect_all_presets(dataset_path, clones_root, suite_ranges_path, regime, single)
        for regime in ALL_REGIMES
    ]
    combined = tmp_path / "combined"
    code = _detect_all_presets(
        dataset_path, clones_root, suite_ranges_path, ",".join(ALL_REGIMES), combined
    )
    assert code == _worst(codes) == 2

    names = sorted(p.name for p in single.glob("*.json"))
    assert len(names) == 18
    assert names == sorted(p.name for p in combined.glob("*.json"))
    for name in names:
        assert (single / name).read_bytes() == (combined / name).read_bytes(), name

    # a fix that fails is skipped in every regime, a true inducer missing
    # from the clone only where it sets the cutoff
    assert load_run(combined / "b_none.json").skipped == [unresolvable]
    assert load_run(combined / "b_issue-date.json").skipped == [unresolvable]
    assert load_run(combined / "b_best-case-date.json").skipped == sorted(
        [unresolvable, bic_missing]
    )


def test_detect_regime_list_exits_with_the_worst_status(suite, tmp_path, capsys):
    plain = suite["plain_bug_fix"]
    dataset = OracleDataset(
        entries=[
            OracleEntry(
                repo="plain_bug_fix", fix_commit=fix, true_bics=("b" * 40,),
                clone_path="plain_bug_fix",
            )
            for fix in (plain.labels["c1"], "0" * 40)
        ]
    )
    dataset_path = tmp_path / "sick.json"
    save_oracle(dataset, dataset_path)
    argv = [
        "detect",
        "--dataset", str(dataset_path),
        "--clones-root", str(plain.path.parent),
        "--presets", "MA",
        "--out-dir", str(tmp_path / "runs"),
    ]
    regimes = ("best-case-date", "none", "issue-date")
    codes = [main([*argv, "--regime", regime]) for regime in regimes]
    assert codes == [1, 2, 2]
    capsys.readouterr()
    assert main([*argv, "--regime", ",".join(regimes)]) == 1
    assert "no entry could be processed under best-case-date" in capsys.readouterr().err


def test_detect_regime_list_traces_once(corpus, suite_ranges_path, tmp_path, git_subcommands):
    dataset_path, clones_root = corpus
    assert _detect_all_presets(
        dataset_path, clones_root, suite_ranges_path, "none", tmp_path / "one"
    ) == 0
    alone = list(git_subcommands)
    git_subcommands.clear()
    assert _detect_all_presets(
        dataset_path, clones_root, suite_ranges_path, ",".join(ALL_REGIMES), tmp_path / "all"
    ) == 0
    assert git_subcommands.count("blame") == alone.count("blame")
    assert len(git_subcommands) <= 170


def test_detect_walks_each_fix_once(corpus, suite_ranges_path, tmp_path, git_subcommands):
    dataset_path, clones_root = corpus
    assert _detect_all_presets(
        dataset_path, clones_root, suite_ranges_path, ",".join(ALL_REGIMES), tmp_path / "runs"
    ) == 0
    # one probe and one batch process of each kind per repository; blame
    # runs once per file a fix removed lines from and once per later round
    # of re-blames past cosmetic commits, whatever presets and regimes run
    assert Counter(git_subcommands) == {"blame": 14, "rev-parse": 13, "cat-file": 13, "diff-tree": 13}


def test_detect_rejects_unknown_regime(corpus, tmp_path, capsys):
    dataset_path, clones_root = corpus
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--regime", "none,late",
            "--out-dir", str(tmp_path / "runs"),
        ]
    )
    assert code == 1
    assert "unknown regime in 'none,late'" in capsys.readouterr().err


def test_detect_output_is_deterministic(corpus, tmp_path):
    dataset_path, clones_root = corpus
    dirs = [tmp_path / "one", tmp_path / "two"]
    for out_dir, workers in zip(dirs, ("1", "4")):
        code = main(
            [
                "detect",
                "--dataset", str(dataset_path),
                "--clones-root", str(clones_root),
                "--presets", "B,MA",
                "--workers", workers,
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
    for name in ("b_none.json", "ma_none.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# --- evaluate -------------------------------------------------------------------


@pytest.fixture()
def finished_runs(corpus, tmp_path):
    dataset_path, clones_root = corpus
    runs_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", str(clones_root),
            "--out-dir", str(runs_dir),
        ]
    )
    assert code == 0
    return dataset_path, runs_dir


def test_evaluate_prints_the_summary_it_wrote(finished_runs, tmp_path, capsys):
    dataset_path, runs_dir = finished_runs
    eval_dir = tmp_path / "eval"
    capsys.readouterr()
    code = main(
        [
            "evaluate",
            "--runs-dir", str(runs_dir),
            "--dataset", str(dataset_path),
            "--out-dir", str(eval_dir),
        ]
    )
    assert code == 0
    for name in ("metrics.csv", "overlap_none.csv", "exclusive.csv", "summary.txt"):
        assert (eval_dir / name).is_file()
    out = capsys.readouterr().out
    assert out.encode() == (eval_dir / "summary.txt").read_bytes()
    assert "oracle entries: 13" in out
    for preset in ("B", "AG", "MA", "L", "R"):
        assert preset in out


def test_evaluate_is_deterministic(finished_runs, tmp_path):
    dataset_path, runs_dir = finished_runs
    dirs = [tmp_path / "eval1", tmp_path / "eval2"]
    for eval_dir in dirs:
        assert (
            main(
                [
                    "evaluate",
                    "--runs-dir", str(runs_dir),
                    "--dataset", str(dataset_path),
                    "--out-dir", str(eval_dir),
                ]
            )
            == 0
        )
    for name in ("metrics.csv", "overlap_none.csv", "exclusive.csv", "summary.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_evaluate_with_outlier_threshold(finished_runs, tmp_path):
    dataset_path, runs_dir = finished_runs
    eval_dir = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--runs-dir", str(runs_dir),
            "--dataset", str(dataset_path),
            "--out-dir", str(eval_dir),
            "--outlier-threshold", "20",
        ]
    )
    assert code == 0
    assert (eval_dir / "outliers.csv").is_file()
    assert "outlier threshold: >20" in (eval_dir / "summary.txt").read_text()


def test_evaluate_scores_short_oracle_hashes_as_the_full_ones(finished_runs, tmp_path):
    dataset_path, runs_dir = finished_runs
    doc = json.loads(dataset_path.read_text())

    def evaluate_with(bics_length: int) -> dict[str, bytes]:
        for e in doc["entries"]:
            e["true_bics"] = [b[:bics_length] for b in e["true_bics"]]
        cut = tmp_path / f"oracle{bics_length}.json"
        cut.write_text(json.dumps(doc))
        eval_dir = tmp_path / f"eval{bics_length}"
        argv = ["evaluate", "--runs-dir", str(runs_dir), "--dataset", str(cut)]
        assert main([*argv, "--out-dir", str(eval_dir)]) == 0
        return {p.name: p.read_bytes() for p in eval_dir.iterdir()}

    full = evaluate_with(40)
    for length in range(39, 5, -1):
        assert evaluate_with(length) == full, length


def test_evaluate_rejects_two_runs_of_one_variant_and_regime(finished_runs, tmp_path, capsys):
    dataset_path, runs_dir = finished_runs
    copy = runs_dir / "b_none_copy.json"
    shutil.copyfile(runs_dir / "b_none.json", copy)
    eval_dir = tmp_path / "eval"
    capsys.readouterr()
    argv = ["evaluate", "--runs-dir", str(runs_dir), "--dataset", str(dataset_path)]
    assert main([*argv, "--out-dir", str(eval_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {runs_dir / 'b_none.json'} and {copy} both hold B under none\n"
    assert not eval_dir.exists()


def test_evaluate_empty_runs_dir_fails(corpus, tmp_path, capsys):
    dataset_path, _ = corpus
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(
        [
            "evaluate",
            "--runs-dir", str(empty),
            "--dataset", str(dataset_path),
            "--out-dir", str(tmp_path / "eval"),
        ]
    )
    assert code == 1
    assert "no run files" in capsys.readouterr().err


def test_evaluate_malformed_run_file_fails(corpus, tmp_path, capsys):
    dataset_path, _ = corpus
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    bad = runs_dir / "ma_none.json"
    bad.write_text('{"variant": "MA", "entries": [{"repo": "r", "fix_commit": "f"}]}')
    code = main(
        [
            "evaluate",
            "--runs-dir", str(runs_dir),
            "--dataset", str(dataset_path),
            "--out-dir", str(tmp_path / "eval"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: entry 0 missing field 'identified'")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entries, message",
    [
        ("[5]", "entry 0: expected a JSON object"),
        ('[], "skipped": [{}]', "skipped entry 0 missing field 'repo'"),
        ('[{"repo": "r", "fix_commit": "f", "identified": "1234567"}]', "entry 0: field"),
    ],
)
def test_evaluate_rejects_a_run_field_of_the_wrong_type(
    corpus, tmp_path, capsys, entries, message
):
    dataset_path, _ = corpus
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    bad = runs_dir / "ma_none.json"
    bad.write_text(f'{{"variant": "MA", "entries": {entries}}}')
    argv = ["evaluate", "--runs-dir", str(runs_dir), "--dataset", str(dataset_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1


def test_evaluate_rejects_a_run_file_that_is_not_utf8(corpus, tmp_path, capsys):
    dataset_path, _ = corpus
    runs_dir = tmp_path / "runs"
    runs_dir.mkdir()
    bad = runs_dir / "ma_none.json"
    bad.write_bytes(b'{"variant": "MA\xff", "entries": []}')
    argv = ["evaluate", "--runs-dir", str(runs_dir), "--dataset", str(dataset_path)]
    assert main([*argv, "--out-dir", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid UTF-8: ") and err.count("\n") == 1


REFUSALS = {
    "detect-no-clones-root": (
        ["detect", "--dataset", "oracle.json"],
        "--clones-root not given and $BICTRACE_CLONES_ROOT unset",
    ),
    "detect-no-presets": (
        ["detect", "--dataset", "oracle.json", "--clones-root", ".", "--presets", " ,"],
        "no presets requested",
    ),
    "detect-unknown-regime": (
        ["detect", "--dataset", "oracle.json", "--clones-root", ".", "--regime", "none,later"],
        "unknown regime in 'none,later'; expected some of none, issue-date, best-case-date",
    ),
    "detect-ra-lite-without-ranges": (
        ["detect", "--dataset", "oracle.json", "--clones-root", ".", "--presets", "B,RA-lite"],
        "RA-lite requires --refactorings",
    ),
    "detect-bad-dataset": (
        ["detect", "--dataset", "bad.json", "--clones-root", "."],
        "bad.json: entry 0: expected an object",
    ),
    "evaluate-no-run-files": (
        ["evaluate", "--runs-dir", "none", "--dataset", "oracle.json"],
        "no run files in none",
    ),
    "evaluate-duplicate-run": (
        ["evaluate", "--runs-dir", "dup", "--dataset", "oracle.json"],
        f"{Path('dup', 'b_none.json')} and {Path('dup', 'b_none_copy.json')} both hold B under none",
    ),
    "evaluate-bad-run-file": (
        ["evaluate", "--runs-dir", "badrun", "--dataset", "oracle.json"],
        f"{Path('badrun', 'b_none.json')}: entry 0 missing field 'identified'",
    ),
    "evaluate-empty-oracle": (
        ["evaluate", "--runs-dir", "runs", "--dataset", "empty.json"],
        "cannot evaluate against an empty oracle",
    ),
    "evaluate-threshold-below-1": (
        ["evaluate", "--runs-dir", "runs", "--dataset", "oracle.json", "--outlier-threshold", "0"],
        "outlier threshold must be >= 1",
    ),
    "evaluate-run-covers-no-entry": (
        ["evaluate", "--runs-dir", "runs", "--dataset", "other.json"],
        "run covers no oracle entries",
    ),
}


@pytest.mark.parametrize("argv, message", REFUSALS.values(), ids=REFUSALS)
def test_a_refusal_prints_one_error_and_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CLONES_ROOT_ENV, raising=False)
    fix, inducer = "f" * 40, "a" * 40
    save_oracle(OracleDataset([OracleEntry("org/app", fix, (inducer,))]), tmp_path / "oracle.json")
    save_oracle(OracleDataset([OracleEntry("org/lib", fix, (inducer,))]), tmp_path / "other.json")
    save_oracle(OracleDataset([]), tmp_path / "empty.json")
    (tmp_path / "bad.json").write_text('{"entries": [5]}')
    (tmp_path / "none").mkdir()
    run = DetectionRun("B", identified={("org/app", fix): frozenset({inducer, "b" * 40})})
    for name in ("runs/b_none.json", "dup/b_none.json", "dup/b_none_copy.json"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        save_run(run, tmp_path / name)
    (tmp_path / "badrun").mkdir()
    (tmp_path / "badrun" / "b_none.json").write_text(
        '{"variant": "B", "entries": [{"repo": "org/app", "fix_commit": "%s"}]}' % fix
    )
    capsys.readouterr()
    assert main([*argv, "--out-dir", "out"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()
