"""Scripted git histories with hand-derived expected detections.

Each builder creates a small real repository exercising one tracing
behavior (cosmetic interposition, evil merges, renames, selection ties,
issue-date cutoffs, ...) and records, per preset, the exact commit set a
correct detector must report. The expectations were worked out by hand
from the history construction, not by running the detector, so the suite
doubles as a regression oracle.

Two scenarios are deliberate misses: a fix that only adds a guard line
and a fix whose blame trail ends at a revert. Their ``true_bics`` name
the commits a human would blame; every preset's expected output differs,
which is the documented failure mode, not a bug in the builders.
"""

from __future__ import annotations

import csv
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .engine import PRESET_NAMES
from .oracle import IssueRef, OracleDataset, OracleEntry

_BASE_TIME = datetime(2020, 1, 1, tzinfo=timezone.utc)
_IDENT = ("fixture", "fixture@example.invalid")


class GitScripter:
    """Builds a history commit by commit with plumbing commands.

    Commits are snapshots of the working directory; parents are given
    explicitly, so branches and merges (octopus included) need no
    checkout dance. Timestamps step by one minute per commit and the
    author identity is pinned, making every build byte-reproducible.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.head: str | None = None
        self.times: dict[str, datetime] = {}
        self._counter = 0
        self._git("init", "-q", "-b", "main")

    def _git(self, *args: str, env: dict | None = None) -> str:
        proc = subprocess.run(
            ["git", "-C", str(self.path), *args],
            capture_output=True,
            text=True,
            env={
                "GIT_CONFIG_GLOBAL": "/dev/null",
                "GIT_CONFIG_SYSTEM": "/dev/null",
                **(env or {}),
            },
        )
        if proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr}")
        return proc.stdout.strip()

    def write(self, rel: str, text: str) -> None:
        target = self.path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")

    def delete(self, rel: str) -> None:
        (self.path / rel).unlink()

    def rename(self, old: str, new: str) -> None:
        (self.path / old).rename(self.path / new)

    def commit(
        self, message: str, parents: list[str] | None = None, when: datetime | None = None
    ) -> str:
        """Commit the working directory; by default on top of the last
        commit, one minute after it."""
        if parents is None:
            parents = [self.head] if self.head else []
        if when is None:
            when = _BASE_TIME + timedelta(minutes=self._counter)
            self._counter += 1
        stamp = f"{int(when.timestamp())} +0000"
        name, email = _IDENT
        env = {
            "GIT_AUTHOR_NAME": name,
            "GIT_AUTHOR_EMAIL": email,
            "GIT_COMMITTER_NAME": name,
            "GIT_COMMITTER_EMAIL": email,
            "GIT_AUTHOR_DATE": stamp,
            "GIT_COMMITTER_DATE": stamp,
        }
        self._git("add", "-A", env=env)
        tree = self._git("write-tree", env=env)
        args = ["commit-tree", tree]
        for p in parents:
            args += ["-p", p]
        sha = self._git(*args, "-m", message, env=env)
        self.head = sha
        self.times[sha] = when
        return sha

    def finish(self) -> None:
        self._git("update-ref", "refs/heads/main", self.head)


@dataclass
class BuiltScenario:
    name: str
    path: Path
    fix: str
    labels: dict[str, str]
    expected: dict[str, frozenset[str]]
    true_bics: tuple[str, ...]
    issues: tuple[IssueRef, ...] = ()
    refactorings: tuple[tuple[str, str, int, int], ...] = ()
    notes: dict[str, object] = field(default_factory=dict)


def _line(n: int, value: int) -> str:
    return f"int f{n}(void) {{ return {value}; }}"


def _file(values: dict[int, str], count: int) -> str:
    return "".join(values.get(i, _line(i, 0)) + "\n" for i in range(1, count + 1))


def _uniform(shas: set[str]) -> dict[str, frozenset[str]]:
    return {p: frozenset(shas) for p in PRESET_NAMES}


def build_plain_bug_fix(path: Path) -> BuiltScenario:
    """One buggy edit, one fix of the same line."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 4))
    root = s.commit("initial function table")
    s.write("core.c", _file({2: _line(2, 7)}, 4))
    c1 = s.commit("tune f2 threshold")
    s.write("core.c", _file({2: _line(2, 8)}, 4))
    fix = s.commit("correct f2 threshold off by one")
    s.finish()
    return BuiltScenario(
        name="plain_bug_fix",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "fix": fix},
        expected=_uniform({c1}),
        true_bics=(c1,),
    )


def build_cosmetic_interposed(path: Path) -> BuiltScenario:
    """A reformat between bug and fix; plain blame stops at the reformat."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 4))
    root = s.commit("initial function table (cosmetic case)")
    s.write("core.c", _file({2: "int f2(void) { return 7; }"}, 4))
    c1 = s.commit("raise f2 limit")
    s.write("core.c", _file({2: "int f2(void){return 7;}"}, 4))
    c2 = s.commit("compact f2 formatting")
    s.write("core.c", _file({2: "int f2(void){return 6;}"}, 4))
    fix = s.commit("lower f2 limit back below cap")
    s.finish()
    expected = _uniform({c1})
    expected["B"] = frozenset({c2})
    return BuiltScenario(
        name="cosmetic_interposed",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "fix": fix},
        expected=expected,
        true_bics=(c1,),
    )


def build_merge_meta(path: Path) -> BuiltScenario:
    """An evil merge edits a line; merge-dropping variants ignore it."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 4))
    root = s.commit("initial function table (merge case)")
    s.write("side.txt", "release notes draft\n")
    side = s.commit("start release notes", parents=[root])
    s.delete("side.txt")
    s.write("core.c", _file({3: _line(3, 5)}, 4))
    c1 = s.commit("adjust f3 retry count", parents=[root])
    s.write("side.txt", "release notes draft\n")
    s.write("core.c", _file({1: _line(1, 9), 3: _line(3, 5)}, 4))
    merge = s.commit("merge release notes, bump f1 while at it", parents=[c1, side])
    s.write("core.c", _file({1: _line(1, 2), 3: _line(3, 6)}, 4))
    fix = s.commit("repair f1 and f3 regressions", parents=[merge])
    s.finish()
    expected = _uniform({c1})
    expected["B"] = frozenset({merge, c1})
    expected["AG"] = frozenset({merge, c1})
    return BuiltScenario(
        name="merge_meta",
        path=path,
        fix=fix,
        labels={"root": root, "side": side, "c1": c1, "merge": merge, "fix": fix},
        expected=expected,
        true_bics=(merge, c1),
    )


def build_guard_addition(path: Path) -> BuiltScenario:
    """The fix only inserts a missing guard, so line tracing finds nothing.

    The commit that should have added the guard is recorded as ground
    truth; every preset is expected to come up empty. This is the
    canonical additive-fix blind spot."""
    s = GitScripter(path)
    s.write(
        "core.c",
        "void apply(int *p) {\n"
        "    *p += 1;\n"
        "    log_apply(p);\n"
        "}\n",
    )
    root = s.commit("add apply helper")
    s.write(
        "core.c",
        "void apply(int *p) {\n"
        "    *p += 2;\n"
        "    log_apply(p);\n"
        "}\n",
    )
    c1 = s.commit("double apply increment")
    s.write(
        "core.c",
        "void apply(int *p) {\n"
        "    if (!p) return;\n"
        "    *p += 2;\n"
        "    log_apply(p);\n"
        "}\n",
    )
    fix = s.commit("guard apply against null input")
    s.finish()
    return BuiltScenario(
        name="guard_addition",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "fix": fix},
        expected=_uniform(set()),
        true_bics=(c1,),
        notes={"documented_miss": "additive fix leaves no removed lines"},
    )


def build_revert_history(path: Path) -> BuiltScenario:
    """Blame ends at a revert, not at the commit the revert undid.

    The true culprit is the reverted commit; all presets report the
    revert itself. Recorded as a known failure, asserted exactly."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 4))
    root = s.commit("initial function table (revert case)")
    s.write("core.c", _file({2: _line(2, 3)}, 4))
    c1 = s.commit("set f2 to production value")
    s.write("core.c", _file({2: _line(2, 30)}, 4))
    c2 = s.commit("experiment with higher f2")
    s.write("core.c", _file({2: _line(2, 3)}, 4))
    c3 = s.commit("revert f2 experiment")
    s.write("core.c", _file({2: _line(2, 4)}, 4))
    fix = s.commit("bump f2 for the fixed codepath")
    s.finish()
    return BuiltScenario(
        name="revert_history",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "c3": c3, "fix": fix},
        expected=_uniform({c3}),
        true_bics=(c2,),
        notes={"documented_miss": "revert masks the reverted commit"},
    )


def build_selection_split(path: Path) -> BuiltScenario:
    """Two candidates; size picks the older one, recency the newer one."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 6))
    root = s.commit("initial function table (selection case)")
    s.write(
        "core.c",
        _file({1: _line(1, 5), 2: _line(2, 5), 3: _line(3, 5)}, 6),
    )
    c1 = s.commit("rescale f1 through f3")
    s.write(
        "core.c",
        _file({1: _line(1, 5), 2: _line(2, 5), 3: _line(3, 5), 4: _line(4, 9)}, 6),
    )
    c2 = s.commit("tweak f4 separately")
    s.write(
        "core.c",
        _file({1: _line(1, 6), 2: _line(2, 6), 3: _line(3, 6), 4: _line(4, 8)}, 6),
    )
    fix = s.commit("rebalance f1 to f4 after regression report")
    s.finish()
    expected = _uniform({c1, c2})
    expected["L"] = frozenset({c1})
    expected["R"] = frozenset({c2})
    return BuiltScenario(
        name="selection_split",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "fix": fix},
        expected=expected,
        true_bics=(c1, c2),
    )


def build_rename_followed(path: Path) -> BuiltScenario:
    """Blame crosses a pure rename; the fix itself renames and edits."""
    s = GitScripter(path)
    s.write("table.c", _file({}, 10))
    root = s.commit("add lookup table")
    s.write("table.c", _file({5: _line(5, 13)}, 10))
    c1 = s.commit("shift f5 bucket boundary")
    s.rename("table.c", "lookup.c")
    c2 = s.commit("rename table to lookup")
    s.rename("lookup.c", "lut.c")
    s.write("lut.c", _file({5: _line(5, 12)}, 10))
    fix = s.commit("shorten name again and fix f5 boundary")
    s.finish()
    return BuiltScenario(
        name="rename_followed",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "fix": fix},
        expected=_uniform({c1}),
        true_bics=(c1,),
    )


def build_octopus_merge(path: Path) -> BuiltScenario:
    """A three-parent evil merge; merge dropping still applies."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 4))
    root = s.commit("initial function table (octopus case)")
    s.write("notes-a.txt", "branch a\n")
    side_a = s.commit("notes from branch a", parents=[root])
    s.delete("notes-a.txt")
    s.write("notes-b.txt", "branch b\n")
    side_b = s.commit("notes from branch b", parents=[root])
    s.delete("notes-b.txt")
    s.write("core.c", _file({3: _line(3, 4)}, 4))
    c1 = s.commit("nudge f3", parents=[root])
    s.write("notes-a.txt", "branch a\n")
    s.write("notes-b.txt", "branch b\n")
    s.write("core.c", _file({1: _line(1, 7), 3: _line(3, 4)}, 4))
    merge = s.commit(
        "merge note branches and squeeze f1", parents=[c1, side_a, side_b]
    )
    s.write("core.c", _file({1: _line(1, 1), 3: _line(3, 3)}, 4))
    fix = s.commit("restore f1 and f3 behavior", parents=[merge])
    s.finish()
    expected = _uniform({c1})
    expected["B"] = frozenset({merge, c1})
    expected["AG"] = frozenset({merge, c1})
    return BuiltScenario(
        name="octopus_merge",
        path=path,
        fix=fix,
        labels={
            "root": root,
            "side_a": side_a,
            "side_b": side_b,
            "c1": c1,
            "merge": merge,
            "fix": fix,
        },
        expected=expected,
        true_bics=(merge, c1),
    )


def build_cosmetic_chain(path: Path) -> BuiltScenario:
    """Two stacked reformats; a depth limit of one gets stuck mid-chain.

    Presets use the default depth and reach the content edit. The notes
    carry the expected stuck commit for a depth-one rerun, which must be
    reported with its unresolved-formatting flag set."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 4))
    root = s.commit("initial function table (chain case)")
    s.write("core.c", _file({2: "int f2(void) { return 9; }"}, 4))
    c1 = s.commit("raise f2 floor")
    s.write("core.c", _file({2: "int f2(void){ return 9; }"}, 4))
    c2 = s.commit("drop space before f2 brace")
    s.write("core.c", _file({2: "int f2(void){return 9;}"}, 4))
    c3 = s.commit("compact f2 body")
    s.write("core.c", _file({2: "int f2(void){return 10;}"}, 4))
    fix = s.commit("raise f2 floor again after overflow report")
    s.finish()
    expected = _uniform({c1})
    expected["B"] = frozenset({c3})
    return BuiltScenario(
        name="cosmetic_chain",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "c3": c3, "fix": fix},
        expected=expected,
        true_bics=(c1,),
        notes={"depth1_expected": c2},
    )


def build_issue_date(path: Path) -> BuiltScenario:
    """A candidate younger than the linked issue must be dropped."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 4))
    root = s.commit("initial function table (issue case)")
    s.write("core.c", _file({2: _line(2, 5)}, 4))
    c1 = s.commit("grow f2 buffer")
    s.write("core.c", _file({2: _line(2, 5), 3: _line(3, 2)}, 4))
    c2 = s.commit("trim f3 padding")
    s.write("core.c", _file({2: _line(2, 4), 3: _line(3, 1)}, 4))
    fix = s.commit("shrink f2 and f3 after crash report")
    s.finish()
    opened = s.times[c1] + timedelta(seconds=30)
    expected = _uniform({c1, c2})
    # one supporting line each: the size rule breaks its tie on recency
    expected["L"] = frozenset({c2})
    expected["R"] = frozenset({c2})
    return BuiltScenario(
        name="issue_date",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "fix": fix},
        expected=expected,
        true_bics=(c1,),
        issues=(IssueRef(url="https://issues.example.invalid/42", opened_at=opened),),
        notes={"issue_filtered": {c1}},
    )


def build_comment_blank_extract(path: Path) -> BuiltScenario:
    """Comment and blank fix lines count only for the unfiltered variant."""
    s = GitScripter(path)
    s.write(
        "tally.c",
        "// tally helper\n"
        "  \n"
        "int total(void) { return 40; }\n",
    )
    root = s.commit("add tally helper")
    s.write(
        "tally.c",
        "// tally helper\n"
        "  \n"
        "int total(void) { return 41; }\n",
    )
    c1 = s.commit("count the sentinel row too")
    s.write(
        "tally.c",
        "// tally helper (needs rework)\n"
        "\n"
        "int total(void) { return 41; }\n",
    )
    c2 = s.commit("flag tally helper for rework")
    s.write(
        "tally.c",
        "// tally helper, reworked\n"
        "static int rows = 0;\n"
        "int total(void) { return 42 + rows; }\n",
    )
    fix = s.commit("rework tally to exclude the sentinel row")
    s.finish()
    expected = _uniform({c1})
    expected["B"] = frozenset({c1, c2})
    return BuiltScenario(
        name="comment_blank_extract",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "fix": fix},
        expected=expected,
        true_bics=(c1,),
    )


def build_refactoring_range(path: Path) -> BuiltScenario:
    """Supporting lines inside declared refactored ranges are discounted."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 6))
    root = s.commit("initial function table (refactor case)")
    s.write("core.c", _file({2: _line(2, 8)}, 6))
    c1 = s.commit("raise f2 ceiling")
    s.write("core.c", _file({2: _line(2, 8), 4: _line(4, 3), 5: _line(5, 3)}, 6))
    c2 = s.commit("restructure f4 and f5 pairing")
    s.write("core.c", _file({2: _line(2, 7), 4: _line(4, 2), 5: _line(5, 2)}, 6))
    fix = s.commit("settle f2, f4, f5 after the restructure fallout")
    s.finish()
    expected = _uniform({c1, c2})
    expected["L"] = frozenset({c2})
    expected["R"] = frozenset({c2})
    expected["RA-lite"] = frozenset({c1})
    return BuiltScenario(
        name="refactoring_range",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "c2": c2, "fix": fix},
        expected=expected,
        true_bics=(c1,),
        refactorings=((fix, "core.c", 4, 5),),
    )


def build_added_only_fix(path: Path) -> BuiltScenario:
    """A fix made of pure additions (new file plus appended line)."""
    s = GitScripter(path)
    s.write("core.c", _file({}, 3))
    root = s.commit("initial function table (additive case)")
    s.write("core.c", _file({2: _line(2, 6)}, 3))
    c1 = s.commit("widen f2 range")
    s.write("core.c", _file({2: _line(2, 6)}, 3) + _line(4, 0) + "\n")
    s.write("compat.c", "int shim(void) { return 0; }\n")
    fix = s.commit("add compatibility shim and fallback entry")
    s.finish()
    return BuiltScenario(
        name="added_only_fix",
        path=path,
        fix=fix,
        labels={"root": root, "c1": c1, "fix": fix},
        expected=_uniform(set()),
        true_bics=(c1,),
        notes={"documented_miss": "purely additive fix"},
    )


BUILDERS = (
    build_plain_bug_fix,
    build_cosmetic_interposed,
    build_merge_meta,
    build_guard_addition,
    build_revert_history,
    build_selection_split,
    build_rename_followed,
    build_octopus_merge,
    build_cosmetic_chain,
    build_issue_date,
    build_comment_blank_extract,
    build_refactoring_range,
    build_added_only_fix,
)


def build_all(root: str | Path) -> dict[str, BuiltScenario]:
    root = Path(root)
    suite = {}
    for builder in BUILDERS:
        name = builder.__name__.removeprefix("build_")
        scenario = builder(root / name)
        assert scenario.name == name
        suite[name] = scenario
    return suite


def write_suite_refactorings(suite: dict[str, BuiltScenario], path: str | Path) -> Path:
    """Merge every scenario's declared refactored ranges into one CSV."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fix_commit", "file", "start", "end"])
        for scenario in suite.values():
            for row in scenario.refactorings:
                writer.writerow(row)
    return path


def suite_oracle(suite: dict[str, BuiltScenario]) -> OracleDataset:
    """Ground-truth dataset over the scripted suite, one entry per fix."""
    entries = [
        OracleEntry(
            repo=s.name,
            fix_commit=s.fix,
            true_bics=tuple(sorted(s.true_bics)),
            issues=s.issues,
            languages=("C",),
            clone_path=s.name,
        )
        for s in suite.values()
    ]
    entries.sort(key=lambda e: (e.repo, e.fix_commit))
    return OracleDataset(entries=entries, provenance="scripted fixture suite")
