"""Seeded git corpora whose detection results are known in advance.

Every repository is a model first: a few source files with a fixed number
of lines, and a first-parent history of commits that rewrite lines in
place (never inserting or deleting). Every rewritable line carries a slot
token unique within its file, so git's line alignment is unambiguous and
the commit git blame reports for a line is the line's most recent writer.
The expected output of each preset in each regime follows from that
last-writer model alone (``GitModel.expected``); nothing here imports
bictrace.

The model is written to disk as one ``git fast-import`` stream per
repository with pinned identities and dates and with global and system
config shut out, so a seed always reproduces the same commit hashes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

EPOCH = 1_600_000_000
COMMIT_SPACING = 60  # seconds between consecutive commits
# as bictrace documents them: the best-case issue date comes 60 s after the
# newest true inducer, and tracing gives up after ten cosmetic hops
BEST_CASE_DELTA = 60
DEPTH_LIMIT = 10
PRESETS = ("B", "AG", "MA", "L", "R", "RA-lite")
REGIMES = ("none", "issue-date", "best-case-date")

CODE, COMMENT, MIXED, BLANK, SQL, SQLC, FIXED = (
    "code", "comment", "mixed", "blank", "sql", "sqlc", "fixed",
)
# the class bictrace's line classifier should give each kind of line
LINE_CLASS = {
    CODE: "code", COMMENT: "comment", MIXED: "mixed", BLANK: "blank",
    SQL: "code", SQLC: "code", FIXED: "code",
}
REWRITABLE = (CODE, COMMENT, MIXED, SQL, SQLC)


@dataclass(frozen=True)
class Lang:
    name: str
    ext: str
    comment: str
    end: str
    var: str
    indent: str
    head: str
    foot: str | None
    preamble: tuple[str, ...]
    sql: bool = False


LANGS = (
    Lang("C", ".c", "//", ";", "", "    ", "int f{slot}(int a) {", "}", ("#include <stdio.h>",)),
    Lang("C++", ".cpp", "//", ";", "", "    ", "int f{slot}(int a) {", "}", ("#include <vector>",)),
    Lang("C#", ".cs", "//", ";", "", "        ", "    int F{slot}(int a) {", "    }", ("class Gen {",)),
    Lang("Java", ".java", "//", ";", "", "        ", "    int f{slot}(int a) {", "    }", ("class Gen {",)),
    Lang("JavaScript", ".js", "//", ";", "", "    ", "function f{slot}(a) {", "}", ("'use strict';",)),
    Lang("Ruby", ".rb", "#", "", "", "  ", "def f{slot}(a)", "end", ("require 'set'",)),
    Lang("PHP", ".php", "//", ";", "$", "    ", "function f{slot}($a) {", "}", ("<?php",)),
    Lang("Python", ".py", "#", "", "", "    ", "def f{slot}(a):", None, ("import os",), sql=True),
)
LANG_BY_NAME = {lang.name: lang for lang in LANGS}

# squash-equal spellings of one line: pad selects one, a cosmetic commit
# moves a line to another
_EQ = (" = ", "  = ", " =  ", "   = ")
_SP = (" ", "  ", "   ", "\t")


@dataclass
class Line:
    kind: str
    slot: int
    value: int = 0
    pad: int = 0
    text: str = ""  # only for FIXED lines


def render(lang: Lang, line: Line) -> str:
    k, s, v, p = line.kind, line.slot, line.value, line.pad
    if k == FIXED:
        return line.text
    if k == BLANK:
        return ""
    if k == CODE:
        return f"{lang.indent}{lang.var}s{s}{_EQ[p]}{v}{lang.end}"
    if k == COMMENT:
        return f"{lang.indent}{lang.comment}{_SP[p]}note s{s} r{v}"
    if k == MIXED:
        return f"{lang.indent}{lang.var}s{s}{_EQ[p]}{v}{lang.end}  {lang.comment} tweak s{s}"
    if k == SQL:
        return f"SELECT s{s}{_SP[p]}FROM t WHERE v = {v}"
    if k == SQLC:
        return f"-- s{s}{_SP[p]}note r{v}"
    raise ValueError(k)


def squash(text: str) -> str:
    return "".join(text.split())


@dataclass
class FileModel:
    path: str
    lang: Lang
    lines: list[Line]
    next_slot: int
    writers: list[list[int]] = field(default_factory=list)  # per line, commit idx ascending
    texts: list[list[str]] = field(default_factory=list)    # per line, text after each writer

    def text(self, ln: int) -> str:
        return self.texts[ln - 1][-1]


def layout(lang: Lang, path: str, n_funcs: int, body: int, rng: random.Random,
           sql_first: bool = False) -> FileModel:
    """A source file of ``n_funcs`` functions of about ``body`` lines.
    A blank line only ever comes right before a function head, which is
    never rewritten: so a hunk that rewrites a blank line never borders
    another blank line, and git aligns it in one way only. In a language
    with SQL strings, ``sql_first`` makes the first function open with
    one."""
    slot = 0
    lines: list[Line] = []

    def add(kind: str, text: str = "") -> None:
        nonlocal slot
        slot += 1
        lines.append(Line(kind, slot, text=text.replace("{slot}", str(slot))))

    for pre in lang.preamble:
        add(FIXED, pre)
    want_sql = sql_first and lang.sql
    for _ in range(n_funcs):
        add(BLANK)
        add(FIXED, lang.head)
        for _ in range(body):
            if lang.sql and (rng.random() < 0.06 or want_sql):
                want_sql = False
                add(FIXED, lang.indent + 'q{slot} = """')
                add(SQL)
                add(SQLC)
                add(SQL)
                add(FIXED, '"""')
                continue
            add(rng.choices((CODE, COMMENT, MIXED), weights=(70, 15, 15))[0])
        if lang.foot is not None:
            add(FIXED, lang.foot)
    return FileModel(path, lang, lines, slot + 1)


@dataclass
class Commit:
    idx: int
    kind: str  # side | root | content | cosmetic | evil-merge | empty-merge | fix
    parents: tuple[int, ...]
    time: int
    message: str
    # (file index, line no) -> (old text, new text); old is None at the root
    writes: dict[tuple[int, int], tuple[str | None, str]] = field(default_factory=dict)

    def hunks(self) -> list[list[tuple[int, int]]]:
        """The zero-context diff's hunks: runs of consecutive rewritten
        lines, per file."""
        runs: list[list[tuple[int, int]]] = []
        for fi, ln in sorted(self.writes):
            if runs and runs[-1][-1] == (fi, ln - 1):
                runs[-1].append((fi, ln))
            else:
                runs.append([(fi, ln)])
        return runs

    def joined_equal(self, run: list[tuple[int, int]]) -> bool:
        pairs = [self.writes[k] for k in run]
        return squash("".join(o for o, _ in pairs)) == squash("".join(n for _, n in pairs))

    @cached_property
    def cosmetic(self) -> bool:
        """bictrace's cosmetic test as the model sees it: a non-root
        commit each of whose hunks only moves whitespace. A commit that
        changes nothing counts too, as its diff has no hunks."""
        if not self.parents:
            return False
        return all(self.joined_equal(run) for run in self.hunks())

    @property
    def meta(self) -> bool:
        return len(self.parents) >= 2 or (bool(self.parents) and not self.writes)

    @cached_property
    def dash_header(self) -> bool:
        """True when the commit's diff holds a removed line that starts
        with ``-- `` or an added line that starts with ``++ ``; bictrace's
        diff parser takes such lines for file headers (a known defect)."""
        return any(
            (o or "").startswith("-- ") or n.startswith("++ ")
            for o, n in self.writes.values()
        )


@dataclass
class Trace:
    """One simulated blame trace: candidate commit -> supporting fix lines."""
    support: dict[int, list[tuple[int, int]]]
    exposed: bool  # consulted a commit whose diff hits the dash-header defect


@dataclass
class FixRecord:
    fix_idx: int
    files: tuple[int, ...]
    b_trace: Trace
    ag_trace: Trace
    true_bics: tuple[int, ...]
    issue_cutoff: int | None  # seconds; None when the entry has no issue
    ranges: list[tuple[int, int, int]]  # (file index, start, end)
    exposed: bool


class GitModel:
    """One repository: its files, its history and its fixes."""

    def __init__(self, name: str, files: list[FileModel]):
        self.name = name
        self.files = files
        self.commits: list[Commit] = []
        self.fixes: list[FixRecord] = []
        side = self._new("side", ())
        self.side = side.idx
        root = self._new("root", ())
        for fi, f in enumerate(files):
            f.writers = [[root.idx] for _ in f.lines]
            f.texts = [[render(f.lang, ln)] for ln in f.lines]
            for ln_no in range(1, len(f.lines) + 1):
                root.writes[(fi, ln_no)] = (None, f.texts[ln_no - 1][0])
        self.head = root.idx

    def _new(self, kind: str, parents: tuple[int, ...]) -> Commit:
        idx = len(self.commits)
        c = Commit(idx, kind, parents, EPOCH + COMMIT_SPACING * idx, f"{kind} {idx} of {self.name}")
        self.commits.append(c)
        return c

    # -- history -----------------------------------------------------------

    def commit(self, kind: str, changes: dict[tuple[int, int], Line]) -> Commit:
        """Append a first-parent commit that sets each (file, line) to a
        new line state."""
        parents = (self.head, self.side) if kind in ("evil-merge", "empty-merge") else (self.head,)
        c = self._new(kind, parents)
        for (fi, ln_no), new in sorted(changes.items()):
            f = self.files[fi]
            old_text = f.text(ln_no)
            new_text = render(f.lang, new)
            if new_text == old_text:
                raise AssertionError("a rewrite must change the line")
            f.lines[ln_no - 1] = new
            f.writers[ln_no - 1].append(c.idx)
            f.texts[ln_no - 1].append(new_text)
            c.writes[(fi, ln_no)] = (old_text, new_text)
        self.head = c.idx
        return c

    def rewritable(self, fi: int) -> list[int]:
        return [i + 1 for i, ln in enumerate(self.files[fi].lines) if ln.kind in REWRITABLE]

    def edited(self, fi: int, ln_no: int, cosmetic: bool, rng: random.Random) -> Line:
        """The line after a content edit or a whitespace-only re-format."""
        f = self.files[fi]
        cur = f.lines[ln_no - 1]
        if cur.kind == BLANK:
            slot = f.next_slot
            f.next_slot += 1
            return Line(CODE, slot)
        if cosmetic:
            return Line(cur.kind, cur.slot, cur.value, (cur.pad + rng.randint(1, 3)) % 4)
        return Line(cur.kind, cur.slot, cur.value + 1, cur.pad)

    # -- the last-writer model ---------------------------------------------

    def blame(self, fi: int, ln_no: int, upto: int, ignore: frozenset[int]) -> int:
        """Newest writer of the line at or before commit ``upto`` that is
        not ignored; the root, which is never ignored, wrote every line."""
        for w in reversed(self.files[fi].writers[ln_no - 1]):
            if w <= upto and w not in ignore:
                return w
        raise AssertionError("the root writes every line")

    def trace(self, upto: int, lines: list[tuple[int, int]], skip_cosmetic: bool) -> Trace:
        """Re-blame rounds per file with one growing ignore set, as the
        presets document: a line whose origin only re-formatted is traced
        again past it, up to the depth limit."""
        support: dict[int, list[tuple[int, int]]] = {}
        exposed = False
        by_file: dict[int, list[int]] = {}
        for fi, ln in lines:
            by_file.setdefault(fi, []).append(ln)
        for fi, lns in by_file.items():
            pending = set(lns)
            ignore: set[int] = set()
            depth = {ln: 0 for ln in lns}
            while pending:
                frozen = frozenset(ignore)
                origins = {ln: self.blame(fi, ln, upto, frozen) for ln in pending}
                progressed = False
                for ln in sorted(origins):
                    o = origins[ln]
                    cosmetic = skip_cosmetic and self.commits[o].cosmetic
                    # bictrace misreads the diff of a re-format that touches
                    # a "-- " line and calls the commit not cosmetic
                    exposed = exposed or (cosmetic and self.commits[o].dash_header)
                    if cosmetic and depth[ln] < DEPTH_LIMIT:
                        depth[ln] += 1
                        ignore.add(o)
                        progressed = True
                        continue
                    pending.discard(ln)
                    support.setdefault(o, []).append((fi, ln))
                if pending and not progressed:
                    break
        return Trace(support, exposed)

    def fix_lines(self, fix: Commit, ag: bool) -> list[tuple[int, int]]:
        """Removed lines of the fix, as (file, line) pairs. With the AG
        line filter: drop every line of a hunk whose joined sides are
        whitespace-equal, any line whose own rewrite is whitespace-only,
        and comment and blank lines."""
        out = []
        for run in fix.hunks():
            if ag and fix.joined_equal(run):
                continue
            for fi, ln in run:
                old, new = fix.writes[(fi, ln)]
                if ag and squash(old) == squash(new):
                    continue
                if ag and LINE_CLASS[self.kind_before(fi, ln, fix.idx)] in ("comment", "blank"):
                    continue
                out.append((fi, ln))
        return out

    def kind_before(self, fi: int, ln: int, idx: int) -> str:
        """Kind of the line in the parent of commit ``idx``: the fix only
        turns blank lines into code, so a line blank before the fix was
        rewritten from an empty text."""
        old = self.commits[idx].writes[(fi, ln)][0]
        if old == "":
            return BLANK
        return self.files[fi].lines[ln - 1].kind

    def add_fix(self, changes: dict[tuple[int, int], Line], rng: random.Random,
                dated_share: float, ranges: list[tuple[int, int, int]] = ()) -> None:
        fix = self.commit("fix", changes)
        upto = fix.parents[0]
        b = self.trace(upto, self.fix_lines(fix, ag=False), skip_cosmetic=False)
        ag_lines = self.fix_lines(fix, ag=True)
        ag = self.trace(upto, ag_lines, skip_cosmetic=True)
        pool = [c for c in ag.support if not self.commits[c].meta] or list(ag.support) or list(b.support)
        if not pool:
            return  # a fix that removes nothing is not an oracle entry
        true_bics = tuple(sorted(rng.sample(pool, min(len(pool), rng.randint(1, 2)))))
        cutoff = None
        if rng.random() < dated_share:
            lo = min(true_bics)
            cutoff = self.commits[rng.randint(lo, upto)].time + COMMIT_SPACING // 2
        self.fixes.append(FixRecord(
            fix.idx, tuple(sorted({fi for fi, _ in fix.writes})), b, ag, true_bics,
            cutoff, list(ranges), b.exposed or ag.exposed or fix.dash_header,
        ))

    def expected(self, rec: FixRecord, preset: str, regime: str) -> set[int]:
        """Commits (model indices) a preset reports for a fix in a regime."""
        trace = rec.b_trace if preset == "B" else rec.ag_trace
        cands = {c: list(sup) for c, sup in trace.support.items()}
        if preset != "B" and preset != "AG":
            cands = {c: s for c, s in cands.items() if not self.commits[c].meta}
        cutoff = None
        if regime == "issue-date":
            cutoff = rec.issue_cutoff
        elif regime == "best-case-date":
            cutoff = max(self.commits[b].time for b in rec.true_bics) + BEST_CASE_DELTA
        if cutoff is not None:
            cands = {c: s for c, s in cands.items() if self.commits[c].time <= cutoff}
        if preset == "RA-lite":
            def covered(fi: int, ln: int) -> bool:
                return any(f == fi and a <= ln <= b for f, a, b in rec.ranges)
            cands = {c: [x for x in s if not covered(*x)] for c, s in cands.items()}
            cands = {c: s for c, s in cands.items() if s}
        if not cands:
            return set()
        t = lambda c: self.commits[c].time
        if preset == "L":
            return {min(cands, key=lambda c: (-len(cands[c]), -t(c)))}
        if preset == "R":
            return {max(cands, key=t)}
        return set(cands)

    # -- writing it out ------------------------------------------------------

    def fast_import_stream(self) -> bytes:
        out: list[bytes] = []
        rendered = [[t[0] for t in f.texts] for f in self.files]
        by_commit: dict[int, dict[int, dict[int, str]]] = {}
        for c in self.commits:
            for (fi, ln), (_, new) in c.writes.items():
                by_commit.setdefault(c.idx, {}).setdefault(fi, {})[ln] = new
        for c in self.commits:
            branch = "side" if c.kind == "side" else "main"
            msg = c.message.encode() + b"\n"
            stamp = f"{c.time} +0000"
            out.append(
                f"commit refs/heads/{branch}\nmark :{c.idx + 1}\n"
                f"author Bench Author <author@bench.invalid> {stamp}\n"
                f"committer Bench Committer <committer@bench.invalid> {stamp}\n"
                f"data {len(msg)}\n".encode() + msg
            )
            if c.parents:
                out.append(f"from :{c.parents[0] + 1}\n".encode())
                for p in c.parents[1:]:
                    out.append(f"merge :{p + 1}\n".encode())
            for fi, changed in sorted(by_commit.get(c.idx, {}).items()):
                f = self.files[fi]
                lines = rendered[fi]
                for ln, text in changed.items():
                    lines[ln - 1] = text
                data = "".join(t + "\n" for t in lines).encode()
                out.append(f"M 100644 inline {f.path}\ndata {len(data)}\n".encode() + data)
            out.append(b"\n")
        return b"".join(out)


def git_env(home: Path) -> dict[str, str]:
    """Environment that keeps every git process away from the user's and
    the system's config and locale."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(home),
        "GIT_CONFIG_NOSYSTEM": "1",
        "GIT_CONFIG_GLOBAL": os.devnull,
        "LC_ALL": "C",
        "TZ": "UTC",
    }


def empty_repo(dest: Path, env: dict[str, str]) -> Path:
    """An empty bare repository, to be copied for each model."""
    subprocess.run(["git", "init", "--bare", "-q", "--template=", str(dest)],
                   env=env, check=True, capture_output=True)
    return dest


def build(model: GitModel, dest: Path, empty: Path, env: dict[str, str]) -> list[str]:
    """Write the model as a bare repository, starting from a copy of
    ``empty``; returns the commit hash of every model commit, by index."""
    shutil.copytree(empty, dest)
    marks = dest / "bench-marks"
    # keep the import as one pack, as unpacking small imports into loose
    # objects costs more than the import itself; and skip fsync, whose
    # latency on a shared disk would swamp the set-up time
    subprocess.run(
        ["git", "-C", str(dest), "-c", "fastimport.unpackLimit=0", "-c", "core.fsync=none",
         "fast-import", "--quiet", f"--export-marks={marks}"],
        input=model.fast_import_stream(), env=env, check=True, capture_output=True,
    )
    shas = [""] * len(model.commits)
    for row in marks.read_text().split("\n"):
        if row:
            mark, sha = row.split()
            shas[int(mark[1:]) - 1] = sha
    marks.unlink()
    return shas


# -- workloads ------------------------------------------------------------------


# Deep repositories use one language each, in this order for every seed,
# and every fix has the same shape, so that a seed changes what the
# history says but hardly what tracing it costs. Python comes second, so
# that two repositories already hold the known defect's planted fix.
DEEP_LANGS = ("C", "Python", "Java", "JavaScript")
CHAINS = (1, 2, 3, 4)  # re-formats between a traced line's origin and its fix


def deep_repo(name: str, lang: Lang, rng: random.Random, size: dict) -> GitModel:
    """One long first-parent history of one source file, with fixes
    spread evenly over its later part.

    Each fix rewrites four code lines whose origin lies ``reach`` x 1/4,
    2/4, 3/4 and 1 commits back, behind one to four whitespace-only
    re-formats; one of the four origins of every other fix is an evil
    merge. It also re-formats one older code line and rewrites one
    comment line, which only plain blame traces. Those planted lines are
    left alone by the rest of the history: content edits, re-formats of
    other lines, and evil and empty merges.

    The known defect of reading a removed ``-- `` line as a file header
    shows at one fixed rate: in a language with SQL strings, the first
    fix also rewrites the file's first SQL comment line, which comes
    before its other lines, so bictrace skips that entry; no other fix
    touches an SQL comment line."""
    f = layout(lang, f"src/engine{lang.ext}", size["funcs"], size["body"], rng, sql_first=True)
    m = GitModel(name, [f])
    n, n_fixes, reach = size["commits"], size["fixes"], size["reach"]
    code = [i + 1 for i, ln in enumerate(f.lines) if ln.kind in (CODE, MIXED, SQL)]
    comments = [i + 1 for i, ln in enumerate(f.lines) if ln.kind == COMMENT]
    sqlc = [i + 1 for i, ln in enumerate(f.lines) if ln.kind == SQLC]
    rng.shuffle(code)
    rng.shuffle(comments)

    def take(after: int = 0) -> int:
        return code.pop(next(i for i, ln in enumerate(code) if ln > after))

    fix_at = {int(n * (0.4 + 0.6 * (k + 0.5) / n_fixes)): k for k in range(n_fixes)}
    plan: dict[int, tuple[str, list[int]]] = {}

    def place(pos: int, kind: str, ln: int) -> None:
        while pos in fix_at or (pos in plan and plan[pos][0] != kind):
            pos -= 1
        plan.setdefault(pos, (kind, []))[1].append(ln)

    fix_lines: dict[int, list[int]] = {}
    for pos, k in fix_at.items():
        after = sqlc[0] if sqlc and k == 0 else 0
        chained = [take(after) for _ in range(4)]
        b_only, comment = take(after), comments[k]
        if after:
            chained.append(after)
        for j, (ln, chain, quarter) in enumerate(zip(chained, rng.sample(CHAINS, 4), rng.sample(range(1, 5), 4))):
            dist = reach * quarter // 4
            place(pos - dist, "evil-merge" if j == 0 and k % 2 else "content", ln)
            for c in range(1, chain + 1):
                place(pos - dist + dist * c // (chain + 1), "cosmetic", ln)
        place(pos - reach // 2, "content", b_only)
        place(pos - reach // 3, "content", comment)
        fix_lines[pos] = [*chained[:4], b_only, comment, *chained[4:]]

    # the other SQL comment lines only take content edits, so that no
    # re-format on a traced line's chain carries a "-- " line along
    rng.shuffle(code)
    hot = code[: len(code) // 3] + [ln for ln in sqlc if ln not in fix_lines[min(fix_at)]]
    cold = code[len(code) // 3:] + comments[n_fixes:]
    for i in range(1, n):
        if i in fix_at:
            lines = fix_lines[i]
            changes = {(0, ln): m.edited(0, ln, ln == lines[4], rng) for ln in lines}
            m.add_fix(changes, rng, dated_share=0.6, ranges=[(0, lines[0], lines[0])])
            continue
        kind, lines = plan.get(i, (None, []))
        if kind is None:
            kind = rng.choices(("content", "cosmetic", "evil-merge", "empty-merge"), weights=(55, 30, 8, 7))[0]
        if kind == "empty-merge":
            m.commit(kind, {})
            continue
        extra = rng.sample(cold if kind == "cosmetic" else hot, rng.randint(0 if lines else 1, 2))
        m.commit(kind, {(0, ln): m.edited(0, ln, kind == "cosmetic", rng) for ln in lines + extra})
    return m


def fix_changes(m: GitModel, fi: int, pool: list[int], rng: random.Random,
                runs: int, cosmetic_share: float) -> dict[tuple[int, int], Line]:
    """Rewrites for a fix: a few runs of consecutive lines starting in
    ``pool`` and stopping before a line that is never rewritten or is an
    SQL comment line; mostly content edits, some whitespace-only, and a
    blank line where a run reaches one."""
    lines = m.files[fi].lines
    changes: dict[tuple[int, int], Line] = {}
    for _ in range(runs):
        start = rng.choice(pool)
        for ln in range(start, min(start + rng.randint(1, 4), len(lines) + 1)):
            if lines[ln - 1].kind in (FIXED, SQLC):
                break
            if (fi, ln) not in changes:
                changes[(fi, ln)] = m.edited(fi, ln, rng.random() < cosmetic_share, rng)
    return changes


def wide_repo(name: str, n_fixes: int, rng: random.Random, size: dict,
              plant: bool = False) -> GitModel:
    """A short history over two or three small files in different
    languages, with one or two fixes near the end whose hunks take in
    comment and blank lines.

    SQL comment lines (``-- ``) only take content edits, which bictrace
    reads right in spite of the known defect, except in the planted fix:
    with ``plant``, one file is Python and opens with an SQL string, and
    the first fix rewrites that string's comment line and the line after
    it, so bictrace skips the entry."""
    langs = rng.sample(LANGS, rng.randint(2, 3))
    python = LANG_BY_NAME["Python"]
    if plant and python not in langs:
        langs[0] = python
    files = [layout(lang, f"pkg/m{i}{lang.ext}", rng.randint(2, 3), rng.randint(4, 7), rng,
                    sql_first=plant)
             for i, lang in enumerate(langs)]
    m = GitModel(name, files)
    n = rng.randint(*size["commits"])
    fix_at = set(range(n - n_fixes * 3, n, 3))
    for i in range(n):
        fi = rng.randrange(len(files))
        if i in fix_at:
            changes: dict[tuple[int, int], Line] = {}
            if plant and i == min(fix_at):
                py = langs.index(python)
                sqlc = next(ln + 1 for ln, line in enumerate(files[py].lines) if line.kind == SQLC)
                for ln in (sqlc, sqlc + 1):
                    changes[(py, ln)] = m.edited(py, ln, False, rng)
            for fj in rng.sample(range(len(files)), rng.randint(1, len(files))):
                pool = [ln for ln in range(1, len(files[fj].lines) + 1)
                        if files[fj].lines[ln - 1].kind not in (FIXED, SQLC)]
                changes.update(fix_changes(m, fj, pool, rng, runs=rng.randint(1, 2), cosmetic_share=0.15))
            m.add_fix(changes, rng, dated_share=0.6)
            continue
        kind = rng.choices(("content", "cosmetic", "evil-merge", "empty-merge"), weights=(55, 30, 8, 7))[0]
        if kind == "empty-merge":
            m.commit(kind, {})
            continue
        lines = [ln for ln in m.rewritable(fi)
                 if kind != "cosmetic" or files[fi].lines[ln - 1].kind != SQLC]
        start = rng.choice(lines)
        run = [ln for ln in range(start, start + rng.randint(1, 3)) if ln in lines]
        m.commit(kind, {(fi, ln): m.edited(fi, ln, kind == "cosmetic", rng) for ln in run})
    return m


# -- corpus: build, oracle, expectations ----------------------------------------


def generate(workload: str, seed: int, size: dict) -> list[GitModel]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep":
        return [deep_repo(f"r{i}", LANG_BY_NAME[DEEP_LANGS[i % len(DEEP_LANGS)]], rng, size)
                for i in range(size["repos"])]
    # one or two fixes, alternately, so every seed has the same number;
    # the first repository holds the one fix exposed to the known defect
    return [wide_repo(f"w{i:03d}", 1 + i % 2, rng, size, plant=i == 0) for i in range(size["repos"])]


def write_inputs(models: list[GitModel], shas: list[list[str]], work: Path) -> None:
    """Write the oracle and the refactoring ranges of a built corpus."""
    entries = []
    ranges_rows = ["commit_hash,file_path,start_line,end_line"]
    for mi, m in enumerate(models):
        h = shas[mi]
        for rec in m.fixes:
            entry = {
                "repo": f"bench/{m.name}",
                "fix_commit": h[rec.fix_idx],
                "true_bics": [h[b] for b in rec.true_bics],
                "languages": sorted({m.files[fi].lang.name for fi in rec.files}),
                "clone_path": m.name,
            }
            if rec.issue_cutoff is not None:
                stamp = _iso(rec.issue_cutoff)
                entry["issues"] = [{"url": f"https://issues.invalid/{m.name}/{rec.fix_idx}", "opened_at": stamp}]
            entries.append(entry)
            for fi, a, b in rec.ranges:
                ranges_rows.append(f"{h[rec.fix_idx]},{m.files[fi].path},{a},{b}")
    (work / "oracle.json").write_text(json.dumps({"schema_version": 1, "entries": entries}, indent=1))
    (work / "refactorings.csv").write_text("\n".join(ranges_rows) + "\n")


def expectations(models: list[GitModel], shas: list[list[str]], presets, regimes) -> dict:
    """(preset, regime) -> {(repo, fix): (sorted hashes, flags, exposed)}."""
    out: dict = {}
    for preset in presets:
        for regime in regimes:
            table = {}
            for mi, m in enumerate(models):
                h = shas[mi]
                for rec in m.fixes:
                    found = sorted(h[c] for c in m.expected(rec, preset, regime))
                    flags = ["no-issue-dates"] if regime == "issue-date" and rec.issue_cutoff is None else []
                    table[(f"bench/{m.name}", h[rec.fix_idx])] = (found, flags, rec.exposed)
            out[(preset, regime)] = table
    return out


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
