"""Configurable bug-inducing-commit detection pipeline.

A variant is a row of plain facts (``VariantConfig``): whether it skips
cosmetic work (drops comment, blank and reformatted fix lines, and blames
past commits that only reformat), whether it drops meta-change origins,
whether it drops fix lines in supplied refactoring ranges, and the order
whose first candidate it keeps (``None`` keeps them all). ``PRESETS``
holds the rows of the classic algorithm family:

    B        keep all lines, plain blame, no filters, keep all candidates
    AG       skip cosmetic lines and commits
    MA       AG plus dropping meta-changes (merges, empty-text diffs)
    L        MA reduced to the ``largest`` candidate (most supporting lines)
    R        MA reduced to the ``latest`` candidate (latest committer time)
    RA-lite  MA plus dropping fix lines covered by supplied refactoring ranges

All tracing happens against the first-parent pre-image of the fix commit,
so removed-line numbers always refer to that revision.

A date regime is a cutoff on candidate committer times, not a variant;
``regime_cutoff`` is the one rule that turns a regime into a cutoff.
Presets and regimes run together share their common work: ``run_configs``
extracts and classifies a fix's lines once and ``walk`` blames them once.
The walk plain-blames every line some run keeps, then re-blames the lines
a cosmetic-skipping run keeps past origins that only reformat, and keeps
every hop in one ``TracedLine`` per fix line. Filters, cutoffs and
selections then run per (preset, cutoff) over those read-only lines; they
ask the repository only for an origin's committer time and meta verdict,
each at most once per fix.
"""

from __future__ import annotations

import csv
import functools
import re
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from . import langfilters
from .errors import ConfigurationError, RootCommitError, SchemaError
from .langfilters import LineClass

DEPTH_LIMIT = 10  # re-blames of one line; the walk keeps the commit it reached

REGIMES = ("none", "issue-date", "best-case-date")
BEST_CASE_DELTA = timedelta(seconds=60)

_FULL_HASH_RE = re.compile(r"[0-9a-f]{40}")


def largest(c: BicCandidate) -> tuple:
    """L's order: most supporting lines, then the later committer time,
    then the lexicographically smaller hash."""
    return (-len(c.supporting_lines), -c.committer_time.timestamp(), c.commit)


def latest(c: BicCandidate) -> tuple:
    """R's order: the later committer time, then the smaller hash."""
    return (-c.committer_time.timestamp(), c.commit)


@dataclass(frozen=True)
class VariantConfig:
    skip_cosmetic: bool = False
    drop_meta: bool = False
    drop_refactored: bool = False
    order: Callable[[BicCandidate], tuple] | None = None  # None keeps every candidate


PRESETS: dict[str, VariantConfig] = {
    "B": VariantConfig(),
    "AG": VariantConfig(skip_cosmetic=True),
    "MA": VariantConfig(skip_cosmetic=True, drop_meta=True),
    "L": VariantConfig(skip_cosmetic=True, drop_meta=True, order=largest),
    "R": VariantConfig(skip_cosmetic=True, drop_meta=True, order=latest),
    "RA-lite": VariantConfig(skip_cosmetic=True, drop_meta=True, drop_refactored=True),
}

_PRESET_KEYS = {name.upper(): name for name in PRESETS}


def preset_name(name: str) -> str:
    """The table name of a preset, spelled case-insensitively; a trailing
    "-szz" suffix is tolerated (``r-szz`` means ``R``)."""
    norm = name.strip().upper().removesuffix("-SZZ")
    if norm not in _PRESET_KEYS:
        raise ConfigurationError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}"
        )
    return _PRESET_KEYS[norm]


def preset(name: str) -> VariantConfig:
    """Look up a preset by any spelling ``preset_name`` accepts."""
    return PRESETS[preset_name(name)]


@dataclass(frozen=True)
class FixLine:
    file: str
    line_no: int
    line_class: LineClass
    cosmetic: bool = False  # the fix only reformatted this line

    def kept_by(self, config: VariantConfig) -> bool:
        """Whether a run of ``config`` traces this line: a cosmetic-skipping
        run drops comment, blank and reformatted lines."""
        return not config.skip_cosmetic or not (
            self.cosmetic or self.line_class in (LineClass.COMMENT, LineClass.BLANK)
        )


@dataclass
class FixContext:
    fix_commit: str
    parent: str
    fix_lines: list[FixLine]


@dataclass(frozen=True)
class BicCandidate:
    commit: str
    supporting_lines: list[FixLine]
    committer_time: datetime


class RefactoringRanges:
    """Externally supplied line ranges of a fix's pre-image that were only
    touched by refactoring, keyed by (full fix hash, file path)."""

    def __init__(self):
        self._ranges: dict[tuple[str, str], list[tuple[int, int]]] = {}

    def covers(self, commit: str, file: str, line_no: int) -> bool:
        for start, end in self._ranges.get((commit, file), ()):
            if start <= line_no <= end:
                return True
        return False

    def add(self, commit: str, file: str, start: int, end: int) -> None:
        if not _FULL_HASH_RE.fullmatch(commit):
            raise SchemaError(f"refactoring range needs a full 40-char hash, got {commit!r}")
        if start < 1 or end < start:
            raise SchemaError(f"bad refactoring range {start}-{end} for {file}")
        self._ranges.setdefault((commit, file), []).append((start, end))


def load_refactoring_ranges(path: str | Path) -> RefactoringRanges:
    """Read ranges from a CSV file with columns
    ``commit_hash,file_path,start_line,end_line``. A header row is
    recognized and skipped."""
    ranges = RefactoringRanges()
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not valid UTF-8: {exc}") from None
    for row_no, row in enumerate(rows, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise SchemaError(f"{path}:{row_no}: expected 4 columns, got {len(row)}")
        commit, file, start, end = (cell.strip() for cell in row)
        if row_no == 1 and not start.isdecimal():
            continue  # header
        if not start.isdecimal() or not end.isdecimal():
            raise SchemaError(f"{path}:{row_no}: line numbers must be integers")
        try:
            ranges.add(commit, file, int(start), int(end))
        except SchemaError as exc:
            raise SchemaError(f"{path}:{row_no}: {exc}") from None
    return ranges


def extract_fix_lines(repo, fix_commit: str) -> FixContext:
    """Collect the pre-image lines a fix removed or modified, each with its
    class and whether the fix only reformatted it. Every pre-image file is
    read and classified once; ``FixLine.kept_by`` tells which lines a
    variant traces. A fix that only adds lines yields an empty context,
    which is a valid (empty) detection result."""
    full = repo.resolve(fix_commit)
    meta = repo.commit_meta(full)
    if not meta.parents:
        raise RootCommitError(f"{full} has no parent to diff against")
    parent = meta.parents[0]

    class_cache: dict[str, list[LineClass]] = {}
    fix_lines: list[FixLine] = []
    for hunk in repo.diff_against_parent(full, parent):
        file = hunk.file_pre
        if file is None or not hunk.removed:
            continue
        if file not in class_cache:
            content = repo.file_at(parent, file)
            lang = langfilters.language_for_path(file)
            class_cache[file] = langfilters.classify_lines(content, lang)
        classes = class_cache[file]
        cosmetic = _cosmetic_drops(hunk)
        for line_no, _ in hunk.removed:
            idx = line_no - 1
            cls = classes[idx] if 0 <= idx < len(classes) else LineClass.CODE
            fix_lines.append(FixLine(file, line_no, cls, line_no in cosmetic))

    fix_lines.sort(key=lambda fl: (fl.file, fl.line_no))
    return FixContext(fix_commit=full, parent=parent, fix_lines=fix_lines)


def _cosmetic_drops(hunk) -> set[int]:
    """Removed-line numbers of a hunk that are formatting-only.

    Whole-hunk squash equality drops everything (covers lines split or
    joined); otherwise removed and added lines are paired positionally
    and equal pairs dropped."""
    if langfilters.is_cosmetic_hunk(hunk):
        return {line_no for line_no, _ in hunk.removed}
    drops: set[int] = set()
    for (r_no, r_text), (_, a_text) in zip(hunk.removed, hunk.added):
        if langfilters.is_cosmetic_change(r_text, a_text):
            drops.add(r_no)
    return drops


@dataclass(frozen=True)
class TracedLine:
    """One fix line walked back: every commit blame named for it, the
    plain-blame origin first. A walked line was re-blamed ``len(hops) - 1``
    times, and is stuck when its last hop still only reformatted."""

    line: FixLine
    hops: tuple[str, ...]

    def origin(self, config: VariantConfig) -> str:
        """The last hop for a cosmetic-skipping run, else the plain origin."""
        return self.hops[-1] if config.skip_cosmetic else self.hops[0]


def walk(repo, ctx: FixContext, configs: list[VariantConfig]) -> list[TracedLine]:
    """Blame the fix lines that some of ``configs`` keeps at the fix's
    first-parent revision, one traced line per fix line, in fix-line order.

    Round 0 plain-blames every such line of a file at once. A line that a
    cosmetic-skipping configuration keeps and whose origin only
    reformatted is then re-blamed with that commit added to the file's
    ignore set, repeatedly, until a non-cosmetic origin appears or
    ``DEPTH_LIMIT`` re-blames are spent; the line keeps the commit it
    reached."""
    cosmetic = functools.cache(lambda sha: langfilters.is_cosmetic_commit(repo, sha))
    skipper = next((c for c in configs if c.skip_cosmetic), None)
    by_file: dict[str, dict[int, FixLine]] = {}
    for fl in ctx.fix_lines:
        if any(fl.kept_by(c) for c in configs):
            by_file.setdefault(fl.file, {})[fl.line_no] = fl

    traced: list[TracedLine] = []
    for file, lines in by_file.items():
        walked = {ln for ln, fl in lines.items() if skipper and fl.kept_by(skipper)}
        hops: dict[int, list[str]] = {ln: [] for ln in lines}
        ignore: set[str] = set()
        asked = set(lines)
        while asked:
            seen_before = frozenset(ignore)
            answers = repo.blame(ctx.parent, file, asked, seen_before)
            asked = set()
            for line_no, origin in answers.items():
                hops[line_no].append(origin)
                # an origin already ignored is where blame could not move
                # past: the line was introduced there
                if (line_no in walked and origin not in seen_before and cosmetic(origin)
                        and len(hops[line_no]) <= DEPTH_LIMIT):
                    asked.add(line_no)
                    ignore.add(origin)
        traced += [TracedLine(fl, tuple(hops[ln])) for ln, fl in lines.items() if hops[ln]]
    return traced


def is_meta_change(repo, commit_id: str) -> bool:
    """Merges and commits whose first-parent diff has no textual hunks
    (pure renames, mode-only changes). Root commits are never meta."""
    meta = repo.commit_meta(commit_id)
    if len(meta.parents) >= 2:
        return True
    if not meta.parents:
        return False
    return len(repo.diff_against_parent(meta.id, meta.parents[0])) == 0


def select(candidates: list[BicCandidate], config: VariantConfig) -> list[BicCandidate]:
    """The first candidate in the variant's order, or every candidate when
    it has none. Empty input stays empty."""
    if config.order is None or not candidates:
        return list(candidates)
    return [min(candidates, key=config.order)]


def run_configs(
    repo,
    fix_commit: str,
    runs: list[tuple[VariantConfig, datetime | None]],
    refactorings: RefactoringRanges | None = None,
) -> list[list[BicCandidate]]:
    """Full pipeline for one fix under several (configuration, cutoff)
    runs, one candidate list per run, in order.

    The fix's lines are extracted, classified and walked once for all
    runs, and an origin's committer time and meta verdict are looked up at
    most once, when a run first needs them. Each run keeps its traced lines
    at the origin it takes, less those in a refactored range of the fix's
    pre-image, groups them by origin into candidates ordered by hash, drops
    meta-changes and origins committed after its cutoff (``None`` keeps
    them all), and selects."""
    if refactorings is None and any(config.drop_refactored for config, _ in runs):
        raise ConfigurationError("a run drops refactored lines but no ranges were supplied")
    ctx = extract_fix_lines(repo, fix_commit)
    traced = walk(repo, ctx, [config for config, _ in runs])
    when = functools.cache(lambda sha: repo.commit_meta(sha).committer_time)
    meta = functools.cache(lambda sha: is_meta_change(repo, sha))
    results = []
    for config, cutoff in runs:
        by_origin: dict[str, list[FixLine]] = {}
        for t in traced:
            fl = t.line
            if fl.kept_by(config) and not (config.drop_refactored and refactorings.covers(
                    ctx.fix_commit, fl.file, fl.line_no)):
                by_origin.setdefault(t.origin(config), []).append(fl)
        candidates = [
            BicCandidate(sha, lines, when(sha))
            for sha, lines in sorted(by_origin.items())
            if not (config.drop_meta and meta(sha)) and (cutoff is None or when(sha) <= cutoff)
        ]
        results.append(select(candidates, config))
    return results


def regime_cutoff(repo, regime: str, issue_dates, true_bics) -> datetime | None:
    """The latest committer time a date regime keeps for a fix, or None
    to keep every candidate. ``issue-date`` cuts at the earliest issue
    report, if there is one. ``best-case-date`` cuts where a perfectly
    punctual reporter would have: 60 seconds after the latest true
    inducing commit."""
    if regime not in REGIMES:
        raise ConfigurationError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime == "issue-date" and issue_dates:
        return min(issue_dates)
    if regime == "best-case-date":
        bics = list(true_bics)
        if not bics:
            raise ConfigurationError("cannot simulate an issue date from an empty commit set")
        return max(repo.commit_meta(b).committer_time for b in bics) + BEST_CASE_DELTA
    return None
