"""Configurable bug-inducing-commit detection pipeline.

A variant is three choices: whether to skip cosmetic work (drop comment,
blank and reformatted fix lines, and blame past commits that only
reformat), which candidate commits to filter out, and whether to reduce
the survivors to a single pick. The named presets wire those choices
into the classic algorithm family:

    B        keep all lines, plain blame, no filters, keep all candidates
    AG       skip cosmetic lines and commits
    MA       AG plus dropping meta-changes (merges, empty-text diffs)
    L        MA reduced to the candidate with the most supporting lines
    R        MA reduced to the candidate with the latest committer time
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
selections then run per (preset, cutoff) over those read-only lines.
"""

from __future__ import annotations

import csv
import functools
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from . import langfilters
from .errors import ConfigurationError, RootCommitError, SchemaError
from .langfilters import LineClass

DROP_META_CHANGES = "drop-meta-changes"
DROP_REFACTORED_LINES = "drop-refactored-lines"

SELECT_ALL = "all"
SELECT_LARGEST = "largest"
SELECT_LATEST = "latest"

DEPTH_LIMIT = 10  # re-blames of one line; the walk keeps the commit it reached

REGIMES = ("none", "issue-date", "best-case-date")
BEST_CASE_DELTA = timedelta(seconds=60)

_FULL_HASH_RE = re.compile(r"[0-9a-f]{40}")


@dataclass(frozen=True)
class VariantConfig:
    skip_cosmetic: bool = False
    bic_filters: frozenset[str] = frozenset()
    selection: str = SELECT_ALL


_META = frozenset({DROP_META_CHANGES})

PRESETS: dict[str, VariantConfig] = {
    "B": VariantConfig(),
    "AG": VariantConfig(skip_cosmetic=True),
    "MA": VariantConfig(skip_cosmetic=True, bic_filters=_META),
    "L": VariantConfig(skip_cosmetic=True, bic_filters=_META, selection=SELECT_LARGEST),
    "R": VariantConfig(skip_cosmetic=True, bic_filters=_META, selection=SELECT_LATEST),
    "RA-lite": VariantConfig(
        skip_cosmetic=True, bic_filters=_META | {DROP_REFACTORED_LINES}
    ),
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


def filter_candidates(
    repo,
    traced: list[TracedLine],
    ctx: FixContext,
    config: VariantConfig,
    refactorings: RefactoringRanges | None = None,
    cutoff: datetime | None = None,
) -> list[BicCandidate]:
    """Keep the traced lines the variant keeps, at the origin it takes, and
    drop those whose origin is a meta-change or was committed after
    ``cutoff`` when one is given, and those in a refactored range of the
    fix's pre-image. The surviving lines are grouped by origin into
    candidates, ordered by hash. ``traced`` is left as it was."""
    drop_refactored = DROP_REFACTORED_LINES in config.bic_filters
    if drop_refactored and refactorings is None:
        raise ConfigurationError(
            "drop-refactored-lines is enabled but no refactoring ranges were supplied"
        )
    by_origin: dict[str, list[FixLine]] = {}
    for t in traced:
        fl = t.line
        if fl.kept_by(config) and not (
            drop_refactored and refactorings.covers(ctx.fix_commit, fl.file, fl.line_no)
        ):
            by_origin.setdefault(t.origin(config), []).append(fl)

    candidates = []
    for sha, lines in sorted(by_origin.items()):
        if DROP_META_CHANGES in config.bic_filters and is_meta_change(repo, sha):
            continue
        when = repo.commit_meta(sha).committer_time
        if cutoff is not None and when > cutoff:
            continue
        candidates.append(BicCandidate(sha, lines, when))
    return candidates


def select(candidates: list[BicCandidate], config: VariantConfig) -> list[BicCandidate]:
    """Reduce candidates per the variant's selection rule.

    Largest keeps the candidate with the most supporting lines, Latest the
    one with the greatest committer time. Ties prefer the later committer
    time, then the lexicographically smaller full hash. Empty input stays
    empty."""
    if config.selection == SELECT_ALL or not candidates:
        return list(candidates)
    if config.selection == SELECT_LARGEST:
        key = lambda c: (-len(c.supporting_lines), -c.committer_time.timestamp(), c.commit)
    elif config.selection == SELECT_LATEST:
        key = lambda c: (-c.committer_time.timestamp(), c.commit)
    else:
        raise ConfigurationError(f"unknown selection {config.selection!r}")
    return [sorted(candidates, key=key)[0]]


def run_configs(
    repo,
    fix_commit: str,
    runs: list[tuple[VariantConfig, datetime | None]],
    refactorings: RefactoringRanges | None = None,
) -> list[list[BicCandidate]]:
    """Full pipeline for one fix under several (configuration, cutoff)
    runs, one candidate list per run, in order.

    A cutoff drops candidates committed after it; ``None`` keeps them all.
    The work the runs share is done once: the fix's lines are extracted,
    classified and walked once, whatever the presets and cutoffs. Every
    run then only filters and selects from those read-only traced lines."""
    ctx = extract_fix_lines(repo, fix_commit)
    traced = walk(repo, ctx, [config for config, _ in runs])
    results = []
    for config, cutoff in runs:
        candidates = filter_candidates(repo, traced, ctx, config, refactorings, cutoff)
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
            raise ValueError("cannot simulate an issue date from an empty commit set")
        return max(repo.commit_meta(b).committer_time for b in bics) + BEST_CASE_DELTA
    return None
