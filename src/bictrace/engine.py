"""Configurable bug-inducing-commit detection pipeline.

A variant is four choices: which removed fix lines to keep, how to trace
them back through history, which candidate commits to filter out, and
whether to reduce the survivors to a single pick. The named presets wire
those choices into the classic algorithm family:

    B        keep all lines, plain blame, no filters, keep all candidates
    AG       drop comment/blank/cosmetic lines, skip formatting commits
    MA       AG plus dropping meta-changes (merges, empty-text diffs)
    L        MA reduced to the candidate with the most supporting lines
    R        MA reduced to the candidate with the latest committer time
    RA-lite  MA plus dropping fix lines covered by supplied refactoring ranges

All tracing happens against the first-parent pre-image of the fix commit,
so removed-line numbers always refer to that revision.

A date regime is a cutoff on candidate committer times, not a variant.
Presets and regimes run together share their common work: ``run_configs``
extracts and classifies a fix's lines once and traces each distinct
(fix-line filter, trace, depth limit) once, so the six presets under
every regime cost one plain-blame trace and one cosmetic-skipping trace
per fix. Filters, cutoffs and selections then run per (preset, cutoff)
over those read-only candidates.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

from . import langfilters
from .errors import ConfigurationError, RootCommitError, SchemaError
from .langfilters import LineClass

DROP_COMMENTS = "drop-comments"
DROP_BLANK = "drop-blank"
DROP_COSMETIC_LINES = "drop-cosmetic-lines"

DROP_META_CHANGES = "drop-meta-changes"
DROP_REFACTORED_LINES = "drop-refactored-lines"

PLAIN_BLAME = "plain-blame"
SKIP_COSMETIC = "skip-cosmetic-commits"

SELECT_ALL = "all"
SELECT_LARGEST = "largest"
SELECT_LATEST = "latest"

DEFAULT_DEPTH_LIMIT = 10
BEST_CASE_DELTA = timedelta(seconds=60)

_FULL_HASH_RE = re.compile(r"^[0-9a-f]{40}$")


@dataclass(frozen=True)
class VariantConfig:
    fix_line_filter: frozenset[str] = frozenset()
    trace: str = PLAIN_BLAME
    bic_filters: frozenset[str] = frozenset()
    selection: str = SELECT_ALL
    depth_limit: int = DEFAULT_DEPTH_LIMIT


_AG_LINE_FILTER = frozenset({DROP_COMMENTS, DROP_BLANK, DROP_COSMETIC_LINES})

PRESETS: dict[str, VariantConfig] = {
    "B": VariantConfig(),
    "AG": VariantConfig(fix_line_filter=_AG_LINE_FILTER, trace=SKIP_COSMETIC),
    "MA": VariantConfig(
        fix_line_filter=_AG_LINE_FILTER,
        trace=SKIP_COSMETIC,
        bic_filters=frozenset({DROP_META_CHANGES}),
    ),
    "L": VariantConfig(
        fix_line_filter=_AG_LINE_FILTER,
        trace=SKIP_COSMETIC,
        bic_filters=frozenset({DROP_META_CHANGES}),
        selection=SELECT_LARGEST,
    ),
    "R": VariantConfig(
        fix_line_filter=_AG_LINE_FILTER,
        trace=SKIP_COSMETIC,
        bic_filters=frozenset({DROP_META_CHANGES}),
        selection=SELECT_LATEST,
    ),
    "RA-lite": VariantConfig(
        fix_line_filter=_AG_LINE_FILTER,
        trace=SKIP_COSMETIC,
        bic_filters=frozenset({DROP_META_CHANGES, DROP_REFACTORED_LINES}),
    ),
}

PRESET_NAMES = tuple(PRESETS)


def preset(name: str) -> VariantConfig:
    """Look up a preset by name, case-insensitively; a trailing "-szz"
    suffix is tolerated (``r-szz`` means ``R``)."""
    norm = name.strip().upper()
    if norm.endswith("-SZZ"):
        norm = norm[: -len("-SZZ")]
    if norm == "RA-LITE":
        norm = "RA-lite"
    if norm not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}"
        )
    return PRESETS[norm]


def preset_name(name: str) -> str:
    cfg = preset(name)
    for key, value in PRESETS.items():
        if value == cfg:
            return key
    raise AssertionError  # pragma: no cover


@dataclass(frozen=True)
class FixLine:
    file: str
    line_no: int
    text: str
    line_class: LineClass
    cosmetic: bool = False  # the fix only reformatted this line


@dataclass
class FixContext:
    fix_commit: str
    parent: str
    fix_lines: list[FixLine]

    def keep(self, line_filter: frozenset[str]) -> FixContext:
        """The same fix with only the lines ``line_filter`` keeps."""
        return replace(
            self, fix_lines=[fl for fl in self.fix_lines if _keeps(line_filter, fl)]
        )


def _keeps(line_filter: frozenset[str], fl: FixLine) -> bool:
    if fl.cosmetic and DROP_COSMETIC_LINES in line_filter:
        return False
    if fl.line_class is LineClass.COMMENT and DROP_COMMENTS in line_filter:
        return False
    if fl.line_class is LineClass.BLANK and DROP_BLANK in line_filter:
        return False
    return True


@dataclass(frozen=True)
class BicCandidate:
    commit: str
    supporting_lines: list[FixLine]
    committer_time: datetime
    trace_depth: int = 0
    cosmetic_flagged: bool = False


class RefactoringRanges:
    """Externally supplied line ranges of a fix's pre-image that were only
    touched by refactoring, keyed by (full fix hash, file path)."""

    def __init__(self, ranges: dict[tuple[str, str], list[tuple[int, int]]] | None = None):
        self._ranges = dict(ranges or {})

    def covers(self, commit: str, file: str, line_no: int) -> bool:
        for start, end in self._ranges.get((commit, file), ()):
            if start <= line_no <= end:
                return True
        return False

    def add(self, commit: str, file: str, start: int, end: int) -> None:
        if not _FULL_HASH_RE.match(commit):
            raise SchemaError(f"refactoring range needs a full 40-char hash, got {commit!r}")
        if start < 1 or end < start:
            raise SchemaError(f"bad refactoring range {start}-{end} for {file}")
        self._ranges.setdefault((commit, file), []).append((start, end))

    def __len__(self) -> int:
        return sum(len(v) for v in self._ranges.values())


def load_refactoring_ranges(path: str | Path) -> RefactoringRanges:
    """Read ranges from a CSV file with columns
    ``commit_hash,file_path,start_line,end_line``. A header row is
    recognized and skipped."""
    ranges = RefactoringRanges()
    with open(path, newline="", encoding="utf-8") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise SchemaError(f"{path}:{row_no}: expected 4 columns, got {len(row)}")
            commit, file, start, end = (cell.strip() for cell in row)
            if row_no == 1 and not start.isdigit():
                continue  # header
            if not start.isdigit() or not end.isdigit():
                raise SchemaError(f"{path}:{row_no}: line numbers must be integers")
            ranges.add(commit, file, int(start), int(end))
    return ranges


def extract_fix_lines(repo, fix_commit: str) -> FixContext:
    """Collect the pre-image lines a fix removed or modified, each with its
    class and whether the fix only reformatted it. Every pre-image file is
    read and classified once; ``FixContext.keep`` narrows the lines to a
    variant's fix-line filter. A fix that only adds lines yields an empty
    context, which is a valid (empty) detection result."""
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
        for line_no, text in hunk.removed:
            idx = line_no - 1
            cls = classes[idx] if 0 <= idx < len(classes) else LineClass.CODE
            fix_lines.append(FixLine(file, line_no, text, cls, line_no in cosmetic))

    fix_lines.sort(key=lambda fl: (fl.file, fl.line_no))
    return FixContext(fix_commit=full, parent=parent, fix_lines=fix_lines)


def _cosmetic_drops(hunk) -> set[int]:
    """Removed-line numbers of a hunk that are formatting-only.

    Whole-hunk squash equality drops everything (covers lines split or
    joined); otherwise removed and added lines are paired positionally
    and equal pairs dropped."""
    if langfilters.is_cosmetic_hunk(hunk) and hunk.removed and hunk.added:
        return {line_no for line_no, _ in hunk.removed}
    drops: set[int] = set()
    for (r_no, r_text), (_, a_text) in zip(hunk.removed, hunk.added):
        if langfilters.is_cosmetic_change(r_text, a_text):
            drops.add(r_no)
    return drops


def trace_candidates(repo, ctx: FixContext, config: VariantConfig) -> list[BicCandidate]:
    """Blame every fix line at the fix's first-parent revision and group
    the origins into candidates.

    With cosmetic skipping, a line whose origin only reformatted is
    re-blamed with that commit ignored, repeatedly, until a non-cosmetic
    origin appears or the depth limit is hit; the number of re-blames is
    recorded as the line's trace depth. An exhausted line keeps its
    cosmetic origin and the candidate is flagged."""
    if not ctx.fix_lines:
        return []

    cosmetic_cache: dict[str, bool] = {}

    def cosmetic(sha: str) -> bool:
        if sha not in cosmetic_cache:
            cosmetic_cache[sha] = langfilters.is_cosmetic_commit(repo, sha)
        return cosmetic_cache[sha]

    by_file: dict[str, dict[int, FixLine]] = {}
    for fl in ctx.fix_lines:
        by_file.setdefault(fl.file, {})[fl.line_no] = fl

    support: dict[str, list[FixLine]] = {}
    max_depth: dict[str, int] = {}
    flagged_any: dict[str, bool] = {}

    for file, pending in by_file.items():
        pending = dict(pending)
        ignore: set[str] = set()
        depth: dict[int, int] = {ln: 0 for ln in pending}

        def finalize(ln: int, origin: str, flagged: bool) -> None:
            support.setdefault(origin, []).append(pending.pop(ln))
            max_depth[origin] = max(max_depth.get(origin, 0), depth[ln])
            flagged_any[origin] = flagged_any.get(origin, False) or flagged

        while pending:
            records = repo.blame(ctx.parent, file, set(pending), frozenset(ignore))
            seen_before = frozenset(ignore)
            progressed = False
            for rec in records:
                ln = rec.line_no
                if ln not in pending:
                    continue
                if rec.origin in seen_before:
                    # already ignored this commit and blame could not move
                    # past it: the line was introduced there, keep and flag
                    finalize(ln, rec.origin, flagged=True)
                elif config.trace == SKIP_COSMETIC and cosmetic(rec.origin):
                    if depth[ln] < config.depth_limit:
                        depth[ln] += 1
                        ignore.add(rec.origin)
                        progressed = True
                    else:
                        finalize(ln, rec.origin, flagged=True)
                else:
                    finalize(ln, rec.origin, flagged=False)
            if pending and not progressed:
                break  # blame yielded nothing to advance; avoid spinning

    return [
        BicCandidate(
            commit=sha,
            supporting_lines=sorted(support[sha], key=lambda fl: (fl.file, fl.line_no)),
            trace_depth=max_depth[sha],
            cosmetic_flagged=flagged_any[sha],
            committer_time=repo.commit_meta(sha).committer_time,
        )
        for sha in sorted(support)
    ]


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
    candidates: list[BicCandidate],
    ctx: FixContext,
    config: VariantConfig,
    refactorings: RefactoringRanges | None = None,
    cutoff: datetime | None = None,
) -> list[BicCandidate]:
    """Drop candidates per the variant's filters, and those committed
    after ``cutoff`` when one is given. ``candidates`` is left as it was."""
    result = list(candidates)

    if DROP_META_CHANGES in config.bic_filters:
        result = [c for c in result if not is_meta_change(repo, c.commit)]

    if cutoff is not None:
        result = [c for c in result if c.committer_time <= cutoff]

    if DROP_REFACTORED_LINES in config.bic_filters:
        if refactorings is None:
            raise ConfigurationError(
                "drop-refactored-lines is enabled but no refactoring ranges were supplied"
            )
        kept: list[BicCandidate] = []
        for cand in result:
            support = [
                fl
                for fl in cand.supporting_lines
                if not refactorings.covers(ctx.fix_commit, fl.file, fl.line_no)
            ]
            if support:
                if len(support) != len(cand.supporting_lines):
                    cand = replace(cand, supporting_lines=support)
                kept.append(cand)
        result = kept

    return result


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
    The work the runs share is done once: the fix's lines are extracted
    and classified once, and each distinct (fix-line filter, trace, depth
    limit) is traced once, whatever the cutoffs. Every run then only
    filters and selects from those read-only candidates."""
    ctx = extract_fix_lines(repo, fix_commit)
    traces: dict[tuple[frozenset[str], str, int], list[BicCandidate]] = {}
    results = []
    for config, cutoff in runs:
        key = (config.fix_line_filter, config.trace, config.depth_limit)
        if key not in traces:
            traces[key] = trace_candidates(repo, ctx.keep(config.fix_line_filter), config)
        candidates = filter_candidates(repo, traces[key], ctx, config, refactorings, cutoff)
        results.append(select(candidates, config))
    return results


def run_variant(
    repo,
    fix_commit: str,
    preset_name_: str,
    issue_dates: list[datetime] | None = None,
    refactorings: RefactoringRanges | None = None,
) -> set[str]:
    """Detected bug-inducing commits (full hashes) for one fix under a
    named preset; with ``issue_dates``, only those committed no later
    than the earliest of them."""
    cutoff = min(issue_dates) if issue_dates else None
    [cands] = run_configs(repo, fix_commit, [(preset(preset_name_), cutoff)], refactorings)
    return {c.commit for c in cands}


def simulate_best_case_issue_date(repo, true_bics) -> datetime:
    """The issue-opening date a perfectly punctual reporter would have
    produced: the latest true inducing commit's committer time plus 60
    seconds."""
    bics = list(true_bics)
    if not bics:
        raise ValueError("cannot simulate an issue date from an empty commit set")
    latest = max(repo.commit_meta(b).committer_time for b in bics)
    return latest + BEST_CASE_DELTA
