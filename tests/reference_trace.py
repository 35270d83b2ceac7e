"""The per-key blame trace that ``engine.walk`` replaced, kept as the
reference of a differential test: each (line filter, cosmetic skipping,
depth limit) is traced on its own, from a plain blame of only the lines
that filter keeps. ``line_fates`` derives the same (line, origin, depth,
stuck) records from the hops of ``walk``'s traced lines."""

from __future__ import annotations

import functools

from bictrace import langfilters
from bictrace.engine import (
    BicCandidate,
    FixLine,
    extract_fix_lines,
    is_meta_change,
    select,
)
from bictrace.langfilters import LineClass

DROP_COMMENTS = "drop-comments"
DROP_BLANK = "drop-blank"
DROP_COSMETIC_LINES = "drop-cosmetic-lines"
AG_LINE_FILTER = frozenset({DROP_COMMENTS, DROP_BLANK, DROP_COSMETIC_LINES})


def keeps(line_filter: frozenset[str], fl: FixLine) -> bool:
    if fl.cosmetic and DROP_COSMETIC_LINES in line_filter:
        return False
    if fl.line_class is LineClass.COMMENT and DROP_COMMENTS in line_filter:
        return False
    if fl.line_class is LineClass.BLANK and DROP_BLANK in line_filter:
        return False
    return True


def trace_candidates(
    repo, ctx, line_filter: frozenset[str], skip_cosmetic: bool, depth_limit: int
) -> list[tuple[FixLine, str, int, bool]]:
    """One (line, origin, depth, flagged) per fix line ``line_filter``
    keeps, in fix-line order. With cosmetic skipping, a line whose origin
    only reformatted is re-blamed with that commit ignored, repeatedly,
    until a non-cosmetic origin appears or the depth limit is hit."""
    cosmetic = functools.cache(lambda sha: langfilters.is_cosmetic_commit(repo, sha))
    by_file: dict[str, dict[int, FixLine]] = {}
    for fl in ctx.fix_lines:
        if keeps(line_filter, fl):
            by_file.setdefault(fl.file, {})[fl.line_no] = fl

    traced = []
    for file, lines in by_file.items():
        pending = dict.fromkeys(lines, 0)  # line number -> re-blames so far
        ignore: set[str] = set()
        while pending:
            seen_before = frozenset(ignore)
            progressed = False
            for line_no, origin in repo.blame(ctx.parent, file, set(pending), seen_before).items():
                depth = pending.get(line_no)
                if depth is None:
                    continue
                stuck = origin in seen_before
                if not stuck and skip_cosmetic and cosmetic(origin):
                    if depth < depth_limit:
                        pending[line_no] = depth + 1
                        ignore.add(origin)
                        progressed = True
                        continue
                    stuck = True
                del pending[line_no]
                traced.append((lines[line_no], origin, depth, stuck))
            if not progressed:
                break

    traced.sort(key=lambda t: (t[0].file, t[0].line_no))
    return traced


def reference_lines(repo, ctx, config, depth_limit) -> list[tuple[FixLine, str, int, bool]]:
    """The reference trace of the lines a run of ``config`` keeps."""
    line_filter = AG_LINE_FILTER if config.skip_cosmetic else frozenset()
    return trace_candidates(repo, ctx, line_filter, config.skip_cosmetic, depth_limit)


def line_fates(repo, traced, config) -> list[tuple[FixLine, str, int, bool]]:
    """One (line, origin, depth, stuck) per traced line a run of ``config``
    keeps, derived from its hops: a cosmetic-skipping run re-blamed a line
    ``len(hops) - 1`` times and is stuck when its last hop only
    reformatted; a plain run takes the first hop and never re-blames."""
    skip = config.skip_cosmetic
    return [
        (t.line, t.origin(config), len(t.hops) - 1 if skip else 0,
         skip and langfilters.is_cosmetic_commit(repo, t.hops[-1]))
        for t in traced
        if t.line.kept_by(config)
    ]


def reference_candidates(repo, fix_commit, config, depth_limit, refactorings=None, cutoff=None):
    """A preset's candidates for one fix, built from its own reference
    trace with the filters, cutoff and selection of ``config``."""
    ctx = extract_fix_lines(repo, fix_commit)
    traced = reference_lines(repo, ctx, config, depth_limit)
    by_origin: dict[str, list[tuple[FixLine, str, int, bool]]] = {}
    for t in traced:
        fl = t[0]
        if not (config.drop_refactored and refactorings.covers(ctx.fix_commit, fl.file, fl.line_no)):
            by_origin.setdefault(t[1], []).append(t)
    candidates = []
    for sha, lines in sorted(by_origin.items()):
        if config.drop_meta and is_meta_change(repo, sha):
            continue
        when = repo.commit_meta(sha).committer_time
        if cutoff is not None and when > cutoff:
            continue
        candidates.append(BicCandidate(sha, [t[0] for t in lines], when))
    return select(candidates, config)
