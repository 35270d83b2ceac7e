"""Detection pipeline: presets, line extraction, tracing, selection."""

from __future__ import annotations

import itertools
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from bictrace import engine
from bictrace.engine import (
    DEFAULT_DEPTH_LIMIT,
    DROP_REFACTORED_LINES,
    PRESET_NAMES,
    PRESETS,
    SELECT_ALL,
    SELECT_LARGEST,
    SELECT_LATEST,
    SKIP_COSMETIC,
    BicCandidate,
    FixLine,
    RefactoringRanges,
    VariantConfig,
    extract_fix_lines,
    load_refactoring_ranges,
    preset,
    preset_name,
    run_configs,
    run_variant,
    select,
    simulate_best_case_issue_date,
)
from bictrace.errors import ConfigurationError, RootCommitError, SchemaError
from bictrace.gitrepo import GitRepo
from bictrace.langfilters import LineClass

UTC = timezone.utc


# --- preset table -----------------------------------------------------------


def test_preset_names_and_order():
    assert PRESET_NAMES == ("B", "AG", "MA", "L", "R", "RA-lite")


def test_preset_wiring():
    ag_lines = frozenset({"drop-comments", "drop-blank", "drop-cosmetic-lines"})
    assert PRESETS["B"] == VariantConfig(
        fix_line_filter=frozenset(), trace="plain-blame",
        bic_filters=frozenset(), selection=SELECT_ALL,
    )
    assert PRESETS["AG"].fix_line_filter == ag_lines
    assert PRESETS["AG"].trace == SKIP_COSMETIC
    assert PRESETS["AG"].bic_filters == frozenset()
    assert PRESETS["MA"] == replace(
        PRESETS["AG"], bic_filters=frozenset({"drop-meta-changes"})
    )
    assert PRESETS["L"] == replace(PRESETS["MA"], selection=SELECT_LARGEST)
    assert PRESETS["R"] == replace(PRESETS["MA"], selection=SELECT_LATEST)
    assert PRESETS["RA-lite"] == replace(
        PRESETS["MA"],
        bic_filters=PRESETS["MA"].bic_filters | {DROP_REFACTORED_LINES},
    )
    for cfg in PRESETS.values():
        assert cfg.depth_limit == DEFAULT_DEPTH_LIMIT


@pytest.mark.parametrize(
    "spelling,canonical",
    [
        ("B", "B"),
        ("b", "B"),
        ("ag-szz", "AG"),
        ("MA-SZZ", "MA"),
        ("l", "L"),
        ("R-szz", "R"),
        ("ra-lite", "RA-lite"),
        ("RA-LITE-SZZ", "RA-lite"),
        ("  ma  ", "MA"),
    ],
)
def test_preset_lookup_spellings(spelling, canonical):
    assert preset(spelling) == PRESETS[canonical]
    assert preset_name(spelling) == canonical


@pytest.mark.parametrize("bad", ["", "Q", "szz", "ra", "largest"])
def test_unknown_preset_rejected(bad):
    with pytest.raises(ConfigurationError):
        preset(bad)


# --- refactoring ranges -----------------------------------------------------

FULL = "a" * 40


def test_ranges_cover_inclusive_bounds():
    r = RefactoringRanges()
    r.add(FULL, "core.c", 4, 6)
    assert not r.covers(FULL, "core.c", 3)
    assert r.covers(FULL, "core.c", 4)
    assert r.covers(FULL, "core.c", 6)
    assert not r.covers(FULL, "core.c", 7)
    assert not r.covers(FULL, "other.c", 5)
    assert not r.covers("b" * 40, "core.c", 5)
    assert len(r) == 1


def test_ranges_reject_bad_rows():
    r = RefactoringRanges()
    with pytest.raises(SchemaError):
        r.add("abc123", "core.c", 1, 2)  # abbreviated hash
    with pytest.raises(SchemaError):
        r.add(FULL, "core.c", 0, 2)
    with pytest.raises(SchemaError):
        r.add(FULL, "core.c", 5, 4)


def test_load_ranges_with_and_without_header(tmp_path):
    with_header = tmp_path / "a.csv"
    with_header.write_text(
        "fix_commit,file,start,end\n"
        f"{FULL},core.c,4,5\n"
        f"{FULL},core.c,9,9\n"
    )
    r = load_refactoring_ranges(with_header)
    assert len(r) == 2
    assert r.covers(FULL, "core.c", 9)

    headerless = tmp_path / "b.csv"
    headerless.write_text(f"{FULL},core.c,1,2\n\n")
    r2 = load_refactoring_ranges(headerless)
    assert len(r2) == 1


def test_load_ranges_rejects_malformed_rows(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text(f"{FULL},core.c,4\n")
    with pytest.raises(SchemaError):
        load_refactoring_ranges(short)

    words = tmp_path / "words.csv"
    words.write_text(f"fix,file,start,end\n{FULL},core.c,four,five\n")
    with pytest.raises(SchemaError):
        load_refactoring_ranges(words)


# --- fix line extraction ----------------------------------------------------


def test_extract_keeps_everything_without_filters(suite):
    sc = suite["comment_blank_extract"]
    repo = GitRepo(sc.path)
    ctx = extract_fix_lines(repo, sc.fix)
    classes = {fl.line_class for fl in ctx.fix_lines}
    assert LineClass.COMMENT in classes or LineClass.BLANK in classes
    assert ctx.fix_commit == sc.fix
    assert ctx.fix_lines == sorted(ctx.fix_lines, key=lambda fl: (fl.file, fl.line_no))


def test_extract_drops_comment_blank_cosmetic(suite):
    sc = suite["comment_blank_extract"]
    repo = GitRepo(sc.path)
    ctx = extract_fix_lines(repo, sc.fix).keep(PRESETS["AG"].fix_line_filter)
    for fl in ctx.fix_lines:
        assert fl.line_class not in (LineClass.COMMENT, LineClass.BLANK)
    b_ctx = extract_fix_lines(repo, sc.fix)
    assert len(ctx.fix_lines) < len(b_ctx.fix_lines)


def test_extract_additive_fix_is_empty(suite):
    sc = suite["added_only_fix"]
    repo = GitRepo(sc.path)
    ctx = extract_fix_lines(repo, sc.fix)
    assert ctx.fix_lines == []


def test_extract_rejects_root_commit(suite):
    sc = suite["plain_bug_fix"]
    repo = GitRepo(sc.path)
    with pytest.raises(RootCommitError):
        extract_fix_lines(repo, sc.labels["root"])


# --- the full preset table over the scripted suite ---------------------------


@pytest.mark.parametrize("preset_key", PRESET_NAMES)
def test_presets_match_scripted_expectations(suite, suite_ranges, preset_key):
    for name in sorted(suite):
        sc = suite[name]
        repo = GitRepo(sc.path)
        ranges = suite_ranges if preset_key == "RA-lite" else None
        got = run_variant(repo, sc.fix, preset_key, refactorings=ranges)
        assert got == set(sc.expected[preset_key]), f"{name} under {preset_key}"


def test_ra_lite_needs_ranges(suite):
    sc = suite["refactoring_range"]
    repo = GitRepo(sc.path)
    with pytest.raises(ConfigurationError):
        run_variant(repo, sc.fix, "RA-lite")


# --- cosmetic skip depth ------------------------------------------------------


def test_depth_limit_flags_stuck_trace(suite):
    sc = suite["cosmetic_chain"]
    repo = GitRepo(sc.path)

    shallow = replace(PRESETS["AG"], depth_limit=1)
    [cands] = run_configs(repo, sc.fix, [(shallow, None)])
    assert {c.commit for c in cands} == {sc.notes["depth1_expected"]}
    assert all(c.cosmetic_flagged for c in cands)

    [deep] = run_configs(repo, sc.fix, [(PRESETS["AG"], None)])
    assert {c.commit for c in deep} == set(sc.expected["AG"])
    assert all(not c.cosmetic_flagged for c in deep)
    assert max(c.trace_depth for c in deep) == 2


def test_plain_blame_never_traces(suite):
    sc = suite["cosmetic_chain"]
    repo = GitRepo(sc.path)
    [cands] = run_configs(repo, sc.fix, [(PRESETS["B"], None)])
    assert all(c.trace_depth == 0 for c in cands)


# --- issue date regime --------------------------------------------------------


def test_issue_dates_filter_late_candidates(suite):
    sc = suite["issue_date"]
    repo = GitRepo(sc.path)
    opened = [issue.opened_at for issue in sc.issues]

    unfiltered = run_variant(repo, sc.fix, "MA")
    assert unfiltered == set(sc.expected["MA"])

    filtered = run_variant(repo, sc.fix, "MA", issue_dates=opened)
    assert filtered == set(sc.notes["issue_filtered"])
    assert filtered < unfiltered


def test_earliest_issue_date_wins(suite):
    sc = suite["issue_date"]
    repo = GitRepo(sc.path)
    opened = min(issue.opened_at for issue in sc.issues)
    late = opened + timedelta(days=365)
    # the earliest report sets the cutoff, extra later reports change nothing
    both = run_variant(repo, sc.fix, "MA", issue_dates=[late, opened])
    only_early = run_variant(repo, sc.fix, "MA", issue_dates=[opened])
    assert both == only_early


def test_best_case_issue_date_value(suite):
    sc = suite["selection_split"]
    repo = GitRepo(sc.path)
    latest = max(repo.commit_meta(b).committer_time for b in sc.true_bics)
    assert simulate_best_case_issue_date(repo, sc.true_bics) == latest + timedelta(
        seconds=60
    )
    with pytest.raises(ValueError):
        simulate_best_case_issue_date(repo, [])


def test_best_case_date_keeps_every_true_positive(suite):
    # the simulated reporter files just after the last inducing commit, so
    # filtering by that date can only drop false positives
    for name in sorted(suite):
        sc = suite[name]
        if not sc.true_bics:
            continue
        repo = GitRepo(sc.path)
        cutoff = simulate_best_case_issue_date(repo, sc.true_bics)
        plain = run_variant(repo, sc.fix, "MA")
        dated = run_variant(repo, sc.fix, "MA", issue_dates=[cutoff])
        assert dated <= plain, name
        assert plain & set(sc.true_bics) <= dated, name


# --- shared work across presets -----------------------------------------------


def _runs(repo, sc):
    """Every preset under the cutoff of every regime, as ``detect`` works
    them out for a scenario."""
    cutoffs = [None]
    if sc.issues:
        cutoffs.append(min(issue.opened_at for issue in sc.issues))
    if sc.true_bics:
        cutoffs.append(simulate_best_case_issue_date(repo, sc.true_bics))
    return [(PRESETS[key], cutoff) for cutoff in cutoffs for key in PRESET_NAMES]


def test_all_presets_at_once_match_each_alone(suite, suite_ranges):
    for name in sorted(suite):
        sc = suite[name]
        repo = GitRepo(sc.path)
        runs = _runs(repo, sc)
        together = run_configs(repo, sc.fix, runs, suite_ranges)
        for run, got in zip(runs, together):
            assert [got] == run_configs(repo, sc.fix, [run], suite_ranges), f"{name} {run}"
        # shared candidates carry no state from one run to the next
        backwards = run_configs(repo, sc.fix, runs[::-1], suite_ranges)
        assert backwards == together[::-1], name


def test_entries_need_no_show_or_rev_parse(suite, suite_ranges, git_subcommands):
    # one rev-parse probes the clone, one cat-file answers every resolve,
    # metadata and file read; show and rev-parse only stand in for errors
    for name, sc in sorted(suite.items()):
        git_subcommands.clear()
        with GitRepo(sc.path) as repo:
            run_configs(repo, sc.fix, [(PRESETS[n], None) for n in PRESET_NAMES], suite_ranges)
        assert git_subcommands[:2] == ["rev-parse", "cat-file"], name
        assert set(git_subcommands[2:]) <= {"blame", "diff"}, name


class _CountingRepo:
    """Passes every call through to a repository, recording blame calls
    and file reads."""

    def __init__(self, repo):
        self._repo = repo
        self.blames = 0
        self.reads: list[tuple[str, str]] = []

    def __getattr__(self, name):
        return getattr(self._repo, name)

    def blame(self, *args):
        self.blames += 1
        return self._repo.blame(*args)

    def file_at(self, revision, path):
        self.reads.append((revision, path))
        return self._repo.file_at(revision, path)


def test_all_presets_trace_at_most_twice(suite, suite_ranges, monkeypatch):
    traced = []
    real_trace = engine.trace_candidates

    def counting_trace(repo, ctx, config):
        traced.append(config)
        return real_trace(repo, ctx, config)

    monkeypatch.setattr(engine, "trace_candidates", counting_trace)
    for name in sorted(suite):
        sc = suite[name]
        together = _CountingRepo(GitRepo(sc.path))
        runs = _runs(together, sc)
        traced.clear()
        run_configs(together, sc.fix, runs, refactorings=suite_ranges)
        assert len(traced) <= 2, name
        assert len(together.reads) == len(set(together.reads)), name

        # the blame calls are exactly those of B and AG run on their own,
        # whatever the cutoffs
        plain, ag = _CountingRepo(GitRepo(sc.path)), _CountingRepo(GitRepo(sc.path))
        run_configs(plain, sc.fix, [(PRESETS["B"], None)])
        run_configs(ag, sc.fix, [(PRESETS["AG"], None)])
        assert together.blames == plain.blames + ag.blames, name


# --- selection ----------------------------------------------------------------


def _cand(sha: str, lines: int, when: datetime) -> BicCandidate:
    support = [FixLine("f.c", i + 1, "x;", LineClass.CODE) for i in range(lines)]
    return BicCandidate(commit=sha, supporting_lines=support, committer_time=when)


T0 = datetime(2021, 3, 1, tzinfo=UTC)


def _largest_key(c):
    return (-len(c.supporting_lines), -c.committer_time.timestamp(), c.commit)


def _latest_key(c):
    return (-c.committer_time.timestamp(), c.commit)


def test_largest_prefers_more_supporting_lines():
    a = _cand("a" * 40, 3, T0)
    b = _cand("b" * 40, 1, T0 + timedelta(hours=5))
    cfg = VariantConfig(selection=SELECT_LARGEST)
    assert select([a, b], cfg) == [a]


def test_largest_breaks_size_tie_on_recency_then_hash():
    older = _cand("0" * 40, 2, T0)
    newer = _cand("f" * 40, 2, T0 + timedelta(minutes=1))
    cfg = VariantConfig(selection=SELECT_LARGEST)
    assert select([older, newer], cfg) == [newer]

    same_time_hi = _cand("e" * 40, 2, T0)
    same_time_lo = _cand("1" * 40, 2, T0)
    assert select([same_time_hi, same_time_lo], cfg) == [same_time_lo]


def test_latest_ignores_support_size():
    big_old = _cand("a" * 40, 9, T0)
    small_new = _cand("b" * 40, 1, T0 + timedelta(seconds=1))
    cfg = VariantConfig(selection=SELECT_LATEST)
    assert select([big_old, small_new], cfg) == [small_new]


def test_selection_is_order_independent():
    cands = [
        _cand("a" * 40, 2, T0),
        _cand("b" * 40, 2, T0),
        _cand("c" * 40, 3, T0 - timedelta(days=1)),
        _cand("d" * 40, 1, T0 + timedelta(days=1)),
    ]
    for cfg, key in [
        (VariantConfig(selection=SELECT_LARGEST), _largest_key),
        (VariantConfig(selection=SELECT_LATEST), _latest_key),
    ]:
        want = [min(cands, key=key)]
        for perm in itertools.permutations(cands):
            assert select(list(perm), cfg) == want


def test_select_all_and_empty_are_passthrough():
    cands = [_cand("a" * 40, 1, T0), _cand("b" * 40, 2, T0)]
    assert select(cands, VariantConfig(selection=SELECT_ALL)) == cands
    assert select([], VariantConfig(selection=SELECT_LARGEST)) == []
