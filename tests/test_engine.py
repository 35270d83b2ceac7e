"""Detection pipeline: presets, line extraction, tracing, selection."""

from __future__ import annotations

import itertools
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone

import pytest

from bictrace import engine
from bictrace.engine import (
    PRESETS,
    REGIMES,
    BicCandidate,
    FixLine,
    RefactoringRanges,
    VariantConfig,
    extract_fix_lines,
    largest,
    latest,
    load_refactoring_ranges,
    preset,
    preset_name,
    regime_cutoff,
    run_configs,
    select,
    walk,
)
from bictrace.errors import ConfigurationError, RootCommitError, SchemaError
from bictrace.gitrepo import GitRepo
from bictrace.langfilters import LineClass
from desk import GitScripter
from memrepo import MODEL_FILE, random_history
from reference_trace import line_fates, reference_candidates, reference_lines
from variants import run_variant

UTC = timezone.utc


# --- preset table -----------------------------------------------------------


def test_preset_names_and_order():
    assert tuple(PRESETS) == ("B", "AG", "MA", "L", "R", "RA-lite")


def test_preset_wiring():
    assert [f.name for f in fields(VariantConfig)] == [
        "skip_cosmetic", "drop_meta", "drop_refactored", "order",
    ]
    assert PRESETS["B"] == VariantConfig(
        skip_cosmetic=False, drop_meta=False, drop_refactored=False, order=None,
    )
    assert PRESETS["AG"] == replace(PRESETS["B"], skip_cosmetic=True)
    assert PRESETS["MA"] == replace(PRESETS["AG"], drop_meta=True)
    assert PRESETS["L"] == replace(PRESETS["MA"], order=largest)
    assert PRESETS["R"] == replace(PRESETS["MA"], order=latest)
    assert PRESETS["RA-lite"] == replace(PRESETS["MA"], drop_refactored=True)


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
    assert r.covers(FULL, "core.c", 5)


def test_ranges_reject_bad_rows():
    r = RefactoringRanges()
    with pytest.raises(SchemaError):
        r.add("abc123", "core.c", 1, 2)  # abbreviated hash
    with pytest.raises(SchemaError):
        r.add(FULL + "\n", "core.c", 1, 2)
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
    assert [n for n in range(1, 11) if r.covers(FULL, "core.c", n)] == [4, 5, 9]

    headerless = tmp_path / "b.csv"
    headerless.write_text(f"{FULL},core.c,1,2\n\n")
    r2 = load_refactoring_ranges(headerless)
    assert [n for n in range(1, 11) if r2.covers(FULL, "core.c", n)] == [1, 2]


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
    ctx = extract_fix_lines(repo, sc.fix)
    kept = [fl for fl in ctx.fix_lines if fl.kept_by(PRESETS["AG"])]
    for fl in kept:
        assert fl.line_class not in (LineClass.COMMENT, LineClass.BLANK)
    assert len(kept) < len(ctx.fix_lines)
    assert all(fl.kept_by(PRESETS["B"]) for fl in ctx.fix_lines)


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


@pytest.mark.parametrize("preset_key", tuple(PRESETS))
def test_presets_match_scripted_expectations(suite, suite_ranges, preset_key):
    for name in sorted(suite):
        sc = suite[name]
        repo = GitRepo(sc.path)
        ranges = suite_ranges if preset_key == "RA-lite" else None
        got = run_variant(repo, sc.fix, preset_key, refactorings=ranges)
        assert got == set(sc.expected[preset_key]), f"{name} under {preset_key}"


def test_fix_that_bumps_a_submodule_keeps_its_entry(tmp_path):
    # the gitlink's "Subproject commit" hunk names a commit of the nested
    # repository, which blame and file reads cannot find
    s = GitScripter(tmp_path / "app")
    lib = GitScripter(s.path / "lib")
    lib.write("x.c", "int x;\n")
    lib.commit("lib v1")
    lib.finish()
    s.write("core.c", "int a;\nint b;\nint c;\n")
    s.commit("add core")
    s.write("core.c", "int a;\nint b = 1;\nint c;\n")
    bug = s.commit("set b")
    s.write("core.c", "int a;\nint b = 2;\nint c;\n")
    lib.write("x.c", "int x = 1;\n")
    lib.commit("lib v2")
    lib.finish()
    fix = s.commit("fix b and bump lib")
    s.finish()
    with GitRepo(s.path) as repo:
        found = run_configs(
            repo, fix, [(PRESETS[n], None) for n in PRESETS], RefactoringRanges()
        )
    assert [[c.commit for c in cands] for cands in found] == [[bug]] * len(PRESETS)


def test_a_reformatted_or_joined_fix_line_is_cosmetic(tmp_path):
    # one hunk reformats a line beside a real change (the positional pair),
    # another only joins two lines (the whole-hunk squash)
    s = GitScripter(tmp_path / "app")
    filler = "".join(f"int f{i};\n" for i in range(8))
    s.write("m.c", "int a = 0;\nint b = 2;\n" + filler)
    root = s.commit("add m")
    s.write("m.c", "int a = 1;\nint b = 2;\n" + filler)
    set_a = s.commit("set a")
    s.write("m.c", "int a = 1;\nint b = 2;\n" + filler + "int s = a +\n    b;\n")
    add_s = s.commit("add s")
    s.write("m.c", "int a=1;\nint b = 3;\n" + filler + "int s = a + b;\n")
    fix = s.commit("fix b")
    s.finish()
    with GitRepo(s.path) as repo:
        ctx = extract_fix_lines(repo, fix)
        assert [(fl.line_no, fl.cosmetic) for fl in ctx.fix_lines] == [
            (1, True), (2, False), (11, True), (12, True)
        ]
        names = ["B", "AG", "MA"]
        found = run_configs(repo, fix, [(PRESETS[n], None) for n in names])
    assert {n: {c.commit for c in cands} for n, cands in zip(names, found)} == {
        "B": {root, set_a, add_s}, "AG": {root}, "MA": {root}
    }


def test_ra_lite_needs_ranges(suite, git_subcommands):
    sc = suite["refactoring_range"]
    repo = GitRepo(sc.path)
    with pytest.raises(ConfigurationError):
        run_variant(repo, sc.fix, "RA-lite")
    # refused before any git work, whatever other runs come with it
    started = len(git_subcommands)
    with pytest.raises(ConfigurationError):
        run_configs(repo, sc.fix, [(PRESETS["B"], None), (PRESETS["RA-lite"], None)])
    assert len(git_subcommands) == started


# --- cosmetic skip depth ------------------------------------------------------


def test_depth_limit_flags_stuck_trace(suite, monkeypatch):
    sc = suite["cosmetic_chain"]
    ag = PRESETS["AG"]
    repo = GitRepo(sc.path)
    ctx = extract_fix_lines(repo, sc.fix)

    with monkeypatch.context() as m:
        m.setattr(engine, "DEPTH_LIMIT", 1)
        [cands] = run_configs(repo, sc.fix, [(ag, None)])
        fates = line_fates(repo, walk(repo, ctx, [ag]), ag)
    assert {c.commit for c in cands} == {sc.notes["depth1_expected"]}
    assert fates and all(stuck for _, _, _, stuck in fates)

    [deep] = run_configs(repo, sc.fix, [(ag, None)])
    fates = line_fates(repo, walk(repo, ctx, [ag]), ag)
    assert {c.commit for c in deep} == set(sc.expected["AG"])
    assert not any(stuck for _, _, _, stuck in fates)
    assert max(depth for _, _, depth, _ in fates) == 2


def test_plain_blame_never_traces(suite):
    sc = suite["cosmetic_chain"]
    repo = GitRepo(sc.path)
    traced = walk(repo, extract_fix_lines(repo, sc.fix), [PRESETS["B"]])
    assert traced and all(len(t.hops) == 1 for t in traced)


def test_each_fix_line_traces_to_one_record(suite, monkeypatch):
    sc = suite["cosmetic_chain"]
    c1, c2, c3 = (sc.labels[k] for k in ("c1", "c2", "c3"))
    with GitRepo(sc.path) as repo:
        ctx = extract_fix_lines(repo, sc.fix)
        for config, depth_limit, hops, (origin, depth, stuck) in [
            (PRESETS["AG"], 10, (c3, c2, c1), (c1, 2, False)),
            (PRESETS["AG"], 1, (c3, c2), (c2, 1, True)),
            (PRESETS["B"], 10, (c3,), (c3, 0, False)),
        ]:
            monkeypatch.setattr(engine, "DEPTH_LIMIT", depth_limit)
            kept = [fl for fl in ctx.fix_lines if fl.kept_by(config)]
            traced = walk(repo, ctx, [config])
            assert kept, config
            assert [t.line for t in traced] == kept, config
            assert [t.hops for t in traced] == [hops] * len(kept), config
            assert line_fates(repo, traced, config) == (
                [(fl, origin, depth, stuck) for fl in kept]
            ), config
    assert sc.notes["depth1_expected"] == c2


# --- issue date regime --------------------------------------------------------


def test_issue_dates_filter_late_candidates(suite):
    sc = suite["issue_date"]
    repo = GitRepo(sc.path)
    opened = [issue.opened_at for issue in sc.issues]

    unfiltered = run_variant(repo, sc.fix, "MA")
    assert unfiltered == set(sc.expected["MA"])

    filtered = run_variant(repo, sc.fix, "MA", regime_cutoff(repo, "issue-date", opened, ()))
    assert filtered == set(sc.notes["issue_filtered"])
    assert filtered < unfiltered


def test_earliest_issue_date_wins(suite):
    sc = suite["issue_date"]
    repo = GitRepo(sc.path)
    opened = min(issue.opened_at for issue in sc.issues)
    late = opened + timedelta(days=365)
    # the earliest report sets the cutoff, extra later reports change nothing
    both = regime_cutoff(repo, "issue-date", [late, opened], ())
    only_early = regime_cutoff(repo, "issue-date", [opened], ())
    assert both == only_early == opened
    assert run_variant(repo, sc.fix, "MA", both) == run_variant(repo, sc.fix, "MA", only_early)


def test_best_case_issue_date_value(suite):
    sc = suite["selection_split"]
    repo = GitRepo(sc.path)
    latest = max(repo.commit_meta(b).committer_time for b in sc.true_bics)
    assert regime_cutoff(repo, "best-case-date", [], sc.true_bics) == latest + timedelta(
        seconds=60
    )
    with pytest.raises(ConfigurationError, match="cannot simulate an issue date from an empty"):
        regime_cutoff(repo, "best-case-date", [], [])


def test_best_case_date_keeps_every_true_positive(suite):
    # the simulated reporter files just after the last inducing commit, so
    # filtering by that date can only drop false positives
    for name in sorted(suite):
        sc = suite[name]
        if not sc.true_bics:
            continue
        repo = GitRepo(sc.path)
        cutoff = regime_cutoff(repo, "best-case-date", [], sc.true_bics)
        plain = run_variant(repo, sc.fix, "MA")
        dated = run_variant(repo, sc.fix, "MA", cutoff=cutoff)
        assert dated <= plain, name
        assert plain & set(sc.true_bics) <= dated, name


# --- shared work across presets -----------------------------------------------


def _runs(repo, sc):
    """Every preset under the cutoff of every regime, as ``detect`` works
    them out for a scenario; a scenario with no inducing commit has no
    best case."""
    dates = [issue.opened_at for issue in sc.issues]
    cutoffs = [
        regime_cutoff(repo, regime, dates, sc.true_bics)
        for regime in REGIMES
        if sc.true_bics or regime != "best-case-date"
    ]
    return [(PRESETS[key], cutoff) for cutoff in cutoffs for key in PRESETS]


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
    # metadata and file read, one diff-tree every diff; show and rev-parse
    # only stand in for errors, so blame is all that runs one-shot
    for name, sc in sorted(suite.items()):
        git_subcommands.clear()
        with GitRepo(sc.path) as repo:
            run_configs(repo, sc.fix, [(PRESETS[n], None) for n in PRESETS], suite_ranges)
        assert git_subcommands[:3] == ["rev-parse", "cat-file", "diff-tree"], name
        assert set(git_subcommands[3:]) <= {"blame"}, name


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


def test_all_presets_walk_once(suite, suite_ranges, monkeypatch):
    walks = []
    real_walk = engine.walk

    def counting_walk(repo, ctx, configs):
        walks.append(configs)
        return real_walk(repo, ctx, configs)

    monkeypatch.setattr(engine, "walk", counting_walk)
    ag = PRESETS["AG"]
    for name in sorted(suite):
        sc = suite[name]
        together = _CountingRepo(GitRepo(sc.path))
        runs = _runs(together, sc)
        walks.clear()
        run_configs(together, sc.fix, runs, refactorings=suite_ranges)
        assert len(walks) == 1, name
        assert len(together.reads) == len(set(together.reads)), name

        # the blame calls are those of B and AG run on their own, whatever
        # the cutoffs, less the plain blame B and AG share in each file
        # that AG keeps lines of
        plain, skipping = _CountingRepo(GitRepo(sc.path)), _CountingRepo(GitRepo(sc.path))
        run_configs(plain, sc.fix, [(PRESETS["B"], None)])
        run_configs(skipping, sc.fix, [(ag, None)])
        ctx = extract_fix_lines(plain, sc.fix)
        shared = len({fl.file for fl in ctx.fix_lines if fl.kept_by(ag)})
        assert together.blames == plain.blames + skipping.blames - shared, name


def test_an_origin_is_asked_whether_it_is_a_meta_change_once_per_fix(
    suite, suite_ranges, monkeypatch
):
    asked = []
    real_is_meta_change = engine.is_meta_change

    def counting_is_meta_change(repo, sha):
        asked.append(sha)
        return real_is_meta_change(repo, sha)

    monkeypatch.setattr(engine, "is_meta_change", counting_is_meta_change)
    ever = 0
    for name, sc in sorted(suite.items()):
        with GitRepo(sc.path) as repo:
            asked.clear()
            run_configs(repo, sc.fix, _runs(repo, sc), suite_ranges)
            assert len(asked) == len(set(asked)), name
            ever += len(asked)
            asked.clear()
            run_configs(repo, sc.fix, [(PRESETS["B"], None)])
            assert asked == [], name
    assert ever


def test_a_file_of_dropped_lines_is_blamed_only_for_a_run_that_keeps_them(
    tmp_path, git_subcommands
):
    s = GitScripter(tmp_path / "app")
    s.write("a.c", "int a;\nint b;\n")
    s.write("b.c", "// note\nint c;\n")
    bug = s.commit("add a and b")
    s.write("a.c", "int a;\nint b = 1;\n")
    s.write("b.c", "int c;\n")
    fix = s.commit("fix b, drop the note")
    s.finish()
    for names, blames in ((["MA"], 1), (["B", "MA"], 2)):
        git_subcommands.clear()
        with GitRepo(s.path) as repo:
            found = run_configs(repo, fix, [(PRESETS[n], None) for n in names])
        assert git_subcommands.count("blame") == blames, names
        assert [[c.commit for c in cands] for cands in found] == [[bug]] * len(names)


@pytest.mark.parametrize("depth_limit", [1, 10])
def test_walk_matches_the_per_key_reference_on_the_desk(
    suite, suite_ranges, monkeypatch, depth_limit
):
    monkeypatch.setattr(engine, "DEPTH_LIMIT", depth_limit)
    for name in sorted(suite):
        sc = suite[name]
        with GitRepo(sc.path) as repo:
            runs = _runs(repo, sc)
            together = run_configs(repo, sc.fix, runs, suite_ranges)
            for (config, cutoff), got in zip(runs, together):
                want = reference_candidates(repo, sc.fix, config, depth_limit, suite_ranges, cutoff)
                assert got == want, f"{name} {config} {cutoff}"
            _assert_line_fates_match_the_reference(repo, sc.fix, depth_limit, name)


@pytest.mark.parametrize("depth_limit", [1, 10])
def test_walk_matches_the_per_key_reference_on_random_histories(monkeypatch, depth_limit):
    monkeypatch.setattr(engine, "DEPTH_LIMIT", depth_limit)
    for seed in range(100):
        planted = random_history(seed)
        repo = planted.repo
        ranges = RefactoringRanges()
        ranges.add(planted.fix, MODEL_FILE, 2, 3)
        mid = repo.commit_meta(planted.fix).committer_time - timedelta(minutes=4)
        runs = [(PRESETS[key], cutoff) for cutoff in (None, mid) for key in PRESETS]
        together = run_configs(repo, planted.fix, runs, ranges)
        for (config, cutoff), got in zip(runs, together):
            want = reference_candidates(repo, planted.fix, config, depth_limit, ranges, cutoff)
            assert got == want, f"seed {seed} {config} {cutoff}"
        _assert_line_fates_match_the_reference(repo, planted.fix, depth_limit, f"seed {seed}")


def _assert_line_fates_match_the_reference(repo, fix, depth_limit, where):
    """Every traced line's origin, depth and stuck verdict, derived from
    one walk of every preset, equal the per-key reference trace's."""
    ctx = extract_fix_lines(repo, fix)
    traced = walk(repo, ctx, list(PRESETS.values()))
    for config in (PRESETS["B"], PRESETS["AG"]):  # the line fates differ only in skip_cosmetic
        want = reference_lines(repo, ctx, config, depth_limit)
        assert line_fates(repo, traced, config) == want, f"{where} {config}"


# --- selection ----------------------------------------------------------------


def _cand(sha: str, lines: int, when: datetime) -> BicCandidate:
    support = [FixLine("f.c", i + 1, LineClass.CODE) for i in range(lines)]
    return BicCandidate(commit=sha, supporting_lines=support, committer_time=when)


T0 = datetime(2021, 3, 1, tzinfo=UTC)


def _largest_key(c):
    return (-len(c.supporting_lines), -c.committer_time.timestamp(), c.commit)


def _latest_key(c):
    return (-c.committer_time.timestamp(), c.commit)


def test_largest_prefers_more_supporting_lines():
    a = _cand("a" * 40, 3, T0)
    b = _cand("b" * 40, 1, T0 + timedelta(hours=5))
    cfg = VariantConfig(order=largest)
    assert select([a, b], cfg) == [a]


def test_largest_breaks_size_tie_on_recency_then_hash():
    older = _cand("0" * 40, 2, T0)
    newer = _cand("f" * 40, 2, T0 + timedelta(minutes=1))
    cfg = VariantConfig(order=largest)
    assert select([older, newer], cfg) == [newer]

    same_time_hi = _cand("e" * 40, 2, T0)
    same_time_lo = _cand("1" * 40, 2, T0)
    assert select([same_time_hi, same_time_lo], cfg) == [same_time_lo]


def test_latest_ignores_support_size():
    big_old = _cand("a" * 40, 9, T0)
    small_new = _cand("b" * 40, 1, T0 + timedelta(seconds=1))
    cfg = VariantConfig(order=latest)
    assert select([big_old, small_new], cfg) == [small_new]


def test_selection_is_order_independent():
    cands = [
        _cand("a" * 40, 2, T0),
        _cand("b" * 40, 2, T0),
        _cand("c" * 40, 3, T0 - timedelta(days=1)),
        _cand("d" * 40, 1, T0 + timedelta(days=1)),
    ]
    for cfg, key in [
        (VariantConfig(order=largest), _largest_key),
        (VariantConfig(order=latest), _latest_key),
    ]:
        want = [min(cands, key=key)]
        for perm in itertools.permutations(cands):
            assert select(list(perm), cfg) == want


def test_select_all_and_empty_are_passthrough():
    cands = [_cand("a" * 40, 1, T0), _cand("b" * 40, 2, T0)]
    assert select(cands, VariantConfig(order=None)) == cands
    assert select([], VariantConfig(order=largest)) == []
