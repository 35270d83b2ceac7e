"""Metric formulas, their corner conventions, and report emission."""

from __future__ import annotations

import csv

import pytest

from bictrace.errors import ConfigurationError, SchemaError
from bictrace.evaluate import (
    DetectionRun,
    Metrics,
    emit_report,
    exclusive_correct,
    load_run,
    outlier_filter,
    overlap,
    save_run,
    score,
)
from bictrace.oracle import OracleDataset, OracleEntry


def _oracle(truth: dict[str, set[str]]) -> OracleDataset:
    entries = [
        OracleEntry(repo="org/app", fix_commit=fix, true_bics=tuple(sorted(bics)))
        for fix, bics in sorted(truth.items())
    ]
    return OracleDataset(entries=entries, provenance="test")


def _run(identified: dict[str, set[str]], variant="X", regime="none") -> DetectionRun:
    return DetectionRun(
        variant=variant,
        regime=regime,
        identified={("org/app", fix): frozenset(h) for fix, h in identified.items()},
    )


F1, F2 = "f" * 39 + "1", "f" * 39 + "2"
A, B, C = "a" * 40, "b" * 40, "c" * 40


# --- pooled metrics ---------------------------------------------------------


def test_pooled_formula_worked_example():
    # truth {a, c}; identified {a, b}: one hit, one miss, one false alarm
    oracle = _oracle({F1: {A, C}})
    run = _run({F1: {A, B}})
    m = score(run, oracle).pooled
    assert (m.correct, m.identified, m.true_positives) == (2, 2, 1)
    assert m.recall == 0.5
    assert m.precision == 0.5
    assert m.f1 == 0.5


def test_pooled_pools_across_entries():
    oracle = _oracle({F1: {A}, F2: {B, C}})
    run = _run({F1: {A}, F2: {B}})
    m = score(run, oracle).pooled
    assert (m.correct, m.identified, m.true_positives) == (3, 2, 2)
    assert m.recall == pytest.approx(2 / 3)
    assert m.precision == 1.0
    assert m.f1 == pytest.approx(2 * 1.0 * (2 / 3) / (1.0 + 2 / 3))


def test_same_hash_in_two_entries_counts_twice():
    # the same inducing commit can serve two fixes; tagging by entry keeps
    # the two detections distinct
    oracle = _oracle({F1: {A}, F2: {A}})
    run = _run({F1: {A}, F2: {A}})
    m = score(run, oracle).pooled
    assert (m.correct, m.true_positives) == (2, 2)
    assert m.recall == 1.0


def test_empty_identified_gives_zero_precision():
    oracle = _oracle({F1: {A}})
    run = _run({F1: set()})
    m = score(run, oracle).pooled
    assert m.recall == 0.0
    assert m.precision == 0.0
    assert m.f1 == 0.0


def test_identified_outside_oracle_is_ignored():
    oracle = _oracle({F1: {A}})
    run = _run({F1: {A}})
    run.identified[("org/other", F2)] = frozenset({B})
    m = score(run, oracle).pooled
    assert m.identified == 1
    assert m.precision == 1.0


def test_pooled_only_counts_covered_entries():
    # truth for entries the run never attempted stays out of the denominator
    oracle = _oracle({F1: {A}, F2: {B}})
    run = _run({F1: {A}})
    m = score(run, oracle).pooled
    assert m.correct == 1
    assert m.recall == 1.0


def test_pooled_rejects_disjoint_run(tmp_path):
    # a run that covers no entry scores as undefined, and emit_report
    # refuses it, as it refuses an empty oracle, before it writes
    oracle = _oracle({F1: {A}})
    undefined = Metrics(None, None, None)
    sc = score(_run({F2: {A}}), oracle)
    assert (sc.pooled, sc.macro, sc.entries, sc.true_positives) == (
        undefined, undefined, frozenset(), frozenset())
    assert score(_run({F1: {A}}), OracleDataset(entries=[])).pooled == undefined
    with pytest.raises(ConfigurationError, match="^run covers no oracle entries$"):
        emit_report([_run({F1: {A}}), _run({F2: {A}}, variant="Y")], oracle, tmp_path / "out")
    with pytest.raises(ConfigurationError, match="^cannot evaluate against an empty oracle$"):
        emit_report([_run({F1: {A}})], OracleDataset(entries=[]), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_duplicate_true_inducing_hash_counts_once():
    # an entry naming the same inducing commit twice has one truth, not two
    oracle = OracleDataset(
        entries=[OracleEntry(repo="org/app", fix_commit=F1, true_bics=(A, A, B))]
    )
    found = score(_run({F1: {A}}, variant="I"), oracle)
    both = score(_run({F1: {A, B}}, variant="J"), oracle)
    assert found.pooled.correct == 2
    assert found.pooled.recall == 0.5
    assert found.macro.recall == 0.5
    assert overlap(found, both) == 0.5


def test_a_short_oracle_hash_scores_as_the_commit_it_names():
    oracle = _oracle({F1: {A[:7]}, F2: {B[:12], C}})
    sc = score(_run({F1: {A}, F2: {B}}), oracle)
    assert sc.true_positives == {("org/app", F1, A[:7]), ("org/app", F2, B[:12])}
    assert (sc.pooled.correct, sc.pooled.identified, sc.pooled.true_positives) == (3, 2, 2)
    assert (sc.pooled.precision, sc.macro.recall) == (1.0, 0.75)
    # the prefix must start the reported hash, not occur in it
    assert score(_run({F1: {"0" + A[:39]}}), _oracle({F1: {A[:7]}})).pooled.recall == 0.0


def test_two_commits_under_one_oracle_prefix_are_one_true_positive():
    short = "abcdef1"
    under = {short + "0" * 33, short + "1" * 33}
    sc = score(_run({F1: under}), _oracle({F1: {short}}))
    assert sc.true_positives == {("org/app", F1, short)}
    assert (sc.pooled.recall, sc.pooled.precision) == (1.0, 0.5)
    # tagged by the oracle's hash, runs that found different commits under
    # the prefix agree on it
    other = score(_run({F1: {short + "0" * 33}}, variant="Y"), _oracle({F1: {short}}))
    assert overlap(sc, other) == 1.0


# --- macro metrics -----------------------------------------------------------


def test_macro_weights_entries_equally():
    oracle = _oracle({F1: {A}, F2: {B, C}})
    run = _run({F1: {A}, F2: {B}})
    m = score(run, oracle).macro
    # entry one scores 1/1, entry two scores r=0.5 p=1
    assert m.recall == pytest.approx((1.0 + 0.5) / 2)
    assert m.precision == pytest.approx(1.0)
    assert m.f1 == pytest.approx((1.0 + 2 * 1 * 0.5 / 1.5) / 2)


def test_macro_empty_identified_entry_scores_zero():
    oracle = _oracle({F1: {A}, F2: {B}})
    run = _run({F1: {A}, F2: set()})
    m = score(run, oracle).macro
    assert m.recall == 0.5
    assert m.precision == 0.5
    assert m.f1 == 0.5


# --- overlap -------------------------------------------------------------------


def test_overlap_jaccard():
    oracle = _oracle({F1: {A, B, C}})
    s_i = score(_run({F1: {A, B}}, variant="I"), oracle)
    s_j = score(_run({F1: {B, C}}, variant="J"), oracle)
    # TPs: {a,b} vs {b,c}; intersection 1, union 3
    assert overlap(s_i, s_j) == pytest.approx(1 / 3)
    assert overlap(s_i, s_i) == 1.0


def test_overlap_is_one_when_both_found_nothing():
    oracle = _oracle({F1: {A}})
    s_i = score(_run({F1: {B}}, variant="I"), oracle)  # false positive only
    s_j = score(_run({F1: set()}, variant="J"), oracle)
    assert overlap(s_i, s_j) == 1.0


def test_overlap_requires_equal_coverage():
    oracle = _oracle({F1: {A}, F2: {B}})
    s_i = score(_run({F1: {A}}, variant="I"), oracle)
    s_j = score(_run({F1: {A}, F2: {B}}, variant="J"), oracle)
    assert overlap(s_i, s_j) is None
    s_0 = score(_run({}, variant="0"), oracle)  # covers no entry
    assert overlap(s_0, s_0) is None


def test_overlap_symmetry():
    oracle = _oracle({F1: {A, B}, F2: {C}})
    scores = [
        score(_run({F1: {A}, F2: {C}}, variant="1"), oracle),
        score(_run({F1: {B}, F2: {C}}, variant="2"), oracle),
        score(_run({F1: {A, B}, F2: set()}, variant="3"), oracle),
    ]
    for s_i in scores:
        for s_j in scores:
            assert overlap(s_i, s_j) == overlap(s_j, s_i)


# --- exclusive correct -----------------------------------------------------------


def test_exclusive_correct_counts_unique_finds():
    oracle = _oracle({F1: {A, B, C}})
    s_1 = score(_run({F1: {A, B}}, variant="1"), oracle)
    s_2 = score(_run({F1: {B}}, variant="2"), oracle)
    scores = [s_1, s_2]
    count, union, fraction = exclusive_correct(s_1, scores)
    assert (count, union) == (1, 2)  # a is unique, union {a, b}
    assert fraction == 0.5
    count, union, fraction = exclusive_correct(s_2, scores)
    assert (count, union, fraction) == (0, 2, 0.0)


def test_exclusive_correct_empty_union():
    oracle = _oracle({F1: {A}})
    scores = [
        score(_run({F1: set()}, variant="1"), oracle),
        score(_run({F1: {B}}, variant="2"), oracle),
    ]
    assert exclusive_correct(scores[0], scores) == (0, 0, 0.0)
    with pytest.raises(ValueError, match="at least two runs"):
        exclusive_correct(scores[0], [scores[0]])


def test_exclusive_correct_requires_equal_coverage():
    # a find on an entry the other run dropped is not exclusive
    oracle = _oracle({F1: {A}, F2: {B}})
    s_i = score(_run({F1: {A}, F2: {B}}, variant="I"), oracle)
    s_j = score(_run({F1: {A}}, variant="J"), oracle)
    assert exclusive_correct(s_i, [s_i, s_j]) is None
    assert exclusive_correct(s_j, [s_i, s_j]) is None


# --- outlier filter ----------------------------------------------------------------


def test_outlier_filter_drops_strictly_above_threshold():
    at_limit = {h * 8 for h in "abcde"}  # exactly 5
    over = {h * 8 for h in "abcdef"}  # 6
    run = _run({F1: at_limit, F2: over})
    filtered = outlier_filter(run, 5)
    assert ("org/app", F1) in filtered.identified
    assert ("org/app", F2) not in filtered.identified
    assert filtered.outliers_removed == [("org/app", F2, 6)]
    # the original run is untouched
    assert ("org/app", F2) in run.identified
    with pytest.raises(ConfigurationError, match="^outlier threshold must be >= 1$"):
        outlier_filter(run, 0)


def test_outlier_filter_shrinks_denominators():
    oracle = _oracle({F1: {A}, F2: {B}})
    run = _run({F1: {A}, F2: {B, C, "d" * 40}})
    before = score(run, oracle).pooled
    after = score(outlier_filter(run, 2), oracle).pooled
    assert before.correct == 2 and after.correct == 1
    assert after.precision >= before.precision


# --- run files ------------------------------------------------------------------------


def test_run_round_trip(tmp_path):
    run = _run({F1: {A, B}, F2: set()}, variant="MA", regime="issue-date")
    run.entry_flags[("org/app", F1)] = ("no-issue-dates",)
    run.skipped = [("org/app", "0" * 40)]
    run.outliers_removed = [("org/app", "e" * 40, 9)]
    path = tmp_path / "run.json"
    save_run(run, path)
    loaded = load_run(path)
    assert loaded.variant == "MA"
    assert loaded.regime == "issue-date"
    assert loaded.identified == run.identified
    assert loaded.entry_flags == {("org/app", F1): ("no-issue-dates",)}
    assert loaded.skipped == run.skipped
    assert loaded.outliers_removed == run.outliers_removed

    again = tmp_path / "again.json"
    save_run(loaded, again)
    assert again.read_bytes() == path.read_bytes()


BAD_RUN_FILES = [
    ('{"regime": "none"}', "missing field 'variant'"),
    ('{"variant": "MA", "entries": [', "not valid JSON"),
    ("[]", "expected a JSON object"),
    (
        '{"variant": "MA", "entries": [{"fix_commit": "f", "identified": []}]}',
        "entry 0 missing field 'repo'",
    ),
    (
        '{"variant": "MA", "entries": [{"repo": "r", "identified": []}]}',
        "entry 0 missing field 'fix_commit'",
    ),
    (
        '{"variant": "MA", "entries": [{"repo": "r", "fix_commit": "f"}]}',
        "entry 0 missing field 'identified'",
    ),
    ('{"variant": "MA", "entries": [5]}', "entry 0: expected a JSON object"),
    ('{"variant": "MA", "entries": [], "skipped": [{}]}', "skipped entry 0 missing field 'repo'"),
    # a string is no list of hashes, though iterating it gives strings
    (
        '{"variant": "MA", "entries": [{"repo": "r", "fix_commit": "f", "identified": "1234567"}]}',
        "entry 0: field 'identified' holds '1234567'",
    ),
    ('{"variant": "MA", "entries": {}}', "must be lists"),
    ('{"variant": "MA", "regime": 5, "entries": []}', "variant and regime must be strings"),
    # one entry named twice: keeping either record would score the other's hashes as unreported
    (
        '{"variant": "MA", "entries": [{"repo": "r", "fix_commit": "f", "identified": ["a"]},'
        ' {"repo": "s", "fix_commit": "f", "identified": []},'
        ' {"repo": "r", "fix_commit": "f", "identified": ["b"]}]}',
        "entries 0 and 2 both name f in r",
    ),
    # an entry skipped twice, or both identified and skipped, would count twice
    (
        '{"variant": "MA", "entries": [], "skipped": [{"repo": "r", "fix_commit": "f"},'
        ' {"repo": "r", "fix_commit": "f"}]}',
        "skipped 0 and 1 both name f in r",
    ),
    (
        '{"variant": "MA", "entries": [{"repo": "r", "fix_commit": "f", "identified": []}],'
        ' "skipped": [{"repo": "s", "fix_commit": "f"}, {"repo": "r", "fix_commit": "f"}]}',
        "entries 0 and skipped 1 both name f in r",
    ),
    (
        '{"variant": "MA", "entries": [], "skipped": [{"repo": "r", "fix_commit": "f"}],'
        ' "outliers_removed": [{"repo": "r", "fix_commit": "f", "identified_count": 9}]}',
        "skipped 0 and outliers_removed 0 both name f in r",
    ),
]


def test_load_run_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    for text, message in BAD_RUN_FILES:
        path.write_text(text)
        with pytest.raises(SchemaError, match=message) as info:
            load_run(path)
        assert str(path) in str(info.value)


# --- report emission --------------------------------------------------------------------


def _read_matrix(path) -> dict[tuple[str, str], float]:
    """An overlap matrix as {(variant_i, variant_j): value}; blank cells
    (pairs with mismatched coverage) stay absent."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return {
        (row[0], name): float(cell)
        for row in rows
        for name, cell in zip(header[1:], row[1:])
        if cell
    }


def _report_fixture():
    oracle = _oracle({F1: {A, B}, F2: {C}})
    runs = [
        _run({F1: {A}, F2: {C}}, variant="MA"),
        _run({F1: {A, B}, F2: set()}, variant="B"),
    ]
    return oracle, runs


def test_emit_report_files_and_contents(tmp_path):
    oracle, runs = _report_fixture()
    written = emit_report(runs, oracle, tmp_path)
    assert set(written) == {"metrics", "overlap_none", "exclusive", "summary"}

    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("variant,regime,aggregation")
    # sorted by (regime, variant): B rows first, then MA; pooled then macro
    assert metrics[1].startswith("B,none,pooled,2,3,2,2,")
    assert metrics[2].startswith("B,none,macro,2,")
    assert metrics[3].startswith("MA,none,pooled,2,3,2,2,")

    matrix = _read_matrix(tmp_path / "overlap_none.csv")
    assert matrix[("B", "B")] == 1.0
    assert matrix[("B", "MA")] == matrix[("MA", "B")]
    # TPs are {a,b} and {a,c}: one shared out of three
    assert matrix[("B", "MA")] == pytest.approx(1 / 3)

    summary = (tmp_path / "summary.txt").read_text()
    assert "oracle entries: 2" in summary
    assert "B" in summary and "MA" in summary


def test_emit_report_is_deterministic(tmp_path):
    oracle, runs = _report_fixture()
    emit_report(runs, oracle, tmp_path / "one")
    emit_report(list(reversed(runs)), oracle, tmp_path / "two")
    for name in ("metrics.csv", "overlap_none.csv", "exclusive.csv", "summary.txt"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()


def test_emit_report_with_outlier_threshold(tmp_path):
    oracle, runs = _report_fixture()
    runs[0].identified[("org/app", F1)] = frozenset({A, B, C, "d" * 40})
    written = emit_report(runs, oracle, tmp_path, outlier_threshold=3)
    outliers = (tmp_path / "outliers.csv").read_text().splitlines()
    assert outliers[0] == "variant,regime,repo,fix_commit,identified_count"
    assert outliers[1] == f"MA,none,org/app,{F1},4"
    assert "outliers" in written
    summary = (tmp_path / "summary.txt").read_text()
    assert "outliers removed: 1" in summary

    # the drop de-aligned MA's coverage from B's, so their overlap cells
    # are undefined: blank in the file, absent after parsing
    matrix = _read_matrix(tmp_path / "overlap_none.csv")
    assert ("B", "MA") not in matrix and ("MA", "B") not in matrix
    assert matrix[("B", "B")] == 1.0 and matrix[("MA", "MA")] == 1.0
    # exclusive-correct is undefined for that group too
    exclusive = (tmp_path / "exclusive.csv").read_text().splitlines()
    assert exclusive[1:] == ["B,none,,,", "MA,none,,,"]


def test_emit_report_counts_only_the_oracles_entries(tmp_path):
    # runs over a larger dataset, scored on a slice of it, read as runs
    # over the slice alone: entries, skips, outliers and coverage
    oracle, runs = _report_fixture()
    emit_report(runs, oracle, tmp_path / "slice", outlier_threshold=3)
    runs[0].identified[("org/other", F1)] = frozenset({A})  # MA alone covers it
    runs[1].identified[("org/other", F2)] = frozenset({A, B, C, "d" * 40})  # an outlier
    for run in runs:
        run.skipped = [("org/gone", F1)]
        run.outliers_removed = [("org/big", F1, 9)]
    emit_report(runs, oracle, tmp_path / "union", outlier_threshold=3)

    union = tmp_path / "union"
    metrics = (union / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in metrics[1:]] == ["2", "2", "2", "2"]
    summary = (union / "summary.txt").read_text()
    assert "skipped entries" not in summary and "outliers removed" not in summary
    assert (union / "outliers.csv").read_text().splitlines()[1:] == []
    assert _read_matrix(union / "overlap_none.csv")[("B", "MA")] == pytest.approx(1 / 3)
    exclusive = (union / "exclusive.csv").read_text().splitlines()
    assert [row.split(",")[:4] for row in exclusive[1:]] == [["B", "none", "1", "3"], ["MA", "none", "1", "3"]]
    for name in ("metrics.csv", "overlap_none.csv", "exclusive.csv", "outliers.csv", "summary.txt"):
        assert (union / name).read_bytes() == (tmp_path / "slice" / name).read_bytes()


def test_emit_report_groups_overlap_by_regime(tmp_path):
    oracle, _ = _report_fixture()
    runs = [
        _run({F1: {A}, F2: {C}}, variant="MA", regime="none"),
        _run({F1: {A}}, variant="MA", regime="issue-date"),
    ]
    written = emit_report(runs, oracle, tmp_path)
    assert "overlap_none" in written and "overlap_issue-date" in written
    # coverage differs across regimes, but never inside one matrix
    matrix = _read_matrix(tmp_path / "overlap_issue-date.csv")
    assert matrix == {("MA", "MA"): 1.0}


def test_float_cells_round_trip_exactly(tmp_path):
    oracle = _oracle({F1: {A, B, C}})
    runs = [
        _run({F1: {A}}, variant="1"),
        _run({F1: {A, B}}, variant="2"),
    ]
    emit_report(runs, oracle, tmp_path)
    matrix = _read_matrix(tmp_path / "overlap_none.csv")
    assert matrix[("1", "2")] == 0.5  # repr() cells parse back to the same float
    assert matrix[("1", "1")] == 1.0
