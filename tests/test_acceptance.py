"""Acceptance criteria, one test per criterion.

Criteria 1 through 6 are desk-scale and must always pass. Criterion 7
needs the full replication corpus (dataset file and ~951 clones) and is
skipped unless the environment points at it.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

import pytest

from bictrace.cli import main
from bictrace.engine import (
    PRESETS,
    extract_fix_lines,
    regime_cutoff,
)
from bictrace.evaluate import (
    DetectionRun,
    exclusive_correct,
    overlap,
    score,
)
from bictrace.gitrepo import GitRepo
from bictrace.langfilters import LineClass, classify_lines
from bictrace.miner import analyze_with_trees
from bictrace.oracle import (
    OracleDataset,
    OracleEntry,
    load_oracle,
    save_oracle,
    subset_issues,
    subset_language,
    subset_supported,
)
from lexfixtures import FIXTURE_LANGUAGES, load_fixture
from memrepo import random_history
from variants import run_variant

TOL = 1e-12


def test_criterion_1_scripted_suite_exact_sets(suite, suite_ranges):
    """Every preset, every scripted history: exact identified sets."""
    started = time.monotonic()
    for name in sorted(suite):
        sc = suite[name]
        repo = GitRepo(sc.path)
        for preset in PRESETS:
            ranges = suite_ranges if preset == "RA-lite" else None
            got = run_variant(repo, sc.fix, preset, refactorings=ranges)
            assert got == set(sc.expected[preset]), f"{name} under {preset}"
    elapsed = time.monotonic() - started

    plain = suite["plain_bug_fix"]
    for preset in PRESETS:
        assert plain.expected[preset] == frozenset(plain.true_bics)
    cosmetic = suite["cosmetic_interposed"]
    reformat = cosmetic.labels["c2"]
    assert cosmetic.expected["B"] == frozenset({reformat})
    for preset in ("AG", "MA", "L", "R"):
        assert cosmetic.expected[preset] == frozenset(cosmetic.true_bics)
    merge = suite["merge_meta"]
    assert merge.labels["merge"] in merge.expected["B"]
    assert merge.labels["merge"] in merge.expected["AG"]
    for preset in ("MA", "L", "R"):
        assert merge.labels["merge"] not in merge.expected[preset]

    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS ({len(suite)} histories x 6 presets in {elapsed:.1f}s)")


def test_criterion_2_documented_failure_modes(suite):
    """Additive fixes find nothing; reverts mask the true inducer."""
    guard = suite["guard_addition"]
    repo = GitRepo(guard.path)
    for preset in ("B", "AG", "MA", "L", "R"):
        assert run_variant(repo, guard.fix, preset) == set(), preset
        ctx = extract_fix_lines(repo, guard.fix)
        assert [fl for fl in ctx.fix_lines if fl.kept_by(PRESETS[preset])] == [], preset
    assert guard.true_bics  # the miss is real: truth exists, detection is empty

    revert = suite["revert_history"]
    repo = GitRepo(revert.path)
    masking = revert.labels["c3"]
    truth = set(revert.true_bics)
    for preset in ("B", "AG", "MA", "L", "R"):
        got = run_variant(repo, revert.fix, preset)
        assert got == {masking}, preset
        assert got != truth  # wrong on purpose: the documented blind spot
    print("ACCEPTANCE 2 PASS (guard addition empty, revert masks the inducer)")


def test_criterion_3_reference_sentences(labeled_sentences):
    """The four reference sentences: accept / reject / reject / reject."""
    by_label = {label: tree for label, tree, _, _ in labeled_sentences}
    expected = [
        ("fixes_introduced_by", True),
        ("improving_feature", False),
        ("remove_attempt", False),
        ("tried_to_fix", False),
    ]
    for label, should_accept in expected:
        matches, _ = analyze_with_trees([by_label[label]])
        assert bool(matches) is should_accept, label
    matches, _ = analyze_with_trees([by_label["fixes_introduced_by"]])
    assert matches[0].hash == "2508e12"
    print("ACCEPTANCE 3 PASS (verdicts accept/reject/reject/reject)")


def _frac_f1(p: Fraction, r: Fraction) -> Fraction:
    if p == 0 and r == 0:
        return Fraction(0)
    return 2 * p * r / (p + r)


def _brute_pooled(truth: dict, identified: dict):
    correct = {(k, b) for k, bics in truth.items() for b in bics}
    ident = {(k, h) for k, hs in identified.items() for h in hs}
    tp = correct & ident
    r = Fraction(len(tp), len(correct))
    p = Fraction(len(tp), len(ident)) if ident else Fraction(0)
    return r, p, _frac_f1(p, r)


def _brute_macro(truth: dict, identified: dict):
    rs, ps, f1s = [], [], []
    for k, bics in truth.items():
        tp = set(bics) & set(identified[k])
        r = Fraction(len(tp), len(bics))
        p = Fraction(len(tp), len(identified[k])) if identified[k] else Fraction(0)
        rs.append(r)
        ps.append(p)
        f1s.append(_frac_f1(p, r))
    n = len(rs)
    return sum(rs) / n, sum(ps) / n, sum(f1s) / n


def _brute_tp(truth: dict, identified: dict) -> set:
    return {
        (k, h) for k, hs in identified.items() for h in hs if h in truth[k]
    }


def test_criterion_4_metric_brute_force_equivalence():
    """200 randomized instances against exact rational set algebra."""
    pool = [format(i, "040x") for i in range(12)]
    for trial in range(200):
        rng = random.Random(91000 + trial)
        fixes = [format(trial * 10 + i, "039x") + "f" for i in range(rng.randint(1, 8))]
        truth = {fix: frozenset(rng.sample(pool, rng.randint(1, 3))) for fix in fixes}
        oracle = OracleDataset(
            entries=[
                OracleEntry(repo="m/r", fix_commit=fix, true_bics=tuple(sorted(bics)))
                for fix, bics in truth.items()
            ]
        )
        runs = []
        per_run_identified = []
        for v in range(rng.randint(2, 5)):
            identified = {
                fix: frozenset(rng.sample(pool, rng.randint(0, 4))) for fix in fixes
            }
            per_run_identified.append(identified)
            runs.append(
                DetectionRun(
                    variant=str(v),
                    identified={("m/r", fix): hs for fix, hs in identified.items()},
                )
            )

        scores = [score(run, oracle) for run in runs]
        for sc, identified in zip(scores, per_run_identified):
            got = sc.pooled
            r, p, f1 = _brute_pooled(truth, identified)
            assert abs(got.recall - float(r)) <= TOL
            assert abs(got.precision - float(p)) <= TOL
            assert abs(got.f1 - float(f1)) <= TOL
            got = sc.macro
            r, p, f1 = _brute_macro(truth, identified)
            assert abs(got.recall - float(r)) <= TOL
            assert abs(got.precision - float(p)) <= TOL
            assert abs(got.f1 - float(f1)) <= TOL

        tps = [_brute_tp(truth, ident) for ident in per_run_identified]
        for i, s_i in enumerate(scores):
            for j, s_j in enumerate(scores):
                union = tps[i] | tps[j]
                want = Fraction(1) if not union else Fraction(len(tps[i] & tps[j]), len(union))
                assert abs(overlap(s_i, s_j) - float(want)) <= TOL
            rest = set().union(*(tps[j] for j in range(len(runs)) if j != i))
            count, denom, fraction = exclusive_correct(s_i, scores)
            assert count == len(tps[i] - rest)
            assert denom == len(tps[i] | rest)
            want = Fraction(count, denom) if denom else Fraction(0)
            assert abs(fraction - float(want)) <= TOL
    print("ACCEPTANCE 4 PASS (200 instances, exact agreement)")


def test_criterion_5_invariants_and_determinism(suite, suite_dataset, tmp_path):
    """Subset chain, selection cardinality, overlap symmetry, date-filter
    monotonicity, and byte-identical reruns."""
    # scripted suite plus one hundred random histories
    universes = []
    for name in sorted(suite):
        sc = suite[name]
        universes.append((f"scripted:{name}", GitRepo(sc.path), sc.fix, set(sc.true_bics)))
    for seed in range(100):
        planted = random_history(seed)
        universes.append(
            (f"random:{seed}", planted.repo, planted.fix, planted.expected_ma)
        )

    entries = []
    plain_runs = {p: {} for p in ("B", "AG", "MA", "L", "R")}
    dated_runs = {p: {} for p in ("B", "AG", "MA", "L", "R")}
    for label, repo, fix, truth in universes:
        ag = run_variant(repo, fix, "AG")
        ma = run_variant(repo, fix, "MA")
        l_ = run_variant(repo, fix, "L")
        r_ = run_variant(repo, fix, "R")
        assert ma <= ag, label
        assert len(l_) <= 1 and len(r_) <= 1, label
        assert l_ <= ma and r_ <= ma, label

        if not truth:
            continue
        entries.append(
            OracleEntry(repo=label, fix_commit=fix, true_bics=tuple(sorted(truth)))
        )
        cutoff = regime_cutoff(repo, "best-case-date", [], truth)
        for preset in plain_runs:
            plain_runs[preset][(label, fix)] = frozenset(run_variant(repo, fix, preset))
            dated_runs[preset][(label, fix)] = frozenset(
                run_variant(repo, fix, preset, cutoff=cutoff)
            )

    oracle = OracleDataset(entries=entries)
    scores = [
        score(DetectionRun(variant=p, identified=plain_runs[p]), oracle)
        for p in sorted(plain_runs)
    ]
    for s_i in scores:
        for s_j in scores:
            assert overlap(s_i, s_j) == overlap(s_j, s_i)
    for preset in plain_runs:
        plain = score(DetectionRun(variant=preset, identified=plain_runs[preset]), oracle).pooled
        dated = score(DetectionRun(variant=preset, identified=dated_runs[preset]), oracle).pooled
        assert dated.recall == plain.recall, preset
        assert dated.precision >= plain.precision, preset

    # two full command-line runs, byte for byte
    dataset_path = tmp_path / "oracle.json"
    save_oracle(suite_dataset, dataset_path)
    clones_root = next(iter(suite.values())).path.parent
    outputs = []
    for tag in ("one", "two"):
        runs_dir = tmp_path / tag / "runs"
        eval_dir = tmp_path / tag / "eval"
        assert (
            main(
                [
                    "detect",
                    "--dataset", str(dataset_path),
                    "--clones-root", str(clones_root),
                    "--out-dir", str(runs_dir),
                ]
            )
            == 0
        )
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
        files = sorted(p for p in (tmp_path / tag).rglob("*") if p.is_file())
        outputs.append({p.relative_to(tmp_path / tag): p.read_bytes() for p in files})
    assert outputs[0] == outputs[1]
    print(
        f"ACCEPTANCE 5 PASS ({len(universes)} universes, "
        f"{len(outputs[0])} files byte-identical)"
    )


def test_criterion_6_lexer_fixtures():
    """Eight 50-line hand-labeled files, 100% agreement; comment markers
    inside strings never classify as Comment."""
    total = 0
    for filename in sorted(FIXTURE_LANGUAGES):
        language, content, expected = load_fixture(filename)
        got = classify_lines(content, language)
        assert got == expected, filename
        total += len(expected)
    assert total == 400

    traps = [
        ("C", 'printf("// no\\n");'),
        ("C++", 'auto s = "/* no */";'),
        ("C#", 'var s = @"// no";'),
        ("Java", 'String s = "// no";'),
        ("JavaScript", "const s = `// no`;"),
        ("Ruby", 'puts "# no"'),
        ("PHP", '$s = "# no // no";'),
        ("Python", "x = '# no'"),
    ]
    for language, line in traps:
        assert classify_lines(line + "\n", language) == [LineClass.CODE], language
    print("ACCEPTANCE 6 PASS (400 lines, 8 languages, all labels reproduced)")


REPLICATION_ENV = "BICTRACE_REPLICATION_DATASET"
CLONES_ENV = "BICTRACE_CLONES_ROOT"

# pooled reference measurements for the replication corpus, full oracle,
# no date filter: preset -> (recall, precision)
REFERENCE_POOLED = {
    "B": (0.69, 0.39),
    "AG": (0.60, 0.45),
    "L": (0.45, 0.52),
    "R": (0.57, 0.66),
    "MA": (0.64, 0.36),
}


@pytest.mark.skipif(
    not os.environ.get(REPLICATION_ENV),
    reason=f"extended corpus check: set {REPLICATION_ENV} to the dataset JSON",
)
def test_criterion_7_replication_dataset_counts():
    dataset = load_oracle(os.environ[REPLICATION_ENV])
    assert len(dataset) == 1930
    filtered = subset_supported(dataset)
    assert len(filtered) == 1115
    assert len(subset_issues(filtered)) == 129
    assert len(subset_language(filtered, "Java")) == 80

    thrift = [
        e
        for e in dataset.entries
        if "thrift" in e.repo and e.fix_commit.startswith("a8a97bd")
    ]
    assert thrift and any(
        b.startswith("e58f75d") for b in thrift[0].true_bics
    )
    print("ACCEPTANCE 7a PASS (1930/1115/129/80 and the comparator spot check)")


@pytest.mark.skipif(
    not (os.environ.get(REPLICATION_ENV) and os.environ.get(CLONES_ENV)),
    reason=f"extended corpus check: set {REPLICATION_ENV} and {CLONES_ENV}",
)
def test_criterion_7_replication_metrics(tmp_path):
    dataset = subset_supported(load_oracle(os.environ[REPLICATION_ENV]))
    dataset_path = tmp_path / "oracle_all.json"
    save_oracle(dataset, dataset_path)
    runs_dir = tmp_path / "runs"
    code = main(
        [
            "detect",
            "--dataset", str(dataset_path),
            "--clones-root", os.environ[CLONES_ENV],
            "--out-dir", str(runs_dir),
            "--workers", "8",
        ]
    )
    assert code in (0, 2)
    from bictrace.evaluate import load_run

    for preset, (recall, precision) in REFERENCE_POOLED.items():
        run = load_run(runs_dir / f"{preset.lower()}_none.json")
        m = score(run, dataset).pooled
        assert abs(m.recall - recall) <= 0.05, (preset, m.recall)
        assert abs(m.precision - precision) <= 0.05, (preset, m.precision)
    print("ACCEPTANCE 7b PASS (pooled metrics within 0.05 of reference)")
