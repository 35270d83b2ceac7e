"""Cross-cutting pipeline invariants over scripted and randomized histories.

The randomized side runs against the in-memory model: it exercises the
same pipeline code as the git-backed path (the model implements the repo
protocol) while keeping one hundred histories fast enough to regenerate
on every test run.
"""

from __future__ import annotations

import pytest

from bictrace.engine import regime_cutoff
from bictrace.evaluate import DetectionRun, overlap, score
from bictrace.gitrepo import GitRepo
from bictrace.oracle import OracleDataset, OracleEntry
from memrepo import random_history
from variants import run_variant

N_RANDOM = 100


def _histories():
    for seed in range(N_RANDOM):
        yield seed, random_history(seed)


def test_subset_chain_on_random_histories():
    for seed, planted in _histories():
        repo = planted.repo
        ag = run_variant(repo, planted.fix, "AG")
        ma = run_variant(repo, planted.fix, "MA")
        l_ = run_variant(repo, planted.fix, "L")
        r_ = run_variant(repo, planted.fix, "R")
        assert ma <= ag, f"seed {seed}: MA must be a subset of AG"
        assert len(l_) <= 1, f"seed {seed}"
        assert len(r_) <= 1, f"seed {seed}"
        assert l_ <= ma and r_ <= ma, f"seed {seed}: selections pick from MA"
        assert (not ma) == (not l_) == (not r_), f"seed {seed}"


def test_subset_chain_on_scripted_suite(suite, suite_ranges):
    for name in sorted(suite):
        sc = suite[name]
        repo = GitRepo(sc.path)
        ag = run_variant(repo, sc.fix, "AG")
        ma = run_variant(repo, sc.fix, "MA")
        ra = run_variant(repo, sc.fix, "RA-lite", refactorings=suite_ranges)
        l_ = run_variant(repo, sc.fix, "L")
        r_ = run_variant(repo, sc.fix, "R")
        assert ma <= ag, name
        assert ra <= ma, name
        assert len(l_) <= 1 and len(r_) <= 1, name
        assert l_ <= ma and r_ <= ma, name


def test_detection_is_deterministic():
    for seed in (3, 17, 42):
        planted = random_history(seed)
        for preset in ("B", "AG", "MA", "L", "R"):
            first = run_variant(planted.repo, planted.fix, preset)
            again = run_variant(planted.repo, planted.fix, preset)
            assert first == again


def test_best_case_dates_keep_recall_and_never_grow_sets():
    checked = 0
    for seed, planted in _histories():
        repo = planted.repo
        truth = planted.expected_ma
        if not truth:
            continue
        cutoff = regime_cutoff(repo, "best-case-date", [], truth)
        for preset in ("B", "AG", "MA", "L", "R"):
            plain = run_variant(repo, planted.fix, preset)
            dated = run_variant(repo, planted.fix, preset, cutoff=cutoff)
            assert dated <= plain, f"seed {seed} {preset}: sets may only shrink"
            assert plain & truth <= dated, f"seed {seed} {preset}: recall dropped"
        checked += 1
    assert checked > 50  # the generator must not degenerate


def test_best_case_metrics_monotonicity():
    """Precision never decreases and recall holds exactly when candidates
    are filtered by a best-case simulated issue date."""
    entries = []
    plain_runs = {p: {} for p in ("B", "AG", "MA", "L", "R")}
    dated_runs = {p: {} for p in ("B", "AG", "MA", "L", "R")}

    for seed, planted in _histories():
        repo_name = f"model/seed{seed}"
        truth = planted.expected_ma
        if not truth:
            continue
        entries.append(
            OracleEntry(
                repo=repo_name,
                fix_commit=planted.fix,
                true_bics=tuple(sorted(truth)),
            )
        )
        cutoff = regime_cutoff(planted.repo, "best-case-date", [], truth)
        for preset in plain_runs:
            key = (repo_name, planted.fix)
            plain_runs[preset][key] = frozenset(
                run_variant(planted.repo, planted.fix, preset)
            )
            dated_runs[preset][key] = frozenset(
                run_variant(planted.repo, planted.fix, preset, cutoff=cutoff)
            )

    oracle = OracleDataset(entries=entries)
    for preset in plain_runs:
        plain = score(
            DetectionRun(variant=preset, identified=plain_runs[preset]), oracle
        ).pooled
        dated = score(
            DetectionRun(
                variant=preset, regime="best-case-date", identified=dated_runs[preset]
            ),
            oracle,
        ).pooled
        assert dated.recall == plain.recall, preset
        assert dated.precision >= plain.precision, preset


def test_overlap_symmetry_on_random_runs():
    import random

    rng = random.Random(2024)
    hashes = [format(i, "040x") for i in range(12)]
    entries = [
        OracleEntry(
            repo="m/r",
            fix_commit=format(100 + i, "040x"),
            true_bics=tuple(rng.sample(hashes, rng.randint(1, 3))),
        )
        for i in range(6)
    ]
    oracle = OracleDataset(entries=entries)
    scores = []
    for v in range(5):
        identified = {
            (e.repo, e.fix_commit): frozenset(rng.sample(hashes, rng.randint(0, 4)))
            for e in entries
        }
        scores.append(score(DetectionRun(variant=str(v), identified=identified), oracle))

    for s_i in scores:
        for s_j in scores:
            assert overlap(s_i, s_j) == overlap(s_j, s_i)
        assert overlap(s_i, s_i) == 1.0


def test_metric_bounds_on_random_runs():
    import random

    rng = random.Random(77)
    hashes = [format(i, "040x") for i in range(10)]
    for trial in range(50):
        entries = [
            OracleEntry(
                repo="m/r",
                fix_commit=format(200 + i, "040x"),
                true_bics=tuple(rng.sample(hashes, rng.randint(1, 3))),
            )
            for i in range(rng.randint(1, 6))
        ]
        oracle = OracleDataset(entries=entries)
        identified = {
            (e.repo, e.fix_commit): frozenset(rng.sample(hashes, rng.randint(0, 5)))
            for e in entries
        }
        run = DetectionRun(variant="X", identified=identified)
        m = score(run, oracle).pooled
        assert 0.0 <= m.recall <= 1.0
        assert 0.0 <= m.precision <= 1.0
        assert 0.0 <= m.f1 <= 1.0
