"""Shared fixtures: the scripted repository suite, hand-built parses and
a record of the git processes bictrace starts."""

import subprocess

import pytest

from bictrace import gitrepo, scenarios
from bictrace.engine import RefactoringRanges, load_refactoring_ranges
from bictrace.miner import SentenceTree, Token


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario-suite")
    return scenarios.build_all(root)


@pytest.fixture(scope="session")
def suite_dataset(suite):
    return scenarios.suite_oracle(suite)


@pytest.fixture(scope="session")
def suite_ranges_path(suite, tmp_path_factory):
    out = tmp_path_factory.mktemp("ranges") / "refactorings.csv"
    return scenarios.write_suite_refactorings(suite, out)


@pytest.fixture(scope="session")
def suite_ranges(suite_ranges_path) -> RefactoringRanges:
    return load_refactoring_ranges(suite_ranges_path)


@pytest.fixture
def git_subcommands(monkeypatch) -> list[str]:
    """The subcommand of every git process ``bictrace.gitrepo`` starts
    during the test, in order: one-shot ones (``subprocess.run``) and the
    batch process (``subprocess.Popen``, recorded as ``cat-file``)."""
    started: list[str] = []

    def record(argv):
        i = 1
        while argv[i] in ("-C", "-c"):
            i += 2
        started.append(argv[i])

    class Spy:
        def __getattr__(self, name):
            return getattr(subprocess, name)

        def run(self, argv, **kwargs):
            record(argv)
            return subprocess.run(argv, **kwargs)

        def Popen(self, argv, **kwargs):
            record(argv)
            return subprocess.Popen(argv, **kwargs)

    monkeypatch.setattr(gitrepo, "subprocess", Spy())
    return started


@pytest.fixture
def batch_processes(monkeypatch) -> list[subprocess.Popen]:
    """Every batch process ``bictrace.gitrepo`` starts during the test, in
    order. One-shot processes go through ``subprocess.run``, which waits
    for them."""
    started: list[subprocess.Popen] = []

    class Spy:
        def __getattr__(self, name):
            return getattr(subprocess, name)

        def Popen(self, argv, **kwargs):
            proc = subprocess.Popen(argv, **kwargs)
            started.append(proc)
            return proc

    monkeypatch.setattr(gitrepo, "subprocess", Spy())
    return started


def make_tree(text: str, rows: list[tuple]) -> SentenceTree:
    return SentenceTree(text, [Token(i, f, l, h, r) for i, f, l, h, r in rows])


def sentence_fixtures() -> list[tuple[str, SentenceTree, bool, str | None]]:
    """The four reference sentences with hand-written dependency trees,
    plus two derived ones pinning the H3 branch both ways. Tuples are
    (label, tree, should accept, expected heuristic)."""
    fixes_introduced_by = make_tree(
        "fixes a search bug introduced by 2508e12",
        [
            (1, "fixes", "fix", 0, "root"),
            (2, "a", "a", 4, "det"),
            (3, "search", "search", 4, "compound"),
            (4, "bug", "bug", 1, "obj"),
            (5, "introduced", "introduce", 4, "acl"),
            (6, "by", "by", 7, "case"),
            (7, "2508e12", "2508e12", 5, "obl"),
        ],
    )
    improving_feature = make_tree(
        "Improving feature introduced in 2508e12 and fixed a bug",
        [
            (1, "Improving", "improve", 0, "root"),
            (2, "feature", "feature", 1, "obj"),
            (3, "introduced", "introduce", 2, "acl"),
            (4, "in", "in", 5, "case"),
            (5, "2508e12", "2508e12", 3, "obl"),
            (6, "and", "and", 7, "cc"),
            (7, "fixed", "fix", 5, "conj"),
            (8, "a", "a", 9, "det"),
            (9, "bug", "bug", 7, "obj"),
        ],
    )
    remove_attempt = make_tree(
        "Remove attempt to fix error introduced in 2f780609",
        [
            (1, "Remove", "remove", 0, "root"),
            (2, "attempt", "attempt", 1, "obj"),
            (3, "to", "to", 4, "mark"),
            (4, "fix", "fix", 2, "acl"),
            (5, "error", "error", 4, "obj"),
            (6, "introduced", "introduce", 5, "acl"),
            (7, "in", "in", 8, "case"),
            (8, "2f780609", "2f780609", 6, "obl"),
        ],
    )
    tried_to_fix = make_tree(
        "This definitely fixes the bug I tried to fix in commit 26f3fe2",
        [
            (1, "This", "this", 3, "nsubj"),
            (2, "definitely", "definitely", 3, "advmod"),
            (3, "fixes", "fix", 0, "root"),
            (4, "the", "the", 5, "det"),
            (5, "bug", "bug", 3, "obj"),
            (6, "I", "i", 7, "nsubj"),
            (7, "tried", "try", 5, "acl"),
            (8, "to", "to", 9, "mark"),
            (9, "fix", "fix", 7, "xcomp"),
            (10, "in", "in", 12, "case"),
            (11, "commit", "commit", 12, "compound"),
            (12, "26f3fe2", "26f3fe2", 9, "obl"),
        ],
    )
    solve_error_caused = make_tree(
        "solve the error caused in a1b2c3d4",
        [
            (1, "solve", "solve", 0, "root"),
            (2, "the", "the", 3, "det"),
            (3, "error", "error", 1, "obj"),
            (4, "caused", "cause", 3, "acl"),
            (5, "in", "in", 6, "case"),
            (6, "a1b2c3d4", "a1b2c3d4", 4, "obl"),
        ],
    )
    bug_was_fixed = make_tree(
        "bug was fixed in 1234abcd",
        [
            (1, "bug", "bug", 3, "nsubj"),
            (2, "was", "be", 3, "aux"),
            (3, "fixed", "fix", 0, "root"),
            (4, "in", "in", 5, "case"),
            (5, "1234abcd", "1234abcd", 3, "obl"),
        ],
    )
    return [
        ("fixes_introduced_by", fixes_introduced_by, True, "h2"),
        ("improving_feature", improving_feature, False, None),
        ("remove_attempt", remove_attempt, False, None),
        ("tried_to_fix", tried_to_fix, False, None),
        ("solve_error_caused", solve_error_caused, True, "h3"),
        ("bug_was_fixed", bug_was_fixed, False, None),
    ]


@pytest.fixture(scope="session")
def labeled_sentences():
    return sentence_fixtures()
