"""The synthetic history model and its agreement with real git.

The model computes expected candidate sets analytically; replaying the
same history into a real repository and running the pipeline there checks
the git plumbing against the model, commit for commit.
"""

from __future__ import annotations

from datetime import timedelta, timezone

import pytest

from bictrace.engine import run_variant
from bictrace.errors import (
    AmbiguousCommitError,
    LineOutOfRangeError,
    NotAParentError,
    PathMissingError,
    UnknownCommitError,
)
from bictrace.gitrepo import GitRepo
from memrepo import (
    MODEL_FILE,
    InMemoryRepo,
    MemCommit,
    _EPOCH,
    random_history,
    replay_to_git,
)

VARIANTS = {
    "B": "expected_b",
    "AG": "expected_ag",
    "MA": "expected_ma",
    "L": "expected_l",
    "R": "expected_r",
}


def _tiny_repo() -> InMemoryRepo:
    t = _EPOCH
    root = MemCommit(
        cid="aaaa0000" + "0" * 32,
        parents=(),
        time=t,
        message="root",
        writes={1: "slot1 = 0;", 2: "slot2 = 0;"},
        kind="root",
    )
    edit = MemCommit(
        cid="aaaa1111" + "0" * 32,
        parents=(root.cid,),
        time=t + timedelta(seconds=60),
        message="edit",
        writes={2: "slot2 = 1;"},
        kind="content",
    )
    return InMemoryRepo([root, edit])


def test_resolve_full_prefix_and_failures():
    repo = _tiny_repo()
    root, edit = repo._order
    assert repo.resolve(root) == root
    assert repo.resolve(edit[:12]) == edit
    with pytest.raises(AmbiguousCommitError):
        repo.resolve("aaaa")
    with pytest.raises(UnknownCommitError):
        repo.resolve("beef")
    with pytest.raises(UnknownCommitError):
        repo.resolve("aa")  # too short to try prefix matching


def test_meta_and_merge_flags():
    repo = _tiny_repo()
    root, edit = repo._order
    meta = repo.commit_meta(edit)
    assert meta.parents == (root,)
    assert meta.committer_time.tzinfo is timezone.utc


def test_file_and_diff():
    repo = _tiny_repo()
    root, edit = repo._order
    assert repo.file_at(root, MODEL_FILE) == "slot1 = 0;\nslot2 = 0;\n"
    assert repo.file_at(edit, MODEL_FILE) == "slot1 = 0;\nslot2 = 1;\n"
    with pytest.raises(PathMissingError):
        repo.file_at(edit, "nope.c")

    (hunk,) = repo.diff_against_parent(edit, root)
    assert hunk.removed == ((2, "slot2 = 0;"),)
    assert hunk.added == ((2, "slot2 = 1;"),)
    with pytest.raises(NotAParentError):
        repo.diff_against_parent(root, edit)


def test_blame_and_ignore_fallback():
    repo = _tiny_repo()
    root, edit = repo._order
    assert repo.blame(edit, MODEL_FILE, {2}) == {2: edit}
    assert repo.blame(edit, MODEL_FILE, {2}, frozenset({edit})) == {2: root}
    # with every writer ignored the oldest writer is repeated back
    assert repo.blame(edit, MODEL_FILE, {2}, frozenset({root, edit})) == {2: root}
    with pytest.raises(LineOutOfRangeError):
        repo.blame(edit, MODEL_FILE, {99})
    with pytest.raises(PathMissingError):
        repo.blame(edit, "nope.c", {1})


def test_duplicate_ids_rejected():
    c = _tiny_repo().commits()[0]
    with pytest.raises(ValueError):
        InMemoryRepo([c, c])


@pytest.mark.parametrize("seed", range(10))
def test_model_expectations_hold_on_the_model(seed):
    planted = random_history(seed)
    for preset_key, attr in VARIANTS.items():
        got = run_variant(planted.repo, planted.fix, preset_key)
        assert got == getattr(planted, attr), f"seed {seed} preset {preset_key}"


@pytest.mark.parametrize("seed", range(10))
def test_replayed_git_history_matches_model(seed, tmp_path):
    planted = random_history(seed)
    mapping = replay_to_git(planted.repo, tmp_path)
    repo = GitRepo(tmp_path)

    for mem in planted.repo.commits():
        meta = repo.commit_meta(mapping[mem.cid])
        assert meta.parents == tuple(mapping[p] for p in mem.parents)
        assert meta.committer_time == mem.time
        assert repo.file_at(meta.id, MODEL_FILE) == planted.repo.file_at(
            mem.cid, MODEL_FILE
        )

    for preset_key, attr in VARIANTS.items():
        got = run_variant(repo, mapping[planted.fix], preset_key)
        want = {mapping[c] for c in getattr(planted, attr)}
        assert got == want, f"seed {seed} preset {preset_key}"


def test_histories_are_deterministic():
    a, b = random_history(7), random_history(7)
    assert [c.cid for c in a.repo.commits()] == [c.cid for c in b.repo.commits()]
    assert a.expected_ma == b.expected_ma
    c = random_history(8)
    assert [x.cid for x in a.repo.commits()] != [x.cid for x in c.repo.commits()]
