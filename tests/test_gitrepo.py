"""Repository facade: resolution, metadata, diffs, blame, error taxonomy."""

import ast
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from datetime import timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bictrace import gitrepo, langfilters
from bictrace.engine import PRESETS, extract_fix_lines, run_configs
from bictrace.errors import (
    AmbiguousCommitError,
    ConfigurationError,
    CorruptRepositoryError,
    GitTimeoutError,
    LineOutOfRangeError,
    NotAParentError,
    NotARepositoryError,
    PathMissingError,
    RootCommitError,
    UnknownCommitError,
)
from bictrace.gitrepo import (
    PINNED_CONFIG,
    DiffHunk,
    GitRepo,
    parse_porcelain_blame,
    parse_unified_diff,
)
from desk import GitScripter


@pytest.fixture(scope="module")
def shop(tmp_path_factory):
    """A small history: edits, a rename with an edit, a pure rename, a
    merge, and a file without a trailing newline."""
    s = GitScripter(tmp_path_factory.mktemp("facade"))
    s.write("a.txt", "alpha\nbeta\ngamma\n")
    s.write("keep.c", "int keep(void) { return 1; }\n")
    labels = {}
    labels["root"] = s.commit("add alpha table")
    s.write("a.txt", "alpha\nbeta2\ngamma\n")
    labels["edit"] = s.commit("sharpen beta entry")
    s.rename("a.txt", "b.txt")
    s.write("b.txt", "alpha\nbeta2\ngamma2\n")
    labels["rename_edit"] = s.commit("rename table and refresh gamma")
    s.rename("b.txt", "c.txt")
    labels["pure_rename"] = s.commit("rename table again, no edits")
    s.write("notes.md", "side note\n")
    labels["side"] = s.commit("jot side note", parents=[labels["root"]])
    s.delete("notes.md")
    s.write("notes.md", "side note\n")
    labels["merge"] = s.commit(
        "bring in side note", parents=[labels["pure_rename"], labels["side"]]
    )
    s.write("tail.txt", "no final newline")
    labels["tail"] = s.commit("add unterminated file")
    s.write("tail.txt", "no final newline!")
    labels["tail_edit"] = s.commit("punctuate unterminated file")
    s.finish()
    return GitRepo(s.path), labels, s


def test_resolve_full_and_abbreviated(shop):
    repo, labels, _ = shop
    full = labels["edit"]
    assert repo.resolve(full) == full
    assert repo.resolve(full[:8]) == full
    assert repo.resolve("HEAD") == labels["tail_edit"]


def test_resolve_rejects_unknown_and_malformed(shop):
    repo, _, _ = shop
    with pytest.raises(UnknownCommitError):
        repo.resolve("0" * 40)
    with pytest.raises(UnknownCommitError):
        repo.resolve("nonexistent-branch")
    with pytest.raises(UnknownCommitError):
        repo.resolve("")
    with pytest.raises(UnknownCommitError):
        repo.resolve("--output=/tmp/x")


def test_resolve_ambiguous_abbreviation(tmp_path):
    # two blobs whose hashes share a 6-char prefix (precomputed pair)
    s = GitScripter(tmp_path)
    s.write("f.txt", "x\n")
    s.commit("seed")
    s.finish()
    for content in ("c2378\n", "c3723\n"):
        out = subprocess.run(
            ["git", "-C", str(tmp_path), "hash-object", "-w", "--stdin"],
            input=content.encode(),
            capture_output=True,
            check=True,
        )
        assert out.stdout.decode().startswith("91e731")
    repo = GitRepo(tmp_path)
    with pytest.raises(AmbiguousCommitError):
        repo.resolve("91e731")


def test_commit_meta_fields(shop):
    repo, labels, s = shop
    meta = repo.commit_meta(labels["edit"])
    assert meta.id == labels["edit"]
    assert meta.parents == (labels["root"],)
    assert meta.committer_time == s.times[labels["edit"]]
    assert meta.committer_time.tzinfo == timezone.utc


def test_merge_parent_order(shop):
    repo, labels, _ = shop
    meta = repo.commit_meta(labels["merge"])
    assert meta.parents == (labels["pure_rename"], labels["side"])


def test_file_at(shop):
    repo, labels, _ = shop
    assert repo.file_at(labels["root"], "a.txt") == "alpha\nbeta\ngamma\n"
    assert repo.file_at(labels["edit"], "a.txt") == "alpha\nbeta2\ngamma\n"
    with pytest.raises(PathMissingError):
        repo.file_at(labels["root"], "b.txt")


def test_diff_against_parent_line_numbers(shop):
    repo, labels, _ = shop
    hunks = repo.diff_against_parent(labels["edit"], labels["root"])
    assert hunks == (
        DiffHunk(
            file_pre="a.txt",
            file_post="a.txt",
            removed=((2, "beta"),),
            added=((2, "beta2"),),
        ),
    )


def test_diff_rename_with_edit(shop):
    repo, labels, _ = shop
    hunks = repo.diff_against_parent(labels["rename_edit"], labels["edit"])
    assert len(hunks) == 1
    h = hunks[0]
    assert (h.file_pre, h.file_post) == ("a.txt", "b.txt")
    assert h.removed == ((3, "gamma"),)
    assert h.added == ((3, "gamma2"),)


def test_diff_pure_rename_is_empty(shop):
    repo, labels, _ = shop
    assert repo.diff_against_parent(labels["pure_rename"], labels["rename_edit"]) == ()


def test_diff_requires_parent(shop):
    repo, labels, _ = shop
    with pytest.raises(NotAParentError):
        repo.diff_against_parent(labels["rename_edit"], labels["root"])


def test_diff_no_trailing_newline(shop):
    repo, labels, _ = shop
    hunks = repo.diff_against_parent(labels["tail_edit"], labels["tail"])
    assert hunks == (
        DiffHunk(
            file_pre="tail.txt",
            file_post="tail.txt",
            removed=((1, "no final newline"),),
            added=((1, "no final newline!"),),
        ),
    )


def test_blame_basic_attribution(shop):
    repo, labels, _ = shop
    assert repo.blame(labels["edit"], "a.txt", [1, 2, 3]) == {
        1: labels["root"],
        2: labels["edit"],
        3: labels["root"],
    }


def test_blame_follows_renames(shop):
    repo, labels, _ = shop
    # line 2 was last changed in a.txt, two renames before c.txt
    assert repo.blame(labels["pure_rename"], "c.txt", [2, 3]) == {
        2: labels["edit"],
        3: labels["rename_edit"],
    }


def test_blame_ignore_rev_reattributes(shop):
    repo, labels, _ = shop
    origins = repo.blame(
        labels["rename_edit"], "b.txt", [3],
        ignore_commits={labels["rename_edit"]},
    )
    assert origins == {3: labels["root"]}


def test_blame_errors(shop):
    repo, labels, _ = shop
    with pytest.raises(LineOutOfRangeError):
        repo.blame(labels["root"], "a.txt", [99])
    with pytest.raises(PathMissingError):
        repo.blame(labels["root"], "missing.txt", [1])


def test_not_a_repository(tmp_path):
    with pytest.raises(NotARepositoryError):
        GitRepo(tmp_path)


def test_corrupt_object_detected(tmp_path):
    s = GitScripter(tmp_path)
    s.write("f.txt", "content\n")
    sha = s.commit("seed corrupt case")
    s.finish()
    obj = tmp_path / ".git" / "objects" / sha[:2] / sha[2:]
    obj.chmod(0o644)
    obj.write_bytes(b"")
    repo = GitRepo(tmp_path)
    with pytest.raises((CorruptRepositoryError, UnknownCommitError)):
        repo.commit_meta(sha)


@pytest.fixture
def configurable(tmp_path):
    """A fix touching three files, each shaped so that one kind of config
    would change its diff: a path under ``a/`` (prefixes), a pair that
    myers and histogram split differently, and one the indent heuristic
    slides."""
    s = GitScripter(tmp_path / "repo")
    s.write("a/core.c", "int one;\nint two;\nint three;\n")
    s.write("alg.txt", "a\na\nx\n")
    s.write("ind.txt", "\nx\nx\nc\nx\nb\na\n")
    root = s.commit("add files")
    s.write("a/core.c", "int one;\nint TWO;\nint three;\n")
    s.write("alg.txt", "a\n}\nx\nb\n}\nx\na\n")
    s.write("ind.txt", "\nx\nc\n")
    fix = s.commit("rework files")
    s.finish()
    return s.path, root, fix


@pytest.mark.parametrize(
    "key, value",
    [
        ("diff.noprefix", "true"),
        ("diff.mnemonicPrefix", "true"),
        ("diff.algorithm", "histogram"),
        ("diff.indentHeuristic", "false"),
        ("diff.interHunkContext", "5"),
        ("diff.orderFile", "ORDER_FILE"),
        ("color.ui", "always"),
        ("color.diff", "always"),
        ("diff.external", "true"),
        ("diff.shift.textconv", "sed 1d"),
        ("blame.ignoreRevsFile", "IGNORE_REVS"),
        ("core.attributesFile", "ATTRIBUTES_FILE"),
    ],
)
def test_repository_config_changes_no_answer(configurable, key, value, git_subcommands):
    path, root, fix = configurable
    repo = GitRepo(path)
    want_diff = repo.diff_against_parent(fix, root)
    want_blame = repo.blame(fix, "a/core.c", [1, 2, 3])
    assert want_diff[0].file_pre == "a/core.c"
    assert want_blame == {1: root, 2: fix, 3: root}

    ignore_revs = path.parent / "ignore-revs"
    ignore_revs.write_text(fix + "\n")
    (path / ".git" / "info" / "attributes").write_text("*.c diff=shift\n")
    order_file = path.parent / "order"
    order_file.write_text("ind.txt\nalg.txt\n")
    attributes_file = path.parent / "attributes"
    attributes_file.write_text("* -diff\n")
    value = {"IGNORE_REVS": ignore_revs, "ORDER_FILE": order_file,
             "ATTRIBUTES_FILE": attributes_file}.get(value, value)
    subprocess.run(["git", "-C", str(path), "config", key, str(value)], check=True)

    configured = GitRepo(path)
    assert configured.diff_against_parent(fix, root) == want_diff
    assert configured.blame(fix, "a/core.c", [1, 2, 3]) == want_blame
    # diff-tree answered every diff; it ignores diff.interHunkContext and
    # diff.orderFile, so neither setting needs a pin
    assert "diff-tree" in git_subcommands and "diff" not in git_subcommands


def test_the_clones_own_attributes_still_apply(configurable):
    # the clone's info/attributes speaks for its files as a committed
    # .gitattributes does: a file it marks -diff changes without lines
    path, root, fix = configurable
    files = {h.file_pre for h in GitRepo(path).diff_against_parent(fix, root)}
    assert files == {"a/core.c", "alg.txt", "ind.txt"}
    (path / ".git" / "info" / "attributes").write_text("*.c -diff\n")
    files = {h.file_pre for h in GitRepo(path).diff_against_parent(fix, root)}
    assert files == {"alg.txt", "ind.txt"}


def test_missing_ignore_revs_file_is_a_configuration_error(configurable):
    # git opens every configured ignore-revs file before the empty
    # --ignore-revs-file resets the list, so this setting cannot be undone
    path, _, fix = configurable
    missing = path.parent / "no-such-ignore-revs"
    subprocess.run(
        ["git", "-C", str(path), "config", "blame.ignoreRevsFile", str(missing)], check=True
    )
    with pytest.raises(ConfigurationError, match="blame.ignoreRevsFile"):
        GitRepo(path).blame(fix, "a/core.c", [1])


def test_hashes_git_printed_need_no_rev_parse(shop, git_subcommands):
    repo, labels, _ = shop
    fresh = GitRepo(repo.path)
    assert fresh.blame(labels["edit"], "a.txt", [2]) == {2: labels["edit"]}
    assert git_subcommands == ["rev-parse", "cat-file", "blame"]
    git_subcommands.clear()
    meta = fresh.commit_meta(labels["edit"])
    fresh.commit_meta(meta.parents[0])
    assert git_subcommands == []
    fresh.close()


def test_git_runs_in_the_c_locale(shop, monkeypatch):
    monkeypatch.setenv("LC_ALL", "de_DE.UTF-8")
    envs = {}
    real_popen = subprocess.Popen

    def spy(argv, **kwargs):
        subcommand = argv[3 + 2 * len(PINNED_CONFIG)]  # after git -C <path> -c ...
        envs.setdefault(subcommand, []).append(kwargs.get("env"))
        return real_popen(argv, **kwargs)

    # subprocess.run starts its process through Popen too
    monkeypatch.setattr(subprocess, "Popen", spy)
    repo, labels, _ = shop
    with GitRepo(repo.path) as fresh:
        fresh.commit_meta(labels["edit"])
        with pytest.raises(UnknownCommitError):
            fresh.resolve("no-such-branch")
    # the probe and the rev-parse fallback, and the batch process
    assert sorted((sub, len(e)) for sub, e in envs.items()) == [("cat-file", 1), ("rev-parse", 2)]
    assert all(env is not None and env["LC_ALL"] == "C" for e in envs.values() for env in e)


def _git_out(path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(path), *args], capture_output=True, check=True).stdout


def _assert_batch_matches_one_shot(path) -> None:
    """commit_meta and file_at of every commit and every file in it give
    what the one-shot ``git show`` prints; a directory is no file."""
    with GitRepo(path) as repo:
        for sha in _git_out(path, "rev-list", "--all").decode().split():
            shown = _git_out(path, "show", "-s", "--format=%H%n%P%n%ct", sha).decode()
            head, parents, ct = shown.split("\n")[:3]
            meta = repo.commit_meta(sha)
            assert meta.id == head
            assert meta.parents == tuple(parents.split()), sha
            assert meta.committer_time.timestamp() == int(ct)
            listing = _git_out(path, "ls-tree", "-r", "-t", "-z", sha)
            for entry in listing.split(b"\0")[:-1]:
                info, raw = entry.split(b"\t", 1)
                file = os.fsdecode(raw)
                if info.split()[1] == b"tree":
                    with pytest.raises(PathMissingError):
                        repo.file_at(sha, file)
                    continue
                want = _git_out(path, "show", f"{sha}:{file}").decode("utf-8", "replace")
                assert repo.file_at(sha, file) == want, (sha, file)


def test_batch_answers_equal_one_shot_commands(suite):
    for sc in suite.values():
        _assert_batch_matches_one_shot(sc.path)


def test_batch_reads_odd_paths_headers_and_grafts(tmp_path):
    # cat-file reads a name that holds a newline too
    s = GitScripter(tmp_path)
    for name in ("dir with space/a b.txt", "naïve.py", "new\nline.txt"):
        s.write(name, f"first {name}\n")
    root = s.commit("add odd paths")
    s.write("naïve.py", "second\n")
    s.commit("edit odd path")
    s.finish()
    # author and committer times that differ, a zone offset and an
    # encoding header
    env = {
        **os.environ,
        "GIT_AUTHOR_NAME": "A", "GIT_AUTHOR_EMAIL": "a@example.org",
        "GIT_AUTHOR_DATE": "1000000000 +0000",
        "GIT_COMMITTER_NAME": "C", "GIT_COMMITTER_EMAIL": "c@example.org",
        "GIT_COMMITTER_DATE": "1100000000 -0730",
    }
    tree = _git_out(tmp_path, "rev-parse", "HEAD^{tree}").decode().strip()
    sha = subprocess.run(
        ["git", "-C", str(tmp_path), "-c", "i18n.commitEncoding=ISO-8859-1",
         "commit-tree", tree, "-p", "HEAD", "-m", "r\xe9sum\xe9"],
        capture_output=True, check=True, env=env,
    ).stdout.decode().strip()
    _git_out(tmp_path, "update-ref", "refs/heads/main", sha)
    assert b"\nencoding " in _git_out(tmp_path, "cat-file", "commit", sha)
    # and a graft that show honours and the commit object does not know
    (tmp_path / ".git" / "info" / "grafts").write_text(f"# skip one\n{sha} {root}\n")
    _assert_batch_matches_one_shot(tmp_path)
    with GitRepo(tmp_path) as repo:
        meta = repo.commit_meta(sha)
        assert meta.parents == (root,)
        assert meta.committer_time.timestamp() == 1100000000


def test_shallow_boundary_has_no_parents(suite, tmp_path):
    sc = suite["cosmetic_chain"]
    clone = tmp_path / "shallow"
    subprocess.run(
        ["git", "clone", "-q", "--depth", "2", f"file://{sc.path}", str(clone)],
        capture_output=True, check=True,
    )
    boundary = _git_out(clone, "rev-parse", "HEAD~1").decode().strip()
    # the object still names the parent that show hides
    assert b"\nparent " in _git_out(clone, "cat-file", "commit", boundary)
    _assert_batch_matches_one_shot(clone)
    with GitRepo(clone) as repo:
        assert repo.commit_meta(boundary).parents == ()
        with pytest.raises(RootCommitError):
            extract_fix_lines(repo, boundary)


def test_file_at_reads_only_through_cat_file(tmp_path, git_subcommands, batch_processes):
    s = GitScripter(tmp_path)
    s.write("dir/in.txt", "inside\n")
    s.write("new\nline.txt", "odd name\n")
    root = s.commit("add a directory and a name with a newline")
    s.finish()
    with GitRepo(tmp_path) as repo:
        for path in ("gone.txt", "dir", "gone\nline.txt"):
            with pytest.raises(PathMissingError):
                repo.file_at(root, path)
        assert repo.file_at(root, "new\nline.txt") == "odd name\n"
    assert git_subcommands == ["rev-parse", "cat-file"]
    assert len(batch_processes) == 1


def test_names_with_nul_or_newline(shop, batch_processes):
    repo, labels, _ = shop
    with GitRepo(repo.path) as fresh:
        with pytest.raises(UnknownCommitError):
            fresh.resolve("HEAD\0")
        with pytest.raises(PathMissingError):
            fresh.file_at(labels["root"], "a.txt\0")
        # a newline would let the echoed name pass for an answer line
        with pytest.raises(UnknownCommitError):
            fresh.resolve(f"{labels['edit']} commit 1\nx")
        assert fresh.file_at(labels["root"], "a.txt") == "alpha\nbeta\ngamma\n"
        assert fresh.file_at(labels["edit"], "a.txt") == "alpha\nbeta2\ngamma\n"
    assert len(batch_processes) == 1


def test_dead_batch_process_is_replaced(shop, batch_processes):
    repo, labels, _ = shop
    with GitRepo(repo.path) as fresh:
        assert fresh.file_at(labels["root"], "a.txt") == "alpha\nbeta\ngamma\n"
        [first] = batch_processes
        first.kill()
        first.wait()
        # the request that finds it dead asks a new one
        assert fresh.file_at(labels["edit"], "a.txt") == "alpha\nbeta2\ngamma\n"
        assert fresh.commit_meta(labels["side"]).parents == (labels["root"],)
        assert len(batch_processes) == 2
    assert all(proc.returncode is not None for proc in batch_processes)


def test_killed_batch_processes_are_replaced_not_stood_in_for(
    shop, batch_processes, git_subcommands
):
    repo, labels, _ = shop
    with GitRepo(repo.path) as fresh:
        fresh.diff_against_parent(labels["edit"], labels["root"])
        for proc in batch_processes:
            proc.kill()
            proc.wait()
        git_subcommands.clear()
        assert fresh.commit_meta(labels["side"]).parents == (labels["root"],)
        [hunk] = fresh.diff_against_parent(labels["rename_edit"], labels["edit"])
        assert hunk.added == ((3, "gamma2"),)
    assert git_subcommands == ["cat-file", "diff-tree"]


def test_batch_process_that_keeps_dying_is_a_corrupt_repository(
    shop, monkeypatch, batch_processes
):
    repo, labels, _ = shop
    real_popen = subprocess.Popen

    def popen(argv, **kwargs):
        if "diff-tree" in argv:  # reads one request and exits
            argv = [sys.executable, "-c", "import sys; sys.stdin.readline()"]
        return real_popen(argv, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    with GitRepo(repo.path) as fresh:
        with pytest.raises(CorruptRepositoryError, match=labels["edit"]):
            fresh.diff_against_parent(labels["edit"], labels["root"])
    assert [proc.args[0] for proc in batch_processes] == ["git", sys.executable, sys.executable]


def test_cat_file_that_keeps_dying_is_a_corrupt_repository(shop, monkeypatch, git_subcommands):
    repo, labels, _ = shop
    real_popen = subprocess.Popen

    def popen(argv, **kwargs):
        if "cat-file" in argv:  # exits before it answers
            argv = [sys.executable, "-c", "pass"]
        return real_popen(argv, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    with GitRepo(repo.path) as fresh:
        with pytest.raises(CorruptRepositoryError, match="git cat-file .* could not read"):
            fresh.file_at(labels["root"], "a.txt")
    # no one-shot git stands in for the batch answer
    assert git_subcommands == ["rev-parse", "cat-file", "cat-file"]


def _commit_with(path, committer: str) -> str:
    """Write, as only ``hash-object --literally`` would, a commit on top
    of a fresh root whose header has ``committer`` as its last lines."""
    s = GitScripter(path)
    s.write("f.txt", "x\n")
    root = s.commit("seed")
    s.finish()
    tree = _git_out(path, "rev-parse", f"{root}^{{tree}}").decode().strip()
    body = f"tree {tree}\nparent {root}\nauthor A <a@example.org> 1000000000 +0000\n{committer}\nbody\n"
    return subprocess.run(
        ["git", "-C", str(path), "hash-object", "-t", "commit", "--literally", "-w", "--stdin"],
        input=body.encode(), capture_output=True, check=True,
    ).stdout.decode().strip()


def test_commit_without_a_committer_is_a_corrupt_repository(tmp_path):
    sha = _commit_with(tmp_path, "")
    with GitRepo(tmp_path) as repo:
        with pytest.raises(CorruptRepositoryError, match=sha):
            repo.commit_meta(sha)


@pytest.mark.parametrize("ctime", [99999999999999, 2**63])
def test_commit_with_an_out_of_range_time_is_a_corrupt_repository(tmp_path, ctime):
    # git reads these; a datetime cannot hold them
    sha = _commit_with(tmp_path, f"committer C <c@example.org> {ctime} +0000\n")
    with GitRepo(tmp_path) as repo:
        with pytest.raises(CorruptRepositoryError, match=sha):
            repo.resolve(sha)
        with pytest.raises(CorruptRepositoryError, match=sha):
            repo.commit_meta(sha)


def test_one_watchdog_thread_serves_every_repository(shop):
    repo, labels, _ = shop
    before = set(threading.enumerate())
    repos = [GitRepo(repo.path) for _ in range(10)]
    try:
        for fresh in repos:
            fresh.commit_meta(labels["edit"])
        assert len(set(threading.enumerate()) - before) <= 1
    finally:
        for fresh in repos:
            fresh.close()


def test_threads_share_one_batch_process(shop, batch_processes):
    repo, labels, _ = shop
    want = {
        label: _git_out(repo.path, "show", f"{sha}:keep.c").decode()
        for label, sha in labels.items()
    }
    errors = []
    with GitRepo(repo.path) as shared:

        def read():
            # diff-tree's first requests race, and one-shot blames share
            # the watchdog with the batch requests
            for commit, parent in (("edit", "root"), ("tail_edit", "tail")):
                if len(shared.diff_against_parent(labels[commit], labels[parent])) != 1:
                    errors.append(commit)
            for _ in range(20):
                for label, sha in labels.items():
                    if shared.file_at(sha, "keep.c") != want[label]:
                        errors.append(label)
            if shared.blame(labels["edit"], "a.txt", [2]) != {2: labels["edit"]}:
                errors.append("blame")

        threads = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(batch_processes) == 2  # one cat-file, one diff-tree


def test_git_past_its_time_raises(shop, monkeypatch):
    repo, labels, _ = shop
    monkeypatch.setattr(gitrepo, "GIT_TIMEOUT_S", 1e-6)
    with pytest.raises(GitTimeoutError, match="git blame .* ran longer than 1e-06 s"):
        repo.blame(labels["edit"], "a.txt", [2])
    with pytest.raises(GitTimeoutError, match="git rev-parse"):
        GitRepo(repo.path)


def test_batch_request_past_its_deadline_raises(
    shop, monkeypatch, git_subcommands, batch_processes
):
    repo, labels, _ = shop
    with GitRepo(repo.path) as fresh:
        fresh.commit_meta(labels["edit"])  # resolves the commit and its parent
        with monkeypatch.context() as m:
            m.setattr(gitrepo, "GIT_TIMEOUT_S", 1e-6)
            with pytest.raises(GitTimeoutError, match="git diff-tree .* ran longer than 1e-06 s"):
                fresh.diff_against_parent(labels["edit"], labels["root"])
        [hunk] = fresh.diff_against_parent(labels["edit"], labels["root"])
        assert hunk.removed == ((2, "beta"),)
    diff_trees = [proc for proc in batch_processes if "diff-tree" in proc.args]
    assert len(diff_trees) == 2
    assert all(proc.returncode is not None for proc in diff_trees)
    # a late batch answer is no reason to wait as long again for git diff
    assert "diff" not in git_subcommands


def test_watchdog_kills_git_that_stops_answering(shop, monkeypatch):
    repo, labels, _ = shop
    real_popen = subprocess.Popen
    hung = []

    def popen(argv, **kwargs):
        if argv[3 + 2 * len(PINNED_CONFIG)] in ("blame", "diff-tree"):
            hung.append(real_popen([sys.executable, "-c", "import time; time.sleep(60)"], **kwargs))
            return hung[-1]
        return real_popen(argv, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", popen)
    with GitRepo(repo.path) as fresh:
        fresh.commit_meta(labels["edit"])
        monkeypatch.setattr(gitrepo, "GIT_TIMEOUT_S", 0.5)
        calls = {
            "blame": lambda: fresh.blame(labels["edit"], "a.txt", [2]),
            "diff-tree": lambda: fresh.diff_against_parent(labels["edit"], labels["root"]),
        }
        for subcommand, call in calls.items():
            began = time.monotonic()
            with pytest.raises(GitTimeoutError, match=f"git {subcommand} .* ran longer than 0.5 s"):
                call()
            assert 0.5 <= time.monotonic() - began < 30, subcommand
    assert len(hung) == 2
    assert all(proc.returncode == -signal.SIGKILL for proc in hung)


def test_no_git_process_waits_with_a_timeout():
    # Popen.wait(timeout=...) sleep-polls until git exits; the watchdog kills
    # a late process instead, so every wait blocks
    tree = ast.parse(Path(gitrepo.__file__).read_text())
    keywords = [node for node in ast.walk(tree) if isinstance(node, ast.keyword)]
    assert [node.lineno for node in keywords if node.arg == "timeout"] == []


def test_paths_with_escaped_control_characters(tmp_path):
    # git C-quotes \a, \b, \f and \v even with core.quotePath=false in
    # diff headers
    name = "a\bb\fc\vd\ae"
    s = GitScripter(tmp_path)
    s.write(name, "one\ntwo\n")
    root = s.commit("add file")
    s.write(name, "one\nTWO\n")
    fix = s.commit("fix file")
    s.finish()
    assert b'"a/a\\bb\\fc\\vd\\ae"' in _git_out(tmp_path, "diff", root, fix)
    with GitRepo(tmp_path) as repo:
        [hunk] = repo.diff_against_parent(fix, root)
        assert hunk == DiffHunk(name, name, ((2, "two"),), ((2, "TWO"),))
        assert repo.file_at(root, hunk.file_pre) == "one\ntwo\n"
        assert repo.blame(fix, hunk.file_post, [1, 2]) == {1: root, 2: fix}


def test_paths_with_octal_quoted_characters(tmp_path):
    # other control characters are quoted in octal; the UTF-8 of é stays
    # unquoted with core.quotePath=false, and so do bytes that are not
    # UTF-8, which round-trip as the file system's own names
    names = ["odd\x01name.c", "é\x7f.c", os.fsdecode(b"bad\xff.c"), os.fsdecode(b"odd\x01\xfe.c")]
    s = GitScripter(tmp_path)
    for name in names:
        s.write(name, "int a;\nint b;\n")
    root = s.commit("add files")
    for name in names:
        s.write(name, "int a;\nint b = 1;\n")
    fix = s.commit("fix files")
    s.finish()
    assert b'"a/odd\\001name.c"' in _git_out(tmp_path, "diff", root, fix)
    with GitRepo(tmp_path) as repo:
        hunks = repo.diff_against_parent(fix, root)
        assert sorted(h.file_pre for h in hunks) == sorted(h.file_post for h in hunks) == sorted(names)
        [found] = run_configs(repo, fix, [(PRESETS["B"], None)])
    assert [c.commit for c in found] == [root]


def test_parse_unified_diff_shapes():
    text = (
        "diff --git a/x.c b/x.c\n"
        "index 000..111 100644\n"
        "--- a/x.c\n"
        "+++ b/x.c\n"
        "@@ -3,2 +3 @@\n"
        "-old three\n"
        "-old four\n"
        "+new three\n"
        "@@ -10 +9,0 @@\n"
        "-gone ten\n"
        "diff --git a/new.c b/new.c\n"
        "new file mode 100644\n"
        "--- /dev/null\n"
        "+++ b/new.c\n"
        "@@ -0,0 +1 @@\n"
        "+fresh\n"
        "\\ No newline at end of file\n"
    )
    hunks = parse_unified_diff(text)
    assert hunks == (
        DiffHunk("x.c", "x.c", ((3, "old three"), (4, "old four")), ((3, "new three"),)),
        DiffHunk("x.c", "x.c", ((10, "gone ten"),), ()),
        DiffHunk(None, "new.c", (), ((1, "fresh"),)),
    )


def test_parse_unified_diff_rename_header():
    text = (
        "diff --git a/old name.c b/new name.c\n"
        "similarity index 90%\n"
        "rename from old name.c\n"
        "rename to new name.c\n"
        "--- a/old name.c\n"
        "+++ b/new name.c\n"
        "@@ -1 +1 @@\n"
        "-a\n"
        "+b\n"
    )
    (h,) = parse_unified_diff(text)
    assert h.file_pre == "old name.c"
    assert h.file_post == "new name.c"
    assert h.removed == ((1, "a"),)


def test_parse_unified_diff_deleted_file():
    text = (
        "diff --git a/dead.c b/dead.c\n"
        "deleted file mode 100644\n"
        "--- a/dead.c\n"
        "+++ /dev/null\n"
        "@@ -1,2 +0,0 @@\n"
        "-one\n"
        "-two\n"
    )
    (h,) = parse_unified_diff(text)
    assert h.file_pre == "dead.c"
    assert h.file_post is None
    assert h.removed == ((1, "one"), (2, "two"))
    assert h.added == ()


def test_parse_unified_diff_body_lines_that_look_like_headers():
    # a removed SQL comment "-- old" shows as "--- old", an added "++ n"
    # as "+++ n": inside a hunk both are content, not file headers
    text = (
        "diff --git a/q.sql b/q.sql\n"
        "--- a/q.sql\n"
        "+++ b/q.sql\n"
        "@@ -2,2 +2,3 @@\n"
        "--- old comment\n"
        "-select 1;\n"
        "+-- new comment\n"
        "+++ counter\n"
        "+select 2;\n"
        "@@ -9 +10 @@\n"
        "-@@ -1 +1 @@\n"
        "+\\ plain text\n"
    )
    assert parse_unified_diff(text) == (
        DiffHunk(
            "q.sql", "q.sql",
            ((2, "-- old comment"), (3, "select 1;")),
            ((2, "-- new comment"), (3, "++ counter"), (4, "select 2;")),
        ),
        DiffHunk("q.sql", "q.sql", ((9, "@@ -1 +1 @@"),), ((10, "\\ plain text"),)),
    )


def test_diff_of_sql_comment_edit(tmp_path):
    s = GitScripter(tmp_path)
    s.write("q.sql", "select 1;\n-- count rows\nselect 2;\n")
    root = s.commit("add query")
    s.write("q.sql", "select 1;\n-- count all rows\n++ tally\nselect 2;\n")
    fix = s.commit("reword comment")
    hunks = GitRepo(s.path).diff_against_parent(fix, root)
    assert hunks == (
        DiffHunk(
            "q.sql", "q.sql",
            ((2, "-- count rows"),),
            ((2, "-- count all rows"), (3, "++ tally")),
        ),
    )


_LOOKALIKE_HEADS = ("", "-", "+", " ", "--", "++", "---", "+++", "-- ", "++ ", "@@", "@@ -1 +1 @@", "\\")
_file_lines = st.lists(
    st.builds(
        str.__add__,
        st.sampled_from(_LOOKALIKE_HEADS),
        st.sampled_from(("", "x", " a/x", "-1", "+1", " No newline at end of file")),
    ),
    max_size=8,
)


def _content(lines: list[str], final_newline: bool) -> str:
    text = "".join(line + "\n" for line in lines)
    return text if final_newline else text[:-1]


def _lines(content: str) -> list[str]:
    lines = content.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


@settings(max_examples=60, deadline=None)
@given(pre=_file_lines, post=_file_lines, pre_nl=st.booleans(), post_nl=st.booleans())
def test_parse_unified_diff_agrees_with_git(pre, post, pre_nl, post_nl):
    """Differential: real ``git diff -U0`` over generated files whose lines
    look like diff syntax; the parsed edits must turn one file into the
    other."""
    pre_text, post_text = _content(pre, pre_nl), _content(post, post_nl)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for side, text in (("pre", pre_text), ("post", post_text)):
            (root / side).mkdir()
            (root / side / "f").write_text(text, encoding="utf-8")
        proc = subprocess.run(
            ["git", "diff", "--no-index", "--no-ext-diff", "--no-color", "-U0", "pre/f", "post/f"],
            cwd=root, capture_output=True,
            env={"GIT_CONFIG_GLOBAL": "/dev/null", "GIT_CONFIG_NOSYSTEM": "1"},
        )
    assert proc.returncode in (0, 1), proc.stderr
    pre_lines, post_lines = _lines(pre_text), _lines(post_text)

    hunks = parse_unified_diff(proc.stdout.decode("utf-8"))
    removed = {n: text for h in hunks for n, text in h.removed}
    added = {n: text for h in hunks for n, text in h.added}
    assert all((h.file_pre, h.file_post) == ("pre/f", "post/f") for h in hunks)
    assert sum(len(h.removed) for h in hunks) == len(removed)
    assert sum(len(h.added) for h in hunks) == len(added)
    for n, text in removed.items():
        assert pre_lines[n - 1] == text
    for n, text in added.items():
        assert post_lines[n - 1] == text
    kept_pre = [line for n, line in enumerate(pre_lines, 1) if n not in removed]
    kept_post = [line for n, line in enumerate(post_lines, 1) if n not in added]
    assert kept_pre == kept_post


# the line that ends each diff-tree answer: content lines that equal it, or
# would print as it with a "-" or "+" in front, or with its first
# character swapped for one
_DIFF_END = gitrepo._DIFF_END.decode("ascii").rstrip("\n")
_text_lines = st.lists(
    st.one_of(
        st.builds(
            str.__add__,
            st.sampled_from(_LOOKALIKE_HEADS),
            st.sampled_from(("", "x", " a/x", "-1", "+1", " No newline at end of file")),
        ),
        st.sampled_from((
            _DIFF_END, _DIFF_END[1:], "-" + _DIFF_END[1:], "+" + _DIFF_END[1:],
            "diff --git a/x b/x", "Binary files a/x and b/x differ", "0" * 40,
        )),
    ),
    min_size=1,
    max_size=6,
)
_contents = st.one_of(
    st.builds(_content, _text_lines, st.booleans()).map(str.encode),
    st.binary(max_size=6).map(lambda raw: b"\0" + raw),  # binary files
)
_PATHS = ("plain.txt", "dir/sub.c", "a\bb\fc\vd\ae", "tab\tname", 'quo"te', "back\\slash",
          "naïve.py", "new\nline")


def test_batch_diff_of_lines_like_its_end_line(tmp_path, git_subcommands):
    lines = [_DIFF_END, _DIFF_END[1:], "-" + _DIFF_END[1:], "+" + _DIFF_END[1:]]
    body = "".join(f"{line}\n" for line in lines)
    s = GitScripter(tmp_path)
    s.write("gone.txt", body)
    s.write("came.txt", "x\n")
    root = s.commit("add")
    s.write("gone.txt", "x\n")
    s.write("came.txt", body)
    fix = s.commit("swap")
    s.finish()
    with GitRepo(tmp_path) as repo:
        came, gone = repo.diff_against_parent(fix, root)
    assert [text for _, text in gone.removed] == [text for _, text in came.added] == lines
    assert "diff" not in git_subcommands


def _evolve(data, files: dict[str, tuple[bytes, bool]]) -> dict[str, tuple[bytes, bool]]:
    """The next version of a tree: each file kept, edited, deleted, renamed
    or flipped executable, and perhaps one file added."""
    free = [path for path in _PATHS if path not in files]
    out = {}
    for path, (content, executable) in files.items():
        op = data.draw(st.sampled_from(("keep", "edit", "delete", "rename", "chmod")))
        if op == "edit":
            content = data.draw(_contents)
        elif op == "chmod":
            executable = not executable
        elif op == "rename" and free:
            path = free.pop()
        if op != "delete":
            out[path] = (content, executable)
    if free and data.draw(st.booleans()):
        out[free.pop()] = (data.draw(_contents), data.draw(st.booleans()))
    return out


def _check_out(root: Path, old: dict, new: dict) -> None:
    for path in old.keys() - new.keys():
        (root / path).unlink()
    for path, (content, executable) in new.items():
        (root / path).parent.mkdir(exist_ok=True)
        (root / path).write_bytes(content)
        (root / path).chmod(0o755 if executable else 0o644)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_batch_diff_equals_one_shot_diff(data, git_subcommands, monkeypatch):
    """Differential: every diff-tree answer is the bytes one-shot ``git
    diff`` prints, over renames, deletions, mode changes, binary files,
    control characters in paths, lines that look like diff syntax or like
    the line that ends an answer, empty diffs and a merge."""
    files = st.tuples(_contents, st.booleans())
    versions = [data.draw(st.dictionaries(st.sampled_from(_PATHS), files, max_size=3))]
    versions.append(_evolve(data, versions[0]))
    versions.append(versions[1])  # an empty diff, then a non-empty one
    versions.append(_evolve(data, versions[1]))
    parsed = []
    monkeypatch.setattr(
        gitrepo, "parse_unified_diff", lambda text: parsed.append(text) or parse_unified_diff(text)
    )
    git_subcommands.clear()
    with tempfile.TemporaryDirectory() as tmp:
        s = GitScripter(Path(tmp))
        commits = []
        for old, new in zip([{}, *versions], versions):
            _check_out(s.path, old, new)
            commits.append(s.commit(f"version {len(commits)}"))
        merge = s.commit("merge", parents=[commits[3], commits[1]])
        s.finish()
        pairs = [*zip(commits[1:], commits), (merge, commits[3]), (merge, commits[1])]
        # one-shot git diff also reads two settings that diff-tree ignores
        settings = (*PINNED_CONFIG, "diff.interHunkContext=0", "diff.orderFile=/dev/null")
        pinned = [arg for setting in settings for arg in ("-c", setting)]
        want = [
            subprocess.run(
                ["git", "-C", tmp, *pinned, "diff", *gitrepo._DIFF_ARGS, parent, commit],
                capture_output=True, check=True, env={**os.environ, "LC_ALL": "C"},
            ).stdout.decode("utf-8", "replace")
            for commit, parent in pairs
        ]
        with GitRepo(tmp) as repo:
            for commit, parent in pairs:
                repo.diff_against_parent(commit, parent)
    assert parsed == want
    assert want[1] == "" and git_subcommands.count("diff-tree") == 1
    assert "diff" not in git_subcommands


def test_parse_porcelain_blame_reads_only_headers():
    # a summary or previous line holding a hash, and content that looks
    # like a header, are not headers; later lines of a group have 3-field
    # headers
    sha_a = "a" * 40
    sha_b = "b" * 40
    text = (
        f"{sha_a} 1 1 2\n"
        "author someone\n"
        f"summary {sha_b} 9 9 1\n"
        "filename lib.c\n"
        f"\t{sha_b} 8 8\n"
        f"{sha_a} 2 2\n"
        f"\t{sha_b} 5 6 1\n"
        f"{sha_b} 7 3 1\n"
        f"previous {sha_a} lib.c\n"
        "filename moved.c\n"
        "\tthird line\n"
    )
    assert parse_porcelain_blame(text) == {1: sha_a, 2: sha_a, 3: sha_b}


def _line_porcelain_origins(path, revision, file, ignore) -> dict[int, str]:
    """Final line -> origin hash as ``git blame --line-porcelain`` prints
    it: each line's group starts with its header and ends with its
    tab-led content."""
    args = [arg for sha in sorted(ignore) for arg in ("--ignore-rev", sha)]
    out = _git_out(path, "blame", "--line-porcelain", *args, revision, "--", file)
    origins = {}
    group: list[bytes] = []
    for line in out.split(b"\n")[:-1]:
        group.append(line)
        if line.startswith(b"\t"):
            sha, _, final = group[0].split()[:3]
            origins[int(final)] = sha.decode("ascii")
            group = []
    return origins


def test_blame_equals_line_porcelain(suite):
    """Differential: every line of every file in each fix's pre-image,
    blamed plainly and with the scenario's cosmetic commits ignored."""
    for sc in suite.values():
        with GitRepo(sc.path) as repo:
            parent = repo.commit_meta(sc.fix).parents[0]
            history = _git_out(sc.path, "rev-list", parent).decode().split()
            cosmetic = frozenset(sha for sha in history if langfilters.is_cosmetic_commit(repo, sha))
            listing = _git_out(sc.path, "ls-tree", "-r", "-z", "--name-only", parent)
            for file in map(os.fsdecode, listing.split(b"\0")[:-1]):
                count = len(_lines(repo.file_at(parent, file)))
                for ignore in (frozenset(), cosmetic):
                    want = _line_porcelain_origins(sc.path, parent, file, ignore)
                    assert len(want) == count, (sc.name, file)
                    got = repo.blame(parent, file, range(1, count + 1), ignore)
                    assert got == want, (sc.name, file, sorted(ignore))


def test_diff_and_blame_are_deterministic(shop):
    repo, labels, _ = shop
    first = repo.diff_against_parent(labels["rename_edit"], labels["edit"])
    again = GitRepo(repo.path).diff_against_parent(labels["rename_edit"], labels["edit"])
    assert first == again
    b1 = repo.blame(labels["edit"], "a.txt", [1, 2, 3])
    b2 = GitRepo(repo.path).blame(labels["edit"], "a.txt", [1, 2, 3])
    assert b1 == b2
