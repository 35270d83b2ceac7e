"""Repository facade: resolution, metadata, diffs, blame, error taxonomy."""

import subprocess
import tempfile
from datetime import timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bictrace.errors import (
    AmbiguousCommitError,
    CorruptRepositoryError,
    LineOutOfRangeError,
    NotAParentError,
    NotARepositoryError,
    PathMissingError,
    UnknownCommitError,
)
from bictrace.gitrepo import (
    BlameRecord,
    DiffHunk,
    GitRepo,
    parse_porcelain_blame,
    parse_unified_diff,
)
from bictrace.scenarios import GitScripter


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
    assert meta.message.rstrip("\n") == "sharpen beta entry"
    assert meta.committer_time == s.times[labels["edit"]]
    assert meta.committer_time.tzinfo == timezone.utc
    assert meta.author_time == meta.committer_time


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
    records = repo.blame(labels["edit"], "a.txt", [1, 2, 3])
    by_line = {r.line_no: r.origin for r in records}
    assert by_line == {
        1: labels["root"],
        2: labels["edit"],
        3: labels["root"],
    }


def test_blame_follows_renames(shop):
    repo, labels, _ = shop
    records = repo.blame(labels["pure_rename"], "c.txt", [2, 3])
    by_line = {r.line_no: r for r in records}
    assert by_line[2].origin == labels["edit"]
    assert by_line[2].file == "a.txt"
    assert by_line[3].origin == labels["rename_edit"]


def test_blame_ignore_rev_reattributes(shop):
    repo, labels, _ = shop
    records = repo.blame(
        labels["rename_edit"], "b.txt", [3],
        ignore_commits={labels["rename_edit"]},
    )
    assert records[0].origin == labels["root"]


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
        ("color.ui", "always"),
        ("color.diff", "always"),
        ("diff.external", "true"),
        ("diff.shift.textconv", "sed 1d"),
        ("blame.ignoreRevsFile", "IGNORE_REVS"),
    ],
)
def test_repository_config_changes_no_answer(configurable, key, value):
    path, root, fix = configurable
    repo = GitRepo(path)
    want_diff = repo.diff_against_parent(fix, root)
    want_blame = repo.blame(fix, "a/core.c", [1, 2, 3])
    assert want_diff[0].file_pre == "a/core.c"
    assert [r.origin for r in want_blame] == [root, fix, root]

    ignore_revs = path.parent / "ignore-revs"
    ignore_revs.write_text(fix + "\n")
    (path / ".git" / "info" / "attributes").write_text("*.c diff=shift\n")
    if value == "IGNORE_REVS":
        value = str(ignore_revs)
    subprocess.run(["git", "-C", str(path), "config", key, value], check=True)

    configured = GitRepo(path)
    assert configured.diff_against_parent(fix, root) == want_diff
    assert configured.blame(fix, "a/core.c", [1, 2, 3]) == want_blame


def test_git_runs_in_the_c_locale(shop, monkeypatch):
    monkeypatch.setenv("LC_ALL", "de_DE.UTF-8")
    envs = []
    real_run = subprocess.run

    def spy(argv, **kwargs):
        envs.append(kwargs.get("env"))
        return real_run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    repo, labels, _ = shop
    fresh = GitRepo(repo.path)
    fresh.commit_meta(labels["edit"])
    with pytest.raises(UnknownCommitError):
        fresh.resolve("no-such-branch")
    assert envs and all(env is not None and env["LC_ALL"] == "C" for env in envs)


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


def test_parse_porcelain_blame_filename_fallback():
    sha_a = "a" * 40
    sha_b = "b" * 40
    text = (
        f"{sha_a} 1 1 2\n"
        "author someone\n"
        "filename lib.c\n"
        "\tfirst line\n"
        f"{sha_a} 2 2\n"
        "\tsecond line\n"
        f"{sha_b} 7 3 1\n"
        "filename moved.c\n"
        "\tthird line\n"
    )
    records = parse_porcelain_blame(text)
    assert records == [
        BlameRecord(file="lib.c", line_no=1, origin=sha_a, origin_line_no=1),
        BlameRecord(file="lib.c", line_no=2, origin=sha_a, origin_line_no=2),
        BlameRecord(file="moved.c", line_no=3, origin=sha_b, origin_line_no=7),
    ]


def test_diff_and_blame_are_deterministic(shop):
    repo, labels, _ = shop
    first = repo.diff_against_parent(labels["rename_edit"], labels["edit"])
    again = GitRepo(repo.path).diff_against_parent(labels["rename_edit"], labels["edit"])
    assert first == again
    b1 = repo.blame(labels["edit"], "a.txt", [1, 2, 3])
    b2 = GitRepo(repo.path).blame(labels["edit"], "a.txt", [1, 2, 3])
    assert b1 == b2
