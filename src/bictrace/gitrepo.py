"""Read-only facade over on-disk git repositories.

Everything here shells out to the git CLI and parses its plumbing output:
``rev-parse`` for resolution, ``show`` for metadata and file content,
``diff`` with zero context for changed lines, and ``blame --porcelain``
for line attribution. Rename following is left to git itself (blame
follows renames by default; diffs are asked for rename detection at a
fixed 50% similarity threshold so results are reproducible).

Answers depend only on the repository's objects: every call pins the
config settings that change diff or blame output, turns off external
diff drivers, textconv filters and ignore-revs files, and runs git in the
C locale so that its error messages read as ``_raise_for`` expects.

Snapshots never mutate the repository and are safe to share across
threads; each subprocess call is independent.
"""

from __future__ import annotations

import os
import re
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import (
    AmbiguousCommitError,
    CorruptRepositoryError,
    LineOutOfRangeError,
    NotAParentError,
    NotARepositoryError,
    PathMissingError,
    UnknownCommitError,
)

RENAME_THRESHOLD = "50%"

# user or repository config that would change what git prints
PINNED_CONFIG = (
    "core.quotePath=false",
    "diff.noprefix=false",
    "diff.mnemonicPrefix=false",
    "diff.algorithm=myers",
    "diff.indentHeuristic=true",
    "color.ui=never",
)

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_BLAME_HEAD_RE = re.compile(r"^([0-9a-f]{40}) (\d+) (\d+)(?: (\d+))?$")


@dataclass(frozen=True)
class CommitMeta:
    id: str
    parents: tuple[str, ...]
    author_time: datetime
    committer_time: datetime
    message: str


@dataclass(frozen=True)
class DiffHunk:
    """One contiguous change. ``file_pre`` is None for added files,
    ``file_post`` is None for deleted files; both present and different
    means the file was renamed."""

    file_pre: str | None
    file_post: str | None
    removed: tuple[tuple[int, str], ...]
    added: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class BlameRecord:
    file: str
    line_no: int
    origin: str
    origin_line_no: int


def _unquote_path(raw: str) -> str:
    # git C-quotes paths containing specials; core.quotePath=false keeps
    # plain unicode unquoted, so this only handles the residual cases.
    if not (raw.startswith('"') and raw.endswith('"')):
        return raw
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            simple = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "r": "\r"}
            if nxt in simple:
                out.append(simple[nxt])
                i += 2
                continue
            if nxt.isdigit() and i + 3 < len(body) + 1:
                out.append(chr(int(body[i + 1 : i + 4], 8)))
                i += 4
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _strip_prefix(path: str, prefix: str) -> str | None:
    path = _unquote_path(path)
    if path == "/dev/null":
        return None
    if path.startswith(prefix):
        return path[len(prefix) :]
    return path


class GitRepo:
    """Snapshot handle for one local clone."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        probe = self._run("rev-parse", "--git-dir")
        if probe.returncode != 0:
            raise NotARepositoryError(
                f"{self.path}: {probe.stderr.decode('utf-8', 'replace').strip()}"
            )
        self._resolve_cache: dict[str, str] = {}
        self._meta_cache: dict[str, CommitMeta] = {}
        self._diff_cache: dict[tuple[str, str], tuple[DiffHunk, ...]] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"GitRepo({self.path!r})"

    # -- plumbing ---------------------------------------------------------

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        argv = ["git", "-C", self.path]
        for setting in PINNED_CONFIG:
            argv += ["-c", setting]
        return subprocess.run(
            [*argv, *args], capture_output=True, env={**os.environ, "LC_ALL": "C"}
        )

    def _git(self, *args: str) -> bytes:
        proc = self._run(*args)
        if proc.returncode != 0:
            self._raise_for(proc.stderr.decode("utf-8", "replace"))
        return proc.stdout

    def _raise_for(self, stderr: str) -> None:
        msg = stderr.strip()
        low = msg.lower()
        if "is ambiguous" in low:
            raise AmbiguousCommitError(msg)
        if "not a git repository" in low:
            raise NotARepositoryError(msg)
        if "has only" in low and "lines" in low:
            raise LineOutOfRangeError(msg)
        if "no such path" in low or "does not exist in" in low or "exists on disk, but not in" in low:
            raise PathMissingError(msg)
        if "corrupt" in low or "object file" in low and "empty" in low:
            raise CorruptRepositoryError(msg)
        if (
            "needed a single revision" in low
            or "bad revision" in low
            or "unknown revision" in low
            or "bad object" in low
            or "invalid object name" in low
        ):
            raise UnknownCommitError(msg)
        raise CorruptRepositoryError(msg)

    # -- queries ----------------------------------------------------------

    def resolve(self, commit_id: str) -> str:
        """Expand ``commit_id`` (full or abbreviated, >= 4 hex chars, or any
        revision expression git accepts) to the full 40-char hash.
        Abbreviations matching more than one object raise instead of guessing.
        """
        if not commit_id or commit_id.startswith("-"):
            raise UnknownCommitError(f"invalid commit id: {commit_id!r}")
        cached = self._resolve_cache.get(commit_id)
        if cached is not None:
            return cached
        out = self._git("rev-parse", "--verify", f"{commit_id}^{{commit}}")
        full = out.decode("ascii").strip()
        self._resolve_cache[commit_id] = full
        return full

    def commit_meta(self, commit_id: str) -> CommitMeta:
        full = self.resolve(commit_id)
        cached = self._meta_cache.get(full)
        if cached is not None:
            return cached
        out = self._git("show", "-s", "--format=%H%n%P%n%at%n%ct%n%B", full)
        text = out.decode("utf-8", "replace")
        head, parent_line, at, ct, body = text.split("\n", 4)
        meta = CommitMeta(
            id=head,
            parents=tuple(parent_line.split()) if parent_line.strip() else (),
            author_time=datetime.fromtimestamp(int(at), tz=timezone.utc),
            committer_time=datetime.fromtimestamp(int(ct), tz=timezone.utc),
            message=body,
        )
        self._meta_cache[full] = meta
        return meta

    def file_at(self, revision: str, path: str) -> str:
        full = self.resolve(revision)
        out = self._git("show", f"{full}:{path}")
        return out.decode("utf-8", "replace")

    def diff_against_parent(self, commit_id: str, parent_id: str) -> tuple[DiffHunk, ...]:
        """Zero-context textual diff ``parent -> commit`` with rename
        detection. Pure renames and mode-only changes produce no hunks."""
        full = self.resolve(commit_id)
        parent = self.resolve(parent_id)
        if parent not in self.commit_meta(full).parents:
            raise NotAParentError(f"{parent} is not a parent of {full}")
        key = (full, parent)
        cached = self._diff_cache.get(key)
        if cached is not None:
            return cached
        out = self._git(
            "diff", "-U0", "--no-ext-diff", "--no-textconv", "--no-color",
            f"--find-renames={RENAME_THRESHOLD}", parent, full,
        )
        hunks = parse_unified_diff(out.decode("utf-8", "replace"))
        self._diff_cache[key] = hunks
        return hunks

    def blame(
        self,
        revision: str,
        file: str,
        lines: "set[int] | list[int] | tuple[int, ...]",
        ignore_commits: "set[str] | frozenset[str]" = frozenset(),
    ) -> list[BlameRecord]:
        """Attribute each requested line of ``file`` at ``revision`` to the
        commit that last changed it. ``ignore_commits`` are treated as if
        they never happened; lines they would own are reattributed to the
        prior writer where one exists."""
        full = self.resolve(revision)
        # an empty --ignore-revs-file drops those the config names
        args = ["blame", "--porcelain", "--no-textconv", "--ignore-revs-file", ""]
        for ln in sorted(set(lines)):
            args += ["-L", f"{ln},{ln}"]
        for sha in sorted(ignore_commits):
            args += ["--ignore-rev", sha]
        args += [full, "--", file]
        out = self._git(*args)
        return parse_porcelain_blame(out.decode("utf-8", "replace"))


def parse_unified_diff(text: str) -> tuple[DiffHunk, ...]:
    """Parse ``git diff -U0`` output into hunks carrying 1-based pre/post
    line numbers. A hunk body is read by the line counts of its ``@@``
    header, so a removed ``-- x`` or an added ``++ x`` is content, never a
    file header. Lines flagged "No newline at end of file" are markers,
    not content."""
    hunks: list[DiffHunk] = []
    file_pre: str | None = None
    file_post: str | None = None
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("diff --git "):
            file_pre = file_post = None
        elif line.startswith("--- "):
            file_pre = _strip_prefix(line[4:], "a/")
        elif line.startswith("+++ "):
            file_post = _strip_prefix(line[4:], "b/")
        elif line.startswith("rename from "):
            file_pre = _unquote_path(line[len("rename from ") :])
        elif line.startswith("rename to "):
            file_post = _unquote_path(line[len("rename to ") :])
        elif m := _HUNK_RE.match(line):
            pre_no, post_no = int(m.group(1)), int(m.group(3))
            pre_left = int(m.group(2) or 1)
            post_left = int(m.group(4) or 1)
            removed: list[tuple[int, str]] = []
            added: list[tuple[int, str]] = []
            while (pre_left or post_left) and i < len(lines):
                body = lines[i]
                if body.startswith("-") and pre_left:
                    removed.append((pre_no, body[1:]))
                    pre_no += 1
                    pre_left -= 1
                elif body.startswith("+") and post_left:
                    added.append((post_no, body[1:]))
                    post_no += 1
                    post_left -= 1
                elif body.startswith(" ") and pre_left and post_left:
                    pre_no += 1
                    post_no += 1
                    pre_left -= 1
                    post_left -= 1
                elif not body.startswith("\\"):
                    break  # a short hunk: leave the line to the outer loop
                i += 1
            hunks.append(DiffHunk(file_pre, file_post, tuple(removed), tuple(added)))
    return tuple(hunks)


def parse_porcelain_blame(text: str) -> list[BlameRecord]:
    records: list[BlameRecord] = []
    filename_by_sha: dict[str, str] = {}
    sha = ""
    orig_line = final_line = 0
    entry_file: str | None = None
    for line in text.split("\n"):
        m = _BLAME_HEAD_RE.match(line)
        if m:
            sha = m.group(1)
            orig_line = int(m.group(2))
            final_line = int(m.group(3))
            entry_file = None
            continue
        if line.startswith("filename "):
            entry_file = _unquote_path(line[len("filename ") :])
            filename_by_sha[sha] = entry_file
            continue
        if line.startswith("\t"):
            fname = entry_file or filename_by_sha.get(sha, "")
            records.append(
                BlameRecord(
                    file=fname,
                    line_no=final_line,
                    origin=sha,
                    origin_line_no=orig_line,
                )
            )
    return records
