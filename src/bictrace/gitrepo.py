"""Read-only facade over on-disk git repositories.

Everything here drives the git CLI and parses its plumbing output. Each
``GitRepo`` keeps two batch processes, each started on first use:

- ``git cat-file --batch -z`` answers resolution (``<name>^{commit}``),
  commit metadata (parsed from the raw commit object) and file content
  (``<commit>:<path>``).
- ``git diff-tree --stdin -p -U0`` answers zero-context diffs of a commit
  against one parent. A line after each request that diff-tree echoes,
  and no diff line can equal, ends the answer. Submodule pointer changes
  are left out: the commits they name are not in the repository.

A batch process found dead or answering out of step is replaced and asked
once more; when the new one fails too, the request raises
``CorruptRepositoryError``. A path that names no blob raises
``PathMissingError``. Git runs one-shot only for the ``rev-parse`` probe
that opens a repository, ``blame --porcelain`` (line to origin commit),
and ``rev-parse --verify``, which resolves a name cat-file calls missing
or ambiguous (only it can raise ``AmbiguousCommitError``).

One watchdog thread per Python process kills any git process, one-shot or
batch, that runs a request past ``GIT_TIMEOUT_S``; the call then raises
``GitTimeoutError``. Rename following is left to git itself (blame
follows renames by default; diffs are asked for rename detection at a
fixed 50% similarity threshold so results are reproducible).

Git sees only the clone: it runs with the caller's environment less
every ``GIT_*`` variable (one such as ``GIT_DIR`` would name another
repository), without user or system config and attributes, and in the C
locale, so that its error messages read as ``_raise_for`` expects. Every
call pins the repository config settings that change diff or blame
output, and turns off external diff drivers, textconv filters and
ignore-revs files. The clone's own attributes (``info/attributes``, a
``.gitattributes`` in its work tree) still apply: one that marks a file
``-diff`` or ``binary`` leaves its changes without lines.
Commit parents are those ``git show`` prints: a graft's (``info/grafts``),
and none for a shallow clone's boundary commits, though the commit
objects list their own. One setting cannot be undone: git opens
every ``blame.ignoreRevsFile`` the config names before
``--ignore-revs-file ""`` resets the list, so one naming a missing file
fails every blame with a ``ConfigurationError``.

Snapshots never mutate the repository and are safe to share across
threads: requests to one batch process are serialised. ``close()`` (or
leaving a ``with`` block) stops the batch processes; a forgotten
``GitRepo`` stops them when it is collected.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import subprocess
import threading
import time
import weakref
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, TypeVar

from .errors import (
    AmbiguousCommitError,
    ConfigurationError,
    CorruptRepositoryError,
    GitTimeoutError,
    LineOutOfRangeError,
    NotAParentError,
    NotARepositoryError,
    PathMissingError,
    UnknownCommitError,
)

RENAME_THRESHOLD = "50%"

# seconds a git process may spend on one request before its entry is given up
GIT_TIMEOUT_S = 600

# repository config that would change what git prints
PINNED_CONFIG = (
    "core.quotePath=false",
    "diff.noprefix=false",
    "diff.mnemonicPrefix=false",
    "diff.algorithm=myers",
    "diff.indentHeuristic=true",
    "color.ui=never",
    "core.attributesFile=/dev/null",
)

_DIFF_ARGS = (
    "-U0", "--no-ext-diff", "--no-textconv", "--no-color", f"--find-renames={RENAME_THRESHOLD}",
    "--ignore-submodules",
)
# diff-tree echoes a line that names no object; no line of -p output starts
# with "~": headers start with a word or a hash, hunk lines with "@", "+",
# "-", " " or "\\"
_DIFF_END = b"~ end of diff\n"

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_BLAME_HEAD_RE = re.compile(r"^([0-9a-f]{40}) \d+ (\d+)(?: \d+)?$", re.M)
_BATCH_HEAD_RE = re.compile(rb"([0-9a-f]+) ([a-z]+) (\d+)\n")
# the escapes git's C-quoting uses besides octal ones
_C_ESCAPES = {
    "a": "\a", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t", "v": "\v",
    "\\": "\\", '"': '"',
}

_T = TypeVar("_T")


@dataclass(frozen=True)
class CommitMeta:
    id: str
    parents: tuple[str, ...]
    committer_time: datetime


@dataclass(frozen=True)
class DiffHunk:
    """One contiguous change. ``file_pre`` is None for added files,
    ``file_post`` is None for deleted files; both present and different
    means the file was renamed."""

    file_pre: str | None
    file_post: str | None
    removed: tuple[tuple[int, str], ...]
    added: tuple[tuple[int, str], ...]


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
            if nxt in _C_ESCAPES:
                out.append(_C_ESCAPES[nxt])
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


def _named(argv: list[str]) -> str:
    """``git <subcommand> in <path>`` for an argv of ``GitRepo._argv``."""
    return f"git {argv[3 + 2 * len(PINNED_CONFIG)]} in {argv[2]}"  # after git -C <path> -c ...


@dataclass(eq=False)
class _Deadline:
    proc: subprocess.Popen
    at: float
    killed: bool = False


class _Watchdog:
    """Kills each watched git process still running a request
    ``GIT_TIMEOUT_S`` after it began. One daemon thread watches them all;
    the first deadline starts it and it never stops."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._armed: set[_Deadline] = set()
        self._thread: threading.Thread | None = None
        self._wake_at = math.inf

    @contextlib.contextmanager
    def deadline(self, proc: subprocess.Popen, argv: list[str]):
        """Watch ``proc`` while the block runs; kill it when the block
        raises, and raise ``GitTimeoutError`` after the block when it ran
        past its deadline."""
        deadline = _Deadline(proc, time.monotonic() + GIT_TIMEOUT_S)
        with self._cond:
            self._armed.add(deadline)
            if self._thread is None:
                self._thread = threading.Thread(target=self._watch, daemon=True)
                self._thread.start()
            elif deadline.at < self._wake_at:
                self._cond.notify()
        try:
            yield
        except BaseException:
            proc.kill()
            raise
        finally:
            with self._cond:
                self._armed.discard(deadline)
        if deadline.killed or time.monotonic() >= deadline.at:
            raise GitTimeoutError(f"{_named(argv)} ran longer than {GIT_TIMEOUT_S} s")

    def _watch(self) -> None:
        with self._cond:
            while True:
                now = time.monotonic()
                for deadline in [d for d in self._armed if d.at <= now]:
                    self._armed.discard(deadline)
                    deadline.killed = True
                    deadline.proc.kill()
                self._wake_at = min((d.at for d in self._armed), default=math.inf)
                self._cond.wait(self._wake_at - now if self._armed else None)


_WATCHDOG = _Watchdog()
os.register_at_fork(after_in_child=_WATCHDOG.__init__)  # a forked child has no watchdog thread


class _OutOfStep(Exception):
    """A batch process's answer is cut short or is not the one asked for."""


class _Batch:
    """One long-lived git process that answers requests written to its
    stdin, started by the first request after construction, ``close()``,
    its death or an answer out of step."""

    def __init__(self, argv: list[str], env: dict[str, str]):
        self._argv = argv
        self._env = env
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def request(self, payload: bytes, read: Callable[[IO[bytes]], _T], what: str) -> _T:
        """What ``read`` makes of the answer to ``payload``. A process found
        dead, or whose answer ``read`` finds out of step, is replaced and
        asked once more; when the new one fails too, the request, described
        by ``what``, raises ``CorruptRepositoryError``. An answer later than
        ``GIT_TIMEOUT_S`` stops the process and raises ``GitTimeoutError``."""
        with self._lock:
            for _ in range(2):
                if self._proc is None:
                    self._proc = subprocess.Popen(
                        self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, env=self._env,
                    )
                proc = self._proc
                try:
                    with _WATCHDOG.deadline(proc, self._argv):
                        with contextlib.suppress(OSError, _OutOfStep):
                            proc.stdin.write(payload)
                            proc.stdin.flush()
                            return read(proc.stdout)
                except BaseException:
                    self._stop()  # the next answer would be this one's rest
                    raise
                self._stop()
        raise CorruptRepositoryError(f"{_named(self._argv)} could not {what}")

    def close(self) -> None:
        with self._lock:
            self._stop()

    def _stop(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()


def _read_object(stdout: IO[bytes], name: bytes) -> tuple[str, str, bytes] | None:
    """cat-file's ``(object id, type, content)`` for ``name``, or None when
    it says the name is missing or ambiguous."""
    header = stdout.readline()
    # a missing or ambiguous answer echoes the name, one more line per
    # newline in it; an object header never equals the name's first line
    if b"\n" in name and header == name[: name.index(b"\n") + 1]:
        for _ in range(name.count(b"\n")):
            header += stdout.readline()
    if header in (name + b" missing\n", name + b" ambiguous\n"):
        return None
    m = _BATCH_HEAD_RE.fullmatch(header)
    if not m:
        raise _OutOfStep  # died (a corrupt object is fatal to cat-file)
    size = int(m[3])
    body = stdout.read(size + 1)
    if len(body) != size + 1:
        raise _OutOfStep
    return m[1].decode("ascii"), m[2].decode("ascii"), body[:size]


def _read_diff(stdout: IO[bytes], head: bytes) -> bytes:
    """diff-tree's answer up to ``_DIFF_END`` without its ``head`` line: what
    one-shot ``git diff`` prints. An empty diff has no head line."""
    lines = []
    while (line := stdout.readline()) != _DIFF_END:
        if not line:
            raise _OutOfStep
        lines.append(line)
    if lines and lines[0] != head:
        raise _OutOfStep
    return b"".join(lines[1:])


def _close_all(batches: tuple[_Batch, ...]) -> None:
    for batch in batches:
        batch.close()


class GitRepo:
    """Snapshot handle for one local clone."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
        self._env.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL="/dev/null",
                         GIT_ATTR_NOSYSTEM="1", LC_ALL="C")
        self._cat_file = _Batch(self._argv("cat-file", "--batch", "-z"), self._env)
        self._diff_tree = _Batch(
            self._argv("diff-tree", "--stdin", "-r", "-p", *_DIFF_ARGS), self._env
        )
        self._batches = (self._cat_file, self._diff_tree)
        weakref.finalize(self, _close_all, self._batches)
        probe = self._run(
            "rev-parse", "--git-dir", "--git-path", "info/grafts", "--git-path", "shallow"
        )
        if probe.returncode != 0:
            raise NotARepositoryError(
                f"{self.path}: {probe.stderr.decode('utf-8', 'replace').strip()}"
            )
        _, grafts, shallow = os.fsdecode(probe.stdout).split("\n")[:3]
        # show prints the parents a graft gives, and none for the boundary
        # commits of a shallow clone; commit objects list their own
        self._grafts = {
            fields[0]: tuple(fields[1:])
            for fields in map(str.split, self._text(grafts).splitlines())
            if fields and not fields[0].startswith("#")
        }
        self._grafts.update(dict.fromkeys(self._text(shallow).split(), ()))
        self._resolve_cache: dict[str, str] = {}
        self._meta_cache: dict[str, CommitMeta] = {}
        self._diff_cache: dict[tuple[str, str], tuple[DiffHunk, ...]] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"GitRepo({self.path!r})"

    def __enter__(self) -> GitRepo:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop the batch processes; a later query starts them anew."""
        _close_all(self._batches)

    # -- plumbing ---------------------------------------------------------

    def _text(self, git_path: str) -> str:
        """The file a ``rev-parse --git-path`` answer names, or "" if none."""
        file = Path(self.path, git_path)
        return file.read_text() if file.is_file() else ""

    def _argv(self, *args: str) -> list[str]:
        argv = ["git", "-C", self.path]
        for setting in PINNED_CONFIG:
            argv += ["-c", setting]
        return [*argv, *args]

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        argv = self._argv(*args)
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self._env
        ) as proc, _WATCHDOG.deadline(proc, argv):
            out, err = proc.communicate()
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

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
        if "no such path" in low:
            raise PathMissingError(msg)
        if "could not open object name list" in low:
            raise ConfigurationError(f"blame.ignoreRevsFile names a missing file: {msg}")
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

    def _object(self, name: str) -> tuple[str, str, bytes] | None:
        """cat-file's ``(object id, type, content)`` for ``name``, or None
        when it is missing or ambiguous."""
        raw = os.fsencode(name)
        return self._cat_file.request(
            raw + b"\0", lambda stdout: _read_object(stdout, raw), f"read {name!r}"
        )

    def _commit_from(self, answer: tuple[str, str, bytes]) -> CommitMeta:
        """The metadata of a batch answer holding a commit, cached."""
        oid, _, raw = answer
        header = raw.split(b"\n\n", 1)[0].split(b"\n")
        try:
            [committer] = [line for line in header if line.startswith(b"committer ")]
            ctime = int(committer.rsplit(b">", 1)[1].split()[0])
            when = datetime.fromtimestamp(ctime, timezone.utc)
        except (ValueError, IndexError, OverflowError):
            raise CorruptRepositoryError(f"commit {oid} has no readable committer line") from None
        parents = self._grafts.get(oid)
        if parents is None:
            parents = tuple(
                line[len(b"parent "):].decode("ascii")
                for line in header
                if line.startswith(b"parent ")
            )
        return self._remember(CommitMeta(oid, parents, when))

    def _remember(self, meta: CommitMeta) -> CommitMeta:
        self._meta_cache[meta.id] = meta
        # hashes git printed name commits: resolving them needs no request
        for sha in (meta.id, *meta.parents):
            self._resolve_cache[sha] = sha
        return meta

    # -- queries ----------------------------------------------------------

    def resolve(self, commit_id: str) -> str:
        """Expand ``commit_id`` (full or abbreviated, >= 4 hex chars, or any
        revision expression git accepts) to the full 40-char hash.
        Abbreviations matching more than one object raise instead of guessing.
        """
        if not commit_id or commit_id.startswith("-") or "\0" in commit_id:
            raise UnknownCommitError(f"invalid commit id: {commit_id!r}")
        cached = self._resolve_cache.get(commit_id)
        if cached is not None:
            return cached
        answer = self._object(f"{commit_id}^{{commit}}")
        if answer is not None:
            full = self._commit_from(answer).id
        else:
            out = self._git("rev-parse", "--verify", f"{commit_id}^{{commit}}")
            full = out.decode("ascii").strip()
        self._resolve_cache[commit_id] = full
        return full

    def commit_meta(self, commit_id: str) -> CommitMeta:
        full = self.resolve(commit_id)
        meta = self._meta_cache.get(full)
        if meta is None:
            answer = self._object(full)
            if answer is None:
                raise CorruptRepositoryError(f"git cat-file in {self.path} could not read {full}")
            meta = self._commit_from(answer)
        return meta

    def file_at(self, revision: str, path: str) -> str:
        full = self.resolve(revision)
        if "\0" in path:
            raise PathMissingError(f"invalid path: {path!r}")
        answer = self._object(f"{full}:{path}")
        if answer is None or answer[1] != "blob":
            raise PathMissingError(f"{path!r} names no file in {full}")
        return answer[2].decode("utf-8", "replace")

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
        head = f"{full}\n".encode("ascii")
        out = self._diff_tree.request(
            f"{full} {parent}\n".encode("ascii") + _DIFF_END,
            lambda stdout: _read_diff(stdout, head),
            f"diff {full} against {parent}",
        )
        hunks = parse_unified_diff(out.decode("utf-8", "surrogateescape"))
        self._diff_cache[key] = hunks
        return hunks

    def blame(
        self,
        revision: str,
        file: str,
        lines: "set[int] | list[int] | tuple[int, ...]",
        ignore_commits: "set[str] | frozenset[str]" = frozenset(),
    ) -> dict[int, str]:
        """Map each requested line of ``file`` at ``revision`` to the commit
        that last changed it. ``ignore_commits`` are treated as if they
        never happened; lines they would own are reattributed to the prior
        writer where one exists."""
        full = self.resolve(revision)
        # an empty --ignore-revs-file drops those the config names
        args = ["blame", "--porcelain", "--no-textconv", "--ignore-revs-file", ""]
        # one -L per run of consecutive lines keeps a huge fix within
        # the argument limit; git merges adjacent ranges itself
        runs: list[list[int]] = []
        for ln in sorted(set(lines)):
            if runs and runs[-1][1] == ln - 1:
                runs[-1][1] = ln
            else:
                runs.append([ln, ln])
        for start, end in runs:
            args += ["-L", f"{start},{end}"]
        for sha in sorted(ignore_commits):
            args += ["--ignore-rev", sha]
        args += [full, "--", file]
        origins = parse_porcelain_blame(self._git(*args).decode("utf-8", "replace"))
        for sha in origins.values():
            self._resolve_cache[sha] = sha
        return origins


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


def parse_porcelain_blame(text: str) -> dict[int, str]:
    """Final line number -> origin hash from ``git blame --porcelain``.
    Every blamed line has a header line ``<hash> <origin line> <final
    line>[ <group size>]``, and only header lines start with a hash: the
    other header lines start with a key word, content lines with a tab."""
    return {int(m[2]): m[1] for m in _BLAME_HEAD_RE.finditer(text)}
