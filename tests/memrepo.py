"""A synthetic repository model with analytically known blame.

The model keeps one file with a fixed number of lines; every commit
rewrites some subset of them (never inserting or deleting), so the origin
of each line at any revision is simply its most recent writer along the
first-parent chain. That makes expected detector output computable
independently of the real tracing machinery, which is exactly what the
randomized invariant checks need. A replay helper materializes the same
history as an on-disk git repository so the model itself can be validated
against the real backend.

Implements the same read interface as the git facade: resolve,
commit_meta, diff_against_parent, blame, file_at.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from bictrace.errors import (
    AmbiguousCommitError,
    LineOutOfRangeError,
    NotAParentError,
    PathMissingError,
    UnknownCommitError,
)
from bictrace.gitrepo import CommitMeta, DiffHunk
from desk import GitScripter

MODEL_FILE = "model.c"
_EPOCH = datetime(2021, 6, 1, tzinfo=timezone.utc)


@dataclass
class MemCommit:
    cid: str
    parents: tuple[str, ...]
    time: datetime
    message: str
    writes: dict[int, str] = field(default_factory=dict)  # 1-based line -> text
    kind: str = "content"  # content | cosmetic | evil-merge | empty-merge | root | side


def _mem_id(n: int, salt: str) -> str:
    return hashlib.sha1(f"mem:{n}:{salt}".encode()).hexdigest()


class InMemoryRepo:
    def __init__(self, commits: list[MemCommit], file: str = MODEL_FILE):
        self.file = file
        self._commits = {c.cid: c for c in commits}
        self._order = [c.cid for c in commits]
        if len(self._commits) != len(commits):
            raise ValueError("duplicate synthetic commit ids")

    @property
    def head(self) -> str:
        return self._order[-1]

    def commits(self) -> list[MemCommit]:
        return [self._commits[c] for c in self._order]

    # -- repo protocol ------------------------------------------------------

    def resolve(self, commit_id: str) -> str:
        if commit_id in self._commits:
            return commit_id
        if len(commit_id) >= 4:
            hits = [c for c in self._commits if c.startswith(commit_id)]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                raise AmbiguousCommitError(f"short id {commit_id} is ambiguous")
        raise UnknownCommitError(f"unknown commit {commit_id!r}")

    def commit_meta(self, commit_id: str) -> CommitMeta:
        c = self._commits[self.resolve(commit_id)]
        return CommitMeta(id=c.cid, parents=c.parents, committer_time=c.time)

    def _chain(self, commit_id: str) -> list[MemCommit]:
        """First-parent chain from the commit back to its root."""
        out = []
        cur: str | None = self.resolve(commit_id)
        while cur is not None:
            c = self._commits[cur]
            out.append(c)
            cur = c.parents[0] if c.parents else None
        return out

    def _content(self, commit_id: str) -> dict[int, str]:
        lines: dict[int, str] = {}
        for c in reversed(self._chain(commit_id)):
            lines.update(c.writes)
        return lines

    def file_at(self, revision: str, path: str) -> str:
        if path != self.file:
            raise PathMissingError(f"no such path {path}")
        lines = self._content(revision)
        return "".join(lines[i] + "\n" for i in sorted(lines))

    def diff_against_parent(self, commit_id: str, parent_id: str) -> tuple[DiffHunk, ...]:
        full = self.resolve(commit_id)
        parent = self.resolve(parent_id)
        c = self._commits[full]
        if parent not in c.parents:
            raise NotAParentError(f"{parent} is not a parent of {full}")
        if parent != c.parents[0]:
            raise NotImplementedError("model diffs only against the first parent")
        before = self._content(parent)
        hunks = []
        for line_no in sorted(c.writes):
            old = before.get(line_no)
            new = c.writes[line_no]
            if old == new:
                continue
            hunks.append(
                DiffHunk(
                    file_pre=self.file,
                    file_post=self.file,
                    removed=((line_no, old),) if old is not None else (),
                    added=((line_no, new),),
                )
            )
        return tuple(hunks)

    def blame(
        self,
        revision: str,
        file: str,
        lines,
        ignore_commits=frozenset(),
    ) -> dict[int, str]:
        if file != self.file:
            raise PathMissingError(f"no such path {file}")
        chain = self._chain(revision)
        content = self._content(revision)
        origins = {}
        for ln in sorted(set(lines)):
            if ln not in content:
                raise LineOutOfRangeError(f"{file} has only {len(content)} lines")
            origin = None
            for c in chain:  # newest first
                if ln in c.writes and c.cid not in ignore_commits:
                    origin = c.cid
                    break
            if origin is None:
                # everything that ever wrote the line is ignored; fall back
                # to the oldest writer, like blame pinning an ignored rev
                for c in reversed(chain):
                    if ln in c.writes:
                        origin = c.cid
                        break
            origins[ln] = origin
        return origins


# -- deterministic random histories ------------------------------------------


def _render(line_no: int, value: int, pad: int) -> str:
    # value changes are content edits, pad changes are purely cosmetic
    return f"{'  ' * pad}slot{line_no} ={' ' * pad} {value};"


@dataclass
class PlantedHistory:
    repo: InMemoryRepo
    fix: str
    # per variant family, the analytically expected candidate sets
    expected_b: set[str]
    expected_ag: set[str]
    expected_ma: set[str]
    expected_l: set[str]
    expected_r: set[str]


def random_history(seed: int, depth_limit: int = 10) -> PlantedHistory:
    """Generate a small random history with known ground truth.

    Commits are content edits, cosmetic re-pads, evil merges (merges that
    rewrite lines), or empty merges; the final commit is the fix. Expected
    candidate sets per variant family follow from the last-writer model:
    plain blame stops at any writer, cosmetic skipping walks past cosmetic
    writers (up to the depth limit), meta filtering then drops merges."""
    rng = random.Random(seed)
    n_lines = rng.randint(4, 10)
    n_commits = rng.randint(2, 12)

    values = {ln: 0 for ln in range(1, n_lines + 1)}
    pads = {ln: 0 for ln in range(1, n_lines + 1)}

    commits: list[MemCommit] = []
    salt = f"seed{seed}"

    def new_commit(parents, writes, kind, idx) -> MemCommit:
        cid = _mem_id(idx, salt)
        c = MemCommit(
            cid=cid,
            parents=parents,
            time=_EPOCH + timedelta(seconds=60 * idx),
            message=f"{kind} {idx}",
            writes=writes,
            kind=kind,
        )
        commits.append(c)
        return c

    root_writes = {ln: _render(ln, 0, 0) for ln in range(1, n_lines + 1)}
    root = new_commit((), root_writes, "root", 0)
    side = new_commit((), {}, "side", 1)
    head = root.cid

    idx = 2
    for _ in range(n_commits):
        kind = rng.choices(
            ["content", "cosmetic", "evil-merge", "empty-merge"],
            weights=[5, 3, 2, 1],
        )[0]
        k = rng.randint(1, min(3, n_lines))
        touched = rng.sample(range(1, n_lines + 1), k)
        writes: dict[int, str] = {}
        if kind == "content":
            for ln in touched:
                values[ln] += 1
                writes[ln] = _render(ln, values[ln], pads[ln])
            head = new_commit((head,), writes, kind, idx).cid
        elif kind == "cosmetic":
            for ln in touched:
                pads[ln] = (pads[ln] + 1) % 4 or 1  # always actually changes
                writes[ln] = _render(ln, values[ln], pads[ln])
            head = new_commit((head,), writes, kind, idx).cid
        elif kind == "evil-merge":
            for ln in touched[:2]:
                values[ln] += 1
                writes[ln] = _render(ln, values[ln], pads[ln])
            head = new_commit((head, side.cid), writes, kind, idx).cid
        else:
            head = new_commit((head, side.cid), {}, kind, idx).cid
        idx += 1

    fix_lines = rng.sample(range(1, n_lines + 1), rng.randint(1, min(3, n_lines)))
    fix_writes = {}
    for ln in fix_lines:
        values[ln] += 100
        fix_writes[ln] = _render(ln, values[ln], pads[ln])
    fix = new_commit((head,), fix_writes, "fix", idx)

    repo = InMemoryRepo(commits)

    by_id = {c.cid: c for c in commits}
    parent_chain = repo._chain(head)

    def writers(ln: int) -> list[MemCommit]:
        return [c for c in parent_chain if ln in c.writes]

    expected_b: set[str] = set()
    expected_ag: set[str] = set()
    ag_support: dict[str, int] = {}
    for ln in fix_lines:
        ws = writers(ln)
        expected_b.add(ws[0].cid)
        origin = None
        skipped = 0
        for c in ws:
            if c.kind == "cosmetic" and skipped < depth_limit:
                skipped += 1
                continue
            origin = c
            break
        if origin is None:
            origin = ws[min(skipped, len(ws) - 1)]
        expected_ag.add(origin.cid)
        ag_support[origin.cid] = ag_support.get(origin.cid, 0) + 1

    def is_meta(cid: str) -> bool:
        c = by_id[cid]
        if len(c.parents) >= 2:
            return True
        if not c.parents:
            return False
        before = repo._content(c.parents[0])
        return all(before.get(ln) == text for ln, text in c.writes.items())

    expected_ma = {cid for cid in expected_ag if not is_meta(cid)}

    def pick(key) -> set[str]:
        if not expected_ma:
            return set()
        return {sorted(expected_ma, key=key)[0]}

    expected_l = pick(
        lambda cid: (-ag_support[cid], -by_id[cid].time.timestamp(), cid)
    )
    expected_r = pick(lambda cid: (-by_id[cid].time.timestamp(), cid))

    return PlantedHistory(
        repo=repo,
        fix=fix.cid,
        expected_b=expected_b,
        expected_ag=expected_ag,
        expected_ma=expected_ma,
        expected_l=expected_l,
        expected_r=expected_r,
    )


# -- git replay ----------------------------------------------------------------


def replay_to_git(repo: InMemoryRepo, dest: str | Path) -> dict[str, str]:
    """Materialize a model history as a real git repository.

    Returns a map from synthetic commit ids to the created git hashes.
    Merge parents and commit times are preserved."""
    scripter = GitScripter(dest)
    mapping: dict[str, str] = {}
    content: dict[str, dict[int, str]] = {}
    for c in repo.commits():
        lines = dict(content[c.parents[0]]) if c.parents else {}
        lines.update(c.writes)
        content[c.cid] = lines
        scripter.write(repo.file, "".join(lines[i] + "\n" for i in sorted(lines)))
        parents = [mapping[p] for p in c.parents]
        mapping[c.cid] = scripter.commit(c.message, parents, when=c.time)
    scripter.finish()
    return mapping
