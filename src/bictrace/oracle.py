"""Loading, validation, and slicing of ground-truth bug-fix datasets.

An oracle entry links one bug-fixing commit to the set of commits its own
author named as having introduced the bug, optionally with the issues the
fix closes and the languages it touches. Datasets are stored as a single
JSON document with an explicit schema version so files stay diffable and
portable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

from .errors import SchemaError
from .langfilters import SUPPORTED_LANGUAGES, canonical_language

SCHEMA_VERSION = 1

_HASH_RE = re.compile(r"[0-9a-f]{6,40}")


@dataclass(frozen=True)
class IssueRef:
    url: str
    opened_at: datetime


@dataclass(frozen=True)
class OracleEntry:
    repo: str
    fix_commit: str
    true_bics: tuple[str, ...]
    issues: tuple[IssueRef, ...] = ()
    languages: tuple[str, ...] = ()
    clone_path: str | None = None

    @property
    def issue_dates(self) -> list[datetime]:
        return [i.opened_at for i in self.issues]


@dataclass
class OracleDataset:
    entries: list[OracleEntry]
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.entries)

    def counts_by_language(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            for lang in e.languages:
                counts[lang] = counts.get(lang, 0) + 1
        return dict(sorted(counts.items()))


def parse_utc(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; a trailing Z means UTC. Naive values
    are rejected so two tools never disagree about an instant."""
    if not isinstance(value, str):
        raise SchemaError(f"timestamp {value!r} is not a string")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"unparseable timestamp {value!r}: {exc}") from None
    if dt.tzinfo is None:
        raise SchemaError(f"timestamp {value!r} lacks a timezone offset")
    return dt.astimezone(timezone.utc)


def _issue(url, opened_at, where: str) -> IssueRef:
    """An issue reference from its url string and timestamp; the error
    names ``where``."""
    if not isinstance(url, str):
        raise SchemaError(f"{where}: issue url {url!r} is not a string")
    try:
        return IssueRef(url, parse_utc(opened_at))
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _check_hash(value: str, where: str) -> str:
    if not isinstance(value, str) or not _HASH_RE.fullmatch(value):
        raise SchemaError(f"{where}: {value!r} is not a 6-40 char lowercase hex hash")
    return value


def _strings(value, where: str) -> list[str]:
    """A string, or a list of strings, as a list."""
    values = [value] if isinstance(value, str) else value
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise SchemaError(f"{where}: expected a string or a list of strings, got {value!r}")
    return values


def validate_entry(entry: OracleEntry, index: int) -> None:
    where = f"entry {index} ({entry.repo} {entry.fix_commit})"
    _check_hash(entry.fix_commit, where)
    if not entry.true_bics:
        raise SchemaError(f"{where}: true_bics must be nonempty")
    for b in entry.true_bics:
        _check_hash(b, where)
    bics = sorted(set(entry.true_bics))  # a hash starting another starts its successor
    for short, full in zip(bics, bics[1:]):
        if full.startswith(short):
            raise SchemaError(f"{where}: true_bics {short} and {full} name one commit")
    if any(b.startswith(entry.fix_commit) or entry.fix_commit.startswith(b) for b in bics):
        raise SchemaError(f"{where}: the fix commit cannot be its own inducing commit")
    if not isinstance(entry.repo, str) or not entry.repo:
        raise SchemaError(f"entry {index}: repo identifier is empty or not a string")
    if not isinstance(entry.clone_path, (str, type(None))):
        raise SchemaError(f"{where}: clone_path is not a string")
    if "\0" in entry.repo + (entry.clone_path or ""):
        raise SchemaError(f"entry {index}: repo or clone_path holds a NUL byte")


def validate_dataset(dataset: OracleDataset) -> None:
    fixes: dict[str, list[tuple[str, int]]] = {}  # repo -> (fix, entry index)
    for i, entry in enumerate(dataset.entries):
        validate_entry(entry, i)
        fixes.setdefault(entry.repo, []).append((entry.fix_commit, i))
    for repo, named in fixes.items():
        named.sort()  # as with true_bics, a fix starting another starts its successor
        for (short, i), (full, j) in zip(named, named[1:]):
            if full.startswith(short):
                raise SchemaError(f"entry {max(i, j)}: duplicate fix commit {short} in {repo}")


def entry_from_dict(obj: dict, index: int) -> OracleEntry:
    if not isinstance(obj, dict):
        raise SchemaError(f"entry {index}: expected an object")
    try:
        issues = tuple(
            _issue(i.get("url", ""), i["opened_at"], f"entry {index}")
            for i in obj.get("issues", [])
        )
    except (KeyError, TypeError, AttributeError):
        raise SchemaError(f"entry {index}: issues must be objects with an opened_at") from None
    return OracleEntry(
        repo=obj.get("repo", ""),
        fix_commit=obj.get("fix_commit", ""),
        true_bics=tuple(_strings(obj.get("true_bics", []), f"entry {index}")),
        issues=issues,
        languages=tuple(
            canonical_language(l) for l in _strings(obj.get("languages", []), f"entry {index}")
        ),
        clone_path=obj.get("clone_path"),
    )


def load_oracle(path: str | Path) -> OracleDataset:
    """Read a dataset document, or a non-empty list of replication-style
    flat records (see ``from_legacy_records``)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not valid UTF-8: {exc}") from None
    try:
        return from_legacy_records(doc) if isinstance(doc, list) and doc else _from_document(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _from_document(doc) -> OracleDataset:
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise SchemaError(
            "expected an object with an 'entries' list or a non-empty list of records"
        )
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version}")
    entries = [entry_from_dict(e, i) for i, e in enumerate(doc["entries"])]
    dataset = OracleDataset(entries=entries, provenance=doc.get("provenance", ""))
    validate_dataset(dataset)
    stated = doc.get("counts", {})
    if not isinstance(stated, dict):
        raise SchemaError(f"counts is not an object: {stated!r}")
    actual = {"entries": len(entries), **dataset.counts_by_language()}
    for key, value in stated.items():
        if key in actual and actual[key] != value:
            raise SchemaError(f"stated count {key}={value} but dataset has {actual[key]}")
    return dataset


def entry_to_dict(entry: OracleEntry) -> dict:
    obj: dict = {
        "repo": entry.repo,
        "fix_commit": entry.fix_commit,
        "true_bics": sorted(entry.true_bics),
    }
    if entry.issues:
        obj["issues"] = [
            {"url": i.url, "opened_at": i.opened_at.astimezone(timezone.utc).isoformat()}
            for i in entry.issues
        ]
    if entry.languages:
        obj["languages"] = sorted(entry.languages)
    if entry.clone_path:
        obj["clone_path"] = entry.clone_path
    return obj


def save_oracle(dataset: OracleDataset, path: str | Path) -> None:
    validate_dataset(dataset)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "provenance": dataset.provenance,
        "counts": {"entries": len(dataset.entries), **dataset.counts_by_language()},
        "entries": [
            entry_to_dict(e)
            for e in sorted(dataset.entries, key=lambda e: (e.repo, e.fix_commit))
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def subset_issues(dataset: OracleDataset) -> OracleDataset:
    """Entries that reference at least one issue."""
    return OracleDataset(
        entries=[e for e in dataset.entries if e.issues],
        provenance=dataset.provenance,
    )


def subset_language(dataset: OracleDataset, language: str) -> OracleDataset:
    """Entries whose fix touches the given language."""
    lang = canonical_language(language)
    return OracleDataset(
        entries=[e for e in dataset.entries if lang in e.languages],
        provenance=dataset.provenance,
    )


def subset_supported(dataset: OracleDataset) -> OracleDataset:
    """Entries touching only the eight supported languages (and at least
    one of them)."""
    supported = set(SUPPORTED_LANGUAGES)
    return OracleDataset(
        entries=[
            e
            for e in dataset.entries
            if e.languages and all(l in supported for l in e.languages)
        ],
        provenance=dataset.provenance,
    )


def from_legacy_records(records: list[dict]) -> OracleDataset:
    """Adapt replication-style flat records into a dataset.

    Recognized field spellings: ``repo_name``/``repo``,
    ``fix_commit_hash``/``fix_commit``, ``inducing_commit_hash`` (one per
    record; records sharing a fix are merged), ``earliest_issue_date``,
    ``issue_url``, ``language``/``languages``.
    """
    merged: dict[tuple[str, str], dict] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise SchemaError(f"record {i}: expected an object")
        repo = rec.get("repo_name") or rec.get("repo")
        fix = rec.get("fix_commit_hash") or rec.get("fix_commit")
        if not all(isinstance(v, str) and v for v in (repo, fix)):
            raise SchemaError(f"record {i}: needs repo_name and fix_commit_hash strings")
        key = (repo, fix)
        slot = merged.setdefault(
            key, {"bics": [], "issues": [], "languages": [], "clone": rec.get("clone_path")}
        )
        where = f"record {i}"
        slot["bics"].extend(_strings(rec.get("inducing_commit_hash") or [], where))
        slot["bics"].extend(_strings(rec.get("true_bics", []), where))
        date = rec.get("earliest_issue_date")
        if date:
            slot["issues"].append(_issue(rec.get("issue_url", ""), date, where))
        slot["languages"].extend(_strings(rec.get("languages", rec.get("language", [])), where))

    entries = []
    for (repo, fix), slot in merged.items():
        entries.append(
            OracleEntry(
                repo=repo,
                fix_commit=fix,
                true_bics=tuple(dict.fromkeys(slot["bics"])),
                issues=tuple(dict.fromkeys(slot["issues"])),
                languages=tuple(
                    dict.fromkeys(canonical_language(l) for l in slot["languages"])
                ),
                clone_path=slot["clone"],
            )
        )
    dataset = OracleDataset(entries=entries, provenance="imported")
    validate_dataset(dataset)
    return dataset
