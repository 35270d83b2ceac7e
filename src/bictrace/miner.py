"""Mining commit messages for developer-documented bug-inducing commits.

A message survives a cheap word prefilter, then each of its sentences is
checked against three heuristics over a dependency tree:

  H1 rejects sentences with no commit hash, sentences that begin with a
     hash, and sentences where "revert" governs a hash.
  H2 accepts a hash governed by "introduce" when a fix word and a bug word
     appear among the hash token's ancestors or descendants, at least one
     of them as an ancestor, and no "attempt"/"test" governs the hash.
  H3 rejects a hash with an "introduce" ancestor; otherwise both a fix and
     a bug word must be ancestors of the hash, with no stop-word among the
     hash's ancestors nor around the fix word itself.

Dependency parses are consumed from a columnar file, never produced here.
When no parses exist, an explicitly lower-fidelity proximity mode matches
word stems in a six-token window before each hash.

Parsed sentences wait in an unlinked temporary file, and each record is
written to another as it is decided, so memory holds where things are, not
the things. Accepted records that forks push again collapse to the one
from the lexicographically first repository, flagged, as a push stream
names no main repository.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
import tempfile
import weakref
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_str

from .errors import SchemaError

FIX_WORDS = frozenset({"fix", "solve"})
BUG_WORDS = frozenset({"bug", "issue", "problem", "error", "misfeature"})
H3_STOPWORDS = frozenset(
    {"was", "been", "seem", "solved", "fixed", "try", "trie", "by", "attempt", "test"}
)
INTRODUCE_WORDS = frozenset({"introduce"})
H2_BLOCK_WORDS = frozenset({"attempt", "test"})
_H3_BLOCK_WORDS = H3_STOPWORDS | INTRODUCE_WORDS
REVERT_WORDS = frozenset({"revert"})

# stems for prefilter / proximity mode, where no lemmas are available
FIX_STEMS = ("fix", "solv")
BUG_STEMS = ("bug", "issue", "problem", "error", "misfeature")
EXCLUDE_STEMS = ("merg",)

# word-bounded lowercase hex runs of 6 to 40 characters
HASH_RE = re.compile(r"(?<![0-9a-zA-Z_])[0-9a-f]{6,40}(?![0-9a-zA-Z_])")
_HEX_RE = re.compile(r"[0-9a-f]{6,40}")
_WORD_RE = re.compile(r"[a-z0-9]+")
_SENTENCE_BREAK_RE = re.compile(r"(?<=[.!?])\s+|\n+")

PREFILTER = "prefilter"
PARSE_UNAVAILABLE = "parse-unavailable"
NO_HASH = "no-hash"
STARTS_WITH_HASH = "starts-with-hash"
REVERT = "revert"
HEURISTICS_FAILED = "h2h3-failed"

# later stages outrank earlier ones when summarizing why a message failed:
# a message reports its sentences' highest-ranked reason, the earlier on a tie
_REASON_RANK = (PREFILTER, PARSE_UNAVAILABLE, NO_HASH, STARTS_WITH_HASH, REVERT, HEURISTICS_FAILED)


@dataclass(frozen=True)
class Token:
    index: int
    form: str
    lemma: str
    head: int


class SentenceTree:
    """One sentence's dependency tree. Head index 0 is the artificial
    root; token indices are 1-based. A root given as its own head is
    stored with head 0."""

    def __init__(self, text: str, tokens: list[Token]):
        self.text = text
        self.tokens = [replace(t, head=0) if t.head == t.index else t for t in tokens]
        self._by_index = {t.index: t for t in self.tokens}
        self._children: dict[int, list[int]] | None = None
        self._validate()

    def _validate(self) -> None:
        if not self.tokens:
            raise SchemaError("empty sentence")
        if len(self._by_index) != len(self.tokens):
            raise SchemaError("repeated token index")
        roots = 0
        for t in self.tokens:
            if t.index < 1:
                raise SchemaError(f"token index {t.index} is not positive")
            if t.head == 0:
                roots += 1
            elif t.head not in self._by_index:
                raise SchemaError(f"token {t.index} has out-of-range head {t.head}")
        if roots != 1:
            raise SchemaError(f"expected exactly one root, found {roots}")
        # each token's head chain stops at the first index an earlier chain
        # reached, as that one is known to reach the root; meeting its own
        # chain again is a cycle
        walk = {0: -1}  # token index -> the chain that reached it first
        for n, t in enumerate(self.tokens):
            cur = t.index
            while cur not in walk:
                walk[cur] = n
                cur = self._by_index[cur].head
            if walk[cur] == n:
                raise SchemaError("dependency tree contains a cycle")

    def ancestors(self, index: int) -> list[Token]:
        """Head chain from the token's parent up to the root, excluding
        the token itself."""
        out = []
        cur = self._by_index[index].head
        while cur != 0:
            t = self._by_index[cur]
            out.append(t)
            cur = t.head
        return out

    def descendants(self, index: int) -> list[Token]:
        """Every token in the subtree below the token (its dependents,
        transitively)."""
        children = self._children
        if children is None:
            children = self._children = {}
            for t in self.tokens:
                children.setdefault(t.head, []).append(t.index)
        out: list[Token] = []
        stack = list(children.get(index, ()))
        while stack:
            i = stack.pop()
            out.append(self._by_index[i])
            stack.extend(children.get(i, ()))
        out.sort(key=lambda t: t.index)
        return out

    def hash_token_indices(self) -> list[tuple[int, str]]:
        out = []
        for t in self.tokens:
            m = HASH_RE.search(t.form)
            if m:
                out.append((t.index, m.group(0)))
        return out


def _matches(token: Token, words: frozenset[str]) -> bool:
    return token.form.lower() in words or token.lemma.lower() in words


def word_prefilter(message: str) -> bool:
    """Cheap gate: a fix-related and a bug-related word must both occur,
    and nothing merge-related may."""
    tokens = _WORD_RE.findall(message.lower())
    has_fix = has_bug = False
    for tok in tokens:
        if tok.startswith(EXCLUDE_STEMS):
            return False
        has_fix = has_fix or tok.startswith(FIX_STEMS)
        has_bug = has_bug or tok.startswith(BUG_STEMS)
    return has_fix and has_bug


def _starts_with_hash(text: str) -> bool:
    first = text.split(None, 1)
    if not first:
        return False
    token = first[0].strip("\"'`([{<.,:;!?)]}>")
    return bool(_HEX_RE.fullmatch(token))


def h1_filter(tree: SentenceTree) -> tuple[bool, str | None]:
    """Sentence-level gate. Returns (passed, rejection reason)."""
    hashes = tree.hash_token_indices()
    if not hashes:
        return False, NO_HASH
    if _starts_with_hash(tree.text):
        return False, STARTS_WITH_HASH
    for idx, _ in hashes:
        if any(_matches(t, REVERT_WORDS) for t in tree.ancestors(idx)):
            return False, REVERT
    return True, None


def h2_filter(tree: SentenceTree, idx: int) -> bool:
    """Hash introduced-by pattern: an "introduce" ancestor, fix and bug
    words among ancestors plus descendants with at least one being an
    ancestor, and no "attempt"/"test" ancestor."""
    anc = tree.ancestors(idx)
    if not any(_matches(t, INTRODUCE_WORDS) for t in anc):
        return False
    if any(_matches(t, H2_BLOCK_WORDS) for t in anc):
        return False
    pool = anc + tree.descendants(idx)
    fix_any = any(_matches(t, FIX_WORDS) for t in pool)
    bug_any = any(_matches(t, BUG_WORDS) for t in pool)
    fix_anc = any(_matches(t, FIX_WORDS) for t in anc)
    bug_anc = any(_matches(t, BUG_WORDS) for t in anc)
    return fix_any and bug_any and (fix_anc or bug_anc)


def h3_filter(tree: SentenceTree, idx: int) -> bool:
    """Fallback pattern when nothing "introduces" the hash: both a fix and
    a bug word govern it, the hash's ancestry is free of stop-words and
    "introduce", and at least one governing fix word has no stop-word
    among its own ancestors or descendants."""
    anc = tree.ancestors(idx)
    fix_ancestors = [t for t in anc if _matches(t, FIX_WORDS)]
    if not fix_ancestors:
        return False
    if not any(_matches(t, BUG_WORDS) for t in anc):
        return False
    if any(_matches(t, _H3_BLOCK_WORDS) for t in anc):
        return False
    for f in fix_ancestors:
        around = tree.ancestors(f.index) + tree.descendants(f.index)
        if not any(_matches(t, H3_STOPWORDS) for t in around):
            return True
    return False


@dataclass(slots=True)
class SentenceMatch:
    sentence_index: int
    hash: str
    heuristic: str  # "h2" or "h3"


@dataclass(slots=True)
class MessageAnalysis:
    repo: str
    commit: str
    verdict: str  # "accepted" or "rejected"
    reason: str | None = None
    matches: Sequence[SentenceMatch] = ()  # a rejected record holds no list

    def json_line(self) -> str:
        """The record as one line of JSON with sorted keys, as
        ``json.dumps(..., sort_keys=True)`` writes it."""
        line = '{"commit": ' + _json_str(self.commit)
        if self.matches:
            line += ', "matches": [' + ", ".join(
                f'{{"hash": {_json_str(m.hash)}, "heuristic": {_json_str(m.heuristic)}, '
                f'"sentence": {m.sentence_index}}}'
                for m in self.matches
            ) + "]"
        if self.reason:
            line += ', "reason": ' + _json_str(self.reason)
        return f'{line}, "repo": {_json_str(self.repo)}, "verdict": {_json_str(self.verdict)}}}\n'


def _fold(sentences: Iterable[tuple[list, str]]) -> tuple[list[SentenceMatch], str]:
    """A message's matches and the highest-ranked reason its sentences
    reached, from one (hashes found with their heuristic, reason) pair
    per sentence."""
    matches: list[SentenceMatch] = []
    worst = NO_HASH
    for s_index, (found, reason) in enumerate(sentences):
        matches += (SentenceMatch(s_index, h, heuristic) for h, heuristic in found)
        worst = max(worst, reason, key=_REASON_RANK.index)  # the earlier on a tie
    return matches, worst


def _tree_matches(tree: SentenceTree) -> tuple[list[tuple[str, str]], str]:
    ok, reason = h1_filter(tree)
    if not ok:
        return [], reason
    found = []
    for idx, hash_str in tree.hash_token_indices():
        if h2_filter(tree, idx):
            found.append((hash_str, "h2"))
        elif h3_filter(tree, idx):
            found.append((hash_str, "h3"))
    return found, HEURISTICS_FAILED  # a passing sentence reaches H2/H3


def analyze_with_trees(trees: list[SentenceTree]) -> tuple[list[SentenceMatch], str]:
    """Run H1 then H2/H3 over every sentence; returns the accepted matches
    and the deepest rejection reason reached when nothing matched."""
    return _fold(map(_tree_matches, trees))


# -- proximity fallback (no parses) --------------------------------------


def split_sentences(message: str) -> list[str]:
    parts = _SENTENCE_BREAK_RE.split(message.strip())
    return [p.strip() for p in parts if p.strip()]


def _norm_tokens(sentence: str) -> list[str]:
    return [t.strip("\"'`([{<.,:;!?)]}>*#") .lower() for t in sentence.split()]


_PROXIMITY_WINDOW = 6  # tokens before a hash that proximity mode reads


def proximity_matches(sentence: str) -> tuple[list[str], str]:
    """Stem matching in a token window before each hash. Lower fidelity
    than the tree heuristics: declensions are prefix-matched and any
    stop-word stem in the window rejects the hash."""
    tokens = _norm_tokens(sentence)
    tokens = [t for t in tokens if t]
    if not tokens:
        return [], NO_HASH
    if _HEX_RE.fullmatch(tokens[0]):
        return [], STARTS_WITH_HASH
    if any(t.startswith("revert") for t in tokens):
        return [], REVERT
    hashes = []
    saw_hash = False
    stop_stems = tuple(H3_STOPWORDS)
    for i, tok in enumerate(tokens):
        if not _HEX_RE.fullmatch(tok):
            continue
        saw_hash = True
        win = tokens[max(0, i - _PROXIMITY_WINDOW) : i]
        if any(w.startswith(stop_stems) for w in win):
            continue
        if any(w.startswith(FIX_STEMS) for w in win) and any(
            w.startswith(BUG_STEMS) for w in win
        ):
            hashes.append(tok)
    if not saw_hash:
        return [], NO_HASH
    return hashes, HEURISTICS_FAILED


def analyze_with_proximity(message: str) -> tuple[list[SentenceMatch], str]:
    """``proximity_matches`` over every sentence of a message; returns the
    accepted matches and the deepest rejection reason reached."""
    return _fold(([(h, "proximity") for h in found], reason)
                 for found, reason in map(proximity_matches, split_sentences(message)))


# -- event stream processing ----------------------------------------------


@dataclass
class RunSummary:
    total: int = 0
    accepted: int = 0
    rejected_by_reason: dict[str, int] = field(default_factory=dict)
    h2_matches: int = 0
    h3_matches: int = 0
    duplicates_removed: int = 0
    proximity_mode: bool = False

    def reject(self, reason: str) -> None:
        self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + 1

    def to_record(self) -> dict:
        return {
            "total": self.total,
            "accepted": self.accepted,
            "rejected": dict(sorted(self.rejected_by_reason.items())),
            "h2_matches": self.h2_matches,
            "h3_matches": self.h3_matches,
            "duplicates_removed": self.duplicates_removed,
            "proximity_mode": self.proximity_mode,
        }


def analyze_events(
    events: Iterable[Mapping],
    parses: "Mapping[str, list[SentenceTree] | None] | None" = None,
    proximity: bool = False,
) -> Iterator[MessageAnalysis]:
    """Yield the analysis of each commit event (a mapping with ``repo``,
    ``sha`` and ``message``), in stream order, as it is decided."""
    for ev in events:
        repo, sha, message = ev["repo"], ev["sha"], ev["message"]
        # trees are looked up, and so built, only past the prefilter
        if not word_prefilter(message):
            matches, reason = (), PREFILTER
        elif (trees := parses.get(sha) if parses else None) is not None:
            matches, reason = analyze_with_trees(trees)
        elif proximity:
            matches, reason = analyze_with_proximity(message)
        else:
            matches, reason = (), PARSE_UNAVAILABLE
        if matches:
            yield MessageAnalysis(repo, sha, "accepted", None, matches)
        else:
            yield MessageAnalysis(repo, sha, "rejected", reason)


def _add_place(places: dict, key: str, place: int) -> None:
    """Note ``place`` under ``key``: the place alone, a list once ``key`` repeats."""
    held = places.setdefault(key, place)
    if held != place:
        places[key] = [*held, place] if isinstance(held, list) else [held, place]


def write_mined(analyses: Iterable[MessageAnalysis], out: str | None, proximity: bool = False) -> RunSummary:
    """Write a JSON line per analysis, then a summary line, to the file
    ``out`` (standard output when None), and return the summary.

    Records are spilled to an unlinked temporary file as they come, and
    ``out`` is opened only once ``analyses`` is exhausted, so a stream
    that raises writes nothing. The copy drops the accepted records that
    repeat a commit (fork pushes): of each repeated commit the record
    from the lexicographically first repository stays at its own place,
    flagged ``duplicate-unresolved`` as the stream names no main
    repository. Rejected records all stay."""
    summary = RunSummary(proximity_mode=proximity)
    accepted: dict[str, int | list[int]] = {}  # commit -> its place, or places if repeated
    with tempfile.TemporaryFile("w+", encoding="ascii", newline="\n") as spill:
        for i, a in enumerate(analyses):
            spill.write(a.json_line())
            summary.total += 1
            if a.verdict != "accepted":
                summary.reject(a.reason)
                continue
            summary.accepted += 1
            summary.h2_matches += sum(m.heuristic == "h2" for m in a.matches)
            summary.h3_matches += sum(m.heuristic == "h3" for m in a.matches)
            _add_place(accepted, a.commit, i)

        repeated = [places for places in accepted.values() if isinstance(places, list)]
        wanted = {place for places in repeated for place in places}
        spill.seek(0)
        repo_at = {i: json.loads(line)["repo"] for i, line in enumerate(spill) if i in wanted}
        fate: dict[int, bool] = {}  # place -> True: stays flagged, False: dropped
        for places in repeated:
            fate.update(dict.fromkeys(places, False))
            # the lexicographically first repository stays, the earlier on a tie
            fate[min(places, key=lambda p: (repo_at[p], p))] = True
            summary.duplicates_removed += len(places) - 1
        summary.accepted -= summary.duplicates_removed

        spill.seek(0)
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            for i, line in enumerate(spill):
                flag = fate.get(i)
                if flag is None:
                    fh.write(line)
                elif flag:
                    rec = json.loads(line)
                    rec["flags"] = ["duplicate-unresolved"]
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.write(json.dumps({"summary": summary.to_record()}, sort_keys=True) + "\n")
    return summary


# -- input formats ----------------------------------------------------------


class Parses(Mapping):
    """Dependency parses by commit, spilled by ``load_parses`` to an unlinked
    temporary file that ``close()``, or collecting the mapping, closes. Only
    where each commit's sentences lie is held: a lookup reads them back and
    builds its trees in file order, or gives None when one fails validation."""

    def __init__(self, spill, bounds: array, runs: dict[str, int | list[int]]):
        self._spill = spill
        self._bounds = bounds  # run r lies at bounds[r]:bounds[r + 1] in the spill
        self._runs = runs  # commit -> its run, or its runs if it comes back
        weakref.finalize(self, spill.close)

    def close(self) -> None:
        self._spill.close()

    def __getitem__(self, commit: str) -> list[SentenceTree] | None:
        runs = self._runs[commit]
        trees = []
        for r in runs if isinstance(runs, list) else [runs]:
            lo, hi = self._bounds[r : r + 2]
            self._spill.seek(lo)
            for block in self._spill.read(hi - lo).decode().split("\r")[:-1]:
                text, *rows = block.split("\n")  # not splitlines(): forms may hold "\x85"
                tokens = [Token(int(i), form, lemma, int(h))
                          for i, form, lemma, h, _ in (row.split("\t") for row in rows)]
                try:
                    trees.append(SentenceTree(text, tokens))
                except SchemaError:
                    return None
        return trees

    def __contains__(self, commit: object) -> bool:
        return commit in self._runs

    def __iter__(self):
        return iter(self._runs)

    def __len__(self) -> int:
        return len(self._runs)


def load_parses(path) -> Parses:
    """Read dependency parses: blocks of tab-separated token rows
    (index, form, lemma, head, unused relation) introduced by ``# commit =``
    and ``# text =`` lines and separated by blank lines. Every row is checked
    here and spilled as text; a commit whose block fails tree validation
    maps to None on lookup so callers can report it as unparsed."""
    spill = tempfile.TemporaryFile()
    bounds = array("q", [0])
    runs: dict[str, int | list[int]] = {}
    commit = last = None  # last: the commit of the sentence spilled last
    text = ""
    rows: list[str] = []

    def flush() -> None:
        nonlocal rows, text, last
        if not rows:
            return
        if commit != last:  # a new run
            _add_place(runs, commit, len(bounds) - 1)
            bounds.append(bounds[-1])
            last = commit
        # text, then rows, a line each; lines read with universal newlines hold no "\r"
        bounds[-1] += spill.write(("\n".join([text, *rows]) + "\r").encode())
        rows, text = [], ""

    try:
        for line_no, raw in _numbered_lines(path):
            line = raw.rstrip("\n")
            if not line.strip():
                flush()
                continue
            if line.startswith("#"):
                key, eq, value = line.lstrip("#").partition("=")
                key = key.strip()
                if key in ("commit", "text") and not eq:
                    raise SchemaError(f"{path}:{line_no}: expected '# {key} = ...'")
                if key == "commit":
                    flush()
                    commit = value.strip()
                elif key == "text":
                    flush()  # a text line inside a block starts a new sentence
                    text = value.strip()
                continue
            cols = line.split("\t")
            if commit is None:
                raise SchemaError(f"{path}:{line_no}: token row before any '# commit =' line")
            if len(cols) != 5:
                raise SchemaError(f"{path}:{line_no}: expected 5 tab-separated columns")
            try:
                int(cols[0]), int(cols[3])
            except ValueError as exc:
                raise SchemaError(f"{path}:{line_no}: {exc}") from None
            rows.append(line)
        flush()
    except BaseException:
        spill.close()
        raise
    return Parses(spill, bounds, runs)


def _numbered_lines(path):
    """Yield each line of a UTF-8 file, read with universal newlines, with
    its 1-based number; a byte that is not UTF-8 raises SchemaError naming
    its line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            # the decoder reads ahead: count the lines before the bad byte
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                data = data[: exc.start]
            line_no = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
            raise SchemaError(f"{path}:{line_no}: not valid UTF-8") from None


def _json_objects(path, convert):
    """Yield the events ``convert`` makes of the object on each non-blank
    line of a newline-delimited JSON file."""
    for line_no, line in _numbered_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise SchemaError("expected a JSON object")
            events = convert(obj)
        except (json.JSONDecodeError, SchemaError) as exc:
            raise SchemaError(f"{path}:{line_no}: {exc}") from None
        yield from events


def _commit_event(obj: dict) -> dict:
    for key in ("repo", "sha", "message"):
        if not isinstance(obj.get(key), str):
            raise SchemaError(f"field {key!r} is missing or not a string")
    return obj


def read_events(path):
    """Yield events from a newline-delimited JSON file with ``repo``,
    ``sha`` and ``message`` fields."""
    return _json_objects(path, lambda obj: [_commit_event(obj)])


def read_gharchive(path):
    """Yield the commit events of a newline-delimited file of
    GH-Archive-style events."""
    return _json_objects(path, events_from_gharchive)


def events_from_gharchive(payload: dict) -> list[dict]:
    """Convert one GH-Archive-style push event into plain commit events;
    a commit without a sha or a message is left out."""
    if payload.get("type") != "PushEvent":
        return []
    repo = payload.get("repo", {})
    push = payload.get("payload", {})
    commits = push.get("commits", []) if isinstance(push, dict) else None
    if not (isinstance(repo, dict) and isinstance(commits, list)
            and all(isinstance(c, dict) for c in commits)):
        raise SchemaError("a push event needs a repo object and a list of commit objects")
    return [
        _commit_event({"repo": repo.get("name", ""), "sha": c["sha"], "message": c["message"]})
        for c in commits
        if "sha" in c and "message" in c
    ]
