"""Seeded inputs for the offline stages, with their expected outputs.

``mine``: a GH-Archive-layout stream of push events. Every commit message
is built from one sentence template, sometimes with a neutral sentence
before or after it. Each template comes with the dependency tree of its
sentence and with the verdict the miner's heuristics give it, once with
the tree and once by token proximity, worked out by hand from the
heuristics' definitions. Trees are written for part of the messages; the
rest, and those whose tree is malformed, are left to proximity matching.
Some commits are pushed again from a fork.

``evaluate``: an oracle and 18 run files (6 presets x 3 regimes) whose
identified sets are planted, so that every pooled count is known and the
pooled rates are exact fractions.

Nothing here imports bictrace.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path

PRESETS = ("B", "AG", "MA", "L", "R", "RA-lite")
REGIMES = ("none", "issue-date", "best-case-date")


@dataclass(frozen=True)
class Template:
    name: str
    # (form, lemma, head, relation); "{h}" stands for the hash
    tokens: tuple[tuple[str, str, int, str], ...]
    tree: tuple[str, str]       # (verdict, heuristic or reason) with the tree
    proximity: tuple[str, str]  # the same by token proximity
    weight: int

    def text(self, h: str) -> str:
        words = [form.replace("{h}", h) for form, _, _, _ in self.tokens]
        return " ".join(words[:-1]) + words[-1]  # the last token is the full stop


ACC, REJ = "accepted", "rejected"

TEMPLATES = (
    # "introduced by" below the fix and bug words: H2. Proximity rejects
    # it, because "by" is a stop-word inside the window.
    Template("h2-introduced-by", (
        ("Fix", "fix", 0, "root"), ("bug", "bug", 1, "obj"),
        ("introduced", "introduce", 2, "acl"), ("by", "by", 5, "case"),
        ("{h}", "{h}", 3, "obl"), (".", ".", 1, "punct"),
    ), (ACC, "h2"), (REJ, "h2h3-failed"), 12),
    # the hash is the subject of "introduced", inside a clause on "issue"
    Template("h2-solve-issue", (
        ("Solve", "solve", 0, "root"), ("the", "the", 3, "det"),
        ("issue", "issue", 1, "obj"), ("that", "that", 6, "obj"),
        ("{h}", "{h}", 6, "nsubj"), ("introduced", "introduce", 3, "acl:relcl"),
        (".", ".", 1, "punct"),
    ), (ACC, "h2"), (ACC, "proximity"), 8),
    # fix and bug both govern the hash and no stop-word is near: H3
    Template("h3-fixes-bug-in", (
        ("This", "this", 2, "nsubj"), ("fixes", "fix", 0, "root"),
        ("a", "a", 4, "det"), ("bug", "bug", 2, "obj"), ("in", "in", 6, "case"),
        ("{h}", "{h}", 4, "nmod"), (".", ".", 2, "punct"),
    ), (ACC, "h3"), (ACC, "proximity"), 12),
    # an "attempt" governs the hash: H2 is blocked
    Template("attempt-to-fix", (
        ("Attempt", "attempt", 0, "root"), ("to", "to", 3, "mark"),
        ("fix", "fix", 1, "xcomp"), ("the", "the", 5, "det"), ("bug", "bug", 3, "obj"),
        ("introduced", "introduce", 5, "acl"), ("by", "by", 8, "case"),
        ("{h}", "{h}", 6, "obl"), (".", ".", 1, "punct"),
    ), (REJ, "h2h3-failed"), (REJ, "h2h3-failed"), 6),
    # the bug word is not an ancestor of the hash: H3 fails
    Template("was-fixed-by", (
        ("This", "this", 2, "det"), ("bug", "bug", 4, "nsubj:pass"),
        ("was", "be", 4, "aux:pass"), ("fixed", "fix", 0, "root"),
        ("by", "by", 6, "case"), ("{h}", "{h}", 4, "obl"), (".", ".", 4, "punct"),
    ), (REJ, "h2h3-failed"), (REJ, "h2h3-failed"), 6),
    Template("revert", (
        ("Revert", "revert", 0, "root"), ("fix", "fix", 1, "obj"),
        ("for", "for", 4, "case"), ("bug", "bug", 2, "nmod"), ("from", "from", 6, "case"),
        ("{h}", "{h}", 4, "nmod"), (".", ".", 1, "punct"),
    ), (REJ, "revert"), (REJ, "revert"), 4),
    Template("no-hash", (
        ("Fix", "fix", 0, "root"), ("crash", "crash", 3, "compound"),
        ("bug", "bug", 1, "obj"), ("in", "in", 6, "case"), ("the", "the", 6, "det"),
        ("parser", "parser", 3, "nmod"), (".", ".", 1, "punct"),
    ), (REJ, "no-hash"), (REJ, "no-hash"), 10),
    Template("starts-with-hash", (
        ("{h}", "{h}", 2, "nsubj"), ("fixes", "fix", 0, "root"),
        ("the", "the", 4, "det"), ("bug", "bug", 2, "obj"), (".", ".", 2, "punct"),
    ), (REJ, "starts-with-hash"), (REJ, "starts-with-hash"), 4),
    Template("merge", (
        ("Merge", "merge", 0, "root"), ("fix", "fix", 3, "compound"),
        ("branch", "branch", 1, "obj"), ("for", "for", 5, "case"),
        ("bug", "bug", 3, "nmod"), (".", ".", 1, "punct"),
    ), (REJ, "prefilter"), (REJ, "prefilter"), 8),
    Template("chore", (
        ("Update", "update", 0, "root"), ("release", "release", 3, "compound"),
        ("notes", "note", 1, "obj"), (".", ".", 1, "punct"),
    ), (REJ, "prefilter"), (REJ, "prefilter"), 30),
)
NEUTRAL = Template("neutral", (
    ("Update", "update", 0, "root"), ("the", "the", 3, "det"),
    ("changelog", "changelog", 1, "obj"), (".", ".", 1, "punct"),
), (REJ, "no-hash"), (REJ, "no-hash"), 0)

_RANK = {"prefilter": 0, "parse-unavailable": 1, "no-hash": 2,
         "starts-with-hash": 3, "revert": 4, "h2h3-failed": 5}


def _hex(rng: random.Random, n: int) -> str:
    """A lowercase hex string of ``n`` digits with a letter and a digit."""
    while True:
        h = f"{rng.getrandbits(4 * n):0{n}x}"
        if not h.isdigit() and not h.isalpha():
            return h


def _rows(t: Template, h: str) -> str:
    return "".join(
        f"{i}\t{form.replace('{h}', h)}\t{lemma.replace('{h}', h)}\t{head}\t{rel}\n"
        for i, (form, lemma, head, rel) in enumerate(t.tokens, start=1)
    )


def expected_record(sentences: list[tuple[Template, str]], mode: str) -> dict:
    """Expected miner verdict for a message made of (template, hash)
    sentences, with trees (``mode="tree"``) or by proximity."""
    if any(t.tree == (REJ, "prefilter") for t, _ in sentences):
        return {"verdict": REJ, "reason": "prefilter"}
    matches, worst = [], "no-hash"
    for i, (t, h) in enumerate(sentences):
        verdict, why = t.tree if mode == "tree" else t.proximity
        if verdict == ACC:
            matches.append({"sentence": i, "hash": h, "heuristic": why})
        elif _RANK[why] > _RANK[worst]:
            worst = why
    if matches:
        return {"verdict": ACC, "matches": matches}
    return {"verdict": REJ, "reason": worst}


def write_mine_inputs(rng: random.Random, work: Path, n_messages: int, parsed_share: float):
    """Write ``events.ndjson`` and ``parses.txt`` holding ``n_messages``
    commit messages, fork duplicates included; return the expected output
    records in order and the expected summary."""
    events, parse_blocks = [], []
    expected: list[dict] = []
    weights = [t.weight for t in TEMPLATES]
    p = 0
    while len(expected) < n_messages:
        p += 1
        if rng.random() < 0.1:
            events.append({"type": "WatchEvent", "repo": {"name": f"org{p % 97}/proj{p}"}})
            continue
        repo = f"org{p % 97}/proj{p}"
        commits = []
        for _ in range(min(rng.randint(1, 4), n_messages - len(expected))):
            t = rng.choices(TEMPLATES, weights)[0]
            sents = [(t, _hex(rng, rng.randint(7, 12)))]
            if rng.random() < 0.3:
                sents.insert(rng.randint(0, 1), (NEUTRAL, ""))
            sha = _hex(rng, 40)
            message = " ".join(s.text(h) for s, h in sents)
            mode = "proximity"
            if rng.random() < parsed_share:
                broken = rng.random() < 0.03
                block = [f"# commit = {sha}\n"]
                for s, h in sents:
                    rows = _rows(s, h)
                    if broken:  # a second root makes the whole message unparsed
                        rows += f"{len(s.tokens) + 1}\textra\textra\t0\troot\n"
                    block.append(f"# text = {s.text(h)}\n{rows}\n")
                parse_blocks.append("".join(block))
                mode = "proximity" if broken else "tree"
            commits.append({"sha": sha, "message": message})
            expected.append({"repo": repo, "commit": sha, **expected_record(sents, mode)})
        events.append({"type": "PushEvent", "repo": {"name": repo}, "payload": {"commits": commits}})
        if rng.random() < 0.05 and len(expected) + len(commits) <= n_messages:
            # the same push seen again from a fork
            fork = f"fork{p % 13}/proj{p}"
            events.append({"type": "PushEvent", "repo": {"name": fork}, "payload": {"commits": commits}})
            expected += [{**rec, "repo": fork} for rec in expected[-len(commits):]]
    with open(work / "events.ndjson", "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev) + "\n")
    (work / "parses.txt").write_text("".join(parse_blocks), encoding="utf-8")
    return _dedupe(expected)


def _dedupe(expected: list[dict]):
    """Accepted records sharing a commit collapse to the one from the
    lexicographically first repository, flagged, because the stream names
    no main repository; rejected records all stay."""
    groups: dict[str, list[dict]] = {}
    for rec in expected:
        if rec["verdict"] == ACC:
            groups.setdefault(rec["commit"], []).append(rec)
    out = []
    for rec in expected:
        group = groups.get(rec["commit"]) if rec["verdict"] == ACC else None
        if group and len(group) > 1:
            keep = min(group, key=lambda r: r["repo"])
            if rec is not keep:
                continue
            rec = {**rec, "flags": ["duplicate-unresolved"]}
        out.append(rec)
    accepted_all = sum(1 for r in expected if r["verdict"] == ACC)
    accepted = sum(1 for r in out if r["verdict"] == ACC)
    rejected: dict[str, int] = {}
    for r in expected:
        if r["verdict"] == REJ:
            rejected[r["reason"]] = rejected.get(r["reason"], 0) + 1
    heur = [m["heuristic"] for r in expected if r["verdict"] == ACC for m in r["matches"]]
    summary = {
        "total": len(expected),
        "accepted": accepted,
        "rejected": dict(sorted(rejected.items())),
        "h2_matches": heur.count("h2"),
        "h3_matches": heur.count("h3"),
        "duplicates_removed": accepted_all - accepted,
        "proximity_mode": True,
    }
    return out, summary


# -- evaluate -------------------------------------------------------------------


def write_evaluate_inputs(rng: random.Random, work: Path, n_entries: int) -> dict:
    """Write ``eval/oracle.json`` and ``eval/runs/*.json``; return the
    expected pooled and macro rows keyed by (variant, regime)."""
    base = work / "eval"
    (base / "runs").mkdir(parents=True)
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    entries = []
    for i in range(n_entries):
        repo = f"org{i % 211}/svc{i % 1009}"
        bics = sorted({_hex(rng, 40) for _ in range(rng.randint(1, 3))})
        e = {"repo": repo, "fix_commit": _hex(rng, 40), "true_bics": bics,
             "languages": [rng.choice(("C", "Java", "Python", "JavaScript"))]}
        if rng.random() < 0.6:
            opened = t0 + timedelta(minutes=rng.randrange(500_000))
            e["issues"] = [{"url": f"https://issues.invalid/{i}", "opened_at": opened.strftime("%Y-%m-%dT%H:%M:%SZ")}]
        entries.append(e)
    (base / "oracle.json").write_text(json.dumps({"schema_version": 1, "entries": entries}))

    expected = {}
    for regime in REGIMES:
        # a detect run skips the same entries for every preset
        skip = {i for i in range(n_entries) if rng.random() < 0.02}
        skipped = [{"repo": entries[i]["repo"], "fix_commit": entries[i]["fix_commit"]} for i in sorted(skip)]
        for preset in PRESETS:
            recs = []
            correct = identified = tp = 0
            r_sum = p_sum = f_sum = Fraction(0)
            for i, e in enumerate(entries):
                if i in skip:
                    continue
                hits = rng.sample(e["true_bics"], rng.randint(0, len(e["true_bics"])))
                found = sorted(set(hits) | {_hex(rng, 40) for _ in range(rng.choice((0, 0, 1, 1, 2, 4)))})
                recs.append({"repo": e["repo"], "fix_commit": e["fix_commit"], "identified": found})
                correct += len(e["true_bics"])
                identified += len(found)
                tp += len(hits)
                r = Fraction(len(hits), len(e["true_bics"]))
                p = Fraction(len(hits), len(found)) if found else Fraction(0)
                r_sum += r
                p_sum += p
                f_sum += _f1(p, r)
            doc = {"variant": preset, "regime": regime, "entries": recs,
                   "skipped": skipped, "outliers_removed": []}
            (base / "runs" / f"{preset.lower()}_{regime}.json").write_text(json.dumps(doc))
            n = len(recs)
            recall, precision = Fraction(tp, correct), Fraction(tp, identified)
            expected[(preset, regime)] = {
                "pooled": (n, correct, identified, tp, recall, precision, _f1(precision, recall)),
                "macro": (n, r_sum / n, p_sum / n, f_sum / n),
            }
    return expected


def _f1(p: Fraction, r: Fraction) -> Fraction:
    return Fraction(0) if p == 0 and r == 0 else 2 * p * r / (p + r)
