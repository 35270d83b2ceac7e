"""Commit-message mining: prefilter, tree heuristics, streams, formats."""

from __future__ import annotations

import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bictrace import miner
from bictrace.cli import main
from bictrace.errors import SchemaError
from bictrace.miner import (
    HASH_RE,
    HEURISTICS_FAILED,
    NO_HASH,
    PREFILTER,
    REVERT,
    STARTS_WITH_HASH,
    MessageAnalysis,
    SentenceMatch,
    SentenceTree,
    Token,
    _starts_with_hash,
    analyze_events,
    analyze_with_trees,
    events_from_gharchive,
    h1_filter,
    h2_filter,
    h3_filter,
    load_parses,
    proximity_matches,
    split_sentences,
    word_prefilter,
    write_mined,
)
from conftest import make_tree


# --- word prefilter -----------------------------------------------------------


@pytest.mark.parametrize(
    "message,keep",
    [
        ("fix the bug in parser", True),
        ("solves issue 12", True),
        ("Fixed an ERROR path", True),
        ("fixing problems with retries", True),
        ("fix typo", False),  # no bug word
        ("bug in release notes", False),  # no fix word
        ("merge branch fixing bug", False),  # merge excluded
        ("merged fix for the bug", False),
        ("", False),
    ],
)
def test_word_prefilter(message, keep):
    assert word_prefilter(message) is keep


def test_prefilter_matches_stems_not_substrings():
    # "prefix" contains the letters but does not start with them
    assert not word_prefilter("prefix the debugging")
    assert word_prefilter("fixup for the bugfix")


# --- hash extraction -----------------------------------------------------------


@pytest.mark.parametrize(
    "sentence,hashes",
    [
        ("see a1b2c3 for details", ["a1b2c3"]),
        ("between deadbeef and cafe12 both count", ["deadbeef", "cafe12"]),
        ("too short abcde", []),
        ("0x1234567 is a literal, not a commit", []),  # leading x glues on
        ("ends with punctuation a1b2c3d4.", ["a1b2c3d4"]),
        ("(a1b2c3d4)", ["a1b2c3d4"]),
        ("UPPER A1B2C3 is not hex here", []),
        ("under_score_a1b2c3 stays glued", []),
        ("41 hex chars " + "a" * 41 + " rejected", []),
        ("40 hex chars " + "a" * 40 + " accepted", ["a" * 40]),
    ],
)
def test_extract_hashes(sentence, hashes):
    assert HASH_RE.findall(sentence) == hashes


def test_starts_with_hash():
    assert _starts_with_hash("a1b2c3 was the culprit")
    assert _starts_with_hash("(deadbeef) introduced it")
    assert not _starts_with_hash("commit a1b2c3 was the culprit")
    assert not _starts_with_hash("")
    assert not _starts_with_hash("fixed it")


# --- the reference sentences ----------------------------------------------------


def test_labeled_sentences(labeled_sentences):
    for label, tree, should_accept, heuristic in labeled_sentences:
        matches, worst = analyze_with_trees([tree])
        if should_accept:
            assert matches, label
            assert matches[0].heuristic == heuristic, label
        else:
            assert not matches, (label, matches)
            assert worst == HEURISTICS_FAILED, label


def test_h1_rejections():
    no_hash = make_tree(
        "fixes the bug", [(1, "fixes", "fix", 0, "root"), (2, "the", "the", 3, "det"), (3, "bug", "bug", 1, "obj")]
    )
    assert h1_filter(no_hash) == (False, NO_HASH)

    leading = make_tree(
        "a1b2c3 broke the build",
        [
            (1, "a1b2c3", "a1b2c3", 2, "nsubj"),
            (2, "broke", "break", 0, "root"),
            (3, "the", "the", 4, "det"),
            (4, "build", "build", 2, "obj"),
        ],
    )
    assert h1_filter(leading) == (False, STARTS_WITH_HASH)

    reverted = make_tree(
        "reverts commit a1b2c3 that fixed the bug",
        [
            (1, "reverts", "revert", 0, "root"),
            (2, "commit", "commit", 3, "compound"),
            (3, "a1b2c3", "a1b2c3", 1, "obj"),
            (4, "that", "that", 5, "nsubj"),
            (5, "fixed", "fix", 3, "acl"),
            (6, "the", "the", 7, "det"),
            (7, "bug", "bug", 5, "obj"),
        ],
    )
    assert h1_filter(reverted) == (False, REVERT)


def test_h2_requires_introduce_governor(labeled_sentences):
    trees = dict((label, tree) for label, tree, _, _ in labeled_sentences)
    good = trees["fixes_introduced_by"]
    (hash_idx, _), = good.hash_token_indices()
    assert h2_filter(good, hash_idx)

    # fix and bug words sit below the hash here, never above it, so the
    # at-least-one-ancestor clause rejects despite the introduce governor
    bad = trees["improving_feature"]
    (bad_idx, _), = bad.hash_token_indices()
    assert not h2_filter(bad, bad_idx)


def test_h2_blocked_by_attempt(labeled_sentences):
    trees = dict((label, tree) for label, tree, _, _ in labeled_sentences)
    tree = trees["remove_attempt"]
    (idx, _), = tree.hash_token_indices()
    assert not h2_filter(tree, idx)


def test_h3_needs_stopword_free_context(labeled_sentences):
    trees = dict((label, tree) for label, tree, _, _ in labeled_sentences)

    accept = trees["solve_error_caused"]
    (idx, _), = accept.hash_token_indices()
    assert h3_filter(accept, idx)

    tried = trees["tried_to_fix"]
    (idx, _), = tried.hash_token_indices()
    assert not h3_filter(tried, idx)  # "try" governs the hash

    passive = trees["bug_was_fixed"]
    (idx, _), = passive.hash_token_indices()
    assert not h3_filter(passive, idx)  # "was" surfaces in the fix context


def test_h3_stopword_matches_surface_form_too():
    # lemma is clean ("be" is not a stopword) but the surface "been" is
    tree = make_tree(
        "solve the bug that had been hiding since a1b2c3d4",
        [
            (1, "solve", "solve", 0, "root"),
            (2, "the", "the", 3, "det"),
            (3, "bug", "bug", 1, "obj"),
            (4, "that", "that", 6, "nsubj"),
            (5, "had", "have", 6, "aux"),
            (6, "hiding", "hide", 3, "acl"),
            (7, "been", "be", 6, "aux"),
            (8, "since", "since", 9, "case"),
            (9, "a1b2c3d4", "a1b2c3d4", 6, "obl"),
        ],
    )
    (idx, _), = tree.hash_token_indices()
    # ancestors of the hash are clean, but every fix ancestor ("solve")
    # sees "been" in its own subtree
    assert not h3_filter(tree, idx)


def test_h3_rejects_a_hash_with_an_introduce_ancestor():
    # "solve_error_caused" with "introduced" for "caused": H3's context is
    # otherwise met, but an "introduce" ancestor leaves the hash to H2
    tree = make_tree(
        "solve the error introduced in a1b2c3d4",
        [
            (1, "solve", "solve", 0, "root"),
            (2, "the", "the", 3, "det"),
            (3, "error", "error", 1, "obj"),
            (4, "introduced", "introduce", 3, "acl"),
            (5, "in", "in", 6, "case"),
            (6, "a1b2c3d4", "a1b2c3d4", 4, "obl"),
        ],
    )
    (idx, _), = tree.hash_token_indices()
    assert not h3_filter(tree, idx)
    assert [m.heuristic for m in analyze_with_trees([tree])[0]] == ["h2"]


def test_analyze_reports_deepest_reason():
    no_hash = make_tree(
        "fixes the bug",
        [
            (1, "fixes", "fix", 0, "root"),
            (2, "the", "the", 3, "det"),
            (3, "bug", "bug", 1, "obj"),
        ],
    )
    reverted = make_tree(
        "revert a1b2c3",
        [(1, "revert", "revert", 0, "root"), (2, "a1b2c3", "a1b2c3", 1, "obj")],
    )
    _, worst = analyze_with_trees([no_hash])
    assert worst == NO_HASH
    _, worst = analyze_with_trees([no_hash, reverted])
    assert worst == REVERT


# --- tree validation -------------------------------------------------------------


def test_tree_rejects_multiple_roots():
    with pytest.raises(SchemaError):
        make_tree("a b", [(1, "a", "a", 0, "root"), (2, "b", "b", 0, "root")])


def test_tree_rejects_cycle():
    with pytest.raises(SchemaError):
        make_tree(
            "a b c",
            [(1, "a", "a", 0, "root"), (2, "b", "b", 3, "dep"), (3, "c", "c", 2, "dep")],
        )


def test_tree_rejects_dangling_head():
    with pytest.raises(SchemaError):
        make_tree("a b", [(1, "a", "a", 0, "root"), (2, "b", "b", 9, "dep")])


def test_tree_rejects_a_repeated_index(tmp_path):
    # a second token 2 would shadow the first, and "bug" would drop out
    # of every walk; the message falls back to proximity instead
    rows = [(1, "fix", "fix", 0, "root"), (2, "bug", "bug", 1, "obj"), (2, "a1b2c3d4", "a1b2c3d4", 1, "obl")]
    with pytest.raises(SchemaError, match="repeated"):
        make_tree("fix bug a1b2c3d4", rows)
    path = tmp_path / "parses.txt"
    path.write_text("# commit = c\n# text = fix bug a1b2c3d4\n" + "".join(
        "\t".join(map(str, row)) + "\n" for row in rows))
    assert load_parses(path) == {"c": None}


def test_tree_rejects_a_non_positive_index():
    with pytest.raises(SchemaError, match="not positive"):
        make_tree("a b", [(1, "a", "a", 0, "root"), (-2, "b", "b", 1, "dep")])


def test_tree_accepts_self_loop_root():
    tree = make_tree("a b", [(1, "a", "a", 1, "root"), (2, "b", "b", 1, "dep")])
    assert [t.form for t in tree.ancestors(2)] == ["a"]
    assert tree.ancestors(1) == []


def test_ancestors_and_descendants(labeled_sentences):
    tree = dict((l, t) for l, t, _, _ in labeled_sentences)["fixes_introduced_by"]
    assert [t.form for t in tree.ancestors(7)] == ["introduced", "bug", "fixes"]
    assert [t.form for t in tree.descendants(4)] == ["a", "search", "introduced", "by", "2508e12"]
    assert tree.descendants(7) == [t for t in tree.tokens if t.index == 6]


# --- proximity fallback ------------------------------------------------------------


def test_proximity_accepts_nearby_stems():
    found, reason = proximity_matches("fix the bug from a1b2c3d4")
    assert found == ["a1b2c3d4"]
    assert reason == HEURISTICS_FAILED


def test_proximity_rejects_past_tense_fixed():
    # "fixed" doubles as a stop stem, so the past tense reads as an
    # already-solved statement and the hash is dropped
    assert proximity_matches("fixed the bug from a1b2c3d4")[0] == []


def test_proximity_window_is_six_tokens():
    sent = "fixes bug one two three four five six a1b2c3d4"
    found, _ = proximity_matches(sent)
    assert found == []  # stems fell out of the window
    found, _ = proximity_matches("fixes bug one two three four a1b2c3d4")
    assert found == ["a1b2c3d4"]


def test_proximity_rejections():
    assert proximity_matches("a1b2c3d4 fixed the bug") == ([], STARTS_WITH_HASH)
    assert proximity_matches("revert the fix for bug a1b2c3d4") == ([], REVERT)
    assert proximity_matches("fixed the bug") == ([], NO_HASH)
    found, reason = proximity_matches("fix bug attempt near a1b2c3d4")
    assert found == [] and reason == HEURISTICS_FAILED  # stopword in window


def test_split_sentences():
    msg = "Fix the bug. It came from a1b2c3.\n\nSee the ticket!"
    assert split_sentences(msg) == [
        "Fix the bug.",
        "It came from a1b2c3.",
        "See the ticket!",
    ]
    assert split_sentences("") == []


# --- stream mining -----------------------------------------------------------------


def _event(repo, sha, message):
    return {"repo": repo, "sha": sha, "message": message}


def _parse_for(sha, tree):
    return {sha: [tree]}


def _write(analyses, proximity=False):
    """The records ``write_mined`` writes, read back, and its summary."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "mined.ndjson")
        summary = write_mined(analyses, str(out), proximity)
        *records, last = map(json.loads, out.read_text().splitlines())
    assert last == {"summary": summary.to_record()}
    return records, summary


def _mine(events, parses=None, proximity=False):
    return _write(analyze_events(events, parses, proximity), proximity)


def test_mine_stream_with_parses(labeled_sentences):
    trees = dict((l, t) for l, t, _, _ in labeled_sentences)
    events = [
        _event("org/app", "aal", "fixes a search bug introduced by 2508e12"),
        _event("org/app", "bbl", "merge branch with bug fixes"),
        _event("org/app", "ccl", "fix the bug eventually"),
    ]
    parses = {
        "aal": [trees["fixes_introduced_by"]],
        "ccl": [trees["tried_to_fix"]],
    }
    records, summary = _mine(events, parses=parses)
    verdicts = {r["commit"]: r["verdict"] for r in records}
    assert verdicts == {"aal": "accepted", "bbl": "rejected", "ccl": "rejected"}
    reasons = {r["commit"]: r.get("reason") for r in records}
    assert reasons["bbl"] == PREFILTER
    assert reasons["ccl"] == HEURISTICS_FAILED
    assert summary.total == 3
    assert summary.accepted == 1
    assert summary.h2_matches == 1
    assert summary.h3_matches == 0


def test_mine_stream_without_parses_rejects_as_unparsed():
    events = [_event("org/app", "abc", "fix the bug near a1b2c3d4")]
    records, summary = _mine(events)
    assert records[0]["verdict"] == "rejected"
    assert records[0]["reason"] == "parse-unavailable"
    assert summary.rejected_by_reason == {"parse-unavailable": 1}


def test_mine_stream_proximity_mode():
    events = [
        _event("org/app", "abc", "fix the bug from a1b2c3d4"),
        _event("org/app", "def", "fix the bug eventually"),
    ]
    records, summary = _mine(events, proximity=True)
    assert records[0]["verdict"] == "accepted"
    assert records[0]["matches"][0]["heuristic"] == "proximity"
    assert records[1]["reason"] == NO_HASH
    assert summary.proximity_mode


def test_fork_dedupe_keeps_the_first_repository_flagged(labeled_sentences):
    tree = dict((l, t) for l, t, _, _ in labeled_sentences)["fixes_introduced_by"]
    msg = "fixes a search bug introduced by 2508e12"
    events = [
        _event("fork/app", "aal", msg),
        _event("main/app", "aal", msg),
    ]
    parses = {"aal": [tree]}

    # the stream names no main repository: the first repo name wins and
    # the record is flagged
    records, summary = _mine(events, parses=parses)
    accepted = [r for r in records if r["verdict"] == "accepted"]
    assert [r["repo"] for r in accepted] == ["fork/app"]
    assert accepted[0]["flags"] == ["duplicate-unresolved"]
    assert summary.duplicates_removed == 1


def _hit(repo, commit, hash="2508e12"):
    return MessageAnalysis(repo, commit, "accepted", None, [SentenceMatch(0, hash, "h2")])


def _miss(repo, commit):
    return MessageAnalysis(repo, commit, "rejected", PREFILTER)


def _kept(analyses):
    """(repo, commit, flags, first hash) of each record written, and the summary."""
    records, summary = _write(analyses)
    return [(r["repo"], r["commit"], r.get("flags"), r.get("matches", [{}])[0].get("hash"))
            for r in records], summary


def test_dedupe_keeps_distinct_hashes_apart():
    records, summary = _kept([_hit("r1", "aaa"), _hit("r2", "bbb")])
    assert records == [("r1", "aaa", None, "2508e12"), ("r2", "bbb", None, "2508e12")]
    assert summary.duplicates_removed == 0 and summary.accepted == 2


def test_write_mined_keeps_a_later_first_repository_at_its_own_place():
    # three pushes of one commit: the second stays, the other two go
    records, summary = _kept([
        _hit("zeta/app", "aaa"), _miss("org/app", "c01"), _hit("beta/app", "aaa"),
        _miss("org/app", "c02"), _hit("gamma/app", "aaa"), _hit("gamma/app", "bbb"),
    ])
    assert records == [
        ("org/app", "c01", None, None),
        ("beta/app", "aaa", ["duplicate-unresolved"], "2508e12"),
        ("org/app", "c02", None, None),
        ("gamma/app", "bbb", None, "2508e12"),
    ]
    assert (summary.total, summary.accepted, summary.duplicates_removed) == (6, 2, 2)


def test_write_mined_keeps_the_earlier_of_equal_repositories():
    records, summary = _kept([_hit("a/app", "aaa", "111111a"), _hit("b/app", "aaa"), _hit("a/app", "aaa", "222222b")])
    assert records == [("a/app", "aaa", ["duplicate-unresolved"], "111111a")]
    assert summary.duplicates_removed == 2


# quotes, backslashes, control and non-BMP characters, lone surrogates
_ANY_TEXT = st.text(st.one_of(
    st.sampled_from(('"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001f600", "\ud800", "\udfff")),
    st.characters(exclude_categories=()),
))


def _record(a: MessageAnalysis) -> dict:
    """A record's fields as ``mine`` has always written them."""
    rec = {"repo": a.repo, "commit": a.commit, "verdict": a.verdict}
    if a.reason:
        rec["reason"] = a.reason
    if a.matches:
        rec["matches"] = [
            {"sentence": m.sentence_index, "hash": m.hash, "heuristic": m.heuristic}
            for m in a.matches
        ]
    return rec


@settings(max_examples=300, deadline=None)
@given(
    repo=_ANY_TEXT,
    commit=_ANY_TEXT,
    verdict=st.one_of(st.sampled_from(("accepted", "rejected")), _ANY_TEXT),
    reason=st.one_of(st.none(), _ANY_TEXT),
    matches=st.lists(st.builds(SentenceMatch, st.integers(-(2**70), 2**70), _ANY_TEXT, _ANY_TEXT), max_size=3),
)
def test_json_line_writes_the_bytes_of_json_dumps(repo, commit, verdict, reason, matches):
    a = MessageAnalysis(repo, commit, verdict, reason, matches)
    want = _record(a)
    assert a.json_line() == json.dumps(want, sort_keys=True) + "\n"
    # pushed again from a later repository: the record that stays carries flags
    fork = MessageAnalysis(repo + "~", commit, verdict, reason, matches)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "mined.ndjson")
        write_mined([a, fork], str(out))
        lines = out.read_bytes().decode("ascii").splitlines(keepends=True)
    if verdict == "accepted":
        want["flags"] = ["duplicate-unresolved"]
        assert lines[:-1] == [json.dumps(want, sort_keys=True) + "\n"]
    else:
        assert lines[:-1] == [a.json_line(), fork.json_line()]


def test_fork_pushes_among_rejections_keep_one_record_in_place(labeled_sentences):
    tree = dict((l, t) for l, t, _, _ in labeled_sentences)["fixes_introduced_by"]
    hit = "fixes a search bug introduced by 2508e12"
    events = [
        _event("zeta/app", "aal", hit),
        _event("org/app", "c01", "update docs"),
        _event("beta/app", "aal", hit),
        _event("org/app", "c02", "fix the bug eventually"),
        _event("gamma/app", "aal", hit),
        _event("org/app", "c03", "merge branch"),
    ]
    records, summary = _mine(events, parses={"aal": [tree]})
    assert [(r["repo"], r["commit"], r["verdict"]) for r in records] == [
        ("org/app", "c01", "rejected"),
        ("beta/app", "aal", "accepted"),
        ("org/app", "c02", "rejected"),
        ("org/app", "c03", "rejected"),
    ]
    assert records[1]["flags"] == ["duplicate-unresolved"]
    assert summary.total == 6
    assert summary.accepted == 1
    assert summary.duplicates_removed == 2
    assert summary.rejected_by_reason == {PREFILTER: 2, "parse-unavailable": 1}
    assert summary.h2_matches == 3


def test_planted_positives_in_larger_stream(labeled_sentences):
    trees = dict((l, t) for l, t, _, _ in labeled_sentences)
    chaff = [
        _event("org/app", f"c{i:03d}", f"update module {i} docs") for i in range(40)
    ]
    planted = [
        _event("org/app", "hit1", "fixes a search bug introduced by 2508e12"),
        _event("org/app", "hit2", "solve the error caused in a1b2c3d4"),
    ]
    parses = {
        "hit1": [trees["fixes_introduced_by"]],
        "hit2": [trees["solve_error_caused"]],
    }
    records, summary = _mine(chaff + planted, parses=parses)
    accepted = {r["commit"] for r in records if r["verdict"] == "accepted"}
    assert accepted == {"hit1", "hit2"}
    assert summary.total == 42
    assert summary.rejected_by_reason[PREFILTER] == 40
    assert summary.h2_matches == 1 and summary.h3_matches == 1


# --- parse file format ---------------------------------------------------------------


GOOD_PARSE = """\
# commit = aal
# text = fixes a bug introduced by 2508e12
1\tfixes\tfix\t0\troot
2\ta\ta\t3\tdet
3\tbug\tbug\t1\tobj
4\tintroduced\tintroduce\t3\tacl
5\tby\tby\t6\tcase
6\t2508e12\t2508e12\t4\tobl

# commit = bbl
# text = second message
1\tsecond\tsecond\t2\tamod
2\tmessage\tmessage\t0\troot
"""


def test_load_parses_round_trip(tmp_path):
    path = tmp_path / "parses.txt"
    path.write_text(GOOD_PARSE)
    parses = load_parses(path)
    assert set(parses) == {"aal", "bbl"}
    assert parses["aal"][0].text == "fixes a bug introduced by 2508e12"
    assert len(parses["aal"][0].tokens) == 6
    matches, _ = analyze_with_trees(parses["aal"])
    assert matches and matches[0].hash == "2508e12"


def test_load_parses_text_line_inside_a_block_starts_a_sentence(tmp_path):
    # no blank line before the second "# text =": it still ends the
    # sentence read so far instead of renaming it
    path = tmp_path / "parses.txt"
    path.write_text(
        "# commit = a\n# text = one\n1\tone\tone\t0\troot\n"
        "# text = two\n1\ttwo\ttwo\t0\troot\n"
    )
    trees = load_parses(path)["a"]
    assert [t.text for t in trees] == ["one", "two"]
    assert [[tok.form for tok in t.tokens] for t in trees] == [["one"], ["two"]]


def test_load_parses_reads_a_commit_that_comes_back(tmp_path):
    path = tmp_path / "parses.txt"
    path.write_text(
        "# commit = a\n# text = one\n1\tone\tone\t0\troot\n\n"
        "# commit = b\n# text = other\n1\tother\tother\t0\troot\n\n"
        "# commit = a\n# text = two\n1\ttwo\ttwo\t0\troot\n"
        "# text = three\n1\tthree\tthree\t0\troot\n"
    )
    parses = load_parses(path)
    assert list(parses) == ["a", "b"]
    assert [t.text for t in parses["a"]] == ["one", "two", "three"]
    assert [t.text for t in parses["b"]] == ["other"]


def test_load_parses_keeps_an_empty_text_after_a_text(tmp_path):
    # a sentence is its text line, then rows that are never empty
    path = tmp_path / "parses.txt"
    path.write_text(
        "# commit = a\n# text = one\n1\tone\tone\t0\troot\n\n"
        "# text =\n1\ttwo\ttwo\t0\troot\n\n1\tthree\tthree\t0\troot\n"
    )
    trees = load_parses(path)["a"]
    assert [t.text for t in trees] == ["one", "", ""]
    assert [[tok.form for tok in t.tokens] for t in trees] == [["one"], ["two"], ["three"]]


def test_load_parses_keeps_forms_that_other_readers_break_lines_on(tmp_path):
    path = tmp_path / "parses.txt"
    path.write_text(
        "# commit = a\n# text = by\x85 the\u2028end\n"
        "1\tby\x85\tb\u2028y\t0\troot\n2\tthe\u2028end\tthe\x85end\x00\t1\tobj\n",
        encoding="utf-8",
    )
    (tree,) = load_parses(path)["a"]
    assert tree.text == "by\x85 the\u2028end"
    assert [(t.form, t.lemma) for t in tree.tokens] == [
        ("by\x85", "b\u2028y"), ("the\u2028end", "the\x85end\x00")]


def test_load_parses_closes_its_spill_on_a_schema_error_and_on_drop(tmp_path, monkeypatch):
    opened = []

    def spill(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    real = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", spill)
    path = tmp_path / "parses.txt"
    path.write_text("# commit = a\n# text = one\n1\tone\tone\t0\troot\n\n1\ttwo\ttwo\t0\n")
    with pytest.raises(SchemaError, match=":5: expected 5"):
        load_parses(path)
    assert len(opened) == 1 and opened[0].closed
    path.write_text(GOOD_PARSE)
    parses = load_parses(path)
    assert parses["aal"] and not opened[1].closed
    del parses
    assert opened[1].closed


def test_load_parses_invalid_tree_maps_to_none(tmp_path):
    path = tmp_path / "parses.txt"
    path.write_text(
        "# commit = bad\n# text = two roots\n1\ta\ta\t0\troot\n2\tb\tb\t0\troot\n"
    )
    assert load_parses(path) == {"bad": None}


def test_load_parses_bad_column_count(tmp_path):
    path = tmp_path / "parses.txt"
    path.write_text("# commit = x\n1\ta\ta\t0\n")
    with pytest.raises(SchemaError):
        load_parses(path)


def test_load_parses_rows_before_commit(tmp_path):
    path = tmp_path / "parses.txt"
    path.write_text("1\ta\ta\t0\troot\n")
    with pytest.raises(SchemaError):
        load_parses(path)


def test_load_parses_non_numeric_index(tmp_path):
    path = tmp_path / "parses.txt"
    path.write_text("# commit = x\none\ta\ta\t0\troot\n")
    with pytest.raises(SchemaError):
        load_parses(path)


def test_trees_are_built_only_for_messages_past_the_prefilter(tmp_path, monkeypatch):
    built = []

    class Spy(SentenceTree):
        def __init__(self, text, tokens):
            built.append(text)
            super().__init__(text, tokens)

    monkeypatch.setattr(miner, "SentenceTree", Spy)
    path = tmp_path / "parses.txt"
    path.write_text(GOOD_PARSE)
    parses = load_parses(path)
    assert built == []
    events = [
        _event("org/app", "bbl", "second message, no fix word"),
        _event("org/app", "aal", "fixes a bug introduced by 2508e12"),
    ]
    analyses = list(analyze_events(events, parses=parses))
    assert built == ["fixes a bug introduced by 2508e12"]
    assert [a.verdict for a in analyses] == ["rejected", "accepted"]


# --- memory held while mining ------------------------------------------------------------


def _held_bytes(build):
    """Bytes that ``build()``'s result still holds when it returns, and
    the result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


_VOCAB = (
    "fix", "fixes", "the", "a", "crash", "bug", "in", "parser", "when", "input",
    "is", "empty", "introduced", "by", "error", "handling", "of", "config", "files",
)


def test_parses_hold_no_sentence_text(tmp_path):
    # sentences wait in the spill: the same commits with every sentence
    # three times longer leave only where they lie in memory
    def held(scale):
        rng = random.Random(7)
        lines = []
        for _ in range(1500):
            lines.append(f"# commit = {rng.getrandbits(160):040x}")
            for _ in range(rng.randint(1, 3)):
                forms = [rng.choice(_VOCAB) for _ in range(rng.randint(5, 14))] * scale
                lines.append(f"# text = {' '.join(forms)}")
                lines += [f"{i}\t{f}\t{f}\t{i - 1}\tdep" for i, f in enumerate(forms, 1)]
                lines.append("")
        path = tmp_path / f"parses{scale}.txt"
        path.write_text("\n".join(lines) + "\n")
        size, parses = _held_bytes(lambda: load_parses(path))
        assert len(parses) == 1500
        parses.close()
        return size, path.stat().st_size

    held(1)  # the first spill also sets up tempfile's own state
    (short, short_file), (long, long_file) = held(1), held(3)
    assert long_file > 2 * short_file + 500_000
    assert abs(long - short) < 4 * 1024


def test_mining_memory_does_not_grow_with_rejected_events(tmp_path):
    # records go to the spill as they come: twice the events, from a
    # generator, leave the traced peak where it was
    def peak(n):
        events = (_event("org/app", f"{i:040x}", f"update the docs, take {i}") for i in range(n))
        tracemalloc.start()
        try:
            summary = write_mined(analyze_events(events), str(tmp_path / "mined.ndjson"))
            return tracemalloc.get_traced_memory()[1], summary
        finally:
            tracemalloc.stop()

    small, summary = peak(20000)
    assert summary.rejected_by_reason == {PREFILTER: 20000}
    large, summary = peak(40000)
    assert summary.rejected_by_reason == {PREFILTER: 40000}
    assert abs(large - small) < 16 * 1024


def test_fork_dedupe_holds_no_repository_name(tmp_path):
    # per accepted commit only its place is held; the repository names of
    # the few repeated commits are read back from the spill at the end
    def peak(pad):
        analyses = (
            _hit(f"fork{i}/{pad}", f"{i % 2996:040x}") for i in range(3000)
        )
        tracemalloc.start()
        try:
            summary = write_mined(analyses, str(tmp_path / "mined.ndjson"))
            return tracemalloc.get_traced_memory()[1], summary
        finally:
            tracemalloc.stop()

    short, summary = peak("")
    assert (summary.accepted, summary.duplicates_removed) == (2996, 4)
    long, _ = peak("x" * 1024)
    assert long - short < 16 * 1024


# --- lazy parses against eagerly built trees ---------------------------------------------


class _EagerTree(SentenceTree):
    """The tree as first written: one fresh head walk per token to find a
    cycle, and the children map rebuilt on every ``descendants`` call."""

    def _validate(self) -> None:
        if not self.tokens:
            raise SchemaError("empty sentence")
        if len({t.index for t in self.tokens}) != len(self.tokens):
            raise SchemaError("repeated index")
        roots = 0
        for t in self.tokens:
            if t.index < 1:
                raise SchemaError("non-positive index")
            head = 0 if t.head == t.index else t.head
            if head == 0:
                roots += 1
            elif head not in self._by_index:
                raise SchemaError("out-of-range head")
        if roots != 1:
            raise SchemaError("not one root")
        for t in self.tokens:
            seen = set()
            cur = t.index
            while cur != 0:
                if cur in seen:
                    raise SchemaError("cycle")
                seen.add(cur)
                head = self._by_index[cur].head
                cur = 0 if head == cur else head

    def descendants(self, index):
        children = {}
        for t in self.tokens:
            children.setdefault(0 if t.head == t.index else t.head, []).append(t.index)
        out = []
        stack = list(children.get(index, ()))
        while stack:
            i = stack.pop()
            out.append(self._by_index[i])
            stack.extend(children.get(i, ()))
        return sorted(out, key=lambda t: t.index)


class _EagerParses(dict):
    """Trees by commit, with the ``close()`` that ``cmd_mine`` calls."""

    def close(self) -> None:
        pass


def _eager_parses(path) -> _EagerParses:
    """``load_parses`` as first written: every tree is built and validated
    while the file is read, and a commit maps to None from its first
    failing sentence on."""
    result = _EagerParses()
    commit, text, rows = None, "", []

    def flush():
        nonlocal text, rows
        if not rows:
            return
        if commit is None:
            raise SchemaError("token rows before any '# commit =' line")
        if result.get(commit, []) is not None:
            try:
                result.setdefault(commit, []).append(_EagerTree(text, rows))
            except SchemaError:
                result[commit] = None
        text, rows = "", []

    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush()
            elif line.startswith("#"):
                key, _, value = line.lstrip("#").partition("=")
                key = key.strip()
                if key in ("commit", "text"):
                    flush()  # either header starts a new sentence
                    if key == "commit":
                        commit = value.strip()
                    else:
                        text = value.strip()
            else:
                cols = line.split("\t")
                if len(cols) != 5:
                    raise SchemaError(f"{path}:{line_no}: expected 5 tab-separated columns")
                try:
                    rows.append(Token(int(cols[0]), cols[1], cols[2], int(cols[3])))
                except ValueError as exc:
                    raise SchemaError(f"{path}:{line_no}: {exc}") from None
    flush()
    return result


# the last words hold characters that str.splitlines breaks a line on,
# and the parse-file reader does not
_WORDS = (
    "fixes", "fix", "solve", "bug", "error", "introduced", "by", "the", "revert",
    "was", "attempt", "a1b2c3d4", "2508e12", "deadbeef",
    "bug\x0b", "\x0cfix", "er\x1cror", "by\x85", "the\u2028end", "fixed\x85",
)
_LEMMAS = {
    "fixes": "fix", "introduced": "introduce", "the\u2028end": "the\x0bend",
    "fixed\x85": "fix\u2028", "by\x85": "b\x1cy",
}
_SHAS = ("c0", "c1", "c2", "c3", "c4")


@st.composite
def _sentence_rows(draw) -> tuple[str, list[tuple], bool, bool]:
    """A sentence's text, its token rows, whether a ``# text`` line gives
    the text and whether a blank line follows the rows. The rows form a
    tree over shuffled indices, perhaps with a self-loop root, or one
    broken by a second root, a dangling head, a cycle or a repeated row."""
    n = draw(st.integers(1, 7))
    forms = draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n))
    heads = [0] + [draw(st.integers(1, i)) for i in range(1, n)]
    if draw(st.booleans()):
        heads[0] = 1
    fault = draw(st.sampled_from(("none", "none", "two-roots", "dangling", "cycle", "repeat")))
    if fault == "two-roots" and n > 1:
        heads[draw(st.integers(1, n - 1))] = 0
    elif fault == "dangling":
        heads[draw(st.integers(0, n - 1))] = n + draw(st.integers(1, 3))
    elif fault == "cycle" and n > 2:
        j = draw(st.integers(2, n - 1))
        k = draw(st.integers(j + 1, n))
        heads[j - 1], heads[k - 1] = k, j
    index = [0, *draw(st.permutations(range(1, n + 1)))]
    rows = [
        (index[i], forms[i - 1], _LEMMAS.get(forms[i - 1], forms[i - 1]),
         index[heads[i - 1]] if heads[i - 1] <= n else heads[i - 1], "dep")
        for i in range(1, n + 1)
    ]
    if fault == "repeat":
        rows.append(draw(st.sampled_from(rows)))
    rows = draw(st.permutations(rows))
    return " ".join(forms), rows, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.sampled_from(_SHAS), st.lists(_sentence_rows(), min_size=1, max_size=3)),
        max_size=8,
    ),
    pushes=st.lists(
        st.tuples(
            st.sampled_from(("org/app", "fork/app")),
            st.sampled_from((*_SHAS, "c5")),
            st.sampled_from(("fix the bug:", "merge the bug fix:", "docs:")),
        ),
        max_size=12,
    ),
    proximity=st.booleans(),
)
def test_lazy_parses_mine_like_eager_trees(blocks, pushes, proximity):
    """Differential: the same commit may come back in a later block, so a
    failing later sentence turns a commit whose first trees were good
    into None; a ``# text`` line may follow the rows before it with no
    blank line; forks push the same messages again."""
    texts: dict[str, list[str]] = {}
    parse_text = ""
    for sha, sentences in blocks:
        parse_text += f"# commit = {sha}\n"
        for text, rows, with_text, blank in sentences:
            texts.setdefault(sha, []).append(text)
            parse_text += f"# text = {text}\n" * with_text
            parse_text += "".join("\t".join(map(str, row)) + "\n" for row in rows)
            parse_text += "\n" * blank
    events = [
        _event(repo, sha, " ".join([prefix, *texts.get(sha, ["a1b2c3d4"])]))
        for repo, sha, prefix in pushes
    ]
    with tempfile.TemporaryDirectory() as tmp:
        parses_path = Path(tmp, "parses.txt")
        parses_path.write_text(parse_text)
        events_path = Path(tmp, "events.ndjson")
        events_path.write_text("".join(json.dumps(e) + "\n" for e in events))

        lazy, eager = load_parses(parses_path), _eager_parses(parses_path)
        assert lazy.keys() == eager.keys()
        for sha, trees in eager.items():
            got = lazy[sha]
            assert (got is None) == (trees is None)
            for tree, want in zip(got or (), trees or ()):
                assert (tree.text, tree.tokens) == (want.text, want.tokens)
                for t in tree.tokens:
                    assert tree.ancestors(t.index) == want.ancestors(t.index)
                    assert tree.descendants(t.index) == want.descendants(t.index)
        assert list(analyze_events(events, lazy, proximity)) == list(analyze_events(events, eager, proximity))

        argv = ["mine", str(events_path), "--parses", str(parses_path)]
        argv += ["--proximity"] * proximity
        assert main([*argv, "--out", str(Path(tmp, "lazy"))]) == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(miner, "load_parses", _eager_parses)
            assert main([*argv, "--out", str(Path(tmp, "eager"))]) == 0
        assert Path(tmp, "lazy").read_bytes() == Path(tmp, "eager").read_bytes()


# --- gharchive events ------------------------------------------------------------------


def test_events_from_gharchive():
    payload = {
        "type": "PushEvent",
        "repo": {"name": "org/app"},
        "payload": {
            "commits": [
                {"sha": "abc", "message": "fix bug"},
                {"sha": "def"},  # no message, dropped
                {"message": "no sha"},
            ]
        },
    }
    assert events_from_gharchive(payload) == [
        {"repo": "org/app", "sha": "abc", "message": "fix bug"}
    ]
    assert events_from_gharchive({"type": "IssuesEvent"}) == []
    assert events_from_gharchive({"type": "PushEvent"}) == []


# --- properties --------------------------------------------------------------------------


@given(st.text(max_size=200))
def test_prefilter_never_crashes(message):
    word_prefilter(message)


@given(st.text(alphabet="0123456789abcdefx _.,", max_size=80))
def test_extracted_hashes_are_well_formed(sentence):
    for h in HASH_RE.findall(sentence):
        assert 6 <= len(h) <= 40
        assert all(c in "0123456789abcdef" for c in h)
        assert h in sentence


@given(st.text(max_size=200))
def test_split_sentences_covers_content(message):
    parts = split_sentences(message)
    assert all(p.strip() for p in parts)
