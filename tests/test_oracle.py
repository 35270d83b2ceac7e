"""Ground-truth dataset schema, round-tripping, and slicing."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from bictrace.errors import SchemaError
from bictrace.oracle import (
    IssueRef,
    OracleDataset,
    OracleEntry,
    entry_from_dict,
    entry_to_dict,
    from_legacy_records,
    load_oracle,
    parse_utc,
    save_oracle,
    subset_issues,
    subset_language,
    subset_supported,
    validate_dataset,
)

UTC = timezone.utc
T0 = datetime(2021, 6, 1, 12, 0, tzinfo=UTC)


def _entry(**kw) -> OracleEntry:
    base = dict(
        repo="org/app",
        fix_commit="f" * 40,
        true_bics=("b" * 40,),
    )
    base.update(kw)
    return OracleEntry(**base)


# --- timestamps -------------------------------------------------------------


def test_parse_utc_accepts_z_suffix():
    assert parse_utc("2021-06-01T12:00:00Z") == T0
    assert parse_utc("2021-06-01t12:00:00z".upper().lower()) == T0


def test_parse_utc_normalizes_offsets():
    assert parse_utc("2021-06-01T14:00:00+02:00") == T0


def test_parse_utc_rejects_naive_and_garbage():
    with pytest.raises(SchemaError):
        parse_utc("2021-06-01T12:00:00")
    with pytest.raises(SchemaError):
        parse_utc("last tuesday")


# --- validation -------------------------------------------------------------


def test_valid_dataset_passes():
    validate_dataset(OracleDataset(entries=[_entry()]))


def test_rejects_bad_hashes():
    with pytest.raises(SchemaError):
        validate_dataset(OracleDataset(entries=[_entry(fix_commit="XYZ")]))
    with pytest.raises(SchemaError):
        validate_dataset(OracleDataset(entries=[_entry(true_bics=("abc",))]))
    with pytest.raises(SchemaError):
        validate_dataset(OracleDataset(entries=[_entry(true_bics=())]))


def test_rejects_self_inducing_fix():
    with pytest.raises(SchemaError):
        validate_dataset(
            OracleDataset(entries=[_entry(true_bics=("b" * 40, "f" * 40))])
        )


def test_rejects_duplicate_fix_in_same_repo():
    with pytest.raises(SchemaError):
        validate_dataset(OracleDataset(entries=[_entry(), _entry()]))
    # the same fix hash in two different repos is fine (forks)
    validate_dataset(OracleDataset(entries=[_entry(), _entry(repo="fork/app")]))


def test_rejects_empty_repo():
    with pytest.raises(SchemaError):
        validate_dataset(OracleDataset(entries=[_entry(repo="")]))


# --- save / load ------------------------------------------------------------


def _rich_dataset() -> OracleDataset:
    return OracleDataset(
        entries=[
            _entry(
                repo="org/zeta",
                issues=(IssueRef("https://x.invalid/1", T0),),
                languages=("C", "Ruby"),
                clone_path="zeta",
            ),
            _entry(repo="org/alpha", languages=("C",)),
        ],
        provenance="unit test data",
    )


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "oracle.json"
    ds = _rich_dataset()
    save_oracle(ds, path)
    loaded = load_oracle(path)
    assert loaded.provenance == "unit test data"
    # entries come back sorted by (repo, fix)
    assert [e.repo for e in loaded.entries] == ["org/alpha", "org/zeta"]
    zeta = loaded.entries[1]
    assert zeta.issues == (IssueRef("https://x.invalid/1", T0),)
    assert zeta.languages == ("C", "Ruby")
    assert zeta.clone_path == "zeta"
    assert zeta.issue_dates == [T0]


def test_saved_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_oracle(_rich_dataset(), a)
    save_oracle(_rich_dataset(), b)
    assert a.read_bytes() == b.read_bytes()


def test_counts_cross_check(tmp_path):
    path = tmp_path / "oracle.json"
    save_oracle(_rich_dataset(), path)
    doc = path.read_text()
    assert '"entries": 2' in doc
    # corrupt the stated count and the loader must notice
    path.write_text(doc.replace('"entries": 2', '"entries": 5'))
    with pytest.raises(SchemaError):
        load_oracle(path)


def test_load_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[]")
    with pytest.raises(SchemaError):
        load_oracle(path)
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        load_oracle(path)
    path.write_text('{"schema_version": 99, "entries": []}')
    with pytest.raises(SchemaError):
        load_oracle(path)


def test_load_rejects_issue_without_date(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"entries": [{"repo": "r", "fix_commit": "%s",'
        ' "true_bics": ["%s"], "issues": [{"url": "u"}]}]}' % ("f" * 40, "b" * 40)
    )
    with pytest.raises(SchemaError):
        load_oracle(path)


def test_languages_canonicalized_on_load(tmp_path):
    path = tmp_path / "oracle.json"
    path.write_text(
        '{"entries": [{"repo": "r", "fix_commit": "%s",'
        ' "true_bics": ["%s"], "languages": ["js", "CPP"]}]}' % ("f" * 40, "b" * 40)
    )
    assert load_oracle(path).entries[0].languages == ("JavaScript", "C++")


# --- slicing -----------------------------------------------------------------


def test_subsets():
    with_issue = _entry(
        repo="org/a", issues=(IssueRef("u", T0),), languages=("C",)
    )
    plain = _entry(repo="org/b", languages=("C", "Rust"))
    ruby = _entry(repo="org/c", languages=("Ruby",))
    unlabeled = _entry(repo="org/d")
    ds = OracleDataset(entries=[with_issue, plain, ruby, unlabeled])

    assert [e.repo for e in subset_issues(ds).entries] == ["org/a"]
    assert [e.repo for e in subset_language(ds, "ruby").entries] == ["org/c"]
    # Rust is unsupported and unlabeled entries do not count as supported
    assert [e.repo for e in subset_supported(ds).entries] == ["org/a", "org/c"]
    assert ds.counts_by_language() == {"C": 2, "Ruby": 1, "Rust": 1}


# --- legacy import -----------------------------------------------------------


def test_legacy_records_merge_by_fix():
    records = [
        {
            "repo_name": "org/app",
            "fix_commit_hash": "f" * 40,
            "inducing_commit_hash": "a" * 40,
            "earliest_issue_date": "2021-06-01T12:00:00Z",
            "issue_url": "https://x.invalid/7",
            "language": "C",
        },
        {
            "repo_name": "org/app",
            "fix_commit_hash": "f" * 40,
            "inducing_commit_hash": "b" * 40,
            "earliest_issue_date": "2021-06-01T12:00:00Z",
            "issue_url": "https://x.invalid/7",
            "language": "C",
        },
    ]
    ds = from_legacy_records(records)
    assert len(ds) == 1
    entry = ds.entries[0]
    assert entry.true_bics == ("a" * 40, "b" * 40)
    assert len(entry.issues) == 1  # identical issue rows collapse
    assert entry.languages == ("C",)
    assert ds.provenance == "imported"


def test_legacy_records_need_identifiers():
    with pytest.raises(SchemaError):
        from_legacy_records([{"fix_commit_hash": "f" * 40}])
    with pytest.raises(SchemaError):
        from_legacy_records([{"repo_name": "org/app"}])
    with pytest.raises(SchemaError, match="record 1: expected an object"):
        from_legacy_records([{"repo_name": "org/app", "fix_commit_hash": "f" * 40}, "x"])


def test_legacy_list_fields():
    ds = from_legacy_records(
        [
            {
                "repo": "org/app",
                "fix_commit": "f" * 40,
                "true_bics": ["a" * 40, "a" * 40],
                "languages": ["js"],
            }
        ]
    )
    assert ds.entries[0].true_bics == ("a" * 40,)
    assert ds.entries[0].languages == ("JavaScript",)


# --- scripted suite dataset ----------------------------------------------------


def test_suite_oracle_is_valid_and_complete(suite, suite_dataset):
    validate_dataset(suite_dataset)
    assert len(suite_dataset) == len(suite)
    by_repo = {e.repo: e for e in suite_dataset.entries}
    assert set(by_repo) == set(suite)
    for name, sc in suite.items():
        assert by_repo[name].fix_commit == sc.fix
        assert set(by_repo[name].true_bics) == set(sc.true_bics)


def test_suite_oracle_round_trips(suite_dataset, tmp_path):
    path = tmp_path / "suite.json"
    save_oracle(suite_dataset, path)
    loaded = load_oracle(path)
    assert {e.fix_commit for e in loaded.entries} == {
        e.fix_commit for e in suite_dataset.entries
    }
    issue_entries = subset_issues(loaded)
    assert len(issue_entries) >= 1
    for e in issue_entries.entries:
        assert all(i.opened_at.tzinfo is not None for i in e.issues)


def test_readme_example_entry_keeps_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    back = entry_to_dict(entry_from_dict(example, 0))
    for key, shown in example.items():
        if key != "issues":
            assert back.get(key) == shown, key
    assert [issue.keys() for issue in back["issues"]] == [issue.keys() for issue in example["issues"]]
    for got, shown in zip(back["issues"], example["issues"]):
        assert got["url"] == shown["url"]
        assert parse_utc(got["opened_at"]) == parse_utc(shown["opened_at"])
