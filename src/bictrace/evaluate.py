"""Scoring detector output against an oracle.

All set metrics work on true positives tagged per oracle entry, i.e. on
(repo, fix commit, detected hash) triples, so the same hash appearing in
two repositories, or supporting two different fixes, never collides.

Corner conventions are fixed rather than left undefined: precision is 0
when nothing was identified, F1 is 0 when precision and recall are both 0,
and the overlap of two empty true-positive sets is 1 (two detectors that
both found nothing agree perfectly). Undefined is a value, None: a run
that covers no oracle entry has None metrics, and two runs that cover
different entries, or none, have None overlap and exclusive share.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigurationError, SchemaError
from .oracle import OracleDataset

EntryKey = tuple[str, str]  # (repo, fix_commit)
Tagged = tuple[str, str, str]  # (repo, fix_commit, hash)


@dataclass
class DetectionRun:
    variant: str
    regime: str = "none"
    identified: dict[EntryKey, frozenset[str]] = field(default_factory=dict)
    entry_flags: dict[EntryKey, tuple[str, ...]] = field(default_factory=dict)
    skipped: list[EntryKey] = field(default_factory=list)
    outliers_removed: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class Metrics:
    recall: float | None  # None, as precision and f1, when no entry is covered
    precision: float | None
    f1: float | None
    correct: int = 0
    identified: int = 0
    true_positives: int = 0


def _f1(precision: float, recall: float) -> float:
    if precision == 0 and recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class Score:
    """One run scored against an oracle: its pooled and macro metrics, its
    tagged true positives, and the entries it reports on, which two runs
    must share for their overlap to be defined."""

    variant: str
    entries: frozenset[EntryKey]
    pooled: Metrics
    macro: Metrics
    true_positives: frozenset[Tagged]


def score(run: DetectionRun, oracle: OracleDataset) -> Score:
    """Score a run in one walk over the oracle entries it covers. Pooled
    metrics are micro-averaged over those entries; macro metrics weigh each
    bug fix equally and are summed in oracle order. Entry keys are unique
    in an oracle, as ``load_oracle`` checks. A short oracle hash is found
    when the run reports a hash it starts, and tags one true positive. A
    run that covers no entry scores None metrics and no entries."""
    correct = identified = 0
    tps: set[Tagged] = set()
    recalls: list[float] = []
    precisions: list[float] = []
    f1s: list[float] = []
    for entry in oracle.entries:
        key = (entry.repo, entry.fix_commit)
        found = run.identified.get(key)
        if found is None:
            continue
        truth = set(entry.true_bics)
        hits = {h for h in truth
                if h in found or len(h) < 40 and any(d.startswith(h) for d in found)}
        correct += len(truth)
        identified += len(found)
        tps.update((entry.repo, entry.fix_commit, h) for h in hits)
        r = len(hits) / len(truth)
        p = len(hits) / len(found) if found else 0.0
        recalls.append(r)
        precisions.append(p)
        f1s.append(_f1(p, r))
    if not recalls:
        undefined = Metrics(None, None, None)
        return Score(run.variant, frozenset(), undefined, undefined, frozenset())
    recall = len(tps) / correct
    precision = len(tps) / identified if identified else 0.0
    n = len(recalls)
    return Score(
        variant=run.variant,
        entries=frozenset(run.identified),
        pooled=Metrics(
            recall=recall,
            precision=precision,
            f1=_f1(precision, recall),
            correct=correct,
            identified=identified,
            true_positives=len(tps),
        ),
        macro=Metrics(
            recall=sum(recalls) / n,
            precision=sum(precisions) / n,
            f1=sum(f1s) / n,
        ),
        true_positives=frozenset(tps),
    )


def overlap(s_i: Score, s_j: Score) -> float | None:
    """Jaccard agreement of two runs' true-positive sets; 1 when both
    are empty, None when the runs cover different entries, or none."""
    if s_i.entries != s_j.entries or not s_i.entries:
        return None
    union = s_i.true_positives | s_j.true_positives
    if not union:
        return 1.0
    return len(s_i.true_positives & s_j.true_positives) / len(union)


def exclusive_correct(s_i: Score, scores: list[Score]) -> tuple[int, int, float] | None:
    """How much of the pooled truth only this run found: count of true
    positives unique to s_i, the size of the union of everyone's true
    positives, and their ratio (0 when the union is empty). Like
    ``overlap``, it is None when the runs cover different entries, or
    none: a true positive on an entry another run dropped is not exclusive."""
    others = [s for s in scores if s is not s_i]
    if not others:
        raise ValueError("exclusive-correct needs at least two runs")
    if not s_i.entries or any(s.entries != s_i.entries for s in others):
        return None
    tp_rest = frozenset().union(*(s.true_positives for s in others))
    numerator = len(s_i.true_positives - tp_rest)
    denominator = len(s_i.true_positives | tp_rest)
    fraction = numerator / denominator if denominator else 0.0
    return numerator, denominator, fraction


def outlier_filter(run: DetectionRun, threshold: int) -> DetectionRun:
    """Drop entries where the detector exploded (more identified commits
    than the threshold). Dropped entries leave the run entirely, shrinking
    the pooled denominators, and are reported separately. The result
    shares ``run``'s entry flags and skip list; neither is changed."""
    if threshold < 1:
        raise ConfigurationError("outlier threshold must be >= 1")
    kept: dict[EntryKey, frozenset[str]] = {}
    removed = list(run.outliers_removed)
    for key, hashes in run.identified.items():
        if len(hashes) > threshold:
            removed.append((key[0], key[1], len(hashes)))
        else:
            kept[key] = hashes
    return replace(run, identified=kept, outliers_removed=removed)


# -- run file round-trip -----------------------------------------------------


def save_run(run: DetectionRun, path: str | Path) -> None:
    entries = []
    for (repo, fix) in sorted(run.identified):
        rec = {
            "repo": repo,
            "fix_commit": fix,
            "identified": sorted(run.identified[(repo, fix)]),
        }
        flags = run.entry_flags.get((repo, fix))
        if flags:
            rec["flags"] = sorted(flags)
        entries.append(rec)
    doc = {
        "variant": run.variant,
        "regime": run.regime,
        "entries": entries,
        "skipped": [
            {"repo": r, "fix_commit": f} for r, f in sorted(run.skipped)
        ],
        "outliers_removed": [
            {"repo": r, "fix_commit": f, "identified_count": n}
            for r, f, n in sorted(run.outliers_removed)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# the type of each field of a run-file record; the lists hold strings
_RECORD_FIELDS = dict(repo=str, fix_commit=str, identified=list, flags=list, identified_count=int)


def _record(rec, names: tuple[str, ...], path, what: str, i: int) -> list:
    """The fields ``names`` of record ``i`` of a run file's ``what`` list,
    each of its type. The error names the record."""
    if not isinstance(rec, dict):
        raise SchemaError(f"{path}: {what} {i}: expected a JSON object")
    values = [*map(rec.get, names)]
    for name, value in zip(names, values):
        kind = _RECORD_FIELDS[name]
        if type(value) is not kind or kind is list and not {str}.issuperset(map(type, value)):
            if name not in rec:
                raise SchemaError(f"{path}: {what} {i} missing field {name!r}")
            raise SchemaError(f"{path}: {what} {i}: field {name!r} holds {value!r}")
    return values


def load_run(path: str | Path) -> DetectionRun:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not valid UTF-8: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    for key in ("variant", "entries"):
        if key not in doc:
            raise SchemaError(f"{path}: missing field {key!r}")
    lists = {key: doc.get(key, []) for key in ("entries", "skipped", "outliers_removed")}
    if not all(isinstance(value, list) for value in lists.values()):
        raise SchemaError(f"{path}: entries, skipped and outliers_removed must be lists")
    run = DetectionRun(variant=doc["variant"], regime=doc.get("regime", "none"))
    if not isinstance(run.variant, str) or not isinstance(run.regime, str):
        raise SchemaError(f"{path}: variant and regime must be strings")
    first: dict[EntryKey, tuple[str, int]] = {}  # a second record would count twice

    def claim(repo: str, fix: str, where: str, i: int) -> None:
        place, j = first.setdefault((repo, fix), (where, i))
        if (place, j) != (where, i):
            both = f"{place} {j} and {i}" if place == where else f"{place} {j} and {where} {i}"
            raise SchemaError(f"{path}: {both} both name {fix} in {repo}")

    for i, rec in enumerate(lists["entries"]):
        repo, fix, identified = _record(rec, ("repo", "fix_commit", "identified"), path, "entry", i)
        claim(repo, fix, "entries", i)
        run.identified[(repo, fix)] = frozenset(identified)
        if rec.get("flags"):
            run.entry_flags[(repo, fix)] = tuple(_record(rec, ("flags",), path, "entry", i)[0])
    for i, rec in enumerate(lists["skipped"]):
        repo, fix = _record(rec, ("repo", "fix_commit"), path, "skipped entry", i)
        claim(repo, fix, "skipped", i)
        run.skipped.append((repo, fix))
    for i, rec in enumerate(lists["outliers_removed"]):
        repo, fix, n = _record(rec, ("repo", "fix_commit", "identified_count"), path, "outlier", i)
        claim(repo, fix, "outliers_removed", i)
        run.outliers_removed.append((repo, fix, n))
    return run


# -- report emission ---------------------------------------------------------

def _cells(*values, form=repr) -> list[str]:
    """Values as table cells; empty when undefined."""
    return ["" if v is None else form(v) for v in values]


def emit_report(
    runs: list[DetectionRun],
    oracle: OracleDataset,
    out_dir: str | Path,
    outlier_threshold: int | None = None,
) -> dict[str, Path]:
    """Write metric tables for a set of runs: ``metrics.csv`` with pooled
    and macro rows, one symmetric overlap matrix per regime, an
    exclusive-correct table, outlier diagnostics when thresholding was
    requested, and a plain-text summary. Each run is first cut to the
    oracle's entries, so a run over a whole dataset scores any slice of it
    as a run over that slice would. An empty oracle, a run that the cut
    leaves with no entry, or a threshold below 1 is refused before anything
    is written; a run that outlier trimming empties scores as undefined.
    Every table is built as rows, header first, before the directory is
    made. Output is deterministic: equal inputs produce byte-identical files."""
    if not oracle.entries:
        raise ConfigurationError("cannot evaluate against an empty oracle")
    keys = {(e.repo, e.fix_commit) for e in oracle.entries}
    runs = sorted((replace(r, identified={k: v for k, v in r.identified.items() if k in keys},
                           skipped=[k for k in r.skipped if k in keys],
                           outliers_removed=[o for o in r.outliers_removed if o[:2] in keys])
                   for r in runs), key=lambda r: (r.regime, r.variant))
    if not all(r.identified for r in runs):
        raise ConfigurationError("run covers no oracle entries")
    if outlier_threshold is not None:
        runs = [outlier_filter(r, outlier_threshold) for r in runs]
    scores = [score(r, oracle) for r in runs]
    metrics = [["variant", "regime", "aggregation", "entries", "correct", "identified",
                "true_positives", "recall", "precision", "f1"]]
    for run, sc in zip(runs, scores):
        pooled, macro = sc.pooled, sc.macro
        n = len(run.identified)
        metrics.append([run.variant, run.regime, "pooled", n,
                        pooled.correct, pooled.identified, pooled.true_positives,
                        *_cells(pooled.recall, pooled.precision, pooled.f1)])
        metrics.append([run.variant, run.regime, "macro", n, "", "", "",
                        *_cells(macro.recall, macro.precision, macro.f1)])
    tables = {"metrics": metrics}

    by_regime: dict[str, list[Score]] = {}
    for run, sc in zip(runs, scores):
        by_regime.setdefault(run.regime, []).append(sc)
    exclusive = [["variant", "regime", "exclusive", "union", "fraction"]]
    for regime, group in sorted(by_regime.items()):
        # outlier drops can de-align two runs' coverage; a cell is
        # undefined then, not zero
        matrix = [["variant", *(s.variant for s in group)]]
        for s_i in group:
            matrix.append([s_i.variant, *_cells(*(overlap(s_i, s_j) for s_j in group))])
        tables[f"overlap_{regime}"] = matrix
        if len(group) < 2:
            continue
        for sc in group:
            cells = exclusive_correct(sc, group) or (None, None, None)
            exclusive.append([sc.variant, regime, *_cells(*cells)])
    tables["exclusive"] = exclusive

    if outlier_threshold is not None:
        outliers = [["variant", "regime", "repo", "fix_commit", "identified_count"]]
        for run in runs:
            for repo, fix, n in sorted(run.outliers_removed):
                outliers.append([run.variant, run.regime, repo, fix, n])
        tables["outliers"] = outliers

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for name, rows in tables.items():
        written[name] = out / f"{name}.csv"
        with open(written[name], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)

    written["summary"] = out / "summary.txt"
    with open(written["summary"], "w", encoding="utf-8") as fh:
        fh.write(f"oracle entries: {len(oracle.entries)}\n")
        if outlier_threshold is not None:
            fh.write(f"outlier threshold: >{outlier_threshold} identified per fix\n")
        fh.write("\n")
        header = f"{'variant':<10} {'regime':<16} {'recall':>8} {'precision':>10} {'f1':>8}"
        fh.write(header + "\n")
        fh.write("-" * len(header) + "\n")
        for run, sc in zip(runs, scores):
            pooled = sc.pooled
            recall, precision, f1 = _cells(pooled.recall, pooled.precision, pooled.f1,
                                           form="{:.3f}".format)
            row = f"{run.variant:<10} {run.regime:<16} {recall:>8} {precision:>10} {f1:>8}"
            fh.write(row.rstrip() + "\n")
            if run.skipped:
                fh.write(f"  skipped entries: {len(run.skipped)}\n")
            if run.outliers_removed:
                fh.write(f"  outliers removed: {len(run.outliers_removed)}\n")
    return written
