"""Scoring detector output against an oracle.

All set metrics work on true positives tagged per oracle entry, i.e. on
(repo, fix commit, detected hash) triples, so the same hash appearing in
two repositories, or supporting two different fixes, never collides.

Corner conventions are fixed rather than left undefined: precision is 0
when nothing was identified, F1 is 0 when precision and recall are both 0,
and the overlap of two empty true-positive sets is 1 (two detectors that
both found nothing agree perfectly). Only a run that outlier trimming
leaves with no entry has no metrics, no overlap and no exclusive share.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import SchemaError
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
    when the run reports a hash it starts, and tags one true positive."""
    if not oracle.entries:
        raise ValueError("cannot evaluate against an empty oracle")
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
        raise ValueError("run covers no oracle entries")
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


def _same_coverage(s_i: Score, others: list[Score]) -> None:
    for s_j in others:
        if s_j.entries != s_i.entries:
            raise ValueError(f"runs {s_i.variant} and {s_j.variant} cover different entries")
        if not s_i.entries:
            raise ValueError(f"run {s_i.variant} covers no entries")


def overlap(s_i: Score, s_j: Score) -> float:
    """Jaccard agreement of two runs' true-positive sets; 1 when both
    are empty."""
    _same_coverage(s_i, [s_j])
    union = s_i.true_positives | s_j.true_positives
    if not union:
        return 1.0
    return len(s_i.true_positives & s_j.true_positives) / len(union)


def exclusive_correct(s_i: Score, scores: list[Score]) -> tuple[int, int, float]:
    """How much of the pooled truth only this run found: count of true
    positives unique to s_i, the size of the union of everyone's true
    positives, and their ratio (0 when the union is empty). Like
    ``overlap``, it refuses runs that cover different entries: a true
    positive on an entry another run dropped is not exclusive."""
    others = [s for s in scores if s is not s_i]
    if not others:
        raise ValueError("exclusive-correct needs at least two runs")
    _same_coverage(s_i, others)
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
        raise ValueError("outlier threshold must be >= 1")
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

def _cells(m: Metrics, form=repr) -> list[str]:
    """Recall, precision and f1 as table cells; empty when undefined."""
    return ["" if v is None else form(v) for v in (m.recall, m.precision, m.f1)]


METRICS_COLUMNS = (
    "variant",
    "regime",
    "aggregation",
    "entries",
    "correct",
    "identified",
    "true_positives",
    "recall",
    "precision",
    "f1",
)


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
    as a run over that slice would. A run that outlier trimming empties
    scores as undefined. Nothing is written unless every run scores.
    Output is deterministic: equal inputs produce byte-identical files."""
    keys = {(e.repo, e.fix_commit) for e in oracle.entries}
    runs = sorted((replace(r, identified={k: v for k, v in r.identified.items() if k in keys},
                           skipped=[k for k in r.skipped if k in keys],
                           outliers_removed=[o for o in r.outliers_removed if o[:2] in keys])
                   for r in runs), key=lambda r: (r.regime, r.variant))
    scores = [score(run, oracle) for run in runs]  # refuses an empty oracle, or a run outside it
    if outlier_threshold is not None:
        runs = [outlier_filter(r, outlier_threshold) for r in runs]
        undefined = Metrics(None, None, None)
        scores = [score(r, oracle) if r.identified
                  else Score(r.variant, frozenset(), undefined, undefined, frozenset()) for r in runs]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for run, sc in zip(runs, scores):
            pooled, macro = sc.pooled, sc.macro
            n = len(run.identified)
            writer.writerow(
                [
                    run.variant, run.regime, "pooled", n,
                    pooled.correct, pooled.identified, pooled.true_positives,
                    *_cells(pooled),
                ]
            )
            writer.writerow([run.variant, run.regime, "macro", n, "", "", "", *_cells(macro)])
    written["metrics"] = metrics_path

    by_regime: dict[str, list[Score]] = {}
    for run, sc in zip(runs, scores):
        by_regime.setdefault(run.regime, []).append(sc)

    for regime, group in sorted(by_regime.items()):
        matrix_path = out / f"overlap_{regime}.csv"
        with open(matrix_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variant", *(s.variant for s in group)])
            for s_i in group:
                row = [s_i.variant]
                for s_j in group:
                    try:
                        row.append(repr(overlap(s_i, s_j)))
                    except ValueError:
                        # outlier drops can de-align two runs' coverage;
                        # the cell is undefined then, not zero
                        row.append("")
                writer.writerow(row)
        written[f"overlap_{regime}"] = matrix_path

    exclusive_path = out / "exclusive.csv"
    with open(exclusive_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "regime", "exclusive", "union", "fraction"])
        for regime, group in sorted(by_regime.items()):
            if len(group) < 2:
                continue
            for sc in group:
                try:
                    count, denom, fraction = exclusive_correct(sc, group)
                    writer.writerow([sc.variant, regime, count, denom, repr(fraction)])
                except ValueError:
                    # undefined when outlier drops de-align coverage, as overlap
                    writer.writerow([sc.variant, regime, "", "", ""])
    written["exclusive"] = exclusive_path

    if outlier_threshold is not None:
        outliers_path = out / "outliers.csv"
        with open(outliers_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["variant", "regime", "repo", "fix_commit", "identified_count"]
            )
            for run in runs:
                for repo, fix, n in sorted(run.outliers_removed):
                    writer.writerow([run.variant, run.regime, repo, fix, n])
        written["outliers"] = outliers_path

    summary_path = out / "summary.txt"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(f"oracle entries: {len(oracle.entries)}\n")
        if outlier_threshold is not None:
            fh.write(f"outlier threshold: >{outlier_threshold} identified per fix\n")
        fh.write("\n")
        header = f"{'variant':<10} {'regime':<16} {'recall':>8} {'precision':>10} {'f1':>8}"
        fh.write(header + "\n")
        fh.write("-" * len(header) + "\n")
        for run, sc in zip(runs, scores):
            recall, precision, f1 = _cells(sc.pooled, "{:.3f}".format)
            row = f"{run.variant:<10} {run.regime:<16} {recall:>8} {precision:>10} {f1:>8}"
            fh.write(row.rstrip() + "\n")
            if run.skipped:
                fh.write(f"  skipped entries: {len(run.skipped)}\n")
            if run.outliers_removed:
                fh.write(f"  outliers removed: {len(run.outliers_removed)}\n")
    written["summary"] = summary_path

    return written
