"""Materialize the scripted history suite as real git repositories.

Writes everything the command line tools need to run against the desk
corpus: one clone per scripted history under OUT/clones, the matching
oracle dataset, and the refactored-range CSV for RA-lite.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from bictrace.oracle import save_oracle
from desk import build_all, suite_oracle, write_suite_refactorings


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", help="target directory (created if missing)")
    args = ap.parse_args(argv)

    out = Path(args.out)
    clones = out / "clones"
    if clones.exists():
        ap.error(f"{clones} already exists; pick a fresh directory")
    clones.mkdir(parents=True)

    suite = build_all(clones)
    dataset = suite_oracle(suite)
    save_oracle(dataset, out / "oracle.json")
    write_suite_refactorings(suite, out / "refactorings.csv")

    print(f"built {len(suite)} histories under {clones}")
    print(f"oracle: {out / 'oracle.json'} ({len(dataset)} entries)")
    print(f"refactorings: {out / 'refactorings.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
