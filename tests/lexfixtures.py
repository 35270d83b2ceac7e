"""Loader for the hand-labeled line-classification fixtures.

Each file under tests/data/lexer holds exactly one line per source line in
the form ``label|source``. Labels were assigned by hand while writing the
snippets, so they are an oracle independent of the scanner.
"""

from __future__ import annotations

from pathlib import Path

from bictrace.langfilters import LineClass, canonical_language

DATA_DIR = Path(__file__).parent / "data" / "lexer"

# each fixture's stem names its language: cpp.txt is C++, csharp.txt is C#
FIXTURE_LANGUAGES = {
    path.name: canonical_language(path.stem) for path in sorted(DATA_DIR.glob("*.txt"))
}

_LABELS = {
    "code": LineClass.CODE,
    "comment": LineClass.COMMENT,
    "blank": LineClass.BLANK,
    "mixed": LineClass.MIXED,
}


def load_fixture(filename: str) -> tuple[str, str, list[LineClass]]:
    """Return (language, source text, expected classes) for one fixture."""
    language = FIXTURE_LANGUAGES[filename]
    sources: list[str] = []
    expected: list[LineClass] = []
    raw = (DATA_DIR / filename).read_text(encoding="utf-8")
    for lineno, row in enumerate(raw.split("\n")[:-1], start=1):
        label, sep, source = row.partition("|")
        if not sep or label not in _LABELS:
            raise ValueError(f"{filename}:{lineno}: bad fixture row {row!r}")
        sources.append(source)
        expected.append(_LABELS[label])
    return language, "\n".join(sources) + "\n", expected
