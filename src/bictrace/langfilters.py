"""Line classification and cosmetic-change detection.

``LANGUAGES`` holds one row of syntax facts per supported language. One
scanner reads any row and gives each physical line one of four classes:
Code, Comment, Blank, or MixedCodeComment. It tracks just enough lexical
state (strings, block comments, here-docs) that comment markers inside
strings never count as comments, and a line that a string spans has code.
Adding a language means adding a row and a hand-labeled fixture under
``tests/data/lexer``. Rows name PHP 8's ``#[`` attribute opener as
code, not a ``#`` comment, and the raw strings of C++ (``R"(`` to
``)"``) and C# 11 (three double quotes each way), which span lines and
have no escape. The scanner is deliberately not a full lexer: regex
literals, preprocessor tricks, and multiple here-docs per line are out
of scope; a line continuation at the end of a single-line string ends
it; and a C++ raw string with a delimiter (``R"x(`` to ``)x"``) or a C#
raw string with more than three quotes is not read as a raw string.

Cosmetic comparison is whitespace squashing: two texts are cosmetically equal
when they are identical after removing every whitespace character, which is
the same as comparing their token streams with tokens glued back together.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass


class LineClass(enum.Enum):
    CODE = "code"
    COMMENT = "comment"
    BLANK = "blank"
    MIXED = "mixed-code-comment"


@dataclass(frozen=True)
class Quote:
    opener: str
    closer: str
    escape: str  # a pattern for what inside the string never closes it
    spans: bool  # whether the string may run on past its line's end

    @functools.cached_property
    def end(self) -> re.Pattern:
        """Finds the next escape or closer; only a closer fills group 1."""
        return re.compile(f"(?:{self.escape})|({re.escape(self.closer)})")


@dataclass(frozen=True)
class Syntax:
    """The lexical facts the scanner reads for one language."""

    extensions: tuple[str, ...]
    line_comments: tuple[str, ...]
    block_comments: bool  # whether ``/* */`` comments the language
    quotes: tuple[Quote, ...]  # longest opener first
    heredoc: str | None = None  # the here-doc opener
    begin_end: bool = False  # whether ``=begin``/``=end`` lines are comments
    aliases: tuple[str, ...] = ()  # names besides the lowercased row name
    code_openers: tuple[str, ...] = ()  # code that a line-comment marker starts

    @functools.cached_property
    def opener(self) -> re.Pattern:
        """Finds the next code, comment, string or here-doc opener; code
        openers come first, so PHP's ``#[`` wins over ``#``."""
        block = ("/*",) if self.block_comments else ()
        heredoc = (self.heredoc,) if self.heredoc else ()
        tokens = (*self.code_openers, *self.line_comments, *block,
                  *(q.opener for q in self.quotes), *heredoc)
        return re.compile("|".join(map(re.escape, tokens)))

    @functools.cached_property
    def quote_for(self) -> dict[str, Quote]:
        return {q.opener: q for q in self.quotes}


_BACKSLASH = r"\\."  # a backslash escapes the character after it
_RAW = "(?!)"  # nothing escapes anything in a raw string
_LINE_QUOTES = tuple(Quote(q, q, _BACKSLASH, False) for q in "\"'")
_SPANNING_QUOTES = tuple(Quote(q, q, _BACKSLASH, True) for q in "\"'")

LANGUAGES: dict[str, Syntax] = {
    "C": Syntax((".c", ".h"), ("//",), True, _LINE_QUOTES),
    "C++": Syntax((".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx"), ("//",), True,
                  (Quote('R"(', ')"', _RAW, True), *_LINE_QUOTES), aliases=("cpp",)),
    "C#": Syntax((".cs",), ("//",), True,
                 (Quote('"""', '"""', _RAW, True), Quote('@"', '"', '""', True), *_LINE_QUOTES),
                 aliases=("csharp",)),
    "Java": Syntax((".java",), ("//",), True, _LINE_QUOTES),
    "JavaScript": Syntax((".js", ".jsx", ".mjs", ".cjs"), ("//",), True,
                         (Quote("`", "`", _BACKSLASH, True), *_LINE_QUOTES), aliases=("js",)),
    "Ruby": Syntax((".rb",), ("#",), False, _SPANNING_QUOTES, heredoc="<<", begin_end=True),
    "PHP": Syntax((".php",), ("//", "#"), True, _SPANNING_QUOTES, heredoc="<<<",
                  code_openers=("#[",)),
    "Python": Syntax((".py",), ("#",), False,
                     (*(Quote(q * 3, q * 3, _BACKSLASH, True) for q in "\"'"), *_LINE_QUOTES)),
}
UNSUPPORTED = "Unsupported"
SUPPORTED_LANGUAGES = tuple(LANGUAGES)
_BY_EXTENSION = {ext: name for name, row in LANGUAGES.items() for ext in row.extensions}
_BY_ALIAS = {alias: name for name, row in LANGUAGES.items()
             for alias in (name.lower(), *row.aliases)}


def canonical_language(name: str) -> str:
    return _BY_ALIAS.get(name.strip().lower(), name.strip())


def language_for_path(path: str) -> str:
    dot = path.rfind(".")
    return UNSUPPORTED if dot == -1 else _BY_EXTENSION.get(path[dot:].lower(), UNSUPPORTED)


@dataclass
class _Scan:
    # per-line accumulators plus carry-over lexical state
    has_code: bool = False
    has_comment: bool = False
    block_comment: bool = False  # inside /* */ or =begin/=end
    quote: Quote | None = None  # the string the scan is inside
    heredoc_end: str | None = None


_BLANKS = " \t\r\f\v"  # not str.strip()'s set: other Unicode spaces are code


def _scan_line(line: str, row: Syntax, st: _Scan) -> None:
    if st.heredoc_end is not None:
        if line.strip().rstrip(";,") == st.heredoc_end:
            st.heredoc_end = None
        st.has_code = bool(line.strip())
        return

    if row.begin_end and (st.block_comment or st.quote is None and line.startswith("=begin")):
        st.has_comment = bool(line.strip())
        st.block_comment = not line.startswith("=end")
        return

    i = 0
    while i < len(line):
        if st.block_comment:
            end = line.find("*/", i)
            if end == -1:
                st.has_comment |= bool(line[i:].strip())
                return
            st.has_comment, st.block_comment, i = True, False, end + 2
        elif st.quote is not None:
            st.has_code = True  # a line that a string spans has code
            m = st.quote.end.search(line, i)
            if m is None:
                break
            if m.group(1) is not None:
                st.quote = None
            i = m.end()
        else:
            m = row.opener.search(line, i)
            st.has_code |= bool(line[i : m.start() if m else None].strip(_BLANKS))
            if m is None:
                break
            token, i = m.group(), m.end()
            if token in row.line_comments:
                st.has_comment = True
                return
            if token == "/*":
                st.has_comment = st.block_comment = True
            elif token in row.code_openers:
                st.has_code = True
            elif token == row.heredoc:
                tag = _heredoc_tag(line, m.start(), token)
                st.has_code = True
                if tag is not None:
                    st.heredoc_end = tag
                    return
                i = m.start() + 1  # Ruby's <<<EOS opens at its second <
            else:
                st.quote, st.has_code = row.quote_for[token], True

    # single-line strings do not survive the line break
    if st.quote is not None and not st.quote.spans:
        st.quote = None


def _heredoc_tag(line: str, i: int, opener: str) -> str | None:
    """The tag of a here-doc whose ``opener`` starts at ``line[i]``: an
    identifier, perhaps in quotes that must close right after it; None if
    there is none. Ruby's ``<<`` takes one ``-`` or ``~`` and after an
    operand is a shift; PHP's ``<<<`` skips blanks."""
    j = i + len(opener)
    if opener == "<<":
        if i > 0 and (line[i - 1].isalnum() or line[i - 1] in "_)]"):
            return None
        j += line[j : j + 1] in ("-", "~")
        quotes = "\"'`"
    else:
        j = len(line) - len(line[j:].lstrip(" \t"))
        quotes = "\"'"
    quote = line[j] if j < len(line) and line[j] in quotes else ""
    j += len(quote)
    k = j
    while k < len(line) and (line[k].isalnum() or line[k] == "_"):
        k += 1
    if k == j or not (line[j].isalpha() or line[j] == "_") or line[k : k + len(quote)] != quote:
        return None
    return line[j:k]


def classify_lines(content: str, language: str) -> list[LineClass]:
    """Assign one class per physical line of ``content``.

    Whitespace-only lines are Blank no matter the surrounding lexical
    context. Unsupported languages are not scanned, so every non-blank
    line is Code and downstream filters never discard unknown content.
    """
    lines = content.split("\n")
    if lines[-1] == "":  # a line break ends a line; empty text has none
        lines.pop()
    row = LANGUAGES.get(language)
    st = _Scan()
    out: list[LineClass] = []
    for raw in lines:
        st.has_code = st.has_comment = False
        if row is not None:
            _scan_line(raw, row, st)
        if raw.strip() == "":
            out.append(LineClass.BLANK)
        elif st.has_code and st.has_comment:
            out.append(LineClass.MIXED)
        elif st.has_comment:
            out.append(LineClass.COMMENT)
        else:
            out.append(LineClass.CODE)
    return out


def squash_whitespace(text: str) -> str:
    return "".join(text.split())


def is_cosmetic_change(removed_text: str, added_text: str) -> bool:
    """True when two change sides differ only in whitespace."""
    return squash_whitespace(removed_text) == squash_whitespace(added_text)


def is_cosmetic_hunk(hunk) -> bool:
    """Hunk-level cosmetic test: the joined removed text must squash-equal
    the joined added text. Joining the sides first means a brace moved onto
    its own line still compares equal."""
    if not hunk.removed and not hunk.added:
        return True
    if not hunk.removed or not hunk.added:
        return False
    removed = "\n".join(text for _, text in hunk.removed)
    added = "\n".join(text for _, text in hunk.added)
    return is_cosmetic_change(removed, added)


def is_cosmetic_commit(repo, commit_id: str) -> bool:
    """True for commits that only reformat: every hunk against the first
    parent is cosmetic and no file appears or disappears. Root commits are
    never cosmetic."""
    meta = repo.commit_meta(commit_id)
    if not meta.parents:
        return False
    hunks = repo.diff_against_parent(meta.id, meta.parents[0])
    for hunk in hunks:
        if hunk.file_pre is None or hunk.file_post is None:
            return False
        if not is_cosmetic_hunk(hunk):
            return False
    return True
