"""Line classification and cosmetic-change detection.

A single-pass scanner per language family assigns each physical line one of
four classes: Code, Comment, Blank, or MixedCodeComment. The
scanner tracks just enough lexical state (strings, block comments, here-docs)
that comment markers inside string literals never count as comments. It is
deliberately not a full lexer: regex literals, preprocessor tricks, and
multiple here-docs per line are out of scope, and a line continuation at the
end of a single-line string is treated as the string ending.

Cosmetic comparison is whitespace squashing: two texts are cosmetically equal
when they are identical after removing every whitespace character, which is
the same as comparing their token streams with tokens glued back together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LineClass(enum.Enum):
    CODE = "code"
    COMMENT = "comment"
    BLANK = "blank"
    MIXED = "mixed-code-comment"


C = "C"
CPP = "C++"
CSHARP = "C#"
JAVA = "Java"
JAVASCRIPT = "JavaScript"
RUBY = "Ruby"
PHP = "PHP"
PYTHON = "Python"
UNSUPPORTED = "Unsupported"

SUPPORTED_LANGUAGES = (C, CPP, CSHARP, JAVA, JAVASCRIPT, RUBY, PHP, PYTHON)

EXTENSION_MAP: dict[str, str] = {
    ".c": C,
    ".h": C,
    ".cpp": CPP,
    ".cc": CPP,
    ".cxx": CPP,
    ".hpp": CPP,
    ".hh": CPP,
    ".hxx": CPP,
    ".cs": CSHARP,
    ".java": JAVA,
    ".js": JAVASCRIPT,
    ".jsx": JAVASCRIPT,
    ".mjs": JAVASCRIPT,
    ".cjs": JAVASCRIPT,
    ".rb": RUBY,
    ".php": PHP,
    ".py": PYTHON,
}

LANGUAGE_ALIASES: dict[str, str] = {
    "c": C,
    "c++": CPP,
    "cpp": CPP,
    "c#": CSHARP,
    "csharp": CSHARP,
    "java": JAVA,
    "javascript": JAVASCRIPT,
    "js": JAVASCRIPT,
    "ruby": RUBY,
    "php": PHP,
    "python": PYTHON,
}


def canonical_language(name: str) -> str:
    return LANGUAGE_ALIASES.get(name.strip().lower(), name.strip())


def language_for_path(path: str) -> str:
    dot = path.rfind(".")
    if dot == -1:
        return UNSUPPORTED
    return EXTENSION_MAP.get(path[dot:].lower(), UNSUPPORTED)


@dataclass
class _Scan:
    # per-line accumulators plus carry-over lexical state
    has_code: bool = False
    has_comment: bool = False
    block_comment: bool = False      # inside /* */ or =begin/=end
    string_quote: str | None = None  # active quote token, e.g. '"' or '"""'
    string_escapes: bool = True
    string_multiline: bool = False
    heredoc_end: str | None = None

    def reset_line(self) -> None:
        self.has_code = False
        self.has_comment = False


_C_FAMILY = {C, CPP, CSHARP, JAVA, JAVASCRIPT}


def _scan_line(line: str, language: str, st: _Scan) -> None:
    i = 0
    n = len(line)

    if st.heredoc_end is not None:
        if line.strip().rstrip(";,") == st.heredoc_end:
            st.heredoc_end = None
        if line.strip():
            st.has_code = True
        return

    if st.block_comment and language == RUBY:
        st.has_comment = bool(line.strip())
        if line.startswith("=end"):
            st.block_comment = False
        return

    if language == RUBY and st.string_quote is None and line.startswith("=begin"):
        st.block_comment = True
        st.has_comment = bool(line.strip())
        return

    while i < n:
        ch = line[i]

        if st.block_comment:
            end = line.find("*/", i)
            if end == -1:
                if line[i:].strip():
                    st.has_comment = True
                return
            st.has_comment = True
            i = end + 2
            st.block_comment = False
            continue

        if st.string_quote is not None:
            q = st.string_quote
            if st.string_escapes and ch == "\\":
                i += 2
                continue
            if q == '@"':
                # verbatim string: doubled quote is a literal quote
                if ch == '"':
                    if i + 1 < n and line[i + 1] == '"':
                        i += 2
                        continue
                    st.string_quote = None
                i += 1
                continue
            if line.startswith(q, i):
                st.string_quote = None
                i += len(q)
                continue
            i += 1
            continue

        if ch in " \t\r\f\v":
            i += 1
            continue

        # comment openers
        if language in _C_FAMILY or language == PHP:
            if line.startswith("//", i):
                st.has_comment = True
                return
            if line.startswith("/*", i):
                st.has_comment = True
                st.block_comment = True
                i += 2
                continue
        if language in (PYTHON, RUBY, PHP) and ch == "#":
            st.has_comment = True
            return

        # string openers
        if language == PYTHON and (line.startswith('"""', i) or line.startswith("'''", i)):
            st.string_quote = line[i] * 3
            st.string_escapes = True
            st.string_multiline = True
            st.has_code = True
            i += 3
            continue
        if language == CSHARP and line.startswith('@"', i):
            st.string_quote = '@"'
            st.string_escapes = False
            st.string_multiline = True
            st.has_code = True
            i += 2
            continue
        if ch in "\"'" or (language == JAVASCRIPT and ch == "`"):
            st.string_quote = ch
            st.string_escapes = True
            st.string_multiline = ch == "`" or language in (RUBY, PHP)
            st.has_code = True
            i += 1
            continue

        # here-doc openers (consume the rest of the line as code);
        # an identifier char right before << means shift/append, not a here-doc
        tag = None
        if language == RUBY and line.startswith("<<", i):
            prev = line[i - 1] if i > 0 else " "
            j = i + 3 if line[i + 2 : i + 3] in ("-", "~") else i + 2
            if not (prev.isalnum() or prev in "_)]"):
                tag = _heredoc_tag(line, j, "\"'`")
        elif language == PHP and line.startswith("<<<", i):
            tag = _heredoc_tag(line, len(line) - len(line[i + 3 :].lstrip(" \t")), "\"'")
        if tag is not None:
            st.heredoc_end = tag
            st.has_code = True
            return

        st.has_code = True
        i += 1

    # single-line strings do not survive the line break
    if st.string_quote is not None and not st.string_multiline:
        st.string_quote = None


def _heredoc_tag(line: str, j: int, quotes: str) -> str | None:
    """The here-doc tag starting at ``line[j]``: an identifier, perhaps in
    one of ``quotes`` that must close right after it; None if there is none."""
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
    if lines and lines[-1] == "" and content.endswith("\n"):
        lines.pop()
    scan = language in SUPPORTED_LANGUAGES
    st = _Scan()
    out: list[LineClass] = []
    for raw in lines:
        st.reset_line()
        if scan:
            _scan_line(raw, language, st)
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
