"""Line classification and cosmetic-equality checks.

The eight fixture files under data/lexer were labeled by hand, line by
line, while writing them; the classifier must reproduce every label. For
Python, the standard library's ``tokenize`` is a second, independent oracle.
"""

from __future__ import annotations

import io
import string
import sysconfig
import tokenize
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bictrace.gitrepo import DiffHunk, GitRepo
from bictrace.langfilters import (
    SUPPORTED_LANGUAGES,
    LineClass,
    canonical_language,
    classify_lines,
    is_cosmetic_change,
    is_cosmetic_commit,
    is_cosmetic_hunk,
    language_for_path,
    squash_whitespace,
)
from desk import GitScripter
from lexfixtures import FIXTURE_LANGUAGES, load_fixture


# --- hand-labeled fixtures -------------------------------------------------


@pytest.mark.parametrize("filename", sorted(FIXTURE_LANGUAGES))
def test_fixture_agreement(filename):
    language, content, expected = load_fixture(filename)
    assert len(expected) == 50
    got = classify_lines(content, language)
    mismatches = [
        (i + 1, e.value, g.value)
        for i, (e, g) in enumerate(zip(expected, got))
        if e != g
    ]
    assert got == expected, f"{filename}: {mismatches}"


@pytest.mark.parametrize("filename", sorted(FIXTURE_LANGUAGES))
def test_fixture_exercises_every_class(filename):
    _, _, expected = load_fixture(filename)
    assert set(expected) == set(LineClass)


def test_fixtures_cover_every_language_row():
    assert sorted(FIXTURE_LANGUAGES.values()) == sorted(SUPPORTED_LANGUAGES)


# --- string literals never read as comments --------------------------------

STRING_TRAPS = [
    ("C", 'printf("// quoted slashes\\n");'),
    ("C", 's = "/* quoted opener */";'),
    ("C", "char c = '\\'';"),
    ("C++", 'auto s = std::string("// nope");'),
    ("C#", 'var s = "/* nope */";'),
    ("Java", 'String s = "// nope" + "/* nope */";'),
    ("JavaScript", "const s = '// nope';"),
    ("Ruby", 'msg = "# interpolation #{x} stays code"'),
    ("PHP", '$s = "# neither // nor /* count */";'),
    ("Python", 'x = "# looks like a comment"'),
]


@pytest.mark.parametrize("language,line", STRING_TRAPS)
def test_comment_markers_inside_strings_are_code(language, line):
    assert classify_lines(line + "\n", language) == [LineClass.CODE]


def test_csharp_verbatim_string_spans_lines():
    content = 'var s = @"first // nope\nsecond "" quoted\nlast";\nint x = 1;\n'
    assert classify_lines(content, "C#") == [LineClass.CODE] * 4


def test_javascript_template_literal_spans_lines():
    content = "const t = `one\n// still string\n`;\nlet n = 0; // done\n"
    got = classify_lines(content, "JavaScript")
    assert got == [LineClass.CODE, LineClass.CODE, LineClass.CODE, LineClass.MIXED]


def _classes(names: str) -> list[LineClass]:
    return [LineClass[name.upper()] for name in names.split()]


STRINGS_ACROSS_LINES = [
    ("Ruby", 's = "one\n# inside\ntwo"\n# after\n', "code code code comment"),
    ("Ruby", "s = 'one\n# inside\ntwo'\n# after\n", "code code code comment"),
    ("PHP", '$s = "one\n// inside\ntwo";\n// after\n', "code code code comment"),
    ("PHP", "$s = 'one\n# inside\ntwo';\n# after\n", "code code code comment"),
    ("Python", "'''doc\n# not a comment\n'''\n# real comment\n", "code code code comment"),
    # =begin inside an open Ruby string starts no comment block
    ("Ruby", 's = "one\n=begin\ntwo"\n# after\n', "code code code comment"),
    # a C string ends at the line break, closed or not
    ("C", 's = "open\n// real\n', "code comment"),
]


@pytest.mark.parametrize("language,content,expected", STRINGS_ACROSS_LINES)
def test_string_state_across_lines(language, content, expected):
    assert classify_lines(content, language) == _classes(expected)


# The closing line of a string that spans lines is code even when only a
# comment follows the closer, so AG, MA, L, R and RA-lite keep it in a fix.
CLOSING_LINES = [
    ("Python", '    """Summary.\n    """  # noqa: D212\n'),
    ("Ruby", 'a = "a\nb" # c\n'),
    ("JavaScript", "t = `a\nb` // c\n"),
    ("C#", 'var s = @"a\nb" // c\n'),
    ("PHP", "$s = 'a\nb' # c\n"),
]


@pytest.mark.parametrize("language,content", CLOSING_LINES)
def test_a_line_that_a_string_spans_has_code(language, content):
    assert classify_lines(content, language) == [LineClass.CODE, LineClass.MIXED]


def test_php_attributes_are_code():
    content = '#[Route("/x")]\n#[A] // c\n# c\n'
    assert classify_lines(content, "PHP") == _classes("code mixed comment")


# A raw string spans lines, and neither a quote nor a backslash in it
# closes it or escapes its closer.
RAW_STRINGS = [
    ("C++", 'auto s = R"(first\n// inside the raw string\n)";\n', "code code code"),
    ("C++", 'auto s = R"(")"; // c\n', "mixed"),
    ("C#", 'var s = """\n    // inside the raw string\n    """;\n', "code code code"),
    ("C#", 'var s = """a\\"""; // c\n', "mixed"),
]


@pytest.mark.parametrize("language,content,expected", RAW_STRINGS)
def test_raw_strings_span_lines_and_have_no_escape(language, content, expected):
    assert classify_lines(content, language) == _classes(expected)


def test_python_docstring_interior_is_code():
    content = '"""doc\n\n# not a comment\n"""\n# real comment\n'
    got = classify_lines(content, "Python")
    assert got == [
        LineClass.CODE,
        LineClass.BLANK,
        LineClass.CODE,
        LineClass.CODE,
        LineClass.COMMENT,
    ]


def test_block_comment_state_carries_across_lines():
    content = "int a; /* opens\nstill comment\ncloses */ int b;\n"
    got = classify_lines(content, "C")
    assert got == [LineClass.MIXED, LineClass.COMMENT, LineClass.MIXED]


def test_ruby_shift_operator_is_not_a_heredoc():
    content = "x = a<<b\ny = 1\n"
    assert classify_lines(content, "Ruby") == [LineClass.CODE, LineClass.CODE]


def test_ruby_heredoc_consumes_until_terminator():
    content = "s = <<~EOS\n# body text\nEOS\n# after\n"
    got = classify_lines(content, "Ruby")
    assert got == [
        LineClass.CODE,
        LineClass.CODE,
        LineClass.CODE,
        LineClass.COMMENT,
    ]


def test_php_heredoc_terminator_tolerates_semicolon():
    content = "$s = <<<TXT\n// body\nTXT;\n// after\n"
    got = classify_lines(content, "PHP")
    assert got == [
        LineClass.CODE,
        LineClass.CODE,
        LineClass.CODE,
        LineClass.COMMENT,
    ]


# --- language table ---------------------------------------------------------


def test_extension_table_routes_known_suffixes():
    cases = {
        "src/a.c": "C",
        "src/a.h": "C",
        "deep/dir/b.cpp": "C++",
        "b.hh": "C++",
        "App.cs": "C#",
        "Main.java": "Java",
        "index.mjs": "JavaScript",
        "tool.rb": "Ruby",
        "page.php": "PHP",
        "job.py": "Python",
    }
    for path, lang in cases.items():
        assert language_for_path(path) == lang


def test_extension_lookup_is_case_insensitive():
    assert language_for_path("LEGACY.C") == "C"
    assert language_for_path("Form.CS") == "C#"


def test_unknown_paths_are_unsupported():
    assert language_for_path("Makefile") == "Unsupported"
    assert language_for_path("notes.txt") == "Unsupported"
    assert language_for_path("archive.tar.gz") == "Unsupported"


def test_language_aliases():
    assert canonical_language("js") == "JavaScript"
    assert canonical_language("CPP") == "C++"
    assert canonical_language(" c# ") == "C#"
    assert canonical_language("Fortran") == "Fortran"
    for lang in SUPPORTED_LANGUAGES:
        assert canonical_language(lang.lower()) == lang


# --- Python against the standard library's tokenize -------------------------

# The one documented limit the sample reaches: test/test_tokenize.py continues
# single-line raw strings past a backslash at the line's end, which the
# scanner reads as the string ending; it is out of step with the file for a
# stretch after.
_TOKENIZE_LIMITS = {"test/test_tokenize.py"}


def _tokenize_classes(text: str) -> list[LineClass]:
    """Reference classes: a whitespace line is blank; any token other than a
    comment makes every line it covers code; a comment token makes its line
    comment, and both together make it mixed."""
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.string.strip():
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [
        LineClass.BLANK if not line.strip()
        else LineClass.MIXED if n in code and n in comment
        else LineClass.COMMENT if n in comment
        else LineClass.CODE
        for n, line in enumerate(lines, start=1)
    ]


def test_python_classes_agree_with_tokenize_on_the_standard_library():
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    paths = sorted(
        path for path in stdlib.rglob("*.py")
        if "site-packages" not in path.relative_to(stdlib).parts
    )[::20]
    checked, differences = 0, []
    for path in paths:
        name = path.relative_to(stdlib).as_posix()
        try:
            with tokenize.open(path) as f:
                text = f.read()
            want = _tokenize_classes(text)
        except (SyntaxError, UnicodeDecodeError, tokenize.TokenError):
            continue  # not Python to the reference either
        checked += 1
        got = classify_lines(text, "Python")
        if name not in _TOKENIZE_LIMITS:
            differences += [(name, n, w, g) for n, (w, g) in enumerate(zip(want, got), 1) if w != g]
    assert checked >= 0.9 * len(paths)
    assert differences == []


def _python_string(quote: str) -> st.SearchStrategy[str]:
    """A string literal holding escaped quotes, ``#`` and the other quote;
    a triple-quoted one also holds line breaks, backslash-newlines and
    its own quote character."""
    pieces = ["a", " ", "#", "\\'", '\\"', "\\\\", "'" if quote[0] == '"' else '"']
    if len(quote) == 3:
        pieces += ["\n", "\\\n", quote[0]]
    return st.lists(st.sampled_from(pieces), max_size=6).map(lambda ps: quote + "".join(ps) + quote)


_PYTHON_FRAGMENTS = st.one_of(
    st.sampled_from([" x", " foo", " = ", " + ", "(", ")", "    ", "\n", "\n\n"]),
    st.text(alphabet=" a#'\"\\", max_size=8).map(lambda body: "#" + body + "\n"),
    *map(_python_string, ("'", '"', "'''", '"""')),
    st.just(" \\\n"),  # a line continuation outside strings
)


def _continues_a_single_line_string(token: tokenize.TokenInfo) -> bool:
    """The scanner's documented limit: a backslash that ends a line inside
    a single-line string, which fragments meeting quote to quote can make."""
    return token.type == tokenize.STRING and token.start[0] != token.end[0] and not (
        token.string.startswith(("'''", '"""')))


@settings(max_examples=400, deadline=None)
@given(fragments=st.lists(_PYTHON_FRAGMENTS, max_size=24))
def test_python_classes_agree_with_tokenize_on_generated_lines(fragments):
    text = "".join(fragments)
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (SyntaxError, tokenize.TokenError):
        tokens = None
    assume(tokens is not None and all(t.type != tokenize.ERRORTOKEN for t in tokens))
    assume(not any(map(_continues_a_single_line_string, tokens)))
    assert classify_lines(text, "Python") == _tokenize_classes(text)


def test_empty_text_has_no_lines():
    # found by the generated-lines test: tokenize reads no line in it
    for language in (*SUPPORTED_LANGUAGES, "Unsupported"):
        assert classify_lines("", language) == []


def test_unsupported_language_uses_blank_code_only():
    content = "# looks like a comment\n\nreal text\n"
    got = classify_lines(content, "Unsupported")
    assert got == [LineClass.CODE, LineClass.BLANK, LineClass.CODE]


# --- cosmetic comparisons ---------------------------------------------------


def test_whitespace_only_edit_is_cosmetic():
    assert is_cosmetic_change("x=1;", "x = 1;")
    assert is_cosmetic_change("if(a){return;}", "if (a) {\n    return;\n}")
    assert not is_cosmetic_change("x=1;", "x=2;")


def test_squash_whitespace_examples():
    assert squash_whitespace("  a \t b\nc ") == "abc"
    assert squash_whitespace("") == ""
    assert squash_whitespace(" \t\n") == ""


def _hunk(removed, added, file_pre="f.c", file_post="f.c"):
    return DiffHunk(
        file_pre,
        file_post,
        tuple(enumerate(removed, start=1)),
        tuple(enumerate(added, start=1)),
    )


def test_hunk_brace_moved_to_own_line_is_cosmetic():
    hunk = _hunk(["if (a) { return; }"], ["if (a) {", "    return; }"])
    assert is_cosmetic_hunk(hunk)


def test_hunk_with_real_change_is_not_cosmetic():
    assert not is_cosmetic_hunk(_hunk(["x = 1;"], ["x = 2;"]))


def test_one_sided_hunks_are_not_cosmetic():
    assert not is_cosmetic_hunk(_hunk([], ["x = 1;"]))
    assert not is_cosmetic_hunk(_hunk(["x = 1;"], []))
    assert is_cosmetic_hunk(_hunk([], []))


def test_cosmetic_commit_detection(tmp_path):
    s = GitScripter(tmp_path)
    s.write("m.c", "int f(void){return 1;}\n")
    root = s.commit("start")
    s.write("m.c", "int f(void) {\n    return 1;\n}\n")
    reformat = s.commit("reformat")
    s.write("m.c", "int f(void) {\n    return 2;\n}\n")
    change = s.commit("change behavior")
    s.write("extra.c", "int g;\n")
    adds_file = s.commit("reindent plus new file")
    s.finish()

    repo = GitRepo(tmp_path)
    assert not is_cosmetic_commit(repo, root)
    assert is_cosmetic_commit(repo, reformat)
    assert not is_cosmetic_commit(repo, change)
    assert not is_cosmetic_commit(repo, adds_file)


# --- properties -------------------------------------------------------------

_text = st.text(
    alphabet=string.ascii_letters + string.digits + " \t\"'#/*{}();=\n", max_size=200
)


@given(content=_text, language=st.sampled_from(SUPPORTED_LANGUAGES))
def test_one_class_per_line(content, language):
    got = classify_lines(content, language)
    lines = content.split("\n")
    if lines[-1] == "":
        lines.pop()
    assert len(got) == len(lines)
    for cls, line in zip(got, lines):
        assert (cls is LineClass.BLANK) == (line.strip() == "")


@given(text=_text)
def test_squash_is_idempotent_and_whitespace_free(text):
    once = squash_whitespace(text)
    assert squash_whitespace(once) == once
    assert not any(ch in string.whitespace for ch in once)


@given(a=_text, b=_text)
def test_cosmetic_change_is_reflexive_and_symmetric(a, b):
    assert is_cosmetic_change(a, a)
    assert is_cosmetic_change(a, b) == is_cosmetic_change(b, a)


# Line units that never carry lexical state past their own newline. For
# these, deleting the Comment and Blank lines and re-classifying must leave
# only Code and Mixed; a block comment spanning lines breaks that, which is
# why the property is stated over self-contained units only.
_SELF_CONTAINED_C_UNITS = [
    ("x = 1;", LineClass.CODE),
    ("call(a, b);", LineClass.CODE),
    ('s = "// text";', LineClass.CODE),
    ("// remark", LineClass.COMMENT),
    ("/* closed */", LineClass.COMMENT),
    ("", LineClass.BLANK),
    ("   ", LineClass.BLANK),
    ("y++; // bump", LineClass.MIXED),
    ("/* lead */ z();", LineClass.MIXED),
]


@given(
    units=st.lists(st.sampled_from(_SELF_CONTAINED_C_UNITS), min_size=1, max_size=30)
)
def test_stripping_comments_and_blanks_leaves_code(units):
    content = "\n".join(line for line, _ in units) + "\n"
    expected = [cls for _, cls in units]
    got = classify_lines(content, "C")
    assert got == expected

    kept = [
        line
        for (line, _), cls in zip(units, got)
        if cls not in (LineClass.COMMENT, LineClass.BLANK)
    ]
    reclassified = classify_lines("\n".join(kept) + "\n", "C") if kept else []
    assert all(cls in (LineClass.CODE, LineClass.MIXED) for cls in reclassified)
    assert reclassified == [cls for cls in got if cls in (LineClass.CODE, LineClass.MIXED)]
