"""Line classification and cosmetic-equality checks.

The eight fixture files under data/lexer were labeled by hand, line by
line, while writing them; the classifier must reproduce every label.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given
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
    if lines and lines[-1] == "" and content.endswith("\n"):
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
