"""The argument rules of ``tests/mutants.py``: a ``--lines`` span is parsed
or refused before the tool copies the checkout or runs anything, and a
``--diff`` text becomes the spans of the module lines it adds."""

import argparse

import pytest

import mutants
from mutants import diff_spans, line_span, main


@pytest.mark.parametrize("text,want", [
    ("evaluation:160-190", ("evaluation", 160, 190)), ("dsp:1-1", ("dsp", 1, 1)),
], ids=["span", "one-line"])
def test_line_span_parses_module_start_and_end(text, want):
    assert line_span(text) == want


@pytest.mark.parametrize("text,message", [
    ("evaluation", "expected MODULE:START-END"),
    ("evaluation:160", "expected MODULE:START-END"),
    ("evaluation:a-190", "expected MODULE:START-END"),
    ("evaluation:190-160", "expected 1 <= START <= END"),
    ("evaluation:0-5", "expected 1 <= START <= END"),
], ids=["no-lines", "no-end", "not-a-number", "end-before-start", "line-0"])
def test_line_span_refuses_a_span_it_cannot_read(text, message):
    with pytest.raises(argparse.ArgumentTypeError) as err:
        line_span(text)
    assert str(err.value) == f"{message}, got {text!r}"


def test_unknown_module_in_lines_is_refused_before_any_copy(monkeypatch, capsys):
    def no_copy(*args, **kwargs):
        raise AssertionError("the checkout was copied")

    monkeypatch.setattr(mutants.tempfile, "mkdtemp", no_copy)
    with pytest.raises(SystemExit) as exit_:
        main(["--lines", "nosuch:1-2"])
    assert exit_.value.code == 2
    assert "--lines: unknown module 'nosuch'" in capsys.readouterr().err


# ``git diff -U0`` of two modules, a file outside the package, a deleted
# module and a hunk header with function context
DIFF = """\
diff --git a/src/rftag/models.py b/src/rftag/models.py
index 5f65c22..d816f5b 100644
--- a/src/rftag/models.py
+++ b/src/rftag/models.py
@@ -55,4 +55,4 @@ A checkpoint's config echo is one ``key=value`` line per field, in sorted
-one reader of a field
+one reader of a field, and more
@@ -334 +334,2 @@ def _check_entries(section: str, arrays: dict, shapes: dict) -> None:
-    \"\"\"one line\"\"\"
+    \"\"\"two
+    lines\"\"\"
@@ -416,6 +420,0 @@ def _echo_text(value) -> str:
-def _echo_bool(text: str) -> bool:
@@ -426 +425 @@ _ECHO_PARSERS = {
-    "bool": _echo_bool,
+    "bool": lambda text: text == "True",
diff --git a/src/rftag/training.py b/src/rftag/training.py
--- a/src/rftag/training.py
+++ b/src/rftag/training.py
@@ -111 +111 @@ def mixup_batch(x: Tensor, y: Tensor, alpha: float, rng: np.random.Generator):
-    if alpha <= 0:
+    if not alpha > 0:
diff --git a/src/rftag/gone.py b/src/rftag/gone.py
deleted file mode 100644
--- a/src/rftag/gone.py
+++ /dev/null
@@ -1,3 +0,0 @@
-x = 1
diff --git a/src/rftag/notes.txt b/src/rftag/notes.txt
--- a/src/rftag/notes.txt
+++ b/src/rftag/notes.txt
@@ -1 +1 @@
-a
+b
"""


def test_diff_spans_are_the_new_lines_of_each_module_hunk():
    assert diff_spans(DIFF) == [("models", 55, 58), ("models", 334, 335), ("models", 425, 425),
                                ("training", 111, 111)]


def test_diff_without_a_module_hunk_has_no_span():
    assert diff_spans("") == []
    assert diff_spans(DIFF.split("diff --git a/src/rftag/gone.py")[1]) == []


def test_diff_that_git_refuses_is_named_before_any_copy(monkeypatch, capsys):
    def no_copy(*args, **kwargs):
        raise AssertionError("the checkout was copied")

    def git(args, **kwargs):
        assert args[:3] == ["git", "diff", "-U0"] and args[-3:] == ["nosuch", "--", "src/rftag"]
        return mutants.subprocess.CompletedProcess(args, 128, "", "fatal: bad revision\n")

    monkeypatch.setattr(mutants.tempfile, "mkdtemp", no_copy)
    monkeypatch.setattr(mutants.subprocess, "run", git)
    with pytest.raises(SystemExit) as exit_:
        main(["--diff", "nosuch"])
    assert exit_.value.code == 2
    assert "--diff: git diff nosuch failed: fatal: bad revision" in capsys.readouterr().err
