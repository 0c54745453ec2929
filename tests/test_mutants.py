"""The argument rules of ``tests/mutants.py``: a ``--lines`` span is parsed
or refused before the tool copies the checkout or runs anything."""

import argparse

import pytest

import mutants
from mutants import line_span, main


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
