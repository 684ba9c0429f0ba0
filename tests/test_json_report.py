"""``cli._json`` writes the bytes of ``json.dumps(report, indent=2)``.

It is checked on every report the golden transcript and the bad-input
corpus produce, on hand-made values at the edges of JSON's string and
integer syntax, and on the types it must refuse.  Needs no pytest, so
it also runs as a plain script:

    PYTHONPATH=src:tests python tests/test_json_report.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import test_cli_corpus
import test_golden
from anticycle import cli

HAND_CASES = (
    {},
    [],
    {"empty": {}, "none": [], "nested": [[], {}]},
    [{"a": 1}, {"b": [True, 1, False, 0]}, {}],
    {"quote": 'say "C1"', "backslash": "a\\b", "slash": "1/2"},
    ["\x00\x1f\t\n\r\x7f", "é ~C1 Δ", "\U0001d4aa", " "],
    {"true": True, "one": 1, "false": False, "zero": 0, "none": None},
    [-1, -(2**64) - 1, 2**64, 2**200, 0],
    {'"key"': "x", "\\": "y", "é": "z", "": ""},
    "top-level string",
    7,
    None,
)
REFUSED = (1.5, {"l": 0.5}, (1, 2), {"p": ("1", "2")}, [{"x": [(0,)]}], {1: "int key"})


def _reports(argvs: list[list[str]]) -> list:
    """Every report ``cli.run`` hands to ``_emit`` over ``argvs``."""
    seen = []
    emit = cli._emit
    cli._emit = lambda report, as_json: seen.append(report)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.run(argv)
    finally:
        cli._emit = emit
    return seen


def golden_reports() -> list:
    fixtures = test_golden.FIXTURE_DIR
    return _reports(
        [
            [str(fixtures / a) if a.endswith(".cfg") else a for a in argv]
            for argv in test_golden.commands()
        ]
    )


def corpus_reports() -> list:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            return _reports(test_cli_corpus.corpus(Path(directory)))
        finally:
            os.chdir(cwd)


def _check(values) -> int:
    for value in values:
        assert cli._json(value, "") == json.dumps(value, indent=2), value
    return len(values)


def test_golden_reports():
    assert _check(golden_reports()) > 100


def test_corpus_reports():
    assert _check(corpus_reports()) > 500


def test_hand_cases():
    _check(HAND_CASES)


def test_refused_types():
    for value in REFUSED:
        try:
            cli._json(value, "")
        except TypeError:
            continue
        raise AssertionError(f"no TypeError for {value!r}")


if __name__ == "__main__":
    print(f"{_check(golden_reports())} golden reports, {_check(corpus_reports())} corpus reports")
    test_hand_cases()
    test_refused_types()
    print("ok")
