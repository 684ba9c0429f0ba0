"""Byte-for-byte replay of the CLI transcript in ``golden/cli_transcript.json``.

The transcript holds stdout and the exit code of every subcommand on every
file in ``fixtures/``, in text and ``--json`` form.  It pins the reports
across refactors; regenerate it only for a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from anticycle import cli

HERE = Path(__file__).parent
FIXTURE_DIR = HERE / "fixtures"
TRANSCRIPT = HERE / "golden" / "cli_transcript.json"

#: Per-file subcommands; ``--file <fixture>`` and optionally ``--json`` follow.
FILE_COMMANDS = (
    ("zariski",),
    ("classify",),
    ("blowup", "--node", "1"),
    ("blowup", "--component", "1", "--smooth"),
    ("blowdown", "--component", "1"),
    ("contract",),
    ("fibers",),
    ("intnums", "--rho", "1"),
    ("fixed", "--rho", "1"),
    ("fixed", "--nu", "1"),
    ("adim",),
    ("oracle-check",),
)
#: Subcommands that take no config file.
OTHER_COMMANDS = (("fixtures", "--seed", "1", "--count", "3"),)


def commands() -> list[list[str]]:
    out = []
    for path in sorted(FIXTURE_DIR.glob("*.cfg")):
        for command in FILE_COMMANDS:
            for extra in ((), ("--json",)):
                out.append([*command, "--file", path.name, *extra])
    out.extend(list(command) for command in OTHER_COMMANDS)
    return out


def replay(argv: list[str]) -> dict:
    real = [str(FIXTURE_DIR / a) if a.endswith(".cfg") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(real)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_transcript_replays_byte_for_byte(monkeypatch):
    """With argparse's parser refused: every transcript argv is read from its
    command's option table, since a silent fall-back to argparse would keep
    every output but lose the time the table saves."""

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a transcript argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    recorded = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in recorded] == commands()
    for entry in recorded:
        assert replay(entry["argv"]) == entry


if __name__ == "__main__":
    transcript = [replay(argv) for argv in commands()]
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(transcript)} entries to {TRANSCRIPT}", file=sys.stderr)
