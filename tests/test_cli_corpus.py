"""Seeded bad-input corpus for the command-line interface.

Draws config files of every kind the CLI meets, mostly wrong: walk configs,
arbitrary real and plain cycles, elliptic bases, wrong n, and mutated texts
(deleted, duplicated or unknown lines, stray bytes, invalid UTF-8, other line
breaks).  Every file goes through every file subcommand in-process, with
indices in [-1, m + 2], ``--json``, ``--drop-reality`` and ``--rho``/``--nu``
values that include 0 and -1.  One sha256 over (argv, exit code, stdout) of
every run is pinned as ``DIGEST``.  The script needs no pytest:

    PYTHONPATH=src python tests/test_cli_corpus.py

prints the run count, the exit codes and the digest, and exits 1 when the
digest differs from the pin.  Change the pin only for a deliberate change of
output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import sys
from collections import Counter
from pathlib import Path

from anticycle import cli
from anticycle.config_io import config_to_data, random_cycle_walk, render_config

SEED = 1301
FILES = 300
DIGEST = "f0ccc6a4aed0d1155bd013ea3345b27ec5a94ee307279cff55e940f6de67cdc4"

#: Families a file may carry; ``None`` leaves the line out.
FAMILIES = (
    None,
    "nonconstant",
    "const unity 0/1",
    "const unity 1/4",
    "const unity 1/6",
    "const unity 2/5",
    "const modulus 3/2 angle 1/3",
)
STRAY = b"-0123456789[],=# x/\xff"
#: Line breaks ``parse_config`` honours besides ``\n``: CR LF, CR, NEL, U+2028.
BREAKS = (b"\r\n", b"\r", "\x85".encode(), "\u2028".encode())


def _family_line(rng: random.Random) -> str:
    family = rng.choice(FAMILIES)
    return f"family = {family}\n" if family is not None else ""


def _walk(rng: random.Random) -> tuple[str, int]:
    real = rng.random() < 0.5
    config = random_cycle_walk(rng, real=real, blowups=rng.randint(0, 3 if real else 5))
    data = config_to_data(config)
    if not real and rng.random() < 0.3:
        data = dataclasses.replace(data, n=rng.randint(3, 6))
    return render_config(data) + _family_line(rng), config.m


def _real(rng: random.Random) -> tuple[str, int]:
    half = [rng.randint(-6, 3) for _ in range(rng.randint(1, 5))]
    m = 2 * len(half)
    # C^2 = sum of self-intersections + 2m must equal 8 - 2n; n is often wrong
    n = (8 - 2 * sum(half) - 2 * m) // 2 + rng.choice((0, 0, 0, -1, 1, 2))
    text = f"base = cycle\nn = {n}\nk = {len(half)}\nself = {half}\n" + _family_line(rng)
    if rng.random() < 0.25:
        bits = [rng.choice((0, 1, 1, 2)) for _ in range(rng.choice((len(half), len(half), 1)))]
        text += f"resolution = {bits}\n"
    return text, m


def _plain(rng: random.Random) -> tuple[str, int]:
    selfs = [rng.randint(-6, 3) for _ in range(rng.randint(1, 8))]
    text = f"selfints = {selfs}\n" + _family_line(rng)
    if rng.random() < 0.3:
        text = f"n = {rng.randint(3, 6)}\n" + text
    return text, len(selfs)


def _elliptic(rng: random.Random) -> tuple[str, int]:
    return f"base = elliptic\nn = {rng.randint(3, 6)}\n" + _family_line(rng), 1


def _mutated(rng: random.Random) -> tuple[bytes, int]:
    text, m = rng.choice((_walk, _real, _plain, _elliptic))(rng)
    lines = text.encode().splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(7)
        at = rng.randrange(len(lines) + 1)
        if kind == 0 and lines:
            del lines[rng.randrange(len(lines))]
        elif kind == 1 and lines:
            lines.insert(at, rng.choice(lines))
        elif kind == 2:
            lines.insert(at, rng.choice((b"width = 7\n", b"garbage\n", b"# note\n", b"\n")))
        elif kind == 3 and lines:
            i = rng.randrange(len(lines))
            line = bytearray(lines[i] or b"\n")
            line[rng.randrange(len(line))] = rng.choice(STRAY)
            lines[i] = bytes(line)
        elif kind == 4:
            lines = [line.replace(b"\n", rng.choice(BREAKS)) for line in lines]
        elif kind == 5:
            lines.insert(at, b"# comment" + rng.choice(BREAKS) + b"n = 5\n")
        elif kind == 6 and lines:
            i = rng.randrange(len(lines))
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    return b"".join(lines), m


def _index(rng: random.Random, m: int) -> str:
    return str(rng.randint(-1, m + 2))


def _value(rng: random.Random) -> str:
    return str(rng.choice((-1, 0, 0, 1, 1, 2, rng.randint(3, 12))))


def _forms(rng: random.Random, name: str, m: int) -> list[list[str]]:
    """Every file subcommand but ``oracle-check`` on one file."""
    surgery = ["--drop-reality"] if rng.random() < 0.3 else []
    forms = [
        ["zariski"],
        ["classify"],
        ["contract"],
        ["fibers"],
        ["adim"],
        ["blowup", "--node", _index(rng, m), *surgery],
        ["blowup", "--component", _index(rng, m), "--smooth", *surgery],
        ["blowdown", "--component", _index(rng, m), *surgery],
        ["intnums", "--rho", _value(rng), "--r", _value(rng)],
        ["fixed", rng.choice(("--rho", "--nu")), _value(rng), "--r", _value(rng)],
    ]
    if rng.random() < 0.1:
        forms.append(["blowup", "--node", _index(rng, m), "--smooth"])
    return [
        [*form, "--file", name, *(["--json"] if rng.random() < 0.3 else [])]
        for form in forms
    ]


def corpus(directory: Path) -> list[list[str]]:
    """Write the corpus files into ``directory`` and return every argv, with
    paths relative to it."""
    rng = random.Random(SEED)
    makers = (_walk, _walk, _real, _real, _plain, _elliptic, _mutated, _mutated, _mutated)
    argvs = []
    for number in range(FILES):
        body, m = rng.choice(makers)(rng)
        name = f"case-{number:03d}.cfg"
        (directory / name).write_bytes(body if isinstance(body, bytes) else body.encode())
        argvs.extend(_forms(rng, name, m))
    # the oracle is slow: a few small walk configs and one broken file only
    for number in range(4):
        body, _ = _walk(rng)
        name = f"oracle-{number}.cfg"
        (directory / name).write_text(body, encoding="utf-8")
        argvs.append(["oracle-check", "--file", name])
    argvs += [
        ["oracle-check", "--file", "case-000.cfg", "--json"],
        ["oracle-check", "--seed", "5", "--count", "0"],
        ["oracle-check", "--count", "-1"],
        ["oracle-check"],
        ["zariski", "--file", "missing.cfg"],
        ["adim", "--file", "."],
        ["fixtures", "--seed", "3", "--count", "0"],
        ["fixtures", "--seed", "3", "--count", "2"],
    ]
    return argvs


def replay(argvs: list[list[str]]) -> tuple[str, Counter]:
    """The corpus digest and the count of each exit code."""
    digest = hashlib.sha256()
    codes: Counter = Counter()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        codes[code] += 1
        digest.update(json.dumps([argv, code, out.getvalue()]).encode())
    return digest.hexdigest(), codes


def test_bad_input_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = corpus(tmp_path)
    digest, codes = replay(argvs)
    assert set(codes) == {0, 2, 3}, codes
    assert digest == DIGEST


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        argvs = corpus(Path(directory))
        digest, codes = replay(argvs)
    print(f"{len(argvs)} runs, exit codes {dict(sorted(codes.items()))}")
    print(digest)
    if digest != DIGEST:
        print(f"corpus digest changed: want {DIGEST}", file=sys.stderr)
        sys.exit(1)
