"""A seeded argv corpus on which ``cli._parse`` equals argparse's full parser.

Each argv names a command (or not) and carries that command's options with
plain values, often bent into a form only argparse reads: an abbreviation,
``--opt=value``, ``--``, ``-``, ``-h``, a repeated option, a missing value,
a stray token, or a value such as ``-1.5``, ``-x``, ``""``, ``" 3"``,
``1_0``, ``-٣`` or ``-²``.  On every argv the outcome of ``cli._parse``
(the namespace, or the exit code and output of its ``SystemExit``) must
equal that of ``build_parser().parse_args``.  ``tests/test_cli.py`` runs the
corpus; the module needs only the standard library and ``anticycle``, so it
can be checked on any interpreter:

    PYTHONPATH=src python tests/parse_equivalence.py
"""

from __future__ import annotations

import contextlib
import io
import random
import sys

from anticycle import cli

CORPUS_SEED = 18
CORPUS_SIZE = 20_000

#: Every command's options, written out here rather than read off the parser.
_SHARED = ("--file", "--json")
COMMANDS: dict[str, tuple[str, ...]] = {
    "zariski": _SHARED,
    "classify": _SHARED,
    "blowup": (*_SHARED, "--node", "--component", "--smooth", "--drop-reality"),
    "blowdown": (*_SHARED, "--component", "--drop-reality"),
    "contract": _SHARED,
    "fibers": _SHARED,
    "intnums": (*_SHARED, "--rho", "--r"),
    "fixed": (*_SHARED, "--rho", "--nu", "--r"),
    "adim": _SHARED,
    "oracle-check": (*_SHARED, "--seed", "--count"),
    "fixtures": ("--seed", "--count"),
}
FLAGS = ("--json", "--smooth", "--drop-reality")
REQUIRED = {"--file", "--rho", "--seed"}

NUMBERS = ("1", "2", "3", "0", "12", "-1", "-2", "-0")
PATHS = ("x.cfg", "a b.cfg", "3")
EDGE_VALUES = (
    "-1.5", "-x", "", " 3", "3 ", "1_0", "-1_0", "-٣", "٣", "-²", "²", "1.5",
    "-", "--", "-h", "--json", "--file", "-5\n",
)
STRAYS = ("-", "--", "-h", "--help", "stray", "", "-1", "--bogus", "-x", "-٣")
UNKNOWN_COMMANDS = ("frobnicate", "adi", "Adim", "--json", "-h", "", "--")


def _abbreviation(rng: random.Random, option: str) -> str:
    return option[: rng.randint(3, len(option) - 1)] if len(option) > 3 else option


def _value(rng: random.Random, option: str) -> str:
    if rng.random() < 0.15:
        return rng.choice(EDGE_VALUES)
    return rng.choice(PATHS if option == "--file" else NUMBERS)


def _tokens(rng: random.Random, command: str) -> list[str]:
    """The command's options in random order, each with a value if it takes one."""
    options = [
        option
        for option in COMMANDS[command]
        if rng.random() < (0.9 if option in REQUIRED else 0.4)
    ]
    rng.shuffle(options)
    tokens: list[str] = []
    for option in options:
        tokens.append(option)
        if option not in FLAGS:
            tokens.append(_value(rng, option))
    return tokens


def _bend(rng: random.Random, command: str, tokens: list[str]) -> None:
    """One change, in place, that argparse alone may read."""
    options = COMMANDS[command]
    kind = rng.randrange(7)
    at = rng.randint(0, len(tokens))
    if kind == 0 and tokens:
        # abbreviate an option, or join it to its value with "="
        index = rng.randrange(len(tokens))
        if tokens[index].startswith("--"):
            if rng.random() < 0.5 or index + 1 == len(tokens):
                tokens[index] = _abbreviation(rng, tokens[index])
            else:
                tokens[index : index + 2] = [f"{tokens[index]}={tokens[index + 1]}"]
    elif kind == 1:
        tokens.insert(at, rng.choice(STRAYS))
    elif kind == 2:
        option = rng.choice(options)
        tokens[at:at] = [option] if option in FLAGS else [option, _value(rng, option)]
    elif kind == 3 and tokens:
        # an option whose value is missing
        tokens.insert(at, rng.choice([o for o in options if o not in FLAGS]))
    elif kind == 4 and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif kind == 5:
        tokens.insert(at, rng.choice(EDGE_VALUES))
    else:
        tokens.insert(at, rng.choice(COMMANDS[rng.choice(list(COMMANDS))]))


def argv_corpus(seed: int = CORPUS_SEED, size: int = CORPUS_SIZE) -> list[list[str]]:
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        if rng.random() < 0.05:
            pool = [*STRAYS, *UNKNOWN_COMMANDS, *COMMANDS, *EDGE_VALUES]
            corpus.append([rng.choice(pool) for _ in range(rng.randint(0, 4))])
            continue
        if rng.random() < 0.05:
            command = rng.choice(UNKNOWN_COMMANDS)
            tokens = _tokens(rng, rng.choice(list(COMMANDS)))
        else:
            command = rng.choice(list(COMMANDS))
            tokens = _tokens(rng, command)
        if command in COMMANDS:
            for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
                _bend(rng, command, tokens)
        corpus.append([command, *tokens])
    return corpus


def parse_outcome(parse, argv: list[str]) -> tuple:
    """``vars`` of the namespace ``parse(argv)`` returns, or the exit code and
    the stdout and stderr of the ``SystemExit`` it raises."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    return ("args", vars(args), out.getvalue(), err.getvalue())


def takes_table(argv: list[str]) -> bool:
    """Whether ``cli._parse`` reads ``argv`` from its option table."""
    table = cli.build_parser().commands.get(argv[0]) if argv else None
    return table is not None and table.parse(argv[1:]) is not None


def mismatches(corpus: list[list[str]]) -> list[list[str]]:
    full = cli.build_parser().parse_args
    return [
        argv
        for argv in corpus
        if parse_outcome(cli._parse, argv) != parse_outcome(full, argv)
    ]


if __name__ == "__main__":
    corpus = argv_corpus()
    wrong = mismatches(corpus)
    tabled = sum(map(takes_table, corpus))
    print(
        f"python {sys.version.split()[0]}: {len(corpus)} argvs, "
        f"{tabled} read from the option table, {len(wrong)} mismatches"
    )
    for argv in wrong[:20]:
        print(f"mismatch: {argv!r}")
    sys.exit(1 if wrong else 0)
