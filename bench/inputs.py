"""Seeded inputs for the workloads.

Walk configs come from ``config_io.random_cycle_walk``, the walk behind
``random_small_config``, with that generator's two draws (real or not, and
the number of node blow-ups) stratified: a block of 56 holds each of its
eleven (real, blow-ups) cells exactly as often as the generator's
probabilities say (real: 0-3 blow-ups, 7 each; non-real: 0-6, 4 each).
Only the blow-up positions are random.  Cost grows steeply with m, so
stratifying keeps the mix, and with it the throughput, the same from seed
to seed; the seed still picks every config.

Pencil configs are written as files and carry the checker's own
decomposition, from which every command's response is predicted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import anticycle.config_io
import anticycle.twistor
from anticycle.cycles import CycleConfig
from anticycle.pic0 import PicZeroFamily

import check

WALK_CELLS = [(True, b) for b in range(4)] + [(False, b) for b in range(7)]
WALK_CELL_COUNTS = [7] * 4 + [4] * 7


def interleave(counts: list[int]) -> list[int]:
    """Cell ids in an order whose every prefix keeps the cells' proportions."""
    keys = [((j + 0.5) / c, cell) for cell, c in enumerate(counts) for j in range(c)]
    return [cell for _, cell in sorted(keys)]


def walk_corpus(rng: random.Random, blocks: int) -> list[CycleConfig]:
    """``blocks`` stratified blocks of 56 walks."""
    configs = []
    for _ in range(blocks):
        for cell in interleave(WALK_CELL_COUNTS):
            real, blowups = WALK_CELLS[cell]
            configs.append(anticycle.config_io.random_cycle_walk(rng, real=real, blowups=blowups))
    return configs


# ---------------------------------------------------------------------------
# pencils

SUBCOMMANDS = ("adim", "zariski", "classify", "contract", "blowup", "fixed", "intnums", "fibers")
ELLIPTIC_SUBCOMMANDS = ("adim", "fibers")
FAMILY_KINDS = ("unity", "modulus", "nonconstant")
MODULI = ("1/2", "2/3", "3/2", "5/4", "2")
#: Reachable (k, stratum) cells of arbitrary real cycles with n >= 4.
ARBITRARY_CELLS = [
    (1, check.P_ZERO), (1, check.P_SQUARE_ZERO),
    (2, check.P_ZERO), (2, check.P_POSITIVE), (2, check.P_SQUARE_ZERO),
    (3, check.P_ZERO), (3, check.P_POSITIVE),
    (4, check.P_ZERO), (4, check.P_POSITIVE),
]
MAX_DRAWS = 20000
CASES_PER_BLOCK = 24


def _family(rng: random.Random, kind: str) -> tuple[str, int | None]:
    """A family line and the order of its constant finite element, if any."""
    if kind == "unity":
        q = rng.randint(1, 12)
        p = rng.randrange(q)
        return f"const unity {p}/{q}", Fraction(p, q).denominator
    if kind == "modulus":
        q = rng.randint(1, 12)
        return f"const modulus {rng.choice(MODULI)} angle {rng.randrange(q)}/{q}", None
    return "nonconstant", None


def _cycle_case(half: tuple[int, ...], n: int, family: tuple[str, int | None]):
    k = len(half)
    selfs = half + half
    text = (
        f"base = cycle\nn = {n}\nk = {k}\nself = [{', '.join(map(str, half))}]\n"
        f"family = {family[0]}\n"
    )
    return check.PencilCase(text, n, family[0], family[1], selfs, k, check.decompose(selfs))


def _arbitrary(rng: random.Random, k: int, stratum: str, family) -> check.PencilCase:
    """Rejection draw of a real cycle, half self-intersections in [-6, 3]."""
    for _ in range(MAX_DRAWS):
        half = tuple(rng.randint(-6, 3) for _ in range(k))
        n = (8 - (2 * sum(half) + 4 * k)) // 2  # C^2 = sum s_i + 2m = 8 - 2n
        if n < 4:
            continue
        config = CycleConfig.real(half, n)
        pencil = anticycle.twistor.TwistorPencil(n, config, PicZeroFamily.nonconstant())
        if anticycle.twistor.validate_pencil(pencil):
            continue
        case = _cycle_case(half, n, family)
        if case.truth.stratum == stratum:
            return case
    raise RuntimeError(f"no real cycle with k = {k} in stratum {stratum} after {MAX_DRAWS} draws")


def _commands(rng: random.Random, index: int, case: check.PencilCase) -> list[check.Command]:
    """Every subcommand for case ``index``.  ``fixed`` on a finite family
    takes ``--nu`` in even blocks and ``--rho`` in odd ones: the two differ
    in cost, and a coin per case would move the tail from seed to seed."""
    subs = SUBCOMMANDS if case.truth is not None else ELLIPTIC_SUBCOMMANDS
    commands = []
    for j, sub in enumerate(subs):
        if sub == "blowup":
            args = ("--node", str(rng.randint(1, 2 * case.k)))
        elif sub == "fixed" and case.tau is not None and index // CASES_PER_BLOCK % 2 == 0:
            args = ("--nu", str(rng.randint(1, 2)))
        elif sub == "fixed":
            args = ("--rho", str(rng.randint(-1, 3)))
        elif sub == "intnums":
            args = ("--rho", str(rng.randint(0, 3)))
        else:
            args = ()
        commands.append(check.Command(index, sub, args, (index + j) % 2 == 1))
    return commands


def pencil_corpus(rng: random.Random, blocks: int):
    """Cases and commands; each block holds 24 cases and 174 commands.

    A block has 12 walk pencils (0-3 real node blow-ups of the (-2)^4
    cycle, so k = 2-5, times the three family kinds), 9 arbitrary real
    cycles (one per reachable (k, stratum) cell) and 3 elliptic bases.
    Every cycle case gets all eight subcommands, an elliptic one ``adim``
    and ``fibers``; every other command asks for ``--json``.  Block b's
    cases and commands do not depend on how many blocks follow.
    """
    cases: list[check.PencilCase] = []
    commands: list[check.Command] = []
    for _ in range(blocks):
        walks = [(b, kind) for b in range(4) for kind in FAMILY_KINDS]
        pools = [walks, list(ARBITRARY_CELLS), ["4 unity", "4 modulus", "5+ unity"]]
        for pool in interleave([len(p) for p in pools]):
            cell = pools[pool].pop(0)
            if pool == 0:
                b, kind = cell
                config = anticycle.config_io.random_cycle_walk(rng, real=True, blowups=b)
                case = _cycle_case(config.self_ints[: config.real_k], config.n, _family(rng, kind))
            elif pool == 1:
                k, stratum = cell
                family = _family(rng, FAMILY_KINDS[len(cases) % 3])
                case = _arbitrary(rng, k, stratum, family)
            else:
                n = 4 if cell.startswith("4") else rng.randint(5, 7)
                family, tau = _family(rng, cell.split()[1])
                text = f"base = elliptic\nn = {n}\nfamily = {family}\n"
                case = check.PencilCase(text, n, family, tau)
            commands.extend(_commands(rng, len(cases), case))
            cases.append(case)
    return cases, commands


def write_cases(cases: list[check.PencilCase], directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, case in enumerate(cases):
        path = directory / f"case{index:03d}.cfg"
        path.write_text(case.text, encoding="utf-8")
        paths.append(str(path))
    return paths
