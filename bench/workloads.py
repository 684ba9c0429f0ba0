"""The two workloads: set-up, one item, the check of one output, its rendering.

Each workload's ``setup`` returns a :class:`Corpus`; the timed loop in
``run.py`` cycles through ``corpus.items`` and calls ``run``.  ``check``
returns the problems with one output (empty when correct) and ``render``
gives the bytes that enter the output digest.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import anticycle.cli
import anticycle.cycles

import check
import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_TIMEOUT_S = 120


@dataclass
class Corpus:
    items: list
    cases: list = field(default_factory=list)
    paths: list[str] = field(default_factory=list)


def _decomposition_problems(config, z) -> list[str]:
    ones = [Fraction(1)] * config.m
    return check.check_decomposition(
        config.self_ints, ones, z.p.coeffs, z.n_part.coeffs, (z.m0, z.l, z.d)
    )


def _render_decomposition(z) -> str:
    return (
        f"p={','.join(map(str, z.p.coeffs))} n={','.join(map(str, z.n_part.coeffs))} "
        f"m0={z.m0} l={z.l} d={z.d}"
    )


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


#: The calibration kernel: a fixed piece of the checker's own Fraction
#: arithmetic.  KERNEL_REF_S is its typical time between items on a 2-vCPU
#: x86-64 VM with Python 3.11.7.
KERNEL_CYCLE = (-3, -1, -4, -2, -1, -3)
KERNEL_REF_S = 0.0025


def kernel() -> None:
    check.decompose(KERNEL_CYCLE)


class WalkDecompose:
    """``zariski_decompose`` on stratified walk configs, warm, in-process."""

    name = "walk-decompose"
    #: The highest percentile with at least 10 of the 112 items beyond it.
    tail_pct = 91
    blocks = 2
    #: Passes of a traced run; one pass takes about a second.
    trace_passes = 8

    def setup(self, seed: int, out_dir: Path) -> Corpus:
        return Corpus(inputs.walk_corpus(_rng(self.name, seed), self.blocks))

    def run(self, corpus: Corpus, i: int):
        return anticycle.cycles.zariski_decompose(corpus.items[i])

    def check(self, corpus: Corpus, i: int, z) -> list[str]:
        return _decomposition_problems(corpus.items[i], z)

    def render(self, corpus: Corpus, i: int, z) -> str:
        return f"{list(corpus.items[i].self_ints)} {_render_decomposition(z)}"


class PencilCli:
    """``cli.run(argv)`` in-process over generated config files."""

    name = "pencil-cli"
    tail_pct = 95
    blocks = 8
    #: Passes of a traced run; one pass takes about 25 s.
    trace_passes = 1

    def setup(self, seed: int, out_dir: Path) -> Corpus:
        cases, commands = inputs.pencil_corpus(_rng(self.name, seed), self.blocks)
        paths = inputs.write_cases(cases, out_dir / f"cases-{self.name}-{seed}")
        return Corpus(commands, cases, paths)

    def run(self, corpus: Corpus, i: int) -> tuple[int, str]:
        cmd = corpus.items[i]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            try:
                code = anticycle.cli.run(cmd.argv(corpus.paths[cmd.case]))
            except SystemExit as exc:
                code = exc.code
        return code, buffer.getvalue()

    def check(self, corpus: Corpus, i: int, out) -> list[str]:
        cmd = corpus.items[i]
        return check.check_command(corpus.cases[cmd.case], cmd, *out)

    def render(self, corpus: Corpus, i: int, out) -> str:
        cmd = corpus.items[i]
        argv = " ".join(cmd.argv(f"case{cmd.case:03d}.cfg"))
        return f"$ {argv}\nexit {out[0]}\n{out[1]}"


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (WalkDecompose, PencilCli)
}


# ---------------------------------------------------------------------------
# the import layer, from fresh interpreters


IMPORT_MODULES = (
    "anticycle.qform", "anticycle.cycles", "anticycle.birational", "anticycle.pic0",
    "anticycle.twistor", "anticycle.config_io", "anticycle.cli", "argparse", "json",
)


def import_probes(rounds: int) -> dict[str, float]:
    """Interleaved ``-c pass``, ``import anticycle.cli`` and ``-X importtime``
    processes; medians of their wall times and cumulative import times."""
    kinds = {
        "pass": ["-c", "pass"],
        "import": ["-c", "import anticycle.cli"],
        "importtime": ["-X", "importtime", "-c", "import anticycle.cli"],
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls: dict[str, list[float]] = {"pass": [], "import": []}
    cumulative: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(rounds):
        for kind, argv in kinds.items():
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"import probe {kind} failed: {proc.stderr[-500:]}")
            if kind in walls:
                walls[kind].append(wall)
                continue
            seen = {}
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
                if len(parts) == 3 and parts[2] in cumulative:
                    seen[parts[2]] = int(parts[1]) / 1000
            for module in IMPORT_MODULES:
                cumulative[module].append(seen.get(module, 0.0))
    interp = statistics.median(walls["pass"])
    metrics = {
        "cli.interp_start_ms": interp * 1000,
        "cli.import_ms": (statistics.median(walls["import"]) - interp) * 1000,
    }
    for module in IMPORT_MODULES:
        metrics[f"cli.import.{module.rpartition('.')[2]}_ms"] = statistics.median(cumulative[module])
    return metrics
