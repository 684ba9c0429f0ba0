"""Self-test of the benchmark's checks and tracer.

    python3 bench/selftest.py

1. The checker flags three corrupted decompositions: an N coefficient
   nudged by 1/7, a P with P.C_i < 0, and a support of N that is not
   negative definite.
2. ``run.py`` exits non-zero when the engine is made to return a nudged
   decomposition, and when every CLI command raises.
3. The tracer, working from outside the package, counts 4
   ``zariski_decompose`` and 14 ``intersection_matrix`` calls for ``adim`` on
   ``fixtureC-constfinite.cfg``, and 2 and 6 for ``zariski`` on
   ``fixtureC.cfg``.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import anticycle.cli  # noqa: E402
import anticycle.config_io  # noqa: E402
import anticycle.cycles  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

F = Fraction


def corrupted_results() -> list[tuple[str, bool]]:
    outcomes = []
    c = (-1, -4, -1, -4)
    ones = [F(1)] * 4
    truth = check.decompose(c)
    outcomes.append(("true decomposition passes", not check.check_decomposition(c, ones, truth.p, truth.n)))

    i = next(j for j, x in enumerate(truth.n) if x)
    n = list(truth.n)
    p = list(truth.p)
    n[i] += F(1, 7)
    p[i] -= F(1, 7)
    problems = check.check_decomposition(c, ones, p, n)
    outcomes.append((f"N nudged by 1/7 flagged: {problems}", bool(problems)))

    problems = check.check_decomposition(c, ones, ones, [F(0)] * 4)
    outcomes.append((f"P with P.C_i < 0 flagged: {problems}", "P.C_i < 0 for some i" in problems))

    flat = (-2, -2, -2, -2)
    problems = check.check_decomposition(flat, ones, [F(0)] * 4, ones)
    outcomes.append(
        (f"semidefinite support flagged: {problems}",
         problems == ["support of N is not negative definite"])
    )
    return outcomes


def _nudged(fn):
    def wrapper(*args, **kwargs):
        z = fn(*args, **kwargs)
        coeffs = list(z.n_part.coeffs)
        coeffs[0] += F(1, 7)
        return dataclasses.replace(z, n_part=anticycle.cycles.QDivisor(tuple(coeffs)))

    return wrapper


def _raising(fn):
    def wrapper(*args, **kwargs):
        raise RuntimeError("injected fault")

    return wrapper


def injected_faults() -> list[tuple[str, bool]]:
    outcomes = []
    faults = [
        ("walk-decompose", anticycle.cycles, "zariski_decompose", _nudged),
        ("pencil-cli", anticycle.config_io, "parse_config", _raising),
    ]
    for workload, owner, attr, fault in faults:
        undo = spans.bind(owner, attr, fault)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1"])
        finally:
            spans.unbind(undo)
        outcomes.append((f"{workload} with {fault.__name__} {attr} exits {code}", code != 0))
    return outcomes


def roadmap_counts() -> list[tuple[str, bool]]:
    outcomes = []
    fixtures = ROOT / "tests" / "fixtures"
    for sub, name, want in (
        ("adim", "fixtureC-constfinite.cfg", (4, 14)),
        ("zariski", "fixtureC.cfg", (2, 6)),
    ):
        tracer = spans.Tracer()
        tracer.item = 0
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                anticycle.cli.run([sub, "--file", str(fixtures / name)])
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        got = (metrics["cycles.zariski_decompose.calls"], metrics["cycles.intersection_matrix.calls"])
        outcomes.append((f"{sub} {name}: decompose, intersection_matrix = {got}", got == want))
    return outcomes


def main() -> int:
    outcomes = corrupted_results() + injected_faults() + roadmap_counts()
    for text, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {text}")
    return 0 if all(ok for _, ok in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
