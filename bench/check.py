"""Independent checks of the engine's outputs.

Nothing here calls a helper from ``anticycle.qform`` or ``anticycle.cycles``.
The intersection form of a cycle is applied as a stencil
``(Mv)_i = s_i v_i + v_{i-1} + v_{i+1}`` (m = 1 and m = 2 are special),
definiteness is Sylvester's leading-minor test by ``Fraction`` elimination,
and the reference decomposition is the checker's own support-growth loop.
By uniqueness of the Zariski decomposition, a pair (P, N) that passes
:func:`check_decomposition` *is* the decomposition, so the check is complete.

The second half predicts what each CLI command must print and exit with,
from the checker's own stratum and the verdict table in the README.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

P_ZERO = "P=0"
P_POSITIVE = "P^2>0"
P_SQUARE_ZERO = "P^2=0"


# ---------------------------------------------------------------------------
# arithmetic on one cycle


def stencil(selfs: Sequence[int], v: Sequence[Fraction | int]) -> list[Fraction | int]:
    """The products C_i . v for the cycle with self-intersections ``selfs``."""
    m = len(selfs)
    if m == 1:
        return [selfs[0] * v[0]]
    if m == 2:
        return [selfs[0] * v[0] + 2 * v[1], 2 * v[0] + selfs[1] * v[1]]
    return [selfs[i] * v[i] + v[i - 1] + v[(i + 1) % m] for i in range(m)]


def form_entry(selfs: Sequence[int], i: int, j: int) -> int:
    """C_i . C_j."""
    m = len(selfs)
    if i == j:
        return selfs[i]
    if m == 2:
        return 2
    return 1 if (i - j) % m in (1, m - 1) else 0


def negative_definite(selfs: Sequence[int], support: Sequence[int]) -> bool:
    """Sylvester: leading principal minors alternate in sign, starting negative.

    Elimination without row swaps turns the k-th leading minor into the
    product of the first k pivots; a zero pivot means a zero minor.
    """
    rows = [[Fraction(form_entry(selfs, i, j)) for j in support] for i in support]
    minor = Fraction(1)
    for k in range(len(rows)):
        minor *= rows[k][k]
        if (-1) ** (k + 1) * minor <= 0:
            return False
        for r in range(k + 1, len(rows)):
            factor = rows[r][k] / rows[k][k]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    return True


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan with row swaps; the systems solved here are definite."""
    n = len(rows)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


@dataclass(frozen=True)
class Truth:
    """The checker's own decomposition of the full cycle and its invariants."""

    p: tuple[Fraction, ...]
    n: tuple[Fraction, ...]
    m0: int | None
    l: tuple[int, ...] | None
    d: Fraction

    @property
    def stratum(self) -> str:
        if self.m0 is None:
            return P_ZERO
        return P_POSITIVE if self.d > 0 else P_SQUARE_ZERO


def invariants(selfs: Sequence[int], p: Sequence[Fraction]) -> tuple:
    """(m0, l, d) of a nef part: m0 clears denominators, l = m0*P, d = P.P."""
    d = sum(a * b for a, b in zip(p, stencil(selfs, p)))
    if all(x == 0 for x in p):
        return None, None, Fraction(d)
    m0 = lcm(*(Fraction(x).denominator for x in p))
    return m0, tuple(int(x * m0) for x in p), Fraction(d)


def decompose(selfs: Sequence[int]) -> Truth:
    """Zariski decomposition of the full cycle by support growth.

    Solve (C - N).C_i = 0 on the support S, then add the least component
    with a negative product, until P = C - N is nef.  The result is
    verified by :func:`check_decomposition` before it is returned.
    """
    m = len(selfs)
    ones = [Fraction(1)] * m
    cdots = stencil(selfs, ones)
    support: list[int] = []
    n = [Fraction(0)] * m
    while True:
        if support:
            rows = [[Fraction(form_entry(selfs, i, j)) for j in support] for i in support]
            solved = _solve(rows, [Fraction(cdots[i]) for i in support])
            n = [Fraction(0)] * m
            for i, x in zip(support, solved):
                n[i] = x
        p = [a - b for a, b in zip(ones, n)]
        pdots = stencil(selfs, p)
        grow = next((i for i in range(m) if i not in support and pdots[i] < 0), None)
        if grow is None:
            break
        support.append(grow)
    m0, l, d = invariants(selfs, p)
    truth = Truth(tuple(p), tuple(n), m0, l, d)
    problems = check_decomposition(selfs, ones, truth.p, truth.n, (m0, l, d))
    if problems:
        raise AssertionError(f"checker's own decomposition of {list(selfs)}: {problems}")
    return truth


def check_decomposition(
    selfs: Sequence[int],
    divisor: Sequence[Fraction],
    p: Sequence[Fraction],
    n: Sequence[Fraction],
    claimed: tuple | None = None,
) -> list[str]:
    """Every defining condition of D = P + N, and the claimed (m0, l, d)."""
    m = len(selfs)
    if not len(divisor) == len(p) == len(n) == m:
        return [f"lengths differ: m = {m}, |D| = {len(divisor)}, |P| = {len(p)}, |N| = {len(n)}"]
    problems = []
    if any(a + b != c for a, b, c in zip(p, n, divisor)):
        problems.append("P + N != D")
    if any(x < 0 for x in p):
        problems.append("P is not effective")
    if any(x < 0 for x in n):
        problems.append("N is not effective")
    pdots = stencil(selfs, p)
    if any(x < 0 for x in pdots):
        problems.append("P.C_i < 0 for some i")
    support = [i for i in range(m) if n[i] != 0]
    if any(pdots[i] != 0 for i in support):
        problems.append("P.C_i != 0 on the support of N")
    if support and not negative_definite(selfs, support):
        problems.append("support of N is not negative definite")
    if claimed is not None and tuple(claimed) != invariants(selfs, p):
        problems.append(f"(m0, l, d) = {claimed}, expected {invariants(selfs, p)}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs


@dataclass(frozen=True)
class PencilCase:
    """One generated config file and what the checker knows about it."""

    text: str
    n: int
    family: str  # the config's family line
    tau: int | None  # order of a constant finite family, else None
    selfs: tuple[int, ...] | None = None  # None for an elliptic base
    k: int | None = None
    truth: Truth | None = None


@dataclass(frozen=True)
class Command:
    case: int
    sub: str
    args: tuple[str, ...]  # options after --file
    as_json: bool

    def argv(self, path: str) -> list[str]:
        return [self.sub, "--file", path, *self.args] + (["--json"] if self.as_json else [])

    def opt(self, name: str) -> int | None:
        if name in self.args:
            return int(self.args[self.args.index(name) + 1])
        return None


def _flatten(value, key: str, out: dict[str, str]) -> None:
    """The CLI's ``key: value`` rendering, applied to a parsed JSON report."""
    if isinstance(value, dict):
        for sub, item in value.items():
            _flatten(item, f"{key}.{sub}" if key else sub, out)
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        for i, item in enumerate(value):
            _flatten(item, f"{key}[{i}]", out)
    elif isinstance(value, list):
        out[key] = f"({', '.join(str(v) for v in value)})"
    elif value is None:
        out[key] = "absent"
    elif isinstance(value, bool):
        out[key] = "true" if value else "false"
    else:
        out[key] = str(value)


def parse_report(stdout: str, as_json: bool) -> dict[str, str]:
    if as_json:
        flat: dict[str, str] = {}
        _flatten(json.loads(stdout), "", flat)
        return flat
    flat = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"unparsable line {line!r}")
        flat[key] = value
    return flat


def _values(text: str) -> list[Fraction]:
    inner = text.strip("()")
    return [Fraction(x) for x in inner.split(", ")] if inner else []


def _render(values) -> str:
    return f"({', '.join(str(v) for v in values)})"


def verdict(case: PencilCase) -> str:
    t = case.truth
    if t is None:
        return "a2" if case.n == 4 and case.tau is not None else "a1"
    if t.stratum == P_ZERO:
        return "a1"
    if t.stratum == P_POSITIVE:
        return "a3"
    if case.tau is not None:
        return "a2" if case.n == 4 else "inconsistent"
    return "a1"


def kodaira(case: PencilCase) -> str:
    t = case.truth
    assert t is not None
    if t.stratum == P_ZERO:
        return "zero"
    if t.stratum == P_POSITIVE:
        return "two"
    if case.tau is not None:
        return "one"
    return "zero" if case.family.startswith("const") else "needs_order"


def _normal_shift(case: PencilCase) -> int | None:
    """The rotation putting l_1 > l_2 first, when the resolved model exists."""
    t = case.truth
    if t is None or t.stratum != P_SQUARE_ZERO or case.k is None or case.k < 2:
        return None
    l, m = t.l, len(t.l)
    return next((s for s in range(case.k) if l[s] > l[(s + 1) % m]), None)


def expected_exit(case: PencilCase, cmd: Command) -> int:
    t = case.truth
    if cmd.sub == "fibers":
        return 0
    if cmd.sub == "adim":
        if t is not None and t.stratum == P_SQUARE_ZERO and case.n > 4 and case.k < 2:
            return 2
        return 3 if verdict(case) == "inconsistent" else 0
    if t is None:
        return 2  # an elliptic base carries no cycle
    if cmd.sub in ("fixed", "intnums"):
        if cmd.opt("--nu") is not None and case.tau is None:
            return 2
        return 0 if _normal_shift(case) is not None else 2
    return 0


def _contract_once(selfs: list[int], c: int) -> list[int] | None:
    m = len(selfs)
    if selfs[c] != -1 or m < 2:
        return None
    if m == 2:
        return [selfs[1 - c] + 4]
    out = list(selfs)
    out[(c - 1) % m] += 1
    out[(c + 1) % m] += 1
    del out[c]
    return out


def replay_contract(case: PencilCase) -> tuple[list[int], list[int]] | None:
    """Greedy blow-downs of the least (-1)-component until C is nef.

    C is nef exactly when its negative part vanishes, so the stencil alone
    decides when to stop.  Returns (final self-intersections, 1-based
    components contracted), or None when no nef model is reached.
    """
    if case.truth.stratum == P_ZERO:
        return None
    cur, k, steps = list(case.selfs), case.k, []
    while True:
        if all(x >= 0 for x in stencil(cur, [1] * len(cur))):
            return cur, steps
        target = next((i for i, s in enumerate(cur) if s == -1), None)
        if target is None or k == 1:
            return None
        conj = (target + k) % len(cur)
        for c in (max(target, conj), min(target, conj)):
            cur = _contract_once(cur, c)
            if cur is None:
                return None
        k -= 1
        steps.append(target + 1)


def _blowup_expectation(case: PencilCase, node: int) -> tuple[list[int], list[int]]:
    """Self-intersections and inserted 1-based positions after the real
    blow-up of node ``node`` (0-based) and its conjugate."""
    selfs, m = list(case.selfs), len(case.selfs)
    conj = (node + case.k) % m
    for nd in (node, conj):
        selfs[nd] -= 1
        selfs[(nd + 1) % m] -= 1
    for pos in sorted((node + 1, conj + 1), reverse=True):
        selfs.insert(pos, -1)
    low, high = sorted((node + 1, conj + 1))
    return selfs, [low + 1, high + 2]


def _check_fields(case: PencilCase, cmd: Command, f: dict[str, str]) -> list[str]:
    t = case.truth
    problems: list[str] = []

    def want(key: str, value: str) -> None:
        if f.get(key) != value:
            problems.append(f"{key} = {f.get(key)!r}, expected {value!r}")

    def decomposition() -> None:
        ones = [Fraction(1)] * len(case.selfs)
        l = None if f["l"] == "absent" else tuple(int(x) for x in _values(f["l"]))
        m0 = None if f["m0"] == "absent" else int(f["m0"])
        problems.extend(
            check_decomposition(
                case.selfs,
                ones,
                _values(f["decomposition.p"]),
                _values(f["decomposition.n"]),
                (m0, l, Fraction(f["d"])),
            )
        )

    if cmd.sub == "zariski":
        decomposition()
        want("kodaira", kodaira(case))
    elif cmd.sub == "classify":
        want("kodaira", kodaira(case))
        want("d", str(t.d))
    elif cmd.sub == "adim":
        v = verdict(case)
        want("verdict", v)
        want("kodaira", {"a1": "zero", "a2": "one", "a3": "two", "inconsistent": "one"}[v])
        if t is not None:
            decomposition()
        elif "decomposition.p" in f:
            problems.append("elliptic base reported a decomposition")
        if v == "inconsistent":
            want("derivations[0].holds", "true")
            want("derivations[1].holds", "true")
        elif "derivations[0].title" in f:
            problems.append("derivations reported without an inconsistent verdict")
    elif cmd.sub == "contract":
        replay = replay_contract(case)
        want("found", "false" if replay is None else "true")
        if replay is not None:
            want("result.selfints", _render(replay[0]))
            done = [f.get(f"steps[{i}].component") for i in range(len(replay[1]))]
            if done != [str(c) for c in replay[1]] or f"steps[{len(replay[1])}].kind" in f:
                problems.append(f"contraction steps differ from {replay[1]}")
    elif cmd.sub == "blowup":
        selfs, inserted = _blowup_expectation(case, cmd.opt("--node") - 1)
        want("result.selfints", _render(selfs))
        want("inserted", _render(inserted))
        # node blow-ups transport m0*P exactly when P != 0 and P^2 = 0
        transported = decompose(selfs).l if t.stratum == P_SQUARE_ZERO else None
        want("transported_l", "absent" if transported is None else _render(transported))
    elif cmd.sub == "fixed":
        nu = cmd.opt("--nu")
        rho = nu * case.tau if nu is not None else cmd.opt("--rho")
        want("rho", str(rho))
        want("derivations[0].title", "fixed-component")
        want("derivations[0].holds", "true" if rho > 0 else "false")
        want("pluri_dim", "0" if nu is not None and rho > 0 else None)
    elif cmd.sub == "intnums":
        shift, l = _normal_shift(case), t.l
        l_rot = [l[(shift + i) % len(l)] for i in range(len(l))]
        want("l", _render(l_rot))
        rho, gap = cmd.opt("--rho"), l_rot[0] - l_rot[1]
        values = {key[len("intersections."):]: v for key, v in f.items() if key.startswith("intersections.")}
        expected = {"C_{1,2}": -rho * gap, "~C_{1,2}": -rho * gap, "Delta_1": rho * gap, "~Delta_1": rho * gap}
        if len(values) != 2 * case.k + 2 or any(
            int(v) != expected.get(name, 0) for name, v in values.items()
        ):
            problems.append(f"intersections {values} disagree with -rho*(l1 - l2) = {-rho * gap}")
    elif cmd.sub == "fibers":
        count = case.k or 0
        if count == 0:
            want("fibers", "()")
        for i in range(count + 1):
            want(f"fibers[{i}].index", str(i + 1) if i < count else None)
    return problems


def check_command(case: PencilCase, cmd: Command, code: int, stdout: str) -> list[str]:
    """Problems with one command's exit code and report; empty when correct."""
    expected = expected_exit(case, cmd)
    if code != expected:
        return [f"exit {code}, expected {expected}: {stdout[-300:]!r}"]
    if code == 2:
        return [] if stdout.startswith("invalid:") else ["exit 2 without an 'invalid:' diagnostic"]
    try:
        return _check_fields(case, cmd, parse_report(stdout, cmd.as_json))
    except (ValueError, KeyError) as exc:
        return [f"malformed report: {exc!r}"]
