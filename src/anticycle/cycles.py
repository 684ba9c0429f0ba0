"""Cycles of rational curves and exact Zariski decompositions.

A configuration is a cycle C = C_1 + ... + C_m of rational curves on a
rational surface with C anti-canonical: consecutive components meet once
(m = 2 components meet twice, and m = 1 is a single nodal curve whose
recorded self-intersection includes the node).  An optional real structure
pairs component i with component i + k (m = 2k), and real configurations
carry the number n of projective-plane summands of the ambient half of the
twistor space, tied to the configuration through C^2 = 8 - 2n.

The central operation is the Zariski decomposition C = P + N into a nef
part and a negative part, computed exactly and certified against the
defining conditions.  It follows T. Bauer, "A simple proof for the
existence of Zariski decompositions on surfaces" (J. Algebraic Geom. 18,
2009): the support of N grows in rounds, every component with P.C_i < 0
joins in one round, and Bauer's lemma keeps each enlarged support
negative definite.  The intersection form of a cycle has at most three
non-zeros per row, and every proper subset of the components is a
disjoint union of chains.  The production algorithm uses both facts: its
products are a stencil over the self-intersections, and it solves a
proper support as tridiagonal chains with the continuants of each run
(fraction-free elimination; the continuants are the chain's leading
minors, and their ratios its Hirzebruch-Jung remainders).  A round needs
P only for the sign of P.C_i outside the support, where N_i = 0, so it
reads P.C_i off the two neighbours of N; P and its stencil are built
once, after the last round, for the certification.  The solve
sweeps every run forward first and stops at a zero continuant, takes one
lcm of the runs' last continuants, and back-substitutes each run in
place.  Negative definiteness of supp N is certified by walking the
continuant recurrence again, from the self-intersections, up to the
first pivot of the wrong sign.  The arithmetic is integer
throughout: the divisor and the negative part are carried as integer
vectors over one positive denominator, and ``Fraction`` appears only when
the result is packed, which builds one ``Fraction`` per distinct
coefficient value but 0 and 1, two shared constants.  A support that is
the whole cycle needs no solve (N = D), and its definiteness is the chain
of the first m - 1 components plus the Schur complement of the last.  A
deliberately naive oracle that enumerates all candidate supports with the
dense ``Fraction`` matrices of :mod:`anticycle.qform` is kept alongside;
the two share no arithmetic, so they can be compared on every input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .pic0 import CONSTANT_FINITE, CONSTANT_INFINITE, PicZeroFamily, family_profile
from .qform import (
    NEGATIVE_DEFINITE,
    SymMatrix,
    definiteness,
    solve_linear,
)

KODAIRA_ZERO = "zero"
KODAIRA_ONE = "one"
KODAIRA_TWO = "two"
KODAIRA_NEEDS_ORDER = "needs_order"

#: Enumerating 2^m supports is only reasonable for small cycles.
ORACLE_MAX_COMPONENTS = 12

#: What ``validate`` reports, and both decompositions raise, for m = 0.
_EMPTY_CYCLE = "cycle must have at least one component"

#: The coefficients 0 and 1, which nearly every decomposition packs, and
#: P.P = 0: immutable, so every result shares them.
_ZERO, _ONE = Fraction(0), Fraction(1)


class CertificationError(Exception):
    """A computed decomposition failed one of its defining conditions."""


class OracleError(Exception):
    """Support enumeration did not isolate exactly one decomposition."""


@dataclass(frozen=True)
class CycleConfig:
    """A cycle of rational curves, optionally with a real structure.

    ``self_ints[i]`` is the self-intersection of component i.  When
    ``real_k`` is set the cycle has 2k components and component i is
    conjugate to component i + k; conjugate components must have equal
    self-intersections and ``n`` (the number of plane summands) must be
    present and satisfy C^2 = 8 - 2n.
    """

    self_ints: tuple[int, ...]
    real_k: int | None = None
    n: int | None = None

    @staticmethod
    def plain(self_ints: Iterable[int]) -> "CycleConfig":
        return CycleConfig(tuple(int(s) for s in self_ints))

    @staticmethod
    def real(half_self_ints: Iterable[int], n: int) -> "CycleConfig":
        half = tuple(int(s) for s in half_self_ints)
        return CycleConfig(half + half, real_k=len(half), n=n)

    @property
    def m(self) -> int:
        return len(self.self_ints)

    @property
    def is_real(self) -> bool:
        return self.real_k is not None

    def conjugate_index(self, i: int) -> int:
        if self.real_k is None:
            raise ValueError("configuration has no real structure")
        return (i + self.real_k) % self.m


@dataclass(frozen=True)
class QDivisor:
    """A rational divisor supported on the cycle components."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable[int | Fraction]) -> "QDivisor":
        return QDivisor(tuple(Fraction(v) for v in values))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    @property
    def is_effective(self) -> bool:
        return all(x >= 0 for x in self.coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.coeffs) if x != 0)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.coeffs)

    def __add__(self, other: "QDivisor") -> "QDivisor":
        return QDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return QDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar: int | Fraction) -> "QDivisor":
        s = Fraction(scalar)
        return QDivisor(tuple(s * a for a in self.coeffs))


@dataclass(frozen=True)
class ZariskiDecomposition:
    """The decomposition divisor = p + n_part with its derived invariants.

    ``m0`` is the least positive integer clearing the denominators of the
    nef part and ``l`` the coefficient list of m0*P; both are ``None``
    exactly when the nef part vanishes.  ``d`` is the degree P.P.
    """

    config: CycleConfig
    divisor: QDivisor
    p: QDivisor
    n_part: QDivisor
    m0: int | None
    l: tuple[int, ...] | None
    d: Fraction


def validate(config: CycleConfig) -> list[str]:
    """Return a list of diagnostics; an empty list means the config is valid."""
    issues: list[str] = []
    m = config.m
    if m < 1:
        issues.append(_EMPTY_CYCLE)
        return issues
    k = config.real_k
    if k is not None:
        if k < 1:
            issues.append("real structure requires k >= 1")
        elif m != 2 * k:
            issues.append(f"real structure requires 2k components, got m={m} with k={k}")
        else:
            for i in range(k):
                if config.self_ints[i] != config.self_ints[i + k]:
                    issues.append(
                        f"conjugate components {i + 1} and {i + k + 1} have "
                        f"different self-intersections"
                    )
        if config.n is None:
            issues.append("real configurations must carry n")
    elif config.n is not None:
        issues.append("n is only meaningful for real configurations")
    if config.n is not None:
        if config.n < 0:
            issues.append("n must be non-negative")
        csq = _cycle_square(config)
        if csq != 8 - 2 * config.n:
            issues.append(f"C^2 = {csq} but 8 - 2n = {8 - 2 * config.n}")
    return issues


def intersection_matrix(config: CycleConfig) -> SymMatrix:
    """Intersection matrix of the components in cyclic order."""
    m = config.m
    s = config.self_ints
    if m == 1:
        rows: list[list[int]] = [[s[0]]]
    elif m == 2:
        rows = [[s[0], 2], [2, s[1]]]
    else:
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = s[i]
            rows[i][(i + 1) % m] = 1
            rows[(i + 1) % m][i] = 1
    return SymMatrix.from_rows(rows)


def anticanonical(config: CycleConfig) -> QDivisor:
    """The full cycle as a divisor (all coefficients one)."""
    return _ones(config.m)


@cache
def _ones(m: int) -> QDivisor:
    """The divisor with m coefficients one; immutable, so shared per m."""
    return QDivisor.of([1] * m)


def cycle_dots(config: CycleConfig) -> list[int]:
    """C.C_i for every component: the stencil of the all-ones vector."""
    return _stencil(config.self_ints, [1] * config.m)


def _cycle_square(config: CycleConfig) -> int:
    """C^2 = 1^T M 1, read off the self-intersections."""
    return sum(cycle_dots(config))


def _coerce_divisor(config: CycleConfig, divisor) -> QDivisor:
    if divisor is None:
        return anticanonical(config)
    if not isinstance(divisor, QDivisor):
        divisor = QDivisor.of(divisor)
    if len(divisor.coeffs) != config.m:
        raise ValueError("divisor length does not match cycle length")
    if not divisor.is_effective:
        raise ValueError("only effective divisors are decomposed")
    return divisor


def _finish(
    config: CycleConfig,
    matrix: SymMatrix,
    divisor: QDivisor,
    n_coeffs: Sequence[Fraction],
) -> ZariskiDecomposition:
    """Certify a candidate decomposition with the dense matrix."""
    n_part = QDivisor(tuple(n_coeffs))
    p = divisor - n_part
    if not n_part.is_effective:
        raise CertificationError("negative part is not effective")
    if not p.is_effective:
        raise CertificationError("nef part is not effective")
    pdots = matrix.apply(p.coeffs)
    if any(x < 0 for x in pdots):
        raise CertificationError("nef condition fails: P.C_i < 0 for some i")
    support = n_part.support
    if any(pdots[i] != 0 for i in support):
        raise CertificationError("P does not annihilate the support of N")
    if support and definiteness(matrix.submatrix(support)).kind != NEGATIVE_DEFINITE:
        raise CertificationError("support of N is not negative definite")
    if p.is_zero:
        m0, l = None, None
    else:
        m0 = lcm(*(x.denominator for x in p.coeffs))
        l = tuple(int(x * m0) for x in p.coeffs)
    d = sum(map(mul, p.coeffs, pdots))
    return ZariskiDecomposition(config, divisor, p, n_part, m0, l, d)


def _stencil(s: Sequence[int], v: Sequence[int | Fraction]) -> list[int | Fraction]:
    """The product M@v read off the self-intersections ``s``.

    (Mv)_i = s_i v_i + v_{i-1} + v_{i+1}.  For m = 2 both neighbours are
    the other component, which gives the double intersection; a single
    nodal component meets only itself.
    """
    m = len(s)
    if m == 1:
        return [s[0] * v[0]]
    return [s[i] * v[i] + v[i - 1] + v[(i + 1) % m] for i in range(m)]


def _runs(support: Iterable[int], m: int) -> list[list[int]]:
    """The maximal runs of cyclically consecutive indices of a proper support.

    One scan of the sorted support; a run that ends at index m - 1 joins
    the run that starts at 0.  The runs come in no particular order.
    """
    runs: list[list[int]] = []
    prev = -2
    for i in sorted(support):
        if i == prev + 1:
            run.append(i)
        else:
            run = [i]
            runs.append(run)
        prev = i
    if len(runs) > 1 and runs[0][0] == 0 and prev == m - 1:
        runs[0] = runs.pop() + runs[0]
    return runs


def _solve_chain(
    s: Sequence[int], rhs: Sequence[int], support: Iterable[int]
) -> tuple[list[int], int] | None:
    """Integers N over L > 0 with (M@N)_i = L rhs_i for i in the support.

    Each maximal run is a tridiagonal system with unit off-diagonals,
    solved fraction-free with its continuants q_{-2} = 0, q_{-1} = 1,
    q_t = s_t q_{t-1} - q_{t-2} (q_t is the leading (t+1)-minor of the
    chain).  The solve has two phases.  First the forward sweep of every
    run builds the continuants together with R_{-1} = 0,
    R_t = rhs_t q_{t-1} - R_{t-1},
    and returns ``None`` at the first continuant that vanishes (the run is
    then singular or not negative definite, and Bauer's growth lemma keeps
    every growth support negative definite).  Then L is the least common
    multiple of the runs' |q_last|, and each run's back sweep
    X_last = R_last, X_t = (R_t q_last - q_{t-1} X_{t+1}) / q_t, an exact
    division, writes X (L / q_last), the run's solution over L, straight
    into the coefficient list.
    """
    swept = []
    for run in _runs(support, len(s)):
        # q[t + 1] is q_t, from q[0] = q_{-1}.
        q_prev, det, r = 0, 1, 0
        q, reduced = [1], []
        for i in run:
            r = rhs[i] * det - r
            q_prev, det = det, s[i] * det - q_prev
            if not det:
                return None
            q.append(det)
            reduced.append(r)
        swept.append((run, q, reduced))
    denominator = lcm(*[q[-1] for _, q, _ in swept])
    coeffs = [0] * len(s)
    for run, q, reduced in swept:
        det = q[-1]
        scale = denominator // det
        x = reduced[-1]
        coeffs[run[-1]] = x * scale
        for t in range(len(run) - 2, -1, -1):
            x = (reduced[t] * det - q[t] * x) // q[t + 1]
            coeffs[run[t]] = x * scale
    return coeffs, denominator


def _negative_definite_support(config: CycleConfig, support: Sequence[int]) -> bool:
    """Whether the components ``support`` span a negative-definite configuration.

    A chain is negative definite iff every leading minor of its negated
    matrix is positive: the continuants p_{-2} = 0, p_{-1} = 1,
    p_t = -s_t p_{t-1} - p_{t-2} (p_t = (-1)^{t+1} q_t for the continuants
    q_t of the chain itself).  A proper support walks this recurrence
    along each run and stops at the first p_t <= 0.  The whole cycle is
    negative definite iff the chain C_1..C_{m-1} is and the Schur
    complement of C_m is negative (Haynsworth's inertia additivity); with
    the chain solved as integers X over L > 0, that is
    last_m L - sum last_i X_i < 0.
    """
    s = config.self_ints
    m = len(s)
    if len(support) < m:
        for run in _runs(support, m):
            p_prev, p = 0, 1
            for i in run:
                p_prev, p = p, -s[i] * p - p_prev
                if p <= 0:
                    return False
        return True
    chain = range(m - 1)
    if not _negative_definite_support(config, chain):
        return False
    last = _stencil(s, [0] * (m - 1) + [1])
    x, denominator = _solve_chain(s, last, chain)
    return last[-1] * denominator - sum(a * b for a, b in zip(last, x)) < 0


def zariski_decompose(config: CycleConfig, divisor=None) -> ZariskiDecomposition:
    """Zariski decomposition of an effective divisor on the cycle.

    The first support S is every component with D.C_i < 0.  Each round
    solves for the negative part N on S via (D - N).C_i = 0 for i in S,
    then grows S by every component outside it with P.C_i < 0, where
    P = D - N, at once and in index order; the loop stops when no
    component has P.C_i < 0.  Outside S, N_i = 0, so the round reads
    P.C_i = D.C_i - N_{i-1} - N_{i+1} off N's neighbours (for m = 2 the
    other component counts twice) and builds no P.  Bauer's lemma keeps
    every enlarged S negative definite, and each round costs one solve.
    The loop is integer throughout: D is carried as integers over
    ``den``, the lcm of its denominators (C itself, the default, is all
    ones over 1), and N as integers over L * den, where L > 0
    (``chain_den``) comes from the continuant solve of the runs of a
    proper support (the whole cycle as support gives N = D, L = 1).
    Products come from the stencil of the self-intersections; no dense
    matrix is built.  After the loop the integer vector L * den * P and
    its stencil are built once, for the certification (with no round,
    P = D and its stencil is the right-hand side).  The result is
    certified against all defining conditions, read off them: P and N
    effective, P nef, P orthogonal to every component of N, and N
    supported on a negative-definite configuration (the continuants of
    supp N, plus a Schur complement when supp N is the whole cycle).
    Packing builds one ``Fraction`` per distinct integer of P and N but 0
    and L * den (shared constants, as is a zero P.P), and m0 and l fall
    out of L * den * P through one gcd.  An empty cycle raises
    ``ValueError``.
    """
    s = config.self_ints
    m = len(s)
    if not m:
        raise ValueError(_EMPTY_CYCLE)
    if divisor is None:
        divisor, den, dint = _ones(m), 1, [1] * m
    else:
        divisor = _coerce_divisor(config, divisor)
        den = lcm(*(x.denominator for x in divisor.coeffs))
        dint = [x.numerator * (den // x.denominator) for x in divisor.coeffs]
    rhs = _stencil(s, dint)
    support = [i for i, x in enumerate(rhs) if x < 0]
    n_coeffs, chain_den = [0] * m, 1
    while support:
        if len(support) >= m:
            # Bauer's growth lemma: the whole cycle is then negative definite,
            # so M N = M D gives N = D; the certification below checks it.
            # A correct solve repeats no index; ">=" bounds the loop at m
            # rounds even if one does, since every round adds an index.
            n_coeffs, chain_den = dint, 1
            break
        solved = _solve_chain(s, rhs, support)
        if solved is None:
            raise CertificationError(
                "singular support system on components "
                f"{[i + 1 for i in support]}"
            )
        n_coeffs, chain_den = solved
        # Where N_i = 0, P.C_i = L rhs_i - N_{i-1} - N_{i+1}; for m = 2 both
        # neighbours are the other component, which counts twice, as it
        # should.  That holds off the support, and on it the solve makes
        # P.C_i = 0, so the test adds no component of the support.
        growth = [
            i
            for i in range(m)
            if not n_coeffs[i]
            and chain_den * rhs[i] < n_coeffs[i - 1] + n_coeffs[i + 1 - m]
        ]
        if not growth:
            break
        support += growth
    if support:
        p = [chain_den * a - b for a, b in zip(dint, n_coeffs)]
        # The stencil, inline; p[i + 1 - m] is p[(i + 1) % m].  A nodal
        # curve (m = 1) grows only to the whole cycle, where P = 0.  With no
        # round it would read (s_0 + 2) p_0, hence rhs below.
        pdots = [s[i] * p[i] + p[i - 1] + p[i + 1 - m] for i in range(m)]
    else:
        p, pdots = dint, rhs
    if min(n_coeffs) < 0:
        raise CertificationError("negative part is not effective")
    if min(p) < 0:
        raise CertificationError("nef part is not effective")
    if min(pdots) < 0:
        raise CertificationError("nef condition fails: P.C_i < 0 for some i")
    n_support = [i for i, x in enumerate(n_coeffs) if x]
    if any(pdots[i] for i in n_support):
        raise CertificationError("P does not annihilate the support of N")
    if n_support and not _negative_definite_support(config, n_support):
        raise CertificationError("support of N is not negative definite")
    scale = chain_den * den
    if any(p):
        g = gcd(scale, *p)
        m0, l = scale // g, tuple([x // g for x in p])
    else:
        m0, l = None, None
    packed = {0: _ZERO, scale: _ONE}
    for x in {*p, *n_coeffs}.difference(packed):
        packed[x] = Fraction(x, scale)
    pack = packed.__getitem__
    d = sum(map(mul, p, pdots))
    return ZariskiDecomposition(
        config,
        divisor,
        QDivisor(tuple(map(pack, p))),
        QDivisor(tuple(map(pack, n_coeffs))),
        m0,
        l,
        Fraction(d, scale * scale) if d else _ZERO,
    )


def zariski_oracle(config: CycleConfig, divisor=None) -> ZariskiDecomposition:
    """Zariski decomposition by brute-force support enumeration.

    Solves the orthogonality system on every one of the 2^m candidate
    supports with the dense matrix, keeps the candidates that satisfy all
    defining conditions, and insists that exactly one decomposition
    survives.  Independent of :func:`zariski_decompose` by design: it
    shares neither its search nor its arithmetic, since the algorithm uses
    only the stencil, the chain solve and the pivots, and the dense
    :mod:`anticycle.qform` routines serve only the oracle.  Limited to
    1 <= m <= 12 components.
    """
    if config.m > ORACLE_MAX_COMPONENTS:
        raise ValueError(f"oracle limited to m <= {ORACLE_MAX_COMPONENTS} components")
    if not config.m:
        raise ValueError(_EMPTY_CYCLE)
    divisor = _coerce_divisor(config, divisor)
    matrix = intersection_matrix(config)
    rhs = matrix.apply(divisor.coeffs)
    survivors: dict[tuple[Fraction, ...], ZariskiDecomposition] = {}
    for size in range(config.m + 1):
        for support in itertools.combinations(range(config.m), size):
            nu = solve_linear(matrix.submatrix(support), [rhs[i] for i in support])
            if nu is None:
                continue
            n_coeffs = [Fraction(0)] * config.m
            for i, x in zip(support, nu):
                n_coeffs[i] = x
            try:
                candidate = _finish(config, matrix, divisor, n_coeffs)
            except CertificationError:
                continue
            survivors.setdefault(candidate.n_part.coeffs, candidate)
    if len(survivors) != 1:
        raise OracleError(
            f"expected a unique decomposition, found {len(survivors)} candidates"
        )
    return next(iter(survivors.values()))


def classify_kodaira(
    z: ZariskiDecomposition, family: PicZeroFamily | None = None
) -> str:
    """Anti-Kodaira classification of the surface carrying the cycle of ``z``.

    ``z`` is the cycle's Zariski decomposition and ``family`` the
    restriction family of the normal bundle, profiled with
    :func:`~anticycle.pic0.family_profile` (which rejects an inconsistent
    family).  The family refines the boundary case P != 0, P^2 = 0: a
    constant family of finite order gives dimension one, one of infinite
    order dimension zero, and a nonconstant family or none defers the
    classification.
    """
    kind = family_profile(family).kind if family is not None else None
    if z.p.is_zero:
        return KODAIRA_ZERO
    if z.d > 0:
        return KODAIRA_TWO
    if kind == CONSTANT_FINITE:
        return KODAIRA_ONE
    if kind == CONSTANT_INFINITE:
        return KODAIRA_ZERO
    return KODAIRA_NEEDS_ORDER


def riemann_roch_chi(config: CycleConfig, divisor) -> int:
    """Euler characteristic chi(D) = 1 + (D^2 + D.C)/2 for integral D.

    The cycle is anti-canonical, so this is Riemann-Roch on the underlying
    rational surface.  D^2 + D.C = sum (D_i + 1)(M D)_i is read off the
    stencil; it is even for integral D (modulo 2 it is sum s_i D_i (D_i + 1)).
    A divisor with fractional entries is rejected.
    """
    if not isinstance(divisor, QDivisor):
        divisor = QDivisor.of(divisor)
    if len(divisor.coeffs) != config.m:
        raise ValueError("divisor length does not match cycle length")
    if not divisor.is_integral:
        raise ValueError("chi is only defined for integral divisors")
    d = divisor.coeffs
    total = sum((x + 1) * y for x, y in zip(d, _stencil(config.self_ints, d)))
    return 1 + int(total) // 2


def ambient_n(config: CycleConfig) -> int | None:
    """The number of plane summands, stored or recovered from C^2 = 8 - 2n."""
    if config.n is not None:
        return config.n
    csq = _cycle_square(config)
    if (8 - csq) % 2 != 0:
        return None
    return (8 - csq) // 2
