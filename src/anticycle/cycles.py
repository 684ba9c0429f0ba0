"""Cycles of rational curves and exact Zariski decompositions.

A configuration is a cycle C = C_1 + ... + C_m of rational curves on a
rational surface with C anti-canonical: consecutive components meet once
(m = 2 components meet twice, and m = 1 is a single nodal curve whose
recorded self-intersection includes the node).  An optional real structure
pairs component i with component i + k (m = 2k), and real configurations
carry the number n of projective-plane summands of the ambient half of the
twistor space, tied to the configuration through C^2 = 8 - 2n.

The central operation is the Zariski decomposition C = P + N into a nef
part and a negative part, computed by exact rational arithmetic and
certified against the defining conditions.  A deliberately naive oracle
that enumerates all candidate supports is kept alongside the production
algorithm so the two can be compared on every input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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

ORDER_INFINITE = "infinite"

#: Enumerating 2^m supports is only reasonable for small cycles.
ORACLE_MAX_COMPONENTS = 12


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
        issues.append("cycle must have at least one component")
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
    return QDivisor.of([1] * config.m)


def _cycle_square(config: CycleConfig) -> Fraction:
    ones = anticanonical(config)
    return intersection_matrix(config).pair(ones.coeffs, ones.coeffs)


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


def _solve_on_support(
    matrix: SymMatrix, target: QDivisor, support: Sequence[int]
) -> list[Fraction] | None:
    """Coefficients nu on ``support`` with (target - N).C_i = 0 for i in support."""
    rhs = matrix.apply(target.coeffs)
    sub = matrix.submatrix(support)
    solution = solve_linear(sub, [rhs[i] for i in support])
    if solution is None:
        return None
    coeffs = [Fraction(0)] * matrix.dim
    for idx, i in enumerate(support):
        coeffs[i] = solution[idx]
    return coeffs


def _finish(
    config: CycleConfig,
    matrix: SymMatrix,
    divisor: QDivisor,
    n_coeffs: Sequence[Fraction],
) -> ZariskiDecomposition:
    """Certify the candidate decomposition and package its invariants."""
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
    d = matrix.pair(p.coeffs, p.coeffs)
    return ZariskiDecomposition(config, divisor, p, n_part, m0, l, d)


def zariski_decompose(config: CycleConfig, divisor=None) -> ZariskiDecomposition:
    """Zariski decomposition of an effective divisor on the cycle.

    Starting from empty support, repeatedly solve for the negative part N
    on the current support S via (D - N).C_i = 0 for i in S, then grow S by
    the least component on which D - N fails to be nef.  On termination the
    result is certified against all defining conditions: P and N effective,
    P nef, N supported on a negative-definite configuration, and P
    orthogonal to every component of N.
    """
    divisor = _coerce_divisor(config, divisor)
    matrix = intersection_matrix(config)
    support: list[int] = []
    n_coeffs: list[Fraction] = [Fraction(0)] * config.m
    while True:
        if support:
            solved = _solve_on_support(matrix, divisor, support)
            if solved is None:
                raise CertificationError(
                    f"singular support system on components {support}"
                )
            n_coeffs = solved
        p = divisor - QDivisor(tuple(n_coeffs))
        pdots = matrix.apply(p.coeffs)
        growth = next(
            (i for i in range(config.m) if i not in support and pdots[i] < 0), None
        )
        if growth is None:
            break
        support.append(growth)
    return _finish(config, matrix, divisor, n_coeffs)


def zariski_oracle(config: CycleConfig, divisor=None) -> ZariskiDecomposition:
    """Zariski decomposition by brute-force support enumeration.

    Solves the orthogonality system on every one of the 2^m candidate
    supports, keeps the candidates that satisfy all defining conditions,
    and insists that exactly one decomposition survives.  Independent of
    :func:`zariski_decompose` by design; limited to m <= 12 components.
    """
    if config.m > ORACLE_MAX_COMPONENTS:
        raise ValueError(f"oracle limited to m <= {ORACLE_MAX_COMPONENTS} components")
    divisor = _coerce_divisor(config, divisor)
    matrix = intersection_matrix(config)
    survivors: dict[tuple[Fraction, ...], ZariskiDecomposition] = {}
    for size in range(config.m + 1):
        for support in itertools.combinations(range(config.m), size):
            n_coeffs = _solve_on_support(matrix, divisor, support)
            if n_coeffs is None:
                continue
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


def m0_coefficients(decomposition: ZariskiDecomposition) -> tuple[int, tuple[int, ...]]:
    """The pair (m0, l) of a decomposition with non-vanishing nef part."""
    if decomposition.m0 is None or decomposition.l is None:
        raise ValueError("nef part is zero: m0 and l are undefined")
    return decomposition.m0, decomposition.l


def degree(decomposition: ZariskiDecomposition) -> Fraction:
    """The degree d = P.P of the nef part."""
    return decomposition.d


def classify_kodaira(
    config: CycleConfig, order_info: int | str | None = None
) -> str:
    """Anti-Kodaira classification of the surface carrying the cycle.

    ``order_info`` refines the boundary case P != 0, P^2 = 0: pass a
    positive integer for a finite normal-bundle order (dimension one), the
    string ``"infinite"`` for infinite order (dimension zero), or ``None``
    when the order is unknown (classification deferred).
    """
    return classify_decomposition(zariski_decompose(config), order_info)


def classify_decomposition(
    z: ZariskiDecomposition, order_info: int | str | None = None
) -> str:
    """:func:`classify_kodaira` read off an already computed decomposition."""
    if order_info is not None:
        if isinstance(order_info, str):
            if order_info != ORDER_INFINITE:
                raise ValueError(f"unknown order marker {order_info!r}")
        elif order_info < 1:
            raise ValueError("finite order must be a positive integer")
    if z.p.is_zero:
        return KODAIRA_ZERO
    if z.d > 0:
        return KODAIRA_TWO
    if order_info is None:
        return KODAIRA_NEEDS_ORDER
    return KODAIRA_ZERO if order_info == ORDER_INFINITE else KODAIRA_ONE


def riemann_roch_chi(config: CycleConfig, divisor) -> int:
    """Euler characteristic chi(D) = 1 + (D^2 + D.C)/2 for integral D.

    The cycle is anti-canonical, so this is Riemann-Roch on the underlying
    rational surface.  A divisor with fractional entries, or one whose
    pairing parity would make chi non-integral, is rejected.
    """
    if not isinstance(divisor, QDivisor):
        divisor = QDivisor.of(divisor)
    if len(divisor.coeffs) != config.m:
        raise ValueError("divisor length does not match cycle length")
    if not divisor.is_integral:
        raise ValueError("chi is only defined for integral divisors")
    matrix = intersection_matrix(config)
    ones = anticanonical(config)
    total = matrix.pair(divisor.coeffs, divisor.coeffs) + matrix.pair(
        divisor.coeffs, ones.coeffs
    )
    if total.denominator != 1 or total.numerator % 2 != 0:
        raise ValueError("invalid divisor class: chi would not be an integer")
    return 1 + total.numerator // 2


def ambient_n(config: CycleConfig) -> int | None:
    """The number of plane summands, stored or recovered from C^2 = 8 - 2n."""
    if config.n is not None:
        return config.n
    csq = _cycle_square(config)
    if csq.denominator != 1 or (8 - csq.numerator) % 2 != 0:
        return None
    return (8 - csq.numerator) // 2
