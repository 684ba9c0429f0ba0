"""Exact definiteness tests and linear solves for small symmetric matrices.

All arithmetic is done over the rationals with :class:`fractions.Fraction`;
no floating point enters at any stage, so definiteness verdicts and kernel
vectors are exact certificates rather than numerical estimates.

These are the dense routines, for matrices with no structure to exploit:
the brute-force Zariski oracle and the independent principal-minor check.
The production decomposition of :mod:`anticycle.cycles` uses none of
them; it works on the stencil of the self-intersections and on chains.
The matrix-vector product skips zero entries, since intersection matrices
of cycles are mostly zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

NEGATIVE_DEFINITE = "negative_definite"
NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
OTHER = "other"

#: Largest dimension accepted by the exhaustive principal-minor classifier.
MINOR_CHECK_MAX_DIM = 16


@dataclass(frozen=True)
class SymMatrix:
    """An immutable symmetric matrix with rational entries."""

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int | Fraction]]) -> "SymMatrix":
        table = tuple(tuple(Fraction(x) for x in row) for row in rows)
        dim = len(table)
        if any(len(row) != dim for row in table):
            raise ValueError("matrix must be square")
        for i in range(dim):
            for j in range(i + 1, dim):
                if table[i][j] != table[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")
        return SymMatrix(table)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, v: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product M@v, skipping the zero entries of M."""
        vals = [Fraction(x) for x in v]
        return tuple(
            sum((a * x for a, x in zip(row, vals, strict=True) if a), Fraction(0))
            for row in self.rows
        )

    def pair(self, u: Sequence[int | Fraction], v: Sequence[int | Fraction]) -> Fraction:
        """Bilinear form u^T M v."""
        mv = self.apply(v)
        return sum((Fraction(u[i]) * mv[i] for i in range(self.dim)), Fraction(0))

    def submatrix(self, indices: Sequence[int]) -> "SymMatrix":
        return SymMatrix(
            tuple(tuple(self.rows[i][j] for j in indices) for i in indices)
        )


@dataclass(frozen=True)
class DefinitenessReport:
    """Classification of a symmetric matrix together with its exact kernel.

    ``kind`` is one of ``negative_definite``, ``negative_semidefinite`` or
    ``other``; the three are mutually exclusive (a semidefinite verdict
    always comes with a non-trivial kernel).  Kernel vectors are primitive
    integer vectors, positive whenever a positive kernel vector exists.
    """

    kind: str
    kernel_basis: tuple[tuple[int, ...], ...]


def solve_linear(
    a: Sequence[Sequence[int | Fraction]] | SymMatrix,
    b: Sequence[int | Fraction],
) -> list[Fraction] | None:
    """Solve the square system a@x = b exactly.

    Returns the unique rational solution, or ``None`` when the matrix is
    singular (the system is never silently approximated).
    """
    rows = a.rows if isinstance(a, SymMatrix) else a
    n = len(rows)
    if len(b) != n or any(len(row) != n for row in rows):
        raise ValueError("shape mismatch in linear system")
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        for r in range(n):
            if r == col or aug[r][col] == 0:
                continue
            factor = aug[r][col] / inv
            for c in range(col, n + 1):
                aug[r][c] -= factor * aug[col][c]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def kernel_basis(m: SymMatrix) -> tuple[tuple[int, ...], ...]:
    """Exact nullspace of ``m`` as a tuple of normalized primitive vectors."""
    n = m.dim
    rows = [list(row) for row in m.rows]
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    free_cols = [c for c in range(n) if c not in pivots]
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        basis.append(_normalize_integer_vector(vec))
    return tuple(basis)


def _normalize_integer_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale to a primitive integer vector with a reproducible sign."""
    denom = lcm(*(x.denominator for x in vec)) if vec else 1
    ints = [int(x * denom) for x in vec]
    common = gcd(*ints) if any(ints) else 1
    if common:
        ints = [x // common for x in ints]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    elif any(x < 0 for x in ints):
        negated = [-x for x in ints]
        if tuple(negated) < tuple(ints):
            ints = negated
    return tuple(ints)


def definiteness(m: SymMatrix) -> DefinitenessReport:
    """Classify ``m`` by an exact pivoted symmetric factorization.

    The factorization works on ``-m``: it repeatedly picks a positive
    diagonal pivot and subtracts the rank-one update.  A negative diagonal
    entry, or a non-zero block with an all-zero diagonal, certifies that
    ``-m`` is not positive semidefinite.  The procedure is total, so it
    classifies every symmetric matrix.
    """
    n = m.dim
    a = [[-x for x in row] for row in m.rows]
    active = list(range(n))
    rank = 0
    psd = True
    while active and psd:
        pivot = None
        for i in active:
            if a[i][i] < 0:
                psd = False
                break
            if a[i][i] > 0 and pivot is None:
                pivot = i
        if not psd:
            break
        if pivot is None:
            # Zero diagonal throughout: semidefiniteness forces a zero block.
            psd = all(a[i][j] == 0 for i in active for j in active)
            break
        rank += 1
        d = a[pivot][pivot]
        col = {j: a[pivot][j] for j in active}
        active.remove(pivot)
        for i in active:
            for j in active:
                a[i][j] -= col[i] * col[j] / d
    if not psd:
        return DefinitenessReport(OTHER, ())
    if rank == n:
        return DefinitenessReport(NEGATIVE_DEFINITE, ())
    return DefinitenessReport(NEGATIVE_SEMIDEFINITE, kernel_basis(m))


def definiteness_by_minors(m: SymMatrix) -> DefinitenessReport:
    """Classify ``m`` by exhaustive principal minors (independent route).

    Sylvester: ``m`` is negative definite iff the leading principal minors
    alternate in sign starting negative, and negative semidefinite iff
    every principal minor of size s has sign ``(-1)^s`` or vanishes.  The
    2^dim enumeration restricts this check to ``dim <= 16``.
    """
    n = m.dim
    if n > MINOR_CHECK_MAX_DIM:
        raise ValueError(f"principal-minor check limited to dim <= {MINOR_CHECK_MAX_DIM}")
    leading = all(
        (-1) ** k * _det(m.submatrix(range(k))) > 0 for k in range(1, n + 1)
    )
    if leading:
        return DefinitenessReport(NEGATIVE_DEFINITE, ())
    for size in range(1, n + 1):
        sign = (-1) ** size
        for subset in itertools.combinations(range(n), size):
            if sign * _det(m.submatrix(subset)) < 0:
                return DefinitenessReport(OTHER, ())
    return DefinitenessReport(NEGATIVE_SEMIDEFINITE, kernel_basis(m))


def _det(m: SymMatrix) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    n = m.dim
    rows = [list(row) for row in m.rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det
