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

One Gauss-Jordan elimination, :func:`_eliminate`, serves
:func:`solve_linear`, :func:`kernel_basis` and the determinant :func:`_det`.
:func:`definiteness` classifies by its own pivoted LDL^T factorization, and
:func:`definiteness_by_minors` checks that verdict independently with
determinants of principal minors, which rest on the elimination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
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
    m: SymMatrix, b: Sequence[int | Fraction]
) -> list[Fraction] | None:
    """Solve the square system m@x = b exactly.

    Returns the unique rational solution, or ``None`` when the matrix is
    singular (the system is never silently approximated).
    """
    n = m.dim
    if len(b) != n:
        raise ValueError("shape mismatch in linear system")
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(m.rows)]
    pivots, _ = _eliminate(aug, n)
    if len(pivots) < n:
        return None
    return [aug[i][n] / aug[i][i] for i in range(n)]


def kernel_basis(m: SymMatrix) -> tuple[tuple[int, ...], ...]:
    """Exact nullspace of ``m`` as a tuple of normalized primitive vectors."""
    n = m.dim
    rows = [list(row) for row in m.rows]
    pivots, _ = _eliminate(rows, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            vec[col] = -row[free] / row[col]
        basis.append(_normalize_integer_vector(vec))
    return tuple(basis)


def _eliminate(rows: list[list[Fraction]], n: int) -> tuple[list[int], int]:
    """Gauss-Jordan elimination on the first ``n`` columns, in place.

    Row ``r`` ends as the pivot row of the ``r``-th pivot column; pivot
    rows are not rescaled.  Each pivot updates the other rows right of its
    own column only: left of it the pivot row is 0, and the other rows'
    entries in the pivot column itself, which Gauss-Jordan would clear to
    0, are left stale.  No later pivot and no caller reads a stale entry;
    the callers read a pivot row's own pivot entry and its free and
    right-hand columns.  Returns the pivot columns and the sign of the row
    permutation.
    """
    pivots: list[int] = []
    sign = 1
    for col in range(n):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        prow = rows[rank]
        inv = prow[col]
        for r, row in enumerate(rows):
            if r == rank or not row[col]:
                continue
            factor = row[col] / inv
            for c in range(col + 1, len(row)):
                row[c] -= factor * prow[c]
        pivots.append(col)
    return pivots, sign


def _normalize_integer_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale ``vec``, which has a positive entry, to a primitive integer
    vector with a reproducible sign."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    common = gcd(*ints)
    ints = [x // common for x in ints]
    if any(x < 0 for x in ints):
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
    """Determinant: the signed product of the pivots, 0 without a full set."""
    n = m.dim
    rows = [list(row) for row in m.rows]
    pivots, sign = _eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return prod((row[i] for i, row in enumerate(rows)), start=Fraction(sign))
