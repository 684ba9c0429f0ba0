"""Tests for exact definiteness analysis and linear solving."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticycle.qform import (
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE,
    OTHER,
    DefinitenessReport,
    SymMatrix,
    _det,
    definiteness,
    definiteness_by_minors,
    kernel_basis,
    solve_linear,
)


def _grid_kind(m: SymMatrix, radius: int = 2) -> str:
    """Brute-force xT M x over all small nonzero integer vectors.

    One-sided: a positive (or null) value on the grid proves the matrix is
    not negative semidefinite (or not negative definite), but a direction
    that needs entries beyond ``radius`` goes unseen, e.g. the positive
    direction (1, 3) of [[-4, 1], [1, 0]].
    """
    strict = True
    weak = True
    values = range(-radius, radius + 1)
    for x in itertools.product(values, repeat=m.dim):
        if all(v == 0 for v in x):
            continue
        vec = tuple(Fraction(v) for v in x)
        q = m.pair(vec, vec)
        if q >= 0:
            strict = False
        if q > 0:
            weak = False
    if strict:
        return NEGATIVE_DEFINITE
    if weak:
        return NEGATIVE_SEMIDEFINITE
    return OTHER


def _leibniz_det(rows) -> int | Fraction:
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(
            1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j]
        )
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _charpoly_kind(m: SymMatrix) -> str:
    """Exact kind from the signs of the characteristic polynomial.

    det(tI - M) = sum_k (-1)^k E_k t^(n-k), with E_k the sum of the k x k
    principal minors.  All its roots are real, so by Descartes' rule every
    eigenvalue is < 0 (<= 0) iff every coefficient (-1)^k E_k is > 0 (>= 0).
    """
    n = m.dim
    coefficients = [
        (-1) ** k
        * sum(
            _leibniz_det([[m.rows[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(n), k)
        )
        for k in range(1, n + 1)
    ]
    if all(c > 0 for c in coefficients):
        return NEGATIVE_DEFINITE
    if all(c >= 0 for c in coefficients):
        return NEGATIVE_SEMIDEFINITE
    return OTHER


def sym(rows) -> SymMatrix:
    return SymMatrix.from_rows(rows)


class TestDefiniteness:
    def test_two_by_two_definite(self):
        report = definiteness(sym([[-3, 2], [2, -3]]))
        assert report.kind == NEGATIVE_DEFINITE
        assert report.kernel_basis == ()

    def test_two_by_two_semidefinite(self):
        report = definiteness(sym([[-2, 2], [2, -2]]))
        assert report.kind == NEGATIVE_SEMIDEFINITE
        assert report.kernel_basis == ((Fraction(1), Fraction(1)),)

    def test_four_by_four_semidefinite_kernel(self):
        m = sym(
            [
                [-1, 1, 0, 1],
                [1, -4, 1, 0],
                [0, 1, -1, 1],
                [1, 0, 1, -4],
            ]
        )
        report = definiteness(m)
        assert report.kind == NEGATIVE_SEMIDEFINITE
        assert report.kernel_basis == (
            (Fraction(2), Fraction(1), Fraction(2), Fraction(1)),
        )

    def test_indefinite(self):
        assert definiteness(sym([[1]])).kind == OTHER
        assert definiteness(sym([[-5, 1], [1, 1]])).kind == OTHER

    def test_zero_matrix_is_semidefinite(self):
        report = definiteness(sym([[0, 0], [0, 0]]))
        assert report.kind == NEGATIVE_SEMIDEFINITE

    def test_kernel_vectors_annihilate(self):
        m = sym(
            [
                [-1, 1, 0, 1],
                [1, -4, 1, 0],
                [0, 1, -1, 1],
                [1, 0, 1, -4],
            ]
        )
        for v in definiteness(m).kernel_basis:
            assert m.apply(v) == tuple(Fraction(0) for _ in v)


class TestMinorCheckLimit:
    def test_dim_seventeen_rejected(self):
        identity = [[-1 if i == j else 0 for j in range(17)] for i in range(17)]
        with pytest.raises(
            ValueError, match=r"^principal-minor check limited to dim <= 16$"
        ):
            definiteness_by_minors(sym(identity))


class TestSolveLinear:
    def test_one_by_one(self):
        got = solve_linear(sym([[-4]]), (Fraction(-2),))
        assert got == [Fraction(1, 2)]

    def test_identity(self):
        m = sym([[1, 0], [0, 1]])
        b = (Fraction(3), Fraction(-7, 2))
        assert solve_linear(m, b) == list(b)

    def test_singular_reported(self):
        m = sym([[-2, 2], [2, -2]])
        assert solve_linear(m, (Fraction(1), Fraction(1))) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^shape mismatch in linear system$"):
            solve_linear(sym([[1, 0], [0, 1]]), (Fraction(1),))


class TestElimination:
    def test_row_swap(self):
        m = sym([[0, 1], [1, 0]])
        assert _det(m) == -1
        assert solve_linear(m, (Fraction(2), Fraction(3))) == [3, 2]
        assert kernel_basis(m) == ()

    def test_leading_zero_column(self):
        m = sym([[0, 0], [0, 1]])
        assert _det(m) == 0
        assert solve_linear(m, (Fraction(0), Fraction(1))) is None
        assert kernel_basis(m) == ((1, 0),)

    def test_mixed_sign_kernel_takes_the_smaller_sign(self):
        # The solve gives (1, -1, 1); its negation is the smaller tuple.
        m = sym([[1, 0, -1], [0, 1, 1], [-1, 1, 2]])
        assert kernel_basis(m) == ((-1, 1, -1),)


def _matrices(max_dim: int = 4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        ).map(
            lambda rows: SymMatrix.from_rows(
                [
                    [
                        rows[i][j] if i <= j else rows[j][i]
                        for j in range(len(rows))
                    ]
                    for i in range(len(rows))
                ]
            )
        )
    )


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    @example(sym([[-4, 1], [1, 0]]))
    @example(sym([[0, 0, 0], [0, -4, 1], [0, 1, 0]]))
    def test_grid_oracle_agreement(self, m: SymMatrix):
        kind = definiteness(m).kind
        assert kind == _charpoly_kind(m)
        grid = _grid_kind(m)
        if grid == OTHER:
            assert kind == OTHER
        elif grid == NEGATIVE_SEMIDEFINITE:
            assert kind != NEGATIVE_DEFINITE

    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    def test_minor_check_agreement(self, m: SymMatrix):
        assert definiteness(m).kind == definiteness_by_minors(m).kind

    @settings(max_examples=100, deadline=None)
    @given(_matrices(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, m: SymMatrix, rng):
        perm = list(range(m.dim))
        rng.shuffle(perm)
        permuted = SymMatrix.from_rows(
            [[m.rows[perm[i]][perm[j]] for j in range(m.dim)] for i in range(m.dim)]
        )
        assert definiteness(m).kind == definiteness(permuted).kind

    @settings(max_examples=100, deadline=None)
    @given(_matrices())
    def test_kernel_exactness(self, m: SymMatrix):
        report = definiteness(m)
        for v in report.kernel_basis:
            assert m.apply(v) == tuple(Fraction(0) for _ in v)
        for v in kernel_basis(m):
            assert m.apply(v) == tuple(Fraction(0) for _ in v)

    @settings(max_examples=150, deadline=None)
    @given(_matrices(), st.data())
    def test_shared_elimination(self, m: SymMatrix, data):
        det = _det(m)
        assert det == _leibniz_det(m.rows)
        b = data.draw(
            st.lists(st.integers(-5, 5), min_size=m.dim, max_size=m.dim).map(
                lambda xs: tuple(map(Fraction, xs))
            )
        )
        x = solve_linear(m, b)
        assert (x is None) == (det == 0)
        if x is not None:
            assert m.apply(x) == b
        assert (kernel_basis(m) == ()) == (det != 0)

    @settings(max_examples=100, deadline=None)
    @given(_matrices())
    def test_report_shape(self, m: SymMatrix):
        report = definiteness(m)
        assert isinstance(report, DefinitenessReport)
        if report.kind != NEGATIVE_SEMIDEFINITE:
            assert report.kernel_basis == ()
