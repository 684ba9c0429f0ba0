"""The structured decomposition core: stencil, chain solve, chain pivots.

Inputs are drawn as values (self-intersection lists and coefficient
lists), not as seeds, so a failure shrinks to a minimal cycle.  Arbitrary
self-intersections reach every stratum (P = 0, P^2 > 0, P^2 = 0), and the
divisors are arbitrary effective Q-divisors.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticycle.cycles import (
    CycleConfig,
    QDivisor,
    _cycle_square,
    _negative_definite_support,
    _stencil,
    intersection_matrix,
    zariski_decompose,
    zariski_oracle,
)
from anticycle.qform import NEGATIVE_DEFINITE, definiteness_by_minors

_SELF_INTS = st.lists(st.integers(min_value=-6, max_value=3), min_size=1, max_size=9)


@st.composite
def _cycles_with_divisors(draw):
    """A plain cycle and an effective Q-divisor on it (or ``None``: C itself)."""
    s = draw(_SELF_INTS)
    coefficient = st.fractions(min_value=0, max_value=6, max_denominator=4)
    divisor = draw(st.none() | st.lists(coefficient, min_size=len(s), max_size=len(s)))
    return CycleConfig.plain(s), divisor


def _rotated(values, r):
    return tuple(values[r:]) + tuple(values[:r])


class TestStencil:
    @settings(max_examples=200, deadline=None)
    @given(_SELF_INTS, st.data())
    def test_stencil_is_the_matrix_product(self, s, data):
        v = data.draw(st.lists(st.fractions(-5, 5, max_denominator=6), min_size=len(s), max_size=len(s)))
        config = CycleConfig.plain(s)
        assert tuple(_stencil(config.self_ints, v)) == intersection_matrix(config).apply(v)

    @settings(max_examples=200, deadline=None)
    @given(_SELF_INTS)
    def test_cycle_square_is_the_pairing(self, s):
        config = CycleConfig.plain(s)
        ones = [1] * config.m
        assert _cycle_square(config) == intersection_matrix(config).pair(ones, ones)


class TestChainPivots:
    @settings(max_examples=150, deadline=None)
    @given(_SELF_INTS)
    def test_pivots_agree_with_minors_on_every_proper_run(self, s):
        config = CycleConfig.plain(s)
        matrix = intersection_matrix(config)
        m = config.m
        for start in range(m):
            for length in range(1, m):
                run = [(start + t) % m for t in range(length)]
                by_pivots = _negative_definite_support(config, run)
                by_minors = definiteness_by_minors(matrix.submatrix(run)).kind
                assert by_pivots == (by_minors == NEGATIVE_DEFINITE), run


class TestAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(_cycles_with_divisors())
    @example((CycleConfig.plain((-3, -3)), None))  # P = 0
    @example((CycleConfig.plain((-5, 1, -5, 1)), None))  # P^2 > 0
    @example((CycleConfig.plain((-1, -4, -1, -4)), None))  # P != 0, P^2 = 0
    def test_decompose_equals_oracle(self, case):
        config, divisor = case
        fast = zariski_decompose(config, divisor)
        slow = zariski_oracle(config, divisor)
        assert fast.p == slow.p
        assert fast.n_part == slow.n_part
        assert fast.m0 == slow.m0
        assert fast.l == slow.l
        assert fast.d == slow.d
        assert fast == slow


class TestDihedralEquivariance:
    @settings(max_examples=120, deadline=None)
    @given(_cycles_with_divisors(), st.data())
    def test_rotation_and_reflection(self, case, data):
        config, divisor = case
        z = zariski_decompose(config, divisor)
        coeffs = z.divisor.coeffs
        r = data.draw(st.integers(min_value=0, max_value=config.m - 1))
        moves = [
            lambda values: _rotated(values, r),
            lambda values: tuple(reversed(values)),
        ]
        for move in moves:
            image = CycleConfig.plain(move(config.self_ints))
            moved = zariski_decompose(image, QDivisor(move(coeffs)))
            assert moved.p.coeffs == move(z.p.coeffs)
            assert moved.n_part.coeffs == move(z.n_part.coeffs)
            assert moved.d == z.d
            assert moved.m0 == z.m0


def test_full_cycle_supports():
    """A support that is the whole cycle goes to the dense solver."""
    nodal = zariski_decompose(CycleConfig.plain((-1,)))
    triangle = zariski_decompose(CycleConfig.plain((-3, -2, -2)))
    assert nodal.p.is_zero and nodal.n_part.coeffs == (Fraction(1),)
    assert triangle.p.is_zero and triangle.n_part.coeffs == (Fraction(1),) * 3
