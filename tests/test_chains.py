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

from anticycle import cycles
from anticycle.birational import blow_up_node
from anticycle.cycles import (
    CycleConfig,
    QDivisor,
    _cycle_square,
    _negative_definite_support,
    _stencil,
    intersection_matrix,
    riemann_roch_chi,
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
    """A support that is the whole cycle gives N = D, certified by a Schur complement."""
    nodal = zariski_decompose(CycleConfig.plain((-1,)))
    triangle = zariski_decompose(CycleConfig.plain((-3, -2, -2)))
    assert nodal.p.is_zero and nodal.n_part.coeffs == (Fraction(1),)
    assert triangle.p.is_zero and triangle.n_part.coeffs == (Fraction(1),) * 3


def _negative_definite_by_minors(config):
    return definiteness_by_minors(intersection_matrix(config)).kind == NEGATIVE_DEFINITE


class TestWholeCycle:
    @settings(max_examples=300, deadline=None)
    @given(_SELF_INTS)
    @example([-1])
    @example([0])
    @example([-2, -2])  # negative semidefinite: the Schur complement vanishes
    @example([-3, -3])
    @example([-2, -2, -2])
    @example([-3, -2, -2])
    def test_schur_verdict_equals_minors(self, s):
        config = CycleConfig.plain(s)
        by_schur = _negative_definite_support(config, range(config.m))
        assert by_schur == _negative_definite_by_minors(config)

    @settings(max_examples=200, deadline=None)
    @given(_SELF_INTS)
    @example([-3, -2, -2])
    @example([-1, -4, -1, -4])
    def test_p_zero_iff_negative_definite(self, s):
        config = CycleConfig.plain(s)
        assert zariski_decompose(config).p.is_zero == _negative_definite_by_minors(config)

    @settings(max_examples=150, deadline=None)
    @given(_cycles_with_divisors(), st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
    def test_homogeneity(self, case, t):
        config, divisor = case
        z = zariski_decompose(config, divisor)
        scaled = zariski_decompose(config, t * z.divisor)
        assert scaled.p == t * z.p
        assert scaled.n_part == t * z.n_part
        assert scaled.d == t * t * z.d

    def test_no_dense_routine_in_production(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense qform routine called")

        for name in ("intersection_matrix", "solve_linear", "definiteness"):
            monkeypatch.setattr(cycles, name, dense)
        for s in [(-1,), (-3, -3), (-3, -2, -2), (-2, -3, -2, -4), (-5, 1, -5, 1)]:
            config = CycleConfig.plain(s)
            z = zariski_decompose(config)
            assert z.p.is_zero == (s != (-5, 1, -5, 1))
            assert riemann_roch_chi(config, [1] * config.m) == 1 + _cycle_square(config)


@settings(max_examples=200, deadline=None)
@given(_SELF_INTS, st.data())
def test_chi_is_the_dense_pairing(s, data):
    config = CycleConfig.plain(s)
    d = data.draw(st.lists(st.integers(-5, 5), min_size=config.m, max_size=config.m))
    matrix = intersection_matrix(config)
    total = matrix.pair(d, d) + matrix.pair(d, [1] * config.m)
    assert total.denominator == 1 and total.numerator % 2 == 0
    assert riemann_roch_chi(config, d) == 1 + total.numerator // 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=3), min_size=1, max_size=5), st.data())
def test_real_node_blow_up_is_two_single_ones(half, data):
    """The real surgery is the single surgery at the conjugate node, then at the node."""
    config = CycleConfig.real(half, n=0)
    node = data.draw(st.integers(min_value=0, max_value=config.m - 1))
    conj = config.conjugate_index(node)
    first = blow_up_node(config, conj, drop_reality=True)
    second = blow_up_node(first.config, node if node < conj else node + 1, drop_reality=True)
    real = blow_up_node(config, node)
    assert real.config.self_ints == second.config.self_ints
    assert real.transported_l == second.transported_l
    assert real.config.real_k == config.real_k + 1
