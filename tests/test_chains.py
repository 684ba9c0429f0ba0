"""The structured decomposition core: stencil, continuants, chain solve.

Inputs are drawn as values (self-intersection lists and coefficient
lists), not as seeds, so a failure shrinks to a minimal cycle.  Arbitrary
self-intersections reach every stratum (P = 0, P^2 > 0, P^2 = 0), and the
divisors are arbitrary effective Q-divisors.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anticycle import cycles
from anticycle.birational import blow_up_node
from anticycle.config_io import build_cycle, parse_config, random_cycle_walk
from anticycle.cycles import (
    CertificationError,
    CycleConfig,
    QDivisor,
    _cycle_square,
    _negative_definite_support,
    _solve_chain,
    _stencil,
    intersection_matrix,
    riemann_roch_chi,
    zariski_decompose,
    zariski_oracle,
)
from anticycle.qform import NEGATIVE_DEFINITE, _det, definiteness_by_minors
from conftest import fixture_path
from decomposition_digest import PINNED_DIGEST, decomposition_digest

_SELF_INTS = st.lists(st.integers(min_value=-6, max_value=3), min_size=1, max_size=9)
_RUN_SELF_INTS = st.lists(st.integers(min_value=-6, max_value=3), min_size=1, max_size=10)


@st.composite
def _cycles_with_divisors(draw, self_ints=_SELF_INTS):
    """A plain cycle and an effective Q-divisor on it (or ``None``: C itself)."""
    s = draw(self_ints)
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

    @pytest.mark.parametrize("a, b", itertools.product((-4, -1, 0, 2), repeat=2))
    def test_two_cycle_stencil_is_the_matrix_product(self, a, b):
        config = CycleConfig.plain((a, b))
        for v in ((1, 0), (0, 1), (1, 1), (Fraction(1, 2), -3)):
            assert tuple(_stencil(config.self_ints, v)) == intersection_matrix(config).apply(v)

    @settings(max_examples=200, deadline=None)
    @given(_SELF_INTS)
    def test_cycle_square_is_the_pairing(self, s):
        config = CycleConfig.plain(s)
        ones = [1] * config.m
        assert _cycle_square(config) == intersection_matrix(config).pair(ones, ones)


def _continuants(s, run):
    """Continuants q_0, ..., q_last of the chain of components ``run``.

    q_{-1} = 1, q_0 = s_0 and q_t = s_t q_{t-1} - q_{t-2}: q_t is the
    determinant of the leading (t+1)-block of the chain.  The reference
    recurrence that the chain solve and the definiteness walk inline.
    """
    q = [1, s[run[0]]]
    for i in run[1:]:
        q.append(s[i] * q[-1] - q[-2])
    return q[1:]


@st.composite
def _proper_supports(draw):
    """Self-intersections, an integer right-hand side and a proper support."""
    s = draw(_RUN_SELF_INTS)
    rhs = draw(st.lists(st.integers(-20, 20), min_size=len(s), max_size=len(s)))
    support = draw(st.sets(st.integers(0, len(s) - 1), max_size=len(s) - 1))
    return tuple(s), rhs, sorted(support)


class TestChainPivots:
    @settings(max_examples=150, deadline=None)
    @given(_SELF_INTS)
    @example([1, -2, -2])  # the run from C_1 fails at its first pivot
    @example([-2, -1, -1, -3])  # the run C_1..C_3 fails at its third pivot
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

    @settings(max_examples=150, deadline=None)
    @given(_proper_supports())
    @example(((-2, 0, -2, -3), [0] * 4, [0, 2]))  # two definite runs
    @example(((-2, 0, 1, -3), [0] * 4, [0, 2]))  # the second run fails at its first pivot
    @example(((-2, 0, -2, -1, -1, 0), [0] * 6, [0, 2, 3, 4]))  # the second run fails mid-run
    def test_pivots_agree_with_minors_on_proper_supports(self, case):
        s, _, support = case
        config = CycleConfig.plain(s)
        by_pivots = _negative_definite_support(config, support)
        by_minors = definiteness_by_minors(intersection_matrix(config).submatrix(support)).kind
        assert by_pivots == (by_minors == NEGATIVE_DEFINITE)


def _assert_solves(config, rhs, support):
    """``_solve_chain`` gives integers N over L > 0 with (M@N)_i = L rhs_i on the support."""
    n, denominator = _solve_chain(config.self_ints, rhs, support)
    assert all(type(x) is int for x in n) and type(denominator) is int
    assert denominator > 0
    product = intersection_matrix(config).apply(n)
    assert all(product[i] == denominator * rhs[i] for i in support), support
    assert all(n[i] == 0 for i in range(config.m) if i not in support), support


def _expected_runs(support, m):
    """The maximal runs of a proper support, each walked from its first index."""
    runs = set()
    for i in support:
        if (i - 1) % m not in support:
            run = [i]
            while (run[-1] + 1) % m in support:
                run.append((run[-1] + 1) % m)
            runs.add(tuple(run))
    return runs


@pytest.mark.parametrize("m", range(1, 9))
def test_runs_of_every_proper_support(m):
    """Runs cover a proper support exactly, each cyclically consecutive, none touching."""
    for size in range(m):
        for support in itertools.combinations(range(m), size):
            runs = cycles._runs(support, m)
            inside = set(support)
            assert sorted(i for run in runs for i in run) == list(support), support
            for run in runs:
                assert all((a + 1) % m == b for a, b in zip(run, run[1:])), (support, run)
                assert (run[0] - 1) % m not in inside, (support, run)
                assert (run[-1] + 1) % m not in inside, (support, run)
            assert {tuple(run) for run in runs} == _expected_runs(inside, m), support


class TestContinuants:
    @settings(max_examples=100, deadline=None)
    @given(_RUN_SELF_INTS, st.data())
    def test_every_proper_run(self, s, data):
        config = CycleConfig.plain(s)
        matrix = intersection_matrix(config)
        m = config.m
        rhs = data.draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
        for start in range(m):
            longest = [(start + t) % m for t in range(m - 1)]
            leading = [_det(matrix.submatrix(longest[: t + 1])) for t in range(m - 1)]
            for length in range(1, m):
                run = longest[:length]
                q = _continuants(config.self_ints, run)
                assert q == leading[:length], run
                if all(q):
                    _assert_solves(config, rhs, run)
                else:
                    assert _solve_chain(config.self_ints, rhs, run) is None

    @settings(max_examples=100, deadline=None)
    @given(_proper_supports())
    @example(((0, -2, -2, -3), [1, 2, 3, 4], [0, 1]))  # q_0 = 0
    @example(((0, -2, -2), [1, 2, 3], [0]))  # a run of one with q_0 = 0
    @example(((1, 1, -2, -3), [1, 2, 3, 4], [0, 1, 2]))  # q_1 = 0 inside the run
    @example(((-1, -1, -3), [1, 2, 3], [0, 1]))  # the last continuant is 0
    @example(((-2, -3, -2, 1, 1, -2), [1, 2, 3, 4, 5, 6], [0, 3, 4]))  # only the second run
    def test_proper_supports_of_several_runs(self, case):
        s, rhs, support = case
        config = CycleConfig.plain(s)
        dets = [_continuants(s, run) for run in cycles._runs(support, config.m)]
        if all(all(q) for q in dets):
            _assert_solves(config, rhs, support)
        else:
            assert _solve_chain(s, rhs, support) is None


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


class TestOracleLimit:
    """The oracle's bound, m <= 12, from both sides: every other oracle
    comparison stays at m <= 10."""

    def test_thirteen_components_rejected(self):
        with pytest.raises(ValueError, match=r"^oracle limited to m <= 12 components$"):
            zariski_oracle(CycleConfig.plain((-2,) * 13))

    def test_twelve_component_walk_cycle(self):
        config = random_cycle_walk(random.Random(12), real=True, blowups=4)
        assert config.m == 12
        assert zariski_decompose(config) == zariski_oracle(config)

    def test_twelve_component_arbitrary_cycle(self):
        rng = random.Random(12)
        config = CycleConfig.plain(tuple(rng.randint(-6, 3) for _ in range(12)))
        divisor = [Fraction(rng.randint(0, 24), 4) for _ in range(12)]
        fast = zariski_decompose(config, divisor)
        assert not fast.p.is_zero and not fast.n_part.is_zero
        assert fast == zariski_oracle(config, divisor)


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


@contextlib.contextmanager
def _recorded_growth_solves():
    """Record the growth loop's ``_solve_chain`` calls as (support, rhs, solution).

    The whole-cycle certification also solves a chain, from inside
    ``_negative_definite_support``; those calls are not growth rounds and
    are left out.
    """
    calls = []
    depth = 0
    solve, definite = cycles._solve_chain, cycles._negative_definite_support

    def recording(s, rhs, support):
        support = list(support)
        solved = solve(s, rhs, support)
        if not depth:
            calls.append((support, list(rhs), solved))
        return solved

    def certifying(config, support):
        nonlocal depth
        depth += 1
        try:
            return definite(config, support)
        finally:
            depth -= 1

    cycles._solve_chain, cycles._negative_definite_support = recording, certifying
    try:
        yield calls
    finally:
        cycles._solve_chain, cycles._negative_definite_support = solve, definite


class TestBauerRounds:
    """Each round of the growth loop adds every component on which P is negative."""

    @settings(max_examples=150, deadline=None)
    @given(_cycles_with_divisors(_RUN_SELF_INTS))
    @example((CycleConfig.plain((-1, -4, -1, -4)), None))  # one round
    @example((CycleConfig.plain((-3, -2, -2)), None))  # N = D after rounds
    @example((CycleConfig.plain((-5, 1, -5, 1)), None))  # P^2 > 0
    @example((CycleConfig.plain((-5, -1)), None))  # C_2 joins through its doubled neighbour; P = 0
    @example((CycleConfig.plain((-4, -1)), None))  # P.C_2 = 0, so C_2 stays out
    @example((CycleConfig.real((-3,), 5), [1, 3]))  # real k = 1: C_2, then C_1
    def test_rounds(self, case):
        config, divisor = case
        with _recorded_growth_solves() as calls:
            z = zariski_decompose(config, divisor)
        matrix = intersection_matrix(config)
        m = config.m
        negative = [i for i, x in enumerate(matrix.apply(z.divisor.coeffs)) if x < 0]
        previous: list[int] = []
        for support, rhs, solved in calls:
            added = [i for i in negative if i not in previous]
            assert added and support[: len(previous)] == previous, support
            assert support == previous + added, support
            assert definiteness_by_minors(matrix.submatrix(support)).kind == NEGATIVE_DEFINITE
            # M x = L rhs on the support, so P.C_i has the sign of L rhs_i - (M x)_i.
            x, denominator = solved
            product = matrix.apply(x)
            negative = [i for i in range(m) if denominator * rhs[i] - product[i] < 0]
            previous = support
        last = [i for i in negative if i not in previous]
        assert not last or len(previous) + len(last) == m
        assert len(calls) <= len(z.n_part.support)

    def test_fixture_c_decomposes_in_one_solve(self, monkeypatch):
        text = Path(fixture_path("fixtureC.cfg")).read_text(encoding="utf-8")
        config = build_cycle(parse_config(text))
        assert config == CycleConfig.real((-1, -4), 5)
        supports = []

        def recording(s, rhs, support):
            supports.append(list(support))
            return _solve_chain(s, rhs, support)

        monkeypatch.setattr(cycles, "_solve_chain", recording)
        z = zariski_decompose(config)
        assert supports == [[1, 3]]
        assert z.n_part.support == (1, 3)

    def test_growth_stops_within_m_rounds(self, monkeypatch):
        # A wrong solve that leaves N = 0 re-adds the same components every
        # round; the loop must still stop and hand N = D to the certification.
        config = CycleConfig.plain((-3, -3, -3, 1))
        m = config.m
        calls = []

        def wrong(s, rhs, support):
            calls.append(support)
            assert len(calls) <= m, "growth loop did not stop within m rounds"
            return [0] * m, 1

        monkeypatch.setattr(cycles, "_solve_chain", wrong)
        with pytest.raises(
            CertificationError, match=r"^support of N is not negative definite$"
        ):
            zariski_decompose(config)


@st.composite
def _walk_cycles(draw):
    """Node blow-ups of the all-(-2) four-cycle: P != 0, P^2 = 0, and m <= 10."""
    real = draw(st.booleans())
    config = CycleConfig.real((-2, -2), 4) if real else CycleConfig.plain((-2,) * 4)
    for node in draw(st.lists(st.integers(0, 9), max_size=3 if real else 6)):
        config = blow_up_node(config, node % config.m).config
    return config


def _dihedral_representatives(m, values):
    """One self-intersection tuple per rotation and reflection class."""
    for s in itertools.product(values, repeat=m):
        if s[0] != min(s):
            continue
        images = [s[r:] + s[:r] for r in range(m)]
        images += [tuple(reversed(image)) for image in images]
        if s == min(images):
            yield s


class TestSquareZeroLemma:
    """P != 0 and P^2 = 0 imply P.C_i = 0 for every i, for the decomposition of C.

    P^2 = P.C - P.N = sum_i P.C_i, since P is orthogonal to supp N, and P is
    nef, so every term is zero.
    """

    @settings(max_examples=200, deadline=None)
    @given(_walk_cycles() | _RUN_SELF_INTS.map(CycleConfig.plain))
    @example(CycleConfig.plain((-2,) * 10))
    @example(CycleConfig.plain((-1, -4, -1, -4)))
    def test_decompose(self, config):
        z = zariski_decompose(config)
        if not z.p.is_zero and z.d == 0:
            assert not any(_stencil(config.self_ints, z.p.coeffs))

    @settings(max_examples=10, deadline=None)
    @given(_walk_cycles())
    def test_oracle(self, config):
        z = zariski_oracle(config)
        assert not z.p.is_zero and z.d == 0
        assert not any(intersection_matrix(config).apply(z.p.coeffs))

    def test_every_cycle_with_m_at_most_6(self):
        """Every cycle with s in [-5, 1], one per dihedral class (the
        decomposition is equivariant; see ``TestDihedralEquivariance``)."""
        reached = 0
        for m in range(1, 7):
            for s in _dihedral_representatives(m, range(-5, 2)):
                config = CycleConfig.plain(s)
                z = zariski_decompose(config)
                if z.p.is_zero or z.d:
                    continue
                reached += 1
                assert not any(_stencil(s, z.p.coeffs)), s
                oracle = zariski_oracle(config)
                assert not any(intersection_matrix(config).apply(oracle.p.coeffs)), s
        assert reached == 46


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


def test_decomposition_digest():
    """Every output of ``zariski_decompose`` on a seeded corpus, pinned as one hash.

    The corpus and hash are in ``tests/decomposition_digest.py``: 10,000
    cycles with m in 1..12 and s in [-9, 6], default, random effective and
    invalid divisors, results by ``repr`` and errors by type and message.
    The pin is ``PINNED_DIGEST`` there, which
    ``PYTHONPATH=src python tests/decomposition_digest.py`` also checks,
    without pytest.
    """
    assert decomposition_digest() == PINNED_DIGEST
