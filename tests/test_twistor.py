"""Tests for the pencil model: fibers, intersection numbers, verdicts."""

from __future__ import annotations

import dataclasses
import random
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticycle.birational import blow_up_smooth
from anticycle.cycles import CycleConfig, ambient_n, zariski_decompose, zariski_oracle
from anticycle.config_io import random_cycle_walk, random_small_config
from anticycle.pic0 import PicZeroElement, PicZeroFamily
from anticycle.twistor import (
    EllipticBase,
    InvariantViolation,
    TwistorPencil,
    VERDICT_A1,
    VERDICT_A2,
    VERDICT_A3,
    VERDICT_INCONSISTENT,
    algebraic_dimension,
    build_resolved_model,
    conjugate_name,
    m_class_intersections,
    normalize_rotation,
    prove_E_fixed,
    reducible_fibers,
    validate_pencil,
)

from conftest import seeded_corpus

F = Fraction


def finite_family(p: int, q: int) -> PicZeroFamily:
    return PicZeroFamily.constant(PicZeroElement.unity_root(F(p, q)))


#: One family of each kind: constant finite, constant infinite, nonconstant.
FAMILIES = (
    finite_family(1, 6),
    PicZeroFamily.constant(PicZeroElement(F(2), F(0))),
    PicZeroFamily.nonconstant(),
)


def pencil_c(family: PicZeroFamily | None = None) -> TwistorPencil:
    return TwistorPencil(
        n=5,
        base=CycleConfig.real((-1, -4), 5),
        family=family or PicZeroFamily.nonconstant(),
    )


def pencil_a(family: PicZeroFamily | None = None) -> TwistorPencil:
    return TwistorPencil(
        n=4,
        base=CycleConfig.real((-2,), 4),
        family=family or PicZeroFamily.nonconstant(),
    )


class TestValidatePencil:
    def test_fixture_c_ok(self):
        assert validate_pencil(pencil_c()) == []

    def test_n_mismatch(self):
        pencil = TwistorPencil(
            n=6,
            base=CycleConfig.real((-1, -4), 5),
            family=PicZeroFamily.nonconstant(),
        )
        assert validate_pencil(pencil)

    def test_non_real_base_rejected(self):
        pencil = TwistorPencil(
            n=5,
            base=CycleConfig.plain((-3, -1, -3)),
            family=PicZeroFamily.nonconstant(),
        )
        assert validate_pencil(pencil)

    def test_resolution_length(self):
        pencil = TwistorPencil(
            n=5,
            base=CycleConfig.real((-1, -4), 5),
            family=PicZeroFamily.nonconstant(),
            resolution=(0,),
        )
        assert validate_pencil(pencil)

    def test_elliptic_ok(self):
        bundle = PicZeroElement.unity_root(F(1, 4))
        pencil = TwistorPencil(
            n=4,
            base=EllipticBase(bundle),
            family=PicZeroFamily.constant(bundle),
        )
        assert validate_pencil(pencil) == []

    def test_elliptic_family_must_match(self):
        pencil = TwistorPencil(
            n=4,
            base=EllipticBase(PicZeroElement.unity_root(F(1, 4))),
            family=PicZeroFamily.constant(PicZeroElement.unity_root(F(1, 3))),
        )
        assert validate_pencil(pencil)


class TestReducibleFibers:
    def test_count_matches_k(self):
        assert len(reducible_fibers(pencil_c())) == 2
        assert len(reducible_fibers(pencil_a())) == 1

    def test_elliptic_has_none(self):
        bundle = PicZeroElement.unity_root(F(1, 4))
        pencil = TwistorPencil(
            n=4, base=EllipticBase(bundle), family=PicZeroFamily.constant(bundle)
        )
        assert reducible_fibers(pencil) == ()

    def test_k3_half_patterns(self):
        config = CycleConfig.real((-3, -2, -3), 7)
        pencil = TwistorPencil(
            n=7, base=config, family=PicZeroFamily.nonconstant()
        )
        halves = {
            frozenset((frozenset(f.half_plus), frozenset(f.half_minus)))
            for f in reducible_fibers(pencil)
        }
        expected = {
            frozenset(
                (
                    frozenset(("C1", "C2", "C3")),
                    frozenset(("~C1", "~C2", "~C3")),
                )
            ),
            frozenset(
                (
                    frozenset(("C2", "C3", "~C1")),
                    frozenset(("~C2", "~C3", "C1")),
                )
            ),
            frozenset(
                (
                    frozenset(("C3", "~C1", "~C2")),
                    frozenset(("~C3", "C1", "C2")),
                )
            ),
        }
        assert halves == expected

    def test_lines_join_conjugate_nodes(self):
        for fiber in reducible_fibers(pencil_c()):
            (a, b), (abar, bbar) = fiber.joins
            assert conjugate_name(a) == abar
            assert conjugate_name(b) == bbar

    def test_halves_partition_cycle(self):
        pencil = pencil_c()
        m = pencil.cycle.m
        for fiber in reducible_fibers(pencil):
            names = set(fiber.half_plus) | set(fiber.half_minus)
            assert len(names) == m
            assert set(fiber.half_plus).isdisjoint(fiber.half_minus)


class TestBuildModel:
    def test_fixture_c_cycle_order(self):
        model = build_resolved_model(pencil_c())
        assert model.cycle_order == (
            "C_{1,1}",
            "Delta_1",
            "C_{1,2}",
            "~C_{1,1}",
            "~Delta_1",
            "~C_{1,2}",
        )

    def test_k3_length_eight(self):
        config = CycleConfig.real((-5, -2, -1), 6)
        assert zariski_decompose(config).d == 0
        pencil = TwistorPencil(
            n=6, base=config, family=PicZeroFamily.nonconstant()
        )
        normalized, _ = normalize_rotation(pencil, zariski_decompose(config))
        model = build_resolved_model(normalized)
        assert len(model.cycle_order) == 8

    def test_fixture_b_rejected(self):
        pencil = TwistorPencil(
            n=5,
            base=CycleConfig.real((-3,), 5),
            family=PicZeroFamily.nonconstant(),
        )
        with pytest.raises(ValueError):
            build_resolved_model(pencil)

    def test_positive_degree_rejected(self):
        pencil = TwistorPencil(
            n=4,
            base=CycleConfig.real((-5, 1), 4),
            family=PicZeroFamily.nonconstant(),
        )
        with pytest.raises(ValueError):
            build_resolved_model(pencil)

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            build_resolved_model(pencil_a())

    def test_resolution_bit_changes_reducible_divisor(self):
        base = CycleConfig.real((-1, -4), 5)
        fam = PicZeroFamily.nonconstant()
        bit0 = build_resolved_model(
            TwistorPencil(n=5, base=base, family=fam, resolution=(0, 0))
        )
        bit1 = build_resolved_model(
            TwistorPencil(n=5, base=base, family=fam, resolution=(1, 0))
        )
        assert bit0.reducible_divisor == "E_2"
        assert bit1.reducible_divisor == "E_1"


class TestNormalize:
    def test_fixture_c_unchanged(self):
        pencil = pencil_c()
        normalized, _ = normalize_rotation(pencil, zariski_decompose(pencil.base))
        assert normalized.base == pencil.base

    def test_rotated_fixture_c_shifts(self):
        rotated = TwistorPencil(
            n=5,
            base=CycleConfig.real((-4, -1), 5),
            family=PicZeroFamily.nonconstant(),
        )
        normalized, _ = normalize_rotation(rotated, zariski_decompose(rotated.base))
        assert normalized.base.self_ints == (-1, -4, -1, -4)
        z = zariski_decompose(normalized.base)
        assert z.l == (2, 1, 2, 1)

    def test_all_equal_coefficients_rejected(self):
        pencil = pencil_a()
        with pytest.raises(InvariantViolation):
            normalize_rotation(pencil, zariski_decompose(pencil.base))

    def test_carried_decomposition_equals_recomputed(self):
        """Rotating the decomposition gives the rotated cycle's decomposition."""
        checked = rotated = 0
        for config in seeded_corpus(401, 200):
            k = config.real_k
            if k is None:
                continue
            for t in range(k):
                half = config.self_ints[t:k] + config.self_ints[:t]
                base = CycleConfig(half + half, real_k=k, n=config.n)
                z = zariski_decompose(base)
                if z.l is None or z.d != 0 or len(set(z.l)) == 1:
                    continue
                pencil = TwistorPencil(base.n, base, PicZeroFamily.nonconstant())
                normalized, carried = normalize_rotation(pencil, z)
                recomputed = zariski_decompose(normalized.base)
                for field in dataclasses.fields(recomputed):
                    name = field.name
                    assert getattr(carried, name) == getattr(recomputed, name), name
                checked += 1
                rotated += normalized is not pencil
        assert checked >= 300
        assert rotated >= 150


class TestIntersections:
    def test_fixture_c_rho_one(self):
        model = build_resolved_model(pencil_c())
        values = m_class_intersections(model, 0, 1)
        assert values["C_{1,2}"] == -1
        assert values["Delta_1"] == 1
        assert values["C_{1,1}"] == 0

    def test_rho_zero_all_vanish(self):
        model = build_resolved_model(pencil_c())
        for r in (-2, 0, 5):
            values = m_class_intersections(model, r, 0)
            assert set(values.values()) == {0}

    def test_rho_seven_scales(self):
        model = build_resolved_model(pencil_c())
        values = m_class_intersections(model, 0, 7)
        assert values["C_{1,2}"] == -7
        assert values["Delta_1"] == 7

    def test_independent_of_r(self):
        model = build_resolved_model(pencil_c())
        assert m_class_intersections(model, -3, 2) == m_class_intersections(
            model, 11, 2
        )

    def test_reality_symmetry(self):
        model = build_resolved_model(pencil_c())
        values = m_class_intersections(model, 0, 3)
        for name, value in values.items():
            assert values[conjugate_name(name)] == value

    def test_mirror_resolution_swaps_sign_carrier(self):
        base = CycleConfig.real((-1, -4), 5)
        fam = PicZeroFamily.nonconstant()
        model = build_resolved_model(
            TwistorPencil(n=5, base=base, family=fam, resolution=(1, 0))
        )
        values = m_class_intersections(model, 0, 1)
        assert values["C_{1,1}"] == 1
        assert values["Delta_1"] == -1
        assert values["C_{1,2}"] == 0


def neighbor_recurrence_holds(config: CycleConfig) -> bool:
    z = zariski_decompose(config)
    if z.p.is_zero or z.d != 0:
        return True
    l = z.l
    m = config.m
    for i in range(m):
        a_i = -config.self_ints[i]
        if l[(i - 1) % m] - a_i * l[i] + l[(i + 1) % m] != 0:
            return False
    return True


class TestNeighborRecurrence:
    def test_fixtures(self):
        for config in (
            CycleConfig.real((-2,), 4),
            CycleConfig.real((-1, -4), 5),
            CycleConfig.plain((-3, -1, -3)),
        ):
            assert neighbor_recurrence_holds(config)

    def test_corpus(self):
        rng = random.Random(301)
        for _ in range(80):
            assert neighbor_recurrence_holds(random_small_config(rng))


class TestProveFixed:
    def test_succeeds_for_positive_rho(self):
        model = build_resolved_model(pencil_c())
        derivation = prove_E_fixed(model, 0, 1)
        assert derivation.holds
        assert all(step.holds for step in derivation.steps)

    def test_fails_for_zero_rho(self):
        model = build_resolved_model(pencil_c())
        derivation = prove_E_fixed(model, 0, 0)
        assert not derivation.holds
        assert not derivation.steps[0].holds

    def test_fails_for_negative_rho(self):
        model = build_resolved_model(pencil_c())
        assert not prove_E_fixed(model, 0, -2).holds

    def test_r_independence(self):
        model = build_resolved_model(pencil_c())
        derivation = prove_E_fixed(model, -5, 3)
        assert derivation.holds

    def test_holds_iff_rho_positive_both_bits(self):
        base = CycleConfig.real((-1, -4), 5)
        fam = PicZeroFamily.nonconstant()
        for bits in ((0, 0), (1, 0)):
            model = build_resolved_model(
                TwistorPencil(n=5, base=base, family=fam, resolution=bits)
            )
            for rho in range(-3, 4):
                assert prove_E_fixed(model, 1, rho).holds == (rho > 0)


class TestAlgebraicDimension:
    def test_fixture_a_constant_finite(self):
        report = algebraic_dimension(pencil_a(finite_family(1, 3)))
        assert report.verdict == VERDICT_A2

    def test_fixture_c_nonconstant(self):
        report = algebraic_dimension(pencil_c())
        assert report.verdict == VERDICT_A1

    def test_fixture_c_constant_finite_inconsistent(self):
        report = algebraic_dimension(pencil_c(finite_family(1, 6)))
        assert report.verdict == VERDICT_INCONSISTENT
        assert len(report.derivations) == 2
        conclusions = {d.conclusion for d in report.derivations}
        assert len(conclusions) == 2
        assert all(d.holds for d in report.derivations)

    def test_fixture_e_any_family(self):
        pencil = TwistorPencil(
            n=4,
            base=CycleConfig.real((-5, 1), 4),
            family=PicZeroFamily.nonconstant(),
        )
        report = algebraic_dimension(pencil)
        assert report.verdict == VERDICT_A3

    def test_fixture_b_p_zero(self):
        pencil = TwistorPencil(
            n=5,
            base=CycleConfig.real((-3,), 5),
            family=PicZeroFamily.nonconstant(),
        )
        assert algebraic_dimension(pencil).verdict == VERDICT_A1

    def test_constant_infinite(self):
        family = PicZeroFamily.constant(PicZeroElement(F(2), F(0)))
        assert algebraic_dimension(pencil_c(family)).verdict == VERDICT_A1

    def test_never_a2_above_n4(self):
        rng = random.Random(302)
        for _ in range(60):
            config = random_small_config(rng)
            if not config.is_real or config.n is None or config.n < 4:
                continue
            pencil = TwistorPencil(
                n=config.n, base=config, family=finite_family(1, 4)
            )
            if validate_pencil(pencil):
                continue
            try:
                report = algebraic_dimension(pencil)
            except InvariantViolation:
                continue
            if report.verdict == VERDICT_A2:
                assert pencil.n == 4
            if report.verdict == VERDICT_INCONSISTENT:
                assert pencil.n > 4

    def test_theorem_on_every_small_real_cycle(self):
        """Over n CP^2 with n > 4 a pencil is never a2, on every real cycle
        with k <= 4 and half self-intersections in [-6, 3]."""
        verdicts: Counter[str] = Counter()
        for k in range(1, 5):
            for half in itertools.product(range(-6, 4), repeat=k):
                n = ambient_n(CycleConfig(half + half, real_k=k))
                if n is None or n < 4:
                    continue
                pencil = TwistorPencil(
                    n=n, base=CycleConfig.real(half, n), family=finite_family(1, 4)
                )
                if validate_pencil(pencil):
                    continue
                report = algebraic_dimension(pencil)
                z = report.decomposition
                verdicts[report.verdict] += 1
                if report.verdict == VERDICT_A2:
                    assert n == 4, half
                assert (report.verdict == VERDICT_INCONSISTENT) == (
                    n > 4 and not z.p.is_zero and z.d == 0
                ), half
                if report.verdict == VERDICT_INCONSISTENT:
                    assert report.derivations
                    for derivation in report.derivations:
                        assert derivation.holds, half
                        assert all(step.holds for step in derivation.steps), half
        assert verdicts == {
            VERDICT_A1: 1259,
            VERDICT_A2: 4,
            VERDICT_A3: 3172,
            VERDICT_INCONSISTENT: 45,
        }

    def test_bound_respected(self):
        levels = {"zero": 0, "one": 1, "two": 2}
        numeric = {VERDICT_A1: 1, VERDICT_A2: 2, VERDICT_A3: 3}
        rng = random.Random(303)
        for _ in range(60):
            config = random_small_config(rng)
            if not config.is_real or config.n is None:
                continue
            pencil = TwistorPencil(
                n=config.n, base=config, family=PicZeroFamily.nonconstant()
            )
            if validate_pencil(pencil):
                continue
            report = algebraic_dimension(pencil)
            if report.verdict == VERDICT_INCONSISTENT:
                continue
            assert numeric[report.verdict] <= 1 + levels[report.generic_kodaira]

    def test_elliptic_branch(self):
        bundle = PicZeroElement.unity_root(F(1, 4))
        family = PicZeroFamily.constant(bundle)
        n4 = TwistorPencil(n=4, base=EllipticBase(bundle), family=family)
        assert algebraic_dimension(n4).verdict == VERDICT_A2
        n6 = TwistorPencil(n=6, base=EllipticBase(bundle), family=family)
        assert algebraic_dimension(n6).verdict == VERDICT_A1
        infinite = PicZeroElement(F(2), F(0))
        n4inf = TwistorPencil(
            n=4,
            base=EllipticBase(infinite),
            family=PicZeroFamily.constant(infinite),
        )
        assert algebraic_dimension(n4inf).verdict == VERDICT_A1

    def test_invalid_pencil_raises(self):
        pencil = TwistorPencil(
            n=9,
            base=CycleConfig.real((-1, -4), 5),
            family=PicZeroFamily.nonconstant(),
        )
        with pytest.raises(ValueError):
            algebraic_dimension(pencil)

    def test_invalid_pencil_names_each_issue_on_its_own_line(self):
        pencil = TwistorPencil(
            n=3, base=CycleConfig.real((-1, -4), 3), family=finite_family(1, 6)
        )
        with pytest.raises(ValueError) as info:
            algebraic_dimension(pencil)
        assert str(info.value).split("\n") == [
            "twistor pencils require n >= 4",
            "C^2 = -2 but 8 - 2n = 2",
        ]

    def test_square_zero_nef_part_on_two_cycle_only_over_four_planes(self):
        """A real 2-cycle (s, s) has C^2 = 2s + 4, so n = 2 - s: P = 0 below
        s = -2 and d > 0 above it, so P != 0 with P^2 = 0 needs n = 4."""
        for s in range(-12, 4):
            z = zariski_decompose(CycleConfig.real((s,), 2 - s))
            assert z.p.is_zero == (s < -2), s
            assert (z.d > 0) == (s > -2), s
            if s <= -2:
                for family in FAMILIES:
                    pencil = TwistorPencil(2 - s, z.config, family)
                    assert validate_pencil(pencil) == [], s
                    torsion = s == -2 and family is FAMILIES[0]
                    expected = VERDICT_A2 if torsion else VERDICT_A1
                    assert algebraic_dimension(pencil).verdict == expected, s

    def test_resolution_choice_does_not_change_verdict(self):
        base = CycleConfig.real((-1, -4), 5)
        fam = finite_family(1, 6)
        verdicts = set()
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            pencil = TwistorPencil(n=5, base=base, family=fam, resolution=bits)
            verdicts.add(algebraic_dimension(pencil).verdict)
        assert verdicts == {VERDICT_INCONSISTENT}


@st.composite
def _real_cycles_with_vanishing_nef_part(draw) -> CycleConfig:
    """A real node walk, then smooth blow-ups of conjugate pairs (drawn
    first, then cycling through the components) until the nef part vanishes.

    Every smooth blow-up lowers two self-intersections, so the cycle ends
    diagonally dominant and negative definite if not sooner.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    config = random_cycle_walk(rng, real=True, blowups=draw(st.integers(0, 3)))
    components = draw(st.lists(st.integers(0, config.m - 1), max_size=6))
    for c in components:
        config = blow_up_smooth(config, c).config
    step = 0
    while not zariski_decompose(config).p.is_zero:
        config = blow_up_smooth(config, step % config.m).config
        step += 1
    return config


class TestVanishingNefPart:
    @settings(max_examples=40, deadline=None)
    @given(_real_cycles_with_vanishing_nef_part())
    def test_oracle_agrees_and_every_pencil_is_a1(self, config):
        fast = zariski_decompose(config)
        slow = zariski_oracle(config)
        assert config.is_real and fast.p.is_zero
        assert (fast.p, fast.n_part) == (slow.p, slow.n_part)
        k = config.real_k
        bits = [None, *itertools.product((0, 1), repeat=k)]
        for family, resolution in itertools.product(FAMILIES, bits):
            pencil = TwistorPencil(config.n, config, family, resolution)
            assert validate_pencil(pencil) == []
            assert algebraic_dimension(pencil).verdict == VERDICT_A1
