"""Tests for cycle configurations and their Zariski decompositions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticycle.cycles import (
    CycleConfig,
    QDivisor,
    ambient_n,
    classify_kodaira,
    intersection_matrix,
    riemann_roch_chi,
    validate,
    zariski_decompose,
    zariski_oracle,
)
from anticycle.pic0 import PicZeroElement, PicZeroFamily
from anticycle.qform import NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE, definiteness

from conftest import seeded_corpus

F = Fraction


class TestValidate:
    def test_fixture_a_ok(self, cycle_a):
        assert validate(cycle_a) == []

    def test_fixture_b_ok(self, cycle_b):
        assert validate(cycle_b) == []

    def test_reality_violation(self):
        config = CycleConfig((-3, -2), real_k=1, n=5)
        issues = validate(config)
        assert any("mirror" in issue or "conjugate" in issue for issue in issues)

    def test_ambient_mismatch(self):
        config = CycleConfig((-2, -2), real_k=1, n=6)
        assert validate(config)

    def test_plain_fixture_d(self, cycle_d):
        assert validate(cycle_d) == []

    def test_empty_cycle_rejected(self):
        assert validate(CycleConfig(()))


class TestIntersectionMatrix:
    def test_fixture_b(self, cycle_b):
        assert intersection_matrix(cycle_b).rows == (
            (F(-3), F(2)),
            (F(2), F(-3)),
        )

    def test_fixture_a(self, cycle_a):
        assert intersection_matrix(cycle_a).rows == (
            (F(-2), F(2)),
            (F(2), F(-2)),
        )

    def test_fixture_c(self, cycle_c):
        assert intersection_matrix(cycle_c).rows == (
            (F(-1), F(1), F(0), F(1)),
            (F(1), F(-4), F(1), F(0)),
            (F(0), F(1), F(-1), F(1)),
            (F(1), F(0), F(1), F(-4)),
        )

    def test_nodal_curve(self):
        assert intersection_matrix(CycleConfig.plain((3,))).rows == ((F(3),),)


class TestDecompose:
    def test_fixture_b_p_zero(self, cycle_b):
        z = zariski_decompose(cycle_b)
        assert z.p.is_zero
        assert z.n_part.coeffs == (F(1), F(1))

    def test_fixture_a_p_full(self, cycle_a):
        z = zariski_decompose(cycle_a)
        assert z.p.coeffs == (F(1), F(1))
        assert z.n_part.is_zero

    def test_fixture_c(self, cycle_c):
        z = zariski_decompose(cycle_c)
        assert z.p.coeffs == (F(1), F(1, 2), F(1), F(1, 2))
        assert z.n_part.coeffs == (F(0), F(1, 2), F(0), F(1, 2))

    def test_fixture_e(self, cycle_e):
        z = zariski_decompose(cycle_e)
        assert z.p.coeffs == (F(2, 5), F(1), F(2, 5), F(1))
        assert z.n_part.coeffs == (F(3, 5), F(0), F(3, 5), F(0))

    def test_oracle_matches_on_fixtures(
        self, cycle_a, cycle_b, cycle_c, cycle_d, cycle_e
    ):
        for config in (cycle_a, cycle_b, cycle_c, cycle_d, cycle_e):
            fast = zariski_decompose(config)
            slow = zariski_oracle(config)
            assert fast.p == slow.p
            assert fast.n_part == slow.n_part

    @pytest.mark.parametrize("mult", [2, 3, 5])
    def test_scaling(self, cycle_c, mult):
        base = zariski_decompose(cycle_c)
        scaled = zariski_decompose(
            cycle_c, QDivisor.of([mult] * cycle_c.m)
        )
        assert scaled.p == mult * base.p
        assert scaled.n_part == mult * base.n_part

    def test_sum_is_input(self, cycle_c):
        z = zariski_decompose(cycle_c)
        assert (z.p + z.n_part).coeffs == tuple(F(1) for _ in range(cycle_c.m))


class TestInvariants:
    def test_p_zero_iff_negative_definite(self):
        for config in seeded_corpus(101, 60):
            z = zariski_decompose(config)
            kind = definiteness(intersection_matrix(config)).kind
            assert z.p.is_zero == (kind == NEGATIVE_DEFINITE)

    def test_degree_zero_iff_p_orthogonal(self):
        for config in seeded_corpus(102, 60):
            z = zariski_decompose(config)
            m = intersection_matrix(config)
            products = m.apply(z.p.coeffs)
            orthogonal = all(v == 0 for v in products)
            assert (z.d == 0) == (z.p.is_zero or orthogonal)

    def test_semidefinite_kernel_spanned_by_nef_part(self):
        found = 0
        for config in seeded_corpus(103, 80):
            z = zariski_decompose(config)
            if z.p.is_zero or z.d != 0:
                continue
            if not all(c > 0 for c in z.p.coeffs):
                continue
            report = definiteness(intersection_matrix(config))
            assert report.kind == NEGATIVE_SEMIDEFINITE
            assert len(report.kernel_basis) == 1
            kernel = report.kernel_basis[0]
            ratios = {
                kernel[i] / z.p.coeffs[i] for i in range(config.m)
            }
            assert len(ratios) == 1
            found += 1
        assert found > 5

    def test_prop_z2(self):
        checked = 0
        for config in seeded_corpus(104, 120):
            z = zariski_decompose(config)
            if z.p.is_zero or z.d != 0:
                continue
            assert z.l is not None and z.m0 is not None
            assert all(li > 0 for li in z.l)
            assert any(li == 1 for li in z.l)
            assert z.m0 == max(z.l)
            k_squared = sum(config.self_ints) + 2 * config.m
            if k_squared < 0:
                assert z.m0 > 1
                assert len(set(z.l)) > 1
            checked += 1
        assert checked > 10


class TestInvariantAccessors:
    def test_m0_fixture_c(self, cycle_c):
        z = zariski_decompose(cycle_c)
        assert (z.m0, z.l) == (2, (2, 1, 2, 1))

    def test_m0_fixture_a(self, cycle_a):
        z = zariski_decompose(cycle_a)
        assert (z.m0, z.l) == (1, (1, 1))

    def test_m0_undefined_for_zero_p(self, cycle_b):
        z = zariski_decompose(cycle_b)
        assert z.m0 is None and z.l is None

    def test_degree_values(self, cycle_b, cycle_c, cycle_e):
        assert zariski_decompose(cycle_b).d == 0
        assert zariski_decompose(cycle_c).d == 0
        assert zariski_decompose(cycle_e).d == F(18, 5)


class TestClassify:
    def test_zero_for_definite(self, cycle_b):
        assert classify_kodaira(zariski_decompose(cycle_b), None) == "zero"

    def test_two_for_positive_degree(self, cycle_e):
        assert classify_kodaira(zariski_decompose(cycle_e), None) == "two"

    def test_one_for_finite_order(self, cycle_c):
        family = PicZeroFamily.constant(PicZeroElement.unity_root(F(1, 6)))
        assert classify_kodaira(zariski_decompose(cycle_c), family) == "one"

    def test_zero_for_infinite_order(self, cycle_c):
        family = PicZeroFamily.constant(PicZeroElement(F(2), F(0)))
        assert classify_kodaira(zariski_decompose(cycle_c), family) == "zero"

    def test_needs_order_without_info(self, cycle_c):
        assert classify_kodaira(zariski_decompose(cycle_c), None) == "needs_order"

    def test_needs_order_for_nonconstant_family(self, cycle_c):
        family = PicZeroFamily.nonconstant()
        assert classify_kodaira(zariski_decompose(cycle_c), family) == "needs_order"


class TestRiemannRoch:
    def test_zero_divisor(self, cycle_a):
        assert riemann_roch_chi(cycle_a, QDivisor.of([0, 0])) == 1

    def test_fixture_c_three_m0p_minus_c(self, cycle_c):
        assert riemann_roch_chi(cycle_c, QDivisor.of([5, 2, 5, 2])) == 1

    def test_fixture_a_anticanonical(self, cycle_a):
        assert riemann_roch_chi(cycle_a, QDivisor.of([1, 1])) == 1

    def test_non_integral_rejected(self, cycle_a):
        with pytest.raises(ValueError):
            riemann_roch_chi(cycle_a, QDivisor.of([F(1, 2), F(1)]))

    @pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
    def test_chi_identity(self, cycle_a, cycle_c, tau):
        for config in (cycle_a, cycle_c):
            z = zariski_decompose(config)
            assert z.d == 0 and z.l is not None
            d = (tau * z.m0) * z.p - QDivisor.of([1] * config.m)
            assert riemann_roch_chi(config, d) == 1

    def test_chi_identity_on_corpus(self):
        for config in seeded_corpus(105, 40):
            z = zariski_decompose(config)
            if z.p.is_zero or z.d != 0:
                continue
            for tau in (1, 2, 3):
                d = (tau * z.m0) * z.p - QDivisor.of([1] * config.m)
                assert riemann_roch_chi(config, d) == 1


class TestAmbientN:
    def test_stored(self, cycle_b):
        assert ambient_n(cycle_b) == 5

    def test_derived(self, cycle_a):
        assert ambient_n(CycleConfig.plain((-2, -2))) == 4

    def test_absent_when_odd(self, cycle_d):
        assert ambient_n(cycle_d) is None


@st.composite
def _valid_configs(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    return seeded_corpus(seed, 1)[0]


class TestUniquenessProperty:
    @settings(max_examples=60, deadline=None)
    @given(_valid_configs())
    def test_oracle_agreement(self, config):
        fast = zariski_decompose(config)
        slow = zariski_oracle(config)
        assert fast.p == slow.p
        assert fast.n_part == slow.n_part

    @settings(max_examples=60, deadline=None)
    @given(_valid_configs())
    def test_certified_conditions(self, config):
        z = zariski_decompose(config)
        m = intersection_matrix(config)
        products = m.apply(z.p.coeffs)
        support = z.n_part.support
        assert all(v >= 0 for v in products)
        assert all(products[i] == 0 for i in support)
        assert all(c >= 0 for c in z.n_part.coeffs)
        if support:
            sub = m.submatrix(support)
            assert definiteness(sub).kind == NEGATIVE_DEFINITE
