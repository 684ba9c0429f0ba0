"""Tests for exact arithmetic in the degree-zero Picard group of a cycle."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticycle.pic0 import (
    CONSTANT_FINITE,
    CONSTANT_INFINITE,
    NONCONSTANT,
    PicZeroElement,
    PicZeroFamily,
    family_profile,
    order,
    power,
)

F = Fraction

IDENTITY = PicZeroElement(F(1), F(0))


class TestOrder:
    def test_sixth_root(self):
        assert order(PicZeroElement(F(1), F(1, 6))) == 6

    def test_modulus_two_infinite(self):
        assert order(PicZeroElement(F(2), F(0))) is None

    def test_identity(self):
        assert order(IDENTITY) == 1

    def test_angle_reduced(self):
        assert order(PicZeroElement(F(1), F(2, 6))) == 3


class TestPower:
    def test_sixth_root_to_sixth(self):
        e = PicZeroElement(F(1), F(1, 6))
        assert power(e, 6) == IDENTITY

    def test_inverse(self):
        assert power(PicZeroElement(F(2), F(0)), -1) == PicZeroElement(
            F(1, 2), F(0)
        )

    def test_angle_wraps(self):
        e = PicZeroElement(F(1), F(1, 6))
        assert power(e, 4) == PicZeroElement(F(1), F(2, 3))

    def test_zeroth_power(self):
        assert power(PicZeroElement(F(7, 3), F(1, 5)), 0) == IDENTITY


class TestFamilyProfile:
    def test_constant_finite(self):
        family = PicZeroFamily.constant(PicZeroElement(F(1), F(1, 3)))
        profile = family_profile(family)
        assert profile.kind == CONSTANT_FINITE
        assert profile.tau == 3

    def test_constant_infinite(self):
        family = PicZeroFamily.constant(PicZeroElement(F(3, 2), F(0)))
        assert family_profile(family).kind == CONSTANT_INFINITE

    def test_nonconstant(self):
        family = PicZeroFamily.nonconstant(
            samples=(IDENTITY, PicZeroElement(F(2), F(0)))
        )
        assert family_profile(family).kind == NONCONSTANT

    def test_nonconstant_without_samples(self):
        assert family_profile(PicZeroFamily.nonconstant()).kind == NONCONSTANT

    def test_equal_samples_rejected(self):
        family = PicZeroFamily.nonconstant(samples=(IDENTITY, IDENTITY))
        with pytest.raises(ValueError):
            family_profile(family)

    def test_sample_order_irrelevant(self):
        a = PicZeroElement(F(2), F(0))
        fam1 = PicZeroFamily.nonconstant(samples=(IDENTITY, a))
        fam2 = PicZeroFamily.nonconstant(samples=(a, IDENTITY))
        assert family_profile(fam1).kind == family_profile(fam2).kind


_angles = st.fractions(min_value=0, max_value=F(29, 30), max_denominator=30)


class TestGroupLaws:
    @settings(max_examples=120, deadline=None)
    @given(_angles)
    def test_power_reaches_identity_exactly_at_order(self, angle):
        e = PicZeroElement(F(1), angle)
        tau = order(e)
        assert tau is not None
        assert power(e, tau) == IDENTITY
        for j in range(1, tau):
            assert power(e, j) != IDENTITY

    @settings(max_examples=120, deadline=None)
    @given(_angles, st.integers(min_value=1, max_value=40))
    def test_order_of_power(self, angle, j):
        e = PicZeroElement(F(1), angle)
        tau = order(e)
        assert order(power(e, j)) == tau // math.gcd(tau, j)

    @settings(max_examples=80, deadline=None)
    @given(
        st.fractions(min_value=F(1, 10), max_value=10, max_denominator=20),
        _angles,
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    )
    def test_power_is_homomorphic(self, modulus, angle, a, b):
        e = PicZeroElement(modulus, angle)
        combined = power(e, a + b)
        split = power(e, a)
        other = power(e, b)
        assert combined.modulus == split.modulus * other.modulus
        assert combined.angle == (split.angle + other.angle) % 1


_moduli = st.one_of(
    st.fractions(min_value=F(1, 12), max_value=5, max_denominator=12),
    st.sampled_from([F(1), F(2), F(1, 2)]),
)
#: Negative, in [0, 1), exactly 0 and 1, and at least 1.
_any_angles = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 2), F(3, 2)]),
)


@st.composite
def _spelled(draw, values):
    """A value and two spellings of it: a Fraction, a str, or an int where
    the value is whole."""
    value = draw(values)
    spellings = [value, str(value)] + ([int(value)] if value.denominator == 1 else [])
    return value, draw(st.sampled_from(spellings)), draw(st.sampled_from(spellings))


class TestElementFields:
    @settings(max_examples=200, deadline=None)
    @given(_spelled(_moduli), _spelled(_any_angles))
    def test_fields_are_reduced_fractions_whatever_the_spelling(self, modulus, angle):
        m, m1, m2 = modulus
        a, a1, a2 = angle
        first, second = PicZeroElement(m1, a1), PicZeroElement(m2, a2)
        for e in (first, second):
            assert e.modulus == F(m) and type(e.modulus) is Fraction
            assert e.angle == F(a) % 1 and type(e.angle) is Fraction
        turned = PicZeroElement(m, a + 1)
        assert first == second == turned
        assert hash(first) == hash(second) == hash(turned)

    @settings(max_examples=60, deadline=None)
    @given(
        _spelled(st.fractions(min_value=-5, max_value=0, max_denominator=12)).map(
            lambda spelled: spelled[1]
        ),
        st.sampled_from([F(1, 2), "1/2", 2, "x", "1/0", None]),
    )
    def test_nonpositive_modulus_raises_before_any_angle_error(self, modulus, angle):
        with pytest.raises(ValueError, match="^modulus must be positive$"):
            PicZeroElement(modulus, angle)
