"""Degree-zero line bundles on a cycle and their order data.

The degree-zero Picard group of a cycle of rational curves is the
multiplicative group of non-zero complex numbers.  An element is stored by
a positive rational modulus and a rational angle (the argument divided by
2*pi, taken mod 1), which is exactly the data needed to decide torsion: an
element has finite order precisely when its modulus is one, and the order
is then the denominator of the reduced angle.

A family records how the restriction of a line bundle varies over a pencil
parameter: constant exactly when it carries its one element, nonconstant
otherwise (optionally with witnessing samples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

CONSTANT_FINITE = "constant_finite"
CONSTANT_INFINITE = "constant_infinite"
NONCONSTANT = "nonconstant"


@dataclass(frozen=True)
class PicZeroElement:
    """An element of the degree-zero Picard group, i.e. of C^*.

    ``modulus`` is a positive rational; ``angle`` is the argument as a
    fraction of a full turn, normalized into [0, 1).
    """

    modulus: Fraction
    angle: Fraction

    def __post_init__(self) -> None:
        # a Fraction field, and an angle already in [0, 1), is kept as
        # given: rebuilding it would only copy it
        modulus = self.modulus
        if type(modulus) is not Fraction:
            modulus = Fraction(modulus)
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        angle = self.angle
        if type(angle) is not Fraction:
            angle = Fraction(angle)
        if not 0 <= angle.numerator < angle.denominator:
            angle %= 1
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "angle", angle)

    @staticmethod
    def unity_root(angle: Fraction | str | int) -> "PicZeroElement":
        return PicZeroElement(Fraction(1), Fraction(angle))


@dataclass(frozen=True)
class PicZeroFamily:
    """A constant or nonconstant family of degree-zero bundles.

    Constancy is stored once, as ``element``: a constant family carries its
    one element, a nonconstant family carries ``None`` (and may carry
    witnessing ``samples``).
    """

    element: PicZeroElement | None = None
    samples: tuple[PicZeroElement, ...] = field(default=())

    @staticmethod
    def constant(element: PicZeroElement) -> "PicZeroFamily":
        return PicZeroFamily(element)

    @staticmethod
    def nonconstant(samples: tuple[PicZeroElement, ...] = ()) -> "PicZeroFamily":
        return PicZeroFamily(samples=tuple(samples))

    @property
    def is_constant(self) -> bool:
        return self.element is not None


@dataclass(frozen=True)
class FamilyProfile:
    """What the family does over the pencil: kind plus the order when finite."""

    kind: str
    tau: int | None = None


def order(element: PicZeroElement) -> int | None:
    """The order of the element, ``None`` when infinite.

    Finite order forces modulus one; the order is then the denominator of
    the reduced angle (the identity, angle 0, has order one).
    """
    if element.modulus != 1:
        return None
    return element.angle.denominator


def power(element: PicZeroElement, exponent: int) -> PicZeroElement:
    """The exponent-th power (any integer exponent; the group is C^*)."""
    return PicZeroElement(element.modulus ** exponent, element.angle * exponent)


def family_profile(family: PicZeroFamily) -> FamilyProfile:
    """Classify a family as constant finite (with order), constant infinite,
    or nonconstant.

    A family declared nonconstant whose samples are all equal is rejected
    as inconsistent input.
    """
    if family.element is not None:
        tau = order(family.element)
        if tau is None:
            return FamilyProfile(CONSTANT_INFINITE)
        return FamilyProfile(CONSTANT_FINITE, tau=tau)
    if family.samples and len(set(family.samples)) == 1:
        raise ValueError("nonconstant family with identical samples is inconsistent")
    return FamilyProfile(NONCONSTANT)
