"""The resolved model's names, built once per (k, node bit), against a
reference that builds them per call with the naming helpers.

The corpus and the golden transcript reach only k <= 5; here every k from
1 to 8 and both node bits are compared: the name table itself, and for
k >= 2 the model and its derivation text (k = 1 has no model, since its
coefficient list is constant).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from anticycle.config_io import random_cycle_walk
from anticycle.cycles import CycleConfig, zariski_decompose
from anticycle.pic0 import PicZeroElement, PicZeroFamily
from anticycle import twistor
from anticycle.twistor import TwistorPencil, normalized_model, prove_E_fixed


# --- reference: the names built per call, one helper per kind of name -----


def _curve(i: int, conjugate: bool = False) -> str:
    return f"{'~' if conjugate else ''}C_{{1,{i}}}"


def _delta(conjugate: bool = False) -> str:
    return f"{'~' if conjugate else ''}Delta_1"


def _divisor(i: int, conjugate: bool = False) -> str:
    return f"{'~' if conjugate else ''}E_{i}"


def _conjugate(name: str) -> str:
    return name[1:] if name.startswith("~") else "~" + name


def reference_labels(k: int, bit: int):
    cycle_order = (
        [_curve(1), _delta()]
        + [_curve(i) for i in range(2, k + 1)]
        + [_curve(1, True), _delta(True)]
        + [_curve(i, True) for i in range(2, k + 1)]
    )
    reducible = 2 if bit == 0 else 1
    fibers = []
    for conj in (False, True):
        for j in range(1, k + 1):
            if j == reducible:
                fibers.append((_divisor(j, conj), (_delta(conj), _curve(j, conj))))
            else:
                fibers.append((_divisor(j, conj), (_curve(j, conj),)))
    return tuple(cycle_order), tuple(fibers)


def reference_values(k: int, bit: int, l, rho: int) -> dict[str, int]:
    values = {name: 0 for name in reference_labels(k, bit)[0]}
    if bit == 0:
        carrier, value = _curve(2), -rho * (l[0] - l[1])
    else:
        carrier, value = _curve(1), rho * (l[0] - l[1])
    for name, degree in ((carrier, value), (_delta(), -value)):
        values[name] = values[_conjugate(name)] = degree
    return values


def reference_text(k: int, bit: int, l, r: int, rho: int):
    """The evidence of each step and the conclusion of ``prove_E_fixed``."""
    cycle_order, fibers = reference_labels(k, bit)
    values = reference_values(k, bit, l, rho)
    seed = _curve(2) if bit == 0 else _delta()
    partner = _delta() if bit == 0 else _curve(1)
    excluded = {seed, _conjugate(seed), partner, _conjugate(partner)}
    chain = [name for name in cycle_order if name not in excluded]
    seed_value = values[seed]
    fiber_sums = {d: sum(values[c] for c in curves) for d, curves in fibers}
    forced = (
        seed_value < 0
        and all(values[name] == 0 for name in chain)
        and all(s == 0 for s in fiber_sums.values())
    )
    evidence = (
        f"M.{seed} = {seed_value}, M.{_conjugate(seed)} = {values[_conjugate(seed)]}",
        ", ".join(f"M.{name} = {values[name]}" for name in chain),
        ", ".join(f"deg {d} = {s}" for d, s in sorted(fiber_sums.items())),
        f"all {len(cycle_order)} cycle curves forced"
        if forced
        else f"not forced: M.{seed} = {seed_value} is not negative",
    )
    conclusion = (
        f"the vertical divisor {rho}*m0*P is a fixed component of |M({r}, {rho})|"
        if forced
        else f"fixedness of the vertical divisor in |M({r}, {rho})| is not established"
    )
    return evidence, conclusion


# --- the pencils: one real walk cycle for each k ----------------------------


def walk_pencil(k: int, bit: int) -> TwistorPencil:
    """A real cycle with 2k components, P^2 = 0 and a non-constant l."""
    if k == 2:
        config = CycleConfig.real((-1, -4), 5)
    else:
        config = random_cycle_walk(random.Random(k), real=True, blowups=k - 2)
    assert config.real_k == k
    family = PicZeroFamily.constant(PicZeroElement(Fraction(1), Fraction(1, 4)))
    return TwistorPencil(config.n, config, family, (bit,) * k)


CASES = [(k, bit) for k in range(2, 9) for bit in (0, 1)]


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("bit", (0, 1))
def test_name_table_matches_the_reference(k, bit):
    cycle_order, fiber_composition, _ = twistor._labels(k, bit)
    assert (cycle_order, fiber_composition) == reference_labels(k, bit)


@pytest.mark.parametrize("k, bit", CASES)
def test_model_names_match_the_reference(k, bit):
    pencil = walk_pencil(k, bit)
    model = normalized_model(pencil, zariski_decompose(pencil.cycle))
    assert model.node_bit == bit
    assert (model.cycle_order, model.fiber_composition) == reference_labels(k, bit)
    again = normalized_model(pencil, zariski_decompose(pencil.cycle))
    assert again.cycle_order == model.cycle_order
    assert again.fiber_composition == model.fiber_composition
    # built once per (k, bit): the second model shares the first one's tuples
    assert again.cycle_order is model.cycle_order
    assert again.fiber_composition is model.fiber_composition


@pytest.mark.parametrize("k, bit", CASES)
@pytest.mark.parametrize("r, rho", [(0, 1), (3, 2), (1, 0), (2, -1)])
def test_derivation_text_matches_the_reference(k, bit, r, rho):
    pencil = walk_pencil(k, bit)
    model = normalized_model(pencil, zariski_decompose(pencil.cycle))
    derivation = prove_E_fixed(model, r, rho)
    evidence, conclusion = reference_text(k, bit, model.l, r, rho)
    assert tuple(step.evidence for step in derivation.steps) == evidence
    assert derivation.conclusion == conclusion
    assert derivation.holds == (rho > 0)
