"""Acceptance gate: the ten headline checks, one pass/fail line each.

Every check is exact rational arithmetic; there are no tolerances
anywhere.  Each test prints ``PASS criterion-N: <summary>`` so a plain
``pytest -s tests/test_acceptance.py`` doubles as a checklist.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from anticycle import cli
from anticycle.birational import blow_up_node, blow_up_smooth, blow_down
from anticycle.config_io import random_small_config
from anticycle.cycles import (
    CycleConfig,
    QDivisor,
    classify_kodaira,
    intersection_matrix,
    riemann_roch_chi,
    validate,
    zariski_decompose,
    zariski_oracle,
)
from anticycle.pic0 import PicZeroElement, PicZeroFamily
from anticycle.qform import NEGATIVE_DEFINITE, definiteness
from anticycle.twistor import (
    TwistorPencil,
    VERDICT_A1,
    VERDICT_A2,
    VERDICT_A3,
    VERDICT_INCONSISTENT,
    algebraic_dimension,
    build_resolved_model,
    m_class_intersections,
    normalize_rotation,
)

from conftest import fixture_path, seeded_corpus

F = Fraction

FIXTURES = {
    "A": CycleConfig.real((-2,), 4),
    "B": CycleConfig.real((-3,), 5),
    "C": CycleConfig.real((-1, -4), 5),
    "D": CycleConfig.plain((-3, -1, -3)),
    "E": CycleConfig.real((-5, 1), 4),
}


def report(n: int, summary: str) -> None:
    print(f"PASS criterion-{n}: {summary}")


def test_criterion_1_definite_family():
    """k=1 cycles with selfs 2-n are negative definite with vanishing nef part."""
    for n in range(5, 13):
        config = CycleConfig.real((2 - n,), n)
        assert validate(config) == [], f"n={n} invalid"
        kind = definiteness(intersection_matrix(config)).kind
        assert kind == NEGATIVE_DEFINITE, f"n={n} not definite"
        z = zariski_decompose(config)
        assert z.p.is_zero, f"n={n} has nonzero nef part"
        assert classify_kodaira(z, None) == "zero"
        pencil = TwistorPencil(
            n=n, base=config, family=PicZeroFamily.nonconstant()
        )
        assert algebraic_dimension(pencil).verdict == VERDICT_A1
    report(1, "n in 5..12 mirrored (2-n) cycles: definite, P = 0, verdict a1")


def test_criterion_2_oracle_equivalence():
    """Support-growing algorithm agrees with the subset-enumeration oracle."""
    oracle_cache: dict[CycleConfig, tuple] = {}

    def oracle_parts(config: CycleConfig) -> tuple:
        if config not in oracle_cache:
            slow = zariski_oracle(config)
            oracle_cache[config] = (slow.p, slow.n_part)
        return oracle_cache[config]

    checked = 0
    for config in FIXTURES.values():
        fast = zariski_decompose(config)
        assert (fast.p, fast.n_part) == oracle_parts(config)
        checked += 1
    for config in seeded_corpus(1001, 500):
        assert config.m <= 10
        fast = zariski_decompose(config)
        assert (fast.p, fast.n_part) == oracle_parts(config)
        checked += 1
    report(2, f"algorithm = oracle on {checked} configs (5 fixtures + 500 seeded)")


def test_criterion_3_coefficient_laws():
    """Integer coefficients of m0*P: positive, containing 1, max = m0."""
    checked = 0
    for config in seeded_corpus(1002, 300):
        z = zariski_decompose(config)
        if z.p.is_zero or z.d != 0:
            continue
        assert all(li > 0 for li in z.l)
        assert any(li == 1 for li in z.l)
        assert z.m0 == max(z.l)
        k_squared = intersection_matrix(config).pair(
            tuple(F(1) for _ in range(config.m)),
            tuple(F(1) for _ in range(config.m)),
        )
        if k_squared < 0:
            assert z.m0 > 1
            assert len(set(z.l)) > 1
        checked += 1
    assert checked >= 100
    report(3, f"coefficient laws hold on {checked} degree-zero configs, 0 violations")


def test_criterion_4_transport():
    """Node blow-up transports the coefficient list exactly."""
    rng = random.Random(1003)
    checked = 0
    while checked < 200:
        config = random_small_config(rng)
        z = zariski_decompose(config)
        if z.p.is_zero or z.d != 0:
            continue
        node = rng.randrange(config.m)
        result = blow_up_node(config, node)
        assert result.transported_l is not None
        recomputed = zariski_decompose(result.config)
        assert recomputed.l == result.transported_l
        assert recomputed.m0 == max(result.transported_l)
        checked += 1
    report(4, "200 seeded node blow-ups: transported l = recomputed m0*P")


def test_criterion_5_smooth_blowup_kills_nef_part():
    """Blowing up a smooth point always produces a vanishing nef part."""
    checked = 0
    rng = random.Random(1004)
    for _ in range(300):
        config = random_small_config(rng)
        z = zariski_decompose(config)
        if z.p.is_zero or z.d != 0:
            continue
        component = rng.randrange(config.m)
        result = blow_up_smooth(config, component)
        assert zariski_decompose(result.config).p.is_zero
        checked += 1
    assert checked >= 100
    report(5, f"{checked} smooth blow-ups all yield P = 0")


def test_criterion_6_intersection_closed_forms():
    """Model intersection numbers match -rho(l1-l2) / +rho(l1-l2), and the
    local rule: self-intersection inside the half plus one neighbour."""
    def check(pencil: TwistorPencil) -> None:
        normalized, _ = normalize_rotation(pencil, zariski_decompose(pencil.base))
        k = normalized.base.real_k
        for bit in (0, 1):
            resolution = (bit,) + (0,) * (k - 1)
            model = build_resolved_model(replace(normalized, resolution=resolution))
            s, l, m = model.base.self_ints, model.l, model.base.m
            l1, l2 = l[0], l[1]
            for rho in range(-3, 4):
                values = m_class_intersections(model, rho)
                if model.node_bit == 0:
                    # C_{1,2} in the fiber of E_2, raised by the resolution,
                    # plus its transverse neighbour C_3
                    carrier = "C_{1,2}"
                    local = rho * (l[1] * (1 + s[1]) + l[2 % m])
                else:
                    carrier = "C_{1,1}"
                    local = rho * (l[0] * (1 + s[0]) + l[m - 1])
                sign = -1 if model.node_bit == 0 else 1
                assert values[carrier] == local == sign * rho * (l1 - l2)
                assert values["Delta_1"] == -sign * rho * (l1 - l2)
                fiber_total = values["Delta_1"] + values[carrier]
                assert fiber_total == 0
                for name, value in values.items():
                    if name not in (
                        carrier,
                        "Delta_1",
                        f"~{carrier}",
                        "~Delta_1",
                    ):
                        assert value == 0
                for name in (carrier, "Delta_1"):
                    assert values[f"~{name}"] == values[name]

    check(
        TwistorPencil(
            n=5, base=FIXTURES["C"], family=PicZeroFamily.nonconstant()
        )
    )
    produced = 0
    rng = random.Random(1005)
    while produced < 50:
        config = random_small_config(rng)
        if not config.is_real or (config.real_k or 0) < 2:
            continue
        z = zariski_decompose(config)
        if z.p.is_zero or z.d != 0 or len(set(z.l)) == 1:
            continue
        pencil = TwistorPencil(
            n=config.n, base=config, family=PicZeroFamily.nonconstant()
        )
        check(pencil)
        produced += 1
    report(
        6,
        "closed forms and the local rule agree on Fixture C and 50 random "
        "bases, both node bits, rho in -3..3",
    )


def test_criterion_7_chi_identity():
    """Euler characteristic of tau*m0*P - C is 1 for every degree-zero fixture."""
    checked = []
    for name, config in FIXTURES.items():
        z = zariski_decompose(config)
        if z.p.is_zero or z.d != 0:
            continue
        for tau in range(1, 6):
            divisor = (tau * z.m0) * z.p - QDivisor.of([1] * config.m)
            assert riemann_roch_chi(config, divisor) == 1
        checked.append(name)
    assert checked == ["A", "C", "D"]
    report(7, f"chi(tau*m0*P - C) = 1 for tau in 1..5 on fixtures {checked}")


def test_criterion_8_decision_table(capsys):
    """The four headline verdicts, including exit code 3 when inconsistent."""
    unity = lambda p, q: PicZeroFamily.constant(
        PicZeroElement.unity_root(F(p, q))
    )
    a2 = algebraic_dimension(
        TwistorPencil(n=4, base=FIXTURES["A"], family=unity(1, 3))
    )
    assert a2.verdict == VERDICT_A2

    a1 = algebraic_dimension(
        TwistorPencil(
            n=5, base=FIXTURES["C"], family=PicZeroFamily.nonconstant()
        )
    )
    assert a1.verdict == VERDICT_A1

    inconsistent = algebraic_dimension(
        TwistorPencil(n=5, base=FIXTURES["C"], family=unity(1, 6))
    )
    assert inconsistent.verdict == VERDICT_INCONSISTENT
    assert len(inconsistent.derivations) == 2
    assert all(d.holds for d in inconsistent.derivations)
    assert {d.conclusion for d in inconsistent.derivations} == {
        "algebraic dimension 2",
        "algebraic dimension 1",
    }

    a3 = algebraic_dimension(
        TwistorPencil(
            n=4, base=FIXTURES["E"], family=PicZeroFamily.nonconstant()
        )
    )
    assert a3.verdict == VERDICT_A3

    exit_code = cli.run(
        ["adim", "--file", fixture_path("fixtureC-constfinite.cfg")]
    )
    capsys.readouterr()
    assert exit_code == 3
    report(8, "a2 / a1 / inconsistent(exit 3, twin derivations) / a3 all reproduce")


def test_criterion_9_contraction_definiteness():
    """Contracting a (-1)-component preserves vanishing of the nef part."""
    rng = random.Random(1006)
    checked = 0
    while checked < 100:
        config = random_small_config(rng)
        candidates = [
            i for i, s in enumerate(config.self_ints) if s == -1
        ]
        if not candidates or config.m < 2:
            continue
        if config.is_real and (config.real_k or 0) < 2:
            continue
        result = blow_down(config, candidates[0])
        before = definiteness(intersection_matrix(config)).kind
        after = definiteness(intersection_matrix(result.config)).kind
        assert (before == NEGATIVE_DEFINITE) == (after == NEGATIVE_DEFINITE)
        before_p = zariski_decompose(config).p.is_zero
        after_p = zariski_decompose(result.config).p.is_zero
        assert before_p == after_p
        checked += 1
    report(9, "100 seeded contractions: definiteness and P = 0 preserved")


def test_criterion_10_determinism(capsys):
    """Fixture generation is byte-deterministic in the seed."""
    assert cli.run(["fixtures", "--seed", "1", "--count", "50"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["fixtures", "--seed", "1", "--count", "50"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("# fixture") == 50
    report(10, "fixtures --seed 1 --count 50 twice: byte-identical")
