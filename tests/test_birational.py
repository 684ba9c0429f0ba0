"""Tests for blow-up/blow-down surgery and nef-part coefficient transport."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from anticycle.birational import (
    SurgeryInputError,
    blow_down,
    blow_up_node,
    blow_up_smooth,
    contract_to_nef_model,
)
from anticycle.cycles import CycleConfig, ambient_n, validate, zariski_decompose
from anticycle.config_io import random_small_config

from conftest import seeded_corpus

F = Fraction


def k_squared(config: CycleConfig) -> int:
    if config.m == 1:
        return config.self_ints[0]
    return sum(config.self_ints) + 2 * config.m


class TestBlowUpNode:
    def test_fixture_a_dropped(self, cycle_a):
        result = blow_up_node(cycle_a, 0, drop_reality=True)
        assert result.config.self_ints == (-3, -1, -3)
        assert not result.config.is_real
        assert result.transported_l == (1, 2, 1)

    def test_fixture_c_dropped_coefficient(self, cycle_c):
        result = blow_up_node(cycle_c, 0, drop_reality=True)
        assert result.config.self_ints == (-2, -1, -5, -1, -4)
        assert result.transported_l == (2, 3, 1, 2, 1)

    def test_fixture_b_keeps_zero_p(self, cycle_b):
        result = blow_up_node(cycle_b, 0, drop_reality=True)
        assert result.config.m == 3
        assert zariski_decompose(result.config).p.is_zero

    def test_real_pair_surgery(self, cycle_a):
        result = blow_up_node(cycle_a, 0)
        assert result.config.self_ints == (-4, -1, -4, -1)
        assert result.config.real_k == 2
        assert result.config.n == 5
        assert result.inserted == (1, 3)
        assert result.transported_l == (1, 2, 1, 2)

    def test_real_without_drop_is_pair(self, cycle_c):
        result = blow_up_node(cycle_c, 0)
        assert result.config.m == cycle_c.m + 2
        assert result.config.real_k == 3
        assert validate(result.config) == []

    def test_nodal_curve(self):
        nodal = CycleConfig.plain((0,))
        result = blow_up_node(nodal, 0)
        assert result.config.self_ints == (-4, -1)
        assert result.transported_l == (1, 2)

    def test_node_out_of_range(self, cycle_d):
        with pytest.raises(SurgeryInputError):
            blow_up_node(cycle_d, 3)

    def test_k_squared_drops(self, cycle_d):
        result = blow_up_node(cycle_d, 1)
        assert k_squared(result.config) == k_squared(cycle_d) - 1

    def test_k_squared_drops_by_two_for_pairs(self, cycle_c):
        result = blow_up_node(cycle_c, 0)
        assert k_squared(result.config) == k_squared(cycle_c) - 2

    def test_transport_matches_recomputation(self, cycle_a, cycle_c):
        for config in (cycle_a, cycle_c):
            for node in range(config.m):
                result = blow_up_node(config, node, drop_reality=True)
                if result.transported_l is None:
                    continue
                z = zariski_decompose(result.config)
                assert z.l == result.transported_l


class TestBlowUpSmooth:
    def test_fixture_a(self, cycle_a):
        result = blow_up_smooth(cycle_a, 0, drop_reality=True)
        assert result.config.self_ints == (-3, -2)
        assert zariski_decompose(result.config).p.is_zero

    def test_fixture_c(self, cycle_c):
        result = blow_up_smooth(cycle_c, 1, drop_reality=True)
        assert result.config.self_ints == (-1, -5, -1, -4)
        assert zariski_decompose(result.config).p.is_zero

    def test_fixture_b(self, cycle_b):
        result = blow_up_smooth(cycle_b, 0, drop_reality=True)
        assert result.config.self_ints == (-4, -3)
        assert zariski_decompose(result.config).p.is_zero

    def test_real_pair(self, cycle_a):
        result = blow_up_smooth(cycle_a, 0)
        assert result.config.self_ints == (-3, -3)
        assert result.config.n == 5

    def test_kills_nef_part_on_corpus(self):
        checked = 0
        for config in seeded_corpus(201, 60):
            z = zariski_decompose(config)
            if z.p.is_zero or z.d != 0:
                continue
            result = blow_up_smooth(config, 0, drop_reality=True)
            assert zariski_decompose(result.config).p.is_zero
            checked += 1
        assert checked > 10


class TestBlowDown:
    def test_fixture_d_to_a_shape(self, cycle_d):
        result = blow_down(cycle_d, 1)
        assert result.config.self_ints == (-2, -2)

    def test_two_cycle_to_nodal(self):
        result = blow_down(CycleConfig.plain((-5, -1)), 1)
        assert result.config.self_ints == (-1,)
        assert k_squared(result.config) == -1

    def test_rejects_wrong_self_intersection(self, cycle_c):
        with pytest.raises(SurgeryInputError):
            blow_down(cycle_c, 1)

    @pytest.mark.parametrize("drop_reality", [False, True])
    def test_message_names_the_requested_component(self, cycle_e, drop_reality):
        # component 2 (1-based) is checked before its conjugate 4
        with pytest.raises(SurgeryInputError) as info:
            blow_down(cycle_e, 1, drop_reality=drop_reality)
        assert str(info.value) == "component 2 has self-intersection 1, not -1"

    def test_real_pair_contraction(self, cycle_c):
        result = blow_down(cycle_c, 0)
        assert result.config.self_ints == (-2, -2)
        assert result.config.real_k == 1
        assert result.config.n == 4

    def test_k_squared_raises(self, cycle_d):
        result = blow_down(cycle_d, 1)
        assert k_squared(result.config) == k_squared(cycle_d) + 1


class TestRoundTrips:
    def test_plain_round_trip(self, cycle_d):
        for node in range(cycle_d.m):
            up = blow_up_node(cycle_d, node)
            down = blow_down(up.config, up.inserted[0])
            assert down.config == cycle_d

    def test_real_round_trip(self, cycle_a, cycle_c, cycle_e):
        for config in (cycle_a, cycle_c, cycle_e):
            for node in range(config.m):
                up = blow_up_node(config, node)
                down = blow_down(up.config, up.inserted[0])
                assert down.config == config

    def test_seeded_round_trips(self):
        rng = random.Random(202)
        for _ in range(200):
            config = random_small_config(rng)
            node = rng.randrange(config.m)
            up = blow_up_node(config, node)
            down = blow_down(up.config, up.inserted[0])
            assert down.config == config

    def test_nodal_round_trip(self):
        nodal = CycleConfig.plain((-1,))
        up = blow_up_node(nodal, 0)
        down = blow_down(up.config, up.inserted[0])
        assert down.config == nodal


def _contract_redecomposing(config: CycleConfig, seen: set[str]):
    """The contraction loop that re-decomposed after every blow-down, kept
    as a reference; ``seen`` records the blow-downs to m <= 2 and each kind
    of refused blow-down that ended the loop."""
    z = zariski_decompose(config)
    if z.p.is_zero:
        return None
    steps: list[int] = []
    while not z.n_part.is_zero:
        target = next(
            (i for i, s in enumerate(z.config.self_ints) if s == -1), None
        )
        if target is None:
            return None
        try:
            result = blow_down(z.config, target)
        except SurgeryInputError as exc:
            refusals = ("conjugate pair", "only component", "not -1")
            seen.add(next(r for r in refusals if r in str(exc)))
            return None
        steps.append(target)
        if result.config.m <= 2:
            seen.add("m <= 2")
        z = zariski_decompose(result.config)
    return z.config, tuple(steps)


def _arbitrary_cycle(rng: random.Random) -> CycleConfig:
    """A cycle rich in (-1)-components: plain, real, or real in name only
    (conjugate self-intersections may differ, which no validated cycle
    allows; only there can a pair refusal end the loop)."""
    values = (-1, -1, -1, -2, -3, 0, 1)
    kind = rng.randrange(3)
    if kind == 0:
        return CycleConfig.plain(rng.choices(values, k=rng.randint(1, 8)))
    k = rng.randint(1, 4)
    half = rng.choices(values, k=k)
    selfs = half + (half if kind == 1 else rng.choices(values, k=k))
    return CycleConfig(tuple(selfs), real_k=k, n=ambient_n(CycleConfig.plain(selfs)))


class TestContract:
    def test_matches_redecomposing_loop(self):
        seen: set[str] = set()
        rng = random.Random(205)
        configs = seeded_corpus(205, 300) + [_arbitrary_cycle(rng) for _ in range(3000)]
        contracted = 0
        for config in configs:
            outcome = contract_to_nef_model(config)
            assert outcome == _contract_redecomposing(config, seen), config
            contracted += outcome is not None and outcome[1] != ()
        # no loop reaches a lone (-1)-curve: P stays non-zero under blow-downs
        assert seen == {"m <= 2", "conjugate pair", "not -1"}
        assert contracted >= 100

    def test_fixture_d_contracts_to_a_shape(self, cycle_d):
        outcome = contract_to_nef_model(cycle_d)
        assert outcome is not None
        final, steps = outcome
        assert final.self_ints == (-2, -2)
        assert steps == (1,)

    def test_fixture_a_already_nef(self, cycle_a):
        outcome = contract_to_nef_model(cycle_a)
        assert outcome is not None
        final, steps = outcome
        assert final == cycle_a
        assert steps == ()

    def test_fixture_b_absent(self, cycle_b):
        assert contract_to_nef_model(cycle_b) is None

    def test_final_has_trivial_negative_part(self):
        for config in seeded_corpus(203, 50):
            outcome = contract_to_nef_model(config)
            if outcome is None:
                continue
            final, _ = outcome
            assert zariski_decompose(final).n_part.is_zero

    def test_definiteness_preserved_by_contraction(self):
        from anticycle.cycles import intersection_matrix
        from anticycle.qform import NEGATIVE_DEFINITE, definiteness

        rng = random.Random(204)
        checked = 0
        for _ in range(100):
            config = random_small_config(rng)
            minus_one = [
                i for i, s in enumerate(config.self_ints) if s == -1
            ]
            if not minus_one or config.m < 2:
                continue
            if config.is_real and config.real_k == 1:
                continue
            try:
                result = blow_down(config, minus_one[0])
            except SurgeryInputError:
                continue
            before = definiteness(intersection_matrix(config)).kind
            after = definiteness(intersection_matrix(result.config)).kind
            assert (before == NEGATIVE_DEFINITE) == (after == NEGATIVE_DEFINITE)
            checked += 1
        assert checked > 10


class TestSurgeryFrame:
    """The range check and the real/plain rebuild shared by every surgery."""

    SURGERIES = [
        (blow_up_node, "node", (1, 1)),
        (blow_up_smooth, "component", (0, 1)),
        (blow_down, "component", (-1, -1)),
    ]

    @pytest.mark.parametrize("surgery, what, shift", SURGERIES)
    @pytest.mark.parametrize("index", [-1, 4])
    def test_out_of_range_message(self, surgery, what, shift, index, cycle_c):
        with pytest.raises(SurgeryInputError) as info:
            surgery(cycle_c, index)
        assert str(info.value) == f"{what} {index + 1} out of range for m = 4"

    def test_range_is_checked_before_the_two_cycle_rule(self, cycle_a):
        with pytest.raises(SurgeryInputError) as info:
            blow_down(cycle_a, 2)
        assert str(info.value) == "component 3 out of range for m = 2"

    @pytest.mark.parametrize("surgery, what, shift", SURGERIES)
    def test_real_shifts_k_and_n(self, surgery, what, shift, cycle_c):
        result = surgery(cycle_c, 0)
        dk, dn = shift
        assert result.config.real_k == cycle_c.real_k + dk
        assert result.config.n == cycle_c.n + dn
        assert result.config.m == cycle_c.m + 2 * dk

    @pytest.mark.parametrize("surgery, what, shift", SURGERIES)
    def test_drop_reality_gives_a_plain_cycle(self, surgery, what, shift, cycle_c):
        result = surgery(cycle_c, 0, drop_reality=True)
        assert result.config.real_k is None
        assert result.config.n is None
        assert result.config.m == cycle_c.m + shift[0]
