"""Shared fixtures: the five reference cycles and corpus helpers."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from anticycle.cycles import CycleConfig
from anticycle.config_io import random_small_config

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / name)


@pytest.fixture
def cycle_a() -> CycleConfig:
    return CycleConfig.real((-2,), 4)


@pytest.fixture
def cycle_b() -> CycleConfig:
    return CycleConfig.real((-3,), 5)


@pytest.fixture
def cycle_c() -> CycleConfig:
    return CycleConfig.real((-1, -4), 5)


@pytest.fixture
def cycle_d() -> CycleConfig:
    return CycleConfig.plain((-3, -1, -3))


@pytest.fixture
def cycle_e() -> CycleConfig:
    return CycleConfig.real((-5, 1), 4)


def seeded_corpus(seed: int, count: int) -> list[CycleConfig]:
    """Deterministic batch of small valid configs for property sweeps."""
    rng = random.Random(seed)
    return [random_small_config(rng) for _ in range(count)]
