"""Line-oriented configuration files and deterministic fixture generation.

The on-disk format is deliberately small: one ``key = value`` assignment
per line, ``#`` starting a comment.  Recognized keys:

    base        "cycle" (default) or "elliptic"
    n           number of plane summands (real configurations)
    k           cycle bases only: half-length of a real cycle
    self        cycle bases only: self-intersections of one real half, e.g. [-1, -4]
    selfints    cycle bases only: self-intersections of a full non-real cycle
    family      "const unity p/q" | "const modulus a/b angle p/q" | "nonconstant"
    resolution  cycle bases only: bracketed bits, one per node, e.g. [0, 0]

A cycle base needs exactly one of ``self``/``selfints``, and an elliptic
base takes none of the cycle-only keys; unknown or duplicate keys are
rejected with the offending line number.  :func:`parse_config` reads each
line through one key table, key -> (``ConfigData`` field, value reader).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .birational import blow_up_node
from .cycles import CycleConfig
from .pic0 import PicZeroElement, PicZeroFamily
from .twistor import EllipticBase, TwistorPencil

class ConfigError(ValueError):
    """A config file could not be parsed or assembled."""


@dataclass(frozen=True)
class ConfigData:
    """Raw parsed contents of a config file."""

    base: str | None = None
    n: int | None = None
    k: int | None = None
    half_self_ints: tuple[int, ...] | None = None
    self_ints: tuple[int, ...] | None = None
    family: PicZeroFamily | None = None
    resolution: tuple[int, ...] | None = None


def _parse_int_list(raw: str, line_no: int) -> tuple[int, ...]:
    raw = raw.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ConfigError(f"line {line_no}: expected a bracketed list, got {raw!r}")
    inner = raw[1:-1].strip()
    if not inner:
        raise ConfigError(f"line {line_no}: empty list")
    try:
        # ``int`` ignores the whitespace around each item itself
        return tuple(map(int, inner.split(",")))
    except ValueError:
        pass
    # strip each item first, so that the error text quotes it without spaces
    try:
        return tuple(int(part.strip()) for part in inner.split(","))
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: bad integer in list: {exc}") from None


def _parse_integer(raw: str, line_no: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: {key} must be an integer") from None


def _parse_base(raw: str, line_no: int) -> str:
    if raw not in ("cycle", "elliptic"):
        raise ConfigError(f"line {line_no}: base must be 'cycle' or 'elliptic'")
    return raw


def _parse_fraction(raw: str, line_no: int) -> Fraction:
    # no exponent: Fraction("1e99999999") would build 10**99999999 first
    if "e" not in raw and "E" not in raw:
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"line {line_no}: bad rational {raw!r}")


_ONE = Fraction(1)


def _parse_family(raw: str, line_no: int) -> PicZeroFamily:
    words = raw.split()
    if words == ["nonconstant"]:
        return PicZeroFamily.nonconstant()
    if len(words) == 3 and words[:2] == ["const", "unity"]:
        angle = _parse_fraction(words[2], line_no)
        return PicZeroFamily.constant(PicZeroElement(_ONE, angle))
    if len(words) == 5 and words[0] == "const" and words[1] == "modulus" and words[3] == "angle":
        modulus = _parse_fraction(words[2], line_no)
        angle = _parse_fraction(words[4], line_no)
        if modulus <= 0:
            raise ConfigError(f"line {line_no}: modulus must be positive")
        return PicZeroFamily.constant(PicZeroElement(modulus, angle))
    raise ConfigError(f"line {line_no}: unrecognized family {raw!r}")


#: Each file key: the ``ConfigData`` field it fills, and the reader that
#: turns its value (stripped) and line number into that field's value or a
#: ``ConfigError``.  :func:`parse_config` dispatches every line through it.
_KEYS = {
    "base": ("base", _parse_base),
    "n": ("n", partial(_parse_integer, key="n")),
    "k": ("k", partial(_parse_integer, key="k")),
    "self": ("half_self_ints", _parse_int_list),
    "selfints": ("self_ints", _parse_int_list),
    "family": ("family", _parse_family),
    "resolution": ("resolution", _parse_int_list),
}


def parse_config(text: str) -> ConfigData:
    """Parse config text, rejecting unknown or duplicate keys by line."""
    fields: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        content = line.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, raw = content.partition("=")
        key = key.strip()
        entry = _KEYS.get(key)
        if entry is None:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        field, read = entry
        if field in fields:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        fields[field] = read(raw.strip(), line_no)
    cycle_forms = fields.keys() & {"half_self_ints", "self_ints"}
    if len(cycle_forms) == 2:
        raise ConfigError("exactly one of 'self' and 'selfints' may be given")
    if not cycle_forms and fields.get("base") != "elliptic":
        raise ConfigError("one of 'self' and 'selfints' is required")
    return ConfigData(**fields)


def render_config(data: ConfigData) -> str:
    """Canonical text for a config; ``parse_config`` inverts this exactly."""
    lines = []
    if data.base is not None:
        lines.append(f"base = {data.base}")
    if data.n is not None:
        lines.append(f"n = {data.n}")
    if data.k is not None:
        lines.append(f"k = {data.k}")
    if data.half_self_ints is not None:
        lines.append(f"self = [{', '.join(str(s) for s in data.half_self_ints)}]")
    if data.self_ints is not None:
        lines.append(f"selfints = [{', '.join(str(s) for s in data.self_ints)}]")
    if data.family is not None:
        lines.append(f"family = {render_family(data.family)}")
    if data.resolution is not None:
        lines.append(f"resolution = [{', '.join(str(b) for b in data.resolution)}]")
    return "\n".join(lines) + "\n"


def render_family(family: PicZeroFamily) -> str:
    element = family.element
    if element is None:
        return "nonconstant"
    if element.modulus == 1:
        return f"const unity {element.angle}"
    return f"const modulus {element.modulus} angle {element.angle}"


def build_cycle(data: ConfigData) -> CycleConfig:
    """Assemble the cycle configuration described by the parsed data."""
    if data.base == "elliptic":
        raise ConfigError("an elliptic base carries no cycle configuration")
    if data.half_self_ints is not None:
        if data.k is not None and data.k != len(data.half_self_ints):
            raise ConfigError(
                f"k = {data.k} disagrees with the {len(data.half_self_ints)} "
                "listed self-intersections"
            )
        return CycleConfig.real(data.half_self_ints, data.n)
    if data.self_ints is None:
        raise ConfigError("config carries no cycle")
    if data.k is not None:
        raise ConfigError("k only applies to real configs given via 'self'")
    return CycleConfig(tuple(int(s) for s in data.self_ints), n=data.n)


def build_pencil(data: ConfigData, *, default_family: bool = False) -> TwistorPencil:
    """Assemble the pencil; ``default_family`` substitutes a nonconstant
    placeholder for subcommands that never consult the family."""
    family = data.family
    if family is None:
        if not default_family:
            raise ConfigError("a 'family' line is required for this operation")
        family = PicZeroFamily.nonconstant()
    if data.base == "elliptic":
        if (data.k, data.half_self_ints, data.self_ints) != (None, None, None):
            raise ConfigError("k, self and selfints are only meaningful for cycle bases")
        if data.n is None:
            raise ConfigError("an elliptic base requires n")
        if not family.is_constant:
            raise ConfigError("an elliptic base requires a constant family")
        return TwistorPencil(data.n, EllipticBase(), family, data.resolution)
    config = build_cycle(data)
    if data.n is None:
        raise ConfigError("a pencil over a cycle requires n")
    return TwistorPencil(data.n, config, family, data.resolution)


def config_to_data(config: CycleConfig) -> ConfigData:
    """The canonical file contents describing a bare cycle configuration."""
    if config.is_real:
        return ConfigData(
            n=config.n,
            k=config.real_k,
            half_self_ints=config.self_ints[: config.real_k],
        )
    return ConfigData(self_ints=config.self_ints)


def random_cycle_walk(rng: random.Random, *, real: bool, blowups: int) -> CycleConfig:
    """Random node blow-ups applied to the all-(-2) four-cycle.

    Every configuration reachable this way is valid and keeps a non-zero
    nef part of degree zero (node blow-ups preserve both).
    """
    config = (
        CycleConfig.real((-2, -2), 4) if real else CycleConfig.plain((-2, -2, -2, -2))
    )
    for _ in range(blowups):
        node = rng.randrange(config.m)
        config = blow_up_node(config, node).config
    return config


def generate_fixtures(seed: int, count: int) -> list[ConfigData]:
    """Deterministic batch of valid configurations for a given seed.

    Each walk blows up at most six nodes; a surgery on a real cycle blows
    up a conjugate node pair, so real walks draw at most three surgeries.
    The resulting cycles have at most ten components, which keeps every
    generated configuration inside the support oracle's domain.
    """
    rng = random.Random(seed)
    batch = []
    for _ in range(count):
        config = random_small_config(rng)
        batch.append(config_to_data(config))
    return batch


def random_small_config(rng: random.Random) -> CycleConfig:
    """One random walk from the all-(-2) four-cycle (at most six nodes blown up)."""
    real = rng.random() < 0.5
    blowups = rng.randint(0, 3) if real else rng.randint(0, 6)
    return random_cycle_walk(rng, real=real, blowups=blowups)
