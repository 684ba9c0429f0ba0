"""One sha256 over ``zariski_decompose`` on a seeded corpus of cycles and divisors.

Each case is a cycle with m in 1..12 and self-intersections in [-9, 6]
(half of the even-m cycles real) and a divisor: C itself, a random
effective Q-divisor, or an invalid one (wrong length or a negative
entry).  The digest hashes the ``repr`` of every result, or the type and
message of what it raises, so it changes exactly when an output does.
The pin is ``PINNED_DIGEST``, which ``tests/test_chains.py`` asserts.
The module needs only the standard library and ``anticycle``, so the pin
can be checked on any interpreter, without pytest:

    PYTHONPATH=src python tests/decomposition_digest.py

prints the digest and exits 1 when it differs from the pin.  A change
that means to alter an output updates ``PINNED_DIGEST``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from fractions import Fraction

from anticycle.cycles import CycleConfig, QDivisor, ambient_n, zariski_decompose

DIGEST_SEED = 12
DIGEST_CASES = 10_000
PINNED_DIGEST = "63c7d82db0a00393339459c3af9bacb3b9e6c67cb6cfe6c2847d61bc33abe80c"


def _case(rng: random.Random):
    m = rng.randint(1, 12)
    if m % 2 == 0 and rng.random() < 0.5:
        half = [rng.randint(-9, 6) for _ in range(m // 2)]
        config = CycleConfig.real(half, n=ambient_n(CycleConfig.plain(half + half)))
    else:
        config = CycleConfig.plain(rng.randint(-9, 6) for _ in range(m))
    kind = rng.random()
    if kind < 0.4:
        return config, None
    coeffs = [
        0 if rng.random() < 0.3 else Fraction(rng.randint(0, 12), rng.randint(1, 6))
        for _ in range(m)
    ]
    if kind < 0.43:
        coeffs.append(Fraction(1))
    elif kind < 0.46:
        coeffs[rng.randrange(m)] = Fraction(-rng.randint(1, 6), rng.randint(1, 3))
    return config, (QDivisor.of(coeffs) if rng.random() < 0.5 else coeffs)


def decomposition_digest(seed: int = DIGEST_SEED, count: int = DIGEST_CASES) -> str:
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(count):
        config, divisor = _case(rng)
        try:
            line = repr(zariski_decompose(config, divisor))
        except Exception as exc:  # the digest records what is raised, too
            line = f"{type(exc).__name__}: {exc}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    digest = decomposition_digest()
    print(digest)
    if digest != PINNED_DIGEST:
        print(f"decomposition digest changed: want {PINNED_DIGEST}", file=sys.stderr)
        sys.exit(1)
