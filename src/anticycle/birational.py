"""Elementary birational surgeries on cycle configurations.

Blowing up a node inserts a (-1)-component between its two branches,
blowing up a smooth point drops one self-intersection by one, and blowing
down removes a (-1)-component while raising its neighbours.  On real
configurations every surgery operates on conjugate pairs of points so the
real structure survives; passing ``drop_reality=True`` performs the single
surgery instead and forgets the real structure (surface-only experiments).

Node blow-ups transport the coefficient list of the nef part: when the
input has P != 0 and P^2 = 0, the inserted component receives l_i + l_j
from its two neighbours, and the transported list equals the recomputed
m0*P of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import CycleConfig, zariski_decompose

__all__ = [
    "SurgeryInputError",
    "SurgeryStep",
    "SurgeryResult",
    "blow_up_node",
    "blow_up_smooth",
    "blow_down",
    "contract_to_nef_model",
]


class SurgeryInputError(ValueError):
    """A surgery was requested on a point or component it cannot apply to."""


@dataclass(frozen=True)
class SurgeryStep:
    """One recorded surgery: what was done, and at which 0-based index."""

    kind: str
    index: int


@dataclass(frozen=True)
class SurgeryResult:
    """Outcome of a surgery call.

    ``transported_l`` is only set by node blow-ups on inputs with P != 0,
    P^2 = 0; ``inserted`` gives the indices of the new components in the
    result's labeling (useful for round-trips).
    """

    config: CycleConfig
    steps: tuple[SurgeryStep, ...]
    transported_l: tuple[int, ...] | None = None
    inserted: tuple[int, ...] = ()


def _blow_up_one_node(selfs: list[int], l: list[int] | None, node: int) -> None:
    """Insert a (-1)-component at the node after component ``node``, in place."""
    m = len(selfs)
    if m == 1:
        selfs[:] = [selfs[0] - 4, -1]
        if l is not None:
            l[:] = [l[0], 2 * l[0]]
        return
    j = (node + 1) % m
    selfs[node] -= 1
    selfs[j] -= 1
    selfs.insert(node + 1, -1)
    if l is not None:
        l.insert(node + 1, l[node] + l[j])


def blow_up_node(
    config: CycleConfig, node: int, *, drop_reality: bool = False
) -> SurgeryResult:
    """Blow up the node between components ``node`` and ``node + 1``.

    A real configuration gets the conjugate node blown up simultaneously
    (cycle grows by two, n by one) unless reality is dropped.  For m = 1
    the single node joins the component to itself: the strict transform
    loses 4 (the node is a double point) and the result is a 2-cycle.
    """
    m = config.m
    if not 0 <= node < m:
        raise SurgeryInputError(f"node index {node} out of range for m={m}")
    z = zariski_decompose(config)
    # the coefficient list m0*P to transport, when P != 0 and P^2 = 0
    l_out = list(z.l) if z.l is not None and z.d == 0 else None
    real = config.is_real and not drop_reality
    nodes = sorted({node, config.conjugate_index(node)}) if real else [node]
    selfs = list(config.self_ints)
    # the higher node first, so the lower node keeps its index
    for nd in reversed(nodes):
        _blow_up_one_node(selfs, l_out, nd)
    inserted = tuple(nd + 1 + t for t, nd in enumerate(nodes))
    if real:
        new_n = config.n + 1 if config.n is not None else None
        result = CycleConfig(tuple(selfs), real_k=config.real_k + 1, n=new_n)
    else:
        result = CycleConfig(tuple(selfs))
    step = SurgeryStep("blow_up_node", node)
    transported = tuple(l_out) if l_out is not None else None
    return SurgeryResult(result, (step,), transported, inserted)


def blow_up_smooth(
    config: CycleConfig, component: int, *, drop_reality: bool = False
) -> SurgeryResult:
    """Blow up a smooth point of the given component (conjugate pair if real)."""
    m = config.m
    if not 0 <= component < m:
        raise SurgeryInputError(f"component index {component} out of range for m={m}")
    real = config.is_real and not drop_reality
    points = sorted({component, config.conjugate_index(component)}) if real else [component]
    selfs = list(config.self_ints)
    for c in points:
        selfs[c] -= 1
    if real:
        new_n = config.n + 1 if config.n is not None else None
        result = CycleConfig(tuple(selfs), real_k=config.real_k, n=new_n)
    else:
        result = CycleConfig(tuple(selfs))
    return SurgeryResult(result, (SurgeryStep("blow_up_smooth", component),))


def _contract_once(selfs: list[int], component: int) -> list[int]:
    m = len(selfs)
    if selfs[component] != -1:
        raise SurgeryInputError(
            f"component {component} has self-intersection {selfs[component]}, not -1"
        )
    if m < 2:
        raise SurgeryInputError("cannot contract the only component")
    if m == 2:
        return [selfs[1 - component] + 4]
    out = list(selfs)
    out[(component - 1) % m] += 1
    out[(component + 1) % m] += 1
    del out[component]
    return out


def blow_down(
    config: CycleConfig, component: int, *, drop_reality: bool = False
) -> SurgeryResult:
    """Contract a (-1)-component (and its conjugate, when real).

    Neighbours gain one; for m = 2 the survivor becomes a nodal curve and
    gains four (the two intersection points with the contracted curve merge
    into the node).
    """
    m = config.m
    if not 0 <= component < m:
        raise SurgeryInputError(f"component index {component} out of range for m={m}")
    real = config.is_real and not drop_reality
    if real and config.real_k == 1:
        raise SurgeryInputError(
            "contracting a conjugate pair would empty the 2-cycle; "
            "drop reality to contract a single component"
        )
    points = sorted({component, config.conjugate_index(component)}) if real else [component]
    selfs = list(config.self_ints)
    # the higher index first, so the lower one keeps its index
    for c in reversed(points):
        selfs = _contract_once(selfs, c)
    if real:
        new_n = config.n - 1 if config.n is not None else None
        result = CycleConfig(tuple(selfs), real_k=config.real_k - 1, n=new_n)
    else:
        result = CycleConfig(tuple(selfs))
    return SurgeryResult(result, (SurgeryStep("blow_down", component),))


def contract_to_nef_model(
    config: CycleConfig,
) -> tuple[CycleConfig, tuple[SurgeryStep, ...]] | None:
    """Contract (-1)-components until the full cycle itself is nef.

    Repeatedly blows down the least-index (-1)-component while the negative
    part is non-zero.  Returns the final configuration and the recorded
    steps when a nef model is reached, and ``None`` when the nef part
    vanishes (no model exists) or the supply of (-1)-components runs out.
    """
    z = zariski_decompose(config)
    if z.p.is_zero:
        return None
    steps: list[SurgeryStep] = []
    while not z.n_part.is_zero:
        target = next(
            (i for i, s in enumerate(z.config.self_ints) if s == -1), None
        )
        if target is None:
            return None
        try:
            result = blow_down(z.config, target)
        except SurgeryInputError:
            return None
        steps.extend(result.steps)
        z = zariski_decompose(result.config)
    return z.config, tuple(steps)
