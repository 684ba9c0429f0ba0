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

from .cycles import CycleConfig, cycle_dots, zariski_decompose

class SurgeryInputError(ValueError):
    """A surgery was requested on a point or component it cannot apply to."""


@dataclass(frozen=True)
class SurgeryResult:
    """The cycle a surgery produced, with what the surgery carried over.

    ``transported_l`` is only set by node blow-ups on inputs with P != 0,
    P^2 = 0; ``inserted`` gives the indices of the new components in the
    result's labeling (useful for round-trips).
    """

    config: CycleConfig
    transported_l: tuple[int, ...] | None = None
    inserted: tuple[int, ...] = ()


def _targets(
    config: CycleConfig, index: int, drop_reality: bool, what: str
) -> tuple[bool, list[int]]:
    """Whether the surgery keeps reality, and the sorted indices it acts on:
    ``index`` and its conjugate on a real cycle, ``index`` alone otherwise.

    ``index`` is 0-based; messages number nodes and components 1-based, as
    :func:`cycles.validate` and the command line do."""
    m = config.m
    if not 0 <= index < m:
        raise SurgeryInputError(f"{what} {index + 1} out of range for m = {m}")
    real = config.is_real and not drop_reality
    return real, sorted({index, config.conjugate_index(index)}) if real else [index]


def _rebuilt(
    config: CycleConfig, selfs: list[int], real: bool, dk: int, dn: int
) -> CycleConfig:
    """The surgery's result: a real cycle with k and n shifted by dk and dn,
    or a plain cycle."""
    if not real:
        return CycleConfig(tuple(selfs))
    n = config.n + dn if config.n is not None else None
    return CycleConfig(tuple(selfs), real_k=config.real_k + dk, n=n)


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
    real, nodes = _targets(config, node, drop_reality, "node")
    z = zariski_decompose(config)
    # the coefficient list m0*P to transport, when P != 0 and P^2 = 0
    l_out = list(z.l) if z.l is not None and z.d == 0 else None
    selfs = list(config.self_ints)
    # the higher node first, so the lower node keeps its index
    for nd in reversed(nodes):
        _blow_up_one_node(selfs, l_out, nd)
    inserted = tuple(nd + 1 + t for t, nd in enumerate(nodes))
    transported = tuple(l_out) if l_out is not None else None
    return SurgeryResult(_rebuilt(config, selfs, real, 1, 1), transported, inserted)


def blow_up_smooth(
    config: CycleConfig, component: int, *, drop_reality: bool = False
) -> SurgeryResult:
    """Blow up a smooth point of the given component (conjugate pair if real)."""
    real, points = _targets(config, component, drop_reality, "component")
    selfs = list(config.self_ints)
    for c in points:
        selfs[c] -= 1
    return SurgeryResult(_rebuilt(config, selfs, real, 0, 1))


def _contract_once(selfs: list[int], component: int) -> list[int]:
    m = len(selfs)
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
    into the node).  The requested component is checked before its
    conjugate, and a message names the failing one 1-based.
    """
    real, points = _targets(config, component, drop_reality, "component")
    if real and config.real_k == 1:
        raise SurgeryInputError(
            "contracting a conjugate pair would empty the 2-cycle; "
            "drop reality to contract a single component"
        )
    selfs = list(config.self_ints)
    # the requested component first, then its conjugate
    for c in sorted(points, key=lambda i: i != component):
        if selfs[c] != -1:
            raise SurgeryInputError(
                f"component {c + 1} has self-intersection {selfs[c]}, not -1"
            )
    # the higher index first, so the lower one keeps its index
    for c in reversed(points):
        selfs = _contract_once(selfs, c)
    return SurgeryResult(_rebuilt(config, selfs, real, -1, -1))


def contract_to_nef_model(
    config: CycleConfig,
) -> tuple[CycleConfig, tuple[int, ...]] | None:
    """Contract (-1)-components until the full cycle itself is nef.

    Decomposes once, for the P = 0 test, then blows down the least-index
    (-1)-component while some C.C_i < 0 (N = 0 iff P = C is nef).  Returns
    the final configuration and the 0-based components blown down, in
    order; ``None`` when P = 0 or the supply of (-1)-components runs out.
    """
    if zariski_decompose(config).p.is_zero:
        return None
    steps: list[int] = []
    while min(cycle_dots(config)) < 0:
        target = next((i for i, s in enumerate(config.self_ints) if s == -1), None)
        if target is None:
            return None
        try:
            config = blow_down(config, target).config
        except SurgeryInputError:
            return None
        steps.append(target)
    return config, tuple(steps)
