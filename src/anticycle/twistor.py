"""Twistor pencils over real cycles and their algebraic dimension.

A pencil here is the anti-canonical pencil on a Moishezon twistor space
over the connected sum of n projective planes.  Its base locus is either a
real cycle of rational curves or a smooth elliptic curve, and every
reducible member splits into two halves glued along a twistor line.  The
module builds the small-resolution model of the pencil near a chosen
reducible member, computes intersection numbers of the half-anti-canonical
twists against the model's curves in exact arithmetic, and runs the
resulting machine-checked derivations to a verdict on the algebraic
dimension of the total space: 1, 2, 3, or "inconsistent" when two sound
derivations collide (no such pencil exists).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import (
    KODAIRA_ONE,
    KODAIRA_TWO,
    KODAIRA_ZERO,
    CycleConfig,
    QDivisor,
    ZariskiDecomposition,
    validate,
    zariski_decompose,
)
from .pic0 import (
    CONSTANT_FINITE,
    CONSTANT_INFINITE,
    PicZeroElement,
    PicZeroFamily,
    family_profile,
    order,
)

VERDICT_A1 = "a1"
VERDICT_A2 = "a2"
VERDICT_A3 = "a3"
VERDICT_INCONSISTENT = "inconsistent"

#: The generic member's anti-Kodaira class behind each verdict: a = 1 + kappa,
#: and an inconsistent pencil's members are elliptically fibered (kappa = 1).
_KODAIRA_OF_VERDICT = {
    VERDICT_A1: KODAIRA_ZERO,
    VERDICT_A2: KODAIRA_ONE,
    VERDICT_A3: KODAIRA_TWO,
    VERDICT_INCONSISTENT: KODAIRA_ONE,
}


class InvariantViolation(Exception):
    """An internally certified invariant failed; inputs are inconsistent."""


@dataclass(frozen=True)
class EllipticBase:
    """Smooth elliptic base locus, carrying the normal bundle of the curve."""

    normal_bundle: PicZeroElement


@dataclass(frozen=True)
class TwistorPencil:
    """An anti-canonical pencil: ambient n, base locus, restriction family.

    ``resolution`` picks a small resolution at each of the k double points
    of the reducible members (one bit per node; bit 0 follows the
    convention that the exceptional curve over node i lands in the fiber of
    the (i+1)-st vertical divisor).
    """

    n: int
    base: CycleConfig | EllipticBase
    family: PicZeroFamily
    resolution: tuple[int, ...] | None = None

    @property
    def cycle(self) -> CycleConfig | None:
        return self.base if isinstance(self.base, CycleConfig) else None


@dataclass(frozen=True)
class FiberDescriptor:
    """One reducible member: two halves glued along a twistor line."""

    index: int
    s_plus: str
    s_minus: str
    line: str
    joins: tuple[tuple[str, str], tuple[str, str]]
    half_plus: tuple[str, ...]
    half_minus: tuple[str, ...]


@dataclass(frozen=True)
class ResolvedModel:
    """The small-resolution model of the pencil over its first critical value.

    The base cycle resolves into a cycle of 2k + 2 curves: the strict
    transforms of the components together with the two exceptional curves
    of the small resolutions over the first node and its conjugate.  Every
    vertical divisor E_j restricts to an irreducible fiber except the one
    recorded in ``reducible_divisor``, whose fiber gains the exceptional
    curve.
    """

    base: CycleConfig
    l: tuple[int, ...]
    cycle_order: tuple[str, ...]
    reducible_divisor: str
    fiber_composition: tuple[tuple[str, tuple[str, ...]], ...]
    node_bit: int


@dataclass(frozen=True)
class DerivationStep:
    """One checked inference: a hypothesis, its numeric evidence, a flag."""

    step: str
    hypothesis: str
    evidence: str
    holds: bool


@dataclass(frozen=True)
class Derivation:
    """A chain of checked steps ending in a conclusion; sound iff all hold."""

    title: str
    steps: tuple[DerivationStep, ...]
    conclusion: str
    holds: bool


@dataclass(frozen=True)
class AdimReport:
    """Verdict on the algebraic dimension with its supporting data."""

    verdict: str
    justification: tuple[str, ...]
    decomposition: ZariskiDecomposition | None = None
    derivations: tuple[Derivation, ...] = ()

    @property
    def generic_kodaira(self) -> str:
        """The generic member's anti-Kodaira class, read off the verdict."""
        return _KODAIRA_OF_VERDICT[self.verdict]


def _component_name(index: int, k: int) -> str:
    """Name of cycle component ``index`` (0-based) in C_1..C_k, ~C_1..~C_k."""
    if index < k:
        return f"C{index + 1}"
    return f"~C{index - k + 1}"


def _curve(i: int, conjugate: bool = False) -> str:
    """Strict transform of component i (1-based) in the resolved fiber."""
    return f"{'~' if conjugate else ''}C_{{1,{i}}}"


def _delta(conjugate: bool = False) -> str:
    return f"{'~' if conjugate else ''}Delta_1"


def _divisor(i: int, conjugate: bool = False) -> str:
    return f"{'~' if conjugate else ''}E_{i}"


def conjugate_name(name: str) -> str:
    """The conjugation involution on model curve/divisor names."""
    return name[1:] if name.startswith("~") else "~" + name


def validate_pencil(pencil: TwistorPencil) -> list[str]:
    """Diagnostics for a pencil; empty means structurally valid."""
    issues: list[str] = []
    if pencil.n < 4:
        issues.append("twistor pencils require n >= 4")
    config = pencil.cycle
    if config is not None:
        issues.extend(validate(config))
        if not config.is_real:
            issues.append("cycle base must carry a real structure")
        elif config.n is not None and config.n != pencil.n:
            issues.append(f"pencil n={pencil.n} disagrees with base n={config.n}")
        if pencil.resolution is not None:
            k = config.real_k or 0
            if len(pencil.resolution) != k:
                issues.append(f"resolution choice must have k={k} bits")
            elif any(bit not in (0, 1) for bit in pencil.resolution):
                issues.append("resolution bits must be 0 or 1")
    else:
        if pencil.resolution is not None:
            issues.append("resolution bits are only meaningful for cycle bases")
        if not pencil.family.is_constant or pencil.family.element is None:
            issues.append("smooth elliptic base forces a constant family")
        elif (
            isinstance(pencil.base, EllipticBase)
            and pencil.family.element != pencil.base.normal_bundle
        ):
            issues.append("family element disagrees with the normal bundle")
    return issues


def _raise_if_invalid(pencil: TwistorPencil) -> None:
    issues = validate_pencil(pencil)
    if issues:
        raise ValueError("\n".join(issues))


def base_decomposition(pencil: TwistorPencil) -> ZariskiDecomposition:
    """Zariski decomposition of the pencil's base cycle."""
    config = pencil.cycle
    if config is None:
        raise ValueError("operation requires a cycle base")
    return zariski_decompose(config)


def reducible_fibers(pencil: TwistorPencil) -> tuple[FiberDescriptor, ...]:
    """Descriptors of the k reducible members; empty for an elliptic base.

    Descriptor i covers the member over the i-th critical value: the cycle
    splits at the node C_i * C_{i+1} and its conjugate into two halves of k
    components each, glued along the twistor line L_i through those two
    points.  The plus half is the one avoiding C_i.
    """
    config = pencil.cycle
    if config is None:
        return ()
    k = config.real_k
    if k is None:
        raise InvariantViolation("reducible fibers require a real cycle base")
    m = config.m
    descriptors = []
    for i in range(1, k + 1):
        node = i - 1
        half_plus = tuple(
            _component_name((node + 1 + t) % m, k) for t in range(k)
        )
        half_minus = tuple(
            _component_name((node + 1 + k + t) % m, k) for t in range(k)
        )
        joins = (
            (_component_name(node, k), _component_name((node + 1) % m, k)),
            (
                _component_name((node + k) % m, k),
                _component_name((node + k + 1) % m, k),
            ),
        )
        descriptors.append(
            FiberDescriptor(
                index=i,
                s_plus=f"S{i}+",
                s_minus=f"S{i}-",
                line=f"L{i}",
                joins=joins,
                half_plus=half_plus,
                half_minus=half_minus,
            )
        )
    return tuple(descriptors)


def normalize_rotation(
    pencil: TwistorPencil, z: ZariskiDecomposition
) -> tuple[TwistorPencil, ZariskiDecomposition]:
    """Cyclically relabel the base so that l_1 > l_2.

    ``z`` is the Zariski decomposition of the pencil's base cycle.  Requires
    a real cycle base with P != 0, P^2 = 0 and K^2 < 0: then the
    coefficient list of m0*P is non-constant, so some rotation puts a
    strict descent at the front.  The rotation respects reality (both
    halves rotate together) and permutes the resolution bits accordingly.
    Returns the rotated pencil and the rotated base's decomposition, which
    by uniqueness is ``z`` rotated alike.
    """
    config = z.config
    k = config.real_k
    if k is None:
        raise InvariantViolation("normalization requires a real cycle base")
    if z.l is None or z.d != 0:
        raise InvariantViolation("normalization requires P != 0 with P^2 = 0")
    l = z.l
    shift = next((t for t in range(k) if l[t] > l[(t + 1) % config.m]), None)
    if shift is None:
        raise InvariantViolation(
            "all nef coefficients are equal (K^2 = 0); no rotation can "
            "arrange l1 > l2"
        )
    if shift == 0:
        return pencil, z
    rotated = CycleConfig(_rotated(config.self_ints, shift), real_k=k, n=config.n)
    resolution = pencil.resolution
    if resolution is not None:
        resolution = _rotated(resolution, shift)
    divisor, p, n_part = (
        QDivisor(_rotated(q.coeffs, shift)) for q in (z.divisor, z.p, z.n_part)
    )
    rotated_z = ZariskiDecomposition(
        rotated, divisor, p, n_part, z.m0, _rotated(l, shift), z.d
    )
    return TwistorPencil(pencil.n, rotated, pencil.family, resolution), rotated_z


def _rotated(values: tuple, shift: int) -> tuple:
    """``values`` read cyclically from position ``shift``."""
    return tuple(values[(shift + t) % len(values)] for t in range(len(values)))


def build_resolved_model(pencil: TwistorPencil) -> ResolvedModel:
    """Small-resolution model over the first critical value.

    Requires k >= 2 (two distinct critical values), a normalized labeling
    (l_1 > l_2), and P != 0 with P^2 = 0.  The strict transforms and the
    two exceptional curves form a cycle of 2k + 2 curves; the node bit
    decides whether the exceptional curve joins the fiber of E_2 (bit 0)
    or of E_1 (bit 1), mirrored on the conjugate side.
    """
    _raise_if_invalid(pencil)
    return _resolved_model(pencil, base_decomposition(pencil))


def normalized_model(pencil: TwistorPencil, z: ZariskiDecomposition) -> ResolvedModel:
    """The resolved model of a validated pencil, normalized; its base decomposes as z."""
    return _resolved_model(*normalize_rotation(pencil, z))


def _resolved_model(pencil: TwistorPencil, z: ZariskiDecomposition) -> ResolvedModel:
    """:func:`build_resolved_model` of a validated pencil whose base decomposes as z."""
    config = z.config
    k = config.real_k
    if k is None or k < 2:
        raise ValueError("resolved model requires a real base with k >= 2")
    if z.l is None or z.d != 0:
        raise ValueError("resolved model requires P != 0 with P^2 = 0")
    if z.l[:k] != z.l[k:]:
        raise InvariantViolation("nef coefficients are not conjugation-symmetric")
    if not z.l[0] > z.l[1]:
        raise ValueError(
            "labeling not normalized (l1 > l2 required); apply normalize_rotation"
        )
    bit = pencil.resolution[0] if pencil.resolution else 0
    cycle_order = (
        [_curve(1), _delta()]
        + [_curve(i) for i in range(2, k + 1)]
        + [_curve(1, True), _delta(True)]
        + [_curve(i, True) for i in range(2, k + 1)]
    )
    reducible = 2 if bit == 0 else 1
    fibers: list[tuple[str, tuple[str, ...]]] = []
    for conj in (False, True):
        for j in range(1, k + 1):
            if j == reducible:
                fibers.append((_divisor(j, conj), (_delta(conj), _curve(j, conj))))
            else:
                fibers.append((_divisor(j, conj), (_curve(j, conj),)))
    return ResolvedModel(
        base=config,
        l=z.l,
        cycle_order=tuple(cycle_order),
        reducible_divisor=_divisor(reducible),
        fiber_composition=tuple(fibers),
        node_bit=bit,
    )


def m_class_intersections(model: ResolvedModel, r: int, rho: int) -> dict[str, int]:
    """Intersection numbers of M(r, rho) with the 2k + 2 model curves.

    M(r, rho) pulls back degree r from the pencil base and adds rho copies
    of the half-integral nef divisor m0*P spread over the vertical
    divisors.  Fiber curves are contracted by the pencil map, so r never
    enters; each strict transform pairs through its self-intersection
    inside its half plus the one transverse neighbour, and the two
    exceptional curves balance the reducible fibers to total degree zero.
    The computed values are certified against the closed forms
    -rho*(l1 - l2) and +rho*(l1 - l2).
    """
    selfs = model.base.self_ints
    l, m = model.l, model.base.m
    values = {name: 0 for name in model.cycle_order}
    if model.node_bit == 0:
        # Exceptional curve sits in the fiber of E_2: C_{1,2} carries its
        # self-intersection inside the plus half (raised by the resolution)
        # against E_2 plus one transverse point on E_3.
        a2 = -selfs[1]
        seed = rho * (l[1] * (1 - a2) + l[2 % m])
        closed = -rho * (l[0] - l[1])
        carrier, balance = _curve(2), _delta()
    else:
        a1 = -selfs[0]
        seed = rho * (l[0] * (1 - a1) + l[m - 1])
        closed = rho * (l[0] - l[1])
        carrier, balance = _curve(1), _delta()
    if seed != closed:
        raise InvariantViolation(
            f"local intersection rule gives {seed}, closed form gives {closed}"
        )
    for conj in (False, True):
        values[conjugate_name(carrier) if conj else carrier] = seed
        values[conjugate_name(balance) if conj else balance] = -seed
    return values


def prove_E_fixed(model: ResolvedModel, r: int, rho: int) -> Derivation:
    """Checked derivation that the vertical divisor is fixed in |M(r, rho)|.

    Four steps, each with numeric evidence computed from the model: a
    curve of negative degree seeds the base locus, zero-degree curves
    propagate it around the cycle, the reducible fiber closes the cycle
    up, and the restriction isomorphism twists the system down until the
    vertical divisor is forced into every member.  The derivation holds
    exactly when rho > 0 (degrees vanish identically at rho = 0 and flip
    sign for rho < 0).
    """
    values = m_class_intersections(model, r, rho)
    seed = _curve(2) if model.node_bit == 0 else _delta()
    partner = _delta() if model.node_bit == 0 else _curve(1)
    excluded = {seed, conjugate_name(seed), partner, conjugate_name(partner)}
    chain = [name for name in model.cycle_order if name not in excluded]
    seed_value = values[seed]
    step1 = DerivationStep(
        step="seed",
        hypothesis=f"M(r, rho).{seed} < 0 (and its conjugate, by reality), "
        "so both curves lie in the base locus",
        evidence=f"M.{seed} = {seed_value}, M.{conjugate_name(seed)} = "
        f"{values[conjugate_name(seed)]}",
        holds=seed_value < 0,
    )
    step2 = DerivationStep(
        step="chain",
        hypothesis="every remaining strict transform has degree zero, so a "
        "section vanishing on a neighbour vanishes on it too and the base "
        "locus propagates along both chains",
        evidence=", ".join(f"M.{name} = {values[name]}" for name in chain),
        holds=all(values[name] == 0 for name in chain),
    )
    fiber_sums = {
        divisor: sum(values[c] for c in curves)
        for divisor, curves in model.fiber_composition
    }
    step3 = DerivationStep(
        step="fiber",
        hypothesis="each vertical fiber has total degree zero, so once one "
        "component of the reducible fiber lies in a zero divisor the other "
        "is forced in as well",
        evidence=", ".join(f"deg {d} = {s}" for d, s in sorted(fiber_sums.items())),
        holds=all(s == 0 for s in fiber_sums.values()),
    )
    forced = step1.holds and step2.holds and step3.holds
    step4 = DerivationStep(
        step="restriction",
        hypothesis="the whole resolved cycle lies in the zero divisor of "
        "every section, so sections descend through a twist by the fiber "
        "class and vanish after finitely many twists",
        evidence=(
            f"all {len(model.cycle_order)} cycle curves forced"
            if forced
            else f"not forced: M.{seed} = {seed_value} is not negative"
        ),
        holds=forced,
    )
    steps = (step1, step2, step3, step4)
    holds = all(s.holds for s in steps)
    conclusion = (
        f"the vertical divisor {rho}*m0*P is a fixed component of |M({r}, {rho})|"
        if holds
        else f"fixedness of the vertical divisor in |M({r}, {rho})| is not established"
    )
    return Derivation("fixed-component", steps, conclusion, holds)


def algebraic_dimension(pencil: TwistorPencil) -> AdimReport:
    """Decide the algebraic dimension of the twistor space over the pencil.

    Elliptic base: 1 for n > 4; at n = 4 the order of the normal bundle
    separates 2 (finite) from 1 (infinite).  Cycle base: the Zariski
    decomposition of the cycle decides — vanishing nef part gives 1, a
    positive degree gives 3, and the boundary case follows the restriction
    family, where a constant finite order at n > 4 triggers two sound but
    contradictory derivations: the verdict is "inconsistent" (no such
    pencil exists).  An invalid pencil raises ``ValueError`` with one
    line per problem.
    """
    _raise_if_invalid(pencil)
    if isinstance(pencil.base, EllipticBase):
        return _elliptic_verdict(pencil)
    z = base_decomposition(pencil)
    if z.p.is_zero:
        return AdimReport(
            verdict=VERDICT_A1,
            justification=(
                "the cycle spans a negative-definite configuration, so the "
                "nef part of every member's anti-canonical class vanishes",
                "all pluri-anti-canonical systems are zero-dimensional and "
                "only the pencil map survives: algebraic dimension 1",
            ),
            decomposition=z,
        )
    if z.d > 0:
        return AdimReport(
            verdict=VERDICT_A3,
            justification=(
                f"the nef part has positive degree d = {z.d}, so members "
                "carry big anti-canonical systems",
                "the twistor space is Moishezon of maximal algebraic "
                "dimension 3",
            ),
            decomposition=z,
        )
    profile = family_profile(pencil.family)
    if profile.kind == CONSTANT_FINITE and pencil.n == 4:
        assert profile.tau is not None
        return AdimReport(
            verdict=VERDICT_A2,
            justification=(
                f"the restriction family is constant of finite order "
                f"{profile.tau}, so every member carries an elliptic "
                "anti-canonical fibration",
                "the fibrations assemble over the pencil into an algebraic "
                "reduction of dimension 2",
            ),
            decomposition=z,
        )
    if profile.kind == CONSTANT_FINITE:
        assert profile.tau is not None
        derivation_a = _fibration_derivation(z, profile.tau)
        derivation_b = _fixed_component_derivation(pencil, z, profile.tau)
        return AdimReport(
            verdict=VERDICT_INCONSISTENT,
            justification=(
                "two sound derivations force contradictory algebraic "
                "dimensions 2 and 1",
                "no twistor pencil realizes this configuration",
            ),
            decomposition=z,
            derivations=(derivation_a, derivation_b),
        )
    reason = (
        "the restriction family is nonconstant, so the generic member has "
        "a normal bundle of infinite order"
        if profile.kind != CONSTANT_INFINITE
        else "the restriction family is constant of infinite order"
    )
    return AdimReport(
        verdict=VERDICT_A1,
        justification=(
            reason,
            "generic pluri-anti-canonical systems are zero-dimensional: "
            "algebraic dimension 1",
        ),
        decomposition=z,
    )


def _elliptic_verdict(pencil: TwistorPencil) -> AdimReport:
    base = pencil.base
    assert isinstance(base, EllipticBase)
    if pencil.n > 4:
        return AdimReport(
            verdict=VERDICT_A1,
            justification=(
                f"the smooth anti-canonical curve has self-intersection "
                f"{8 - 2 * pencil.n} < 0",
                "every pluri-anti-canonical system is a single point: "
                "algebraic dimension 1",
            ),
        )
    tau = order(base.normal_bundle)
    if tau is not None:
        return AdimReport(
            verdict=VERDICT_A2,
            justification=(
                f"the normal bundle of the elliptic base is torsion of "
                f"order {tau}",
                "members fiber elliptically and the algebraic reduction is "
                "a surface: algebraic dimension 2",
            ),
        )
    return AdimReport(
        verdict=VERDICT_A1,
        justification=(
            "the normal bundle of the elliptic base has infinite order",
            "generic pluri-anti-canonical systems are zero-dimensional: "
            "algebraic dimension 1",
        ),
    )


def _fibration_derivation(z: ZariskiDecomposition, tau: int) -> Derivation:
    assert z.m0 is not None and z.l is not None
    steps = (
        DerivationStep(
            step="torsion",
            hypothesis="the restriction family is constant of finite order",
            evidence=f"tau = {tau}",
            holds=True,
        ),
        DerivationStep(
            step="member fibration",
            hypothesis="each member has a non-zero nef part of degree zero, "
            "so tau*m0*P moves in a pencil and fibers the member elliptically",
            evidence=f"d = {z.d}, m0 = {z.m0}, l = {list(z.l)}",
            holds=(z.d == 0 and not z.p.is_zero),
        ),
        DerivationStep(
            step="assembly",
            hypothesis="fiberwise elliptic fibrations assemble: the "
            "algebraic dimension is one more than the generic member's "
            "anti-Kodaira dimension",
            evidence="a = 1 + 1 = 2",
            holds=True,
        ),
    )
    return Derivation(
        title="fibration",
        steps=steps,
        conclusion="algebraic dimension 2",
        holds=all(s.holds for s in steps),
    )


def _fixed_component_derivation(
    pencil: TwistorPencil, z: ZariskiDecomposition, tau: int
) -> Derivation:
    model = normalized_model(pencil, z)
    fixed = prove_E_fixed(model, 1, tau)
    normalize_step = DerivationStep(
        step="normalize",
        hypothesis="K^2 < 0 forces a non-constant coefficient list, so a "
        "rotation arranges l1 > l2",
        evidence=f"l = {list(model.l)} after rotation",
        holds=model.l[0] > model.l[1],
    )
    dimension_step = DerivationStep(
        step="dimension",
        hypothesis="with the vertical divisor fixed, |M(r, nu*tau)| has "
        "dimension r for every r and nu; every candidate reduction map "
        "factors through the pencil",
        evidence=f"dim |M(r, nu*{tau})| = r (moving part pulled back from "
        "the pencil base)",
        holds=fixed.holds,
    )
    steps = (normalize_step,) + fixed.steps + (dimension_step,)
    return Derivation(
        title="fixed-component",
        steps=steps,
        conclusion="algebraic dimension 1",
        holds=all(s.holds for s in steps),
    )
