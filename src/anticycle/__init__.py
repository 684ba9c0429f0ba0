"""Exact Zariski decompositions of anti-canonical cycles and the algebraic
dimension of the twistor pencils they bound."""

from .cycles import (
    CertificationError,
    CycleConfig,
    OracleError,
    QDivisor,
    ZariskiDecomposition,
    ambient_n,
    anticanonical,
    classify_kodaira,
    intersection_matrix,
    riemann_roch_chi,
    validate,
    zariski_decompose,
    zariski_oracle,
)
from .birational import (
    SurgeryInputError,
    SurgeryResult,
    blow_down,
    blow_up_node,
    blow_up_smooth,
    contract_to_nef_model,
)
from .pic0 import (
    FamilyProfile,
    PicZeroElement,
    PicZeroFamily,
    family_profile,
    order,
    power,
)
from .qform import DefinitenessReport, SymMatrix, definiteness, solve_linear
from .twistor import (
    AdimReport,
    Derivation,
    EllipticBase,
    FiberDescriptor,
    InvariantViolation,
    ResolvedModel,
    TwistorPencil,
    algebraic_dimension,
    build_resolved_model,
    m_class_intersections,
    normalize_rotation,
    prove_E_fixed,
    reducible_fibers,
    validate_pencil,
)

__version__ = "0.1.0"
