"""Derivative-free descent over manifolds cut out by triangular polynomial systems."""

from .polynomials import (
    ConstantPolynomialError,
    InvalidExponentError,
    Monomial,
    ParseError,
    Polynomial,
    UnknownVariableError,
    VariableOrder,
    parse_polynomial,
)
from .triangular import (
    AUTO,
    ConstantMemberError,
    DuplicateMainVariableError,
    EmptyReducedSystemError,
    LinearTriangularForm,
    NotEliminableError,
    RankDeficientError,
    TriangularSystem,
    WhitneyPartition,
    linear_whitney,
    validate_triangular,
    whitney_partition,
)
from .geometry import (
    AmbiguousRootError,
    LiftError,
    NoRealRootError,
    NotRegularError,
    ProjectionConfig,
    PulledBackObjective,
    TangentFrame,
    jacobian,
    lift,
    project_to_manifold,
    residuals,
    tangent_frame,
)
from .geodesics import DivergedError, GeodesicState, christoffel, geodesic_integrate
from .descent import (
    DescentConfig,
    DescentProblem,
    DescentTrace,
    InvalidStartError,
    TraceRecord,
    check_convergence,
    descend,
    random_unit_direction,
)

__version__ = "0.1.0"
