"""Henig proper efficiency checks and sequential optimality certificates
for multiobjective fractional programs, built on an exact polyhedral
convex-analysis kernel."""

__version__ = "0.1.0"

from ._kernels import BACKEND  # noqa: F401
from .certificates import (  # noqa: F401
    EpiCertificate,
    EpsCertificate,
    ExactCertificate,
    KKTResult,
    VerificationReport,
    classical_kkt_check,
    converged,
    eps_to_exact,
    epi_from_eps,
    generate_eps_certificate,
    slater_check,
    verify_certificate,
    verify_eps_certificate,
    verify_epi_certificate,
    verify_exact_certificate,
)
from .cones import HenigCone, PolyhedralCone  # noqa: F401
from .convex import (  # noqa: F401
    BlackBoxFn,
    PolyhedralFn,
    Polyhedron,
    ScaledFn,
    br_regularize,
    conjugate,
    eps_normal_contains,
    eps_subdiff_contains,
    epi_conjugate_contains,
    subdiff_element,
    support_function,
    young_fenchel_gap,
)
from .errors import (  # noqa: F401
    BRSearchFailed,
    ConjugateUnsupported,
    DenominatorNearZero,
    DimensionMismatch,
    EmptyEffectiveGrid,
    EmptyPolyhedron,
    HenigcertError,
    HorizonTooShort,
    NumericalFailure,
    PointOutsideDomain,
    SchemaError,
    UnsupportedData,
    UnsupportedDomain,
)
from .fractional import (  # noqa: F401
    Candidate,
    EfficiencyVerdict,
    FractionalProblem,
    ParametricProblem,
    candidate,
    feasible,
    feasible_mask,
    henig_check,
    henig_check_bruteforce,
    henig_check_parametric,
    nu_values,
    parametric_problem,
)
from .grids import GridSpec  # noqa: F401
