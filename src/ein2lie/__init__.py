"""Verification engine for three-dimensional Lorentzian Ein(2) Lie groups.

From Lie-algebra structure constants in a fixed pseudo-orthonormal frame
(e3 timelike) the package computes, in one `ricci` pass over the table,
the Levi-Civita connection (`ricci(sc, mode).connection`), the Ricci
tensor/operator and the rho^2 tensor with exact rational arithmetic,
decides the Ein(2) condition rho^2 + lambda1*rho + lambda2*g = 0 by
exact linear algebra, and mechanically verifies the full 30-branch
classification of the seven families G1..G7, reporting any discrepancy
as errata with a counterexample and a recomputed formula.  Every
function that decides a point or a table takes its `Mode` from the
caller; none infers one from the values.
"""

from .branches import (
    ANCHORS,
    BRANCHES,
    BRANCHES_BY_LABEL,
    DEFAULT_SEED,
    AnchorSpec,
    BranchReport,
    BranchSpec,
    ClassificationResult,
    EmptyBranch,
    ExpectedLambdas,
    classify,
    sample_branch,
    sample_off_branch,
    sample_valid_points,
    verify_anchor,
    verify_branch,
)
from .ein2 import (
    CONVENTIONS,
    DELTA,
    METRIC,
    Ein2Solution,
    is_ein2,
    match_printed_system,
    solve,
)
from .geometry import RicciData, ricci
from .liealg import (
    EPS,
    FAMILIES,
    AntisymmetryViolation,
    ConstraintViolation,
    FamilyParams,
    LieAlgebraError,
    NotLieAlgebra,
    StructureConstants,
    UnknownFamily,
    build_family,
    from_raw,
    jacobi_ok,
    unimodular,
    validate_params,
)
from .scalars import DEFAULT_TOLERANCE, Mode, Scalar, as_scalar, format_scalar, parse_scalar
from .verify import SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ANCHORS",
    "BRANCHES",
    "BRANCHES_BY_LABEL",
    "CONVENTIONS",
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCE",
    "DELTA",
    "EPS",
    "FAMILIES",
    "METRIC",
    "AnchorSpec",
    "AntisymmetryViolation",
    "BranchReport",
    "BranchSpec",
    "ClassificationResult",
    "ConstraintViolation",
    "Ein2Solution",
    "EmptyBranch",
    "ExpectedLambdas",
    "FamilyParams",
    "LieAlgebraError",
    "Mode",
    "NotLieAlgebra",
    "RicciData",
    "Scalar",
    "StructureConstants",
    "SuiteReport",
    "UnknownFamily",
    "as_scalar",
    "build_family",
    "classify",
    "format_scalar",
    "from_raw",
    "is_ein2",
    "jacobi_ok",
    "match_printed_system",
    "parse_scalar",
    "ricci",
    "run_suite",
    "sample_branch",
    "sample_off_branch",
    "sample_valid_points",
    "solve",
    "unimodular",
    "validate_params",
    "verify_anchor",
    "verify_branch",
]
