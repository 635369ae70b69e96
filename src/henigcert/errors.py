"""Structured errors shared across the package."""


class HenigcertError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HenigcertError, ValueError):
    """Array shapes do not line up with the declared dimensions."""


class NumericalFailure(HenigcertError):
    """The LP core exceeded its pivot budget or broke a solve invariant.

    From the simplex itself the message names the run (phase 1, phase 2 or
    dual simplex), the pivots it used against its budget and the tableau
    shape."""


class ConjugateUnsupported(HenigcertError):
    """Conjugate requested for a function without an exact LP representation."""


class PointOutsideDomain(HenigcertError):
    """Membership query at a point outside the function domain / set."""


class UnsupportedDomain(HenigcertError):
    """Operation requires a full-space domain but the function restricts it."""


class BRSearchFailed(HenigcertError):
    """No nearby exact-subgradient pair satisfying the distance bounds was found."""


class DenominatorNearZero(HenigcertError):
    """|g_i(x)| fell below the division safety tolerance."""


class HorizonTooShort(HenigcertError):
    """Certificate horizon N is too short for the convergence rule."""


class UnsupportedData(HenigcertError):
    """Problem data is outside what this operation can handle exactly."""


class SchemaError(HenigcertError, ValueError):
    """JSON input does not match the documented schema."""


class EmptyPolyhedron(HenigcertError, ValueError):
    """Polyhedron constructed with no feasible point."""


class EmptyEffectiveGrid(HenigcertError):
    """Grid oracle found no lattice point inside the function domain."""
