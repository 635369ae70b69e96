"""Ordering cones: the dilating family K_eps and polyhedral cones Y+.

K_eps is the conic hull of {e_i + eps*e}.  Its generator matrix I + eps*E
(E all-ones) is invertible with a rank-one inverse update, so membership
has a closed form: v is in K_eps iff v_i >= eps*sum(v)/(1 + eps*m) for
every i.  Polar membership reduces to the finite generator test
<v, e_i + eps*e> >= 0.  Both avoid an LP per query.  The package needs
only the ordering test v in -K_eps*, row-wise here and fused into the
grid oracle as max(v) + eps*sum(v) <= tol, one max and sum per row; the
scalar membership tests are test oracles (tests/cone_oracles.py).

Polar cones follow the sign convention <z*, z> >= 0 for all z in the cone
(the dual cone), matching the feasibility test h(x) in -Y+.

A polyhedral Y+ has generators G and inequalities H y >= 0.  The rows of
H generate Y+* and the rows of G cut it out, so one ray enumeration,
``_rays``, turns either form into the other (Minkowski-Weyl).
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch
from .tolerances import TOL_CONE


@dataclass(frozen=True)
class HenigCone:
    """Dilating cone K_eps = cone{e_i + eps*e : i = 1..m} in R^m."""

    m: int
    eps: float

    def __post_init__(self):
        if self.m < 2:
            raise DimensionMismatch("dilating cone needs dimension >= 2")
        if not (self.eps > 0):
            raise ValueError("eps must be positive")

    def generators(self) -> np.ndarray:
        return np.eye(self.m) + self.eps * np.ones((self.m, self.m))


def in_minus_k_eps_polar_batch(K: HenigCone, V, tol: float = TOL_CONE) -> np.ndarray:
    """Row-wise -K_eps* membership for an (N, m) stack of vectors."""
    V = np.asarray(V, float)
    if V.ndim != 2 or V.shape[1] != K.m:
        raise DimensionMismatch("batch shape does not match cone")
    return (V + K.eps * V.sum(axis=1, keepdims=True) <= tol).all(axis=1)


class PolyhedralCone:
    """Closed convex cone in R^p: the conic hull of the rows of
    ``generators`` (G), {y : H y >= 0}, or both when both describe it (as
    the orthant's do).  A given form is stored as is; the other is derived
    on first access and kept.  The cone may have lineality or be {0}."""

    def __init__(self, generators=None, H=None):
        given = {name: np.atleast_2d(np.asarray(rows, float))
                 for name, rows in (("G", generators), ("H", H)) if rows is not None}
        if not given:
            raise DimensionMismatch("cone needs generators or an inequality form")
        if not all(np.isfinite(rows).all() for rows in given.values()):
            raise ValueError("cone data contains non-finite entries")
        if "G" in given and not np.abs(given["G"]).max(initial=0.0) > 0:
            raise ValueError("cone needs at least one nonzero generator")
        vars(self).update(given)  # a cached_property reads the instance dict first
        self.p = next(iter(given.values())).shape[1]

    @cached_property
    def G(self) -> np.ndarray:
        return _rays(self.H)

    @cached_property
    def H(self) -> np.ndarray:
        return _rays(self.G)

    @classmethod
    def nonneg_orthant(cls, p: int) -> "PolyhedralCone":
        eye = np.eye(p)
        return cls(generators=eye, H=eye)


def _null_space(M, p: int) -> np.ndarray:
    """Orthonormal rows spanning {z in R^p : M z = 0}; M may have no rows."""
    _, s, Vt = np.linalg.svd(np.vstack([M, np.zeros((1, p))]))
    return Vt[int((s > TOL_CONE * s.max()).sum()):]


def _rays(A) -> np.ndarray:
    """Generators of {z : A z >= 0}, one per row (Minkowski-Weyl): a
    +-basis of the lineality space null(A), then every extreme ray, the
    line left by a (rank-1)-subset of rows and that basis, signed so that
    A z >= 0.  Rays have max |entry| 1, no duplicates, and decreasing
    lexicographic order, so the identity maps to itself.  The subset walk
    is exponential in the row count; the cones here are small."""
    A = A[np.abs(A).max(axis=1) > 0]
    A = A / np.abs(A).max(axis=1, keepdims=True)
    p = A.shape[1]
    lin = _null_space(A, p)
    rays = [lin, -lin]
    for rows in combinations(range(A.shape[0]), max(p - lin.shape[0] - 1, 0)):
        z = _null_space(np.vstack([A[list(rows)], lin]), p)
        if z.shape[0] != 1:
            continue
        z = z if (A @ z[0]).sum() >= 0 else -z
        if (A @ z[0] >= -TOL_CONE).all():
            rays.append(z)
    R = np.vstack(rays)
    R /= np.abs(R).max(axis=1, keepdims=True)
    return np.unique(np.round(R, 12) + 0.0, axis=0)[::-1]


def in_minus_cone_batch(Y: PolyhedralCone, V, tol: float = TOL_CONE) -> np.ndarray:
    """Row-wise -Y membership for an (N, p) stack; the inequality rows'
    values are formed (rows, N), samples last, and reduced over rows."""
    V = np.asarray(V, float)
    if V.ndim != 2 or V.shape[1] != Y.p:
        raise DimensionMismatch("batch shape does not match cone")
    return (Y.H @ V.T <= tol).all(axis=0)
