"""Ordering cones: the dilating family K_eps and polyhedral cones Y+.

K_eps is the conic hull of {e_i + eps*e}.  Its generator matrix I + eps*E
(E all-ones) is invertible with a rank-one inverse update, so membership
has a closed form: v is in K_eps iff v_i >= eps*sum(v)/(1 + eps*m) for
every i.  Polar membership reduces to the finite generator test
<v, e_i + eps*e> >= 0.  Both avoid an LP per query; the grid oracle uses
the polar test as max(v) + eps*sum(v) <= tol, one max and sum per row.

Polar cones follow the sign convention <z*, z> >= 0 for all z in the cone
(the dual cone), matching the feasibility test h(x) in -Y+.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, GeneratorFormRequired
from .linprog import LinearProgram, lp_solve

TOL_CONE = 1e-9


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

    def _check(self, v) -> np.ndarray:
        v = np.asarray(v, float).reshape(-1)
        if v.shape[0] != self.m:
            raise DimensionMismatch("vector dimension does not match cone")
        return v


def k_eps_contains(K: HenigCone, v, tol: float = TOL_CONE) -> bool:
    """v in K_eps: the unique generator weights alpha = v - (eps*sum(v)/(1+eps*m))*e
    must all be nonnegative."""
    v = K._check(v)
    shift = K.eps * v.sum() / (1.0 + K.eps * K.m)
    return bool((v - shift).min() >= -tol)


def k_eps_polar_contains(K: HenigCone, v, tol: float = TOL_CONE) -> bool:
    """v in K_eps*: <v, e_i + eps*e> = v_i + eps*sum(v) >= 0 for all i."""
    v = K._check(v)
    return bool((v + K.eps * v.sum()).min() >= -tol)


def in_minus_k_eps_polar(K: HenigCone, v, tol: float = TOL_CONE) -> bool:
    """v in -K_eps*, the ordering test of the efficiency oracle."""
    v = K._check(v)
    return bool((v + K.eps * v.sum()).max() <= tol)


def in_minus_k_eps_polar_batch(K: HenigCone, V, tol: float = TOL_CONE) -> np.ndarray:
    """Row-wise -K_eps* membership for an (N, m) stack of vectors."""
    V = np.asarray(V, float)
    if V.ndim != 2 or V.shape[1] != K.m:
        raise DimensionMismatch("batch shape does not match cone")
    return (V + K.eps * V.sum(axis=1, keepdims=True) <= tol).all(axis=1)


class PolyhedralCone:
    """Closed convex cone in R^p: conic hull of generators, rows of H with
    H y >= 0, or both.  ``canonical`` records which form defines the cone
    when both are stored (they must then describe the same set; the
    nonneg orthant constructor fills both)."""

    def __init__(self, generators=None, H=None, canonical: Optional[str] = None):
        if generators is None and H is None:
            raise DimensionMismatch("cone needs generators or an inequality form")
        self.G = None if generators is None else np.atleast_2d(np.asarray(generators, float))
        self.H = None if H is None else np.atleast_2d(np.asarray(H, float))
        if self.G is not None and not np.abs(self.G).max(initial=0.0) > 0:
            raise ValueError("cone needs at least one nonzero generator")
        if self.H is not None and self.H.shape[0] == 0:
            raise ValueError("inequality form needs at least one row")
        if self.G is not None and self.H is not None and self.G.shape[1] != self.H.shape[1]:
            raise DimensionMismatch("generator and inequality dimensions differ")
        if canonical is None:
            canonical = "generators" if self.G is not None else "inequality"
        if canonical not in ("generators", "inequality"):
            raise ValueError("canonical must be 'generators' or 'inequality'")
        self.canonical = canonical

    @property
    def p(self) -> int:
        return (self.G if self.G is not None else self.H).shape[1]

    @classmethod
    def nonneg_orthant(cls, p: int) -> "PolyhedralCone":
        eye = np.eye(p)
        return cls(generators=eye, H=eye, canonical="inequality")

    def _check(self, y) -> np.ndarray:
        y = np.asarray(y, float).reshape(-1)
        if y.shape[0] != self.p:
            raise DimensionMismatch("vector dimension does not match cone")
        return y


def cone_polar_contains(Y: PolyhedralCone, ystar, tol: float = TOL_CONE) -> bool:
    """ystar in Y*: <ystar, g> >= 0 for every generator g."""
    ystar = Y._check(ystar)
    if Y.G is None:
        raise GeneratorFormRequired(
            "polar membership needs the generator form of the cone"
        )
    return bool((Y.G @ ystar).min() >= -tol)


def in_minus_cone(Y: PolyhedralCone, y, tol: float = TOL_CONE) -> bool:
    """y in -Y: inequality test H(-y) >= 0 when available, else a feasibility
    LP over the generators."""
    y = Y._check(y)
    if Y.H is not None:
        return bool((Y.H @ (-y)).min() >= -tol)
    k = Y.G.shape[0]
    out = lp_solve(
        LinearProgram(c=np.zeros(k), A_eq=Y.G.T, b_eq=-y, lb=np.zeros(k))
    )
    return out.is_optimal


def in_minus_cone_batch(Y: PolyhedralCone, V, tol: float = TOL_CONE) -> np.ndarray:
    """Row-wise -Y membership for an (N, p) stack; the inequality rows'
    values are formed (rows, N), samples last, and reduced over rows."""
    V = np.asarray(V, float)
    if V.ndim != 2 or V.shape[1] != Y.p:
        raise DimensionMismatch("batch shape does not match cone")
    if Y.H is not None:
        return (Y.H @ V.T <= tol).all(axis=0)
    return np.array([in_minus_cone(Y, row, tol) for row in V])
