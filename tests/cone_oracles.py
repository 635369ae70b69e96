"""Test-only oracles for the cones: scalar membership in the dilating cone
K_eps, in its polar and in the negated polar (the closed forms of
``henigcert.cones``' docstring), in the polar of a polyhedral cone from
its generators, and in a negated polyhedral cone (one row of the
package's batch test).  The tests compare the package's batch test, the
grid oracle's verdicts and LP formulations against them.  Not collected
by pytest (no ``test_`` prefix).
"""

import numpy as np

from henigcert.cones import TOL_CONE, HenigCone, PolyhedralCone, in_minus_cone_batch
from henigcert.errors import DimensionMismatch


def _vector(K: HenigCone, v) -> np.ndarray:
    v = np.asarray(v, float).reshape(-1)
    if v.shape[0] != K.m:
        raise DimensionMismatch("vector dimension does not match cone")
    return v


def k_eps_contains(K: HenigCone, v, tol: float = TOL_CONE) -> bool:
    """v in K_eps: the unique generator weights alpha = v - (eps*sum(v)/(1+eps*m))*e
    must all be nonnegative."""
    v = _vector(K, v)
    shift = K.eps * v.sum() / (1.0 + K.eps * K.m)
    return bool((v - shift).min() >= -tol)


def k_eps_polar_contains(K: HenigCone, v, tol: float = TOL_CONE) -> bool:
    """v in K_eps*: <v, e_i + eps*e> = v_i + eps*sum(v) >= 0 for all i."""
    v = _vector(K, v)
    return bool((v + K.eps * v.sum()).min() >= -tol)


def in_minus_k_eps_polar(K: HenigCone, v, tol: float = TOL_CONE) -> bool:
    """v in -K_eps*, the ordering test of the efficiency oracle."""
    v = _vector(K, v)
    return bool((v + K.eps * v.sum()).max() <= tol)


def _cone_vector(Y: PolyhedralCone, y) -> np.ndarray:
    y = np.asarray(y, float).reshape(-1)
    if y.shape[0] != Y.p:
        raise DimensionMismatch("vector dimension does not match cone")
    return y


def cone_polar_contains(Y: PolyhedralCone, ystar, tol: float = TOL_CONE) -> bool:
    """ystar in Y*: <ystar, g> >= 0 for every generator g."""
    ystar = _cone_vector(Y, ystar)
    return bool((Y.G @ ystar).min(initial=np.inf) >= -tol)


def in_minus_cone(Y: PolyhedralCone, y, tol: float = TOL_CONE) -> bool:
    """y in -Y: ``in_minus_cone_batch`` on one row."""
    return bool(in_minus_cone_batch(Y, _cone_vector(Y, y)[None], tol)[0])
