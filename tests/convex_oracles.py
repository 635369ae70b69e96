"""Test-only oracles for the convex-analysis layer: the lattice lower
bound for conjugates, the LP description of the eps-subdifferential of
a full-domain max-affine function, and a weighted sum of max-affine
functions written out as the cross product of their pieces.  The tests
compare the package's exact conjugate, membership and nearby-pair LPs
against them.  Not collected by pytest (no ``test_`` prefix).
"""

from dataclasses import dataclass

import numpy as np

from henigcert.convex import (
    TOL_MEMBERSHIP,
    ConvexFn,
    Polyhedron,
    PolyhedralFn,
    Verdict,
    as_polyhedral,
)
from henigcert.errors import (
    ConjugateUnsupported,
    DimensionMismatch,
    EmptyEffectiveGrid,
    NumericalFailure,
    UnsupportedDomain,
)
from henigcert.grids import GridSpec
from henigcert.linprog import LinearProgram, lp_solve


@dataclass(frozen=True)
class SubdiffPolytope:
    """LP description of the eps-subdifferential of a full-domain max-affine f.

    The set is { A^T mu : mu >= 0, sum mu = 1, fval - mu @ vals <= eps },
    where vals[k] is piece k evaluated at the base point.  ``interval``
    projects the set onto a direction (two LPs); ``contains`` solves the
    membership LP directly.
    """

    A: np.ndarray       # (K, n) piece gradients
    vals: np.ndarray    # (K,) piece values at the base point
    fval: float
    eps: float

    @property
    def npieces(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _constraints(self):
        K = self.npieces
        A_ub = np.zeros((1, K))
        A_ub[0] = -self.vals
        b_ub = np.array([self.eps - self.fval])
        A_eq = np.ones((1, K))
        b_eq = np.array([1.0])
        return A_ub, b_ub, A_eq, b_eq

    def interval(self, direction) -> tuple:
        direction = np.asarray(direction, float).reshape(-1)
        A_ub, b_ub, A_eq, b_eq = self._constraints()
        K = self.npieces
        proj = self.A @ direction
        rows = dict(A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, nonneg=np.ones(K, dtype=bool))
        hi = lp_solve(LinearProgram(c=proj, **rows))
        lo = lp_solve(LinearProgram(c=-proj, **rows))
        if not (hi.is_optimal and lo.is_optimal):
            raise NumericalFailure("projection LP failed")
        return (-lo.value, hi.value)

    def contains(self, xstar, tol: float = TOL_MEMBERSHIP) -> Verdict:
        xstar = np.asarray(xstar, float).reshape(-1)
        K = self.npieces
        n = self.dim
        # feasibility with an l_inf elastic: minimize t s.t. |A^T mu - x*| <= t
        nv = K + 1
        A_ub, b_ub, A_eq, b_eq = self._constraints()
        A_ub = np.hstack([A_ub, np.zeros((A_ub.shape[0], 1))])
        blocks = []
        rhs = []
        for sign in (1.0, -1.0):
            blk = np.zeros((n, nv))
            blk[:, :K] = sign * self.A.T
            blk[:, -1] = -1.0
            blocks.append(blk)
            rhs.append(sign * xstar)
        A_ub = np.vstack([A_ub] + blocks)
        b_ub = np.concatenate([b_ub] + rhs)
        A_eq = np.hstack([A_eq, np.zeros((1, 1))])
        out = lp_solve(
            LinearProgram(c=-np.eye(nv)[-1], A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                          nonneg=np.ones(nv, dtype=bool))
        )
        if not out.is_optimal:
            raise NumericalFailure("membership LP failed")
        dist = -out.value
        return Verdict(bool(dist <= tol), float(-dist))


def eps_subdiff_polytope(fn: ConvexFn, xbar, eps: float) -> SubdiffPolytope:
    """Exact polytope description of the eps-subdifferential at x̄.

    Requires a full-space domain (UnsupportedDomain otherwise); zero-scaled
    functions yield the singleton {0} via the single zero piece.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    xbar = np.asarray(xbar, float).reshape(-1)
    poly = as_polyhedral(fn)
    if poly is None:
        raise ConjugateUnsupported("eps_subdiff_polytope needs a polyhedral function")
    if not poly.domain.is_full_space():
        raise UnsupportedDomain(
            "eps_subdiff_polytope supports full-space domains only"
        )
    vals = poly.piece_values(xbar)
    return SubdiffPolytope(A=poly.A.copy(), vals=vals, fval=float(vals.max()), eps=float(eps))


def brute_conjugate(fn: ConvexFn, xstar, grid: GridSpec) -> float:
    """Grid lower bound for f*(x*): max over lattice points of <x*,x> - f(x).

    This is an oracle for tests, not an exact conjugate: it underestimates
    whenever the supremum lies off the lattice (or escapes the grid box).
    """
    xstar = np.asarray(xstar, float).reshape(-1)
    if xstar.shape[0] != fn.dim:
        raise DimensionMismatch("functional dimension does not match function")
    X = grid.points()
    vals = fn.eval_batch(X)
    finite = np.isfinite(vals)
    if not finite.any():
        raise EmptyEffectiveGrid("no lattice point lies in the function domain")
    scores = X[finite] @ xstar - vals[finite]
    return float(scores.max())


def weighted_sum_polyhedral(weights, fns) -> PolyhedralFn:
    """sum_j w_j f_j (w_j >= 0, f_j max-affine) as one PolyhedralFn whose
    pieces are the cross products of the component pieces, on the
    intersection of their domains; the package encodes such a sum
    separably instead.  Zero-weight components drop out entirely (the
    ScaledFn(0, .) convention)."""
    weights = np.asarray(weights, float).reshape(-1)
    if len(fns) == 0:
        raise DimensionMismatch("weighted sum needs at least one function")
    if len(fns) != weights.shape[0]:
        raise DimensionMismatch("weights do not match function count")
    if (weights < 0).any():
        raise ValueError("weighted sum expects nonnegative weights")
    active = [(w, as_polyhedral(f)) for w, f in zip(weights, fns) if w > 0]
    if any(p is None for _, p in active):
        raise ConjugateUnsupported("weighted sum needs polyhedral components")
    dim = fns[0].dim
    A, b = np.zeros((1, dim)), np.zeros(1)
    domain = Polyhedron.full_space(dim)
    for w, p in active:
        A = (A[:, None, :] + w * p.A[None, :, :]).reshape(-1, dim)
        b = (b[:, None] + w * p.b[None, :]).reshape(-1)
        if not p.domain.is_full_space():
            domain = domain.intersect(p.domain)
    return PolyhedralFn(A, b, domain)
