"""Membership-set encodings shared by the certificate generator and the
multiplier check.

Every certificate block is a polyhedral set of functionals:

* eps-subdifferential of a full-domain max-affine F at xbar: simplex
  weights mu over the pieces with F(xbar) - mu @ piece_values <= eps,
  functional A^T mu;
* eps-normal cone of a polyhedron at xbar: conic row multipliers (eta for
  inequalities, signed zeta for equalities) with the support-duality gap
  row b@eta + d@zeta - <functional, xbar> <= eps (weak duality makes the
  encoding sound, LP strong duality makes it complete);
* polar-cone memberships: one inequality per generator;
* the weighted composition sum_j w_j h_j with the weights themselves LP
  variables: per-piece masses rho_jk >= 0 linked by sum_k rho_jk = w_j.

``BlockLP`` accumulates variables and sparse rows, then hands a dense
tableau to the simplex core.  The eps-subdifferential blocks take their
eps from the program, not from the block, so one BlockLP serves every
eps of a certificate.  Functional values are tracked as linear
expressions (column indices plus a coefficient matrix) so linking and
elastic-norm rows can be assembled without caring which block owns which
column.
"""

from dataclasses import dataclass

import numpy as np

from .convex import PolyhedralFn
from .errors import NumericalFailure, UnsupportedDomain
from .linprog import LinearProgram, lp_solve


@dataclass
class LinExpr:
    """value = M @ x[idx]; dim rows, len(idx) columns."""

    idx: np.ndarray
    M: np.ndarray

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "LinExpr":
        return cls(idx=np.zeros(0, dtype=int), M=np.zeros((dim, 0)))

    def value(self, x: np.ndarray) -> np.ndarray:
        if self.idx.size == 0:
            return np.zeros(self.dim)
        return self.M @ x[self.idx]


def expr_sum(exprs) -> LinExpr:
    exprs = [e for e in exprs if e.idx.size]
    if not exprs:
        raise ValueError("expr_sum needs at least one nonzero expression")
    return LinExpr(
        idx=np.concatenate([e.idx for e in exprs]),
        M=np.hstack([e.M for e in exprs]),
    )


class BlockLP:
    """Incremental LP, solved by maximizing a sparse objective: every
    variable is nonnegative (``add_vars``), and the rows are sparse <=
    and == rows.  A <= row added with ``plus_eps`` has right-hand side
    ``rhs + eps`` for the eps the LP is materialized with (``program``,
    ``b_ub``)."""

    def __init__(self):
        self.nv = 0
        self._ub = []
        self._eq = []

    def add_vars(self, k: int) -> np.ndarray:
        idx = np.arange(self.nv, self.nv + k)
        self.nv += k
        return idx

    def add_ub(self, idx, coef, rhs: float, plus_eps: bool = False):
        self._ub.append((np.asarray(idx, dtype=int), np.asarray(coef, float), float(rhs), plus_eps))

    def add_eq(self, idx, coef, rhs: float):
        self._eq.append((np.asarray(idx, dtype=int), np.asarray(coef, float), float(rhs)))

    def _densify(self, rows):
        A = np.zeros((len(rows), self.nv))
        for r, (idx, coef, *_) in enumerate(rows):
            np.add.at(A[r], idx, coef)
        return A

    def b_ub(self, eps=0.0) -> np.ndarray:
        """Right-hand sides of the <= rows at ``eps``; for an array of eps
        values, one row of them per value."""
        rhs = np.array([row[2] for row in self._ub])
        plus = np.array([row[3] for row in self._ub], dtype=bool)
        eps = np.asarray(eps, float)[..., None]
        return np.where(plus, rhs + eps, rhs)

    def program(self, obj_idx=None, obj_coef=None, eps: float = 0.0) -> LinearProgram:
        """The dense LinearProgram at ``eps``, maximizing the sparse objective."""
        c = np.zeros(self.nv)
        if obj_idx is not None:
            np.add.at(c, np.asarray(obj_idx, dtype=int), np.asarray(obj_coef, float))
        A_ub, b_ub = (self._densify(self._ub), self.b_ub(eps)) if self._ub else (None, None)
        A_eq, b_eq = (
            (self._densify(self._eq), np.array([rhs for *_, rhs in self._eq]))
            if self._eq else (None, None)
        )
        return LinearProgram(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                             nonneg=np.ones(self.nv, dtype=bool))

    def solve(self, obj_idx=None, obj_coef=None):
        return lp_solve(self.program(obj_idx, obj_coef))


def _pieces(poly: PolyhedralFn):
    if not poly.domain.is_full_space():
        raise UnsupportedDomain("block encodings support full-space domains only")
    return poly.A, poly.b


def add_eps_subdiff_block(lp: BlockLP, poly: PolyhedralFn, xbar) -> LinExpr:
    """Functionals in the eps-subdifferential of ``poly`` at xbar, for the
    eps of the program."""
    A, b = _pieces(poly)
    xbar = np.asarray(xbar, float).reshape(-1)
    vals = A @ xbar + b
    K = A.shape[0]
    mu = lp.add_vars(K)
    lp.add_eq(mu, np.ones(K), 1.0)
    lp.add_ub(mu, -vals, -vals.max(), plus_eps=True)
    return LinExpr(idx=mu, M=A.T.copy())


def add_eps_normal_block(lp: BlockLP, C, xbar) -> LinExpr:
    """Functionals in the normal cone of the polyhedron C at xbar, its
    eps-normal set at eps = 0: combinations of C's rows whose multipliers
    weight the rows' slack at xbar to at most 0."""
    xbar = np.asarray(xbar, float).reshape(-1)
    n = C.n
    parts = []
    gap_idx, gap_coef = [], []
    if C.A.shape[0]:
        eta = lp.add_vars(C.A.shape[0])
        parts.append(LinExpr(idx=eta, M=C.A.T.copy()))
        gap_idx.append(eta)
        gap_coef.append(C.b - C.A @ xbar)
    if C.E.shape[0]:
        zp = lp.add_vars(C.E.shape[0])
        zm = lp.add_vars(C.E.shape[0])
        parts.append(LinExpr(idx=zp, M=C.E.T.copy()))
        parts.append(LinExpr(idx=zm, M=-C.E.T.copy()))
        resid = C.d - C.E @ xbar
        gap_idx.extend([zp, zm])
        gap_coef.extend([resid, -resid])
    if not parts:
        return LinExpr.zero(n)  # full space: only the zero functional
    lp.add_ub(np.concatenate(gap_idx), np.concatenate(gap_coef), 0.0)
    return expr_sum(parts)


def add_polar_member(lp: BlockLP, G: np.ndarray, sign: float = 1.0) -> LinExpr:
    """A free vector constrained by <g, sign * v> >= 0 for every generator
    row g of G; returns v.  sign=+1 encodes v in Y*, sign=-1 encodes
    v in -Y* (that is, -v in Y*)."""
    p = G.shape[1]
    vp = lp.add_vars(p)
    vm = lp.add_vars(p)
    expr = LinExpr(idx=np.concatenate([vp, vm]), M=np.hstack([np.eye(p), -np.eye(p)]))
    for g in G:
        lp.add_ub(expr.idx, -sign * (expr.M.T @ g), 0.0)
    return expr


def add_inner_product_ub(lp: BlockLP, expr: LinExpr, vec, rhs: float, sign: float = 1.0):
    """Row sign * <expr, vec> <= rhs."""
    vec = np.asarray(vec, float).reshape(-1)
    lp.add_ub(expr.idx, sign * (expr.M.T @ vec), float(rhs))


def add_inner_product_eq(lp: BlockLP, expr: LinExpr, vec, rhs: float):
    vec = np.asarray(vec, float).reshape(-1)
    lp.add_eq(expr.idx, expr.M.T @ vec, float(rhs))


def add_composite_subdiff_block(lp: BlockLP, h_polys, xbar, weights: LinExpr) -> LinExpr:
    """Functionals in the eps-subdifferential at xbar of sum_j w_j h_j, for
    the eps of the program, where the weight vector w is itself the LP
    expression ``weights`` (componentwise nonnegative on the feasible
    set).  Per-piece masses rho_jk >= 0 satisfy sum_k rho_jk = w_j; the
    functional is sum_jk rho_jk a_jk and the conjugate bound

        sum_jk rho_jk (h_j(xbar) - b_jk - <a_jk, xbar>) <= eps

    is the support gap of the piecewise encoding.
    """
    xbar = np.asarray(xbar, float).reshape(-1)
    parts = []
    gap_idx, gap_coef = [], []
    for j, poly in enumerate(h_polys):
        A, b = _pieces(poly)
        K = A.shape[0]
        hj = float((A @ xbar + b).max())
        rho = lp.add_vars(K)
        # link sum_k rho_jk = w_j
        wrow_idx = np.concatenate([rho, weights.idx])
        wrow_coef = np.concatenate([np.ones(K), -weights.M[j]])
        lp.add_eq(wrow_idx, wrow_coef, 0.0)
        parts.append(LinExpr(idx=rho, M=A.T.copy()))
        gap_idx.append(rho)
        gap_coef.append(hj - b - A @ xbar)
    lp.add_ub(np.concatenate(gap_idx), np.concatenate(gap_coef), 0.0, plus_eps=True)
    return expr_sum(parts)


def add_linf_elastic(lp: BlockLP, exprs) -> np.ndarray:
    """One variable t with t >= |(sum of exprs)_k| for every coordinate k;
    returns its index array (length 1)."""
    total = expr_sum(exprs)
    t = lp.add_vars(1)
    for k in range(total.dim):
        row_idx = np.concatenate([total.idx, t])
        lp.add_ub(row_idx, np.concatenate([total.M[k], [-1.0]]), 0.0)
        lp.add_ub(row_idx, np.concatenate([-total.M[k], [-1.0]]), 0.0)
    return t


def add_l1_elastic(lp: BlockLP, exprs) -> np.ndarray:
    """Variables q_k >= |(sum of exprs)_k| per coordinate; returns them."""
    total = expr_sum(exprs)
    q = lp.add_vars(total.dim)
    for k in range(total.dim):
        row_idx = np.concatenate([total.idx, q[k : k + 1]])
        lp.add_ub(row_idx, np.concatenate([total.M[k], [-1.0]]), 0.0)
        lp.add_ub(row_idx, np.concatenate([-total.M[k], [-1.0]]), 0.0)
    return q


def require_optimal(out, what: str):
    if not out.is_optimal:
        raise NumericalFailure(f"{what}: LP reported {out.status}")
    return out
