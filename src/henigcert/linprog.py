"""Deterministic dense-tableau LP solver (two-phase simplex, Bland's rule).

Every membership verdict in the package reduces to one of these solves, so
the solver favors predictability over scale: maximization convention,
explicit Infeasible/Unbounded outcomes, Bland's entering/leaving rule (which
guarantees termination), and fixed tolerances.  Problem sizes are desk scale
(tens of variables and rows); there is no factorization, pricing, or
presolve beyond the bound substitution.

Conventions
-----------
maximize  c @ x
subject to  A_ub @ x <= b_ub,  A_eq @ x == b_eq,  lb <= x <= ub

Bounds use ``-numpy.inf`` / ``numpy.inf`` as the sentinel extended reals;
finite bounds are substituted away so the tableau only ever sees
nonnegative variables.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._kernels import simplex_core
from .errors import DimensionMismatch, NumericalFailure

TOL_FEAS = 1e-9
TOL_OBJ = 1e-8

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _as_matrix(M, ncols: int, name: str) -> np.ndarray:
    if M is None:
        return np.zeros((0, ncols))
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros((0, ncols))
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be two-dimensional, got ndim={M.ndim}")
    if M.shape[1] != ncols:
        raise DimensionMismatch(
            f"{name} has {M.shape[1]} columns, expected {ncols}"
        )
    return M


def _as_vector(v, length: int, name: str) -> np.ndarray:
    if v is None:
        return np.zeros(length)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {length}")
    return v


@dataclass
class LinearProgram:
    """Data for ``maximize c@x  s.t.  A_ub x <= b_ub, A_eq x == b_eq, lb<=x<=ub``.

    Parameters
    ----------
    c : array, shape (n,)
        Objective coefficients (maximization).
    A_ub, b_ub : arrays, optional
        Inequality block; empty when omitted.
    A_eq, b_eq : arrays, optional
        Equality block; empty when omitted.
    lb, ub : arrays, optional
        Per-variable bounds.  Default is free (-inf, +inf).  Infinities
        are the only way to express an absent bound; large finite floats
        are taken literally.
    """

    c: np.ndarray
    A_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.shape[0]
        if n == 0:
            raise DimensionMismatch("objective must have at least one variable")
        self.A_ub = _as_matrix(self.A_ub, n, "A_ub")
        self.b_ub = _as_vector(self.b_ub, self.A_ub.shape[0], "b_ub")
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_eq = _as_vector(self.b_eq, self.A_eq.shape[0], "b_eq")
        if self.lb is None:
            self.lb = np.full(n, -np.inf)
        else:
            self.lb = _as_vector(self.lb, n, "lb")
        if self.ub is None:
            self.ub = np.full(n, np.inf)
        else:
            self.ub = _as_vector(self.ub, n, "ub")
        for name, arr in (("c", self.c), ("A_ub", self.A_ub), ("b_ub", self.b_ub),
                          ("A_eq", self.A_eq), ("b_eq", self.b_eq)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise ValueError("bounds contain NaN")

    @property
    def nvars(self) -> int:
        return self.c.shape[0]


@dataclass
class LpOutcome:
    """Solve result: ``status`` is one of optimal / infeasible / unbounded.

    ``x``, ``value`` and ``duals`` are populated only for optimal outcomes;
    an unbounded maximization reports ``value = inf``.  Optimal solutions
    satisfy the constraints within a small multiple of ``TOL_FEAS``
    (checked before returning; violations raise NumericalFailure).
    ``duals`` holds one multiplier per ``A_ub`` row (nonnegative up to
    ``TOL_OBJ``, zero on rows with slack).
    """

    status: str
    x: Optional[np.ndarray] = None
    value: float = field(default=np.nan)
    duals: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def lp_solve(lp: LinearProgram, max_pivots: Optional[int] = None) -> LpOutcome:
    """Solve a LinearProgram with the two-phase Bland-rule simplex.

    Deterministic: identical inputs take identical pivot sequences.  The
    pivot budget defaults to ``400 + 60*(rows+cols)``; exceeding it (or
    failing the post-solve feasibility check) raises NumericalFailure.
    """
    n = lp.nvars
    lo, hi = lp.lb, lp.ub
    if np.any(lo > hi):
        return LpOutcome(INFEASIBLE)

    # Substitute bounds so that internal variables are all >= 0.
    # x_j = offset_j + sign_j * u_k  (free variables get a split pair).
    cols: list[tuple[int, float]] = []  # (original var, sign) per internal column
    offset = np.zeros(n)
    extra_rows: list[tuple[int, float]] = []  # (internal col, upper value) u_k <= value
    for j in range(n):
        ljf, ujf = np.isfinite(lo[j]), np.isfinite(hi[j])
        if ljf:
            offset[j] = lo[j]
            cols.append((j, 1.0))
            if ujf:
                extra_rows.append((len(cols) - 1, hi[j] - lo[j]))
        elif ujf:
            offset[j] = hi[j]
            cols.append((j, -1.0))
        else:
            cols.append((j, 1.0))
            cols.append((j, -1.0))
    nu = len(cols)
    S = np.zeros((n, nu))
    for k, (j, sgn) in enumerate(cols):
        S[j, k] = sgn

    c_std = S.T @ lp.c
    rows_le = [lp.A_ub @ S, lp.b_ub - lp.A_ub @ offset]
    if extra_rows:
        Aex = np.zeros((len(extra_rows), nu))
        bex = np.zeros(len(extra_rows))
        for i, (k, val) in enumerate(extra_rows):
            Aex[i, k] = 1.0
            bex[i] = val
        A_le = np.vstack([rows_le[0], Aex])
        b_le = np.concatenate([rows_le[1], bex])
    else:
        A_le, b_le = rows_le
    A_eq = lp.A_eq @ S
    b_eq = lp.b_eq - lp.A_eq @ offset

    m_le, m_eq = A_le.shape[0], A_eq.shape[0]
    m = m_le + m_eq

    # Column layout: structural | slack(one per <= row) | artificial.
    # Rows with negative rhs are negated first; <= rows then carry either a
    # slack basis (+1) or a surplus (-1) plus an artificial.
    n_slack = m_le
    art_of_row = np.full(m, -1, dtype=np.int64)
    n_art = 0
    for i in range(m_le):
        if b_le[i] < 0:
            art_of_row[i] = n_art
            n_art += 1
    for i in range(m_eq):
        art_of_row[m_le + i] = n_art
        n_art += 1
    ncols = nu + n_slack + n_art
    T = np.zeros((m + 1, ncols + 1))
    basis = np.empty(m, dtype=np.int64)
    for i in range(m_le):
        sgn = 1.0 if b_le[i] >= 0 else -1.0
        T[i, :nu] = sgn * A_le[i]
        T[i, ncols] = sgn * b_le[i]
        T[i, nu + i] = sgn  # slack or surplus
        if art_of_row[i] >= 0:
            T[i, nu + n_slack + art_of_row[i]] = 1.0
            basis[i] = nu + n_slack + art_of_row[i]
        else:
            basis[i] = nu + i
    for i in range(m_eq):
        r = m_le + i
        sgn = 1.0 if b_eq[i] >= 0 else -1.0
        T[r, :nu] = sgn * A_eq[i]
        T[r, ncols] = sgn * b_eq[i]
        T[r, nu + n_slack + art_of_row[r]] = 1.0
        basis[r] = nu + n_slack + art_of_row[r]

    if max_pivots is None:
        max_pivots = 400 + 60 * (m + ncols)
    allowed = np.ones(ncols, dtype=np.bool_)

    if n_art:
        # Phase 1: maximize -(sum of artificials).
        obj1 = np.zeros(ncols + 1)
        obj1[nu + n_slack:ncols] = -1.0
        T[m] = obj1
        _reduce_objective(T, basis, m)
        code = simplex_core(T, basis, allowed, TOL_FEAS, TOL_OBJ, max_pivots)
        if code == 2:
            raise NumericalFailure("phase-1 pivot budget exhausted")
        if code == 1:
            raise NumericalFailure("phase-1 reported unbounded")
        phase1 = -T[m, ncols]
        if phase1 < -1e-7 * (1.0 + float(np.abs(T[:, ncols]).max(initial=0.0))):
            return LpOutcome(INFEASIBLE)
        _pivot_out_artificials(T, basis, nu + n_slack, m, ncols)

    # Phase 2.
    allowed[nu + n_slack:] = False
    obj2 = np.zeros(ncols + 1)
    obj2[:nu] = c_std
    T[m] = obj2
    _reduce_objective(T, basis, m)
    code = simplex_core(T, basis, allowed, TOL_FEAS, TOL_OBJ, max_pivots)
    if code == 2:
        raise NumericalFailure("phase-2 pivot budget exhausted")
    if code == 1:
        return LpOutcome(UNBOUNDED, value=np.inf)

    u = np.zeros(ncols)
    for i in range(m):
        u[basis[i]] = max(T[i, ncols], 0.0)
    x = offset + S @ u[:nu]
    value = float(lp.c @ x)
    _check_feasible(lp, x)
    # a row's multiplier is minus the reduced profit of its slack column; a
    # row negated for a negative rhs negated its slack too, so the sign holds
    duals = 0.0 - T[m, nu:nu + lp.A_ub.shape[0]]
    return LpOutcome(OPTIMAL, x=x, value=value, duals=duals)


def _reduce_objective(T, basis, m):
    # Zero the objective-row entries of basic columns (rows are unit there).
    for i in range(m):
        f = T[m, basis[i]]
        if f != 0.0:
            T[m] -= f * T[i]
            T[m, basis[i]] = 0.0


def _pivot_out_artificials(T, basis, first_art: int, m: int, ncols: int):
    # Basic artificials sit at value ~0 after a feasible phase 1; pivot them
    # onto any usable structural/slack column.  Rows with no such column are
    # redundant and stay parked (the artificial can never re-enter).
    for i in range(m):
        if basis[i] >= first_art:
            for j in range(first_art):
                if abs(T[i, j]) > 1e-9:
                    piv = T[i, j]
                    T[i] /= piv
                    T[i, j] = 1.0
                    for r in range(T.shape[0]):
                        if r != i and T[r, j] != 0.0:
                            T[r] -= T[r, j] * T[i]
                            T[r, j] = 0.0
                    basis[i] = j
                    break


def _check_feasible(lp: LinearProgram, x: np.ndarray):
    scale = 1.0 + float(np.abs(lp.b_ub).max(initial=0.0)) + float(np.abs(x).max(initial=0.0))
    tol = 100.0 * TOL_FEAS * scale
    if lp.A_ub.shape[0] and float((lp.A_ub @ x - lp.b_ub).max()) > tol:
        raise NumericalFailure("optimal point violates an inequality row")
    if lp.A_eq.shape[0] and float(np.abs(lp.A_eq @ x - lp.b_eq).max()) > tol:
        raise NumericalFailure("optimal point violates an equality row")
    if float((lp.lb - x).max(initial=-np.inf)) > tol or float((x - lp.ub).max(initial=-np.inf)) > tol:
        raise NumericalFailure("optimal point violates a variable bound")
