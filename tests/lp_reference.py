"""The dense Bland-rule simplex as a one-shot solve, kept verbatim as a
reference: ``lp_solve`` below standardizes, runs phase 1 and phase 2 and
returns, with no session state, reading each variable's bounds off its
kind (``_bounds``).  ``tests/test_linprog.py`` requires the
package's ``lp_solve`` (one ``LpSession`` and one ``maximize``) to match it
bit for bit.  The ``row_loop_*`` kernels at the end are verbatim copies of
the row-loop ``_kernels.pivot``, ``simplex_core`` (returning ``(code,
pivots)``) and ``dual_simplex_core`` that the whole-array kernels replaced;
the kernel differential test requires the package's kernels to match them
bit for bit.  Not collected by pytest (no ``test_`` prefix).
"""

from typing import Optional

import numpy as np

from henigcert.errors import NumericalFailure
from henigcert.linprog import (
    INFEASIBLE,
    OPTIMAL,
    TOL_FEAS,
    TOL_OBJ,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
)


def simplex_core(T, basis, allowed, tol_piv, tol_profit, max_pivots):
    """Run Bland-rule pivots on tableau ``T`` in place.

    T has one objective row at the bottom (reduced profits for a
    maximization) and the right-hand side in the last column.  ``basis``
    maps each constraint row to its basic column; ``allowed`` masks the
    columns eligible to enter.  Returns 0 when optimal (no profit above
    tol_profit), 1 when an entering column has no pivot entry above
    tol_piv (unbounded), 2 when max_pivots was hit.
    """
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    pivots = 0
    while pivots < max_pivots:
        # Bland entering rule: smallest column index with positive profit.
        enter = -1
        for j in range(last):
            if allowed[j] and T[m, j] > tol_profit:
                enter = j
                break
        if enter == -1:
            return 0
        # Ratio test; ties broken on the smallest basic-variable index.
        leave = -1
        best = 0.0
        bestbas = 0
        found = False
        for i in range(m):
            a = T[i, enter]
            if a > tol_piv:
                r = T[i, last] / a
                if r < 0.0:
                    r = 0.0
                span = 1e-12 * (1.0 + abs(best))
                if not found or r < best - span:
                    found = True
                    best = r
                    leave = i
                    bestbas = basis[i]
                elif r <= best + span and basis[i] < bestbas:
                    leave = i
                    bestbas = basis[i]
        if not found:
            return 1
        piv = T[leave, enter]
        T[leave] /= piv
        T[leave, enter] = 1.0
        for i in range(m + 1):
            if i != leave:
                f = T[i, enter]
                if f != 0.0:
                    T[i] -= f * T[leave]
                    T[i, enter] = 0.0
        basis[leave] = enter
        pivots += 1
    return 2


def lp_solve(lp: LinearProgram, max_pivots: Optional[int] = None) -> LpOutcome:
    """Solve a LinearProgram with the two-phase Bland-rule simplex.

    Deterministic: identical inputs take identical pivot sequences.  The
    pivot budget defaults to ``400 + 60*(rows+cols)``; exceeding it (or
    failing the post-solve feasibility check) raises NumericalFailure.
    """
    n = lp.nvars
    lo, hi = _bounds(lp)
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


def _bounds(lp: LinearProgram):
    # lp_solve and _check_feasible were written for general bounds; a
    # program's are 0 below a nonnegative variable and none otherwise
    return np.where(lp.nonneg, 0.0, -np.inf), np.full(lp.nvars, np.inf)


def _check_feasible(lp: LinearProgram, x: np.ndarray):
    scale = 1.0 + float(np.abs(lp.b_ub).max(initial=0.0)) + float(np.abs(x).max(initial=0.0))
    tol = 100.0 * TOL_FEAS * scale
    if lp.A_ub.shape[0] and float((lp.A_ub @ x - lp.b_ub).max()) > tol:
        raise NumericalFailure("optimal point violates an inequality row")
    if lp.A_eq.shape[0] and float(np.abs(lp.A_eq @ x - lp.b_eq).max()) > tol:
        raise NumericalFailure("optimal point violates an equality row")
    lo, hi = _bounds(lp)
    if float((lo - x).max(initial=-np.inf)) > tol or float((x - hi).max(initial=-np.inf)) > tol:
        raise NumericalFailure("optimal point violates a variable bound")


def row_loop_pivot(T, basis, leave, enter):
    """Pivot tableau ``T`` in place on row ``leave`` and column ``enter``."""
    T[leave] /= T[leave, enter]
    T[leave, enter] = 1.0
    for i in range(T.shape[0]):
        if i != leave:
            f = T[i, enter]
            if f != 0.0:
                T[i] -= f * T[leave]
                T[i, enter] = 0.0
    basis[leave] = enter


def row_loop_simplex_core(T, basis, allowed, tol_piv, tol_profit, max_pivots):
    """Run Bland-rule pivots on tableau ``T`` in place.

    T has one objective row at the bottom (reduced profits for a
    maximization) and the right-hand side in the last column.  ``basis``
    maps each constraint row to its basic column; ``allowed`` masks the
    columns eligible to enter.  Returns ``(code, pivots)``: code 0 when
    optimal (no profit above tol_profit), 1 when an entering column has no
    pivot entry above tol_piv (unbounded), 2 when max_pivots was hit.
    """
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    pivots = 0
    while pivots < max_pivots:
        # Bland entering rule: smallest column index with positive profit.
        enter = -1
        for j in range(last):
            if allowed[j] and T[m, j] > tol_profit:
                enter = j
                break
        if enter == -1:
            return 0, pivots
        # Ratio test; ties broken on the smallest basic-variable index.
        leave = -1
        best = 0.0
        bestbas = 0
        found = False
        for i in range(m):
            a = T[i, enter]
            if a > tol_piv:
                r = T[i, last] / a
                if r < 0.0:
                    r = 0.0
                span = 1e-12 * (1.0 + abs(best))
                if not found or r < best - span:
                    found = True
                    best = r
                    leave = i
                    bestbas = basis[i]
                elif r <= best + span and basis[i] < bestbas:
                    leave = i
                    bestbas = basis[i]
        if not found:
            return 1, pivots
        row_loop_pivot(T, basis, leave, enter)
        pivots += 1
    return 2, pivots


def row_loop_dual_simplex_core(T, basis, allowed, tol_piv, tol_feas, max_pivots):
    """Run dual simplex pivots on tableau ``T`` in place.

    The layout is simplex_core's; the reduced profits must be <= 0 up to
    rounding (positive ones count as 0).  The leaving row is the one with
    a value below -tol_feas whose basic variable has the smallest index;
    the entering column is, among the allowed ones with an entry below
    -tol_piv in that row, the one of smallest ratio profit/entry, ties
    broken on the smallest column index (Bland's rule for the dual).
    Returns ``(code, pivots)``: code 0 when every value is >= -tol_feas,
    1 when the leaving row has no entering column (the rows are
    inconsistent), 2 when max_pivots was hit.
    """
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    pivots = 0
    while pivots < max_pivots:
        low = np.flatnonzero(T[:m, last] < -tol_feas)
        if low.size == 0:
            return 0, pivots
        leave = int(low[np.argmin(basis[low])])
        row = T[leave, :last]
        cand = np.flatnonzero(allowed & (row < -tol_piv))
        if cand.size == 0:
            return 1, pivots
        ratio = np.minimum(T[m, cand], 0.0) / row[cand]
        best = ratio.min()
        enter = int(cand[np.argmax(ratio <= best + 1e-12 * (1.0 + best))])
        row_loop_pivot(T, basis, leave, enter)
        pivots += 1
    return 2, pivots
