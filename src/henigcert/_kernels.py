"""The hot numeric kernels, in numpy.

The simplex pivot loops (primal and dual, sharing one pivot) and the
batch max-affine evaluator are the package's numeric core: a
certificate verification solves a small LP per block and function (and
prices its entries against that LP's basis), generation pivots only at
the breakpoints of its gamma schedule, and the grid oracles evaluate
max-affine functions at 10^4+ points.
``perfbench/README.md`` describes how their time is measured.
"""

import numpy as np

BACKEND = "numpy"


def pivot(T, basis, leave, enter):
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


def simplex_core(T, basis, allowed, tol_piv, tol_profit, max_pivots):
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
        pivot(T, basis, leave, enter)
        pivots += 1
    return 2, pivots


def dual_simplex_core(T, basis, allowed, tol_piv, tol_feas, max_pivots):
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
        pivot(T, basis, leave, enter)
        pivots += 1
    return 2, pivots


def max_affine_batch(A, b, X):
    """Evaluate max_k(<A[k],x>+b[k]) at every row of X.

    The piece values are stored (K, N), one row per piece with the samples
    along the last axis, so the max over the few pieces is K - 1 whole-row
    ``maximum`` passes instead of one short inner loop per sample.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    Y = A @ X.T
    Y += b[:, None]
    return np.maximum.reduce(Y, axis=0)
