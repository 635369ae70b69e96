"""The hot numeric kernels, in numpy.

The simplex pivot loops (primal and dual, sharing one pivot) and the
batch max-affine evaluator are the package's numeric core: a
certificate verification solves a small LP per block and function (and
prices its entries against that LP's basis), generation pivots only at
the breakpoints of its gamma schedule, and the grid oracles evaluate
max-affine functions at 10^4+ points, through one product (``dot_rows``)
that rounds as the row-major reference.  The pivot is one rank-1 update
of the rows it changes and the primal pricing and ratio test are
whole-array operations, each bitwise equal to the row loops they replace
(only the ratio test's tie-break still runs per eligible row).
``perfbench/README.md`` describes how their time is measured.
"""

import numpy as np

BACKEND = "numpy"


def pivot(T, basis, leave, enter):
    """Pivot tableau ``T`` in place on row ``leave`` and column ``enter``.

    The other rows take one rank-1 update, restricted to the rows whose
    entry in the entering column is nonzero: each element is the same
    product and subtraction as in a loop over the rows, so the result is
    bitwise that loop's, and rows with a zero entry (signed zeros
    included) stay untouched.
    """
    T[leave] /= T[leave, enter]
    T[leave, enter] = 1.0
    col = T[:, enter].copy()
    col[leave] = 0.0
    rows = col.nonzero()[0]
    T[rows] -= np.multiply.outer(col[rows], T[leave])
    T[rows, enter] = 0.0
    basis[leave] = enter


def simplex_core(T, basis, allowed, tol_piv, tol_profit, max_pivots):
    """Run Bland-rule pivots on tableau ``T`` in place.

    T has one objective row at the bottom (reduced profits for a
    maximization) and the right-hand side in the last column.  ``basis``
    maps each constraint row to its basic column; ``allowed`` masks the
    columns eligible to enter.  Returns ``(code, pivots)``: code 0 when
    optimal (no profit above tol_profit), 1 when an entering column has no
    pivot entry above tol_piv (unbounded), 2 when max_pivots was hit.

    The entering column and the ratios of the eligible rows each come
    from one whole-array operation; only the ratio test's sequential
    tie-break runs per eligible row, over Python floats, so every
    comparison and every pivot is bitwise that of a loop over all rows.
    """
    m = T.shape[0] - 1
    last = T.shape[1] - 1
    allowed = allowed[:last]
    pivots = 0
    while pivots < max_pivots:
        # Bland entering rule: smallest column index with positive profit.
        cand = (allowed & (T[m, :last] > tol_profit)).nonzero()[0]
        if cand.size == 0:
            return 0, pivots
        enter = int(cand[0])
        # Ratio test; ties broken on the smallest basic-variable index.
        col = T[:m, enter]
        rows = (col > tol_piv).nonzero()[0]
        if rows.size == 0:
            return 1, pivots
        ratios = T[rows, last] / col[rows]
        leave = -1
        best = 0.0
        bestbas = 0
        found = False
        for i, r, bas in zip(rows.tolist(), ratios.tolist(), basis[rows].tolist()):
            if r < 0.0:
                r = 0.0
            span = 1e-12 * (1.0 + abs(best))
            if not found or r < best - span:
                found = True
                best = r
                leave = i
                bestbas = bas
            elif r <= best + span and bas < bestbas:
                leave = i
                bestbas = bas
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
        low = (T[:m, last] < -tol_feas).nonzero()[0]
        if low.size == 0:
            return 0, pivots
        leave = int(low[np.argmin(basis[low])])
        row = T[leave, :last]
        cand = (allowed & (row < -tol_piv)).nonzero()[0]
        if cand.size == 0:
            return 1, pivots
        ratio = np.minimum(T[m, cand], 0.0) / row[cand]
        best = ratio.min()
        enter = int(cand[np.argmax(ratio <= best + 1e-12 * (1.0 + best))])
        pivot(T, basis, leave, enter)
        pivots += 1
    return 2, pivots


def dot_rows(A, X):
    """The (K, N) stack of products <A[k], X[j]>, one row per row of A with
    the samples along the last axis, rounded as the row-major ``X @ A.T``.

    From N = 2 on, X times a C-contiguous copy of A.T is written through
    the transposed view of the (K, N) result.  With OpenBLAS that equals
    the reference byte for byte in every case tried with N >= 2
    (tests/test_grid_layout.py holds it in place) and is faster than
    ``A @ X.T``, which departs from the reference in the last bit at some
    sizes (N = 4097 with 12 rows).  numpy hands a single row (N <= 1) to
    gemv, whose summation order differs, so that case keeps ``A @ X.T``,
    which rounds as the reference there.
    """
    if X.shape[0] <= 1:
        return A @ X.T
    Y = np.empty((A.shape[0], X.shape[0]))
    np.matmul(X, np.ascontiguousarray(A.T), out=Y.T)
    return Y


def max_affine_batch(A, b, X):
    """Evaluate max_k(<A[k],x>+b[k]) at every row of X.

    The piece values are stored (K, N), one row per piece with the samples
    along the last axis (``dot_rows``, bitwise the row-major product), so
    the max over the few pieces is K - 1 whole-row ``maximum`` passes
    instead of one short inner loop per sample.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    Y = dot_rows(A, X)
    Y += b[:, None]
    return np.maximum.reduce(Y, axis=0)
