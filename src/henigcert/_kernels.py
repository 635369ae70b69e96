"""The two hot numeric kernels, in numpy.

The simplex pivot loop and the batch max-affine evaluator dominate the
package's runtime: a single certificate verification issues thousands of
small LPs, and the grid oracles evaluate max-affine functions at 10^4+
points.  ``perfbench/README.md`` describes how their time is measured.
"""

import numpy as np

BACKEND = "numpy"


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


def max_affine_batch(A, b, X):
    """Evaluate max_k(<A[k],x>+b[k]) at every row of X."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    return (X @ A.T + b[None, :]).max(axis=1)
