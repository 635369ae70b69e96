"""The grid oracle's batch evaluators in their row-major form, kept verbatim
as a reference: every per-sample stack is (N, k), one row per sample, and
each reduction runs along a row.  The package stores the same stacks
(k, N), samples last; ``tests/test_grid_layout.py`` requires its results to
match these byte for byte.  Not collected by pytest (no ``test_`` prefix).
"""

import warnings

import numpy as np

from henigcert import grids
from henigcert.cones import HenigCone, in_minus_k_eps_polar_batch
from henigcert.convex import PolyhedralFn, ScaledFn
from henigcert.fractional import TOL_DIV, _box_codes, parametric_problem
from henigcert.linprog import TOL_FEAS


def lattice_points(grid):
    """``GridSpec.points``: every axis copied to full size, then stacked."""
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def box_labels(grid):
    """The number of the oracle's bound-pass box that holds each lattice
    point, from its multi-index: axis d's index cut into segments of
    ``grids._BOX``, the segments numbered in C order."""
    index = np.unravel_index(np.arange(grid.size), grid.counts)
    segments = [-(-c // grids._BOX) for c in grid.counts]
    return np.ravel_multi_index([i // grids._BOX for i in index], segments)


def max_affine_batch(A, b, X):
    """Evaluate max_k(<A[k],x>+b[k]) at every row of X."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    return (X @ A.T + b[None, :]).max(axis=1)


def contains_batch(P, X, tol: float = 1e-9) -> np.ndarray:
    """``Polyhedron.contains_batch``."""
    X = np.asarray(X, float)
    ok = np.ones(X.shape[0], dtype=bool)
    if P.A.shape[0]:
        ok &= (X @ P.A.T <= P.b + tol).all(axis=1)
    if P.E.shape[0]:
        ok &= (np.abs(X @ P.E.T - P.d) <= tol).all(axis=1)
    return ok


def in_minus_cone_batch(Y, V, tol: float = 1e-9) -> np.ndarray:
    """Row-wise -Y membership for an (N, p) stack."""
    return (np.asarray(V, float) @ Y.H.T <= tol).all(axis=1)


def eval_batch(fn, X) -> np.ndarray:
    """``eval_batch`` of max-affine and scaled functions on the kernels
    above; other functions yield one value per sample and keep their own."""
    X = np.asarray(X, float)
    if isinstance(fn, ScaledFn):
        if fn.c == 0.0:
            return np.zeros(X.shape[0])
        return fn.c * eval_batch(fn.inner, X)
    if isinstance(fn, PolyhedralFn):
        vals = max_affine_batch(fn.A, fn.b, X)
        if not fn.domain.is_full_space():
            vals = np.where(contains_batch(fn.domain, X), vals, np.inf)
        return vals
    return fn.eval_batch(X)


def h_values_batch(prob, X) -> np.ndarray:
    X = np.asarray(X, float)
    return np.column_stack([eval_batch(h, X) for h in prob.hmap])


def feasible_mask(prob, X, tol: float = TOL_FEAS) -> np.ndarray:
    X = np.asarray(X, float)
    ok = contains_batch(prob.C, X, tol=tol)
    H = h_values_batch(prob, X)
    ok &= np.isfinite(H).all(axis=1)
    safe = np.where(ok[:, None], H, 0.0)  # keep NaN/inf out of the cone test
    ok &= in_minus_cone_batch(prob.cone, safe, tol=tol)
    return ok


def ratio_matrix(prob, X):
    """Ratio rows for a batch of points; second output flags rows where every
    denominator clears TOL_DIV and every value is finite."""
    X = np.asarray(X, float)
    N = X.shape[0]
    R = np.empty((N, prob.m))
    ok = np.ones(N, dtype=bool)
    for i, (f, ng) in enumerate(prob.objectives):
        g = -eval_batch(ng, X)
        fv = eval_batch(f, X)
        good = np.isfinite(g) & np.isfinite(fv) & (np.abs(g) >= TOL_DIV)
        ok &= good
        with np.errstate(divide="ignore", invalid="ignore"):
            R[:, i] = np.where(good, fv / np.where(good, g, 1.0), 0.0)
    return R, ok


def phi_values_batch(param, X) -> np.ndarray:
    X = np.asarray(X, float)
    return np.column_stack([eval_batch(f, X) + eval_batch(s, X) for f, s in param.phi])


def dropped_rows_miss(prob, xbar, grid, ladder):
    """Check the oracle's bound pass on every lattice point against the
    kernels above, which prune nothing: no point of a box dropped as
    infeasible is feasible, and no feasible point of any dropped box hits a
    rung of either scan, ties included.  Returns which lattice points the
    walk keeps."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, xbar)
    with np.errstate(all="ignore"):
        keep, rest = _box_codes(prob, grid, ladder, param)
    labels = box_labels(grid)
    kept, settled = keep[labels] != 0, rest[labels] != 0
    X = grid.points()
    feasible = feasible_mask(prob, X)
    assert not (feasible & ~kept & ~settled).any()
    Xd = X[feasible & ~kept]
    R, ok = ratio_matrix(prob, Xd)
    P = phi_values_batch(param, Xd)
    for V in (R[ok] - param.nu, P[np.isfinite(P).all(axis=1)]):
        for eps in ladder:
            assert not in_minus_k_eps_polar_batch(HenigCone(prob.m, eps), V).any()
    return kept
