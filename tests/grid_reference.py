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
from henigcert.fractional import TOL_DIV, _BoundPass, _has_bounds, parametric_problem
from henigcert.linprog import TOL_FEAS


def lattice_points(grid):
    """``GridSpec.points``: every axis copied to full size, then stacked."""
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def box_labels(grid, edge=grids._BOX):
    """The number of the box of at most ``edge`` points per axis (the bound
    pass's boxes, or with ``grids._SUB`` its sub-boxes) that holds each
    lattice point, from its multi-index: axis d's index cut into segments
    of ``edge``, the segments numbered in C order."""
    index = np.unravel_index(np.arange(grid.size), grid.counts)
    segments = [-(-c // edge) for c in grid.counts]
    return np.ravel_multi_index([i // edge for i in index], segments)


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


def sub_box_codes(bounds, grid):
    """The bound pass's booleans: per box, whether some point of it may be
    feasible and whether some point may hit a rung (``box_codes``); per
    sub-box (of ``grid.boxes(grids._SUB)``, in C order), whether it may
    hold a feasible point that hits a rung and whether it may hold a
    feasible point (``sub_codes`` with hit True and False), from the
    places in every box."""
    feasible, hit = bounds.box_codes()
    boxes = np.arange(feasible.size)
    r = grids._BOX // grids._SUB
    segments = np.unravel_index(boxes, [lo.size for lo, _ in grid.boxes()])
    places = np.unravel_index(np.arange(r ** grid.ndim), [r] * grid.ndim)
    J = [r * b[:, None] + p[None, :] for b, p in zip(segments, places)]
    halves = [lo.size for lo, _ in grid.boxes(grids._SUB)]
    inside = np.all([j < h for j, h in zip(J, halves)], axis=0)
    sub = np.ravel_multi_index([j[inside] for j in J], halves)
    out = np.zeros((2, int(np.prod(halves))), dtype=bool)
    out[0, sub] = bounds.sub_codes(boxes)[inside]
    out[1, sub] = bounds.sub_codes(boxes, hit=False)[inside]
    return feasible, hit, out[0], out[1]


def whole_boxes(keep, ndim):
    """A ``refine`` for ``GridSpec.select`` that keeps every sub-box of
    each box the boolean array keep keeps, so the walk keeps whole boxes."""
    places = (grids._BOX // grids._SUB) ** ndim
    return lambda boxes: np.broadcast_to(keep[boxes][:, None], (boxes.size, places))


def row_groups(grid, keep, slab):
    """The box numbers ``GridSpec.select`` asks ``refine`` about, one array
    per call, from the lattice points: a row is the points of one segment
    of _BOX points on axis a with the earlier axes fixed, a the first axis
    whose _SUB points fit a chunk (the last axis if none); the rows in
    lattice order, each with the kept boxes that meet it in box order;
    and a group of rows closing at the end of the first row that brings
    its boxes to slab."""
    strides = [int(np.prod(grid.counts[d + 1:], dtype=np.int64)) for d in range(grid.ndim)]
    a = next((d for d in range(grid.ndim) if grids._SUB * strides[d] <= grids._CHUNK), grid.ndim - 1)
    index = np.unravel_index(np.arange(grid.size), grid.counts)
    row_shape = list(grid.counts[:a]) + [-(-grid.counts[a] // grids._BOX)]
    row = np.ravel_multi_index(tuple(index[:a]) + (index[a] // grids._BOX,), row_shape)
    label = box_labels(grid)
    calls, group = [], []
    for w in range(int(np.prod(row_shape))):
        group += np.unique(label[(row == w) & keep[label]]).tolist()
        if len(group) >= slab:
            calls.append(group)
            group = []
    return calls + ([group] if group else [])


def dropped_rows_miss(prob, xbar, grid, ladder):
    """Check the oracle's bound pass on every lattice point against the
    kernels above, which prune nothing: no point of a box or sub-box whose
    ``feasible`` is False is feasible, and no feasible point of any
    dropped box or sub-box hits a rung of either scan, ties included.
    Returns which lattice points the walk keeps: those whose box and
    sub-box may both hold a feasible point that hits a rung, or every
    point when the pass is skipped because the scans have no bounds."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, xbar)
    if not _has_bounds(prob):
        return np.ones(grid.size, dtype=bool)
    feasible, hit, sub_kept, sub_feasible = sub_box_codes(_BoundPass(prob, grid, ladder, param), grid)
    box, sub = box_labels(grid), box_labels(grid, grids._SUB)
    kept = feasible[box] & hit[box] & sub_kept[sub]
    X = grid.points()
    ok = feasible_mask(prob, X)
    assert not (ok & ~(feasible[box] & sub_feasible[sub])).any()
    Xd = X[ok & ~kept]
    R, good = ratio_matrix(prob, Xd)
    P = phi_values_batch(param, Xd)
    for V in (R[good] - param.nu, P[np.isfinite(P).all(axis=1)]):
        for eps in ladder:
            assert not in_minus_k_eps_polar_batch(HenigCone(prob.m, eps), V).any()
    return kept
