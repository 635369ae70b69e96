"""The grid oracle's (k, N) stacks, samples last, against the row-major
formulas they replaced (tests/grid_reference.py), compared byte for byte.

Both layouts reach the same numbers only if the package's (k, N) product
(``_kernels.dot_rows``) equals ``(X @ A.T).T`` bit for bit in the BLAS at
hand and the reductions over the short axis see the same operands; these
cases hold that in place on seeded inputs: N in {0, 1, 2, 1000, 4097,
16384} (2 the smallest gemm, 16384 a full chunk of the grid scan, 4097 a
partial one), 1-12 pieces, n in {1, 4, 10}, points on a half-integer
lattice (exact equality rows and ties) or from N(0,1), domains that give
inf, and scaled functions with coefficient zero.
"""

import itertools

import numpy as np
import pytest

import grid_reference as ref
from henigcert import fractional, grids
from henigcert._kernels import max_affine_batch
from henigcert.cones import PolyhedralCone, in_minus_cone_batch
from henigcert.convex import Polyhedron, PolyhedralFn, ScaledFn
from henigcert.errors import SchemaError
from henigcert.fractional import (
    FractionalProblem,
    feasible_mask,
    parametric_problem,
    ratio_matrix,
)
from henigcert.grids import GridSpec

CASES = list(itertools.product((0, 1, 2, 1000, 4097, 16384), (1, 4, 10)))


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def samples_last(stack):
    """An (N, k) result must be the transpose of a C-contiguous (k, N) stack."""
    assert stack.T.flags.c_contiguous


def points(rng, N, n, x0=None):
    if rng.random() < 0.5:
        X = rng.integers(-4, 5, size=(N, n)) * 0.5
    else:
        X = rng.normal(size=(N, n))
    if x0 is not None and N:
        X[rng.integers(N)] = x0
    return X


def polyhedron_through(rng, x0, rows, eq_rows=0):
    """Inequality rows with slack at x0 (integer ones in half the cases, so
    that lattice points meet them exactly) and integer equality rows
    through it."""
    n = x0.shape[0]
    if rng.random() < 0.5:
        A = rng.integers(-2, 3, size=(rows, n)).astype(float)
        slack = rng.integers(0, 3, size=rows) * 0.5
    else:
        A = rng.normal(size=(rows, n))
        slack = np.abs(rng.normal(size=rows))
    E = rng.integers(-1, 2, size=(eq_rows, n)).astype(float)
    return Polyhedron(A=A, b=A @ x0 + slack, E=E, d=E @ x0, n=n)


@pytest.mark.parametrize("N, n", CASES)
def test_max_affine_batch_matches_row_major(N, n):
    rng = np.random.default_rng(100 + 10 * n + N % 7)
    for k in range(1, 13):
        A, b = rng.normal(size=(k, n)), rng.normal(size=k)
        X = points(rng, N, n)
        same(max_affine_batch(A, b, X), ref.max_affine_batch(A, b, X))


@pytest.mark.parametrize("N, n", CASES)
def test_contains_batch_matches_row_major(N, n):
    rng = np.random.default_rng(200 + 10 * n + N % 7)
    seen = np.zeros(2, bool)
    for rows, eq_rows in itertools.product((0, 1, 5, 12), (0, 1, 2)):
        x0 = rng.integers(-2, 3, size=n) * 0.5
        P = polyhedron_through(rng, x0, rows, eq_rows)
        X = points(rng, N, n, x0)
        for tol in (0.0, 1e-9, 0.5):
            got = P.contains_batch(X, tol=tol)
            same(got, ref.contains_batch(P, X, tol=tol))
            seen[0] |= got.any()
            seen[1] |= not got.all()
    assert seen.all() or N <= 1


@pytest.mark.parametrize("N, n", CASES)
def test_in_minus_cone_batch_matches_row_major(N, n):
    rng = np.random.default_rng(300 + 10 * n + N % 7)
    for p in (1, 2, 4):
        cones = [
            PolyhedralCone.nonneg_orthant(p),
            PolyhedralCone(H=rng.normal(size=(int(rng.integers(1, 6)), p))),
        ]
        for Y in cones:
            V = points(rng, N, p)
            same(in_minus_cone_batch(Y, V), ref.in_minus_cone_batch(Y, V))


def random_problem(rng, n):
    """A problem with a feasible candidate x0 and nonnegative ratios there:
    every domain is a box around x0, some functions carry one, and some
    numerators and constraints are ``ScaledFn(0, .)`` over a restricted one."""
    x0 = rng.integers(-2, 3, size=n) * 0.5

    def domain():
        if rng.random() < 0.5:
            return None
        return Polyhedron.box(x0 - rng.uniform(0.5, 2, n), x0 + rng.uniform(0.5, 2, n))

    def pieces(scale, low, high):
        # a max-affine function with value in [low, high] at x0
        k = int(rng.integers(1, 13))
        A = scale * rng.normal(size=(k, n))
        return PolyhedralFn(A, rng.uniform(low, high, k) - A @ x0, domain())

    def maybe_zero(fn):
        if rng.random() < 0.25:
            restricted = Polyhedron.box(x0 - 0.5, x0 + 0.5)
            return ScaledFn(0.0, PolyhedralFn(fn.A, fn.b, restricted))
        return ScaledFn(rng.uniform(0.5, 2), fn) if rng.random() < 0.25 else fn

    m, p = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    objectives = [(maybe_zero(pieces(1.0, 0.0, 2.0)), pieces(0.1, -6.0, -1.0)) for _ in range(m)]
    hmap = [maybe_zero(pieces(1.0, -2.0, -1.0)) for _ in range(p)]
    if rng.random() < 0.5:
        cone = PolyhedralCone.nonneg_orthant(p)
    else:
        cone = PolyhedralCone(H=np.abs(rng.normal(size=(int(rng.integers(1, 4)), p))))
    C = polyhedron_through(rng, x0, int(rng.integers(0, 13)), int(rng.integers(0, 2)))
    return FractionalProblem(n, objectives, hmap, cone, C), x0


@pytest.mark.parametrize("N, n", CASES)
def test_oracle_stacks_match_row_major(N, n):
    rng = np.random.default_rng(400 + 10 * n + N % 7)
    seen = {"feasible": False, "infeasible": False, "bad ratio": False, "inf phi": False}
    for _ in range(6):
        prob, x0 = random_problem(rng, n)
        X = points(rng, N, n, x0)

        mask = feasible_mask(prob, X)
        same(mask, ref.feasible_mask(prob, X))
        H = prob.h_values_batch(X)
        same(H, ref.h_values_batch(prob, X))
        samples_last(H)

        R, ok = ratio_matrix(prob, X)
        R_ref, ok_ref = ref.ratio_matrix(prob, X)
        same(R, R_ref)
        same(ok, ok_ref)
        samples_last(R)

        param = parametric_problem(prob, x0)
        P = param._phi_stack(*fractional._objective_stacks(prob, X)).T
        same(P, ref.phi_values_batch(param, X))
        samples_last(P)

        seen["feasible"] |= mask.any()
        seen["infeasible"] |= not mask.all()
        seen["bad ratio"] |= not ok.all()
        seen["inf phi"] |= not np.isfinite(P).all()
    if N > 1:
        assert all(seen.values()), seen


def test_lattice_chunks_are_the_meshgrid_lattice(monkeypatch):
    # points() and the concatenated chunks() of any chunk size are the
    # meshgrid lattice byte for byte; every chunk is C-contiguous (rows,
    # ndim), the layout the evaluators' products round the same way on,
    # and all but the last hold exactly _CHUNK rows
    rng = np.random.default_rng(11)
    specs = ["9x9x9x9:[-1,1]x[-1,1]x[-1,1]x[-1,1]", "1:[0,0]", "1x5x1:[0,0]x[-2,3]x[1,1]"]
    for _ in range(20):
        counts = rng.integers(1, 8, size=rng.integers(1, 5))
        specs.append("x".join(map(str, counts)) + ":" + "x".join(f"[{-i},{i + 0.3}]" for i in range(len(counts))))
    for spec in specs:
        grid = GridSpec.parse(spec)
        want = ref.lattice_points(grid)
        same(grid.points(), want)
        assert grid.points().flags.c_contiguous
        for chunk in (1, 2, 7, 64, 1000, 16384, grid.size, grid.size + 1):
            monkeypatch.setattr(grids, "_CHUNK", chunk)
            blocks = []
            for b in grid.chunks():
                assert b.flags.c_contiguous
                blocks.append(b.copy())
            same(np.concatenate(blocks), want)
            assert [len(b) for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)


def test_grid_span_must_fit_a_float():
    # linspace over [-1e308, 1e308] steps by inf and yields [nan, 1e308]
    with pytest.raises(SchemaError, match="overflows"):
        GridSpec(lows=(-1e308, 0.0), highs=(1e308, 1.0), counts=(2, 2))
    grid = GridSpec(lows=(-1e307,), highs=(1e307,), counts=(3,))
    assert np.isfinite(grid.points()).all()


def test_in_place_chunks_are_the_chunks(monkeypatch):
    # the walk yields fresh, writable, C-contiguous arrays, no two sharing
    # memory, that equal the slices of points() byte for byte; points() is
    # a fresh array per call, and at() builds the points of any
    # multi-index as points() holds them
    grid = GridSpec.parse("5x7x3:[-1,1]x[0,2]x[-3,3]")
    lattice = grid.points()
    for chunk in (1, 7, 64, grid.size, grid.size + 1):
        monkeypatch.setattr(grids, "_CHUNK", chunk)
        walked = list(grid.chunks())
        assert len(walked) == -(-grid.size // chunk)
        for k, X in enumerate(walked):
            assert X.flags.c_contiguous and X.flags.writeable
            same(X, lattice[k * chunk:(k + 1) * chunk])
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(walked + [lattice], 2))
    assert not np.shares_memory(grid.points(), grid.points())
    assert grid.points().flags.writeable
    index = np.unravel_index(np.random.default_rng(12).permutation(grid.size), grid.counts)
    same(grid.at(index), lattice[np.ravel_multi_index(index, grid.counts)])


def walks(monkeypatch):
    """Seeded cases of _BoundPass.walk(keep): per lattice, keep and (chunk,
    slab), yields (grid, walk, kept, batches, calls, labels, chunk), where
    kept marks the lattice points the walk must yield, batches are the box
    numbers of its batches (ref.walk_batches) and calls records the boxes
    of each sub_codes call.  sub_codes here keeps a seeded draw of
    sub-boxes and says anything of a place past the lattice's edge, which
    the walk must not read."""
    rng = np.random.default_rng(13)
    specs = ["6x6x6x6:[-1,1]x[-1,1]x[-1,1]x[-1,1]", "1:[0,0]", "1x5x1:[0,0]x[-2,3]x[1,1]", "13x3:[0,1]x[0,1]"]
    for _ in range(8):
        counts = rng.integers(1, 10, size=rng.integers(1, 5))
        specs.append("x".join(map(str, counts)) + ":" + "x".join(f"[{-i},{i + 0.3}]" for i in range(len(counts))))
    r = grids._BOX // grids._SUB
    for spec in specs:
        grid = GridSpec.parse(spec)
        n = grid.ndim
        one = PolyhedralFn(np.zeros((1, n)), [1.0])
        minus_one = PolyhedralFn(np.zeros((1, n)), [-1.0])
        prob = FractionalProblem(n, [(one, minus_one)] * 2, [minus_one], PolyhedralCone.nonneg_orthant(1),
                                 Polyhedron.box([-9.0] * n, [9.0] * n))
        bounds = fractional._BoundPass(prob, grid, [1.0], parametric_problem(prob, np.zeros(n)))
        labels, sub_labels = ref.box_labels(grid), ref.box_labels(grid, grids._SUB)
        shape, sub_shape = ref.segments(grid), ref.segments(grid, grids._SUB)
        sub_keep = rng.random(int(np.prod(sub_shape))) < 0.7
        places = np.array(np.unravel_index(np.arange(r ** n), [r] * n))
        calls = []

        def sub_codes(boxes, hit=True):
            calls.append(boxes.tolist())
            J = r * np.array(np.unravel_index(boxes, shape))[:, :, None] + places[:, None, :]
            inside = (J < np.array(sub_shape)[:, None, None]).all(axis=0)
            out = rng.random(inside.shape) < 0.5
            out[inside] = sub_keep[np.ravel_multi_index(tuple(J[:, inside]), sub_shape)]
            return out

        monkeypatch.setattr(bounds, "sub_codes", sub_codes)
        boxes = int(np.prod(shape))
        for keep in (rng.random(boxes) < 0.7, np.ones(boxes, dtype=bool), rng.random(boxes) < 0.1):
            kept = keep[labels] & sub_keep[sub_labels]
            for chunk, slab in ((16, 1), (23, 3), (64, 2), (16384, 5), (16384, grid.size)):
                monkeypatch.setattr(grids, "_CHUNK", chunk)
                monkeypatch.setattr(bounds, "slab", slab)
                calls.clear()
                yield grid, bounds.walk(keep), kept, ref.walk_batches(grid, keep, slab), calls, labels, chunk


def test_select_keeps_the_points_of_coded_boxes(monkeypatch):
    # (named for GridSpec.select, which _BoundPass.walk replaced) the walk
    # yields exactly the points of the sub-boxes sub_codes keeps in the
    # boxes keep keeps, each with its flat index, byte for byte with
    # points(), at most _CHUNK per yield and C-contiguous, in box order
    # (ref.walk_order), for any chunk size and slab
    for grid, walk, kept, batches, _, _, chunk in walks(monkeypatch):
        lattice = grid.points()
        flats = []
        for batch in walk:
            for X, flat in batch:
                assert X.flags.c_contiguous and 0 < len(X) <= chunk
                same(X, lattice[flat])
                flats.append(flat)
        same(np.concatenate(flats) if flats else np.zeros(0, np.intp), ref.walk_order(grid, kept, batches))


def test_select_refines_a_slab_of_boxes_per_call(monkeypatch):
    # (named for GridSpec.select, which _BoundPass.walk replaced) a batch
    # is at least slab kept boxes extended to whole segments of boxes on
    # the first axis (ref.walk_batches), so its boxes cover a range of
    # lattice order after the batch before; it calls sub_codes once, about
    # its boxes, when the walk reaches it, so a caller that stops after a
    # batch leaves every later one unrefined
    for _, walk, _, batches, calls, labels, _ in walks(monkeypatch):
        for k, batch in enumerate(walk):
            assert len(calls) == k
            for _ in batch:
                pass
            assert len(calls) == k + 1
        assert calls == batches
        spans = [np.flatnonzero(np.isin(labels, b)) for b in batches]
        assert all(a.max() < b.min() for a, b in zip(spans, spans[1:]))
