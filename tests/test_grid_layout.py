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
    # the walk yields read-only C-contiguous views of one buffer, each
    # overwriting the one before, that equal the slices of points() byte
    # for byte; points() is a fresh, writable array per call
    grid = GridSpec.parse("5x7x3:[-1,1]x[0,2]x[-3,3]")
    for chunk in (1, 7, 64, grid.size, grid.size + 1):
        monkeypatch.setattr(grids, "_CHUNK", chunk)
        walked, bases = [], set()
        for X in grid.chunks():
            assert X.flags.c_contiguous and not X.flags.writeable
            with pytest.raises(ValueError):
                X[0, 0] = 0.0
            bases.add(id(X.base))
            walked.append(X.copy())
        lattice = grid.points()
        assert len(bases) == 1 and len(walked) == -(-grid.size // chunk)
        for k, got in enumerate(walked):
            same(got, lattice[k * chunk:(k + 1) * chunk])
        assert not np.shares_memory(grid.points(), grid.points())
        assert grid.points().flags.writeable


def test_select_keeps_the_points_of_coded_boxes(monkeypatch):
    # boxes() cuts each axis into segments of at most _BOX points (or
    # _SUB) and gives their least and greatest coordinates; select()
    # yields, in lattice order, exactly the points whose box it is told to
    # keep and whose sub-box refine keeps, byte for byte with points(), for
    # any chunk size and slab; with whole boxes refined (ref.whole_boxes),
    # those of the kept boxes.  refine is asked only about kept boxes, once
    # per group of rows cut at the end of the row that fills a slab
    # (ref.row_groups).  A yield holds at most _CHUNK points, C-contiguous
    rng = np.random.default_rng(13)
    specs = ["6x6x6x6:[-1,1]x[-1,1]x[-1,1]x[-1,1]", "1:[0,0]", "1x5x1:[0,0]x[-2,3]x[1,1]"]
    for _ in range(12):
        counts = rng.integers(1, 7, size=rng.integers(1, 5))
        specs.append("x".join(map(str, counts)) + ":" + "x".join(f"[{-i},{i + 0.3}]" for i in range(len(counts))))
    for spec in specs:
        grid = GridSpec.parse(spec)
        for edge in (grids._BOX, grids._SUB):
            for axis, (lo, hi) in zip(grid.axes(), grid.boxes(edge)):
                segments = [axis[i:i + edge] for i in range(0, axis.size, edge)]
                same(lo, np.array([s.min() for s in segments]))
                same(hi, np.array([s.max() for s in segments]))
        labels, sub_labels = ref.box_labels(grid), ref.box_labels(grid, grids._SUB)
        lattice = grid.points()
        shape, sub_shape = ([lo.size for lo, _ in grid.boxes(edge)] for edge in (grids._BOX, grids._SUB))
        boxes = int(np.prod(shape))
        sub_keep = rng.integers(0, 3, int(np.prod(sub_shape))) != 0
        r = grids._BOX // grids._SUB
        places = np.array(np.unravel_index(np.arange(r ** grid.ndim), [r] * grid.ndim))

        def refine(box):
            # whether every place of each box is kept, False past the lattice's edge
            J = r * np.array(np.unravel_index(box, shape))[:, :, None] + places[:, None, :]
            inside = (J < np.array(sub_shape)[:, None, None]).all(axis=0)
            out = np.zeros(inside.shape, dtype=bool)
            out[inside] = sub_keep[np.ravel_multi_index(tuple(J[:, inside]), sub_shape)]
            return out

        for keep in (rng.integers(0, 3, boxes) != 0, np.ones(boxes, dtype=bool), rng.random(boxes) < 0.1):
            in_box = keep[labels]
            for chunk, slab in ((1, 1), (7, 3), (64, 1), (16384, 5), (grid.size + 1, grid.size)):
                monkeypatch.setattr(grids, "_CHUNK", chunk)
                for how, kept in ((ref.whole_boxes(keep, grid.ndim), in_box),
                                  (refine, in_box & sub_keep[sub_labels])):
                    calls = []

                    def spy(box, how=how):
                        calls.append(box.tolist())
                        return how(box)

                    rows = []
                    for X in grid.select(keep, spy, slab):
                        assert X.flags.c_contiguous and 0 < len(X) <= chunk
                        rows.append(X)
                    same(np.concatenate(rows) if rows else lattice[:0], lattice[kept])
                    assert calls == ref.row_groups(grid, keep, slab)


def test_select_refines_a_slab_of_boxes_per_call(monkeypatch):
    # an 8^3 lattice in chunks of 16 points walks 16 rows of 4 points on
    # the middle axis, and each row meets one kept box (its box
    # segment 0 on the last axis): refine is called once per group of slab
    # rows, ceil(16 / slab) times, and a caller that stops at the first
    # yield leaves every group past the first unrefined
    monkeypatch.setattr(grids, "_CHUNK", 16)
    grid = GridSpec.parse("8x8x8:[-1,1]x[-1,1]x[-1,1]")
    keep = np.zeros((2, 2, 2), dtype=bool)
    keep[:, :, 0] = True
    keep = keep.ravel()
    for slab in (1, 3, 5, 16, 100):
        calls = []

        def refine(box):
            calls.append(box.size)
            return ref.whole_boxes(keep, grid.ndim)(box)

        kept = sum(len(X) for X in grid.select(keep, refine, slab))
        assert kept == grid.size // 2
        assert len(calls) == -(-16 // slab) and calls[0] == min(slab, 16)
        calls.clear()
        next(grid.select(keep, refine, slab))
        assert len(calls) == 1
