"""Rectangular lattice specifications shared by the grid oracles and the CLI.

A lattice is walked in blocks of consecutive flat indices: the point with
flat index j sits at the multi-index ``np.unravel_index(j, counts)``, so
block [start, stop) is read straight off the axes without building the
rest of the lattice.  ``GridSpec.chunks`` yields the whole lattice that
way, in lattice order, ``_CHUNK`` points at a time, and ``GridSpec.points``
is the single block [0, size) of the same formula.  A scan over the
chunks holds only one block's stacks at a time, so its memory stays flat
in the grid size.

A block is row-major, (rows, ndim) and C-contiguous, as the whole lattice
always was.  The evaluators form their (rows of A, N) products as
``X @ A.T`` written through the transposed view of the result
(``_kernels.dot_rows``), which rounds as the row-major reference for
N >= 2; a single row keeps ``A @ X.T``, because numpy hands it to gemv,
whose summation order differs.  Every block of a walk overwrites one
buffer, so a caller keeps rows of ``chunks`` only by copying them (the
blocks are read-only views); ``points`` is a walk of one block, a fresh
array per call.

For the grid oracle's bound pass the lattice is also cut into boxes of at
most ``_BOX`` consecutive points per axis, and each box into sub-boxes of
at most ``_SUB`` (``GridSpec.boxes``), both numbered in C order as the
points are.  ``GridSpec.select`` walks the lattice in lattice order but
yields only the points of the boxes a boolean array keeps whose sub-boxes
a callback keeps.  It goes by rows of boxes (one box segment on one axis,
the earlier axes fixed) and looks up only the boxes of the rows it has
reached.  It asks the callback about the kept ones once per group of
consecutive rows, a group closing at the first row end after its boxes
number a given slab, and builds only the kept points, from their
multi-indices, as fresh arrays: the work follows the kept boxes, not the
lattice, nothing is refined more than one group ahead of the caller, and
no array of the lattice's size is built.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SchemaError

MAX_GRID_POINTS = 4_000_000
# lattice points per block of a walk: smaller blocks pay numpy's per-call
# overhead once per few points, larger ones fall out of the CPU caches
_CHUNK = 16384
# lattice points per axis in a box of the grid oracle's bound pass, and in
# the sub-boxes its kept boxes split into: larger boxes give looser bounds,
# smaller ones more boxes to bound; _SUB divides _BOX
_BOX = 4
_SUB = 2


def _strides(counts) -> list:
    """Row-major strides, in elements, of an array of shape counts."""
    strides, s = [], 1
    for c in reversed(counts):
        strides.insert(0, s)
        s *= c
    return strides


def _index_grid(shape) -> np.ndarray:
    """Every multi-index of an array of the given shape, as the columns of a
    (len(shape), prod(shape)) array in C order."""
    return np.indices(shape, dtype=np.intp).reshape(len(shape), int(np.prod(shape, dtype=np.int64)))


def _columns(counts, values, k: int) -> list:
    """Per axis d of a lattice of shape counts, a function of (start, stop)
    that gives values[d][i_d] for the points of flat indices [start, stop),
    i_d being the point's index on axis d; stop - start is at most k.

    Axis d's index at flat index j is (j // s) % counts[d], with s the
    product of the later counts: constant on runs of s points and periodic
    in counts[d] * s.  An axis whose period fits in k points is sliced out
    of one column (a view), precomputed over a period and long enough for
    any offset; a longer one is built from the few runs that meet the
    block.
    """
    size, columns = int(np.prod(counts)), []
    for vals, c, s in zip(values, counts, _strides(counts)):
        period = c * s
        if period <= k:
            span = k if k == size else k + period - 1  # one block starts at 0
            col = np.tile(np.repeat(vals, s), -(-span // period))
            columns.append(lambda start, stop, col=col, period=period:
                           col[start % period : start % period + stop - start])
            continue

        def runs(start, stop, vals=vals, c=c, s=s):
            idx = np.arange(start // s, (stop - 1) // s + 1)
            reps = np.full(idx.size, s)
            reps[0] -= start - idx[0] * s
            reps[-1] -= (idx[-1] + 1) * s - stop
            return np.repeat(vals[idx % c], reps)

        columns.append(runs)
    return columns


@dataclass(frozen=True)
class GridSpec:
    """An axis-aligned lattice: ``counts[i]`` points spanning [lows[i], highs[i]].

    Points enumerate in lexicographic (row-major) order over the axes, which
    fixes the deterministic reduction order of every grid scan.
    """

    lows: tuple
    highs: tuple
    counts: tuple

    def __post_init__(self):
        lows = tuple(float(v) for v in self.lows)
        highs = tuple(float(v) for v in self.highs)
        counts = tuple(int(k) for k in self.counts)
        if not (len(lows) == len(highs) == len(counts)):
            raise DimensionMismatch("grid lows/highs/counts lengths differ")
        if len(lows) == 0:
            raise DimensionMismatch("grid needs at least one axis")
        for lo, hi, k in zip(lows, highs, counts):
            if k < 1:
                raise SchemaError("grid counts must be >= 1")
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi < lo:
                raise SchemaError("grid bounds must be finite with high >= low")
            if not np.isfinite(hi - lo):
                # linspace would step by inf and put nan on the axis
                raise SchemaError(f"grid span [{lo:g},{hi:g}] overflows a float")
        total = 1
        for k in counts:
            total *= k
        if total > MAX_GRID_POINTS:
            raise SchemaError(f"grid has {total} points, cap is {MAX_GRID_POINTS}")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        object.__setattr__(self, "counts", counts)

    @property
    def ndim(self) -> int:
        return len(self.counts)

    @property
    def size(self) -> int:
        total = 1
        for k in self.counts:
            total *= k
        return total

    @cached_property
    def _axes(self) -> tuple:
        axes = tuple(
            np.linspace(lo, hi, k) if k > 1 else np.array([lo])
            for lo, hi, k in zip(self.lows, self.highs, self.counts)
        )
        for axis in axes:
            axis.flags.writeable = False
        return axes

    def axes(self) -> list:
        """The coordinates of each axis, formed once per grid (read-only)."""
        return list(self._axes)

    def _filler(self, k: int):
        """fill(start, stop): the points of flat indices [start, stop), at
        most k of them, as a C-contiguous (rows, ndim) block written into
        the leading rows of one (min(k, size), ndim) buffer, so a block is
        valid only until the next fill."""
        columns = _columns(self.counts, self.axes(), k)
        buffer = np.empty((min(k, self.size), self.ndim))

        def fill(start, stop):
            out = buffer[: stop - start]
            for d, column in enumerate(columns):
                out[:, d] = column(start, stop)
            return out

        return fill

    def points(self) -> np.ndarray:
        """All lattice points, shape (size, ndim), lexicographic order."""
        return self._filler(self.size)(0, self.size)

    def chunks(self):
        """The lattice points in lexicographic order, as consecutive blocks
        of at most ``_CHUNK`` rows (the last one may be shorter), each
        overwriting the one before in a single buffer: a caller keeps rows
        only by copying them.  The blocks are read-only views of it."""
        size = self.size
        k = min(_CHUNK, size)
        fill = self._filler(k)
        for start in range(0, size, k):
            block = fill(start, min(start + k, size)).view()
            block.flags.writeable = False
            yield block

    def boxes(self, edge: int = _BOX) -> list:
        """The lattice cut into boxes of at most ``edge`` consecutive points
        per axis: per axis, the least and the greatest coordinate of each
        of its ceil(count / edge) segments.  A box is one segment per axis;
        boxes are numbered in C order over the segments, as the points are
        over the axes."""
        out = []
        for axis in self.axes():
            starts = np.arange(0, axis.size, edge)
            out.append((np.minimum.reduceat(axis, starts), np.maximum.reduceat(axis, starts)))
        return out

    def select(self, keep, refine, slab: int):
        """The points of the boxes (of ``boxes()``) where the boolean array
        ``keep`` holds whose sub-box (of ``boxes(_SUB)``; a sub-box lies in
        one box) ``refine`` keeps, walked in lattice order.
        ``refine(boxes)`` takes an array of box numbers and returns a
        boolean for each box's (_BOX // _SUB) ** ndim places for sub-boxes,
        in C order (a place past the lattice's edge is never read).

        The lattice is cut into rows of consecutive points: the points of
        one segment of ``_BOX`` points on axis a with the earlier axes
        fixed, a the first axis where a sub-box's row of ``_SUB`` points
        fits a chunk (else the last), so a row holds at most
        max(2 * ``_CHUNK``, ``_BOX``) points.  Rows are looked up a chunk's
        worth at a time, and only the kept boxes that meet them are held.
        Those are refined in groups of consecutive rows, one ``refine``
        call per group: a group closes at the end of the first row at
        which its boxes number ``slab`` or more, so it holds fewer than
        ``slab`` boxes plus one row's.  The flat indices of a group's kept
        sub-boxes' points are sorted into lattice order, and the points
        built from their multi-indices, as fresh arrays of at most
        ``_CHUNK`` rows.  So nothing is refined more than one group ahead
        of the caller, no array of the lattice's size is built, and a
        caller that stops early leaves the rest unrefined.
        """
        r = _BOX // _SUB
        n, counts = self.ndim, self.counts
        strides = _strides(counts)
        box_counts = [-(-c // _BOX) for c in counts]
        box_strides = _strides(box_counts)
        a = next((d for d in range(n) if _SUB * strides[d] <= _CHUNK), n - 1)
        per = max(1, _CHUNK // (_BOX * strides[a]))
        # a row's boxes are its box number plus an offset per combination
        # of box segments on the later axes; a box has r ** ndim places
        # for sub-boxes, and a sub-box _SUB ** (ndim - a) points from a on
        tail = _index_grid(box_counts[a + 1:])
        tail_boxes = np.asarray(box_strides[a + 1:], dtype=np.intp) @ tail
        place = _index_grid([r] * n)[:, None, :]
        corner = _index_grid([_SUB] * (n - a))[:, None, :]
        sizes = np.array(counts[a:], dtype=np.intp)[:, None, None]
        pre_strides = _strides(counts[:a])
        rows = int(np.prod(counts[:a], dtype=np.int64)) * box_counts[a]

        def locate(w):
            """Per row of w: its box segment on axis a, its indices on the
            earlier axes, and the number of its first box."""
            seg = w % box_counts[a]
            pre = [w // box_counts[a] // s % c for s, c in zip(pre_strides, counts[:a])]
            base = seg * box_strides[a]
            for p, s in zip(pre, box_strides):
                base = base + p // _BOX * s
            return seg, pre, base

        def groups():
            """Per group, the row and the tail offset of each kept box that
            meets one of its rows, in row order."""
            held = np.empty((2, 0), dtype=np.intp)
            for w0 in range(0, rows, per):
                w = np.arange(w0, min(w0 + per, rows))
                hit = keep[(locate(w)[2][:, None] + tail_boxes).ravel()].nonzero()[0]
                row, t = np.divmod(hit, tail_boxes.size)
                held = np.hstack([held, [w[row], t]])
                while held.shape[1] >= slab:
                    cut = np.searchsorted(held[0], held[0, slab - 1], side="right")
                    yield held[:, :cut]
                    held = held[:, cut:]
            if held.size:
                yield held

        axes = self.axes()
        for w, t in groups():
            seg, pre, base = locate(w)
            # the kept sub-boxes that meet their row (on an axis before a,
            # the one that holds the row's point) and their points inside
            # the lattice, as flat indices sorted into lattice order
            J = r * np.vstack([p // _BOX for p in pre] + [seg, tail[:, t]])[:, :, None] + place
            kept = np.array(refine(base + tail_boxes[t]), dtype=bool)
            for d, p in enumerate(pre):
                kept &= J[d] == (p // _SUB)[:, None]
            index = _SUB * J[a:, kept][:, :, None] + corner
            inside = (index < sizes).all(axis=0)
            prefix = [np.broadcast_to(p[:, None, None], kept.shape + corner.shape[-1:])[kept][inside]
                      for p in pre]
            flat = np.sort(np.ravel_multi_index(tuple(prefix) + tuple(index[:, inside]), counts))
            for i in range(0, flat.size, _CHUNK):
                X = np.empty((min(_CHUNK, flat.size - i), n))
                for d, on_axis in enumerate(np.unravel_index(flat[i : i + _CHUNK], counts)):
                    X[:, d] = axes[d][on_axis]
                yield X

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse ``"201x201:[0,10]x[0,1]"`` into a GridSpec."""
        try:
            counts_part, ranges_part = text.split(":", 1)
            counts = [int(tok) for tok in counts_part.lower().split("x")]
            ranges = []
            for tok in ranges_part.lower().split("x"):
                tok = tok.strip()
                if not (tok.startswith("[") and tok.endswith("]")):
                    raise ValueError(tok)
                lo_s, hi_s = tok[1:-1].split(",")
                ranges.append((float(lo_s), float(hi_s)))
        except (ValueError, IndexError) as exc:
            raise SchemaError(f"cannot parse grid spec {text!r}") from exc
        if len(counts) != len(ranges):
            raise SchemaError(f"grid spec {text!r}: counts and ranges differ in length")
        return cls(
            lows=tuple(r[0] for r in ranges),
            highs=tuple(r[1] for r in ranges),
            counts=tuple(counts),
        )
