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
most ``_BOX`` consecutive points per axis (``GridSpec.boxes``), numbered
in C order as the points are.  ``GridSpec.select`` walks the same chunks
but keeps only the points whose box has a nonzero code: a point's box
number is a sum over the axes of its segment times the segment stride,
read off per-axis columns by the same formula as its coordinates, so a
chunk's codes cost one gather and its kept points are built from their
flat indices alone.  A chunk with no kept point is never built, and no
array of the lattice's size is.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SchemaError

MAX_GRID_POINTS = 4_000_000
# lattice points per block of a walk: smaller blocks pay numpy's per-call
# overhead once per few points, larger ones fall out of the CPU caches
_CHUNK = 16384
# lattice points per axis in a box of the grid oracle's bound pass: larger
# boxes give looser bounds, smaller ones more boxes to bound
_BOX = 4


def _read_only(block):
    view = block.view()
    view.flags.writeable = False
    return view


def _strides(counts) -> list:
    """Row-major strides, in elements, of an array of shape counts."""
    strides, s = [], 1
    for c in reversed(counts):
        strides.insert(0, s)
        s *= c
    return strides


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

    def axes(self) -> list:
        return [
            np.linspace(lo, hi, k) if k > 1 else np.array([lo])
            for lo, hi, k in zip(self.lows, self.highs, self.counts)
        ]

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
            yield _read_only(fill(start, min(start + k, size)))

    def boxes(self) -> list:
        """The lattice cut into boxes of at most ``_BOX`` consecutive points
        per axis: per axis, the least and the greatest coordinate of each
        of its ceil(count / _BOX) segments.  A box is one segment per axis;
        boxes are numbered in C order over the segments, as the points are
        over the axes."""
        out = []
        for axis in self.axes():
            starts = np.arange(0, axis.size, _BOX)
            out.append((np.minimum.reduceat(axis, starts), np.maximum.reduceat(axis, starts)))
        return out

    def select(self, codes):
        """The points whose box has a nonzero entry in ``codes`` (one per
        box, in box order), walked as ``chunks`` walks the lattice: per
        chunk with a kept point, its kept rows in lattice order and their
        codes.  A chunk kept whole is a read-only view of the walk's
        buffer; of any other only the kept points are built, from their
        flat indices, into a fresh array."""
        size = self.size
        k = min(_CHUNK, size)
        fill = None
        segments = [-(-c // _BOX) for c in self.counts]
        # a box's number is a sum over the axes; the axes whose period fits
        # a chunk are summed over their common period once, as one axis
        counts, strides = list(self.counts), _strides(self.counts)
        values = [(np.arange(c) // _BOX) * s for c, s in zip(counts, _strides(segments))]
        d0 = next((d for d in range(self.ndim) if counts[d] * strides[d] <= k), self.ndim)
        if d0 < self.ndim:
            period = counts[d0] * strides[d0]
            values[d0:] = [sum(np.tile(np.repeat(v, s), period // (c * s))
                               for v, c, s in zip(values[d0:], counts[d0:], strides[d0:]))]
            counts[d0:] = [period]
        labels = _columns(counts, values, k)
        axes = self.axes()
        for start in range(0, size, k):
            stop = min(start + k, size)
            box = labels[0](start, stop)
            for column in labels[1:]:
                box = box + column(start, stop)
            code = codes[box]
            rows = (code != 0).nonzero()[0]
            if rows.size == stop - start:
                fill = fill or self._filler(k)
                yield _read_only(fill(start, stop)), code
            elif rows.size:
                X = np.empty((rows.size, self.ndim))
                for d, (axis, c, s) in enumerate(zip(axes, self.counts, strides)):
                    X[:, d] = axis[(rows + start) // s % c]
                yield X, code[rows]

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
