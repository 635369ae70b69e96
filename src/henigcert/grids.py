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
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SchemaError

MAX_GRID_POINTS = 4_000_000
# lattice points per block of a walk: smaller blocks pay numpy's per-call
# overhead once per few points, larger ones fall out of the CPU caches
_CHUNK = 16384


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

    def _blocks(self, k: int):
        """The lattice in lexicographic order, as consecutive blocks of at
        most k points, each of shape (rows, ndim), C-contiguous.  Every
        block is written into the leading rows of one (min(k, size), ndim)
        buffer, so a block is valid only until the next one is drawn.

        Axis d's coordinate at flat index j is axes[d][(j // s) % counts[d]],
        with s the product of the later counts: constant on runs of s
        points and periodic in counts[d] * s.  An axis whose period fits in
        a block is sliced out of one column, precomputed over a period and
        long enough for any offset; a longer one is built from the few runs
        that meet the block.
        """
        size = self.size
        axes, strides = self.axes(), []
        s = 1
        for c in reversed(self.counts):
            strides.insert(0, s)
            s *= c
        columns = []
        for axis, c, s in zip(axes, self.counts, strides):
            period = c * s
            if period > k:
                columns.append(None)
                continue
            span = k if k == size else k + period - 1  # one block starts at 0
            columns.append(np.tile(np.repeat(axis, s), -(-span // period)))
        buffer = np.empty((min(k, size), self.ndim))
        for start in range(0, size, k):
            stop = min(start + k, size)
            out = buffer[: stop - start]
            for d, (axis, c, s, col) in enumerate(zip(axes, self.counts, strides, columns)):
                if col is not None:
                    off = start % (c * s)
                    out[:, d] = col[off : off + stop - start]
                else:
                    runs = np.arange(start // s, (stop - 1) // s + 1)
                    reps = np.full(runs.size, s)
                    reps[0] -= start - runs[0] * s
                    reps[-1] -= (runs[-1] + 1) * s - stop
                    out[:, d] = np.repeat(axis[runs % c], reps)
            yield out

    def points(self) -> np.ndarray:
        """All lattice points, shape (size, ndim), lexicographic order."""
        return next(self._blocks(self.size))

    def chunks(self):
        """The lattice points in lexicographic order, as consecutive blocks
        of at most ``_CHUNK`` rows (the last one may be shorter), each
        overwriting the one before in a single buffer: a caller keeps rows
        only by copying them.  The blocks are read-only views of it."""
        for block in self._blocks(min(_CHUNK, self.size)):
            view = block.view()
            view.flags.writeable = False
            yield view

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

    def to_string(self) -> str:
        counts = "x".join(str(k) for k in self.counts)
        ranges = "x".join(f"[{lo:g},{hi:g}]" for lo, hi in zip(self.lows, self.highs))
        return f"{counts}:{ranges}"
