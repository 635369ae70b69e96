"""Rectangular lattice specifications shared by the grid oracles and the CLI.

The point with flat index j sits at the multi-index
``np.unravel_index(j, counts)``, and every point a walk yields is built
from its multi-index (``GridSpec.at``), as a fresh row-major, (rows, ndim),
C-contiguous array, the layout the whole lattice always had.
``GridSpec.chunks`` yields the lattice in lattice order, ``_CHUNK`` points
at a time, so a scan over the chunks holds one block at a time and its
memory stays flat in the grid size; ``GridSpec.points`` is the whole
lattice at once.  The evaluators form their (rows of A, N) products as
``X @ A.T`` written through the transposed view of the result
(``_kernels.dot_rows``), which rounds as the row-major reference for
N >= 2; a single row keeps ``A @ X.T``, because numpy hands it to gemv,
whose summation order differs.

For the grid oracle's bound pass (``fractional._BoundPass``) the lattice is
cut into boxes of at most ``_BOX`` consecutive points per axis, and each
box into sub-boxes of at most ``_SUB``, both numbered in C order as the
points are; the pass's walk builds only the points of the sub-boxes it
keeps, at most ``_CHUNK`` at a time.
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

    def at(self, index) -> np.ndarray:
        """The lattice points at a multi-index (one integer array per axis,
        all of one length), as a fresh C-contiguous (rows, ndim) array."""
        X = np.empty((len(index[0]), self.ndim))
        for d, (axis, i) in enumerate(zip(self._axes, index)):
            X[:, d] = axis[i]
        return X

    def points(self) -> np.ndarray:
        """All lattice points, shape (size, ndim), lexicographic order."""
        return self.at(np.unravel_index(np.arange(self.size), self.counts))

    def chunks(self):
        """The lattice points in lexicographic order, as consecutive blocks
        of at most ``_CHUNK`` rows (the last one may be shorter), each a
        fresh array."""
        for start in range(0, self.size, _CHUNK):
            yield self.at(np.unravel_index(np.arange(start, min(start + _CHUNK, self.size)), self.counts))

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
