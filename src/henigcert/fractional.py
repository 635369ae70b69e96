"""Multiobjective fractional programs and the proper-efficiency oracle.

A problem holds m ratio objectives f_i/g_i (the stored denominator object
is -g_i, which is the convex one), p constraint components h with
h(x) in -Y+, and a polyhedral set C.  The parametric reformulation at a
candidate point keeps each objective as the pair (f_i, nu_i * (-g_i)) so
the certificate layer can address the two summands separately.

The efficiency oracle is a grid scan: a point is refuted at dilation eps
when some feasible lattice point's ratio-difference vector v lies in
-K_eps* (excluding near-ties), i.e. max(v) + eps*sum(v) <= TOL_CONE.
Since -K_eps* only grows with eps, the verdict is the first eps of the
descending ladder with no counterexample, the strongest grid certificate
available, or Dominated when a single sample refutes every rung.  Grid
verdicts mean "no counterexample on this grid", never a proof over the
continuum.

The oracle has one path.  ``henig_check`` takes the ``candidate`` at xbar
(the one test and evaluation of xbar, which every entry point here and in
the certificate layer goes through) and hands its ``ParametricProblem``
to ``_grid_verdicts``, the one walk over the lattice, which always decides
both the ratio problem and the reformulation; ``henig_check_bruteforce`` and
``henig_check_parametric`` return one of the two verdicts.  The walk goes
over the lattice in batches, each the points of a range of lattice order
past the one before, at most a chunk of points at a time, so its memory
does not grow with the grid.  Per piece it takes the feasibility mask and
evaluates each f_i and -g_i once at the feasible samples; the ratio
verdict and the reformulation's share those values.  Each verdict is
accumulated by a ``_LadderScan``: rounding is monotone, so one sample's
hits form a prefix of the descending ladder (sum(v) < 0) or a suffix
(sum(v) > 0), and the rungs hit so far are two runs [0, lo) and [hi, R)
tracked across pieces; a sample hitting both end rungs hits them all.
Of those, the one of least flat index decides Dominated (the first in
lattice order), and the walk stops after the batch in which both
verdicts are decided.

On a lattice of more than one chunk a bound pass (``_BoundPass``) first
skips the lattice points that provably change nothing.  The lattice is
cut into boxes of at most ``grids._BOX`` points per axis, and every
max-affine f_i, -g_i and h_j and every row of C is bounded on every box:
a piece's least value over a box is b + sum_d min(a_d lo_d, a_d hi_d),
its terms formed per axis for the segments a slab of boxes needs.  Each
box gets two booleans: some point of it may be feasible (no row of C or
of the cone test fails on all of it), and some point of it may hit the
first or the last rung of either comparison (the hit test
max(v) + eps*sum(v) <= TOL_CONE is linear in eps, and its computed value
monotone in eps, so those two ends cover every rung).  The walk
(``_BoundPass.walk``) takes the boxes where both hold in box order, a
batch at a time: ``_BoundPass.slab`` boxes (21 on the benchmark's 20^4
checks) and the rest of the last one's segment on the first axis, so
the batch is a range of lattice order.  One ``sub_codes`` call per batch
gives its boxes' sub-boxes of at most ``grids._SUB`` points per axis the
same two booleans by the same rows, tests and margins (a sub-box bound is
still an (n + 1)-term sum), and only the points of the sub-boxes where
both hold are built, from their multi-indices, and evaluated.  A sample
left out hits no rung, and a ``_LadderScan`` changes only on samples that
hit, so every verdict, witness and equivalence flag is the one of the
full walk; only whether any sample was feasible, or fed a comparison,
could differ, so when the walk ends without one it walks again every box
and sub-box that may be feasible, whether or not it may hit.  The pass
is skipped, and the walk takes the plain chunks, on one chunk (evaluated
in one batch for less than the pass costs), when a sub-box holds more
than a chunk (2^n > ``grids._CHUNK``), or when an f_i or -g_i has no
bounds (a box is left out for missing only when both comparisons miss).
Whatever the path, C's test is skipped only when the box the lattice's
axes span passes it whole (``_lattice_in_C``).  On the benchmark's
seed-1 20^4 checks an efficient check tests 208 lattice points (mean) of
160,000 in 1.4 ``sub_codes`` calls, and a dominated one 3,023 in 1.25.

The bounds hold for the computed values, not just the exact ones.  Each
piece bound is widened by twice (n + 2) eps times |b| + sum_d |a_d|
max |x_d|, plus the smallest normal float, which covers the rounding of
the product in any summation order (fused or not) and of the bound's own
sum twice over; the cone rows get the same for their p-term products,
and the ratio sums twice the rounding of an m-term sum.  The division,
the nu subtraction and the reformulation's f + nu * (-g) need no margin:
rounding is monotone, so the same operation on the bounds bounds the
computed result.  A black-box or scaled function, or one on a restricted
domain, has no bound, so a box is never dropped for what it might do.

Every per-sample stack of the scan (constraint values, ratios, objective
values, their differences) is stored (k, N), C-contiguous, one row per
component with the N samples along the last axis; the batch evaluators
return it as an (N, k) view.  k, a count of objectives or constraint
components, is small, so a max, sum or all over it is k - 1 elementwise
passes over whole rows, where the (N, k) layout ran numpy's inner loop
once per sample over k values.  Masks select samples with
``np.compress(..., axis=1)``, which keeps the result C-contiguous (boolean
indexing ``R[:, ok]`` returns it F-ordered).
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import PolyhedralCone, in_minus_cone_batch
from .convex import Polyhedron, PolyhedralFn, ScaledFn
from .errors import DenominatorNearZero, DimensionMismatch, PointOutsideDomain, UnsupportedData
from . import grids
from .grids import GridSpec
from .tolerances import PHI_ZERO_TOL, TOL_CONE, TOL_DIV, TOL_FEAS, ZERO_DIFF_TOL

DEFAULT_LADDER = tuple(2.0 ** -k for k in range(21))


class FractionalProblem:
    """Problem data: minimize (f_1/g_1, ..., f_m/g_m) over h(x) in -Y+, x in C."""

    def __init__(self, n: int, objectives, hmap, cone: PolyhedralCone, C: Polyhedron):
        self.n = int(n)
        self.objectives = [(f, ng) for f, ng in objectives]
        self.hmap = list(hmap)
        self.cone = cone
        self.C = C
        if self.m < 2:
            raise DimensionMismatch("need at least two ratio objectives")
        if self.p < 1:
            raise DimensionMismatch("need at least one constraint component")
        if cone.p != self.p:
            raise DimensionMismatch("cone dimension does not match h components")
        if C.n != self.n:
            raise DimensionMismatch("C dimension does not match decision space")
        for f, ng in self.objectives:
            if f.dim != self.n or ng.dim != self.n:
                raise DimensionMismatch("objective dimension does not match")
        for h in self.hmap:
            if h.dim != self.n:
                raise DimensionMismatch("constraint dimension does not match")

    @property
    def m(self) -> int:
        return len(self.objectives)

    @property
    def p(self) -> int:
        return len(self.hmap)

    def h_values(self, x) -> np.ndarray:
        x = np.asarray(x, float).reshape(-1)
        return np.array([h.eval(x) for h in self.hmap])

    def h_values_batch(self, X) -> np.ndarray:
        """Constraint values, shape (N, p): the transpose of a (p, N) stack."""
        X = np.asarray(X, float)
        H = np.empty((self.p, X.shape[0]))
        for j, h in enumerate(self.hmap):
            H[j] = h.eval_batch(X)
        return H.T


def feasible_mask(prob: FractionalProblem, X, in_C=False) -> np.ndarray:
    """Feasibility at every row of X, within TOL_FEAS.  in_C marks every
    row as known to pass C's test (the grid oracle proves it for a whole
    lattice, ``_lattice_in_C``), which is then skipped."""
    X = np.asarray(X, float)
    ok = np.ones(X.shape[0], dtype=bool) if in_C else prob.C.contains_batch(X)
    H = prob.h_values_batch(X).T
    ok &= np.isfinite(H).all(axis=0)
    safe = np.where(ok, H, 0.0)  # keep NaN/inf out of the cone test
    ok &= in_minus_cone_batch(prob.cone, safe.T, tol=TOL_FEAS)
    return ok


# bound once, so that a wrapper put on the module's feasible_mask (a
# tracer's, a test's) sees the lattice walks and not the candidate checks
_feasible_rows = feasible_mask


def feasible(prob: FractionalProblem, x) -> bool:
    """``feasible_mask`` on one row: a point and a lattice sample at it agree."""
    x = np.asarray(x, float).reshape(-1)
    if x.shape[0] != prob.n:
        raise DimensionMismatch("point dimension does not match problem")
    return bool(_feasible_rows(prob, x[None])[0])


def _ratio_values(prob: FractionalProblem, x):
    """Every f_i(x), -g_i(x) and nu_i = f_i(x)/g_i(x); an infinite value
    or an |g_i(x)| below TOL_DIV is refused."""
    F, NG = np.empty((2, prob.m))
    for i, (f, ng) in enumerate(prob.objectives):
        NG[i] = ng.eval(x)
        if not np.isfinite(NG[i]):
            raise PointOutsideDomain(f"objective {i}: denominator infinite at xbar")
        if abs(NG[i]) < TOL_DIV:
            raise DenominatorNearZero(
                f"objective {i}: |g(xbar)| = {abs(NG[i]):.3e} below {TOL_DIV:g}"
            )
        F[i] = f.eval(x)
        if not np.isfinite(F[i]):
            raise PointOutsideDomain(f"objective {i}: numerator infinite at xbar")
    return F, NG, F / -NG + 0.0  # normalize -0.0 away


def nu_values(prob: FractionalProblem, xbar) -> np.ndarray:
    """Ratio vector nu_i = f_i(xbar)/g_i(xbar), with g recovered as -neg_g."""
    return _ratio_values(prob, np.asarray(xbar, float).reshape(-1))[2]


@dataclass(frozen=True, eq=False)
class Candidate:
    """A point x of one problem with every f_i(x), -g_i(x), nu_i and h_j(x)."""

    prob: FractionalProblem
    x: np.ndarray
    f: np.ndarray
    neg_g: np.ndarray
    nu: np.ndarray
    h: np.ndarray


def candidate(prob: FractionalProblem, xbar) -> Candidate:
    """The candidate at xbar, refusing a point of another dimension, not
    feasible within TOL_FEAS, or where a ratio is not defined; a Candidate
    of prob is returned as it is, one of another problem evaluated again."""
    if isinstance(xbar, Candidate):
        if xbar.prob is prob:
            return xbar
        xbar = xbar.x
    x = np.array(xbar, float).reshape(-1)
    if not feasible(prob, x):
        raise PointOutsideDomain(f"candidate point is not feasible within tol_feas={TOL_FEAS:g}")
    return Candidate(prob, x, *_ratio_values(prob, x), prob.h_values(x))


def _objective_stacks(prob: FractionalProblem, X):
    """Each f_i and -g_i at every row of X, as two C-contiguous (m, N) stacks."""
    F, NG = np.empty((2, prob.m, X.shape[0]))
    for i, (f, ng) in enumerate(prob.objectives):
        F[i] = f.eval_batch(X)
        NG[i] = ng.eval_batch(X)
    return F, NG


def _well_defined(F, G) -> np.ndarray:
    """Where a ratio F/G is finite with |G| at least TOL_DIV, elementwise."""
    return np.isfinite(G) & np.isfinite(F) & (np.abs(G) >= TOL_DIV)


def ratio_matrix(prob: FractionalProblem, X):
    """Ratio rows for a batch of points, shape (N, m): the transpose of an
    (m, N) stack; second output flags rows where every denominator clears
    TOL_DIV and every value is finite."""
    F, NG = _objective_stacks(prob, np.asarray(X, float))
    G = -NG
    good = _well_defined(F, G)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.where(good, F / np.where(good, G, 1.0), 0.0)
    return R.T, good.all(axis=0)


class ParametricProblem:
    """The convex reformulation at a candidate: objectives phi_i = f_i +
    nu_i*(-g_i), stored as the summand pair, same constraints as the base."""

    def __init__(self, cand: Candidate):
        self.base, self.xbar, self.nu = cand.prob, cand.x, cand.nu
        if (self.nu < 0).any():
            raise UnsupportedData(
                "parametric reformulation needs nonnegative ratios nu; "
                f"got {self.nu.tolist()}"
            )
        self.phi = [(f, ScaledFn(v, ng)) for v, (f, ng) in zip(self.nu, self.base.objectives)]
        vals = self._phi_stack(cand.f[:, None], cand.neg_g[:, None])[:, 0]
        if (np.abs(vals) > PHI_ZERO_TOL * (1.0 + np.abs(cand.f) + self.nu * np.abs(cand.neg_g))).any():
            raise DimensionMismatch(
                "parametric objectives do not vanish at xbar; got "
                f"{vals.tolist()}"
            )

    @property
    def m(self) -> int:
        return self.base.m

    def _phi_stack(self, F, NG) -> np.ndarray:
        """phi from the (m, N) stacks of f and -g, by ScaledFn's rule: the
        second summand is c * (-g_i), or zeros when c is 0."""
        P = np.empty_like(F)
        for i, (_, s) in enumerate(self.phi):
            P[i] = F[i] + (s.c * NG[i] if s.c != 0.0 else 0.0)
        return P


def parametric_problem(prob: FractionalProblem, xbar) -> ParametricProblem:
    """Build the reformulation at a candidate point (``candidate``).

    Violations of the nonnegative-numerator / positive-denominator
    assumption are reported as warnings, not errors: the machinery only
    needs nu >= 0 and g(xbar) != 0 at the candidate itself.
    """
    cand = candidate(prob, xbar)
    for i, (fv, gv) in enumerate(zip(cand.f, -cand.neg_g)):
        if fv < 0:
            warnings.warn(f"objective {i}: numerator negative at xbar (f = {fv:g})")
        if gv <= 0:
            warnings.warn(f"objective {i}: denominator not positive at xbar (g = {gv:g})")
    return ParametricProblem(cand)


@dataclass(frozen=True)
class EfficiencyVerdict:
    """Outcome of the grid oracle.

    kind "properly_efficient": no counterexample on the grid at dilation
    eps_witness (and hence at any smaller eps).  kind "dominated": the
    counterexample is feasible and its ratio-difference vector lies in
    -K_eps* at every ladder eps.  kind "inconclusive": reason says why.
    """

    kind: str
    grid: Optional[GridSpec] = None
    eps_witness: Optional[float] = None
    counterexample: Optional[np.ndarray] = None
    at_eps: Optional[float] = None
    reason: Optional[str] = None

    @classmethod
    def properly_efficient(cls, eps, grid):
        return cls(kind="properly_efficient", eps_witness=float(eps), grid=grid)

    @classmethod
    def dominated(cls, x, at_eps, grid):
        return cls(
            kind="dominated",
            counterexample=np.asarray(x, float),
            at_eps=float(at_eps),
            grid=grid,
        )

    @classmethod
    def inconclusive(cls, reason, grid=None):
        return cls(kind="inconclusive", reason=str(reason), grid=grid)


def _validate_ladder(ladder):
    ladder = [float(e) for e in (DEFAULT_LADDER if ladder is None else ladder)]
    if not ladder or any(e <= 0 for e in ladder):
        raise ValueError("ladder must be a nonempty list of positive eps")
    if not np.isfinite(ladder).all():
        raise ValueError("ladder eps must be finite")
    return sorted(set(ladder), reverse=True)


class _LadderScan:
    """The ladder verdict of one comparison, fed a piece of samples at a
    time with their flat indices.

    A sample with difference vector v hits rung eps when
    fl(max(v) + fl(eps*S)) <= TOL_CONE, S = sum(v); since rounding is
    monotone, max_i fl(v_i + c) == fl(max(v) + c), and the test matches
    cones.in_minus_k_eps_polar_batch bit for bit given the same sum.
    Monotone rounding also makes fl(eps*S) monotone in eps, so for S < 0 a
    sample's hits form a prefix of the descending ladder, for S > 0 a
    suffix, and for S == 0 all rungs or none.  The rungs hit by some sample
    so far are therefore [0, lo) and [hi, R), and a sample that hits both
    the top and the bottom rung hits all of them.  Such a sample decides
    the scan, and the one of least flat index fed is the Dominated witness;
    without one, the first rung no sample hits, ladder[lo] when lo < hi, is
    the properly efficient eps.
    """

    def __init__(self, ladder, grid):
        self.ladder, self.grid = ladder, grid
        self.lo, self.hi = 0, len(ladder)
        self.fed = False
        self.verdict = None

    def feed(self, D, X, flat):
        """D holds one piece's differences as a C-contiguous (m, k) stack,
        X the k samples as rows and flat their flat indices.  The sum is a
        running add over the m rows, equal to numpy's row sum of the (k, m)
        transpose for m <= 7; from m = 8 on that row sum is pairwise and
        the two may differ in the last bit."""
        self.fed = True
        vmax, S = D.max(axis=0), D.sum(axis=0)
        # a tie with the candidate (every |v_i| within ZERO_DIFF_TOL)
        # never refutes: inf + eps*S is inf or nan, and fails the test
        vmax[(vmax <= ZERO_DIFF_TOL) & (D.min(axis=0) >= -ZERO_DIFF_TOL)] = np.inf

        def hits(eps):
            return vmax + eps * S <= TOL_CONE

        ladder = self.ladder
        every = (hits(ladder[0]) & hits(ladder[-1])).nonzero()[0]
        if every.size:
            i = every[np.argmin(flat[every])]
            if self.verdict is None or flat[i] < self.first:
                self.first = flat[i]
                self.verdict = EfficiencyVerdict.dominated(X[i], ladder[-1], self.grid)
            return
        while self.lo < self.hi and hits(ladder[self.lo]).any():
            self.lo += 1
        while self.hi > self.lo and hits(ladder[self.hi - 1]).any():
            self.hi -= 1

    def result(self) -> EfficiencyVerdict:
        if self.verdict is not None:
            return self.verdict
        if self.lo < self.hi:
            return EfficiencyVerdict.properly_efficient(self.ladder[self.lo], self.grid)
        # tolerance slack near the boundary can leave every rung refuted
        # by some sample but none by a single one
        return EfficiencyVerdict.inconclusive(
            "every ladder eps is refuted but no single witness dominates at all of them",
            self.grid,
        )


def _keep(good, S, *rows):
    """The columns of the (m, k) stack S and the entries along the first
    axis of each of rows where good holds (``np.compress``, several times
    faster than boolean indexing here)."""
    if good.all():
        return (S, *rows)
    return (np.compress(good, S, axis=1), *(np.compress(good, a, axis=0) for a in rows))


# The bound pass.  A computed max-affine piece, fl(fl(a.x) + b), is within
# (n + 1) u size of a.x + b, u = eps / 2 and size = |b| + sum_d |a_d| |x_d|,
# whatever the order and fusing of the product's sums; a box bound formed
# from n + 1 rounded terms is as close to the exact one.  Widening each
# bound by twice (n + 2) eps size, plus the smallest normal float for
# products that underflow, covers both with room to spare; size is taken
# over the lattice's box, so the widening is one offset per piece.
_SLAB_CELLS = 2 ** 17  # bound cells formed at a time, so the pass's memory is flat too
# the sub-box bounds of a few boxes at a time: their broadcast sums and the
# transposed copy stay small enough for numpy to reuse their memory
_SUB_SLAB_CELLS = 2 ** 15
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _widening(size, terms):
    return 2.0 * ((terms + 2) * _EPS * size + _TINY)


def _has_piece_data(fn) -> bool:
    """Whether the bound pass can bound fn: max-affine pieces on all of R^n."""
    return isinstance(fn, PolyhedralFn) and fn.domain.is_full_space()


def _has_bounds(prob: FractionalProblem) -> bool:
    """Whether the bound pass can drop a box for missing every rung: that
    takes both scans' bounds, and the ratios' need every f_i and -g_i
    (the reformulation's need no more)."""
    return all(_has_piece_data(fn) for pair in prob.objectives for fn in pair)


def _bound_rows(prob, reach):
    """The affine rows the bound pass bounds, with their lower and upper
    offsets: every f_i, then every -g_i, then every h_j, each padded to
    kmax pieces by cycling through its own (which leaves the max
    unchanged), then C's equality and inequality rows with no offset, as
    its test compares the product alone.  A function without piece data on
    all of R^n (a black box, a scaled function, a restricted domain) gets
    zero rows with offsets -inf and inf: no bound.  reach[d] bounds |x_d|
    on the lattice."""
    fns = [f for f, _ in prob.objectives] + [ng for _, ng in prob.objectives] + prob.hmap
    known = [_has_piece_data(fn) for fn in fns]
    kmax = max([fn.npieces for fn, k in zip(fns, known) if k], default=1)
    pieces = [fn for fn, k in zip(fns, known) if k]
    # one stack of the known pieces and a zero row, picked from once
    A = np.vstack([fn.A for fn in pieces] + [np.zeros((1, prob.n))])
    b = np.concatenate([fn.b for fn in pieces] + [np.zeros(1)])
    pick, start = [], 0
    for fn, k in zip(fns, known):
        pick += [start + i % fn.npieces for i in range(kmax)] if k else [len(b) - 1] * kmax
        start += fn.npieces if k else 0
    A = np.vstack([A[pick], prob.C.E, prob.C.A])
    b = np.concatenate([b[pick], np.zeros(prob.C.nrows)])
    unknown = np.repeat([not k for k in known] + [False], [kmax] * len(fns) + [prob.C.nrows])
    widen = _widening(np.abs(b) + np.abs(A) @ reach, prob.n)
    return A, np.where(unknown, -np.inf, b - widen), np.where(unknown, np.inf, b + widen), kmax


def _no_rung(W, ends):
    """Per scan and box, from the (scans, m, boxes) stack W of lower bounds
    on the scans' difference vectors: whether its samples hit neither
    ladder end.  Rounding is monotone, so the computed max(v) + eps*sum(v)
    is at least fl(max(W) + fl(eps * S)) for S at most every computed sum
    of v: a sum of W in any order, less twice the rounding of an m-term
    sum."""
    top = W.max(axis=1)
    S = W.sum(axis=1)
    S -= 2 * W.shape[1] * _EPS * np.abs(W).sum(axis=1)
    return (top + ends[0] * S > TOL_CONE) & (top + ends[1] * S > TOL_CONE)


class _BoundPass:
    """The bound pass on one lattice: every affine row (the pieces of f, -g
    and h, C's rows) with its offsets, and the walk over the boxes it keeps.
    A piece's least value over a box is b + sum_d min(a_d lo_d, a_d hi_d),
    separable over the axes, so a box's bounds are its offsets plus one
    term per axis (``_terms``, the least and greatest a_d x_d over a
    segment of ``grids._BOX`` or ``grids._SUB`` points): an (n + 1)-term
    sum whatever the box's size, under the same widening.  A stack of bounds
    holds every row's lower bound, then the upper bounds of the rows from
    the denominators' to C's equality rows (no test reads a numerator's
    or an inequality row's upper bound)."""

    def __init__(self, prob: FractionalProblem, grid: GridSpec, ladder, param):
        m, C = prob.m, prob.C
        self.grid, self.axes = grid, grid.axes()
        reach = np.array([max(-axis.min(), axis.max()) for axis in self.axes])
        self.A, lo_off, hi_off, self.kmax = _bound_rows(prob, reach)
        self.m, self.nf, self.nC, self.nE = m, 2 * m + prob.p, C.nrows, C.E.shape[0]
        self.upper = self.A.shape[0]  # where the upper bounds start in a stack
        self.up = slice(m * self.kmax, self.nf * self.kmax + self.nE)
        self.offsets = np.concatenate([lo_off, hi_off[self.up]])[:, None]
        # box and sub-box segments per axis
        self.shape, self.halves = ([-(-c // edge) for c in grid.counts] for edge in (grids._BOX, grids._SUB))
        self.rhs, self.d = (C.b + TOL_FEAS)[:, None], C.d[:, None]
        H = prob.cone.H
        self.H_pos, self.H_neg, self.H_abs = np.maximum(H, 0.0), np.minimum(H, 0.0), np.abs(H)
        self.nu = param.nu[:, None]
        self.c = np.array([s.c for _, s in param.phi])[:, None]
        self.ends = (ladder[0], ladder[-1])
        # boxes per slab of sub_codes, and the fewest a batch of the walk takes
        self.slab = max(1, _SUB_SLAB_CELLS // (self.offsets.shape[0] * 2 ** grid.ndim))

    def _terms(self, d, seg, edge):
        """The least a_d x_d of every row a, then the greatest of the rows
        with upper bounds, over each segment of ``edge`` consecutive points
        on axis d numbered in seg: a (rows, len(seg)) stack.  A segment's
        least and greatest coordinates are taken over its points (the last
        segment may hold fewer)."""
        axis = self.axes[d]
        x = axis[np.minimum(seg[:, None] * edge + np.arange(edge), axis.size - 1)]
        a = self.A[:, d, None]
        p, q = a * x.min(axis=1), a * x.max(axis=1)
        return np.vstack([np.minimum(p, q), np.maximum(p[self.up], q[self.up])])

    def box_codes(self):
        """The two booleans (``_kept``) of every box, in box order, as two
        arrays (feasible, hit).  The sums are formed by broadcasting the
        per-axis terms, a slab of at most ``_SLAB_CELLS`` bounds at a time:
        the trailing axes whose boxes fit an eighth of a slab are summed
        once, and each slab adds the sums of the leading axes to them, from
        the terms of only the slab's segments."""
        counts = self.shape
        cells = self.offsets.shape[0]
        j, width = len(counts), 1
        while j > 0 and 8 * width * counts[j - 1] * cells <= _SLAB_CELLS:
            j -= 1
            width *= counts[j]
        trail = self.offsets
        for d in range(len(counts) - 1, j - 1, -1):
            trail = _outer_sum(self._terms(d, np.arange(counts[d]), grids._BOX), trail)
        leading = int(np.prod(counts[:j], dtype=np.int64))
        per = max(1, _SLAB_CELLS // (cells * width))
        feasible, hit = np.empty((2, leading * width), dtype=bool)
        strides = [int(np.prod(counts[d + 1 : j])) for d in range(j)]
        # a leading axis's terms are formed once when they fit a slab, else
        # per slab for the run of its segments the slab meets (fewer than
        # the axis's: a slab holds at most _SLAB_CELLS // cells boxes)
        whole = [self._terms(d, np.arange(c), grids._BOX) if c * cells <= _SLAB_CELLS else None
                 for d, c in enumerate(counts[:j])]

        def lead(d, ls):
            s = ls // strides[d]
            if whole[d] is not None:
                return whole[d][:, s % counts[d]]
            return self._terms(d, np.arange(s[0], s[-1] + 1) % counts[d], grids._BOX)[:, s - s[0]]

        for l0 in range(0, leading, per):
            ls = np.arange(l0, min(l0 + per, leading))
            B = trail
            if j:
                B = _outer_sum(sum(lead(d, ls) for d in range(j)), trail)
            sl = slice(l0 * width, (l0 + ls.size) * width)
            feasible[sl], hit[sl] = self._kept(self._reduce(B))
        return feasible, hit

    def sub_codes(self, boxes, hit=True):
        """Per box numbered in boxes, whether each of its sub-boxes may hold
        a feasible point that hits a rung (``_kept``'s two booleans both
        true), or with hit False a feasible point at all: a
        (len(boxes), r ** ndim) boolean array, r = _BOX // _SUB, a box's
        sub-boxes in C order over their place in it; a place past the
        lattice's edge gets a value of no meaning.

        A box's sub-box bounds are its per-axis pairs of terms summed by
        broadcasting, one row of terms per sub-box (so every sum runs
        along the rows), and reduced at once to the functions' bounds:
        only a slab of boxes' pairs and full bounds, at most
        ``_SUB_SLAB_CELLS`` bounds, exist at a time, which keeps every
        array small enough for numpy to reuse its memory, and the reduced
        bounds of at most ``_SLAB_CELLS`` cells are decided at once."""
        r = grids._BOX // grids._SUB
        seg = np.unravel_index(boxes, self.shape)
        places = r ** len(seg)
        rows = self.offsets.shape[0]

        def bounds(start):
            B = self.offsets.T[None]
            for d, s in enumerate(seg):
                # a place past the lattice's edge reads the last sub-box's terms
                sub = np.minimum(r * s[start : start + self.slab, None] + np.arange(r), self.halves[d] - 1)
                pair = self._terms(d, sub.ravel(), grids._SUB).T.reshape(-1, r, rows)
                B = np.add(B[:, :, None], pair[:, None], order="C").reshape(pair.shape[0], -1, rows)
            return self._reduce(np.ascontiguousarray(B.reshape(-1, rows).T))

        out = np.empty((len(boxes), places), dtype=bool)
        # whole slabs decided at once, their reduced bounds at most _SLAB_CELLS
        reduced = 2 * self.nf - self.m + self.nC + self.nE
        group = self.slab * max(1, _SLAB_CELLS // (reduced * places * self.slab))
        for g in range(0, len(boxes), group):
            R = np.hstack([bounds(start) for start in range(g, min(g + group, len(boxes)), self.slab)])
            feasible, may_hit = self._kept(R)
            out[g : g + group] = (feasible & may_hit if hit else feasible).reshape(-1, places)
        return out

    def walk(self, keep, hit=True):
        """The points of the boxes where the boolean array ``keep`` holds
        whose sub-boxes ``sub_codes(boxes, hit)`` keeps, in batches: the
        walk yields one batch at a time, an iterator of (points, their flat
        indices).  A batch takes the next ``slab`` kept boxes in box order
        (or the rest) and every further kept box of the last one's segment
        on the first axis, so it holds whole first-axis box segments: the
        points of a range of lattice order.  Per batch ``sub_codes`` is
        called once, and its kept sub-boxes' points are built from their
        multi-indices, at most ``_CHUNK // _SUB ** ndim`` sub-boxes (so
        ``_CHUNK`` points) at a time."""
        n, counts = len(self.shape), self.grid.counts
        r = grids._BOX // grids._SUB
        # every place of a sub-box in a box, and of a point in a sub-box
        place = np.indices([r] * n).reshape(n, -1)
        corner = np.indices([grids._SUB] * n).reshape(n, 1, -1)
        halves = np.array(self.halves)[:, None]
        sizes = np.array(counts)[:, None, None]
        per = max(1, grids._CHUNK // grids._SUB ** n)

        def batch(boxes):
            kept = self.sub_codes(boxes, hit).ravel()
            # a window of _CHUNK places at a time, so no array of the
            # batch's sub-boxes is built
            for w in range(0, kept.size, grids._CHUNK):
                box, at = np.divmod(w + kept[w : w + grids._CHUNK].nonzero()[0], place.shape[1])
                J = r * np.array(np.unravel_index(boxes[box], self.shape)) + place[:, at]
                J = J[:, (J < halves).all(axis=0)]
                for i in range(0, J.shape[1], per):
                    index = grids._SUB * J[:, i : i + per, None] + corner
                    index = tuple(index[:, (index < sizes).all(axis=0)])
                    yield self.grid.at(index), np.ravel_multi_index(index, counts)

        kept = np.flatnonzero(keep)
        segment = int(np.prod(self.shape[1:], dtype=np.int64))  # boxes per first-axis segment
        i = 0
        while i < kept.size:
            last = kept[min(i + self.slab, kept.size) - 1]
            j = int(np.searchsorted(kept, (last // segment + 1) * segment))
            yield batch(kept[i:j])
            i = j

    def _reduce(self, B):
        """The stack of the functions' lower bounds (the greatest of their
        pieces'), C's rows' lower bounds (equality rows first), the
        denominators' and h's upper bounds, then C's equality rows' upper
        bounds, one column per box, from the stack B of every row's."""
        nf, kmax, upper = self.nf, self.kmax, self.upper
        top = upper + (nf - self.m) * kmax
        return np.vstack([
            B[: nf * kmax].reshape(nf, kmax, -1).max(axis=1), B[nf * kmax : upper],
            B[upper:top].reshape(nf - self.m, kmax, -1).max(axis=1), B[top:],
        ])

    def _kept(self, R):
        """Two booleans per box, from the stack R of ``_reduce``: whether
        some point of it may be feasible, and whether some point of it may
        hit a rung of either comparison."""
        with np.errstate(all="ignore"):
            out, miss = self._decide(R)
        return ~out, ~miss

    def _decide(self, R):
        """Per box, from the stack R of ``_reduce``: (no point of it is
        feasible, no point of it hits a rung of either comparison)."""
        m, nf, nC, nE = self.m, self.nf, self.nC, self.nE
        low, lower = R[:nf], R[nf : nf + nC]
        high, upper = R[nf + nC : 2 * nf + nC - m], R[2 * nf + nC - m :]
        # C: the test is |fl(e.x) - d| <= tol per equality row and
        # fl(a.x) <= fl(b + tol) per inequality row
        out = (lower[nE:] > self.rhs).any(axis=0)
        if nE:
            out |= ((lower[:nE] - self.d > TOL_FEAS) | (upper - self.d < -TOL_FEAS)).any(axis=0)
        # h: the cone test is fl(H_r . h(x)) <= tol, a p-term product per
        # row, least where each term takes the bound its sign picks
        hl, hu = low[2 * m :], high[m:]
        size = self.H_abs @ np.maximum(np.abs(hl), np.abs(hu))
        out |= (self.H_pos @ hl + self.H_neg @ hu - _widening(size, hl.shape[0]) > TOL_FEAS).any(axis=0)
        # the scans, stacked: rounding is monotone, so the computed f/g,
        # f/g - nu and f + c * (-g) are at least the same operations on
        # the bounds; both must miss
        F, NG = low[:m], low[m : 2 * m]
        G_lo = -high[:m]
        W = np.empty((2, m, R.shape[1]))
        np.divide(F, np.where(F >= 0, -NG, G_lo), out=W[0])
        W[0] -= self.nu
        np.add(F, np.where(self.c != 0.0, self.c * NG, 0.0), out=W[1])
        miss = _no_rung(W, self.ends).all(axis=0) & (G_lo > 0).all(axis=0)
        return out, miss


def _outer_sum(a, b):
    """The (rows, i * j) stack a[:, s] + b[:, t] at column s * j + t, row
    major (a broadcast sum would take its layout from the inputs)."""
    return np.add(a[:, :, None], b[:, None, :], order="C").reshape(a.shape[0], -1)


def _lattice_in_C(C: Polyhedron, grid: GridSpec) -> bool:
    """Whether every lattice point passes C's test, by the bound pass's
    test and widening on the box the lattice's axes span: no equality row,
    and every inequality row's greatest value at most fl(b + TOL_FEAS)."""
    if C.E.shape[0]:
        return False
    lo, hi = (np.array([end(axis) for axis in grid.axes()]) for end in (np.min, np.max))
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.maximum(C.A * lo, C.A * hi).sum(axis=1)
        top += _widening(np.abs(C.A) @ np.maximum(np.abs(lo), np.abs(hi)), C.n)
        return bool((top <= C.b + TOL_FEAS).all())


def _grid_verdicts(prob: FractionalProblem, grid: GridSpec, ladder, param: ParametricProblem):
    """The grid oracle: one walk over the lattice in batches, each a range
    of lattice order past the one before, feeding two ``_LadderScan``s,
    the ratio problem's (differences from the candidate ratios param.nu)
    and the reformulation's (param's phi).

    On a lattice of more than one chunk whose f_i and -g_i all have bounds
    and whose sub-boxes fit a chunk, the bound pass (``_BoundPass``) first
    tells per box whether some point may be feasible and whether some
    point may hit a rung of either scan, and its walk takes the boxes where
    both may and of those the sub-boxes where both may; other lattices are
    walked in plain chunks, a batch each.  Per piece: the feasibility mask
    (without C's test when the lattice's own box passes it,
    ``_lattice_in_C``), then each f_i and -g_i once at every feasible
    sample, from which both scans' differences are formed.  A scan decided
    in an earlier batch is fed no more (its witness precedes every later
    sample), and the walk stops after the batch in which both are decided.
    A sample left out hits no rung, so it would leave every ``_LadderScan``
    as it is; but it may be the only feasible one, so when the walk ends
    with no feasible sample, or a scan fed none, every box and sub-box that
    may hold a feasible point is walked, to settle that.  Returns (ratio
    verdict, reformulation verdict).
    """
    ratio, phi = _LadderScan(ladder, grid), _LadderScan(ladder, grid)
    any_feasible = False
    in_C = _lattice_in_C(prob.C, grid)

    def walk(batches, done):
        nonlocal any_feasible
        for batch in batches:
            # a scan decided in this batch is fed to its end, for the
            # witness of least flat index
            feed_ratio, feed_phi = ratio.verdict is None, phi.verdict is None
            for X, flat in batch:
                ok = feasible_mask(prob, X, in_C=in_C)
                if not ok.any():
                    continue
                any_feasible = True
                if not ok.all():
                    X, flat = np.compress(ok, X, axis=0), np.compress(ok, flat)
                F, NG = _objective_stacks(prob, X)
                if feed_ratio:
                    G = -NG
                    good = _well_defined(F, G).all(axis=0)
                    if good.any():
                        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                            D, Xg, fg = _keep(good, F / G, X, flat)
                        D -= param.nu[:, None]
                        ratio.feed(D, Xg, fg)
                if feed_phi:
                    P = param._phi_stack(F, NG)
                    good = np.isfinite(P).all(axis=0)
                    if good.any():
                        phi.feed(*_keep(good, P, X, flat))
            if done():
                return

    def settled():
        return any_feasible and ratio.fed and phi.fed

    def decided():
        return ratio.verdict is not None and phi.verdict is not None

    if grid.size <= grids._CHUNK or 2 ** grid.ndim > grids._CHUNK or not _has_bounds(prob):
        # one chunk is evaluated in one batch either way, for less than the
        # bound pass's fixed cost; a sub-box of more than a chunk's points
        # does not fit a piece; without bounds no box can miss every rung
        starts = range(0, grid.size, grids._CHUNK)
        walk(([(X, np.arange(start, start + len(X)))] for start, X in zip(starts, grid.chunks())), decided)
    else:
        bounds = _BoundPass(prob, grid, ladder, param)
        feasible, hit = bounds.box_codes()
        walk(bounds.walk(feasible & hit), decided)
        if not settled():
            walk(bounds.walk(feasible, hit=False), settled)

    def finish(scan, nothing_fed):
        if not any_feasible:
            return EfficiencyVerdict.inconclusive("no feasible samples", grid)
        if not scan.fed:
            return EfficiencyVerdict.inconclusive(nothing_fed, grid)
        return scan.result()

    return (
        finish(ratio, "no feasible samples with well-defined ratios"),
        finish(phi, "no feasible samples inside the objective domains"),
    )


def _check_grid(prob: FractionalProblem, grid: GridSpec):
    if grid.ndim != prob.n:
        raise DimensionMismatch("grid dimension does not match problem")


def henig_check(prob: FractionalProblem, xbar, grid: GridSpec, ladder=None):
    """The grid oracle at xbar (a point or a ``Candidate`` of prob): the
    ratio problem's verdict, and whether the parametric reformulation
    phi_i = f_i + nu_i * (-g_i), which needs nu >= 0 (``UnsupportedData``
    otherwise), agrees on its kind; both come from one walk over the
    lattice (``_grid_verdicts``)."""
    ladder = _validate_ladder(ladder)
    cand = candidate(prob, xbar)
    _check_grid(prob, grid)
    param = ParametricProblem(cand)
    verdict, phi_verdict = _grid_verdicts(prob, grid, ladder, param)
    return verdict, phi_verdict.kind == verdict.kind


def henig_check_bruteforce(
    prob: FractionalProblem, xbar, grid: GridSpec, ladder=None
) -> EfficiencyVerdict:
    """The ratio problem's verdict alone: ``henig_check(...)[0]``."""
    return henig_check(prob, xbar, grid, ladder)[0]


def henig_check_parametric(
    param: ParametricProblem, grid: GridSpec, ladder=None
) -> EfficiencyVerdict:
    """The reformulation's verdict alone, from the same walk: the comparison
    vector is phi(x) - phi(xbar) = phi(x)."""
    ladder = _validate_ladder(ladder)
    _check_grid(param.base, grid)
    return _grid_verdicts(param.base, grid, ladder, param)[1]
