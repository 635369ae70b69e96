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
over the lattice in chunks of consecutive points, in lattice order, so
its memory does not grow with the grid.  Per chunk it takes the
feasibility mask and evaluates each f_i and -g_i once at the feasible
samples; the ratio verdict and the reformulation's share those values.
Each verdict is accumulated by a ``_LadderScan``: rounding is monotone,
so one sample's hits form a prefix of the descending ladder (sum(v) < 0)
or a suffix (sum(v) > 0), and the rungs hit so far are two runs [0, lo)
and [hi, R) tracked across chunks; a sample hitting both end rungs hits
them all.  The first such sample in lattice order decides Dominated, and
the walk stops once both verdicts are decided.

Before the walk over a lattice of more than one chunk, a bound pass
(``_BoundPass``) skips the lattice points that provably change nothing
(one chunk is evaluated in one batch either way, for less than the pass
costs).  The lattice is cut into boxes of at most ``grids._BOX`` points
per axis, and every max-affine f_i, -g_i and h_j and every row of C is
bounded on every box at once: a piece's least value over a box is
b + sum_d min(a_d lo_d, a_d hi_d).  A box is dropped when a row of C or
of the cone test fails on all of it, or when neither comparison can hit
the first or the last rung: the hit test max(v) + eps*sum(v) <= TOL_CONE
is linear in eps, and its computed value monotone in eps, so those two
ends cover every rung.  The walk (``GridSpec.select``) then splits every
kept box into its sub-boxes of at most ``grids._SUB`` points per axis,
and bounds and drops them by the same rows, tests and margins: a sub-box
bound is still an (n + 1)-term sum.  It refines a group of rows of boxes
at a time, at most one group ahead, in one ``sub_codes`` call: a group
closes at the first row end after its boxes fill one of ``sub_codes``'s
slabs (``_BoundPass.slab`` boxes, 21 on the benchmark's 20^4 checks), as
a call costs far more than a box.  A box or sub-box that passes C's test
whole skips it.  Only the kept points are built and evaluated, in
lattice order.  A dropped sample hits no rung, and a ``_LadderScan``
changes only on samples that hit, so every verdict, witness and
equivalence flag is the one of the full walk; only whether any sample
was feasible, or fed a comparison, could differ, so when the walk ends
without one the boxes and sub-boxes dropped for missing every rung are
walked for it.  A box is dropped for missing only when both comparisons
miss, and the ratios' bounds need every f_i and -g_i; without them the
pass is skipped and the walk takes the plain chunks.  On the benchmark's
seeded 20^4 checks an efficient check tests 208 lattice points (mean;
6,741 with boxes alone) of 160,000 in 1.5 ``sub_codes`` calls, and a
dominated one 2,884 (9,664 with boxes alone) in 1.3: a group's kept
points go out as one piece, and the walk stops only after the piece
that holds the witness.

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

The kept points of a stretch of the lattice kept whole are a read-only
view of one buffer that each such stretch overwrites
(``GridSpec.select``); the scan keeps rows only through ``np.compress``
copies, the counterexample among them.

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
from .grids import GridSpec, _strides
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
    """Feasibility at every row of X, within TOL_FEAS.  in_C, one flag or
    one per row, marks the rows known to pass C's test (the grid oracle's
    bound pass proves it for whole boxes), which skip it."""
    X = np.asarray(X, float)
    ok = np.ones(X.shape[0], dtype=bool)
    test = ~np.broadcast_to(in_C, ok.shape)
    if test.any():
        ok[test] = prob.C.contains_batch(np.compress(test, X, axis=0))
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
        if np.abs(vals).max() > PHI_ZERO_TOL * (1.0 + np.abs(self.nu).max()):
            raise DimensionMismatch(
                "parametric objectives do not vanish at xbar; got "
                f"{vals.tolist()}"
            )

    @property
    def m(self) -> int:
        return self.base.m

    def phi_values(self, x) -> np.ndarray:
        x = np.asarray(x, float).reshape(-1)
        return np.array([f.eval(x) + s.eval(x) for f, s in self.phi])

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
    """The ladder verdict of one comparison, fed a chunk of samples at a time
    in lattice order.

    A sample with difference vector v hits rung eps when
    fl(max(v) + fl(eps*S)) <= TOL_CONE, S = sum(v); since rounding is
    monotone, max_i fl(v_i + c) == fl(max(v) + c), and the test matches
    cones.in_minus_k_eps_polar_batch bit for bit given the same sum.
    Monotone rounding also makes fl(eps*S) monotone in eps, so for S < 0 a
    sample's hits form a prefix of the descending ladder, for S > 0 a
    suffix, and for S == 0 all rungs or none.  The rungs hit by some sample
    so far are therefore [0, lo) and [hi, R), and a sample that hits both
    the top and the bottom rung hits all of them.  The first such sample in
    lattice order is the Dominated witness, and the scan is decided there;
    without one, the first rung no sample hits, ladder[lo] when lo < hi, is
    the properly efficient eps.
    """

    def __init__(self, ladder, grid):
        self.ladder, self.grid = ladder, grid
        self.lo, self.hi = 0, len(ladder)
        self.fed = False
        self.verdict = None

    def feed(self, D, X):
        """D holds one chunk's differences as a C-contiguous (m, k) stack,
        X the k samples as rows.  The sum is a running add over the m rows,
        equal to numpy's row sum of the (k, m) transpose for m <= 7; from
        m = 8 on that row sum is pairwise and the two may differ in the
        last bit."""
        self.fed = True
        vmax, S = D.max(axis=0), D.sum(axis=0)
        # a tie with the candidate (every |v_i| within ZERO_DIFF_TOL)
        # never refutes: inf + eps*S is inf or nan, and fails the test
        vmax[(vmax <= ZERO_DIFF_TOL) & (D.min(axis=0) >= -ZERO_DIFF_TOL)] = np.inf

        def hits(eps):
            return vmax + eps * S <= TOL_CONE

        ladder = self.ladder
        every = hits(ladder[0]) & hits(ladder[-1])
        if every.any():
            self.verdict = EfficiencyVerdict.dominated(X[np.argmax(every)], ladder[-1], self.grid)
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


def _keep(good, S, X):
    """The columns of the (m, k) stack S and the rows of X where good holds
    (``np.compress``, several times faster than boolean indexing here)."""
    if good.all():
        return S, X
    return np.compress(good, S, axis=1), np.compress(good, X, axis=0)


# The bound pass.  A computed max-affine piece, fl(fl(a.x) + b), is within
# (n + 1) u size of a.x + b, u = eps / 2 and size = |b| + sum_d |a_d| |x_d|,
# whatever the order and fusing of the product's sums; a box bound formed
# from n + 1 rounded terms is as close to the exact one.  Widening each
# bound by twice (n + 2) eps size, plus the smallest normal float for
# products that underflow, covers both with room to spare; size is taken
# over the lattice's box, so the widening is one offset per piece.
_KEEP, _KEEP_IN_C = 1, 2  # codes of a box whose points are tested (C's test due, or passed)
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
    unchanged), then C's inequality and equality rows with no offset, as
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
    A = np.vstack([A[pick], prob.C.A, prob.C.E])
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
    and h, C's rows) with its offsets, and per axis the least and the
    greatest a_d x_d of every row over each segment of ``grids._BOX`` and
    of ``grids._SUB`` points.  A piece's least value over a box is
    b + sum_d min(a_d lo_d, a_d hi_d), separable over the axes, so a box's
    bounds are its offsets plus one term per axis: an (n + 1)-term sum
    whatever the box's size, under the same widening.  A stack of bounds
    holds every row's lower bound, then the upper bounds of the rows from
    the denominators' on (no test reads a numerator's upper bound)."""

    def __init__(self, prob: FractionalProblem, grid: GridSpec, ladder, param):
        m, C = prob.m, prob.C
        reach = np.array([np.abs(axis).max() for axis in grid.axes()])
        A, lo_off, hi_off, self.kmax = _bound_rows(prob, reach)
        self.upper = A.shape[0]  # where the upper bounds start in a stack
        up = slice(m * self.kmax, None)
        self.offsets = np.concatenate([lo_off, hi_off[up]])[:, None]
        boxes = grid.boxes()
        terms = _axis_terms(A, up, boxes + grid.boxes(grids._SUB))
        self.terms, self.shape = terms[: grid.ndim], [lo.size for lo, _ in boxes]
        # the sub-box terms a row per segment, as one pair of rows per box
        # segment (an odd count padded with a copy of its last row, which
        # only a place past the lattice's edge reads)
        self.pairs = [np.vstack([t.T, t.T[-1:]])[: 2 * count].reshape(count, 2, -1)
                      for t, count in zip(terms[grid.ndim :], self.shape)]
        self.m, self.nf, self.nC = m, 2 * m + prob.p, C.nrows
        self.rhs, self.d = (C.b + TOL_FEAS)[:, None], C.d[:, None]
        H = prob.cone.H
        self.H_pos, self.H_neg, self.H_abs = np.maximum(H, 0.0), np.minimum(H, 0.0), np.abs(H)
        self.nu = param.nu[:, None]
        self.c = np.array([s.c for _, s in param.phi])[:, None]
        self.ends = (ladder[0], ladder[-1])
        # boxes per slab of sub_codes, and so per refine call of the walk
        self.slab = max(1, _SUB_SLAB_CELLS // (self.offsets.shape[0] * 2 ** grid.ndim))

    def box_codes(self):
        """The codes (``_codes``) of every box of ``grid.boxes()``, in box
        order.  The sums are formed by broadcasting the per-axis terms, a
        slab of at most ``_SLAB_CELLS`` bounds at a time: the trailing axes
        whose boxes fit an eighth of a slab are summed once, and each slab
        adds the sums of the leading axes to them."""
        terms = self.terms
        counts = [t.shape[1] for t in terms]
        cells = self.offsets.shape[0]
        j, width = len(counts), 1
        while j > 0 and 8 * width * counts[j - 1] * cells <= _SLAB_CELLS:
            j -= 1
            width *= counts[j]
        trail = self.offsets
        for d in range(len(counts) - 1, j - 1, -1):
            trail = _outer_sum(terms[d], trail)
        leading = int(np.prod(counts[:j], dtype=np.int64))
        per = max(1, _SLAB_CELLS // (cells * width))
        keep, rest = np.empty((2, leading * width), dtype=np.int8)
        strides = _strides(counts[:j])
        for l0 in range(0, leading, per):
            ls = np.arange(l0, min(l0 + per, leading))
            B = trail
            if j:
                lead = sum(terms[d][:, (ls // strides[d]) % counts[d]] for d in range(j))
                B = _outer_sum(lead, trail)
            sl = slice(l0 * width, (l0 + ls.size) * width)
            keep[sl], rest[sl] = self._codes(self._reduce(B))
        return keep, rest

    def sub_codes(self, boxes):
        """The two codes of every sub-box (of ``grid.boxes(grids._SUB)``)
        of each box of ``grid.boxes()`` numbered in boxes: two
        (len(boxes), r ** ndim) arrays, r = _BOX // _SUB, a box's
        sub-boxes in C order over their place in it; a place past the
        lattice's edge gets a code of no meaning.

        A box's sub-box bounds are its per-axis pairs of terms summed by
        broadcasting, one row of terms per sub-box (so every sum runs
        along the rows), and reduced at once to the functions' bounds:
        only a few boxes' full bounds, at most ``_SUB_SLAB_CELLS``, exist
        at a time, which keeps every array small enough for numpy to
        reuse its memory."""
        seg = np.unravel_index(boxes, self.shape)
        places = 2 ** len(seg)
        rows = self.offsets.shape[0]
        R = np.empty((2 * (self.nf + self.nC) - self.m, len(boxes) * places))
        for start in range(0, len(boxes), self.slab):
            sl = slice(start, start + self.slab)
            B = self.offsets.T[None]
            for pairs, s in zip(self.pairs, seg):
                pair = pairs[s[sl]]
                B = np.add(B[:, :, None], pair[:, None], order="C").reshape(pair.shape[0], -1, rows)
            B = np.ascontiguousarray(B.reshape(-1, rows).T)
            R[:, start * places : start * places + B.shape[1]] = self._reduce(B)
        keep, rest = self._codes(R)
        return keep.reshape(-1, places), rest.reshape(-1, places)

    def _reduce(self, B):
        """The stack of the functions' lower bounds (the greatest of their
        pieces'), C's rows' lower bounds, the denominators' and h's upper
        bounds, then C's rows' upper bounds, one column per box, from the
        stack B of every row's."""
        nf, kmax, upper = self.nf, self.kmax, self.upper
        top = upper + (nf - self.m) * kmax
        return np.vstack([
            B[: nf * kmax].reshape(nf, kmax, -1).max(axis=1), B[nf * kmax : upper],
            B[upper:top].reshape(nf - self.m, kmax, -1).max(axis=1), B[top:],
        ])

    def _codes(self, R):
        """Two codes per box, from the stack R of ``_reduce``: for the walk
        (``_KEEP`` or ``_KEEP_IN_C`` where some point may be feasible and
        hit a rung, else 0) and for the rest (the same codes where some
        point may be feasible but none hits a rung)."""
        with np.errstate(all="ignore"):
            in_C, out, miss = self._decide(R)
        code = np.where(in_C, _KEEP_IN_C, _KEEP)
        return np.where(out | miss, 0, code), np.where(~out & miss, code, 0)

    def _decide(self, R):
        """Per box, from the stack R of ``_reduce``: (the whole box passes
        C's test, no point of it is feasible, no point of it hits a rung of
        either comparison)."""
        m, nf, nC = self.m, self.nf, self.nC
        low, lower = R[:nf], R[nf : nf + nC]
        high, upper = R[nf + nC : -nC or None], R[R.shape[0] - nC :]
        # C: the test is fl(a.x) <= fl(b + tol) per inequality row and
        # |fl(e.x) - d| <= tol per equality row
        nA = self.rhs.shape[0]
        out = (lower[:nA] > self.rhs).any(axis=0)
        if self.d.size:
            in_C = np.zeros(R.shape[1], dtype=bool)
            out |= ((lower[nA:] - self.d > TOL_FEAS) | (upper[nA:] - self.d < -TOL_FEAS)).any(axis=0)
        else:
            in_C = (upper <= self.rhs).all(axis=0)
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
        return in_C, out, miss


def _axis_terms(A, up, segments):
    """Per axis, the stack of the least a_d x_d of every row a of A, then
    the greatest of the rows in up, over each of the axis's segments
    (given as (least, greatest) coordinates), one column per segment."""
    counts = [lo.size for lo, _ in segments]
    lo, hi = (np.concatenate(ends) for ends in zip(*segments))
    a = A[:, np.repeat(np.tile(np.arange(A.shape[1]), len(counts) // A.shape[1]), counts)]
    p, q = a * lo, a * hi
    T = np.vstack([np.minimum(p, q), np.maximum(p[up], q[up])])
    return [np.ascontiguousarray(t) for t in np.split(T, np.cumsum(counts)[:-1], axis=1)]


def _outer_sum(a, b):
    """The (rows, i * j) stack a[:, s] + b[:, t] at column s * j + t, row
    major (a broadcast sum would take its layout from the inputs)."""
    return np.add(a[:, :, None], b[:, None, :], order="C").reshape(a.shape[0], -1)


def _lattice_code(C: Polyhedron, grid: GridSpec):
    """``_KEEP_IN_C`` when the box spanned by the lattice's axes passes C's
    test whole, by the pass's test and widening (every inequality row's
    greatest value at most fl(b + TOL_FEAS), no equality row), else
    ``_KEEP``."""
    lo, hi = (np.array([end(axis) for axis in grid.axes()]) for end in (np.min, np.max))
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.maximum(C.A * lo, C.A * hi).sum(axis=1)
        top += _widening(np.abs(C.A) @ np.maximum(np.abs(lo), np.abs(hi)), C.n)
        return _KEEP_IN_C if C.E.shape[0] == 0 and (top <= C.b + TOL_FEAS).all() else _KEEP


def _grid_verdicts(prob: FractionalProblem, grid: GridSpec, ladder, param: ParametricProblem):
    """The grid oracle: one walk over the lattice chunks in lattice order,
    feeding two ``_LadderScan``s, the ratio problem's (differences from the
    candidate ratios param.nu) and the reformulation's (param's phi).

    On a lattice of more than one chunk whose f_i and -g_i all have
    bounds, the bound pass (``_BoundPass``) first drops every box whose
    points are provably infeasible or provably hit no rung of either
    scan, and the walk (``GridSpec.select``) splits each kept box into
    its sub-boxes when it reaches the box's group of rows (one
    ``sub_codes`` call per group) and drops those sub-boxes the same way.
    Per yield, then, over the rows left: the feasibility mask (without
    C's test on rows whose sub-box passes it whole), then each f_i and
    -g_i once at every feasible sample, from which both scans'
    differences are formed.  A decided scan is fed no more, and the walk
    stops once both are decided.  A dropped sample hits no rung, so it
    would leave every ``_LadderScan`` as it is; but it may be the only
    feasible one, so when the walk ends with no feasible sample, or a
    scan fed none, the boxes and sub-boxes dropped for missing every rung
    are walked too, in lattice order, to settle that.  Returns (ratio
    verdict, reformulation verdict).
    """
    ratio, phi = _LadderScan(ladder, grid), _LadderScan(ladder, grid)
    any_feasible = False

    def walk(chunks, done):
        nonlocal any_feasible
        # a row kept past its chunk is a compress copy
        for X, code in chunks:
            ok = feasible_mask(prob, X, in_C=code == _KEEP_IN_C)
            if not ok.any():
                continue
            any_feasible = True
            Xf = np.compress(ok, X, axis=0)
            F, NG = _objective_stacks(prob, Xf)
            if ratio.verdict is None:
                G = -NG
                good = _well_defined(F, G).all(axis=0)
                if good.any():
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        D, Xg = _keep(good, F / G, Xf)
                    D -= param.nu[:, None]
                    ratio.feed(D, Xg)
            if phi.verdict is None:
                P = param._phi_stack(F, NG)
                good = np.isfinite(P).all(axis=0)
                if good.any():
                    phi.feed(*_keep(good, P, Xf))
            if done():
                return

    def settled():
        return any_feasible and ratio.fed and phi.fed

    def decided():
        return ratio.verdict is not None and phi.verdict is not None

    if grid.size <= grids._CHUNK:
        # one chunk is evaluated in one batch either way, and its per-row
        # cost is below the bound pass's fixed cost
        walk(((X, _KEEP) for X in grid.chunks()), decided)
    elif not _has_bounds(prob):
        # no box can miss every rung: only C's test is worth bounding, on
        # the lattice's own box
        code = _lattice_code(prob.C, grid)
        walk(((X, code) for X in grid.chunks()), decided)
    else:
        bounds = _BoundPass(prob, grid, ladder, param)
        keep, rest = bounds.box_codes()

        def kept(boxes):
            return bounds.sub_codes(boxes)[0]

        def dropped(boxes):
            return np.where((keep[boxes] != 0)[:, None], bounds.sub_codes(boxes)[1], rest[boxes][:, None])

        walk(grid.select(keep, kept, bounds.slab), decided)
        if not settled():
            walk(grid.select(np.maximum(keep, rest), dropped, bounds.slab), settled)

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
