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

The oracle has one path.  ``henig_check`` evaluates the candidate once
(feasibility, the ratios nu, and the reformulation's phi at xbar, which
must vanish) and hands the ``ParametricProblem`` to ``_grid_verdicts``,
the one walk over the lattice, which always decides both the ratio
problem and the reformulation; ``henig_check_bruteforce`` and
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
(``_box_codes``) skips the lattice points that provably change nothing
(one chunk is evaluated in one batch either way, for less than the pass
costs).  The lattice is cut into boxes of at most
``grids._BOX`` points per axis, and every max-affine f_i, -g_i and h_j
and every row of C is bounded on every box at once: a piece's least
value over a box is b + sum_d min(a_d lo_d, a_d hi_d).  A box is
dropped when a row of C or of the cone test fails on all of it, or when
neither comparison can hit the first or the last rung: the hit test
max(v) + eps*sum(v) <= TOL_CONE is linear in eps, and its computed value
monotone in eps, so those two ends cover every rung.  A box that passes
C's test whole skips it.  The walk then builds and evaluates only the
kept points, chunk by chunk in lattice order.  A dropped sample hits no
rung, and a ``_LadderScan`` changes only on samples that hit, so every
verdict, witness and equivalence flag is the one of the full walk; only
whether any sample was feasible, or fed a comparison, could differ, so
when the walk ends without one the dropped boxes are walked for it.

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

The kept points of a chunk that is kept whole are a read-only view of
one buffer that each such chunk overwrites (``GridSpec.select``); the
scan keeps rows only through ``np.compress`` copies, the counterexample
among them.

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


def nu_values(prob: FractionalProblem, xbar) -> np.ndarray:
    """Ratio vector nu_i = f_i(xbar)/g_i(xbar), with g recovered as -neg_g."""
    xbar = np.asarray(xbar, float).reshape(-1)
    nu = np.empty(prob.m)
    for i, (f, ng) in enumerate(prob.objectives):
        g = -ng.eval(xbar)
        if not np.isfinite(g):
            raise PointOutsideDomain(f"objective {i}: denominator infinite at xbar")
        if abs(g) < TOL_DIV:
            raise DenominatorNearZero(
                f"objective {i}: |g(xbar)| = {abs(g):.3e} below {TOL_DIV:g}"
            )
        fv = f.eval(xbar)
        if not np.isfinite(fv):
            raise PointOutsideDomain(f"objective {i}: numerator infinite at xbar")
        nu[i] = fv / g
    return nu + 0.0  # normalize -0.0 away


def _candidate_ratios(prob: FractionalProblem, xbar) -> np.ndarray:
    if not feasible(prob, xbar):
        raise PointOutsideDomain("candidate point is not feasible")
    return nu_values(prob, xbar)


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
    """The convex reformulation at xbar: objectives phi_i = f_i + nu_i*(-g_i),
    stored as the summand pair, same constraints as the base problem."""

    def __init__(self, base: FractionalProblem, xbar, nu):
        self.base = base
        self.xbar = np.asarray(xbar, float).reshape(-1)
        self.nu = np.asarray(nu, float).reshape(-1)
        if (self.nu < 0).any():
            raise UnsupportedData(
                "parametric reformulation needs nonnegative ratios nu; "
                f"got {self.nu.tolist()}"
            )
        self.phi = [
            (f, ScaledFn(v, ng)) for v, (f, ng) in zip(self.nu, base.objectives)
        ]
        vals = self.phi_values(self.xbar)
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
    """Build the reformulation at a feasible candidate point.

    Violations of the nonnegative-numerator / positive-denominator
    assumption are reported as warnings, not errors: the machinery only
    needs nu >= 0 and g(xbar) != 0 at the candidate itself.
    """
    xbar = np.asarray(xbar, float).reshape(-1)
    nu = _candidate_ratios(prob, xbar)
    for i, (f, ng) in enumerate(prob.objectives):
        fv, gv = f.eval(xbar), -ng.eval(xbar)
        if fv < 0:
            warnings.warn(f"objective {i}: numerator negative at xbar (f = {fv:g})")
        if gv <= 0:
            warnings.warn(f"objective {i}: denominator not positive at xbar (g = {gv:g})")
    return ParametricProblem(prob, xbar, nu)


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


def _widening(size, terms):
    return 2.0 * ((terms + 2) * np.finfo(float).eps * size + np.finfo(float).tiny)


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
    known = [isinstance(fn, PolyhedralFn) and fn.domain.is_full_space() for fn in fns]
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


def _no_rung(W, ladder):
    """Columns of the (m, boxes) stack W of lower bounds on a scan's
    difference vectors whose samples hit neither ladder end.  Rounding is
    monotone, so the computed max(v) + eps*sum(v) is at least
    fl(max(W) + fl(eps * S)) for S at most every computed sum of v: a sum of
    W in any order, less twice the rounding of an m-term sum."""
    top = W.max(axis=0)
    S = W.sum(axis=0) - 2 * W.shape[0] * np.finfo(float).eps * np.abs(W).sum(axis=0)
    return (top + ladder[0] * S > TOL_CONE) & (top + ladder[-1] * S > TOL_CONE)


def _decide(prob, B, kmax, ladder, param):
    """Per box, from the (2 * rows, boxes) stack B of the rows' lower then
    upper bounds: (the whole box passes C's test, no point of it is
    feasible, no point of it hits a rung of either comparison)."""
    m, p, C = prob.m, prob.p, prob.C
    rows = B.shape[0] // 2
    nf = 2 * m + p
    low = B[: nf * kmax].reshape(nf, kmax, -1).max(axis=1)
    high = B[rows : rows + nf * kmax].reshape(nf, kmax, -1).max(axis=1)
    # C: the test is fl(a.x) <= fl(b + tol) per inequality row and
    # |fl(e.x) - d| <= tol per equality row
    ineq, eq = slice(nf * kmax, nf * kmax + C.A.shape[0]), slice(nf * kmax + C.A.shape[0], rows)
    rhs = (C.b + TOL_FEAS)[:, None]
    in_C = (B[rows:][ineq] <= rhs).all(axis=0) & (C.E.shape[0] == 0)
    out = (B[ineq] > rhs).any(axis=0)
    d = C.d[:, None]
    out |= ((B[eq] - d > TOL_FEAS) | (B[rows:][eq] - d < -TOL_FEAS)).any(axis=0)
    # h: the cone test is fl(H_r . h(x)) <= tol, a p-term product per row
    H = prob.cone.H[:, :, None]
    hl, hu = low[2 * m :], high[2 * m :]
    size = (np.abs(H) * np.maximum(np.abs(hl), np.abs(hu))).sum(axis=1)
    out |= (np.minimum(H * hl, H * hu).sum(axis=1) - _widening(size, p) > TOL_FEAS).any(axis=0)
    # the scans: rounding is monotone, so the computed f/g, f/g - nu and
    # f + c * (-g) are at least the same operations on the bounds
    F, NG, NG_hi = low[:m], low[m : 2 * m], high[m : 2 * m]
    G_lo, G_hi = -NG_hi, -NG
    least = np.where(F >= 0, F / G_hi, F / G_lo)
    miss = (G_lo > 0).all(axis=0) & _no_rung(least - param.nu[:, None], ladder)
    c = np.array([s.c for _, s in param.phi])[:, None]
    miss &= _no_rung(np.where(c != 0.0, F + c * NG, F + 0.0), ladder)
    return in_C, out, miss


def _outer_sum(a, b):
    """The (rows, i * j) stack a[:, s] + b[:, t] at column s * j + t, row
    major (a broadcast sum would take its layout from the inputs)."""
    return np.add(a[:, :, None], b[:, None, :], order="C").reshape(a.shape[0], -1)


def _box_codes(prob: FractionalProblem, grid: GridSpec, ladder, param):
    """The bound pass over ``grid.boxes()``: two codes per box, for the
    walk (``_KEEP``/``_KEEP_IN_C`` where some point may be feasible and hit
    a rung, else 0) and for the rest (the same codes where some point may
    be feasible but none hits a rung).

    Each affine row (the pieces of f, -g and h, C's rows) is bounded on
    every box at once: a piece's least value over a box is
    b + sum_d min(a_d lo_d, a_d hi_d), separable over the axes, so the sums
    are formed by broadcasting per-axis terms, a slab of at most
    ``_SLAB_CELLS`` numbers at a time.  A box's points are all infeasible
    when some row of C or of the cone test fails on the whole box, and
    they miss every rung when both scans' bounds say so (only where every
    denominator is positive on the box, for the ratios)."""
    segments = grid.boxes()
    counts = [lo.size for lo, _ in segments]
    starts = np.cumsum([0] + counts)
    lo, hi = (np.concatenate(ends) for ends in zip(*segments))
    reach = np.maximum.reduceat(np.maximum(np.abs(lo), np.abs(hi)), starts[:-1])
    A, lo_off, hi_off, kmax = _bound_rows(prob, reach)
    # per axis, the least and the greatest a_d x_d over each of its segments
    a = A[:, np.repeat(np.arange(grid.ndim), counts)]
    a, b = a * lo, a * hi
    T = np.vstack([np.minimum(a, b), np.maximum(a, b)])
    terms = [T[:, i:j] for i, j in zip(starts[:-1], starts[1:])]
    cells = 2 * A.shape[0]
    # the trailing axes whose boxes fit an eighth of a slab are summed
    # once; each slab adds the sums of the leading axes to them
    j, width = grid.ndim, 1
    while j > 0 and 8 * width * counts[j - 1] * cells <= _SLAB_CELLS:
        j -= 1
        width *= counts[j]
    trail = np.concatenate([lo_off, hi_off])[:, None]
    for d in range(grid.ndim - 1, j - 1, -1):
        trail = _outer_sum(terms[d], trail)
    leading = int(np.prod(counts[:j]))
    per = max(1, _SLAB_CELLS // (cells * width))
    keep = np.zeros(leading * width, dtype=np.int8)
    rest = np.zeros_like(keep)
    strides = _strides(counts[:j])
    for l0 in range(0, leading, per):
        ls = np.arange(l0, min(l0 + per, leading))
        B = trail
        if j:
            lead = sum(terms[d][:, (ls // strides[d]) % counts[d]] for d in range(j))
            B = _outer_sum(lead, trail)
        in_C, out, miss = _decide(prob, B, kmax, ladder, param)
        code = np.where(in_C, _KEEP_IN_C, _KEEP).astype(np.int8)
        sl = slice(l0 * width, (l0 + ls.size) * width)
        keep[sl] = np.where(out | miss, 0, code)
        rest[sl] = np.where(~out & miss, code, 0)
    return keep, rest


def _grid_verdicts(prob: FractionalProblem, grid: GridSpec, ladder, param: ParametricProblem):
    """The grid oracle: one walk over the lattice chunks in lattice order,
    feeding two ``_LadderScan``s, the ratio problem's (differences from the
    candidate ratios param.nu) and the reformulation's (param's phi).

    On a lattice of more than one chunk, the bound pass (``_box_codes``)
    first drops every box whose points are provably infeasible or
    provably hit no rung of either scan.  Per chunk, then, over the rows
    left: the feasibility mask (without C's test on rows whose box passes
    it whole), then each f_i and -g_i once at every feasible sample, from
    which both scans' differences are formed.  A decided scan is fed no
    more, and the walk stops once both are decided.  A dropped sample hits
    no rung, so it would leave every ``_LadderScan`` as it is; but it may
    be the only feasible one, so when the walk ends with no feasible
    sample, or a scan fed none, the boxes dropped for missing every rung
    are walked too, to settle that.  Returns (ratio verdict, reformulation
    verdict).
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
    else:
        with np.errstate(all="ignore"):
            keep, rest = _box_codes(prob, grid, ladder, param)
        walk(grid.select(keep), decided)
        if not settled():
            walk(grid.select(rest), settled)

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
    """The grid oracle at xbar: the ratio problem's verdict, and whether the
    parametric reformulation at xbar agrees on the verdict kind.

    The candidate is evaluated once: its feasibility and ratios nu give the
    reformulation phi_i = f_i + nu_i * (-g_i) directly, which needs
    nu >= 0 (``UnsupportedData`` otherwise).  Both verdicts then come from
    one walk over the lattice (``_grid_verdicts``).
    """
    ladder = _validate_ladder(ladder)
    nu = _candidate_ratios(prob, xbar)
    _check_grid(prob, grid)
    param = ParametricProblem(prob, xbar, nu)
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
