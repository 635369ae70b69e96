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

The scan is one walk over the lattice in chunks of consecutive points, in
lattice order, so its memory does not grow with the grid.  Per chunk it
takes the feasibility mask and evaluates each f_i and -g_i once at the
feasible samples; the ratio verdict and the reformulation's share those
values.  Each verdict is accumulated by a ``_LadderScan``: rounding is
monotone, so one sample's hits form a prefix of the descending ladder
(sum(v) < 0) or a suffix (sum(v) > 0), and the rungs hit so far are two
runs [0, lo) and [hi, R) tracked across chunks; a sample hitting both end
rungs hits them all.  The first such sample in lattice order decides
Dominated, and the walk stops once every verdict it runs is decided.

Two things keep a chunk cheap.  The chunks are drawn into one buffer
that each overwrites (``GridSpec.chunks``); the scan keeps rows
only through ``np.compress`` copies, the counterexample among them.  And
C's test is decided once per scan: when every point of the box spanned
by the lattice's axes passes it, whatever the rounding of its products
(``Polyhedron.box_passes``: no equality rows, and each row's box maximum
plus a rounding bound within b + TOL_FEAS), each chunk's mask starts
all-True, which is what the test would give.

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

from .cones import TOL_CONE, PolyhedralCone, in_minus_cone, in_minus_cone_batch
from .convex import Polyhedron, ScaledFn
from .errors import DenominatorNearZero, DimensionMismatch, PointOutsideDomain, UnsupportedData
from .grids import GridSpec
from .linprog import TOL_FEAS

TOL_DIV = 1e-9
ZERO_DIFF_TOL = 1e-12

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


def feasible(prob: FractionalProblem, x, tol: float = TOL_FEAS) -> bool:
    x = np.asarray(x, float).reshape(-1)
    if x.shape[0] != prob.n:
        raise DimensionMismatch("point dimension does not match problem")
    if not prob.C.contains(x, tol=tol):
        return False
    hv = prob.h_values(x)
    if not np.isfinite(hv).all():
        return False
    return in_minus_cone(prob.cone, hv, tol=tol)


def feasible_mask(
    prob: FractionalProblem, X, tol: float = TOL_FEAS, in_C: bool = False
) -> np.ndarray:
    """Feasibility at every row of X.  in_C says that every row is known to
    pass C's test at tol (``Polyhedron.box_passes`` on a box holding X),
    which is then skipped."""
    X = np.asarray(X, float)
    ok = np.ones(X.shape[0], dtype=bool) if in_C else prob.C.contains_batch(X, tol=tol)
    H = prob.h_values_batch(X).T
    ok &= np.isfinite(H).all(axis=0)
    safe = np.where(ok, H, 0.0)  # keep NaN/inf out of the cone test
    ok &= in_minus_cone_batch(prob.cone, safe.T, tol=tol)
    return ok


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
        if np.abs(vals).max() > 1e-9 * (1.0 + np.abs(self.nu).max()):
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

    def phi_values_batch(self, X) -> np.ndarray:
        """Objective values, shape (N, m): the transpose of an (m, N) stack."""
        return self._phi_stack(*_objective_stacks(self.base, np.asarray(X, float))).T

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


def _lattice_in_C(C: Polyhedron, grid: GridSpec) -> bool:
    """Does every lattice point pass C's test at TOL_FEAS, however it
    rounds?  Decided on the box spanned by the axes the lattice is built
    from (their min and max, not the spec's bounds)."""
    axes = grid.axes()
    return C.box_passes([a.min() for a in axes], [a.max() for a in axes], TOL_FEAS)


def _grid_verdicts(prob: FractionalProblem, grid: GridSpec, ladder, nu=None, param=None):
    """The grid oracle: one walk over the lattice chunks in lattice order.

    Per chunk: the feasibility mask (without C's test when the lattice's
    box passes it whole), then each f_i and -g_i once at every
    feasible sample; the ratio verdict (against the candidate ratios nu)
    and the reformulation's (param's phi) share those values.  Either
    comparison is skipped when its argument is None, and the walk stops
    once every comparison it runs is decided, which happens at the first
    Dominated witness.  Returns (ratio verdict, reformulation verdict),
    None for a skipped one.
    """
    ratio = None if nu is None else _LadderScan(ladder, grid)
    phi = None if param is None else _LadderScan(ladder, grid)
    scans = [scan for scan in (ratio, phi) if scan is not None]
    in_C = _lattice_in_C(prob.C, grid)
    any_feasible = False
    # X is overwritten by the next chunk; every row kept is a compress copy
    for X in grid.chunks():
        ok = feasible_mask(prob, X, in_C=in_C)
        if not ok.any():
            continue
        any_feasible = True
        Xf = np.compress(ok, X, axis=0)
        F, NG = _objective_stacks(prob, Xf)
        if ratio is not None and ratio.verdict is None:
            G = -NG
            good = _well_defined(F, G).all(axis=0)
            if good.any():
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    D, Xg = _keep(good, F / G, Xf)
                D -= nu[:, None]
                ratio.feed(D, Xg)
        if phi is not None and phi.verdict is None:
            P = param._phi_stack(F, NG)
            good = np.isfinite(P).all(axis=0)
            if good.any():
                phi.feed(*_keep(good, P, Xf))
        if all(scan.verdict is not None for scan in scans):
            break

    def finish(scan, nothing_fed):
        if scan is None:
            return None
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


def henig_check_bruteforce(
    prob: FractionalProblem, xbar, grid: GridSpec, ladder=None
) -> EfficiencyVerdict:
    """Grid oracle for Henig proper efficiency of xbar in the ratio problem."""
    ladder = _validate_ladder(ladder)
    nu = _candidate_ratios(prob, xbar)
    _check_grid(prob, grid)
    return _grid_verdicts(prob, grid, ladder, nu=nu)[0]


def henig_check_parametric(
    param: ParametricProblem, grid: GridSpec, ladder=None
) -> EfficiencyVerdict:
    """The same oracle run on the reformulated objectives: the comparison
    vector is phi(x) - phi(xbar) = phi(x)."""
    ladder = _validate_ladder(ladder)
    _check_grid(param.base, grid)
    return _grid_verdicts(param.base, grid, ladder, param=param)[1]


def henig_check(prob: FractionalProblem, xbar, grid: GridSpec, ladder=None):
    """The ratio problem's verdict, and whether its reformulation at xbar
    agrees on the verdict kind, both from one walk over the lattice.  The
    reformulation's data-assumption warnings are suppressed."""
    ladder = _validate_ladder(ladder)
    nu = _candidate_ratios(prob, xbar)
    _check_grid(prob, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, xbar)
    verdict, phi_verdict = _grid_verdicts(prob, grid, ladder, nu=nu, param=param)
    return verdict, phi_verdict.kind == verdict.kind


def parametric_equivalence_check(
    prob: FractionalProblem, xbar, grid: GridSpec, ladder=None
) -> bool:
    """Do the ratio problem and its reformulation agree on the verdict kind?"""
    # the reformulation's errors come before the ladder and grid ones here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parametric_problem(prob, xbar)
    return henig_check(prob, xbar, grid, ladder)[1]
