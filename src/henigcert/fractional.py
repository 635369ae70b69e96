"""Multiobjective fractional programs and the proper-efficiency oracle.

A problem holds m ratio objectives f_i/g_i (the stored denominator object
is -g_i, which is the convex one), p constraint components h with
h(x) in -Y+, and a polyhedral set C.  The parametric reformulation at a
candidate point keeps each objective as the pair (f_i, nu_i * (-g_i)) so
the certificate layer can address the two summands separately.

The efficiency oracle is a grid scan: a point is refuted at dilation eps
when some feasible lattice point's ratio-difference vector v lies in
-K_eps* (excluding near-ties), i.e. max(v) + eps*sum(v) <= TOL_CONE, so
each ladder rung is one pass over every row's max and sum.  Since -K_eps*
only grows with eps, the ladder runs decreasing and stops at the first eps
with no counterexample, the strongest grid certificate available; the rows
refuting every rung so far are kept along the way, and the first one left
at the end is the Dominated witness.  Grid verdicts mean "no
counterexample on this grid", never a proof over the continuum.

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


def feasible_mask(prob: FractionalProblem, X, tol: float = TOL_FEAS) -> np.ndarray:
    X = np.asarray(X, float)
    ok = prob.C.contains_batch(X, tol=tol)
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


def ratio_matrix(prob: FractionalProblem, X):
    """Ratio rows for a batch of points, shape (N, m): the transpose of an
    (m, N) stack; second output flags rows where every denominator clears
    TOL_DIV and every value is finite."""
    X = np.asarray(X, float)
    N = X.shape[0]
    R = np.empty((prob.m, N))
    ok = np.ones(N, dtype=bool)
    for i, (f, ng) in enumerate(prob.objectives):
        g = -ng.eval_batch(X)
        fv = f.eval_batch(X)
        good = np.isfinite(g) & np.isfinite(fv) & (np.abs(g) >= TOL_DIV)
        ok &= good
        with np.errstate(divide="ignore", invalid="ignore"):
            R[i] = np.where(good, fv / np.where(good, g, 1.0), 0.0)
    return R.T, ok


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
        X = np.asarray(X, float)
        P = np.empty((self.m, X.shape[0]))
        for i, (f, s) in enumerate(self.phi):
            P[i] = f.eval_batch(X) + s.eval_batch(X)
        return P.T


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


def _ladder_verdict(D, X, ladder, grid) -> EfficiencyVerdict:
    """Shared scan: D holds the objective-difference rows of the candidate
    against each feasible sample in X (lattice order); the scan reduces its
    C-contiguous (m, N) transpose, which the oracle's own D already is.
    Rounding is monotone, so max_i fl(v_i + c) == fl(max(v) + c): the rung
    test below matches cones.in_minus_k_eps_polar_batch bit for bit given
    the same sum.  The sum here is a running add over the objectives, equal
    to numpy's row sum for m <= 7; from m = 8 on the row sum is pairwise and
    the two may differ in the last bit."""
    Dt = np.ascontiguousarray(D.T)
    nonzero = np.abs(Dt).max(axis=0) > ZERO_DIFF_TOL  # drop ties with the candidate
    vmax, S = Dt.max(axis=0)[nonzero], Dt.sum(axis=0)[nonzero]
    # rows refuting every rung so far; tolerance slack near the boundary
    # can leave every rung refuted by some row but none by a single one
    survives = np.ones(vmax.shape, bool)
    for eps in ladder:
        hits = vmax + eps * S <= TOL_CONE
        if not hits.any():
            return EfficiencyVerdict.properly_efficient(eps, grid)
        survives &= hits
    if survives.any():
        first = np.flatnonzero(nonzero)[np.argmax(survives)]
        return EfficiencyVerdict.dominated(X[first], ladder[-1], grid)
    return EfficiencyVerdict.inconclusive(
        "every ladder eps is refuted but no single witness dominates at all of them",
        grid,
    )


def _feasible_samples(prob: FractionalProblem, grid: GridSpec):
    """The feasible lattice points in lattice order, or None if there are none."""
    X = grid.points()
    if X.shape[1] != prob.n:
        raise DimensionMismatch("grid dimension does not match problem")
    mask = feasible_mask(prob, X)
    return X[mask] if mask.any() else None


def _ratio_verdict(prob, nu, Xf, ladder, grid) -> EfficiencyVerdict:
    if Xf is None:
        return EfficiencyVerdict.inconclusive("no feasible samples", grid)
    R, ok = ratio_matrix(prob, Xf)
    if not ok.any():
        return EfficiencyVerdict.inconclusive(
            "no feasible samples with well-defined ratios", grid
        )
    D = np.compress(ok, R.T, axis=1)
    D -= nu[:, None]
    return _ladder_verdict(D.T, Xf[ok], ladder, grid)


def _parametric_verdict(param, Xf, ladder, grid) -> EfficiencyVerdict:
    if Xf is None:
        return EfficiencyVerdict.inconclusive("no feasible samples", grid)
    P = param.phi_values_batch(Xf).T
    ok = np.isfinite(P).all(axis=0)
    if not ok.any():
        return EfficiencyVerdict.inconclusive(
            "no feasible samples inside the objective domains", grid
        )
    return _ladder_verdict(np.compress(ok, P, axis=1).T, Xf[ok], ladder, grid)


def henig_check_bruteforce(
    prob: FractionalProblem, xbar, grid: GridSpec, ladder=None
) -> EfficiencyVerdict:
    """Grid oracle for Henig proper efficiency of xbar in the ratio problem."""
    ladder = _validate_ladder(ladder)
    nu = _candidate_ratios(prob, xbar)
    return _ratio_verdict(prob, nu, _feasible_samples(prob, grid), ladder, grid)


def henig_check_parametric(
    param: ParametricProblem, grid: GridSpec, ladder=None
) -> EfficiencyVerdict:
    """The same oracle run on the reformulated objectives: the comparison
    vector is phi(x) - phi(xbar) = phi(x)."""
    ladder = _validate_ladder(ladder)
    return _parametric_verdict(param, _feasible_samples(param.base, grid), ladder, grid)


def henig_check(prob: FractionalProblem, xbar, grid: GridSpec, ladder=None):
    """The ratio problem's verdict, and whether its reformulation at xbar
    agrees on the verdict kind, both from one lattice and feasibility mask.
    The reformulation's data-assumption warnings are suppressed."""
    ladder = _validate_ladder(ladder)
    nu = _candidate_ratios(prob, xbar)
    Xf = _feasible_samples(prob, grid)
    verdict = _ratio_verdict(prob, nu, Xf, ladder, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, xbar)
    return verdict, _parametric_verdict(param, Xf, ladder, grid).kind == verdict.kind


def parametric_equivalence_check(
    prob: FractionalProblem, xbar, grid: GridSpec, ladder=None
) -> bool:
    """Do the ratio problem and its reformulation agree on the verdict kind?"""
    # the reformulation's errors come before the ladder and grid ones here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parametric_problem(prob, xbar)
    return henig_check(prob, xbar, grid, ladder)[1]
