"""Sequential optimality certificates for the parametric reformulation.

Three interchangeable certificate forms attest that a candidate point of
the ratio problem is properly efficient, each as a finite table of N
entries approximating the asymptotic conditions:

* conjugate-epigraph form: pairs (functional, height) in the epigraphs of
  the conjugates, with three residual traces driven to zero;
* eps-subdifferential form: the same functionals as gamma_n-approximate
  subgradients and normals at the candidate itself;
* exact form: exact subgradients at nearby points that converge to the
  candidate.

All three read one sum rule at xbar, whose summands are listed once, in
paper order, by a block table built per call from the candidate at xbar
(``fractional.candidate``) and lambda: for each objective i the numerator
lambda_i f_i (block f[i]) and the denominator term lambda_i nu_i (-g_i)
(block w[i]), then the indicator of C (block C), the cone term for Y+ at
h(xbar) (block Y) and the composite (-vstar) o h (block comp).  Each
block owns one field of every form: its functional (xstar, wstar, cstar,
ystar, ustar), its epigraph height (a, b, d, s, t) and its exact point
(x, w, c, y, u).

The table layout is declared here and nowhere else: ``_LAYOUT`` gives
every field its objective axis and entry kind, each form's dataclass
lists its fields in file order and carries its theorem tag, ``FORMS``
maps tags to forms, and ``_form_functions`` gives each form its transfer
and verifier, for ``transfer`` and ``verify_certificate``.
The JSON reader and writer and the CLI derive from these.

The generator, the three verifiers, both transfers and the multiplier check
all walk that table, so membership names come out in table order:

* epigraph form: epi_f[i], epi_w[i] for each i, epi_C, ystar_polar,
  s_nonneg, vstar_polar, epi_comp;
* eps-subdifferential and exact forms: subdiff_f[i], subdiff_w[i] for
  each i, normal_C, normal_Y, vstar_polar, subdiff_comp.

Verifiers check every membership by LP and apply an explicit finite-
horizon convergence rule to the residual traces.  They take one
conjugate LP per block for all its entries, C's as the conjugate of its
indicator; the composite, whose weights w = max(-vstar, 0) change per
entry, takes one per support pattern of w, since the weights enter only
the objective of its separable conjugate LP.  The generator solves
one small LP per entry, minimizing the dual residual over the membership
encodings.  Transfers map an eps certificate up to the epigraph form
(pure arithmetic) and down to the exact form (one nearby-pair search per
block).  A multiplier check covers the classical single-LP condition
that applies when a strict-interior constraint point exists.

The Accept verdict at finite horizon is a documented heuristic: a trace
counts as convergent when its last value clears tol_conv and its tail is
non-increasing up to jitter.  Every report carries this caveat.
"""

from dataclasses import dataclass, fields
from typing import ClassVar, Optional

import numpy as np

from .cones import PolyhedralCone, in_minus_cone_batch
from .convex import (
    Conjugate,
    Polyhedron,
    PolyhedralFn,
    ScaledFn,
    as_polyhedral,
    br_regularize,
    is_zero_fn,
)
from .encodings import (
    BlockLP,
    LinExpr,
    add_composite_subdiff_block,
    add_eps_normal_block,
    add_eps_subdiff_block,
    add_inner_product_eq,
    add_inner_product_ub,
    add_l1_elastic,
    add_linf_elastic,
    add_polar_member,
    expr_sum,
    require_optimal,
)
from .errors import (
    BRSearchFailed,
    ConjugateUnsupported,
    DimensionMismatch,
    HorizonTooShort,
    NumericalFailure,
    UnsupportedData,
    UnsupportedDomain,
)
from .fractional import Candidate, FractionalProblem, candidate
from .linprog import INFEASIBLE, UNBOUNDED, LpSession
from .tolerances import (JITTER, SLATER_MARGIN, TOL_CONV, TOL_MEMBERSHIP, VSTAR_SIGN_TOL,
                         VSTAR_ZERO_TOL)

HEURISTIC_NOTE = (
    "finite-horizon verdict: the limit conditions are checked by the "
    "documented convergence rule (last value within tol_conv, tail "
    "non-increasing up to jitter), which is a heuristic, not a proof"
)

# block kind -> (functional field, epigraph height, exact point, transfer
# label), in paper order; f and w repeat once per objective
_SUMMANDS = {
    "f": ("xstar", "a", "x", "objective"),
    "w": ("wstar", "b", "w", "denominator"),
    "C": ("cstar", "d", "c", "set_C"),
    "Y": ("ystar", "s", "y", "set_Y"),
    "comp": ("ustar", "t", "u", "composite"),
}


def _check_lambda(lam, m: int) -> np.ndarray:
    lam = np.asarray(lam, float).reshape(-1)
    if lam.shape[0] != m:
        raise DimensionMismatch("lambda length does not match objective count")
    if (lam <= 0).any():
        raise ValueError("lambda weights must be strictly positive")
    return lam


def converged(trace, tol_conv: float) -> bool:
    """Finite-horizon convergence rule: trace[-1] <= tol_conv and the last
    ceil(N/2) values are non-increasing up to JITTER."""
    return not _convergence_failures(trace, tol_conv)


def _convergence_failures(trace, tol_conv: float, tol_name: str = "tol_conv") -> list:
    """What fails the convergence rule, one phrase per failing part: a
    tail that rises (its largest rise and the n it reaches) and a last
    value above tol_conv (that value, against the tolerance named
    ``tol_name``); empty when the trace converges."""
    trace = np.asarray(trace, float).reshape(-1)
    N = trace.shape[0]
    if N < 4:
        raise HorizonTooShort(f"need a horizon of at least 4 entries, got {N}")
    start = N - int(np.ceil(N / 2))
    with np.errstate(invalid="ignore"):  # inf - inf: not a rise
        rises = np.diff(trace[start:])
    failures = []
    if (rises > JITTER).any():
        i = int(np.argmax(rises))
        failures.append(f"rises by {rises[i]:.3g} at n={start + i + 2}")
    if not trace[-1] <= tol_conv:
        failures.append(f"ends at {trace[-1]:.3g} above {tol_name} {tol_conv:g}")
    return failures


# ---------------------------------------------------------------------------
# certificate tables


def _layout() -> dict:
    """Every table field -> (has a leading objective axis, entry kind): "s"
    a scalar, "n" a vector in R^n, "p" a vector in R^p per entry.  Each
    block owns a functional, a height and a point; f and w blocks carry
    the objective axis, Y's functional and point live in R^p."""
    layout = {"gamma": (False, "s"), "vstar": (False, "p")}
    for kind, (star, height, point, _) in _SUMMANDS.items():
        lead = kind in ("f", "w")
        layout[height] = (lead, "s")
        layout[star] = layout[point] = (lead, "p" if kind == "Y" else "n")
    return layout


_LAYOUT = _layout()


def _field_shapes(m, N, n, p) -> dict:
    """Shape of every table field, from ``_LAYOUT``."""
    entry = {"s": (), "n": (n,), "p": (p,)}
    return {f: ((m, N) if lead else (N,)) + entry[kind] for f, (lead, kind) in _LAYOUT.items()}


@dataclass(frozen=True)
class _Table:
    """A certificate table of N entries.  A form's table fields are its
    dataclass fields named in ``_LAYOUT``, in declaration order, which is
    also their order in a certificate file; ``theorem`` is the form's tag.
    m and n come from xstar, p from ystar, N from vstar."""

    theorem: ClassVar[str]

    def __post_init__(self):
        m, n = self.xstar.shape[0], self.xstar.shape[-1]
        object.__setattr__(self, "lam", _check_lambda(self.lam, m))
        if (np.asarray(getattr(self, "gamma", 0.0)) < 0).any():
            raise ValueError("gamma values must be nonnegative")
        want = _field_shapes(m, self.N, n, self.ystar.shape[-1])
        for name in self.layout():
            got = getattr(self, name).shape
            if got != want[name]:
                raise DimensionMismatch(f"{name} has shape {got}, want {want[name]}")

    @property
    def N(self) -> int:
        return self.vstar.shape[0]

    @classmethod
    def layout(cls) -> dict:
        """The form's table fields in file order -> their ``_LAYOUT`` entry."""
        return {f.name: _LAYOUT[f.name] for f in fields(cls) if f.name in _LAYOUT}


@dataclass(frozen=True)
class EpsCertificate(_Table):
    """Per-n approximate subgradients and normals at the candidate itself."""

    theorem = "4.3"

    lam: np.ndarray
    gamma: np.ndarray        # (N,)
    xstar: np.ndarray        # (m, N, n)
    wstar: np.ndarray        # (m, N, n)
    cstar: np.ndarray        # (N, n)
    ystar: np.ndarray        # (N, p)
    vstar: np.ndarray        # (N, p)
    ustar: np.ndarray        # (N, n)


@dataclass(frozen=True)
class EpiCertificate(_Table):
    """Per-n pairs in the conjugate epigraphs, with scalar heights."""

    theorem = "4.2"

    lam: np.ndarray
    xstar: np.ndarray        # (m, N, n)
    a: np.ndarray            # (m, N)
    wstar: np.ndarray        # (m, N, n)
    b: np.ndarray            # (m, N)
    cstar: np.ndarray        # (N, n)
    d: np.ndarray            # (N,)
    ystar: np.ndarray        # (N, p)
    s: np.ndarray            # (N,)
    vstar: np.ndarray        # (N, p)
    ustar: np.ndarray        # (N, n)
    t: np.ndarray            # (N,)


@dataclass(frozen=True)
class ExactCertificate(_Table):
    """Per-n exact subgradients and normals at nearby points."""

    theorem = "4.4"

    lam: np.ndarray
    x: np.ndarray            # (m, N, n)
    xstar: np.ndarray        # (m, N, n)
    w: np.ndarray            # (m, N, n)
    wstar: np.ndarray        # (m, N, n)
    c: np.ndarray            # (N, n)
    cstar: np.ndarray        # (N, n)
    u: np.ndarray            # (N, n)
    ustar: np.ndarray        # (N, n)
    y: np.ndarray            # (N, p)
    ystar: np.ndarray        # (N, p)
    vstar: np.ndarray        # (N, p)
    br_bounds: Optional[dict] = None   # block name -> (N, 3) bound values


# theorem tag -> certificate form
FORMS = {cls.theorem: cls for cls in (EpiCertificate, EpsCertificate, ExactCertificate)}


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    verdict: str                      # "Accept" | "Reject"
    reasons: tuple
    memberships: dict                 # name -> (N,) bool array
    slacks: dict                      # name -> (N,) float array
    residuals: dict                   # name -> (N,) float array
    tolerances: dict
    note: str = HEURISTIC_NOTE

    @property
    def ok(self) -> bool:
        return self.verdict == "Accept"


# ---------------------------------------------------------------------------
# the block table


@dataclass(frozen=True)
class _Block:
    """One summand of the sum rule at xbar and the table fields it owns."""

    kind: str                # "f", "w", "C", "Y" or "comp"
    row: Optional[int]       # objective index of an f or w block
    fn: object               # the scaled ConvexFn, the set C, the cone, or None for comp
    base: np.ndarray         # xbar, or h(xbar) for Y
    value: Optional[float]   # the summand at its base (0 for C, Y); None for comp, whose weights vary
    star: str
    height: str
    point: str
    label: str               # name in br_bounds and in transfer errors

    @property
    def name(self) -> str:
        return self.kind if self.row is None else f"{self.kind}[{self.row}]"

    def of(self, tab: dict, field: str) -> np.ndarray:
        """This block's slice of a field of ``tab`` (a certificate's vars)."""
        arr = tab[field]
        return arr if self.row is None else arr[self.row]


class _Blocks:
    """The block table at xbar.  ``rows`` holds the summands in paper order
    (f[i], w[i] for each i, then C, Y, comp); ``lp_order`` lists every f
    block first, the column layout of the generator and multiplier LPs,
    on which Bland's rule makes their optima depend."""

    def __init__(self, cand: Candidate, lam):
        prob, xbar, nu = cand.prob, cand.x, cand.nu
        self.prob, self.xbar, self.hbar = prob, xbar, cand.h
        self.rows = []
        for i, (f, ng) in enumerate(prob.objectives):
            coef = lam[i] * nu[i]
            if coef < 0:
                raise UnsupportedData(
                    f"objective {i}: negative ratio nu = {nu[i]:g} leaves the "
                    "scaled denominator term nonconvex"
                )
            # the values by ScaledFn's rule: c times the inner value, 0 for c == 0
            self._add("f", i, ScaledFn(lam[i], f), xbar, lam[i] * cand.f[i])
            self._add("w", i, ScaledFn(coef, ng), xbar, coef * cand.neg_g[i] if coef != 0.0 else 0.0)
        self._add("C", None, prob.C, xbar, 0.0)
        self._add("Y", None, prob.cone, self.hbar, 0.0)
        self._add("comp", None, None, xbar, None)
        self.lp_order = sorted(self.rows, key=lambda blk: blk.kind != "f")

    def _add(self, kind, row, fn, base, value):
        star, height, point, label = _SUMMANDS[kind]
        label = label if row is None else f"{label}[{row}]"
        self.rows.append(_Block(kind, row, fn, base, value, star, height, point, label))


def _composite_weights(vstar) -> np.ndarray:
    """The weights w = max(-vstar, 0) of (-vstar) o h = sum_j w_j h_j, per
    entry (row), zero on the entries where vstar vanishes."""
    if (-vstar < -VSTAR_SIGN_TOL).any():
        raise UnsupportedData("composite term needs componentwise nonnegative -vstar")
    w = np.maximum(-vstar, 0.0)
    w[np.abs(vstar).max(axis=-1, initial=0.0) <= VSTAR_ZERO_TOL] = 0.0
    return w


def _composite_values(w, hv) -> np.ndarray:
    """sum_{w_j > 0} w_j h_j per entry from the h values ``hv``; zero weights drop out."""
    return (w * np.where(w > 0, hv, 0.0)).sum(axis=-1)


def _prepare(prob: FractionalProblem, xbar, cert, horizon: bool) -> _Blocks:
    """Shared preamble of the verifiers and transfers: the horizon (for
    verifiers), the m/n/p shape check, then the block table of ``candidate``."""
    if horizon and cert.N < 4:
        raise HorizonTooShort(f"need a horizon of at least 4 entries, got {cert.N}")
    if (cert.lam.shape[0], cert.ustar.shape[1], cert.vstar.shape[1]) != (prob.m, prob.n, prob.p):
        raise DimensionMismatch("certificate shapes do not match the problem")
    return _Blocks(candidate(prob, xbar), cert.lam)


# ---------------------------------------------------------------------------
# verifiers


class _Memo:
    """A block's conjugate values at a stack of functionals (with their
    weights, for the composite), from one ``Conjugate`` per call, so one
    LP and one phase 1: C's as the conjugate of its indicator, the
    composite's per support pattern of its weights, which enter only the
    objective.  Each distinct functional is priced once, in order of first
    occurrence; nothing is kept between calls, since a verifier looks each
    block up once.  A class so that perfbench's tracer can wrap ``conj``
    and ``supp`` by name."""

    def conj(self, fns, stars, weights=None):
        return _distinct_values(lambda: Conjugate(fns), stars, weights)

    def supp(self, C, stars):
        return _distinct_values(lambda: Conjugate(PolyhedralFn.indicator(C)), stars)


def _distinct_values(make, stars, weights=None):
    # rows keyed by their bytes, so -0.0 and 0.0 stay apart; no LP for no row
    rows = stars if weights is None else np.hstack([stars, weights])
    keys = [r.tobytes() for r in rows]
    first = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    if not first:
        return np.empty(0)
    todo = list(first.values())
    args = (stars[todo],) if weights is None else (stars[todo], weights[todo])
    values = dict(zip(first, make().values(*args)))
    return np.array([values[k] for k in keys], dtype=float)


def _polar_slacks(G, V):
    """Per-row smallest generator inner product for a stack of vectors."""
    return (V @ G.T).min(axis=1, initial=np.inf)


def _verdict(memberships, residual_checks):
    reasons = []
    for name, ok in memberships.items():
        if not ok.all():
            bad = int(np.argmin(ok))
            reasons.append(f"{name} fails at n={bad + 1}")
    for name, failures in residual_checks.items():
        reasons.extend(f"residual trace '{name}' {why}" for why in failures)
    verdict = "Accept" if not reasons else "Reject"
    return verdict, tuple(reasons)


def _verify(theorem, prob, xbar, cert, tol_conv, tol_points=None):
    """One membership loop over the block table with the slack rule of the
    form named by ``theorem``, then the shared residual traces."""
    table = _prepare(prob, xbar, cert, horizon=True)
    xbar, G = table.xbar, prob.cone.G
    memo = _Memo()
    tab, N, vstar = vars(cert), cert.N, cert.vstar
    weights = _composite_weights(vstar)
    memberships, slacks, gaps = {}, {}, {}

    def put(name, sl):
        memberships[name] = sl >= -TOL_MEMBERSHIP
        slacks[name] = sl

    def conj(blk, ks):
        # conjugate (support for C) values of the block's functionals at the entries
        # ks; the composite's per support pattern of its weights, the rest scaled to 0
        stars = blk.of(tab, blk.star)[ks]
        if blk.kind == "C":
            return memo.supp(prob.C, stars)
        if blk.kind != "comp":
            return memo.conj(blk.fn, stars)
        vals, w = np.empty(len(ks)), weights[ks]
        for pattern in np.unique(w > 0, axis=0):
            rows = ((w > 0) == pattern).all(axis=1)
            fns = [ScaledFn(float(a), h) for a, h in zip(pattern, prob.hmap)]
            vals[rows] = memo.conj(fns, stars[rows], w[rows])
        return vals

    every = np.arange(N)
    for blk in table.rows:
        stars = blk.of(tab, blk.star)
        if blk.kind == "comp":
            put("vstar_polar", _polar_slacks(G, -vstar))
        if theorem == "4.2":
            # (functional, height) in the epigraph of the conjugate
            if blk.kind == "Y":
                put("ystar_polar", _polar_slacks(G, stars))
                put("s_nonneg", cert.s.copy())
            else:
                put(f"epi_{blk.name}", blk.of(tab, blk.height) - conj(blk, every))
        elif theorem == "4.3" and blk.kind == "Y":
            # ystar in Y* and in the gamma_n-normal set of -Y+ at h(xbar):
            # the support of -Y+ is 0 on Y* and infinite elsewhere
            put("normal_Y", np.minimum(_polar_slacks(G, stars), cert.gamma + stars @ blk.base))
        elif theorem == "4.3":
            # Young-Fenchel gap at xbar within gamma_n; the indicator of C
            # vanishes there, the composite changes with vstar per entry
            fval = _composite_values(weights, table.hbar) if blk.kind == "comp" else blk.value
            cval = conj(blk, every)
            with np.errstate(invalid="ignore"):
                gap = np.where(np.isfinite(cval), cval + fval - stars @ xbar, np.inf)
            put(("normal_" if blk.kind == "C" else "subdiff_") + blk.name, cert.gamma - gap)
        elif blk.kind in ("C", "Y"):
            # the nearby point lies in the set, with a zero Young-Fenchel gap
            # there; the support of -Y+ is 0 on Y* and infinite elsewhere
            pts = blk.of(tab, blk.point)
            dots = np.einsum("ij,ij->i", stars, pts)
            if blk.kind == "C":
                inside = prob.C.contains_batch(pts, tol=TOL_MEMBERSHIP)
                sl = -(conj(blk, every) - dots)
            else:
                inside = in_minus_cone_batch(prob.cone, pts, tol=TOL_MEMBERSHIP)
                sl = np.minimum(_polar_slacks(G, stars), dots)
            put(f"normal_{blk.name}", np.where(inside, sl, -np.inf))
            gaps[f"gap_{blk.name}"] = np.abs(np.einsum("ij,ij->i", stars, pts - blk.base))
        else:
            # zero Young-Fenchel gap at the nearby point, and its value gap
            # (the composite's values read through h); a point off the
            # domain fails with an infinite gap
            pts = blk.of(tab, blk.point)
            if blk.kind == "comp":
                fval = _composite_values(weights, np.array([prob.h_values(x) for x in pts]))
                fbase = _composite_values(weights, table.hbar)
            else:
                fval = np.array([blk.fn.eval(x) for x in pts])
                fbase = blk.value
            live = np.flatnonzero(np.isfinite(fval))
            cval = np.full(N, np.inf)
            cval[live] = conj(blk, live)
            dots = np.einsum("ij,ij->i", stars, pts)
            moved = np.einsum("ij,ij->i", stars, pts - xbar)
            with np.errstate(invalid="ignore"):
                sl = np.where(np.isfinite(cval), -(cval + fval - dots), -np.inf)
                gap = np.abs(fval - moved - fbase)
            put(f"subdiff_{blk.name}", sl)
            gaps[f"gap_{blk.name}"] = np.where(np.isfinite(fval), gap, np.inf)

    dual = np.abs(
        cert.xstar.sum(axis=0) + cert.wstar.sum(axis=0) + cert.cstar + cert.ustar
    ).max(axis=1)
    yres = np.abs(cert.ystar + vstar).max(axis=1)
    if theorem == "4.2":
        scalar = np.abs(cert.a.sum(axis=0) + cert.b.sum(axis=0) + cert.d + cert.s + cert.t)
    elif theorem == "4.3":
        scalar = cert.gamma.astype(float)
    else:
        scalar = np.max(np.column_stack(list(gaps.values())), axis=1)
    residuals = {"dual": dual, "y": yres, "scalar": scalar, **gaps}
    checks = {name: _convergence_failures(residuals[name], tol_conv)
              for name in ("dual", "y", "scalar")}
    tolerances = {"tol_membership": TOL_MEMBERSHIP, "tol_conv": tol_conv}
    if theorem == "4.4":
        tolerances["tol_points"] = tol_points
        # the report lists the point traces x, w, c, u, y
        for blk in sorted(table.rows, key=lambda b: b.kind == "Y"):
            name = f"point_{blk.point}" + ("" if blk.row is None else f"[{blk.row}]")
            residuals[name] = np.linalg.norm(blk.of(tab, blk.point) - blk.base, axis=1)
            checks[name] = _convergence_failures(residuals[name], tol_points,
                                                 tol_name="tol_points")
    verdict, reasons = _verdict(memberships, checks)
    return VerificationReport(
        theorem=theorem, verdict=verdict, reasons=reasons,
        memberships=memberships, slacks=slacks, residuals=residuals,
        tolerances=tolerances,
    )


def verify_epi_certificate(prob: FractionalProblem, xbar, cert: EpiCertificate,
                           tol_conv: float = TOL_CONV) -> VerificationReport:
    """Check every conjugate-epigraph membership and the three residual
    traces of the epigraph-form certificate."""
    return _verify("4.2", prob, xbar, cert, tol_conv)


def verify_eps_certificate(prob: FractionalProblem, xbar, cert: EpsCertificate,
                           tol_conv: float = TOL_CONV) -> VerificationReport:
    """Check the gamma_n-approximate memberships at the candidate point."""
    return _verify("4.3", prob, xbar, cert, tol_conv)


def verify_exact_certificate(prob: FractionalProblem, xbar, cert: ExactCertificate,
                             tol_conv: float = TOL_CONV,
                             tol_points: Optional[float] = None) -> VerificationReport:
    """Check the exact memberships at the nearby points, their convergence
    to the candidate, and the value-gap traces.

    Point traces are held to tol_points (default sqrt(tol_conv)): a value
    tolerance eps pairs with a point tolerance sqrt(eps) in the nearby-
    pair bounds, so the two rules are kept on matching scales.
    """
    if tol_points is None:
        tol_points = float(np.sqrt(tol_conv))
    return _verify("4.4", prob, xbar, cert, tol_conv, tol_points)


def _form_functions(form) -> tuple:
    """A form's (transfer from the subdifferential form, verifier); the
    subdifferential form needs no transfer.  Looked up per call by
    module-level name, so that a rebound function (a tracer's wrapper) is
    the one that runs."""
    return {
        EpiCertificate: (epi_from_eps, verify_epi_certificate),
        EpsCertificate: (None, verify_eps_certificate),
        ExactCertificate: (eps_to_exact, verify_exact_certificate),
    }[form]


def verify_certificate(prob: FractionalProblem, xbar, cert: _Table,
                       tol_conv: float = TOL_CONV) -> VerificationReport:
    """Check a certificate of any form with the verifier of its form."""
    return _form_functions(type(cert))[1](prob, xbar, cert, tol_conv=tol_conv)


def transfer(prob: FractionalProblem, xbar, cert: EpsCertificate, theorem: str) -> _Table:
    """The subdifferential-form certificate carried to the form ``theorem``."""
    move = _form_functions(FORMS[theorem])[0]
    return cert if move is None else move(prob, xbar, cert)


# ---------------------------------------------------------------------------
# generation


def _polyhedral_data(table: _Blocks, composite: bool = True, hint: str = "") -> dict:
    """Max-affine data of the f, w and composite blocks (None for a zero
    denominator term), checked to be polyhedral with full-space domains."""
    polys = {}
    for blk in table.lp_order:
        if blk.kind == "w" and is_zero_fn(blk.fn):
            polys[blk.name] = None  # wstar stays identically zero
        elif blk.kind in ("f", "w"):
            poly = as_polyhedral(blk.fn)
            if poly is not None and not poly.domain.is_full_space():
                raise UnsupportedDomain("certificate generation needs full-space objective domains")
            if poly is None:
                term = "numerator" if blk.kind == "f" else "denominator term"
                raise ConjugateUnsupported(f"objective {blk.row}: {term} is not polyhedral")
            polys[blk.name] = poly
    if composite:
        h_polys = [as_polyhedral(h) for h in table.prob.hmap]
        if any(poly is None for poly in h_polys):
            raise ConjugateUnsupported("constraint components are not polyhedral" + hint)
        if not all(poly.domain.is_full_space() for poly in h_polys):
            raise UnsupportedDomain("composite encoding needs full-space h components")
        polys["comp"] = h_polys
    return polys


def _objective_lp(table: _Blocks, polys: dict):
    """A BlockLP holding the eps-subdifferential blocks of f and w (eps is
    the program's) and the exact (eps = 0) normal-cone block of C, in
    ``lp_order``; returns it with each block's functional expression.
    Callers add Y and the composite after them."""
    lp, ex = BlockLP(), {}
    for blk in table.lp_order:
        if blk.kind == "C":
            ex["C"] = add_eps_normal_block(lp, blk.fn, table.xbar)
        elif blk.kind in ("f", "w") and polys[blk.name] is not None:
            ex[blk.name] = add_eps_subdiff_block(lp, polys[blk.name], table.xbar)
    return lp, ex


def _dual_parts(ex: dict) -> list:
    """The expressions summed in the dual residual, in column order."""
    return [e for name, e in ex.items() if name not in ("Y", "v") and e.idx.size]


def generate_eps_certificate(
    prob: FractionalProblem,
    xbar,
    lam=None,
    gamma=None,
    N: Optional[int] = None,
    pin_vstar: bool = False,
):
    """Solve one residual-minimizing LP per entry.

    Per n the memberships are encoded as LP blocks: gamma_n-subdifferential
    polytopes for the objective summands and the composite term, EXACT
    (eps = 0) normal-cone encodings for the set blocks, generator rows for
    the polar memberships.  The objective is the dual residual's sup-norm
    plus the l1 norm of ystar + vstar.  Entries differ only in the
    right-hand side of the gamma_n rows, so the LP is built and solved
    once and the later entries follow as one right-hand-side path from
    the last optimal basis (``LpSession.resolve_path``): the entries a
    basis stays feasible for are read off it, and the dual simplex runs
    only where gamma leaves that range.  An entry may hold another
    optimal vertex than a fresh solve of its LP would.  The table fields
    come from one product per block over the N solutions.  Returns the
    certificate and the per-n LP optima; a residual trace that tends to
    zero is the existence side of the subdifferential form, a floor
    bounded away from zero is its converse.

    ``pin_vstar`` fixes vstar = 0 and drops the composite block (the only
    route when h has non-polyhedral components).
    """
    cand = candidate(prob, xbar)
    if gamma is None:
        if N is None:
            raise ValueError("need gamma or N")
        gamma = 1.0 / np.arange(1, N + 1)
    gamma = np.asarray(gamma, float).reshape(-1)
    if (gamma < 0).any():
        raise ValueError("gamma values must be nonnegative")
    N = gamma.shape[0]
    lam = _check_lambda(np.ones(prob.m) if lam is None else lam, prob.m)
    table = _Blocks(cand, lam)
    polys = _polyhedral_data(table, not pin_vstar, "; rerun with vstar pinned to 0")

    shapes = _field_shapes(prob.m, N, prob.n, prob.p)
    out = {f: np.zeros(shapes[f]) for f in ("xstar", "wstar", "cstar", "ystar", "vstar", "ustar")}
    lp, ex = _objective_lp(table, polys)
    ex["Y"] = add_polar_member(lp, prob.cone.G, sign=1.0)
    add_inner_product_ub(lp, ex["Y"], table.hbar, 0.0, sign=-1.0)  # <ystar, hbar> >= 0
    if not pin_vstar:
        ex["v"] = v = add_polar_member(lp, prob.cone.G, sign=-1.0)
        weights = LinExpr(idx=v.idx, M=-v.M)
        ex["comp"] = add_composite_subdiff_block(lp, polys["comp"], table.xbar, weights)
    t_idx = add_linf_elastic(lp, _dual_parts(ex))
    q_idx = add_l1_elastic(lp, [ex[name] for name in ("Y", "v") if name in ex])
    obj_idx = np.concatenate([t_idx, q_idx])
    session = LpSession(lp.program(obj_idx, -np.ones(obj_idx.shape[0]), gamma[0]))
    first = require_optimal(session.maximize(), "certificate generation")
    values, X = session.resolve_path(lp.b_ub(gamma[1:]))
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise NumericalFailure(
            f"certificate generation: LP reported {UNBOUNDED if bad > 0 else INFEASIBLE}"
        )
    trace = -np.concatenate([[first.value], values])
    X = np.vstack([first.x, X])
    for blk in table.rows:
        if blk.name in ex:
            e = ex[blk.name]
            blk.of(out, blk.star)[:] = X[:, e.idx] @ e.M.T
    if "v" in ex:
        out["vstar"][:] = X[:, ex["v"].idx] @ ex["v"].M.T
    return EpsCertificate(lam=lam, gamma=gamma, **out), trace


# ---------------------------------------------------------------------------
# transfers


def minus_cone_polyhedron(cone: PolyhedralCone) -> Polyhedron:
    """-Y+ as the polyhedron {y : H y <= 0}."""
    return Polyhedron(A=cone.H, b=np.zeros(cone.H.shape[0]), n=cone.p)


def eps_to_exact(prob: FractionalProblem, xbar, cert: EpsCertificate) -> ExactCertificate:
    """Regularize each block of the subdifferential-form certificate into an
    exact pair at a nearby point, with eps = gamma_n per entry.

    Each pair comes from ``br_regularize``: Ekeland's construction with the
    Euclidean norm as cutting planes, the exact subgradient read off the LP
    row multipliers.  The composite (-vstar_n) o h goes in as its
    components w_j h_j, with w = max(-vstar_n, 0) as the verifier weights
    it, so its LP has one epigraph variable per component of h and no
    cross product of their pieces.  The nearby-pair bounds (point distance
    and functional distance at most sqrt(gamma_n), value gap at most
    2*gamma_n) are recorded per block in ``br_bounds``; a failed search
    raises BRSearchFailed naming the block and entry.
    """
    table = _prepare(prob, xbar, cert, horizon=False)
    tab = vars(cert)
    weights = _composite_weights(cert.vstar)
    indicators = {
        "C": PolyhedralFn.indicator(prob.C),
        "Y": PolyhedralFn.indicator(minus_cone_polyhedron(prob.cone)),
    }
    out = {}
    for blk in table.rows:
        if blk.star not in out:
            out[blk.point] = np.tile(blk.base, tab[blk.star].shape[:-1] + (1,))
            out[blk.star] = np.zeros_like(tab[blk.star])
    bounds = {}
    for k in range(cert.N):
        for blk in table.rows:
            if blk.kind == "comp":
                fn = [ScaledFn(w, h) for w, h in zip(weights[k], prob.hmap)]
            else:
                fn = indicators.get(blk.kind, blk.fn)
            try:
                res = br_regularize(fn, blk.base, float(cert.gamma[k]), blk.of(tab, blk.star)[k])
            except BRSearchFailed as exc:
                raise BRSearchFailed(f"block {blk.label}, entry n={k + 1}: {exc}") from exc
            rec = bounds.setdefault(blk.label, np.zeros((cert.N, 3)))
            rec[k] = (res.dist_x, res.dist_xstar, res.value_gap)
            blk.of(out, blk.point)[k], blk.of(out, blk.star)[k] = res.x, res.xstar
    return ExactCertificate(lam=cert.lam, vstar=cert.vstar.copy(), br_bounds=bounds, **out)


def epi_from_eps(prob: FractionalProblem, xbar, cert: EpsCertificate) -> EpiCertificate:
    """Lift the subdifferential form to the epigraph form by arithmetic.

    Each block's height is <functional, base> + gamma_n - value(base):
    the indicator blocks C and Y vanish at their base, and the composite
    takes its value -<vstar, h(xbar)>.  The composite height t is pinned
    to the exact value 0 whenever vstar vanishes, which reproduces the
    six-summand scalar count of the worked examples.
    """
    table = _prepare(prob, xbar, cert, horizon=False)
    tab = vars(cert)
    out = {star: tab[star].copy() for star, *_ in _SUMMANDS.values()}
    for blk in table.rows:
        # (-vstar o h)(xbar) per entry for the composite
        value = -(cert.vstar @ table.hbar) if blk.kind == "comp" else blk.value
        height = blk.of(tab, blk.star) @ blk.base + cert.gamma - value
        if blk.row is None:
            out[blk.height] = height
        else:
            out.setdefault(blk.height, np.empty((prob.m, cert.N)))[blk.row] = height
    zero_v = np.abs(cert.vstar).max(axis=1) <= VSTAR_ZERO_TOL
    out["t"] = np.where(zero_v, 0.0, out["t"])
    return EpiCertificate(lam=cert.lam, vstar=cert.vstar.copy(), **out)


# ---------------------------------------------------------------------------
# classical multiplier condition


@dataclass(frozen=True)
class KKTResult:
    holds: bool
    ystar: Optional[np.ndarray] = None
    reason: Optional[str] = None


def classical_kkt_check(prob: FractionalProblem, xbar, lam=None) -> KKTResult:
    """One exact (eps = 0) feasibility LP for the multiplier condition:
    some ystar in Y* with <ystar, h(xbar)> = 0 and
    0 in the subdifferential sum of the scalarized objective, the
    indicator of C, and ystar o h at xbar.

    Data outside the polyhedral fragment comes back as a non-holding
    result with an "unsupported data" reason, distinct from a genuinely
    infeasible multiplier system.
    """
    lam = _check_lambda(np.ones(prob.m) if lam is None else lam, prob.m)
    cand = candidate(prob, xbar)
    try:
        table = _Blocks(cand, lam)
        polys = _polyhedral_data(table)
    except (ConjugateUnsupported, UnsupportedDomain, UnsupportedData) as exc:
        return KKTResult(holds=False, reason=f"unsupported data: {exc}")

    lp, ex = _objective_lp(table, polys)
    ex["Y"] = add_polar_member(lp, prob.cone.G, sign=1.0)
    add_inner_product_eq(lp, ex["Y"], table.hbar, 0.0)  # complementarity
    ex["comp"] = add_composite_subdiff_block(lp, polys["comp"], table.xbar, weights=ex["Y"])
    total = expr_sum(_dual_parts(ex))
    for coord in range(prob.n):
        lp.add_eq(total.idx, total.M[coord], 0.0)
    out = lp.solve()
    if out.is_optimal:
        return KKTResult(holds=True, ystar=ex["Y"].value(out.x))
    return KKTResult(holds=False, reason="multiplier system infeasible")


def slater_check(prob: FractionalProblem, grid) -> bool:
    """Does some grid point of C map strictly inside -Y+, that is
    H h(a) <= -SLATER_MARGIN componentwise?  The lattice is walked in
    chunks and the walk stops at the first such point."""
    if grid.ndim != prob.n:
        raise DimensionMismatch("grid dimension does not match problem")
    for X in grid.chunks():
        inC = prob.C.contains_batch(X)
        if not inC.any():
            continue
        hv = prob.h_values_batch(X[inC])
        vals = hv[np.isfinite(hv).all(axis=1)] @ prob.cone.H.T
        if (vals <= -SLATER_MARGIN).all(axis=1).any():
            return True
    return False
