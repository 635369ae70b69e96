"""Exact convex analysis for piecewise-affine functions on polyhedra.

Everything here reduces to small LPs solved by :mod:`henigcert.linprog`:
Fenchel conjugates (``Conjugate``, the one evaluator: a support function
is the conjugate of an indicator, sigma_C = delta_C*), epigraph-of-
conjugate membership, eps-subdifferential and eps-normal membership
(Young-Fenchel form), exact subgradient selection, and the nearby-exact-
pair search behind the Brondsted-Rockafellar bounds.  That search is Ekeland's construction,
exact for polyhedral functions: the Euclidean norm enters as Kelley
cutting planes, and the nearby subgradient comes from the LP multipliers
of the cut rows.  A weighted sum of max-affine components (the conjugate
and the nearby-pair search both take one) is encoded separably, one
epigraph variable per component, never as the cross product of their
pieces.  Black-box functions from the builtin whitelist can only be
evaluated; asking for their conjugate raises.

Function values are extended reals: plain floats with ``numpy.inf`` for
points outside the domain.  A ``ScaledFn`` with coefficient zero is the
zero function on all of R^n regardless of its inner function's domain.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import dot_rows, max_affine_batch
from .errors import (
    BRSearchFailed,
    ConjugateUnsupported,
    DimensionMismatch,
    EmptyPolyhedron,
    NumericalFailure,
    PointOutsideDomain,
    UnsupportedData,
)
from .linprog import INFEASIBLE, OPTIMAL, LinearProgram, LpSession, lp_solve
from .tolerances import ACTIVE_TOL, EXACTNESS_GAP_TOL, TOL_FEAS, TOL_MEMBERSHIP, ZERO_FN_TOL

# br_regularize: Ekeland's weight as a fraction of sqrt(eps), a hair below 1
# so that ||x* - x̄*|| <= sqrt(eps) survives rounding, and its LP-round cap
_BR_LAMBDA = 1.0 - 1e-9
_BR_ROUNDS = 64


# ---------------------------------------------------------------------------
# sets


class Polyhedron:
    """``{x : A x <= b, E x == d}``; nonempty, checked at construction: the
    origin proves it when A 0 <= b and E 0 == d hold exactly (b >= 0 and
    d == 0, the data being finite), and any other polyhedron takes one
    feasibility LP."""

    def __init__(self, A=None, b=None, E=None, d=None, n: Optional[int] = None):
        if A is None and E is None and n is None:
            raise DimensionMismatch("need A, E, or an explicit dimension n")
        if n is None:
            n = np.shape(A)[1] if A is not None and np.size(A) else np.shape(E)[1]
        self.n = int(n)
        self.A = np.zeros((0, self.n)) if A is None else np.atleast_2d(np.asarray(A, float))
        self.b = np.zeros(0) if b is None else np.asarray(b, float).reshape(-1)
        self.E = np.zeros((0, self.n)) if E is None else np.atleast_2d(np.asarray(E, float))
        self.d = np.zeros(0) if d is None else np.asarray(d, float).reshape(-1)
        if self.A.size == 0:
            self.A = self.A.reshape(0, self.n)
        if self.E.size == 0:
            self.E = self.E.reshape(0, self.n)
        if self.A.shape[1] != self.n or self.E.shape[1] != self.n:
            raise DimensionMismatch("polyhedron rows do not match dimension")
        if self.A.shape[0] != self.b.shape[0] or self.E.shape[0] != self.d.shape[0]:
            raise DimensionMismatch("polyhedron rhs length does not match row count")
        if self.nrows:
            # built even when the origin proves nonemptiness: it checks the data
            lp = LinearProgram(
                c=np.zeros(self.n), A_ub=self.A, b_ub=self.b, A_eq=self.E, b_eq=self.d
            )
            holds_origin = (lp.b_ub >= 0).all() and (lp.b_eq == 0).all()
            if not holds_origin and lp_solve(lp).status == INFEASIBLE:
                raise EmptyPolyhedron("polyhedron has no feasible point")

    @property
    def nrows(self) -> int:
        return self.A.shape[0] + self.E.shape[0]

    @classmethod
    def full_space(cls, n: int) -> "Polyhedron":
        return cls(n=n)

    @classmethod
    def box(cls, lo, hi) -> "Polyhedron":
        lo = np.asarray(lo, float).reshape(-1)
        hi = np.asarray(hi, float).reshape(-1)
        n = lo.shape[0]
        rows, rhs = [], []
        for j in range(n):
            if np.isfinite(hi[j]):
                r = np.zeros(n)
                r[j] = 1.0
                rows.append(r)
                rhs.append(hi[j])
            if np.isfinite(lo[j]):
                r = np.zeros(n)
                r[j] = -1.0
                rows.append(r)
                rhs.append(-lo[j])
        if rows:
            return cls(A=np.array(rows), b=np.array(rhs), n=n)
        return cls(n=n)

    def contains(self, x, tol: float = TOL_FEAS) -> bool:
        """``contains_batch`` on one row."""
        x = np.asarray(x, float).reshape(-1)
        if x.shape[0] != self.n:
            raise DimensionMismatch("point dimension does not match polyhedron")
        return bool(self.contains_batch(x[None], tol)[0])

    def contains_batch(self, X, tol: float = TOL_FEAS) -> np.ndarray:
        """Membership of every row of X: fl(a.x) <= fl(b + tol) on each
        inequality row and |fl(e.x) - d| <= tol on each equality row.  The
        row values are stored (rows, N), samples last, by ``dot_rows``,
        which rounds as the row-major ``X @ A.T``."""
        X = np.asarray(X, float)
        ok = np.ones(X.shape[0], dtype=bool)
        if self.A.shape[0]:
            ok &= (dot_rows(self.A, X) <= (self.b + tol)[:, None]).all(axis=0)
        if self.E.shape[0]:
            ok &= (np.abs(dot_rows(self.E, X) - self.d[:, None]) <= tol).all(axis=0)
        return ok

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if other.n != self.n:
            raise DimensionMismatch("cannot intersect polyhedra of different dimension")
        return Polyhedron(
            A=np.vstack([self.A, other.A]),
            b=np.concatenate([self.b, other.b]),
            E=np.vstack([self.E, other.E]),
            d=np.concatenate([self.d, other.d]),
            n=self.n,
        )

    def is_full_space(self) -> bool:
        return self.nrows == 0


# ---------------------------------------------------------------------------
# functions


class ConvexFn:
    """Base class: a proper convex function on R^dim with extended-real values."""

    dim: int

    def eval(self, x) -> float:
        raise NotImplementedError

    def eval_batch(self, X) -> np.ndarray:
        X = np.asarray(X, float)
        return np.array([self.eval(row) for row in X])

    def __call__(self, x) -> float:
        return self.eval(x)


class PolyhedralFn(ConvexFn):
    """max-affine function max_k(<a_k,x> + b_k) plus the indicator of ``domain``.

    Parameters
    ----------
    A : array, shape (K, n)
        Piece gradients, one row per affine piece (K >= 1).
    b : array, shape (K,)
        Piece offsets.
    domain : Polyhedron, optional
        Effective domain; full space when omitted.
    """

    def __init__(self, A, b, domain: Optional[Polyhedron] = None):
        self.A = np.atleast_2d(np.asarray(A, float))
        self.b = np.asarray(b, float).reshape(-1)
        if self.A.shape[0] == 0:
            raise DimensionMismatch("max-affine function needs at least one piece")
        if self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("piece offsets do not match piece count")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("max-affine pieces contain non-finite entries")
        self.dim = self.A.shape[1]
        if domain is not None and domain.n != self.dim:
            raise DimensionMismatch("domain dimension does not match pieces")
        self.domain = domain if domain is not None else Polyhedron.full_space(self.dim)

    @property
    def npieces(self) -> int:
        return self.A.shape[0]

    def eval(self, x) -> float:
        x = np.asarray(x, float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatch("point dimension does not match function")
        if not self.domain.is_full_space() and not self.domain.contains(x):
            return np.inf
        return float((self.A @ x + self.b).max())

    def eval_batch(self, X) -> np.ndarray:
        X = np.asarray(X, float)
        vals = max_affine_batch(self.A, self.b, X)
        if not self.domain.is_full_space():
            vals = np.where(self.domain.contains_batch(X), vals, np.inf)
        return vals

    def piece_values(self, x) -> np.ndarray:
        x = np.asarray(x, float).reshape(-1)
        return self.A @ x + self.b

    def scale(self, alpha: float) -> "PolyhedralFn":
        if alpha <= 0:
            raise ValueError("scale expects a positive coefficient")
        return PolyhedralFn(alpha * self.A, alpha * self.b, self.domain)

    @classmethod
    def affine(cls, a, b: float = 0.0, domain: Optional[Polyhedron] = None):
        a = np.asarray(a, float).reshape(-1)
        return cls(a[None, :], [float(b)], domain)

    @classmethod
    def indicator(cls, C: Polyhedron) -> "PolyhedralFn":
        """delta_C as the zero max-affine piece restricted to C."""
        return cls(np.zeros((1, C.n)), [0.0], C)


def _relu_sq(x):
    return max(0.0, x[0]) ** 2


def _relu_sq_batch(X):
    return np.maximum(0.0, X[:, 0]) ** 2


def _eucl_minus_last(x):
    return float(np.linalg.norm(x) - x[-1])


def _eucl_minus_last_batch(X):
    return np.linalg.norm(X, axis=1) - X[:, -1]


def _neg_quad_plus_one(x):
    return x[1] ** 2 + 1.0


def _neg_quad_plus_one_batch(X):
    return X[:, 1] ** 2 + 1.0


def _const_plus_coord(x):
    return x[1] + 3.0


def _const_plus_coord_batch(X):
    return X[:, 1] + 3.0


# name -> (minimum dimension, pointwise eval, batch eval)
BUILTINS = {
    "relu_sq": (1, _relu_sq, _relu_sq_batch),
    "eucl_minus_last": (1, _eucl_minus_last, _eucl_minus_last_batch),
    "neg_quad_plus_one": (2, _neg_quad_plus_one, _neg_quad_plus_one_batch),
    "const_plus_coord": (2, _const_plus_coord, _const_plus_coord_batch),
}


class BlackBoxFn(ConvexFn):
    """A whitelisted builtin, evaluation only (no conjugate support)."""

    def __init__(self, name: str, dim: int):
        if name not in BUILTINS:
            raise UnsupportedData(f"unknown builtin {name!r}")
        min_dim, f, fb = BUILTINS[name]
        if dim < min_dim:
            raise DimensionMismatch(f"builtin {name!r} needs dim >= {min_dim}")
        self.name = name
        self.dim = int(dim)
        self._f = f
        self._fb = fb

    def eval(self, x) -> float:
        x = np.asarray(x, float).reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatch("point dimension does not match function")
        return float(self._f(x))

    def eval_batch(self, X) -> np.ndarray:
        X = np.asarray(X, float)
        return np.asarray(self._fb(X), float)


class ScaledFn(ConvexFn):
    """``c * inner`` with c >= 0; c == 0 means the zero function on all of R^n."""

    def __init__(self, c: float, inner: ConvexFn):
        c = float(c)
        if c < 0:
            raise ValueError("scaled coefficient must be nonnegative")
        self.c = c
        self.inner = inner
        self.dim = inner.dim

    def eval(self, x) -> float:
        if self.c == 0.0:
            np.asarray(x, float).reshape(-1)  # still validate shape lazily
            return 0.0
        return self.c * self.inner.eval(x)

    def eval_batch(self, X) -> np.ndarray:
        X = np.asarray(X, float)
        if self.c == 0.0:
            return np.zeros(X.shape[0])
        return self.c * self.inner.eval_batch(X)


def collapse_scale(fn: ConvexFn):
    """Flatten nested ScaledFn wrappers to (coefficient, base function)."""
    coef = 1.0
    while isinstance(fn, ScaledFn):
        coef *= fn.c
        fn = fn.inner
    return coef, fn


def as_polyhedral(fn: ConvexFn) -> Optional[PolyhedralFn]:
    """Equivalent PolyhedralFn, or None when the function is a live black box.

    Zero-scaled functions collapse to the zero piece on full space (their
    inner function's domain is irrelevant by convention).
    """
    coef, base = collapse_scale(fn)
    if coef == 0.0:
        return PolyhedralFn(np.zeros((1, fn.dim)), [0.0])
    if isinstance(base, PolyhedralFn):
        return base.scale(coef) if coef != 1.0 else base
    return None


def is_zero_fn(fn: ConvexFn) -> bool:
    coef, _ = collapse_scale(fn)
    return coef == 0.0


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    """Membership verdict carrying its slack (bound minus attained value).

    ``ok`` is equivalent to ``slack >= -tol`` for the tolerance the check
    ran with; a failing verdict reports how far it missed.
    """

    ok: bool
    slack: float

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# conjugation

class Conjugate:
    """(sum_j w_j f_j)*(x*) = sup_x <x*,x> - sum_j w_j f_j(x), exact via LPs.

    ``fns`` is one function or a sequence of components f_1..f_k, each a
    PolyhedralFn or a ScaledFn chain over one; black boxes raise
    ConjugateUnsupported.  A zero-scaled component is the zero function on
    all of R^n and drops out with its domain; with none left the conjugate
    is the indicator of {0}, with a ZERO_FN_TOL snap on ||x*||_inf.  The sum is
    encoded separably, never as a cross product of pieces: the LP is
    ``_separable_lp``'s (variables (x, t_1..t_k): maximize <x*,x> -
    sum_j w_j t_j s.t. t_j >= every piece of f_j, x in every domain), one
    LpSession whose phase 1 runs here, once.  The weights enter only the
    objective, so ``values`` prices a stack of functionals, each with its
    own weights w >= 0 (default all ones; a zero weight keeps its
    component's domain), against the last basis (``LpSession.values``); a
    call is the one-functional case at unit weights.  ``polys`` holds the
    components that did not drop out, with their scales folded in.  A
    set's support function is the conjugate of its indicator
    (``PolyhedralFn.indicator``): sigma_C = delta_C*.
    """

    def __init__(self, fns):
        fns = [fns] if isinstance(fns, ConvexFn) else list(fns)
        if not fns or any(fn.dim != fns[0].dim for fn in fns):
            raise DimensionMismatch("need one or more components of one dimension")
        self.dim = fns[0].dim
        self._ncomp = len(fns)
        self._live = [j for j, fn in enumerate(fns) if not is_zero_fn(fn)]
        self._session = None
        self.polys = [as_polyhedral(fns[j]) for j in self._live]
        if any(poly is None for poly in self.polys):
            raise ConjugateUnsupported("conjugate needs polyhedral (or zero-scaled) functions")
        if self.polys:
            self._session = LpSession(_separable_lp(self.polys))

    def values(self, xstars, weights=None) -> np.ndarray:
        """The conjugate at each row of ``xstars``, in order (+inf off its
        domain), with row r's components weighted by ``weights[r]``."""
        xstars = _functionals(xstars, self.dim)
        if self._session is None:
            return np.where(np.abs(xstars).max(axis=1, initial=0.0) <= ZERO_FN_TOL, 0.0, np.inf)
        w = np.ones((len(xstars), self._ncomp)) if weights is None else np.asarray(weights, float)
        if w.shape != (len(xstars), self._ncomp):
            raise DimensionMismatch("weights do not match functionals and components")
        values = self._session.values(np.hstack([xstars, -w[:, self._live]]))
        if (values == -np.inf).any():  # -inf only on an empty feasible set
            raise NumericalFailure("conjugate LP reported infeasible on a nonempty domain")
        return values

    def __call__(self, xstar) -> float:
        return float(self.values(np.reshape(xstar, (1, -1)))[0])


def _separable_lp(polys) -> LinearProgram:
    """sum_j f_j over the max-affine components ``polys`` as LP rows in the
    variables (x, t_1..t_k): t_j >= every piece of f_j and x in every
    domain, with a zero objective.  The conjugate and the nearby-pair
    search both start from these rows."""
    k, doms = len(polys), [poly.domain for poly in polys]
    pieces = np.hstack([np.vstack([poly.A for poly in polys]),
                        np.repeat(-np.eye(k), [poly.npieces for poly in polys], axis=0)])
    A_ub = np.vstack([pieces] + [np.hstack([dom.A, np.zeros((dom.A.shape[0], k))])
                                 for dom in doms])
    b_ub = np.concatenate([-poly.b for poly in polys] + [dom.b for dom in doms])
    A_eq = np.vstack([np.hstack([dom.E, np.zeros((dom.E.shape[0], k))]) for dom in doms])
    b_eq = np.concatenate([dom.d for dom in doms])
    return LinearProgram(c=np.zeros(polys[0].dim + k), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)


def _functionals(xstars, dim: int) -> np.ndarray:
    xstars = np.asarray(xstars, float)
    if xstars.ndim != 2 or xstars.shape[1] != dim:
        raise DimensionMismatch("functional dimension does not match function")
    return xstars


def conjugate(fn: ConvexFn, xstar) -> float:
    """Fenchel conjugate f*(x*), one LP; see ``Conjugate``."""
    xstars = _functionals(np.reshape(xstar, (1, -1)), fn.dim)  # before ConjugateUnsupported
    return float(Conjugate(fn).values(xstars)[0])


def support_function(C: Polyhedron, xstar) -> float:
    """sigma_C(x*) = sup_{x in C} <x*,x> = delta_C*(x*), the conjugate of
    C's indicator: one LP (+inf when unbounded)."""
    return Conjugate(PolyhedralFn.indicator(C))(xstar)


def epi_conjugate_contains(fn: ConvexFn, xstar, r: float, tol: float = TOL_MEMBERSHIP) -> Verdict:
    """Is (x*, r) in epi f*?  Verdict slack is r - f*(x*)."""
    val = conjugate(fn, xstar)
    slack = float(r) - val
    return Verdict(bool(slack >= -tol), float(slack))


def young_fenchel_gap(fn: ConvexFn, xbar, xstar) -> float:
    """f*(x*) + f(x̄) - <x*, x̄>; nonnegative, zero iff x* is an exact subgradient."""
    xbar = np.asarray(xbar, float).reshape(-1)
    xstar = np.asarray(xstar, float).reshape(-1)
    fval = fn.eval(xbar)
    if not np.isfinite(fval):
        raise PointOutsideDomain("base point is outside the function domain")
    cval = conjugate(fn, xstar)
    if not np.isfinite(cval):
        return np.inf
    return float(cval + fval - xstar @ xbar)


def eps_subdiff_contains(
    fn: ConvexFn, xbar, eps: float, xstar, tol: float = TOL_MEMBERSHIP
) -> Verdict:
    """Is x* in the eps-subdifferential of f at x̄ (Young-Fenchel form)?

    Membership holds iff f*(x*) + f(x̄) - <x*,x̄> <= eps; the verdict slack
    is eps minus that gap.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    gap = young_fenchel_gap(fn, xbar, xstar)
    slack = float(eps) - gap
    return Verdict(bool(slack >= -tol), float(slack))


def eps_normal_contains(
    C: Polyhedron, xbar, eps: float, xstar, tol: float = TOL_MEMBERSHIP
) -> Verdict:
    """Is x* an eps-normal of C at x̄, i.e. sigma_C(x*) - <x*,x̄> <= eps?"""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    xbar = np.asarray(xbar, float).reshape(-1)
    if not C.contains(xbar, tol=TOL_MEMBERSHIP):
        raise PointOutsideDomain("base point is outside the set")
    xstar = np.asarray(xstar, float).reshape(-1)
    sval = support_function(C, xstar)
    if not np.isfinite(sval):
        return Verdict(False, -np.inf)
    slack = float(eps) - float(sval - xstar @ xbar)
    return Verdict(bool(slack >= -tol), float(slack))


# ---------------------------------------------------------------------------
# subgradient selection


def _active_pieces(poly: PolyhedralFn, x) -> np.ndarray:
    vals = poly.piece_values(x)
    fval = vals.max()
    return np.where(vals >= fval - ACTIVE_TOL * (1.0 + abs(fval)))[0]


def subdiff_element(fn: ConvexFn, xbar) -> np.ndarray:
    """One exact subgradient of a polyhedral function at x̄, deterministically.

    Interior of the domain: the gradient of the lowest-index active piece.
    On the domain boundary the choice comes from the exactness LP
    (minimize the Young-Fenchel gap over the conjugate encoding), which is
    deterministic under Bland's rule.
    """
    coef, base = collapse_scale(fn)
    xbar = np.asarray(xbar, float).reshape(-1)
    if coef == 0.0:
        return np.zeros(fn.dim)
    if not isinstance(base, PolyhedralFn):
        raise ConjugateUnsupported("subdiff_element needs a polyhedral function")
    poly = base.scale(coef) if coef != 1.0 else base
    fval = poly.eval(xbar)
    if not np.isfinite(fval):
        raise PointOutsideDomain("base point is outside the function domain")
    dom = poly.domain
    ineq_active = (
        np.where(dom.A @ xbar >= dom.b - ACTIVE_TOL * (1.0 + np.abs(dom.b)))[0]
        if dom.A.shape[0]
        else np.array([], dtype=int)
    )
    if ineq_active.size == 0 and dom.E.shape[0] == 0:
        k = int(_active_pieces(poly, xbar)[0])
        return poly.A[k].copy()
    xstar, gap = _exactness_lp(poly, xbar)
    if gap > EXACTNESS_GAP_TOL:
        raise NumericalFailure("exactness LP did not close the Young-Fenchel gap")
    return xstar


def _exactness_lp(poly: PolyhedralFn, x):
    """Pick x* in the subdifferential of ``poly`` at x by minimizing the
    Young-Fenchel gap over the conjugate encoding; returns (x*, gap)."""
    x = np.asarray(x, float).reshape(-1)
    dom = poly.domain
    # variables: mu (K), eta (mA), zeta (mE); minimize YF gap
    K = poly.npieces
    mA, mE = dom.A.shape[0], dom.E.shape[0]
    nv = K + mA + 2 * mE  # zeta split into +/- parts
    c = np.zeros(nv)
    # gap = -sum mu b + b_D eta + d_D zeta + f(x) - <xstar, x>
    # xstar = A^T mu + A_D^T eta + E_D^T zeta
    c[:K] = poly.b + poly.A @ x
    if mA:
        # x in dom, so the slack is nonnegative up to noise; snap it
        c[K:K + mA] = -np.maximum(dom.b - dom.A @ x, 0.0)
    if mE:
        resid = dom.d - dom.E @ x
        resid[np.abs(resid) <= ACTIVE_TOL * (1.0 + np.abs(dom.d))] = 0.0
        c[K + mA:K + mA + mE] = -resid
        c[K + mA + mE:] = resid
    A_eq = np.zeros((1, nv))
    A_eq[0, :K] = 1.0
    out = lp_solve(
        LinearProgram(c=c, A_eq=A_eq, b_eq=[1.0], lb=np.zeros(nv))
    )
    if out.status != OPTIMAL:
        raise NumericalFailure("subgradient exactness LP failed")
    mu = out.x[:K]
    xstar = poly.A.T @ mu
    if mA:
        xstar = xstar + dom.A.T @ out.x[K:K + mA]
    if mE:
        zeta = out.x[K + mA:K + mA + mE] - out.x[K + mA + mE:]
        xstar = xstar + dom.E.T @ zeta
    gap = young_fenchel_gap(poly, x, xstar)
    return xstar, gap


# ---------------------------------------------------------------------------
# Brondsted-Rockafellar regularization


@dataclass(frozen=True)
class BRResult:
    """Nearby exact pair (x, x*) with its three measured bound values."""

    x: np.ndarray
    xstar: np.ndarray
    dist_x: float       # ||x - x̄||_2          (bound: sqrt(eps))
    dist_xstar: float   # ||x* - x̄*||_2        (bound: sqrt(eps))
    value_gap: float    # |f(x)-f(x̄)-<x*,x-x̄>| (bound: 2 eps)


def _br_pair(value, xbar, xbarstar, x, xstar) -> BRResult:
    # the three bound values, true Euclidean norm (value gap inf off the domain)
    return BRResult(
        x=np.asarray(x, float), xstar=np.asarray(xstar, float),
        dist_x=float(np.linalg.norm(x - xbar)),
        dist_xstar=float(np.linalg.norm(xstar - xbarstar)),
        value_gap=float(abs(value(x) - value(xbar) - xstar @ (x - xbar))),
    )


def _br_excess(res: BRResult, eps: float) -> float:
    # largest overshoot of a bound; <= 0 iff all three hold in exact float
    # comparison (a - b <= 0 iff a <= b)
    root = np.sqrt(max(eps, 0.0))
    return max(res.dist_x - root, res.dist_xstar - root, res.value_gap - 2.0 * eps)


def br_regularize(fns, xbar, eps: float, xbarstar) -> BRResult:
    """Find (x, x*) with x* an exact subgradient of f = sum_j f_j at x and
    the three Brondsted-Rockafellar bounds: ||x-x̄|| <= sqrt(eps),
    ||x*-x̄*|| <= sqrt(eps), |f(x)-f(x̄)-<x*,x-x̄>| <= 2 eps.

    ``fns`` is one function or a sequence of components, as ``Conjugate``
    takes them (weights sit in ScaledFn wrappers; zero-scaled components
    drop out with their domains, and with none left f is the zero
    function).  Given x̄* in the eps-subdifferential at x̄, such a pair
    exists.  Unless x̄* is already exact at x̄, the search is Ekeland's
    construction made exact by cutting planes: x minimizes f - <x̄*, .> +
    lam*||. - x̄|| with lam a hair below sqrt(eps), the norm written as
    t >= <u_j, . - x̄> over unit cuts u_j (the axes first, then Kelley's
    cut (x-x̄)/||x-x̄|| while ||x-x̄|| > t), one LP per round.  That LP is
    the conjugate LP's separable rows (``_separable_lp``, no cross product
    of the components' pieces) plus the column t and the cut rows, in the
    variables (y, s_1..s_k, t) with objective <x̄*,y> - sum_j s_j - lam*t.
    The cut rows' multipliers theta give x* = x̄* - sum_j theta_j u_j in
    the subdifferential at x with ||x*-x̄*|| <= lam, and the value gap is
    at most eps by optimality.  The pair is verified (exactness by one
    ``Conjugate`` of the components, held for the call; bounds in the true
    Euclidean norm) before returning; BRSearchFailed, with the best bound
    values reached, otherwise.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    xbar = np.asarray(xbar, float).reshape(-1)
    xbarstar = np.asarray(xbarstar, float).reshape(-1)
    conj = Conjugate(fns)
    polys = conj.polys

    def value(x):  # sum_j f_j(x), +inf off a domain
        return sum((poly.eval(x) for poly in polys), 0.0)

    def yf_gap(x, xstar):  # Young-Fenchel gap at a point x of the domain
        return float(conj(xstar) + value(x) - xstar @ x)

    if not polys:
        res = _br_pair(value, xbar, xbarstar, xbar, np.zeros(conj.dim))
        if _br_excess(res, eps) > 0:
            raise BRSearchFailed("zero function: x̄* is not within sqrt(eps) of 0")
        return res
    if not np.isfinite(value(xbar)):
        raise PointOutsideDomain("base point is outside the function domain")

    # already exact at the base point?
    if yf_gap(xbar, xbarstar) <= TOL_MEMBERSHIP:
        return BRResult(x=xbar, xstar=xbarstar, dist_x=0.0, dist_xstar=0.0, value_gap=0.0)

    # t >= <u_j, y - x̄> for every cut u_j, after the separable rows
    n, k = conj.dim, len(polys)
    sep = _separable_lp(polys)
    fixed, A_eq = (np.hstack([M, np.zeros((M.shape[0], 1))]) for M in (sep.A_ub, sep.A_eq))
    lam = np.sqrt(eps) * _BR_LAMBDA
    cuts = np.vstack([np.eye(n), -np.eye(n)])
    best = (np.inf, None, np.inf)  # (excess, pair, Young-Fenchel gap)
    for _ in range(_BR_ROUNDS):
        cut_rows = np.hstack([cuts, np.zeros((len(cuts), k)), -np.ones((len(cuts), 1))])
        out = lp_solve(LinearProgram(
            c=np.concatenate([xbarstar, -np.ones(k), [-lam]]),
            A_ub=np.vstack([fixed, cut_rows]),
            b_ub=np.concatenate([sep.b_ub, cuts @ xbar]),
            A_eq=A_eq, b_eq=sep.b_eq,
        ))
        if not out.is_optimal:
            raise BRSearchFailed(
                f"Ekeland LP {out.status} (eps={eps:g}, weight {lam:.6g}): "
                "x̄* is not an eps-subgradient at x̄"
            )
        y, t = out.x[:n], out.x[-1]
        res = _br_pair(value, xbar, xbarstar, y, xbarstar - out.duals[len(fixed):] @ cuts)
        excess = _br_excess(res, eps)
        gap = yf_gap(y, res.xstar) if excess <= 0 else np.inf
        if gap <= TOL_MEMBERSHIP:
            return res
        if best[1] is None or excess < best[0]:
            best = (excess, res, gap)
        nd = np.linalg.norm(y - xbar)
        if nd <= t:
            break
        cuts = np.vstack([cuts, (y - xbar) / nd])
    _, res, gap = best
    root = np.sqrt(eps)
    raise BRSearchFailed(
        f"no nearby exact pair after {len(cuts)} cuts: best dist_x={res.dist_x:.6g}, "
        f"dist_xstar={res.dist_xstar:.6g}, value_gap={res.value_gap:.6g} against "
        f"bounds {root:.6g}, {root:.6g}, {2.0 * eps:.6g}"
        + (f"; Young-Fenchel gap {gap:.3g} above {TOL_MEMBERSHIP:g}" if np.isfinite(gap) else "")
    )
