"""Deterministic dense-tableau LP solver (two-phase simplex, Bland's rule).

Every membership verdict in the package reduces to one of these solves, so
the solver favors predictability over scale: maximization convention,
explicit Infeasible/Unbounded outcomes, Bland's entering/leaving rule (which
guarantees termination), and fixed tolerances.  Problem sizes are desk scale
(tens of variables and rows); there is no factorization, pricing, or
presolve beyond the bound substitution.

An ``LpSession`` keeps the tableau and basis of one program between calls,
for loops that solve it again with another objective or another
inequality right-hand side; ``lp_solve`` is a session with one call.
Its batched calls take a stack at once: ``values`` prices many
objectives against the current basis in one product, and
``resolve_path`` reads many right-hand sides off it (ranging under a
fixed basis); only the rows the basis does not serve run the simplex,
so both take the pivots of the same calls made one at a time.  Every
point read off a basis, by any of these calls, goes through one checked
read that raises NumericalFailure unless the point satisfies the program
with its own right-hand side.
Determinism is per session call history: the same sequence of calls
takes the same pivots, and ``lp_solve`` takes the same pivots for the
same program.

Conventions
-----------
maximize  c @ x
subject to  A_ub @ x <= b_ub,  A_eq @ x == b_eq,  lb <= x <= ub

Bounds use ``-numpy.inf`` / ``numpy.inf`` as the sentinel extended reals;
finite bounds are substituted away so the tableau only ever sees
nonnegative variables.
"""

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._kernels import dual_simplex_core, pivot, simplex_core
from .errors import DimensionMismatch, NumericalFailure
from .tolerances import TOL_FEAS, TOL_OBJ, TOL_PHASE1

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _as_matrix(M, ncols: int, name: str) -> np.ndarray:
    if M is None:
        return np.zeros((0, ncols))
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros((0, ncols))
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be two-dimensional, got ndim={M.ndim}")
    if M.shape[1] != ncols:
        raise DimensionMismatch(
            f"{name} has {M.shape[1]} columns, expected {ncols}"
        )
    return M


def _as_vector(v, length: int, name: str) -> np.ndarray:
    if v is None:
        return np.zeros(length)
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {length}")
    return v


def _as_stack(M, ncols: int, name: str) -> np.ndarray:
    M = _as_matrix(M, ncols, name)
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass
class LinearProgram:
    """Data for ``maximize c@x  s.t.  A_ub x <= b_ub, A_eq x == b_eq, lb<=x<=ub``.

    Parameters
    ----------
    c : array, shape (n,)
        Objective coefficients (maximization).
    A_ub, b_ub : arrays, optional
        Inequality block; empty when omitted.
    A_eq, b_eq : arrays, optional
        Equality block; empty when omitted.
    lb, ub : arrays, optional
        Per-variable bounds.  Default is free (-inf, +inf).  Infinities
        are the only way to express an absent bound; large finite floats
        are taken literally.
    """

    c: np.ndarray
    A_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.shape[0]
        if n == 0:
            raise DimensionMismatch("objective must have at least one variable")
        self.A_ub = _as_matrix(self.A_ub, n, "A_ub")
        self.b_ub = _as_vector(self.b_ub, self.A_ub.shape[0], "b_ub")
        self.A_eq = _as_matrix(self.A_eq, n, "A_eq")
        self.b_eq = _as_vector(self.b_eq, self.A_eq.shape[0], "b_eq")
        if self.lb is None:
            self.lb = np.full(n, -np.inf)
        else:
            self.lb = _as_vector(self.lb, n, "lb")
        if self.ub is None:
            self.ub = np.full(n, np.inf)
        else:
            self.ub = _as_vector(self.ub, n, "ub")
        for name, arr in (("c", self.c), ("A_ub", self.A_ub), ("b_ub", self.b_ub),
                          ("A_eq", self.A_eq), ("b_eq", self.b_eq)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.isnan(self.lb)) or np.any(np.isnan(self.ub)):
            raise ValueError("bounds contain NaN")

    @property
    def nvars(self) -> int:
        return self.c.shape[0]


@dataclass
class LpOutcome:
    """Solve result: ``status`` is one of optimal / infeasible / unbounded.

    ``x``, ``value`` and ``duals`` are populated only for optimal outcomes;
    an unbounded maximization reports ``value = inf``.  Optimal solutions
    satisfy the constraints within a small multiple of ``TOL_FEAS``
    (checked before returning; violations raise NumericalFailure).
    ``duals`` holds one multiplier per ``A_ub`` row (nonnegative up to
    ``TOL_OBJ``, zero on rows with slack).
    """

    status: str
    x: Optional[np.ndarray] = None
    value: float = field(default=np.nan)
    duals: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def lp_solve(lp: LinearProgram, max_pivots: Optional[int] = None) -> LpOutcome:
    """Solve a LinearProgram with the two-phase Bland-rule simplex.

    One ``LpSession`` and one ``maximize``, so identical inputs take
    identical pivot sequences.  The pivot budget of each simplex run
    defaults to ``400 + 60*(rows+cols)``; exceeding it (or failing the
    post-solve feasibility check) raises NumericalFailure.
    """
    return LpSession(lp, max_pivots).maximize()


class LpSession:
    """One LP, standardized once and re-solved from its last basis.

    The constructor substitutes the bounds, builds the tableau and runs
    phase 1.  ``maximize(c)`` then runs phase 2 for the objective ``c``
    (default: the last one) from the last basis.  ``resolve_rhs(b_ub)``
    recomputes the basic values for a new inequality right-hand side from
    the columns that started as the identity (B^-1 b), restores primal
    feasibility with a Bland-rule dual simplex from the last basis and
    runs phase 2; ``A_ub``, the equality rows and the bounds never change.
    A session whose phase 1 found no feasible point has no basis to keep,
    so its next ``resolve_rhs`` starts a new session.

    ``values(C)`` and ``resolve_path(B)`` are ``maximize`` and
    ``resolve_rhs`` for a stack of objectives or right-hand sides; rows
    the current basis already serves are read off it without a pivot.
    All four read their points through ``_vertices``, the one read of
    basis points, which checks each against its right-hand side.

    Outcomes are deterministic per call history: the same sequence of
    calls takes the same pivots, but an optimum reached from another
    basis may be another optimal vertex than a fresh ``lp_solve`` finds,
    with the same value up to rounding.  ``lp`` is the program as it now
    stands (the last objective and right-hand side); ``pivots`` counts
    the pivots of each run ("phase 1", "phase 2", "dual simplex") over the
    session's life.
    """

    def __init__(self, lp: LinearProgram, max_pivots: Optional[int] = None):
        self.pivots = {"phase 1": 0, "phase 2": 0, "dual simplex": 0}
        self._max_pivots = max_pivots
        self._start(lp)

    def _start(self, lp: LinearProgram):
        self.lp = lp
        self._phase1_ok = self._feasible = self._optimal = False
        self._T = None
        n = lp.nvars
        lo, hi = lp.lb, lp.ub
        if np.any(lo > hi):
            return

        # Substitute bounds so that internal variables are all >= 0:
        # x_j = offset_j + sign_j * u_k, one column per variable in order
        # (+1 from a finite lower bound, -1 from an upper bound alone) and
        # a split pair (+1, -1) per free variable.
        ljf, ujf = np.isfinite(lo), np.isfinite(hi)
        var = np.repeat(np.arange(n), 1 + ~(ljf | ujf))  # the variable of each column
        nu = var.shape[0]
        sign = np.where(ljf | ~ujf, 1.0, -1.0)[var]
        sign[1:][var[1:] == var[:-1]] = -1.0  # the second column of a free pair
        S = np.zeros((n, nu))
        S[var, np.arange(nu)] = sign
        offset = np.where(ljf, lo, np.where(ujf, hi, 0.0))
        boxed = ljf & ujf  # one more <= row, u_k <= hi_j - lo_j, on its one column
        bex = hi[boxed] - lo[boxed]

        # Rows: the <= rows (A_ub, then the boxed bounds), then the == rows.
        # Column layout: structural | slack(one per <= row) | artificial.
        # Rows with negative rhs are negated first; <= rows then carry either a
        # slack basis (+1) or a surplus (-1) plus an artificial, and every ==
        # row an artificial; artificials follow their rows' order.
        A = np.vstack([lp.A_ub @ S, S[boxed], lp.A_eq @ S])
        b = np.concatenate([lp.b_ub - lp.A_ub @ offset, bex, lp.b_eq - lp.A_eq @ offset])
        m, m_le = b.shape[0], lp.A_ub.shape[0] + bex.shape[0]
        n_slack = m_le
        sgn = np.where(b >= 0, 1.0, -1.0)
        art = b < 0
        art[m_le:] = True
        art_rows = art.nonzero()[0]
        n_art = art_rows.shape[0]
        ncols = nu + n_slack + n_art
        art_cols = nu + n_slack + np.arange(n_art, dtype=np.int64)
        rows = np.arange(m, dtype=np.int64)
        T = np.zeros((m + 1, ncols + 1))
        T[:m, :nu] = sgn[:, None] * A
        T[:m, ncols] = sgn * b
        T[rows[:m_le], nu + rows[:m_le]] = sgn[:m_le]  # slack or surplus
        T[art_rows, art_cols] = 1.0
        basis = nu + rows
        basis[art_rows] = art_cols
        eq_sign = sgn[m_le:]

        self._T, self._basis = T, basis
        self._S, self._offset, self._nu, self._bex, self._eq_sign = S, offset, nu, bex, eq_sign
        # B^-1 e_i for row i: its slack column times the row's sign for a
        # <= row (the signs cancel against the signed rhs), its artificial
        # for an == row
        self._unit = np.concatenate([nu + rows[:m_le], basis[m_le:]])
        self._budget = (400 + 60 * (m + ncols)) if self._max_pivots is None else self._max_pivots
        self._allowed = np.ones(ncols, dtype=np.bool_)

        if n_art:
            # Phase 1: maximize -(sum of artificials).
            obj1 = np.zeros(ncols + 1)
            obj1[nu + n_slack:ncols] = -1.0
            T[m] = obj1
            _reduce_objective(T, basis, m)
            self._run("phase 1", simplex_core, TOL_OBJ)
            phase1 = -T[m, ncols]
            if phase1 < -TOL_PHASE1 * (1.0 + float(np.abs(T[:, ncols]).max(initial=0.0))):
                return
            _pivot_out_artificials(T, basis, nu + n_slack, m)
        self._allowed[nu + n_slack:] = False
        self._phase1_ok = self._feasible = True

    def maximize(self, c=None) -> LpOutcome:
        """Phase 2 for objective ``c`` (default: the last one) from the last basis."""
        if c is not None:
            c = _as_vector(c, self.lp.nvars, "c")
            if not np.all(np.isfinite(c)):
                raise ValueError("c contains non-finite entries")
            self._use_objective(c)
        self._optimal = False
        if not self._feasible:
            return LpOutcome(INFEASIBLE)
        T, m, nu = self._T, self._T.shape[0] - 1, self._nu
        self._reduce(self.lp.c)
        if self._run("phase 2", simplex_core, TOL_OBJ) == 1:
            return LpOutcome(UNBOUNDED, value=np.inf)
        self._optimal = True
        x = self._vertices(T[None, :m, -1], self.lp.b_ub[None])[0]
        value = float(self.lp.c @ x)
        # a row's multiplier is minus the reduced profit of its slack column; a
        # row negated for a negative rhs negated its slack too, so the sign holds
        duals = 0.0 - T[m, nu:nu + self.lp.A_ub.shape[0]]
        return LpOutcome(OPTIMAL, x=x, value=value, duals=duals)

    def values(self, C) -> np.ndarray:
        """``maximize(c).value`` for each row c of ``C``, in order, with +inf
        where the program is unbounded and -inf where it is infeasible.

        Every remaining row is priced against the current basis in one
        product.  A row whose reduced profits all stay below ``TOL_OBJ`` by
        more than the rounding of that product is optimal there: phase 2
        would take no pivot, and its value is c@x at the basis point, read
        once per basis.  The first row that is not runs through
        ``maximize``, and pricing resumes from the basis it leaves, so the
        pivots are those of calling ``maximize`` row by row.
        """
        C = _as_stack(C, self.lp.nvars, "C")
        out = np.full(C.shape[0], -np.inf)
        if not self._feasible:
            if C.shape[0]:
                self._use_objective(C[-1])
            return out
        k = 0
        while k < C.shape[0]:
            clear = self._priced_optimal(C[k:])
            j = clear.shape[0] if clear.all() else int(np.argmin(clear))
            if j:
                self._last = ("phase 2", 0)
                x = self._vertices(self._T[None, :-1, -1], self.lp.b_ub[None])[0]
                out[k:k + j] = C[k:k + j] @ x
                k += j
                if k == C.shape[0]:  # leave the objective row as maximize would
                    self._use_objective(C[-1])
                    self._reduce(C[-1])
                    self._optimal = True
                    return out
            out[k] = self.maximize(C[k]).value
            k += 1
        return out

    def resolve_rhs(self, b_ub) -> LpOutcome:
        """Re-solve for a new ``b_ub``: B^-1 b, dual simplex, then phase 2.

        Only the new right-hand side is validated, as ``LinearProgram``
        would validate it; the rest of the program is the session's own."""
        b_ub = _as_vector(b_ub, self.lp.A_ub.shape[0], "b_ub")
        if not np.all(np.isfinite(b_ub)):
            raise ValueError("b_ub contains non-finite entries")
        lp = copy.copy(self.lp)
        lp.b_ub = b_ub
        if not self._phase1_ok:
            self._start(lp)
            return self.maximize()
        self.lp = lp
        T, m = self._T, self._T.shape[0] - 1
        rhs = self._rhs(b_ub[None])[0]
        T[:m, -1] = T[:m, self._unit] @ rhs
        # B^-1 b leaves rounding where a fresh solve reads an exact 0
        band = TOL_FEAS * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        T[:m, -1][np.abs(T[:m, -1]) <= band] = 0.0
        if (T[m, :-1][self._allowed] > TOL_OBJ).any():
            # not dual feasible (the last phase 2 stopped unbounded): restore
            # feasibility for the zero objective, which every basis is optimal for
            T[m] = 0.0
        self._feasible = self._run("dual simplex", dual_simplex_core, band) == 0
        return self.maximize()

    def resolve_path(self, B_ub):
        """``resolve_rhs`` for each row of ``B_ub`` in turn; returns the
        values (as ``values`` gives them) and the optimal points, one row
        per right-hand side (NaN where not optimal).

        While the last outcome is optimal, B^-1 b is computed for every
        remaining row in one product and zeroed within the band of
        ``resolve_rhs``.  A row whose basic values all clear that band, by
        more than the rounding of the product, stays primal feasible at the
        current basis, where the dual simplex and phase 2 would take no
        pivot, so its point is read off the basis.  The first row that does
        not goes through ``resolve_rhs``, and reading resumes from the basis
        it leaves.  Each point read off is checked against its own
        right-hand side.
        """
        B = _as_stack(B_ub, self.lp.A_ub.shape[0], "B_ub")
        K = B.shape[0]
        values, X = np.full(K, -np.inf), np.full((K, self.lp.nvars), np.nan)
        k = 0
        while k < K:
            if self._optimal:
                V, clear = self._basic_values(B[k:])
                j = clear.shape[0] if clear.all() else int(np.argmin(clear))
                if j:
                    self._last = ("phase 2", 0)
                    X[k:k + j] = self._vertices(V[:j], B[k:k + j])
                    values[k:k + j] = X[k:k + j] @ self.lp.c
                    self._T[:-1, -1] = V[j - 1]
                    self.lp = copy.copy(self.lp)
                    self.lp.b_ub = B[k + j - 1]
                    k += j
                    continue
            out = self.resolve_rhs(B[k])
            if out.status != INFEASIBLE:
                values[k] = out.value
            if out.is_optimal:
                X[k] = out.x
            k += 1
        return values, X

    def _use_objective(self, c):
        self.lp = copy.copy(self.lp)  # the caller's program stays as given
        self.lp.c = c

    def _reduce(self, c):
        """Write the reduced profits of ``c`` at the current basis into the
        objective row."""
        T, m = self._T, self._T.shape[0] - 1
        obj2 = np.zeros(T.shape[1])
        obj2[:self._nu] = self._S.T @ c
        T[m] = obj2
        _reduce_objective(T, self._basis, m)

    def _vertices(self, V, B_ub) -> np.ndarray:
        """The points whose basic values are the rows of ``V`` (the current
        basis point is ``_vertices(T[None, :-1, -1], b_ub[None])[0]``);
        raises NumericalFailure unless each satisfies the program with the
        inequality right-hand side of the same row of ``B_ub``."""
        lp, structural = self.lp, self._basis < self._nu
        U = np.zeros((V.shape[0], self._nu))
        U[:, self._basis[structural]] = np.maximum(V[:, structural], 0.0)
        X = self._offset + U @ self._S.T
        scale = 1.0 + np.abs(B_ub).max(axis=1, initial=0.0) + np.abs(X).max(axis=1, initial=0.0)
        tol = 100.0 * TOL_FEAS * scale
        for name, excess in (
            ("an inequality row", X @ lp.A_ub.T - B_ub),
            ("an equality row", np.abs(X @ lp.A_eq.T - lp.b_eq)),
            ("a variable bound", np.hstack([lp.lb - X, X - lp.ub])),
        ):
            worst = excess.max(axis=1, initial=-np.inf)
            bad = (worst > tol).nonzero()[0]
            if bad.size:
                i = bad[0]
                raise self._failure(
                    f"optimal point violates {name} by {worst[i]:.3g} > {tol[i]:.3g}"
                )
        return X

    def _priced_optimal(self, C) -> np.ndarray:
        """Which objectives (rows of ``C``) phase 2 would leave at the
        current basis without a pivot.  The reduced profits come from one
        product instead of ``_reduce_objective``'s row operations; both
        round by at most (m + 1) units in the last place of the magnitudes
        summed, so a row clears only with twice that margin to spare."""
        T, m, nu, basis = self._T, self._T.shape[0] - 1, self._nu, self._basis
        rows = T[:m, :-1][:, self._allowed]
        obj = np.zeros((C.shape[0], T.shape[1] - 1))
        obj[:, :nu] = C @ self._S
        ob = obj[:, basis]
        reduced = obj[:, self._allowed] - ob @ rows
        scale = np.abs(obj[:, self._allowed]) + np.abs(ob) @ np.abs(rows)
        margin = (m + 2) * np.finfo(float).eps * scale
        return (reduced + margin <= TOL_OBJ).all(axis=1)

    def _basic_values(self, B):
        """B^-1 b for every rhs row of ``B`` in one product, zeroed within
        ``resolve_rhs``'s band; returns them with a flag per row that is set
        when the dual simplex would take no pivot there.  A row is flagged
        only when no value lies within the rounding of the product of the
        band's edge, so the zeroing and the flag match ``resolve_rhs``."""
        T, m = self._T, self._T.shape[0] - 1
        rhs = self._rhs(B)
        unit = T[:m, self._unit]
        V = rhs @ unit.T
        band = TOL_FEAS * (1.0 + np.abs(rhs).max(axis=1, initial=0.0))[:, None]
        margin = (rhs.shape[1] + 2) * np.finfo(float).eps * (np.abs(rhs) @ np.abs(unit).T)
        edge = np.abs(np.abs(V) - band) <= margin
        clear = ~(edge | (V < -band)).any(axis=1)
        V[np.abs(V) <= band] = 0.0
        return V, clear

    def _rhs(self, B) -> np.ndarray:
        """The standardized right-hand side for each inequality rhs row of
        ``B``: the bound offset taken off, the boxed bounds, then the
        equality rows with the signs they were standardized with."""
        lp, K = self.lp, B.shape[0]
        return np.hstack([
            B - lp.A_ub @ self._offset,
            np.broadcast_to(self._bex, (K, self._bex.shape[0])),
            np.broadcast_to(self._eq_sign * (lp.b_eq - lp.A_eq @ self._offset),
                            (K, lp.b_eq.shape[0])),
        ])

    def _run(self, phase, core, tol: float) -> int:
        """One run of ``core`` (the primal or the dual simplex); returns
        code 0 (done) or 1 (unbounded for the primal, inconsistent rows for
        the dual).  An unbounded phase 1 or an exhausted budget raises
        NumericalFailure."""
        code, pivots = core(self._T, self._basis, self._allowed, TOL_FEAS, tol, self._budget)
        self.pivots[phase] += pivots
        self._last = (phase, pivots)
        if code == 2:
            raise self._failure("pivot budget exhausted")
        if code == 1 and phase == "phase 1":
            raise self._failure("unbounded")
        return code

    def _failure(self, what: str) -> NumericalFailure:
        phase, pivots = self._last
        rows, cols = self._T.shape
        return NumericalFailure(
            f"{phase}: {what} after {pivots} of {self._budget} pivots "
            f"on a {rows}x{cols} tableau"
        )


def _reduce_objective(T, basis, m):
    # Zero the objective-row entries of basic columns (rows are unit there).
    for i in range(m):
        f = T[m, basis[i]]
        if f != 0.0:
            T[m] -= f * T[i]
            T[m, basis[i]] = 0.0


def _pivot_out_artificials(T, basis, first_art: int, m: int):
    # Basic artificials sit at value ~0 after a feasible phase 1; pivot them
    # onto a usable structural/slack column: the first entry above 1e-9 in
    # the row.  Phase 1 accepts artificials up to its own looser tolerance;
    # one whose value lies outside TOL_FEAS*(1 + max|rhs|) pivots on the
    # entry of largest magnitude instead, since dividing that value by a
    # tiny entry would throw the basic values far off.  Rows with no usable
    # column are redundant and stay parked (the artificial can never
    # re-enter).
    band = TOL_FEAS * (1.0 + float(np.abs(T[:m, -1]).max(initial=0.0)))
    for i in range(m):
        if basis[i] >= first_art:
            row = np.abs(T[i, :first_art])
            j = int(np.argmax(row if abs(T[i, -1]) > band else row > 1e-9))
            if row[j] > 1e-9:
                pivot(T, basis, i, j)
