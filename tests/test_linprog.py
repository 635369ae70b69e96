from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from lp_reference import lp_solve as reference_lp_solve
from lp_reference import row_loop_dual_simplex_core, row_loop_pivot, row_loop_simplex_core

from henigcert import _kernels
from henigcert.errors import DimensionMismatch, NumericalFailure
from henigcert.linprog import (
    INFEASIBLE,
    OPTIMAL,
    TOL_FEAS,
    TOL_OBJ,
    UNBOUNDED,
    LinearProgram,
    LpSession,
    lp_solve,
)


def test_simple_bounded():
    # maximize x s.t. x <= 3, x >= 0
    out = lp_solve(LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[3.0], nonneg=[True]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert out.x[0] == pytest.approx(3.0, abs=1e-9)


def test_degenerate_face_value():
    # maximize x+y s.t. x+y <= 1, x,y >= 0: any point of the face is optimal
    out = lp_solve(
        LinearProgram(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], nonneg=[True, True])
    )
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    out = lp_solve(LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[-1.0], nonneg=[True]))
    assert out.status == INFEASIBLE
    assert out.x is None


def test_unbounded():
    out = lp_solve(LinearProgram(c=[1.0], nonneg=[True]))
    assert out.status == UNBOUNDED
    assert out.value == np.inf


def test_equality_rows():
    out = lp_solve(
        LinearProgram(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], nonneg=[True, True])
    )
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(out.x, [0.0, 1.0], atol=1e-9)


def test_lower_bound_row():
    # maximize -x with x >= -5, a row on a free variable
    out = lp_solve(LinearProgram(c=[-1.0], A_ub=[[-1.0]], b_ub=[5.0]))
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(5.0, abs=1e-9)


def test_upper_bound_only_variable():
    # maximize x with x <= 7 and x otherwise free
    out = lp_solve(LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[7.0]))
    assert out.status == OPTIMAL
    assert out.x[0] == pytest.approx(7.0, abs=1e-9)


def test_two_sided_bounds():
    # 1 <= x <= 4 as two rows
    box = dict(A_ub=[[-1.0], [1.0]], b_ub=[-1.0, 4.0])
    out = lp_solve(LinearProgram(c=[1.0], **box))
    assert out.x[0] == pytest.approx(4.0, abs=1e-9)
    out = lp_solve(LinearProgram(c=[-1.0], **box))
    assert out.x[0] == pytest.approx(1.0, abs=1e-9)


def test_crossed_bounds_infeasible():
    # 2 <= x <= 1 as two rows
    out = lp_solve(LinearProgram(c=[1.0], A_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0]))
    assert out.status == INFEASIBLE


def test_negative_rhs_row():
    # x >= 2 written as -x <= -2; maximize -x
    out = lp_solve(LinearProgram(c=[-1.0], A_ub=[[-1.0]], b_ub=[-2.0], nonneg=[True]))
    assert out.status == OPTIMAL
    assert out.x[0] == pytest.approx(2.0, abs=1e-9)


def test_free_variables_conjugate_shape():
    # maximize 2x - t with t >= 2x: optimal value 0 on an unbounded face
    out = lp_solve(
        LinearProgram(c=[2.0, -1.0], A_ub=[[2.0, -1.0]], b_ub=[0.0])
    )
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.0, abs=1e-9)


def test_unbounded_with_free_variable():
    # maximize x - t with t >= 2x: ray x -> -inf gives value -x -> +inf
    out = lp_solve(
        LinearProgram(c=[1.0, -1.0], A_ub=[[2.0, -1.0]], b_ub=[0.0])
    )
    assert out.status == UNBOUNDED


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearProgram(c=[1.0, 2.0], A_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(DimensionMismatch):
        LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[1.0, 2.0])


def test_nonfinite_data_rejected():
    with pytest.raises(ValueError):
        LinearProgram(c=[np.nan])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], A_ub=[[np.inf]], b_ub=[1.0])


def test_nonneg_mask_is_checked():
    # a mask of the wrong length is a dimension error and one that is not
    # boolean (floats, NaN, integers) a value error; without a mask every
    # variable is free
    with pytest.raises(DimensionMismatch, match="^nonneg has length 1, expected 2$"):
        LinearProgram(c=[1.0, 2.0], nonneg=[True])
    for mask in ([1.0, 0.0], [np.nan, 1.0], [1, 0]):
        with pytest.raises(ValueError, match="^nonneg must be a boolean mask"):
            LinearProgram(c=[1.0, 2.0], nonneg=mask)
    lp = LinearProgram(c=[-1.0, -1.0])
    assert lp.nonneg.dtype == bool and not lp.nonneg.any()
    # maximize -x - y: unbounded when free, 0 at the origin when nonnegative
    assert lp_solve(lp).status == UNBOUNDED
    assert lp_solve(replace(lp, nonneg=[True, True])).value == 0.0


def test_beale_cycling_instance_terminates():
    # Classic cycling example for naive pivoting; Bland's rule must finish.
    lp = LinearProgram(
        c=[0.75, -150.0, 0.02, -6.0],
        A_ub=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 1.0],
        nonneg=np.ones(4, dtype=bool),
    )
    out = lp_solve(lp)
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(0.05, abs=1e-9)


def _box_rows(A, b, n):
    # the rows A x <= b with the box [-10, 10]^n below them
    return dict(A_ub=np.vstack([A, np.eye(n), -np.eye(n)]),
                b_ub=np.concatenate([b, np.full(2 * n, 10.0)]))


def test_random_instances_feasible_and_locally_best():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        mrows = int(rng.integers(0, 5))
        A = rng.normal(size=(mrows, n))
        x0 = rng.uniform(-2.0, 2.0, size=n)
        b = A @ x0 + rng.uniform(0.0, 1.5, size=mrows)
        c = rng.normal(size=n)
        lp = LinearProgram(c=c, **_box_rows(A, b, n))
        out = lp_solve(lp)
        assert out.status == OPTIMAL
        assert (A @ out.x <= b + 1e-7).all()
        assert (out.x >= -10.0 - 1e-7).all() and (out.x <= 10.0 + 1e-7).all()
        # x0 is feasible, so the reported optimum can never fall below it
        assert out.value >= c @ x0 - 1e-7
        # and no sampled feasible point may beat it
        for _ in range(20):
            xs = rng.uniform(-10.0, 10.0, size=n)
            if mrows == 0 or (A @ xs <= b).all():
                assert out.value >= c @ xs - 1e-7


def test_redundant_equality_rows():
    # duplicated equality row leaves a parked artificial; solve still works
    out = lp_solve(
        LinearProgram(
            c=[1.0, 0.0],
            A_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[1.0, 1.0],
            nonneg=[True, True],
        )
    )
    assert out.status == OPTIMAL
    assert out.value == pytest.approx(1.0, abs=1e-9)


def _random_integer_lp(rng):
    # each variable is free, bounded below or boxed; a lower bound of 0
    # makes it nonnegative, and any other bound is a row after the others
    n = int(rng.integers(1, 6))
    m_ub, m_eq = int(rng.integers(0, 5)), int(rng.integers(0, 3))
    nonneg, rows, rhs = np.zeros(n, dtype=bool), [], []
    for j, kind in enumerate(rng.integers(0, 3, size=n)):  # free, lower, boxed
        if kind:
            lo = float(rng.integers(-3, 2))
            nonneg[j] = lo == 0.0
            if not nonneg[j]:
                rows.append(-np.eye(n)[j])
                rhs.append(-lo)
        if kind == 2:
            rows.append(np.eye(n)[j])
            rhs.append(lo + float(rng.integers(0, 5)))
    return LinearProgram(
        c=rng.integers(-3, 4, size=n).astype(float),
        A_ub=np.vstack([rng.integers(-3, 4, size=(m_ub, n)).astype(float), *rows]),
        b_ub=np.concatenate([rng.integers(-2, 6, size=m_ub).astype(float), rhs]),
        A_eq=rng.integers(-2, 3, size=(m_eq, n)).astype(float),
        b_eq=rng.integers(-3, 4, size=m_eq).astype(float),
        nonneg=nonneg,
    )


def _highs(linprog, lp):
    ref = linprog(
        -lp.c,
        A_ub=lp.A_ub if lp.A_ub.size else None, b_ub=lp.b_ub if lp.b_ub.size else None,
        A_eq=lp.A_eq if lp.A_eq.size else None, b_eq=lp.b_eq if lp.b_eq.size else None,
        bounds=[(0, None) if nn else (None, None) for nn in lp.nonneg],
        method="highs", options={"presolve": False},
    )
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
    return status, (-ref.fun if status == OPTIMAL else None)


def test_status_value_and_duals_against_highs():
    # Differential test against HiGHS, run without presolve: with it, HiGHS
    # calls some feasible, unbounded LPs of this family infeasible.  The row
    # duals are not compared entry by entry (degenerate LPs have many); they
    # must certify optimality: y >= 0, complementary slackness, and some
    # equality multipliers z giving reduced costs r = c - A^T y - E^T z that
    # are 0 on every variable but a nonnegative one at 0, where they may be
    # negative.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    tol = 1e-7
    for _ in range(600):
        lp = _random_integer_lp(rng)
        out = lp_solve(lp)
        status, value = _highs(linprog, lp)
        assert out.status == status
        seen[out.status] += 1
        if not out.is_optimal:
            assert out.duals is None
            continue
        assert out.value == pytest.approx(value, abs=1e-7)
        y, x = out.duals, out.x
        assert y.shape == lp.b_ub.shape
        assert (y >= -1e-9).all()
        assert np.abs(y * (lp.b_ub - lp.A_ub @ x)).max(initial=0.0) <= tol
        r0 = lp.c - lp.A_ub.T @ y
        at_lb = lp.nonneg & (x <= 1e-9)
        # r <= tol, and r >= -tol unless at the lower bound 0: rows G z <= h
        # for r = r0 - E^T z
        G = np.vstack([-lp.A_eq.T, lp.A_eq.T[~at_lb]])
        h = np.concatenate([tol - r0, tol + r0[~at_lb]])
        if lp.A_eq.shape[0] == 0:
            assert (h >= 0).all()
            continue
        z = linprog(np.zeros(lp.A_eq.shape[0]), A_ub=G, b_ub=h,
                    bounds=[(None, None)] * lp.A_eq.shape[0], method="highs")
        assert z.status == 0
    assert min(seen.values()) >= 100 and seen[OPTIMAL] >= 200


def _random_box_lp(rng):
    # the family of test_random_instances_feasible_and_locally_best, with
    # real-valued data so that rounding differences would show
    n = int(rng.integers(1, 5))
    mrows = int(rng.integers(0, 5))
    A = rng.normal(size=(mrows, n))
    b = A @ rng.uniform(-2.0, 2.0, size=n) + rng.uniform(0.0, 1.5, size=mrows)
    return LinearProgram(c=rng.normal(size=n), **_box_rows(A, b, n))


def test_lp_solve_matches_the_one_shot_reference_bit_for_bit():
    # lp_solve is one session and one maximize; it must take the pivots of
    # the one-shot solver it replaced, so x, value and duals are identical
    rng = np.random.default_rng(20240818)
    lps = [_random_integer_lp(rng) for _ in range(400)] + [_random_box_lp(rng) for _ in range(200)]
    for lp in lps:
        try:
            want = reference_lp_solve(lp)
        except NumericalFailure:
            with pytest.raises(NumericalFailure):
                lp_solve(lp)
            continue
        got = lp_solve(lp)
        assert got.status == want.status
        assert float(got.value).hex() == float(want.value).hex()
        for name in ("x", "duals"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def _kernel_tableau(rng):
    """A slack-basis tableau [A I b; c 0 -z] with its rows shuffled, then a
    few pivots, so the basis is out of order.  Small integers give exact
    zeros (signed ones too) and exactly tied ratios; a relative nudge of a
    few 1e-14 gives ratios that tie only within the ratio test's span; some
    right-hand sides are tiny negatives; some columns are unbounded."""
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 10))
    if rng.random() < 0.6:
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(0, 4, size=m).astype(float)
    else:
        A = rng.normal(size=(m, n))
        A[rng.random((m, n)) < 0.3] = 0.0
        b = rng.uniform(0.0, 2.0, size=m)
    if rng.random() < 0.3:
        b *= 1.0 + rng.integers(-3, 4, size=m) * 1e-14
    b[rng.random(m) < 0.15] = -1e-13
    A[A == 0.0] *= rng.choice([1.0, -1.0], size=int((A == 0.0).sum()))
    c = rng.integers(-2, 4, size=n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
    unbounded = rng.random(n) < 0.1
    A[:, unbounded] = -np.abs(A[:, unbounded])
    c[unbounded] = np.abs(c[unbounded]) + 1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n], T[:m, n:n + m], T[:m, -1], T[m, :n] = A, np.eye(m), b, c
    order = rng.permutation(m)
    T[:m] = T[order]
    basis = (n + np.arange(m, dtype=np.int64))[order]
    for _ in range(int(rng.integers(0, 3))):
        i, j = int(rng.integers(m)), int(rng.integers(n + m))
        if abs(T[i, j]) > 0.5:
            row_loop_pivot(T, basis, i, j)
    allowed = rng.random(n + m) < 0.85
    return T, basis, allowed


def _first_ratio_tie(T, allowed):
    # whether the first ratio test on T meets two rows at the minimum ratio
    # or within the test's 1e-12 relative span of it
    m, last = T.shape[0] - 1, T.shape[1] - 1
    cand = np.flatnonzero(allowed & (T[m, :last] > TOL_OBJ))
    if cand.size == 0:
        return False
    col = T[:m, cand[0]]
    rows = col > TOL_FEAS
    r = np.maximum(T[:m, last][rows] / col[rows], 0.0)
    return bool(r.size > 1 and np.sort(r)[1] <= r.min() * (1 + 1e-12) + 1e-12)


def test_kernels_match_the_row_loops_bit_for_bit():
    # the whole-array pivot, primal and dual simplex must leave every
    # tableau entry (signed zeros included), the basis, the code and the
    # pivot count exactly where the row loops leave them, after every call
    rng = np.random.default_rng(20261018)
    codes, ties, calls = Counter(), 0, 0

    def both(new, old, T, basis, *args):
        nonlocal calls
        T2, basis2 = T.copy(), basis.copy()
        got, want = new(T, basis, *args), old(T2, basis2, *args)
        assert got == want
        assert T.tobytes() == T2.tobytes()
        assert basis.tobytes() == basis2.tobytes()
        calls += 1
        return got

    for _ in range(1200):
        T, basis, allowed = _kernel_tableau(rng)
        ties += _first_ratio_tie(T, allowed)
        m = T.shape[0] - 1
        i, j = int(rng.integers(m)), int(rng.integers(T.shape[1] - 1))
        if T[i, j] != 0.0:
            P = T.copy()
            both(_kernels.pivot, row_loop_pivot, P, basis.copy(), i, j)
        budget = int(rng.choice([0, 1, 2, 3, 200]))
        for _ in range(2):  # a run and its resumption
            code, _ = both(_kernels.simplex_core, row_loop_simplex_core,
                           T, basis, allowed, TOL_FEAS, TOL_OBJ, budget)
            codes["primal", code] += 1
            budget = 200
        # dual simplex from a dual-feasible objective row and a new rhs
        # with negative entries
        T[m, :-1] = np.minimum(T[m, :-1], 0.0)
        T[:m, -1] -= rng.integers(0, 3, size=m) * rng.random()
        code, _ = both(_kernels.dual_simplex_core, row_loop_dual_simplex_core,
                       T, basis, allowed, TOL_FEAS, TOL_FEAS, int(rng.choice([1, 200])))
        codes["dual", code] += 1
    for kind in ("primal", "dual"):
        assert min(codes[kind, code] for code in (0, 1, 2)) >= 20, codes
    assert ties >= 50 and calls >= 4000


def test_pivot_budget_failure_reports_phase_pivots_and_shape():
    # phase 2: three columns enter, one pivot allowed; 3 rows, 3 structural
    # and 3 slack columns, so the tableau is 4x7 with the objective and rhs
    lp = LinearProgram(c=[1.0, 1.0, 1.0], A_ub=np.eye(3), b_ub=[1.0, 1.0, 1.0],
                       nonneg=np.ones(3, dtype=bool))
    with pytest.raises(NumericalFailure, match=r"^phase 2: pivot budget exhausted after 1 of 1 "
                       r"pivots on a 4x7 tableau$"):
        lp_solve(lp, max_pivots=1)
    # phase 1: x_i >= 1 needs a surplus and an artificial per row
    lp = replace(lp, b_ub=[-1.0, -1.0, -1.0], A_ub=-np.eye(3), c=-np.ones(3))
    with pytest.raises(NumericalFailure, match=r"^phase 1: pivot budget exhausted after 2 of 2 "
                       r"pivots on a 4x10 tableau$"):
        lp_solve(lp, max_pivots=2)
    # dual simplex: the same rows met from x = 0, where the slack basis is
    # optimal without a pivot
    session = LpSession(replace(lp, b_ub=np.zeros(3)), max_pivots=2)
    assert session.maximize().value == 0.0
    with pytest.raises(NumericalFailure, match=r"^dual simplex: pivot budget exhausted after 2 of 2 "
                       r"pivots on a 4x7 tableau$"):
        session.resolve_rhs([-1.0, -1.0, -1.0])
    assert session.pivots == {"phase 1": 0, "phase 2": 0, "dual simplex": 2}


def test_resolve_rhs_validates_only_the_new_rhs():
    # a right-hand side of the wrong length or with a non-finite entry
    # raises what LinearProgram raises for it and leaves the session as it
    # was; a good one replaces b_ub alone, on a copy of the program, and
    # the caller's program stays as given
    lp = LinearProgram(c=[1.0, 1.0], A_ub=np.eye(2), b_ub=[1.0, 2.0], nonneg=np.ones(2, dtype=bool))
    session = LpSession(lp)
    assert session.maximize().value == 3.0
    bad = [
        ([1.0], DimensionMismatch, "^b_ub has length 1, expected 2$"),
        ([1.0, 2.0, 3.0], DimensionMismatch, "^b_ub has length 3, expected 2$"),
        ([1.0, np.inf], ValueError, "^b_ub contains non-finite entries$"),
        ([np.nan, 1.0], ValueError, "^b_ub contains non-finite entries$"),
    ]
    for b_ub, error, message in bad:
        with pytest.raises(error, match=message):
            replace(lp, b_ub=b_ub)
        with pytest.raises(error, match=message):
            session.resolve_rhs(b_ub)
        assert session.lp.b_ub.tolist() == [1.0, 2.0]
    assert session.resolve_rhs([2.0, 3.0]).value == 5.0
    assert session.lp.b_ub.tolist() == [2.0, 3.0] and lp.b_ub.tolist() == [1.0, 2.0]
    assert session.lp.A_ub is lp.A_ub


def _status_of(value):
    # the status a batched value stands for
    return UNBOUNDED if value == np.inf else INFEASIBLE if value == -np.inf else OPTIMAL


def test_session_sequences_against_highs():
    # Each session takes a seeded sequence of maximize(c) and resolve_rhs(b)
    # calls; after every call the status and value must match HiGHS on the
    # program as it now stands, and an optimal x must be feasible for it.
    # From an optimal basis the dual simplex keeps the reduced profits
    # optimal, so phase 2 must find nothing left to do.  Every third
    # program is degenerate: each row twice, all rhs 0 at first.
    # Then every other session takes two batched calls, an objective stack
    # (values) and a rhs path from the current b to a new one
    # (resolve_path), drawn from a second generator; a twin session that
    # made every earlier call makes them one at a time.  Per row the
    # status and value must match the twin's (values within 1e-12) and
    # HiGHS, and both sessions must end on the same basis and pivots.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng, brng = np.random.default_rng(11), np.random.default_rng(12)
    seen = Counter()

    class Counted(LpSession):
        def __init__(self, lp):
            super().__init__(lp)
            self.calls = Counter()

        def maximize(self, c=None):
            out = super().maximize(c)
            self.calls["maximize", out.status] += 1
            return out

        def resolve_rhs(self, b_ub):
            out = super().resolve_rhs(b_ub)
            self.calls["resolve_rhs", out.status] += 1
            return out

    def check_rows(call, got, X, want, programs):
        for k, (out, lp) in enumerate(zip(want, programs)):
            status = _status_of(got[k])
            assert status == out.status, (call, k)
            ref, value = _highs(linprog, lp)
            assert status == ref, (call, k)
            if status == OPTIMAL:
                assert got[k] == pytest.approx(out.value, rel=0, abs=1e-12)
                assert got[k] == pytest.approx(value, abs=1e-7)
                if X is not None:
                    np.testing.assert_allclose(X[k], out.x, rtol=0, atol=1e-12)
            elif X is not None:
                assert np.isnan(X[k]).all()
            seen[(call, status)] += 1

    for trial in range(300):
        lp = _random_integer_lp(rng)
        if trial % 3 == 0:
            lp = replace(lp, A_ub=np.vstack([lp.A_ub, lp.A_ub]), b_ub=np.zeros(2 * lp.b_ub.size))
        session, twin, status = Counted(lp), LpSession(lp), None
        for step in range(6):
            m_ub = lp.b_ub.size
            if step == 0:
                call, out = "first", session.maximize()
                twin.maximize()
            elif rng.random() < 0.4 or m_ub == 0:
                lp = replace(lp, c=rng.integers(-3, 4, size=lp.nvars).astype(float))
                call, out = "maximize", session.maximize(lp.c)
                twin.maximize(lp.c)
            else:
                b = lp.b_ub.copy()
                i = int(rng.integers(0, m_ub))
                if rng.random() < 0.5:
                    b[i] = -b[i] - float(rng.integers(1, 3))  # flips the row's sign
                    seen["sign flip"] += 1
                else:
                    b = rng.integers(-2, 6, size=m_ub).astype(float)
                lp = replace(lp, b_ub=b)
                phase2 = session.pivots["phase 2"]
                call, out = "resolve", session.resolve_rhs(b)
                twin.resolve_rhs(b)
                if status == OPTIMAL and out.is_optimal:
                    assert session.pivots["phase 2"] == phase2, (trial, step)
            want, value = _highs(linprog, lp)
            assert out.status == want, (trial, step, call)
            if out.is_optimal:
                assert out.value == pytest.approx(value, abs=1e-7)
                assert out.value == pytest.approx(lp.c @ out.x, abs=1e-9)
                assert (lp.A_ub @ out.x <= lp.b_ub + 1e-7).all()
                assert np.abs(lp.A_eq @ out.x - lp.b_eq).max(initial=0.0) <= 1e-7
                assert (out.x[lp.nonneg] >= -1e-7).all()
            seen[(call, status, out.status)] += 1
            status = out.status
        if trial % 2:
            continue

        C = brng.integers(-3, 4, size=(4, lp.nvars)).astype(float)
        before = session.calls["maximize", OPTIMAL]
        got = session.values(C)
        # optimal rows that no maximize call solved
        seen["values read off"] += int(np.isfinite(got).sum()
                                    - (session.calls["maximize", OPTIMAL] - before))
        programs = [replace(lp, c=c) for c in C]
        check_rows("values", got, None, [twin.maximize(c) for c in C], programs)
        lp = programs[-1]
        if lp.b_ub.size:
            # a straight path to a new rhs, about one in three with its signs flipped
            end = brng.integers(-2, 6, size=lp.b_ub.size).astype(float)
            if brng.random() < 0.3:
                end = -end - 1.0
            B = lp.b_ub + np.linspace(0.0, 1.0, 6)[1:, None] * (end - lp.b_ub)
            no_phase1 = not twin._phase1_ok
            before = session.calls["resolve_rhs", OPTIMAL]
            dual, want = [], []
            for b in B:
                pivots = twin.pivots["dual simplex"]
                want.append(twin.resolve_rhs(b))
                dual.append(twin.pivots["dual simplex"] > pivots)
            got, X = session.resolve_path(B)
            seen["path read off"] += int(np.isfinite(got).sum()
                                      - (session.calls["resolve_rhs", OPTIMAL] - before))
            seen["path breakpoint"] += sum(dual[1:])
            seen["path without phase 1"] += no_phase1
            programs = [replace(lp, b_ub=b) for b in B]
            check_rows("path", got, X, want, programs)
            lp = programs[-1]
        # a later call starts from the state the batched calls left
        lp = replace(lp, c=brng.integers(-3, 4, size=lp.nvars).astype(float))
        out, want = session.maximize(lp.c), twin.maximize(lp.c)
        assert out.status == want.status == _highs(linprog, lp)[0], trial
        if out.is_optimal:
            assert out.value == pytest.approx(want.value, rel=0, abs=1e-12)
            np.testing.assert_allclose(out.x, want.x, rtol=0, atol=1e-12)
        assert np.array_equal(session._basis, twin._basis), trial
        assert session.pivots == twin.pivots, trial

    assert seen["sign flip"] >= 200
    for key in (("maximize", UNBOUNDED, OPTIMAL), ("resolve", INFEASIBLE, OPTIMAL),
                ("resolve", OPTIMAL, INFEASIBLE), ("resolve", OPTIMAL, OPTIMAL),
                ("resolve", UNBOUNDED, UNBOUNDED)):
        assert seen[key] >= 10, (key, seen)
    for key in (("values", OPTIMAL), ("values", UNBOUNDED), ("values", INFEASIBLE),
                ("path", OPTIMAL), ("path", INFEASIBLE), ("path", UNBOUNDED),
                "path breakpoint", "path without phase 1"):
        assert seen[key] >= 10, (key, seen)
    # many optimal batched rows are read off a basis rather than solved again
    assert seen["values read off"] >= seen["values", OPTIMAL] // 3, seen
    assert seen["path read off"] >= seen["path", OPTIMAL] // 2, seen
