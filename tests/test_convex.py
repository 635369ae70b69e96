"""Convex-analysis layer: conjugates, subdifferentials, normals, BR pairs.

Closed-form expectations are derived by hand in comments next to each
assert; randomized blocks cross-check two independent encodings (the
Young-Fenchel gap via the conjugate LP against the simplex-multiplier
membership LP) and the lattice lower-bound oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from convex_oracles import (
    SubdiffPolytope,
    brute_conjugate,
    eps_subdiff_polytope,
    weighted_sum_polyhedral,
)
from hypothesis import strategies as st

from henigcert.convex import (
    BUILTINS,
    BlackBoxFn,
    BRResult,
    ConvexFn,
    Polyhedron,
    PolyhedralFn,
    ScaledFn,
    as_polyhedral,
    br_regularize,
    collapse_scale,
    conjugate,
    eps_normal_contains,
    eps_subdiff_contains,
    epi_conjugate_contains,
    is_zero_fn,
    subdiff_element,
    support_function,
    young_fenchel_gap,
)
from henigcert.errors import (
    BRSearchFailed,
    ConjugateUnsupported,
    DimensionMismatch,
    EmptyEffectiveGrid,
    EmptyPolyhedron,
    PointOutsideDomain,
    UnsupportedData,
    UnsupportedDomain,
)
from henigcert.grids import GridSpec


def absfn():
    # |x| = max(x, -x)
    return PolyhedralFn([[1.0], [-1.0]], [0.0, 0.0])


def relufn():
    # max(0, x), zero piece first
    return PolyhedralFn([[0.0], [1.0]], [0.0, 0.0])


# ---------------------------------------------------------------------------
# sets


def test_box_membership():
    C = Polyhedron.box([-1.0, 0.0], [1.0, 2.0])
    assert C.contains([0.5, 1.0])
    assert C.contains([1.0, 2.0])
    assert not C.contains([1.1, 1.0])
    X = np.array([[0.0, 0.0], [2.0, 0.0], [-1.0, 2.0]])
    assert C.contains_batch(X).tolist() == [True, False, True]


def test_empty_box_rejected():
    with pytest.raises(EmptyPolyhedron):
        Polyhedron.box([1.0], [0.0])


def test_nonemptiness_lp_only_without_the_origin(monkeypatch):
    # a polyhedron whose rows the origin satisfies exactly (b >= 0, d == 0)
    # is nonempty without a feasibility LP; one that excludes the origin
    # takes the LP, which still refuses an empty one and keeps a nonempty
    # one; non-finite data is still refused
    from henigcert import convex

    solved, lp_solve = [], convex.lp_solve

    def spy(lp, *args):
        solved.append(lp)
        return lp_solve(lp, *args)

    monkeypatch.setattr(convex, "lp_solve", spy)
    Polyhedron.box([-1.0, 0.0], [1.0, 2.0])
    Polyhedron(A=[[1.0, 1.0]], b=[0.0], E=[[1.0, -1.0]], d=[0.0])
    Polyhedron(E=[[0.0, 1.0]], d=[-0.0])
    assert solved == []
    with pytest.raises(EmptyPolyhedron):
        Polyhedron.box([1.0], [0.5])
    with pytest.raises(EmptyPolyhedron):
        Polyhedron(A=[[1.0]], b=[2.0], E=[[1.0]], d=[3.0])
    C = Polyhedron.box([0.5, -1.0], [1.0, 1.0])
    assert C.contains([0.75, 0.0]) and not C.contains([0.0, 0.0])
    assert len(solved) == 3
    with pytest.raises(ValueError, match="non-finite"):
        Polyhedron(A=[[1.0]], b=[np.inf])


def test_equality_rows():
    # segment {0} x [0, 1]
    C = Polyhedron(
        A=[[0.0, -1.0], [0.0, 1.0]], b=[0.0, 1.0], E=[[1.0, 0.0]], d=[0.0]
    )
    assert C.contains([0.0, 0.5])
    assert not C.contains([0.1, 0.5])
    assert not C.contains([0.0, 1.5])


def test_intersect():
    C = Polyhedron.box([-2.0], [2.0]).intersect(Polyhedron.box([0.0], [5.0]))
    assert C.contains([1.0]) and not C.contains([-1.0]) and not C.contains([3.0])
    with pytest.raises(EmptyPolyhedron):
        Polyhedron.box([-2.0], [-1.0]).intersect(Polyhedron.box([0.0], [5.0]))


def test_full_space():
    C = Polyhedron.full_space(3)
    assert C.is_full_space()
    assert C.contains([1e6, -1e6, 0.0])


# ---------------------------------------------------------------------------
# function values


def test_polyhedral_eval():
    f = absfn()
    assert f.eval([-2.0]) == 2.0
    assert f.eval([3.0]) == 3.0
    X = np.array([[-1.0], [0.0], [2.5]])
    assert np.allclose(f.eval_batch(X), [1.0, 0.0, 2.5])


def test_domain_restriction():
    f = PolyhedralFn([[1.0]], [0.0], domain=Polyhedron.box([0.0], [1.0]))
    assert f.eval([0.5]) == 0.5
    assert f.eval([2.0]) == np.inf
    assert np.isinf(f.eval_batch(np.array([[2.0]])))[0]


def test_indicator():
    d = PolyhedralFn.indicator(Polyhedron.box([-1.0], [1.0]))
    assert d.eval([0.0]) == 0.0
    assert d.eval([1.5]) == np.inf


def test_builtins():
    assert BlackBoxFn("relu_sq", 2).eval([0.5, 9.0]) == 0.25
    assert BlackBoxFn("relu_sq", 2).eval([-0.5, 9.0]) == 0.0
    # ||(3,4)|| - 4 = 1
    assert BlackBoxFn("eucl_minus_last", 2).eval([3.0, 4.0]) == pytest.approx(1.0)
    assert BlackBoxFn("neg_quad_plus_one", 2).eval([7.0, 0.5]) == 1.25
    assert BlackBoxFn("const_plus_coord", 2).eval([7.0, 2.0]) == 5.0
    with pytest.raises(UnsupportedData):
        BlackBoxFn("mystery", 2)
    with pytest.raises(DimensionMismatch):
        BlackBoxFn("neg_quad_plus_one", 1)


def test_builtin_batch_matches_pointwise():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 2))
    for name in BUILTINS:
        f = BlackBoxFn(name, 2)
        assert np.allclose(f.eval_batch(X), [f.eval(row) for row in X])


def test_scaled_and_zero():
    f = ScaledFn(2.0, absfn())
    assert f.eval([-3.0]) == 6.0
    z = ScaledFn(0.0, BlackBoxFn("relu_sq", 2))
    assert is_zero_fn(z)
    assert z.eval([5.0, 5.0]) == 0.0
    assert np.allclose(z.eval_batch(np.ones((3, 2))), 0.0)
    coef, base = collapse_scale(ScaledFn(2.0, ScaledFn(3.0, absfn())))
    assert coef == 6.0 and isinstance(base, PolyhedralFn)
    with pytest.raises(ValueError):
        ScaledFn(-1.0, absfn())


def test_as_polyhedral():
    p = as_polyhedral(ScaledFn(2.0, absfn()))
    assert p.eval([1.0]) == 2.0
    z = as_polyhedral(ScaledFn(0.0, BlackBoxFn("relu_sq", 2)))
    assert z.npieces == 1 and z.eval([9.0, 9.0]) == 0.0
    assert as_polyhedral(BlackBoxFn("relu_sq", 2)) is None


# ---------------------------------------------------------------------------
# conjugates


def test_conjugate_relu_scaled():
    # (max(2x,0))* is the indicator of [0,2]
    f = PolyhedralFn([[2.0], [0.0]], [0.0, 0.0])
    for xs, want in [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]:
        assert conjugate(f, [xs]) == pytest.approx(want, abs=1e-9)
    assert conjugate(f, [-0.1]) == np.inf
    assert conjugate(f, [2.1]) == np.inf


def test_conjugate_on_restricted_domain():
    # f = max(0,x) on [-2,3]: f*(s) = -2s (s<=0), 0 (0<=s<=1), 3s-3 (s>=1)
    f = PolyhedralFn([[0.0], [1.0]], [0.0, 0.0], domain=Polyhedron.box([-2.0], [3.0]))
    assert conjugate(f, [-1.0]) == pytest.approx(2.0, abs=1e-9)
    assert conjugate(f, [0.5]) == pytest.approx(0.0, abs=1e-9)
    assert conjugate(f, [2.0]) == pytest.approx(3.0, abs=1e-9)


def test_conjugate_affine():
    # (<a,x>+b)* = -b at a, +inf elsewhere
    f = PolyhedralFn.affine([1.0, -2.0], 3.0)
    assert conjugate(f, [1.0, -2.0]) == pytest.approx(-3.0, abs=1e-9)
    assert conjugate(f, [1.0, -1.9]) == np.inf


def test_conjugate_zero_fn():
    z = ScaledFn(0.0, BlackBoxFn("relu_sq", 2))
    assert conjugate(z, [0.0, 0.0]) == 0.0
    assert conjugate(z, [1e-12, 0.0]) == 0.0  # inside the snap band
    assert conjugate(z, [0.5, 0.0]) == np.inf


def test_conjugate_scaled_chain():
    # (2|x|)* is the indicator of [-2,2]
    f = ScaledFn(2.0, absfn())
    assert conjugate(f, [1.5]) == pytest.approx(0.0, abs=1e-9)
    assert conjugate(f, [2.5]) == np.inf


def test_conjugate_black_box_raises():
    with pytest.raises(ConjugateUnsupported):
        conjugate(BlackBoxFn("relu_sq", 2), [0.0, 0.0])


def test_conjugate_vs_lattice_oracle():
    # lattice max is a lower bound always; when the sup is attained inside
    # the grid box (checked via a boxed conjugate LP) the miss is at most
    # half a grid step times the combined Lipschitz constant
    rng = np.random.default_rng(42)
    grid = GridSpec.parse("161x161:[-4,4]x[-4,4]")
    step = 8.0 / 160.0
    box = Polyhedron.box([-4.0, -4.0], [4.0, 4.0])
    tight = 0
    for _ in range(20):
        K = rng.integers(1, 5)
        A = rng.normal(size=(K, 2))
        b = rng.normal(size=K)
        f = PolyhedralFn(A, b)
        w = rng.dirichlet(np.ones(K))
        xstar = w @ A  # in conv(gradients), so the conjugate is finite
        exact = conjugate(f, xstar)
        lattice = brute_conjugate(f, xstar, grid)
        assert lattice <= exact + 1e-9
        boxed = conjugate(PolyhedralFn(A, b, domain=box), xstar)
        if abs(boxed - exact) <= 1e-9:  # sup attained inside the box
            lip = np.abs(xstar).sum() + np.abs(A).sum(axis=1).max()
            assert exact <= lattice + 0.5 * step * lip + 1e-9
            tight += 1
    assert tight >= 10


def test_support_function_values():
    # sigma over [-1,1]^2 at (1,2) is 3
    box = Polyhedron.box([-1.0, -1.0], [1.0, 1.0])
    assert support_function(box, [1.0, 2.0]) == pytest.approx(3.0, abs=1e-9)
    seg = Polyhedron(A=[[0.0, -1.0], [0.0, 1.0]], b=[0.0, 1.0], E=[[1.0, 0.0]], d=[0.0])
    assert support_function(seg, [5.0, 1.0]) == pytest.approx(1.0, abs=1e-9)
    assert support_function(seg, [5.0, -1.0]) == pytest.approx(0.0, abs=1e-9)
    ray = Polyhedron(A=[[-1.0]], b=[0.0])
    assert support_function(ray, [1.0]) == np.inf
    assert support_function(ray, [-1.0]) == pytest.approx(0.0, abs=1e-9)


def test_support_function_against_highs():
    # sigma_C, the conjugate of C's indicator, against HiGHS (run without
    # presolve, which can call an unbounded LP infeasible) on seeded
    # polyhedra with inequality and equality rows around a feasible point;
    # half the directions are nonnegative combinations of the rows, where
    # sigma_C is finite, the rest are random and often unbounded
    linprog = pytest.importorskip("scipy.optimize").linprog
    seen = {"bounded": 0, "unbounded": 0}
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(int(rng.integers(1, 6)), n))
        E = rng.normal(size=(int(rng.integers(0, n)), n))
        x0 = rng.uniform(-1.0, 1.0, size=n)
        C = Polyhedron(A=A, b=A @ x0 + rng.uniform(0.0, 1.0, size=len(A)), E=E, d=E @ x0, n=n)
        for k in range(4):
            s = (rng.uniform(0.0, 1.0, size=len(A)) @ A + rng.normal(size=len(E)) @ E
                 if k % 2 else rng.normal(size=n))
            ref = linprog(-s, A_ub=A, b_ub=C.b, A_eq=E if len(E) else None,
                          b_eq=C.d if len(E) else None, bounds=[(None, None)] * n,
                          method="highs", options={"presolve": False})
            assert ref.status in (0, 3), ref.message
            got = support_function(C, s)
            if ref.status == 3:
                assert got == np.inf
                seen["unbounded"] += 1
            else:
                assert got == pytest.approx(-ref.fun, abs=1e-7)
                seen["bounded"] += 1
    assert min(seen.values()) >= 20, seen


def test_epi_conjugate_contains():
    f = absfn()  # f* = indicator of [-1,1]
    assert epi_conjugate_contains(f, [0.5], 0.0)
    assert epi_conjugate_contains(f, [0.5], 1.0)
    v = epi_conjugate_contains(f, [0.5], -0.1)
    assert not v and v.slack == pytest.approx(-0.1, abs=1e-9)
    assert not epi_conjugate_contains(f, [1.5], 100.0)


# ---------------------------------------------------------------------------
# eps-subdifferentials and eps-normals


def test_eps_subdiff_interval_of_abs():
    # eps-subdifferential of |.| at 1 is [1-eps, 1]
    f = absfn()
    assert eps_subdiff_contains(f, [1.0], 0.5, [1.0])
    assert eps_subdiff_contains(f, [1.0], 0.5, [0.5])  # boundary, gap = eps
    assert not eps_subdiff_contains(f, [1.0], 0.5, [0.49])
    assert not eps_subdiff_contains(f, [1.0], 0.5, [1.01])  # conjugate infinite
    v = eps_subdiff_contains(f, [1.0], 0.5, [1.0])
    assert v.slack == pytest.approx(0.5, abs=1e-9)


def test_eps_subdiff_outside_domain():
    f = PolyhedralFn([[1.0]], [0.0], domain=Polyhedron.box([0.0], [1.0]))
    with pytest.raises(PointOutsideDomain):
        eps_subdiff_contains(f, [2.0], 0.1, [1.0])
    with pytest.raises(ValueError):
        eps_subdiff_contains(f, [0.5], -0.1, [1.0])


def test_eps_normal_halfline():
    # N_eps([-1,1], 1) = [-eps/2, inf)
    C = Polyhedron.box([-1.0], [1.0])
    assert eps_normal_contains(C, [1.0], 0.1, [-0.05])  # boundary
    assert not eps_normal_contains(C, [1.0], 0.1, [-0.06])
    assert eps_normal_contains(C, [1.0], 0.1, [5.0])
    assert eps_normal_contains(C, [1.0], 0.0, [0.0])
    with pytest.raises(PointOutsideDomain):
        eps_normal_contains(C, [2.0], 0.1, [0.0])


def test_eps_normal_unbounded_support():
    ray = Polyhedron(A=[[-1.0]], b=[0.0])
    v = eps_normal_contains(ray, [1.0], 0.5, [1.0])  # sigma infinite
    assert not v


# ---------------------------------------------------------------------------
# exact subgradients


def test_subdiff_element_picks_low_piece():
    f = absfn()
    assert subdiff_element(f, [0.5]) == pytest.approx([1.0])
    assert subdiff_element(f, [-0.5]) == pytest.approx([-1.0])
    # both pieces active at 0; the first one wins
    assert subdiff_element(f, [0.0]) == pytest.approx([1.0])


def test_subdiff_element_zero_fn():
    z = ScaledFn(0.0, BlackBoxFn("relu_sq", 2))
    assert subdiff_element(z, [3.0, 4.0]) == pytest.approx([0.0, 0.0])


def test_subdiff_element_on_boundary():
    d = PolyhedralFn.indicator(Polyhedron.box([-1.0], [1.0]))
    g = subdiff_element(d, [1.0])
    # any normal-cone element qualifies; the gap must close exactly
    assert young_fenchel_gap(d, [1.0], g) <= 1e-9
    with pytest.raises(PointOutsideDomain):
        subdiff_element(d, [2.0])


def test_subdiff_element_gap_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        K = rng.integers(1, 6)
        n = rng.integers(1, 4)
        f = PolyhedralFn(rng.normal(size=(K, n)), rng.normal(size=K))
        x = rng.normal(size=n)
        g = subdiff_element(f, x)
        assert young_fenchel_gap(f, x, g) <= 1e-9


def test_subdiff_polytope_interval():
    p = eps_subdiff_polytope(absfn(), [1.0], 0.5)
    lo, hi = p.interval([1.0])
    assert lo == pytest.approx(0.5, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)
    assert p.contains([0.5])
    assert not p.contains([0.49])
    assert p.contains([1.0]) and not p.contains([1.01])


def test_subdiff_polytope_zero_fn():
    p = eps_subdiff_polytope(ScaledFn(0.0, BlackBoxFn("relu_sq", 2)), [1.0, 1.0], 0.3)
    assert p.contains([0.0, 0.0])
    assert not p.contains([0.1, 0.0])


def test_subdiff_polytope_rejects():
    restricted = PolyhedralFn([[1.0]], [0.0], domain=Polyhedron.box([0.0], [1.0]))
    with pytest.raises(UnsupportedDomain):
        eps_subdiff_polytope(restricted, [0.5], 0.1)
    with pytest.raises(ConjugateUnsupported):
        eps_subdiff_polytope(BlackBoxFn("relu_sq", 2), [0.0, 0.0], 0.1)


def test_membership_encodings_agree():
    # Young-Fenchel route vs simplex-multiplier route on random queries
    rng = np.random.default_rng(11)
    for _ in range(50):
        K = rng.integers(1, 6)
        n = rng.integers(1, 4)
        f = PolyhedralFn(rng.normal(size=(K, n)), rng.normal(size=K))
        x = rng.normal(size=n)
        eps = float(rng.uniform(0.0, 1.0))
        poly = eps_subdiff_polytope(f, x, eps)
        for _ in range(4):
            if rng.uniform() < 0.5:
                q = rng.dirichlet(np.ones(K)) @ f.A  # often a member
            else:
                q = rng.normal(size=n)
            a = eps_subdiff_contains(f, x, eps, q, tol=1e-9)
            b = poly.contains(q, tol=1e-9)
            # skip razor-edge queries where both slacks sit at the tolerance
            if abs(a.slack) < 1e-7 or abs(b.slack) < 1e-7:
                continue
            assert bool(a) == bool(b)


# ---------------------------------------------------------------------------
# nearby exact pairs


def test_br_shifted_relu():
    # eps-subgradient 0.04 of max(0,x) at -1; (x,x*)=(-1,0) is a valid pair
    res = br_regularize(relufn(), [-1.0], 0.04, [0.04])
    assert res.x == pytest.approx([-1.0])
    assert res.xstar == pytest.approx([0.0])
    assert res.dist_x == 0.0
    assert res.dist_xstar == pytest.approx(0.04)
    assert res.value_gap == 0.0


def test_br_already_exact():
    # 1.0 is an exact subgradient of |.| at 0, so the pair is (0, 1)
    res = br_regularize(absfn(), [0.0], 0.04, [1.0])
    assert res.x == pytest.approx([0.0])
    assert res.xstar == pytest.approx([1.0])
    assert res.dist_x == res.dist_xstar == res.value_gap == 0.0


def test_br_moves_to_kink():
    # x* = 0.9 at xbar = -0.01 needs the nearby kink at 0
    # Ekeland's construction stops at the kink and pays its weight
    # lam = sqrt(eps) (up to a hair) on the one active cut: x* = 0.9 - lam
    res = br_regularize(relufn(), [-0.01], 0.04, [0.9])
    assert res.x == pytest.approx([0.0], abs=1e-9)
    assert res.xstar == pytest.approx([0.7], abs=1e-9)
    assert res.dist_x == pytest.approx(0.01, abs=1e-9)
    assert res.dist_xstar == pytest.approx(0.2, abs=1e-9)
    assert res.value_gap == pytest.approx(0.007, abs=1e-9)
    assert res.dist_x <= 0.2 and res.dist_xstar <= 0.2 and res.value_gap <= 0.08
    assert young_fenchel_gap(relufn(), res.x, res.xstar) <= 1e-7


def test_br_bounds_random():
    rng = np.random.default_rng(99)
    done = 0
    for _ in range(40):
        K = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        f = PolyhedralFn(rng.normal(size=(K, n)), rng.normal(size=K))
        x = rng.normal(size=n)
        eps = float(rng.uniform(1e-4, 1.0))
        # an eps-subgradient: blend a random simplex point toward an
        # active vertex until the gap constraint holds
        vals = f.piece_values(x)
        mu = rng.dirichlet(np.ones(K))
        vertex = np.zeros(K)
        vertex[int(np.argmax(vals))] = 1.0
        for _ in range(60):
            if vals.max() - mu @ vals <= eps:
                break
            mu = 0.5 * mu + 0.5 * vertex
        xbarstar = mu @ f.A
        assert eps_subdiff_contains(f, x, eps, xbarstar, tol=1e-9)
        res = br_regularize(f, x, eps, xbarstar)
        root = np.sqrt(eps)
        assert res.dist_x <= root
        assert res.dist_xstar <= root
        assert res.value_gap <= 2.0 * eps
        assert young_fenchel_gap(f, res.x, res.xstar) <= 1e-7
        done += 1
    assert done == 40


def test_br_zero_fn():
    z = ScaledFn(0.0, BlackBoxFn("relu_sq", 1))
    res = br_regularize(z, [3.0], 0.04, [0.1])
    assert res.xstar == pytest.approx([0.0])
    assert res.dist_xstar == pytest.approx(0.1)
    with pytest.raises(BRSearchFailed):
        br_regularize(z, [3.0], 0.04, [1.0])  # 1.0 is 5 radii from {0}


def test_br_precondition_violated():
    # 2.0 is not even a 0.01-subgradient of |.| at 0; no nearby pair exists
    with pytest.raises(BRSearchFailed, match="Ekeland LP unbounded"):
        br_regularize(absfn(), [0.0], 0.01, [2.0])


def test_br_failure_reports_best_values():
    # 1 is a 1-subgradient (not a 0.01-one) of the indicator of [-1,1] at 0:
    # Ekeland's point is the corner 1 with x* = 1 - lam, a full radius away
    box = PolyhedralFn.indicator(Polyhedron.box([-1.0], [1.0]))
    with pytest.raises(BRSearchFailed) as err:
        br_regularize(box, [0.0], 0.01, [1.0])
    assert str(err.value) == (
        "no nearby exact pair after 2 cuts: best dist_x=1, dist_xstar=0.1, "
        "value_gap=0.9 against bounds 0.1, 0.1, 0.02"
    )


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    K=st.integers(1, 6),
    boxed=st.booleans(),
    in_hull=st.booleans(),
    exact_gap=st.booleans(),
)
def test_br_pair_bounds_property(seed, n, K, boxed, in_hull, exact_gap):
    # Brondsted-Rockafellar: every eps-subgradient has a nearby exact pair
    rng = np.random.default_rng(seed)
    A, b = rng.normal(size=(K, n)), rng.normal(size=K)
    if boxed:
        lo, hi = -rng.uniform(0.2, 2.0, size=n), rng.uniform(0.2, 2.0, size=n)
        f = PolyhedralFn(A, b, Polyhedron.box(lo, hi))
        xbar = rng.uniform(lo, hi)
    else:
        f = PolyhedralFn(A, b)
        xbar = rng.normal(size=n)
    xbarstar = rng.dirichlet(np.ones(K)) @ A if in_hull else rng.normal(size=n)
    gap = young_fenchel_gap(f, xbar, xbarstar)
    if not np.isfinite(gap):
        # x̄* outside the hull of the gradients (f* = +inf), farther from it
        # than sqrt(eps) (l_inf distance <= l_2): no exact x* is near enough
        d_inf = -SubdiffPolytope(A, np.zeros(K), 0.0, 0.0).contains(xbarstar, tol=0.0).slack
        with pytest.raises(BRSearchFailed):
            br_regularize(f, xbar, d_inf**2 * float(rng.uniform(0.1, 0.9)), xbarstar)
        return
    eps = max(gap, 0.0) * (1.0 if exact_gap else float(rng.uniform(1.0, 3.0)))
    res = br_regularize(f, xbar, eps, xbarstar)
    root = np.sqrt(eps)
    assert np.linalg.norm(res.x - xbar) <= root
    assert np.linalg.norm(res.xstar - xbarstar) <= root
    assert abs(f(res.x) - f(xbar) - res.xstar @ (res.x - xbar)) <= 2.0 * eps
    assert young_fenchel_gap(f, res.x, res.xstar) <= 1e-7


def test_br_components_match_the_cross_product_sum():
    # br_regularize on components w_j f_j (separable LP) against the cross
    # product of their pieces: some components live on boxes around 0, some
    # weights are zero (those drop out with their domains, which here
    # exclude x̄), and x̄* mixes every component's pieces
    rng = np.random.default_rng(2024)
    moved = 0
    for _ in range(30):
        n, k = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        xbar = rng.uniform(-0.1, 0.1, size=n)
        comps, weights = [], rng.uniform(0.2, 2.0, size=k)
        weights[rng.random(k) < 0.3] = 0.0
        for w in weights:
            K = int(rng.integers(2, 6))
            A, b = rng.normal(size=(K, n)), rng.normal(size=K)
            if w == 0.0:
                dom = Polyhedron.box(xbar + 1.0, xbar + 2.0)
            elif rng.random() < 0.5:
                dom = Polyhedron.box(-rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n))
            else:
                dom = None
            comps.append(PolyhedralFn(A, b, dom))
        xbarstar = sum(w * (rng.dirichlet(np.ones(f.npieces)) @ f.A) for w, f in zip(weights, comps))
        ref = weighted_sum_polyhedral(weights, comps)
        gap = young_fenchel_gap(ref, xbar, xbarstar)
        eps = max(gap, 0.0) * float(rng.uniform(1.0, 3.0))
        res = br_regularize([ScaledFn(w, f) for w, f in zip(weights, comps)], xbar, eps, xbarstar)
        root = np.sqrt(eps)
        assert np.linalg.norm(res.x - xbar) <= root
        assert np.linalg.norm(res.xstar - xbarstar) <= root
        assert abs(ref(res.x) - ref(xbar) - res.xstar @ (res.x - xbar)) <= 2.0 * eps
        assert young_fenchel_gap(ref, res.x, res.xstar) <= 1e-7
        moved += res.dist_x + res.dist_xstar > 0
    assert moved >= 20


def test_br_component_edge_cases():
    # every weight zero: the zero function, whatever the domains
    comps = [ScaledFn(0.0, PolyhedralFn([[1.0]], [0.0], Polyhedron.box([5.0], [6.0])))] * 2
    res = br_regularize(comps, [0.0], 0.04, [0.1])
    assert res.x == pytest.approx([0.0]) and res.xstar == pytest.approx([0.0])
    assert res.value_gap == 0.0
    # no components, or components of two dimensions, are refused
    for bad in ([], [absfn(), PolyhedralFn([[1.0, 0.0]], [0.0])]):
        with pytest.raises(DimensionMismatch):
            br_regularize(bad, [0.0], 0.04, [0.1])
    # a black box with a nonzero weight has no conjugate LP
    with pytest.raises(ConjugateUnsupported):
        br_regularize([absfn(), BlackBoxFn("relu_sq", 1)], [0.0], 0.04, [0.1])


# ---------------------------------------------------------------------------
# weighted sums and the lattice oracle


def test_weighted_sum_values():
    f = absfn()
    g = relufn()
    s = weighted_sum_polyhedral([2.0, 3.0], [f, g])
    assert s.npieces == 4
    for x in (-1.5, -0.2, 0.0, 0.7, 2.0):
        want = 2.0 * abs(x) + 3.0 * max(0.0, x)
        assert s.eval([x]) == pytest.approx(want, abs=1e-12)


def test_weighted_sum_drops_zero_weight():
    s = weighted_sum_polyhedral([2.0, 0.0], [absfn(), BlackBoxFn("relu_sq", 1)])
    assert s.eval([-2.0]) == pytest.approx(4.0)


def test_weighted_sum_domain_intersection():
    f = PolyhedralFn([[1.0]], [0.0], domain=Polyhedron.box([-2.0], [1.0]))
    g = PolyhedralFn([[0.0]], [1.0], domain=Polyhedron.box([0.0], [5.0]))
    s = weighted_sum_polyhedral([1.0, 1.0], [f, g])
    assert s.eval([0.5]) == pytest.approx(1.5)
    assert s.eval([-1.0]) == np.inf
    assert s.eval([2.0]) == np.inf


def test_weighted_sum_cap():
    # the package encodes weighted sums separably, so no piece cap is left
    # to test; the reference still rejects an empty sum
    with pytest.raises(DimensionMismatch):
        weighted_sum_polyhedral([], [])


def test_brute_conjugate_values():
    f = absfn()
    grid = GridSpec.parse("401:[-2,2]")
    assert brute_conjugate(f, [0.5], grid) == pytest.approx(0.0, abs=1e-12)
    assert brute_conjugate(f, [1.0], grid) == pytest.approx(0.0, abs=1e-12)
    # true conjugate is +inf at 1.5; the lattice reports the boxed max 1.0
    assert brute_conjugate(f, [1.5], grid) == pytest.approx(1.0, abs=1e-12)


def test_brute_conjugate_empty_grid():
    f = PolyhedralFn([[1.0]], [0.0], domain=Polyhedron.box([5.0], [6.0]))
    with pytest.raises(EmptyEffectiveGrid):
        brute_conjugate(f, [1.0], GridSpec.parse("11:[0,1]"))
