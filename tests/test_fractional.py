"""Fractional problems, the parametric reformulation, and the grid oracle."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import grid_reference as ref
from cone_oracles import in_minus_cone, in_minus_k_eps_polar
from henigcert import _kernels, example_q, fractional, grids

from henigcert.cones import (
    TOL_CONE,
    HenigCone,
    PolyhedralCone,
    in_minus_cone_batch,
    in_minus_k_eps_polar_batch,
)
from henigcert.convex import BlackBoxFn, Polyhedron, PolyhedralFn
from henigcert.errors import (
    DenominatorNearZero,
    DimensionMismatch,
    PointOutsideDomain,
    UnsupportedData,
)
from henigcert.fractional import (
    DEFAULT_LADDER,
    ZERO_DIFF_TOL,
    Candidate,
    EfficiencyVerdict,
    FractionalProblem,
    ParametricProblem,
    feasible,
    feasible_mask,
    henig_check,
    henig_check_bruteforce,
    henig_check_parametric,
    nu_values,
    parametric_problem,
    ratio_matrix,
    _BoundPass,
    _LadderScan,
    _lattice_in_C,
    _validate_ladder,
)
from henigcert.grids import GridSpec
from henigcert.linprog import TOL_FEAS


def const(c, n=1):
    return PolyhedralFn.affine(np.zeros(n), c)


def abs1d():
    return PolyhedralFn([[1.0], [-1.0]], [0.0, 0.0])


def toy(h_shift=1.0):
    # f1 = f2 = |x|, g1 = g2 = 1, C = [-1,1], h = x - h_shift <= 0
    return FractionalProblem(
        n=1,
        objectives=[(abs1d(), const(-1.0)), (abs1d(), const(-1.0))],
        hmap=[PolyhedralFn.affine([1.0], -h_shift)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([-1.0], [1.0]),
    )


def test_problem_validation():
    with pytest.raises(DimensionMismatch):
        FractionalProblem(
            n=1,
            objectives=[(abs1d(), const(-1.0))],  # m = 1
            hmap=[const(0.0)],
            cone=PolyhedralCone.nonneg_orthant(1),
            C=Polyhedron.box([-1.0], [1.0]),
        )
    with pytest.raises(DimensionMismatch):
        FractionalProblem(
            n=1,
            objectives=[(abs1d(), const(-1.0))] * 2,
            hmap=[const(0.0)],
            cone=PolyhedralCone.nonneg_orthant(2),  # p mismatch
            C=Polyhedron.box([-1.0], [1.0]),
        )


def test_feasible():
    prob = toy()
    assert feasible(prob, [0.5])
    assert feasible(prob, [1.0])
    assert not feasible(prob, [2.0])  # outside C
    prob2 = toy(h_shift=0.0)  # now h = x <= 0
    assert feasible(prob2, [-0.5])
    assert not feasible(prob2, [0.5])
    with pytest.raises(DimensionMismatch):
        feasible(prob, [0.5, 0.5])


def test_scalar_and_batch_feasibility_agree_near_the_faces():
    # points a few ulps from each face of C and of -Y+, and from each face
    # moved out by TOL_FEAS, where fl(a.x) - b > tol and fl(a.x) <= fl(b +
    # tol) part ways; every row has one nonzero entry, so a product rounds
    # alike in one row and in a stack
    C = Polyhedron(A=[[3.0, 0.0], [-1.0, 0.0], [0.0, 0.1], [0.0, -1.0]], b=[3.0, 1.0, 0.2, 0.0])
    prob = FractionalProblem(
        n=2,
        objectives=[(const(1.0, 2), const(-1.0, 2))] * 2,
        hmap=[PolyhedralFn.affine([0.0, 1.0], -1.5)],  # x_2 <= 1.5
        cone=PolyhedralCone.nonneg_orthant(1),
        C=C,
    )
    rng = np.random.default_rng(11)
    rows = []
    for axis, value, slope in ((0, 1.0, 3.0), (0, -1.0, 1.0), (1, 2.0, 0.1), (1, 0.0, 1.0),
                               (1, 1.5, 1.0)):
        for shift in (-TOL_FEAS / slope, 0.0, TOL_FEAS / slope):
            for k in range(-6, 7):
                x = rng.uniform([-0.9, 0.1], [0.9, 1.4])
                x[axis] = value + shift + k * np.spacing(value + shift)
                rows.append(x)
    X = rng.permutation(np.array(rows))
    assert [feasible(prob, x) for x in X] == feasible_mask(prob, X).tolist()
    assert [C.contains(x) for x in X] == C.contains_batch(X).tolist()
    H = prob.h_values_batch(X)
    assert [in_minus_cone(prob.cone, y) for y in H] == in_minus_cone_batch(prob.cone, H).tolist()
    # C = {x <= 1}, h = -1: 1.000000001 is within TOL_FEAS of the face
    # both as a candidate and as a lattice sample
    one = FractionalProblem(1, [(const(0.0), const(-1.0))] * 2, [const(-1.0)],
                            PolyhedralCone.nonneg_orthant(1), Polyhedron(A=[[1.0]], b=[1.0]))
    assert feasible(one, [1.000000001]) is bool(feasible_mask(one, [[1.000000001]])[0]) is True


def test_feasible_mask_matches_scalar():
    prob = toy(h_shift=0.3)
    X = GridSpec.parse("41:[-1.5,1.5]").points()
    got = feasible_mask(prob, X)
    want = []
    for row in X:
        try:
            want.append(feasible(prob, row))
        except DimensionMismatch:
            want.append(False)
    assert got.tolist() == want


def test_nu_values():
    assert nu_values(toy(), [0.0]) == pytest.approx([0.0, 0.0])
    # f1 = x+2 over g1 = 2 and f2 = x+1 over g2 = 1, at 0: (1, 1)
    prob = FractionalProblem(
        n=1,
        objectives=[
            (PolyhedralFn.affine([1.0], 2.0), const(-2.0)),
            (PolyhedralFn.affine([1.0], 1.0), const(-1.0)),
        ],
        hmap=[const(0.0)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([-1.0], [1.0]),
    )
    assert nu_values(prob, [0.0]) == pytest.approx([1.0, 1.0])


def test_nu_denominator_guard():
    # g1(x) = x vanishes at 0
    prob = FractionalProblem(
        n=1,
        objectives=[
            (abs1d(), PolyhedralFn.affine([-1.0], 0.0)),
            (abs1d(), const(-1.0)),
        ],
        hmap=[const(0.0)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([-1.0], [1.0]),
    )
    with pytest.raises(DenominatorNearZero):
        nu_values(prob, [0.0])


def test_nu_point_outside_denominator_domain():
    # g1 = 1 only on x <= 0.5; C = [-1,1] and h = 0 leave 0.8 feasible
    prob = FractionalProblem(
        n=1,
        objectives=[
            (abs1d(), PolyhedralFn([[0.0]], [-1.0], Polyhedron(A=[[1.0]], b=[0.5]))),
            (abs1d(), const(-1.0)),
        ],
        hmap=[const(0.0)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([-1.0], [1.0]),
    )
    assert feasible(prob, [0.8])
    with pytest.raises(PointOutsideDomain, match="objective 0: denominator infinite"):
        nu_values(prob, [0.8])
    assert nu_values(prob, [0.4]) == pytest.approx([0.4, 0.4])


def test_ratio_matrix_masks_bad_rows():
    prob = FractionalProblem(
        n=1,
        objectives=[
            (abs1d(), PolyhedralFn.affine([-1.0], 0.0)),  # g = x
            (abs1d(), const(-1.0)),
        ],
        hmap=[const(0.0)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([-1.0], [1.0]),
    )
    X = np.array([[0.5], [0.0], [-0.5]])
    R, ok = ratio_matrix(prob, X)
    assert ok.tolist() == [True, False, True]
    assert R[0] == pytest.approx([1.0, 0.5])
    assert R[2] == pytest.approx([-1.0, 0.5])


def phi(param, x):
    """phi at x as the oracle forms it: f and -g at x as (m, 1) stacks,
    then ``_phi_stack``."""
    return param._phi_stack(*fractional._objective_stacks(param.base, np.array([x], float)))[:, 0]


def test_parametric_identity():
    # f(x) = x+1 over g = 1 at xbar = 1: nu = 2, phi(x) = x - 1
    prob = FractionalProblem(
        n=1,
        objectives=[
            (PolyhedralFn.affine([1.0], 1.0), const(-1.0)),
            (PolyhedralFn.affine([1.0], 1.0), const(-1.0)),
        ],
        hmap=[const(0.0)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([-1.0], [2.0]),
    )
    param = parametric_problem(prob, [1.0])
    assert param.nu == pytest.approx([2.0, 2.0])
    assert phi(param, [1.0]) == pytest.approx([0.0, 0.0])
    assert phi(param, [0.5]) == pytest.approx([-0.5, -0.5])
    assert phi(param, [2.0]) == pytest.approx([1.0, 1.0])


def test_parametric_zero_nu_ignores_blackbox_domain():
    # nu = 0 makes the scaled denominator term vanish identically
    prob = FractionalProblem(
        n=2,
        objectives=[
            (PolyhedralFn.affine([1.0, 0.0], 0.0), BlackBoxFn("neg_quad_plus_one", 2)),
            (PolyhedralFn.affine([-1.0, 0.0], 0.0), BlackBoxFn("neg_quad_plus_one", 2)),
        ],
        hmap=[const(0.0, n=2)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([0.0, 0.0], [1.0, 1.0]),
    )
    with pytest.warns(UserWarning, match="denominator not positive"):
        param = parametric_problem(prob, [0.0, 0.5])
    assert param.nu == pytest.approx([0.0, 0.0])
    assert phi(param, [0.7, 0.2]) == pytest.approx([0.7, -0.7])


def test_inconsistent_candidate_is_refused():
    # a Candidate built by hand with f = 1e8 and g = 1: phi at xbar is
    # f - nu g, which must be within PHI_ZERO_TOL (1 + |f| + nu |g|), about
    # 0.2; nu = 1e8 + 0.1 passes, nu = 1e8 + 1 is refused
    prob = toy()
    x = np.zeros(1)
    for nu, refused in ((1e8 + 0.1, False), (1e8 + 1.0, True)):
        cand = Candidate(prob, x, np.full(2, 1e8), -np.ones(2), np.full(2, nu), prob.h_values(x))
        if refused:
            with pytest.raises(DimensionMismatch, match="do not vanish"):
                ParametricProblem(cand)
        else:
            assert ParametricProblem(cand).nu.tolist() == [nu, nu]


def test_parametric_negative_nu_rejected():
    prob = FractionalProblem(
        n=1,
        objectives=[
            (const(1.0), const(1.0)),  # f = 1, g = -1, nu = -1
            (abs1d(), const(-1.0)),
        ],
        hmap=[const(0.0)],
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([-1.0], [1.0]),
    )
    with pytest.warns(UserWarning):
        with pytest.raises(UnsupportedData):
            parametric_problem(prob, [0.0])
    # every oracle entry point builds the reformulation
    with pytest.raises(UnsupportedData):
        henig_check_bruteforce(prob, [0.0], GridSpec.parse("3:[-1,1]"))


def test_parametric_requires_feasible_point():
    with pytest.raises(PointOutsideDomain):
        parametric_problem(toy(), [5.0])


def test_oracle_dominated_at_one():
    verdict = henig_check_bruteforce(toy(), [1.0], GridSpec.parse("3:[0,1]"))
    assert verdict.kind == "dominated"
    assert verdict.counterexample == pytest.approx([0.0])
    assert verdict.at_eps == pytest.approx(DEFAULT_LADDER[-1])
    # the witness must dominate at every ladder eps
    diff = np.array([-1.0, -1.0])
    for eps in DEFAULT_LADDER:
        assert in_minus_k_eps_polar(HenigCone(2, eps), diff)


def test_oracle_witness_is_first_in_lattice_order():
    verdict = henig_check_bruteforce(toy(), [1.0], GridSpec.parse("21:[-1,1]"))
    assert verdict.kind == "dominated"
    # -1.0 ties with xbar's ratios and is excluded; -0.9 is first
    assert verdict.counterexample == pytest.approx([-0.9])


def test_oracle_properly_efficient_at_zero():
    verdict = henig_check_bruteforce(toy(), [0.0], GridSpec.parse("21:[-1,1]"))
    assert verdict.kind == "properly_efficient"
    assert verdict.eps_witness == pytest.approx(1.0)  # certified at the top rung


def _all_verdicts(prob, xbar, grid, ladder=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, xbar)
    verdict, equiv = henig_check(prob, xbar, grid, ladder)
    phi = henig_check_parametric(param, grid, ladder)
    assert_same_verdict(henig_check_bruteforce(prob, xbar, grid, ladder), verdict)
    assert equiv is (phi.kind == verdict.kind)
    return verdict, phi


def test_oracle_no_feasible_samples(monkeypatch):
    # a lattice beyond C, and one inside C where h(x) = x + 0.5 > 0: the
    # bound pass, which runs on lattices of more than one chunk, drops
    # every box as infeasible, so no row is tested, and every entry point
    # says "no feasible samples"
    monkeypatch.setattr(grids, "_CHUNK", 2)
    tested = []
    mask = feasible_mask

    def spy(prob, X, *args, **kwargs):
        tested.append(len(X))
        return mask(prob, X, *args, **kwargs)

    monkeypatch.setattr(fractional, "feasible_mask", spy)
    for prob, xbar, spec in [(toy(), [0.0], "5:[3,4]"), (toy(h_shift=-0.5), [-1.0], "5:[0,1]")]:
        for verdict in _all_verdicts(prob, xbar, GridSpec.parse(spec)):
            assert (verdict.kind, verdict.reason) == ("inconclusive", "no feasible samples")
    assert tested == []


def test_oracle_rejects_infeasible_candidate():
    with pytest.raises(PointOutsideDomain):
        henig_check_bruteforce(toy(), [5.0], GridSpec.parse("5:[-1,1]"))
    with pytest.raises(ValueError):
        henig_check_bruteforce(toy(), [0.0], GridSpec.parse("5:[-1,1]"), ladder=[-1.0])
    # no ladder rung may be NaN or infinite, whatever the grid
    for grid, ladder in [("1:[0,0]", [np.nan]), ("21:[-1,1]", [np.inf, 0.5])]:
        with pytest.raises(ValueError):
            henig_check_bruteforce(toy(), [0.0], GridSpec.parse(grid), ladder=ladder)
        with pytest.raises(ValueError):
            henig_check(toy(), [0.0], GridSpec.parse(grid), ladder=ladder)[1]


# reference scan: one HenigCone batch test per rung, then a separate pass
# that intersects every rung's hits to find a surviving witness
def _reference_ladder_verdict(D, X, ladder, grid) -> EfficiencyVerdict:
    """Shared scan: D holds the objective-difference rows of the candidate
    against each feasible sample in X (lattice order)."""
    m = D.shape[1]
    nonzero = np.abs(D).max(axis=1) > ZERO_DIFF_TOL if D.size else np.zeros(0, bool)
    Dn, Xn = D[nonzero], X[nonzero]
    if Dn.shape[0] == 0:
        # only the candidate's own ratio vector shows up on the grid
        return EfficiencyVerdict.properly_efficient(ladder[0], grid)
    for eps in ladder:
        hits = in_minus_k_eps_polar_batch(HenigCone(m, eps), Dn)
        if not hits.any():
            return EfficiencyVerdict.properly_efficient(eps, grid)
    # refuted everywhere; promote a witness only if one row survives the
    # whole ladder (tolerance slack can break this near the boundary)
    finest_hits = in_minus_k_eps_polar_batch(HenigCone(m, ladder[-1]), Dn)
    survives = finest_hits.copy()
    for eps in ladder[:-1]:
        survives &= in_minus_k_eps_polar_batch(HenigCone(m, eps), Dn)
        if not survives.any():
            break
    if survives.any():
        first = int(np.argmax(survives))
        return EfficiencyVerdict.dominated(Xn[first], ladder[-1], grid)
    return EfficiencyVerdict.inconclusive(
        "every ladder eps is refuted but no single witness dominates at all of them",
        grid,
    )


def assert_same_verdict(got, want):
    assert (got.kind, got.eps_witness, got.at_eps, got.reason) == (
        want.kind, want.eps_witness, want.at_eps, want.reason
    )
    if want.counterexample is None:
        assert got.counterexample is None
    else:
        assert got.counterexample.tobytes() == want.counterexample.tobytes()


def _chunked_ladder_verdict(D, X, ladder, bounds):
    """Rows D[a:b] fed chunk by chunk for consecutive (a, b) in bounds,
    stopping at a Dominated witness as the lattice walk does."""
    scan = _LadderScan(ladder, None)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if scan.verdict is None:
            scan.feed(np.ascontiguousarray(D[a:b].T), X[a:b])
    return scan.result()


def test_ladder_scan_matches_per_rung_cone_tests():
    # the (max, sum) scan against a per-rung HenigCone scan with a separate
    # survivor pass, on rows from N(0,1), rows at TOL_CONE's scale, zero-sum
    # rows shifted by 1e-10, and rounded rows with ties, mixed per case.
    # From m = 8 on, the scan's running sum over the objectives and the
    # reference's pairwise row sum differ in the last bit on some rows; the
    # cases with m in {8, 9} show the verdicts agree all the same.
    # Every case is also fed to the scan in chunks split at random places
    # drawn from a third generator, as the lattice walk feeds it.
    narrow, wide = np.random.default_rng(2024), np.random.default_rng(2025)
    splits = np.random.default_rng(2026)
    chunked = 0
    ladders = [
        _validate_ladder(lad)
        for lad in (DEFAULT_LADDER, (1.0, 0.5, 0.25, 0.125, 0.0625), (4.0, 1.0, 1e-3, 1e-9))
    ]
    kinds = {"properly_efficient": 0, "dominated": 0, "inconclusive": 0}
    sums_differ = 0
    for rng, m_low, m_high in [(narrow, 2, 5)] * 1000 + [(wide, 8, 10)] * 400:
        m, N = int(rng.integers(m_low, m_high)), int(rng.integers(0, 41))
        Z = rng.normal(size=(N, m))
        families = [
            Z,
            Z * 1e-9,
            Z - Z.mean(axis=1, keepdims=True) + rng.choice([-1e-10, 1e-10], size=(N, 1)),
            np.round(Z),
        ]
        pick = rng.choice(rng.permutation(4)[: rng.integers(1, 5)], size=N)
        D = np.choose(pick[:, None], families)
        X = rng.normal(size=(N, 2))
        for ladder in ladders:
            want = _reference_ladder_verdict(D, X, ladder, None)
            got = _chunked_ladder_verdict(D, X, ladder, [0, N])
            assert (got.kind, got.eps_witness, got.at_eps, got.reason) == (
                want.kind, want.eps_witness, want.at_eps, want.reason
            )
            if want.counterexample is None:
                assert got.counterexample is None
            else:
                assert np.array_equal(got.counterexample, want.counterexample)
            kinds[want.kind] += 1
            # the same rows fed as chunks, cut at seeded random places
            cuts = np.sort(splits.integers(0, N + 1, size=splits.integers(0, 8)))
            bounds = [0, *cuts.tolist(), N]
            assert_same_verdict(_chunked_ladder_verdict(D, X, ladder, bounds), want)
            chunked += len(bounds) > 2
        sums_differ += int((np.ascontiguousarray(D.T).sum(axis=0) != D.sum(axis=1)).sum())
    assert min(kinds.values()) > 0, kinds
    assert sums_differ > 0
    assert chunked > 3000


def test_counterexample_sets_grow_with_eps():
    # any counterexample at eps is one at every larger ladder eps
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        D = rng.normal(size=(60, m))
        prev = np.zeros(60, dtype=bool)
        for eps in sorted([0.01, 0.1, 0.5, 1.0]):
            hits = in_minus_k_eps_polar_batch(HenigCone(m, eps), D, tol=0.0)
            assert (prev & ~hits).sum() == 0
            prev = hits


def random_instance(rng):
    n = int(rng.integers(1, 3))
    m = 2
    box_lo, box_hi = -1.0, 1.0
    objectives = []
    for _ in range(m):
        K = int(rng.integers(1, 4))
        A = rng.normal(size=(K, n))
        b = rng.normal(size=K)
        f = PolyhedralFn(A, b)
        # shift so the numerator is nonnegative on the box
        worst = min(
            f.eval(x) for x in GridSpec.parse(
                "x".join(["9"] * n) + ":" + "x".join([f"[{box_lo},{box_hi}]"] * n)
            ).points()
        )
        f = PolyhedralFn(A, b - worst + 0.1)
        # denominator: positive affine, g(x) = <a,x> + c with c > |a|*radius
        a = rng.normal(size=n) * 0.3
        c = float(np.abs(a).sum() + rng.uniform(0.5, 1.5))
        objectives.append((f, PolyhedralFn.affine(-a, -c)))
    hmap = [PolyhedralFn.affine(rng.normal(size=n), rng.uniform(-0.5, 0.5))]
    prob = FractionalProblem(
        n=n,
        objectives=objectives,
        hmap=hmap,
        cone=PolyhedralCone.nonneg_orthant(1),
        C=Polyhedron.box([box_lo] * n, [box_hi] * n),
    )
    return prob, n


def test_parametric_equivalence_on_random_instances():
    rng = np.random.default_rng(77)
    grids = {1: GridSpec.parse("41:[-1,1]"), 2: GridSpec.parse("21x21:[-1,1]x[-1,1]")}
    ladder = [1.0, 0.25, 2.0 ** -6, 2.0 ** -12]
    checked = 0
    for _ in range(25):
        prob, n = random_instance(rng)
        grid = grids[n]
        X = grid.points()
        mask = feasible_mask(prob, X)
        if not mask.any():
            continue
        idx = rng.choice(np.where(mask)[0], size=min(3, mask.sum()), replace=False)
        for i in idx:
            assert henig_check(prob, X[i], grid, ladder)[1]
            checked += 1
    assert checked >= 20


def test_equivalence_on_toy_verdicts():
    grid = GridSpec.parse("21:[-1,1]")
    assert henig_check(toy(), [1.0], grid)[1]
    assert henig_check(toy(), [0.0], grid)[1]
    v1 = henig_check_bruteforce(toy(), [1.0], grid)
    v2 = henig_check_parametric(parametric_problem(toy(), [1.0]), grid)
    assert v1.kind == v2.kind == "dominated"


def seeded_problem(seed, n=4, m=3, pieces=6, ideal=False):
    """Max-affine data on C = [-1,1]^n with the nonnegative orthant: f pieces
    N(0,1) with offsets |N(0,1)| + 1, -g pieces 0.1 N(0,1) with offsets
    -5 - |N(0,1)|, two h components with offsets -1 - |N(0,1)|, so x = 0 is
    feasible.  ideal=True makes every f_i >= f_i(0) (pieces in +-pairs) and
    every g_i constant, so x = 0 is the ideal point and no lattice point
    refutes it: a check there walks the whole lattice."""
    rng = np.random.default_rng(seed)
    objectives = []
    for _ in range(m):
        A = rng.normal(size=(pieces, n))
        if ideal:
            f = PolyhedralFn(np.vstack([A, -A]), np.ones(2 * pieces))
            ng = const(-5.0 - abs(rng.normal()), n)
        else:
            f = PolyhedralFn(A, np.abs(rng.normal(size=pieces)) + 1.0)
            ng = PolyhedralFn(0.1 * rng.normal(size=(pieces, n)), -5.0 - np.abs(rng.normal(size=pieces)))
        objectives.append((f, ng))
    hmap = [
        PolyhedralFn(rng.normal(size=(pieces, n)), -1.0 - np.abs(rng.normal(size=pieces)))
        for _ in range(2)
    ]
    return FractionalProblem(
        n, objectives, hmap, PolyhedralCone.nonneg_orthant(2), Polyhedron.box([-1.0] * n, [1.0] * n)
    )


def _whole_lattice_verdicts(prob, xbar, grid, ladder):
    """The ratio and reformulation verdicts from the whole lattice at once,
    through the public batch evaluators and the per-rung reference scan."""
    X = grid.points()
    Xf = X[feasible_mask(prob, X)]
    R, ok = ratio_matrix(prob, Xf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, xbar)
    P = param._phi_stack(*fractional._objective_stacks(prob, Xf)).T
    fin = np.isfinite(P).all(axis=1)
    assert ok.any() and fin.any()
    return (
        _reference_ladder_verdict(R[ok] - param.nu, Xf[ok], ladder, grid),
        _reference_ladder_verdict(P[fin], Xf[fin], ladder, grid),
    )


def _lattice_sum_minimizer(prob, grid):
    X = grid.points()
    Xf = X[feasible_mask(prob, X)]
    R, ok = ratio_matrix(prob, Xf)
    return Xf[ok][np.argmin(R[ok].sum(axis=1))]


def _tight_ladder(prob, xbar, grid):
    """A one-rung ladder that some feasible lattice point meets within one
    ulp of its eps: of the points whose ratio differences v have sum S < 0
    (they hit every eps from (max(v) - TOL_CONE) / -S up), the first to hit
    as eps grows hits the rung and misses the float below it.  None when
    no point qualifies."""
    X = grid.points()
    Xf = X[feasible_mask(prob, X)]
    R, ok = ratio_matrix(prob, Xf)
    D = R[ok] - nu_values(prob, xbar)
    D = D[np.abs(D).max(axis=1) > ZERO_DIFF_TOL]  # ties never hit
    vmax, S = D.max(axis=1), np.ascontiguousarray(D.T).sum(axis=0)
    with np.errstate(divide="ignore", over="ignore"):
        start = np.where((S < 0) & (vmax > TOL_CONE), (vmax - TOL_CONE) / -S, np.inf)
    if not start.size or not np.isfinite(start.min()):
        return None
    j = np.argmin(start)
    eps = start[j]

    def hit(e):
        return vmax[j] + e * S[j] <= TOL_CONE

    while hit(eps):
        eps = np.nextafter(eps, 0.0)
    while not hit(eps):
        eps = np.nextafter(eps, np.inf)
    assert hit(eps) and not hit(np.nextafter(eps, 0.0))
    return [float(eps)]


def _max_affine(rng, n, pieces, offset, scale=1.0):
    """Gaussian pieces times scale, offsets offset + scale |N(0,1)|."""
    return PolyhedralFn(scale * rng.normal(size=(pieces, n)), offset + scale * np.abs(rng.normal(size=pieces)))


def _family_problem(rng, n, kind):
    """A small problem on C = [-1,1]^n, feasible at 0 with f_i(0) >= 0 and
    g_i(0) > 0, in one of the differential test's families."""
    m = int(rng.integers(2, 4))
    objectives = [(_max_affine(rng, n, int(rng.integers(1, 4)), 1.5), const(-2.0 - rng.random(), n))
                  for _ in range(m)]
    hmap = [_max_affine(rng, n, 2, -1.5, 0.3) for _ in range(2)]
    cone = PolyhedralCone.nonneg_orthant(2)
    C = Polyhedron.box([-1.0] * n, [1.0] * n)
    if kind == "negative numerators":
        # f_1 = max(a.x + 0.1, a'.x - 2) is 0.1 at 0 and negative where a.x < -0.1
        objectives[0] = (PolyhedralFn(rng.normal(size=(2, n)), [0.1, -2.0]), objectives[0][1])
    elif kind == "denominators near TOL_DIV":
        # g_1 = 1e-9 (1 + x_1): below, at and above TOL_DIV on the lattice
        a = np.zeros(n)
        a[0] = -1e-9
        objectives[0] = (objectives[0][0], PolyhedralFn.affine(a, -1e-9))
    elif kind == "restricted domain, black-box h":
        dom = Polyhedron.box([-0.5] + [-1.0] * (n - 1), [1.0] * n)
        f = objectives[1][0]
        objectives[1] = (PolyhedralFn(f.A, f.b, dom), objectives[1][1])
        hmap[1] = BlackBoxFn("eucl_minus_last", n)
    elif kind == "non-orthant cone":
        # Y+ = cone{(1, 0), (1, 1)}: h in -Y+ iff h_2 <= 0 and h_1 <= h_2
        cone = PolyhedralCone(generators=[[1.0, 0.0], [1.0, 1.0]])
        hmap = [_max_affine(rng, n, 2, -3.0, 0.3), _max_affine(rng, n, 2, -1.5, 0.3)]
    return FractionalProblem(n, objectives, hmap, cone, C)


def _differential_cases():
    """(problem, candidate, grid, ladder) for the chunk-size test; ladder
    None is the default one."""
    rand = seeded_problem(5)
    rand_grid = GridSpec.parse("6x6x6x6:[-1,1]x[-1,1]x[-1,1]x[-1,1]")
    cases = [
        (toy(), [1.0], GridSpec.parse("21:[-1,1]"), None),
        (toy(), [0.0], GridSpec.parse("21:[-1,1]"), None),
        (toy(), [0.3], GridSpec.parse("21:[-1,1]"), None),
        (example_q.build_problem(), example_q.XBAR, GridSpec.parse("31x31:[0,10]x[0,1]"), None),
        (rand, np.zeros(4), rand_grid, None),
        (rand, _lattice_sum_minimizer(rand, rand_grid), rand_grid, None),
    ]
    rng = np.random.default_rng(41)
    # one-point axes and counts that _BOX does not divide
    shapes = ["5x7:[-1,1]x[-1,1]", "1x9:[0,0]x[-1,1]", "7x1x6:[-1,1]x[0,0]x[-1,1]", "13:[-1,1]"]
    kinds = ["plain", "negative numerators", "denominators near TOL_DIV",
             "restricted domain, black-box h", "non-orthant cone"]
    for kind in kinds:
        for spec in shapes:
            grid = GridSpec.parse(spec)
            prob = _family_problem(rng, grid.ndim, kind)
            xbar = np.full(grid.ndim, 0.1) if kind == "denominators near TOL_DIV" else np.zeros(grid.ndim)
            if kind == "restricted domain, black-box h":
                xbar[-1] = 0.5  # on the black box's zero set {0} x [0, inf)
            cases.append((prob, xbar, grid, None))
            # a candidate on the lattice: ties with the candidate itself
            X = grid.points()
            X = X[feasible_mask(prob, X) & ratio_matrix(prob, X)[1]]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                X = [x for x in X if (nu_values(prob, x) >= 0).all()]
            if X:
                cases.append((prob, X[int(rng.integers(len(X)))], grid, None))
    # ratios that meet a rung within one ulp: single-point lattices, where
    # the box is the point, and small lattices
    tight = 0
    for trial in range(90):
        if trial < 60:
            n = int(rng.integers(3, 7))
            x = rng.uniform(-1, 1, n)
            grid = GridSpec(lows=tuple(x), highs=tuple(x), counts=(1,) * n)
        else:
            n = int(rng.integers(1, 4))
            grid = GridSpec(lows=(-1.0,) * n, highs=(1.0,) * n, counts=tuple(rng.integers(1, 7, n)))
        prob = _family_problem(rng, n, "plain")
        ladder = _tight_ladder(prob, np.zeros(n), grid)
        if ladder is not None:
            cases.append((prob, np.zeros(n), grid, ladder))
            tight += 1
    assert tight >= 20, tight
    return cases


def test_henig_check_invariant_to_chunk_size(monkeypatch):
    # every verdict is the same whether the lattice is walked one point at a
    # time, in chunks of 7 or 64 (with the bound pass), or in one chunk
    # (without it), and equals the per-rung reference run on the whole
    # lattice at once, which no box bound prunes.  The cases cover candidates on lattice points (ties),
    # negative numerators, denominators near TOL_DIV, restricted domains
    # and black-box constraints, a non-orthant cone in generator form,
    # one-point axes and counts that the box edge does not divide, and
    # one-rung ladders that a lattice point meets within one ulp.  Every
    # point of a box the bound pass drops is checked too, so a bound that
    # cuts into a hit fails here even where the verdict would not show it
    kinds, dropped = set(), 0
    for prob, xbar, grid, ladder in _differential_cases():
        ladder = _validate_ladder(ladder)
        dropped += (~ref.dropped_rows_miss(prob, xbar, grid, ladder)).sum()
        want_ratio, want_phi = _whole_lattice_verdicts(prob, xbar, grid, ladder)
        kinds.add(want_ratio.kind)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            param = parametric_problem(prob, xbar)
        for chunk in (1, 7, 64, grid.size + 1):
            monkeypatch.setattr(grids, "_CHUNK", chunk)
            verdict, equiv = henig_check(prob, xbar, grid, ladder)
            assert_same_verdict(verdict, want_ratio)
            assert equiv is (want_phi.kind == want_ratio.kind)
            assert_same_verdict(henig_check_bruteforce(prob, xbar, grid, ladder), want_ratio)
            assert_same_verdict(henig_check_parametric(param, grid, ladder), want_phi)
    assert kinds == {"dominated", "properly_efficient"}
    assert dropped > 500, dropped


def test_every_box_dropped_keeps_the_verdict(monkeypatch):
    # the toy at its efficient point 0 on a lattice without 0: every point
    # has v = (|x|, |x|) > 0 and misses every rung, so the bound pass
    # drops every box (in chunks of 1 and 4; one chunk of 9 is walked
    # without the pass).  The dropped rows are walked only to learn that
    # some are feasible, and the verdicts are the reference's (properly
    # efficient at the top rung), not "no feasible samples"
    grid = GridSpec.parse("9:[0.2,1]")
    ladder = _validate_ladder(None)
    assert not ref.dropped_rows_miss(toy(), [0.0], grid, ladder).any()
    want_ratio, want_phi = _whole_lattice_verdicts(toy(), [0.0], grid, ladder)
    assert want_ratio.kind == want_phi.kind == "properly_efficient"
    for chunk in (1, 4, grid.size):
        monkeypatch.setattr(grids, "_CHUNK", chunk)
        verdict, phi = _all_verdicts(toy(), [0.0], grid)
        assert_same_verdict(verdict, want_ratio)
        assert_same_verdict(phi, want_phi)


def test_only_feasible_sample_in_a_dropped_sub_box(monkeypatch):
    # f = (1 + x_1, 1 - x_1), g = 1, at xbar = 0: v = (x_1, -x_1) hits no
    # rung off xbar.  C is a band around the segment from 0 to (0.4, 0.3),
    # so of the 4x2 lattice only (0.4, 0.3) is feasible.  The lattice is
    # one box, kept: its bounds on v1 and v2 are met at opposite ends, so
    # max(v) + sum(v) may be <= 0.  Its sub-box x_1 in {0.3, 0.4} holds
    # the feasible sample and is dropped for missing every rung; the
    # other holds no feasible point.  The walk finds no feasible sample,
    # so the dropped sub-box is walked to settle that, and the verdicts
    # are the reference's, not "no feasible samples"
    prob = FractionalProblem(
        2,
        [(PolyhedralFn.affine([1.0, 0.0], 1.0), const(-1.0, 2)),
         (PolyhedralFn.affine([-1.0, 0.0], 1.0), const(-1.0, 2))],
        [const(-1.0, 2)],
        PolyhedralCone.nonneg_orthant(1),
        Polyhedron(A=[[0.3, -0.4], [-0.3, 0.4], [-1.0, 0.0]], b=[0.005, 0.005, 0.0], n=2),
    )
    grid = GridSpec.parse("4x2:[0.1,0.4]x[0,0.3]")
    ladder = _validate_ladder(None)
    X = grid.points()
    assert X[feasible_mask(prob, X)].tolist() == [[0.4, 0.3]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, [0.0, 0.0])
    feasible, hit, sub_kept, sub_feasible = ref.sub_box_codes(fractional._BoundPass(prob, grid, ladder, param), grid)
    sub = ref.box_labels(grid, grids._SUB)
    assert feasible.tolist() == hit.tolist() == [True]
    assert sub_kept[sub].tolist() == [True, True, True, True, False, False, False, False]
    assert (sub_feasible[sub] & ~sub_kept[sub]).tolist() == [False, False, False, False, True, True, True, True]
    want_ratio, want_phi = _whole_lattice_verdicts(prob, [0.0, 0.0], grid, ladder)
    assert want_ratio.kind == want_phi.kind == "properly_efficient"
    for chunk in (2, 4):
        monkeypatch.setattr(grids, "_CHUNK", chunk)
        verdict, phi = _all_verdicts(prob, [0.0, 0.0], grid)
        assert_same_verdict(verdict, want_ratio)
        assert_same_verdict(phi, want_phi)


def test_bound_pass_skipped_without_bounds(monkeypatch):
    # a box is dropped for missing every rung only when both scans miss,
    # and the ratios' bounds need every f_i and -g_i: with Q's black-box
    # -g_2 the pass never runs, on a lattice of several chunks, and the
    # walk tests every lattice point, skipping C's test only where the
    # lattice's own box passes it (not past C's face x_1 >= 0); on the
    # toy the pass runs once
    calls = []
    bound_rows = fractional._bound_rows

    def spy(*args):
        calls.append("_bound_rows")
        return bound_rows(*args)

    monkeypatch.setattr(fractional, "_bound_rows", spy)
    tested = []
    mask = feasible_mask

    def mask_spy(prob, X, in_C=False):
        tested.append((len(X), bool(np.all(in_C))))
        got = mask(prob, X, in_C)
        assert got.tobytes() == mask(prob, X).tobytes()
        return got

    monkeypatch.setattr(fractional, "feasible_mask", mask_spy)
    monkeypatch.setattr(grids, "_CHUNK", 64)
    for spec, in_C in (("31x31:[0,10]x[0,1]", True), ("31x31:[-0.5,10]x[0,1]", False)):
        tested.clear()
        grid = GridSpec.parse(spec)
        henig_check(example_q.build_problem(), example_q.XBAR, grid)
        assert calls == [] and sum(n for n, _ in tested) == grid.size
        assert {flag for _, flag in tested} == {in_C}
    henig_check(toy(), [0.0], GridSpec.parse("201:[-1,1]"))
    assert calls == ["_bound_rows"]


def test_single_kept_row_takes_the_one_row_product(monkeypatch):
    # f_1 = f_2 = 1 - x with g = 1 at xbar = 0.9: of the lattice -1, -0.5,
    # 0, 0.5, 1 only x = 1 improves on xbar, alone in its box (5 points,
    # boxes of 4).  Walked one point at a time or in chunks of 4, the scan
    # evaluates it as a single row, through dot_rows' one-row product, and
    # its verdicts have the reference's bits, from all five rows at once
    prob = FractionalProblem(
        1,
        [(PolyhedralFn.affine([-1.0], 1.0), const(-1.0))] * 2,
        [PolyhedralFn.affine([1.0], -1.0)],
        PolyhedralCone.nonneg_orthant(1),
        Polyhedron.box([-1.0], [1.0]),
    )
    grid = GridSpec.parse("5:[-1,1]")
    ladder = _validate_ladder(None)
    assert ref.dropped_rows_miss(prob, [0.9], grid, ladder).tolist() == [False] * 4 + [True]
    want_ratio, want_phi = _whole_lattice_verdicts(prob, [0.9], grid, ladder)
    assert want_ratio.kind == want_phi.kind == "dominated"
    rows = []
    dot_rows = _kernels.dot_rows

    def spy(A, X):
        rows.append(X.shape[0])
        return dot_rows(A, X)

    monkeypatch.setattr(_kernels, "dot_rows", spy)
    for chunk in (1, 4):
        monkeypatch.setattr(grids, "_CHUNK", chunk)
        rows.clear()
        verdict, phi = _all_verdicts(prob, [0.9], grid)
        assert_same_verdict(verdict, want_ratio)
        assert_same_verdict(phi, want_phi)
        assert rows and set(rows) == {1}


def test_henig_check_evaluates_the_candidate_once(monkeypatch):
    # feasibility takes each h_j at xbar, the ratios each f_i and -g_i, and
    # the reformulation's vanishing check each f_i and -g_i once more: p + 4m
    # scalar evaluations, however many chunks the walk takes
    prob = seeded_problem(1)
    calls = []
    scalar = PolyhedralFn.eval

    def spy(self, x):
        calls.append(self)
        return scalar(self, x)

    monkeypatch.setattr(PolyhedralFn, "eval", spy)
    grid = GridSpec.parse("5x5x5x5:[-1,1]x[-1,1]x[-1,1]x[-1,1]")
    for chunk in (64, grid.size):
        monkeypatch.setattr(grids, "_CHUNK", chunk)
        calls.clear()
        henig_check(prob, np.zeros(4), grid)
        assert len(calls) <= prob.p + 4 * prob.m, len(calls)


def test_grid_scan_memory_is_flat_in_grid_size():
    # tracemalloc peak of one full walk: a 30^4 lattice (810,000 points)
    # costs at most 1.5 times a 20^4 one (160,000); a whole-lattice scan
    # grows with the lattice, about 5 times
    prob = seeded_problem(9, ideal=True)
    peaks = []
    for k in (20, 30):
        grid = GridSpec.parse("x".join([str(k)] * 4) + ":" + "x".join(["[-1,1]"] * 4))
        tracemalloc.start()
        try:
            verdict, equiv = henig_check(prob, np.zeros(4), grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert verdict.kind == "properly_efficient" and equiv
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_lattice_in_C_skip_is_sound(monkeypatch):
    # the oracle skips C's test only when every lattice point passes it
    # (_lattice_in_C), and the bound pass calls a box infeasible only when
    # none of its points is feasible: C has integer or Gaussian rows, with
    # or without equality rows, and the lattice's box lies strictly inside
    # C, spans it to its faces exactly (the benchmark's grids), pokes out
    # of it by about 1e-12 (within TOL_FEAS), reaches its test's bound
    # b + TOL_FEAS up to rounding, pokes past that bound by about 1e-12,
    # or lies a unit beyond one of C's faces
    rng = np.random.default_rng(23)
    monkeypatch.setattr(grids, "_CHUNK", 7)
    decided = {}
    for trial in range(360):
        n = int(rng.integers(1, 5))
        kind = ("inside", "faces", "out 1e-12", "at tol", "past tol")[trial % 5] if trial < 300 else "beyond"
        eq_rows = int(rng.random() < 0.25) if kind != "beyond" else 0
        lo = rng.integers(-3, 2, size=n) * 0.5
        if rng.random() < 0.5:
            lo = lo + rng.normal(size=n)
        hi = lo + rng.integers(1, 4, size=n) * 0.5
        grid = GridSpec(lows=tuple(lo), highs=tuple(hi), counts=tuple(rng.integers(1, 6, size=n)))
        # the lattice's own box: an axis with one point is its low end
        lo, hi = (np.array(ends) for ends in zip(*[(a.min(), a.max()) for a in grid.axes()]))
        rows = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            A = rng.integers(-2, 3, size=(rows, n)).astype(float)
            A[~A.any(axis=1), 0] = 1.0
        else:
            A = rng.normal(size=(rows, n))
        top = np.maximum(A * lo, A * hi).sum(axis=1)
        b = top.copy()
        i = int(rng.integers(rows))
        if kind == "inside":
            b += rng.uniform(0.1, 1.0, size=rows)
        elif kind == "out 1e-12":
            b[i] -= 1e-12 * max(1.0, abs(top[i]))
        elif kind == "at tol":
            b[i] -= TOL_FEAS
        elif kind == "past tol":
            b[i] -= TOL_FEAS + 1e-12 * max(1.0, abs(top[i]))
        elif kind == "beyond":
            b += 10.0
            b[i] = np.minimum(A[i] * lo, A[i] * hi).sum() - 1.0
        x0 = (lo + hi) / 2
        E = rng.integers(-1, 2, size=(eq_rows, n)).astype(float)
        C = Polyhedron(A=A, b=b, E=E, d=E @ x0, n=n)
        prob = FractionalProblem(
            n,
            [(const(1.0, n), const(-1.0, n))] * 2,
            [PolyhedralFn(rng.normal(size=(2, n)), rng.normal(size=2))],
            PolyhedralCone.nonneg_orthant(1),
            C,
        )
        # the constraint h = -1 leaves C alone to call boxes infeasible
        in_box = FractionalProblem(n, prob.objectives, [const(-1.0, n)], prob.cone, C)
        # x0 need not be feasible, so its Candidate is built by hand:
        # f = g = 1 and nu = 1 for both objectives
        one = np.ones(2)
        param = ParametricProblem(Candidate(prob, x0, one, -one, one, prob.h_values(x0)))
        with np.errstate(all="ignore"):
            meets_C = _BoundPass(in_box, grid, [1.0], param).box_codes()[0][ref.box_labels(grid)]
            feasible_box = _BoundPass(prob, grid, [1.0], param).box_codes()[0]
        X = grid.points()
        assert not C.contains_batch(X[~meets_C], tol=TOL_FEAS).any()
        assert not feasible_mask(prob, X[~feasible_box[ref.box_labels(grid)]]).any()
        in_C = _lattice_in_C(C, grid)
        decided.setdefault((kind, eq_rows), set()).add(in_C)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        if in_C:
            assert C.contains_batch(X, tol=TOL_FEAS).all()
            assert C.contains_batch(corners, tol=TOL_FEAS).all()
        if kind == "past tol":
            assert not C.contains_batch(corners, tol=TOL_FEAS).all()
        if kind == "beyond":
            assert not meets_C.any()
        for X in grid.select(feasible_box, ref.whole_boxes(feasible_box, n), 1):
            got = feasible_mask(prob, X, in_C=in_C)
            assert got.tobytes() == feasible_mask(prob, X).tobytes()
    # taken wherever the box passes C's test with room for rounding and
    # there is no equality row, and refused wherever there is one or the
    # box leaves C's test
    assert decided[("inside", 0)] == decided[("faces", 0)] == decided[("out 1e-12", 0)] == {True}
    assert decided[("past tol", 0)] == {False}
    assert all(seen == {False} for (kind, eq), seen in decided.items() if eq)
