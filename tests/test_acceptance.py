"""Acceptance gate: one test per stated criterion, each at its stated
tolerance and runtime budget.  `pytest -v tests/test_acceptance.py` yields
one pass/fail line per criterion; the prints carry the measured numbers.
"""

import time

import numpy as np

from cone_oracles import k_eps_contains, k_eps_polar_contains
from henigcert import example_q
from henigcert.certificates import generate_eps_certificate, slater_check
from henigcert.cones import HenigCone
from henigcert.convex import (
    PolyhedralFn,
    Polyhedron,
    br_regularize,
    eps_subdiff_contains,
)
from henigcert.cones import PolyhedralCone
from henigcert.fractional import (
    FractionalProblem,
    feasible_mask,
    henig_check,
    henig_check_bruteforce,
)
from henigcert.grids import GridSpec


def _line(num, desc, seconds=None):
    extra = f" [{seconds:.2f}s]" if seconds is not None else ""
    print(f"criterion {num}: PASS - {desc}{extra}")


def _toy_problem():
    absfn = PolyhedralFn([[1.0], [-1.0]], [0.0, 0.0])
    neg_one = PolyhedralFn([[0.0]], [-1.0])
    h = PolyhedralFn([[1.0]], [-1.0])
    C = Polyhedron(A=[[1.0], [-1.0]], b=[1.0, 1.0])
    return FractionalProblem(
        1,
        [(absfn, neg_one), (absfn, neg_one)],
        [h],
        PolyhedralCone.nonneg_orthant(1),
        C,
    )


def test_criterion_01_worked_example_golden_run():
    t0 = time.time()
    rep = example_q.run(N=1000, tol_conv=1e-2)
    dt = time.time() - t0
    assert rep["ok"] is True, [s for s in rep["stages"] if not s["ok"]]
    last = rep["stages"][-1]
    assert last["verdict"] == "Accept"
    assert abs(last["dual_residual_last"] - 1.0e-3) <= 1e-9
    assert last["y_residual_max"] == 0.0
    assert abs(last["scalar_residual_last"] - 6.0e-3) <= 1e-9
    assert dt < 10.0
    _line(
        1,
        "worked example passes all five stages; residuals 1.0e-3 / 0 / 6.0e-3 "
        "at N=1000 within 1e-9, Accept at tol 1e-2",
        dt,
    )


def test_criterion_02_feasible_set_is_the_zero_edge_exactly():
    prob = example_q.build_problem()
    pts = example_q.DEFAULT_GRID.points()
    mask = feasible_mask(prob, pts)
    assert mask.any()
    first = pts[mask][:, 0]
    assert (first == 0.0).all()  # zero tolerance
    _line(
        2,
        f"all {int(mask.sum())} feasible points of the 201x201 grid have "
        "first coordinate exactly 0.0",
    )


def test_criterion_03_interior_point_qualification_fails():
    prob = example_q.build_problem()
    assert slater_check(prob, example_q.DEFAULT_GRID) is False
    _line(3, "no grid point of C maps strictly inside the negative cone")


def test_criterion_04_efficiency_verdict_on_worked_example():
    prob = example_q.build_problem()
    t0 = time.time()
    verdict = henig_check_bruteforce(prob, example_q.XBAR, example_q.DEFAULT_GRID)
    dt = time.time() - t0
    assert verdict.kind == "properly_efficient"
    assert verdict.eps_witness >= 2.0 ** -20
    assert dt < 10.0
    _line(
        4,
        f"candidate is properly efficient at dilation {verdict.eps_witness:g}",
        dt,
    )


def test_criterion_05_membership_lp_vs_lattice_refutation():
    # 100 random instances x 50 queries: the membership LP and the
    # 10^4-point lattice refutation oracle must never disagree at 1e-6
    rng = np.random.default_rng(505)
    t0 = time.time()
    members = refuted = 0
    counts_by_dim = {1: (10000,), 2: (100, 100), 3: (22, 22, 22)}
    for _ in range(100):
        n = int(rng.integers(1, 4))
        K = int(rng.integers(1, 6))
        A = rng.normal(size=(K, n))
        b = rng.normal(size=K)
        f = PolyhedralFn(A, b)
        grid = GridSpec(
            lows=(-5.0,) * n, highs=(5.0,) * n, counts=counts_by_dim[n]
        )
        X = grid.points()
        FX = f.eval_batch(X)
        for _ in range(50):
            xbar = rng.uniform(-1.0, 1.0, n)
            eps = float(rng.uniform(0.0, 1.0))
            if rng.uniform() < 0.5:
                q = rng.dirichlet(np.ones(K)) @ A
            else:
                q = rng.normal(size=n)
            inside = bool(eps_subdiff_contains(f, xbar, eps, q, tol=1e-6))
            # largest violation of the subgradient inequality on the lattice
            viol = float(np.max(X @ q - FX) + f(xbar) - q @ xbar - eps)
            if viol > 1e-6:
                refuted += 1
                assert not inside, "membership LP accepted a refuted query"
            if inside:
                members += 1
                assert viol <= 1e-6, "lattice refutes an accepted membership"
    dt = time.time() - t0
    assert members >= 500 and refuted >= 500  # both branches well exercised
    assert dt < 30.0
    _line(
        5,
        f"5000 queries, {members} memberships and {refuted} refutations, "
        "zero disagreements at 1e-6",
        dt,
    )


def _random_fractional_instance(rng):
    # two nonnegative max-affine numerators (zero piece keeps nu >= 0),
    # unit denominators, h = x - c
    def numerator():
        k = rng.integers(1, 3)
        A = np.vstack([rng.uniform(-2, 2, (k, 1)), [[0.0]]])
        b = np.concatenate([rng.uniform(0, 1, k), [0.0]])
        return PolyhedralFn(A, b)

    f1 = numerator()
    f2 = numerator()
    ng = PolyhedralFn([[0.0]], [-1.0])
    hi = float(rng.uniform(0.5, 2.0))
    h = PolyhedralFn([[1.0]], [-hi])
    C = Polyhedron.box([-2.0], [2.0])
    return FractionalProblem(
        1, [(f1, ng), (f2, ng)], [h], PolyhedralCone.nonneg_orthant(1), C
    )


def test_criterion_06_parametric_reformulation_equivalence():
    rng = np.random.default_rng(606)
    grid = GridSpec(lows=(-2.0,), highs=(2.0,), counts=(201,))
    checked = 0
    for _ in range(20):
        prob = _random_fractional_instance(rng)
        pts = grid.points()
        pts = pts[feasible_mask(prob, pts)]
        assert len(pts) > 0
        for x in (pts[0], pts[int(rng.integers(0, len(pts)))]):
            assert henig_check(prob, x, grid)[1] is True
            checked += 1
    _line(
        6,
        f"ratio and reformulated oracles agree on all 20 instances "
        f"({checked} candidate points)",
    )


def test_criterion_07_nearby_pair_bounds():
    # 100 random blocks: the returned pair must satisfy the three bounds
    # measured here with the true Euclidean norm
    rng = np.random.default_rng(707)
    t0 = time.time()
    violations = 0
    for _ in range(100):
        K = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        f = PolyhedralFn(rng.normal(size=(K, n)), rng.normal(size=K))
        xbar = rng.normal(size=n)
        eps = float(rng.uniform(1e-4, 1.0))
        # an eps-subgradient: blend a simplex point toward an active vertex
        vals = f.piece_values(xbar)
        mu = rng.dirichlet(np.ones(K))
        vertex = np.zeros(K)
        vertex[int(np.argmax(vals))] = 1.0
        for _ in range(60):
            if vals.max() - mu @ vals <= eps:
                break
            mu = 0.5 * mu + 0.5 * vertex
        xbarstar = mu @ f.A
        assert eps_subdiff_contains(f, xbar, eps, xbarstar, tol=1e-9)
        res = br_regularize(f, xbar, eps, xbarstar)
        root = np.sqrt(eps)
        dist_x = float(np.linalg.norm(res.x - xbar))
        dist_xstar = float(np.linalg.norm(res.xstar - xbarstar))
        value_gap = abs(f(res.x) - f(xbar) - res.xstar @ (res.x - xbar))
        if dist_x > root or dist_xstar > root or value_gap > 2.0 * eps:
            violations += 1
    dt = time.time() - t0
    assert violations == 0
    _line(
        7,
        "100 regularized pairs inside sqrt(eps)/sqrt(eps)/2eps in the "
        "Euclidean norm, zero violations",
        dt,
    )


def test_criterion_08_generation_floor_matches_the_derived_bound():
    prob = _toy_problem()
    N = 60
    _, trace0 = generate_eps_certificate(prob, np.zeros(1), N=N)
    assert float(np.max(trace0)) <= 1e-9  # complete at the minimizer

    _, trace1 = generate_eps_certificate(prob, np.ones(1), N=N)
    gamma = 1.0 / np.arange(1, N + 1)
    expected = 2.0 * (1.0 - gamma)
    assert float(np.max(np.abs(trace1 - expected))) <= 1e-6
    assert (trace1[3:] >= 1.5).all()  # n >= 4
    _line(
        8,
        "residuals vanish at the minimizer; dominated-point optimum equals "
        "2(1 - gamma_n) within 1e-6 and stays above 1.5 from n = 4",
    )


def test_criterion_09_dilating_cone_sandwich():
    rng = np.random.default_rng(909)
    draws = 1000
    for m in (2, 3):
        for eps in (1.0, 0.1):
            K = HenigCone(m, eps)
            G = K.generators()
            # dilated cone minus origin sits strictly inside the open orthant
            for _ in range(draws):
                alpha = rng.uniform(0.0, 1.0, m)
                alpha[rng.uniform(size=m) < 0.3] = 0.0
                if not alpha.any():
                    alpha[int(rng.integers(0, m))] = 1.0
                v = alpha @ G
                assert k_eps_contains(K, v)
                assert (v > 0.0).all()
            # open orthant sits inside the punctured closed orthant
            for _ in range(draws):
                v = rng.uniform(1e-9, 1.0, m)
                assert (v >= 0.0).all() and v.any()
            # punctured closed orthant sits strictly inside the polar
            for _ in range(draws):
                v = rng.uniform(0.0, 1.0, m)
                v[rng.uniform(size=m) < 0.3] = 0.0
                if not v.any():
                    v[int(rng.integers(0, m))] = 1.0
                assert k_eps_polar_contains(K, v)
                assert float((G @ v).min()) > 0.0  # strict on every generator
    _line(
        9,
        "sandwich chain holds on 1000 draws per inclusion for m in {2,3}, "
        "eps in {1, 0.1}, zero violations",
    )
