"""Dilating cones and polyhedral ordering cones.

The closed-form membership tests are cross-checked against feasibility
LPs on random draws; the sandwich and polar-duality properties run as
seeded sampling loops.
"""

import numpy as np
import pytest

from cone_oracles import (
    cone_polar_contains,
    in_minus_cone,
    in_minus_k_eps_polar,
    k_eps_contains,
    k_eps_polar_contains,
)
from henigcert.certificates import minus_cone_polyhedron
from henigcert.cones import (
    HenigCone,
    PolyhedralCone,
    in_minus_cone_batch,
    in_minus_k_eps_polar_batch,
)
from henigcert.errors import DimensionMismatch
from henigcert.linprog import LinearProgram, lp_solve


def test_henig_cone_validation():
    with pytest.raises(DimensionMismatch):
        HenigCone(1, 0.5)
    with pytest.raises(ValueError):
        HenigCone(2, 0.0)
    with pytest.raises(DimensionMismatch):
        k_eps_contains(HenigCone(2, 1.0), [1.0, 2.0, 3.0])


def test_k_eps_membership_basics():
    K = HenigCone(2, 1.0)
    assert k_eps_contains(K, [0.0, 0.0])
    assert k_eps_contains(K, [2.0, 1.0])  # the first generator e1 + e
    assert not k_eps_contains(K, [-1.0, 0.0])


def test_k_eps_membership_matches_lp():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        eps = float(rng.uniform(0.05, 2.0))
        K = HenigCone(m, eps)
        v = rng.normal(size=m)
        want = lp_solve(
            LinearProgram(c=np.zeros(m), A_eq=K.generators().T, b_eq=v, lb=np.zeros(m))
        ).is_optimal
        assert k_eps_contains(K, v) == want


def test_polar_membership_basics():
    K = HenigCone(2, 1.0)
    # <(1,-1),(1,2)> = -1, so (1,-1) is outside the polar
    assert not k_eps_polar_contains(K, [1.0, -1.0])
    assert k_eps_polar_contains(K, [1.0, 0.0])
    assert k_eps_polar_contains(K, [0.0, 0.0])


def test_minus_polar_basics():
    K = HenigCone(2, 1.0)
    assert in_minus_k_eps_polar(K, [-1.0, 0.0])
    # <(-0.1,1),(2,1)> = 0.8 and <(-0.1,1),(1,2)> = 1.9, both nonneg
    assert in_minus_k_eps_polar(K, [0.1, -1.0])
    assert not in_minus_k_eps_polar(K, [1.0, 1.0])


def test_minus_polar_batch_matches_scalar():
    rng = np.random.default_rng(8)
    K = HenigCone(3, 0.5)
    V = rng.normal(size=(200, 3))
    got = in_minus_k_eps_polar_batch(K, V)
    want = [in_minus_k_eps_polar(K, row) for row in V]
    assert got.tolist() == want


def test_sandwich_lower_inclusion():
    # nonzero members of K_eps have strictly positive components
    rng = np.random.default_rng(21)
    for m, eps in [(2, 1.0), (3, 0.1)]:
        K = HenigCone(m, eps)
        hits = 0
        for _ in range(300):
            v = rng.normal(size=m) * rng.uniform(0.1, 3.0)
            if k_eps_contains(K, v, tol=0.0) and np.abs(v).max() > 1e-9:
                assert v.min() > 0.0
                hits += 1
        # conic combinations guarantee members show up too
        for _ in range(300):
            alpha = rng.uniform(0.0, 1.0, size=m)
            if alpha.max() < 1e-3:
                continue
            v = alpha @ K.generators()
            assert v.min() > 0.0
            hits += 1
    assert hits > 200


def test_sandwich_upper_inclusion_with_interiority():
    # R^m_+ \ {0} sits in the interior of K_eps*, with an explicit radius
    rng = np.random.default_rng(22)
    for m, eps in [(2, 1.0), (3, 0.1)]:
        K = HenigCone(m, eps)
        for _ in range(300):
            v = rng.uniform(0.0, 2.0, size=m)
            if v.sum() < 1e-6:
                continue
            assert k_eps_polar_contains(K, v, tol=0.0)
            radius = eps * np.abs(v).sum() / (1.0 + eps * m)
            u = rng.normal(size=m)
            u *= 0.999 * radius / np.linalg.norm(u)
            assert k_eps_polar_contains(K, v + u, tol=0.0)


def test_polar_duality_spot_check():
    rng = np.random.default_rng(23)
    K = HenigCone(3, 0.25)
    G = K.generators()
    polar_members = []
    for _ in range(200):
        v = rng.normal(size=3)
        if k_eps_polar_contains(K, v, tol=0.0):
            polar_members.append(v)
    assert polar_members
    for _ in range(100):
        w = rng.uniform(0.0, 1.0, size=3) @ G  # a K_eps member
        for v in polar_members[:20]:
            assert v @ w >= -1e-9


def test_polar_grows_with_eps():
    # membership in K_eps* implies sum(v) >= 0, so v_i + eps2*sum(v)
    # >= v_i + eps1*sum(v) for eps2 >= eps1: the polar only grows
    rng = np.random.default_rng(24)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        v = rng.normal(size=m)
        e1, e2 = sorted(rng.uniform(0.01, 3.0, size=2))
        if k_eps_polar_contains(HenigCone(m, e1), v, tol=0.0):
            assert k_eps_polar_contains(HenigCone(m, e2), v, tol=0.0)
    # strictness example: (1,-0.5) is in K_1* but not K_0.25*
    assert k_eps_polar_contains(HenigCone(2, 1.0), [1.0, -0.5])
    assert not k_eps_polar_contains(HenigCone(2, 0.25), [1.0, -0.5])


def test_orthant_polar():
    Y = PolyhedralCone.nonneg_orthant(2)
    assert cone_polar_contains(Y, [0.0, 0.0])
    assert cone_polar_contains(Y, [1.0, 2.0])
    assert not cone_polar_contains(Y, [-1.0, 0.0])


def test_halfplane_polar_is_its_normal_ray():
    # {y : y1 + y2 >= 0} has the lineality line through (1,-1) and the
    # ray (1,1); its polar is the ray through (1,1)
    halfplane = PolyhedralCone(H=[[1.0, 1.0]])
    assert halfplane.G.tolist() == [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]
    assert cone_polar_contains(halfplane, [1.0, 1.0])
    assert cone_polar_contains(halfplane, [3.0, 3.0])
    assert not cone_polar_contains(halfplane, [1.0, 0.0])
    assert not cone_polar_contains(halfplane, [-1.0, -1.0])


def test_in_minus_cone_orthant():
    Y = PolyhedralCone.nonneg_orthant(2)
    assert in_minus_cone(Y, [0.0, -3.0])
    assert in_minus_cone(Y, [0.0, 0.0])
    assert not in_minus_cone(Y, [1e-3, 0.0])


def test_in_minus_cone_generator_form():
    # cone spanned by (1,1) and (1,0); -y must be a conic combination
    Y = PolyhedralCone(generators=[[1.0, 1.0], [1.0, 0.0]])
    assert in_minus_cone(Y, [-2.0, -1.0])   # -y = (2,1) = (1,1)+(1,0)
    assert not in_minus_cone(Y, [-1.0, -2.0])  # -y = (1,2) needs negative weight
    assert in_minus_cone(Y, [0.0, 0.0])


def test_in_minus_cone_batch():
    Y = PolyhedralCone.nonneg_orthant(3)
    rng = np.random.default_rng(25)
    V = rng.normal(size=(100, 3))
    got = in_minus_cone_batch(Y, V)
    want = [in_minus_cone(Y, row) for row in V]
    assert got.tolist() == want


def test_cone_validation():
    with pytest.raises(DimensionMismatch):
        PolyhedralCone()
    with pytest.raises(ValueError):
        PolyhedralCone(generators=np.zeros((2, 2)))
    for bad in ([[np.inf, 0.0]], [[np.nan, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            PolyhedralCone(generators=bad)
        with pytest.raises(ValueError, match="non-finite"):
            PolyhedralCone(H=bad)
    with pytest.raises(DimensionMismatch):
        in_minus_cone(PolyhedralCone.nonneg_orthant(2), [1.0, 2.0, 3.0])


def test_orthant_forms_derive_the_identity():
    for p in range(1, 6):
        assert np.array_equal(PolyhedralCone(generators=np.eye(p)).H, np.eye(p))
        assert np.array_equal(PolyhedralCone(H=np.eye(p)).G, np.eye(p))


def test_whole_space_cone_has_no_inequalities():
    Y = PolyhedralCone(generators=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert Y.H.shape == (0, 2)
    assert in_minus_cone(Y, [5.0, -3.0])
    assert in_minus_cone_batch(Y, np.array([[1.0, 2.0], [-4.0, 0.0]])).all()
    assert cone_polar_contains(Y, [0.0, 0.0])
    assert not cone_polar_contains(Y, [1e-3, 0.0])
    assert minus_cone_polyhedron(Y).contains([7.0, -7.0])


def test_zero_cone_has_no_generators():
    Y = PolyhedralCone(H=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    assert Y.G.shape == (0, 2)
    assert cone_polar_contains(Y, [-5.0, 3.0])  # the polar of {0} is the whole space
    assert in_minus_cone(Y, [0.0, 0.0])
    assert not in_minus_cone(Y, [-1e-3, 0.0])
    # the random inequality cones of the grid-layout tests: for p = 1, 2
    # many of them are {0}
    rng = np.random.default_rng(12)
    zero = 0
    for p in (1, 2, 4):
        for _ in range(20):
            Y = PolyhedralCone(H=rng.normal(size=(int(rng.integers(1, 6)), p)))
            if Y.G.shape[0] == 0:
                zero += 1
                assert cone_polar_contains(Y, rng.normal(size=p))
    assert zero > 0


def _random_rows(rng, kind, p):
    """Small integer rows: generic, nonnegative (a pointed hull), with an
    opposite pair (a hull with a line), or of rank below p."""
    k = int(rng.integers(1, 6))
    R = rng.integers(-2, 3, size=(k, p))
    if kind == "nonnegative":
        R = np.abs(R)
    elif kind == "pair":
        R = np.vstack([R, -R[:1]])
    elif kind == "low rank" and p > 1:
        r = int(rng.integers(1, p))
        R = rng.integers(-2, 3, size=(k, r)) @ rng.integers(-1, 2, size=(r, p))
    return R.astype(float) if np.abs(R).max() > 0 else np.eye(p)[:1]


def test_derived_forms_match_highs():
    # each row matrix R is read both ways: as generators, Y = cone(R) and
    # Y* = {z : R z >= 0}; as inequalities, Y = {y : R y >= 0} and
    # Y* = cone(R).  Membership in cone(R) is a HiGHS feasibility LP, so
    # the derived H (first reading) and the derived G (second reading)
    # are checked against an independent solver; conic combinations of R
    # join the random queries as known members of cone(R)
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(31)
    kinds = ("generic", "nonnegative", "pair", "low rank")
    seen = set()
    for trial in range(80):
        p = trial % 4 + 1
        R = _random_rows(rng, kinds[trial // 4 % 4], p)
        queries = rng.integers(-3, 4, size=(5, p)).astype(float)
        V = np.vstack([rng.integers(0, 3, size=(3, R.shape[0])) @ R, queries])
        in_hull = [True] * 3 + [
            linprog(np.zeros(R.shape[0]), A_eq=R.T, b_eq=v, method="highs").status == 0
            for v in queries
        ]
        in_dual = (V @ R.T >= 0).all(axis=1).tolist()
        by_generators, by_inequalities = PolyhedralCone(generators=R), PolyhedralCone(H=R)
        assert in_minus_cone_batch(by_generators, -V).tolist() == in_hull
        assert [cone_polar_contains(by_generators, v) for v in V] == in_dual
        assert in_minus_cone_batch(by_inequalities, -V).tolist() == in_dual
        assert [cone_polar_contains(by_inequalities, v) for v in V] == in_hull
        seen.update(zip(in_hull, in_dual))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
