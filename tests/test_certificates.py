"""Certificate generation, verification, and transfer tests.

The 1-D fixture (two |x| ratios over C = [-1, 1] with h(x) = x - 1) has
closed-form subdifferentials, so every expected value below is frozen
from hand arithmetic before the implementation ran.
"""

import dataclasses
import pathlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from convex_oracles import weighted_sum_polyhedral

from henigcert import certificates, cli, convex, serialization
from henigcert.certificates import (
    EpiCertificate,
    EpsCertificate,
    ExactCertificate,
    classical_kkt_check,
    converged,
    epi_from_eps,
    eps_to_exact,
    generate_eps_certificate,
    slater_check,
    transfer,
    verify_epi_certificate,
    verify_eps_certificate,
    verify_certificate,
    verify_exact_certificate,
)
from henigcert.cones import PolyhedralCone
from henigcert.convex import BlackBoxFn, Polyhedron, PolyhedralFn
from henigcert.errors import (
    ConjugateUnsupported,
    DimensionMismatch,
    HorizonTooShort,
    PointOutsideDomain,
    UnsupportedData,
)
from henigcert.fractional import (FractionalProblem, candidate, feasible_mask, henig_check,
                                  henig_check_bruteforce, parametric_problem)
from henigcert.grids import GridSpec
from henigcert.linprog import LpSession
from henigcert.tolerances import TOL_CONV


def toy_problem():
    # f1 = f2 = |x|, g1 = g2 = 1, C = [-1, 1], h(x) = x - 1, Y+ = R+
    fabs = PolyhedralFn([[1.0], [-1.0]], [0.0, 0.0])
    ng = PolyhedralFn([[0.0]], [-1.0])
    h = PolyhedralFn([[1.0]], [-1.0])
    C = Polyhedron.box([-1.0], [1.0])
    return FractionalProblem(
        1, [(fabs, ng), (fabs, ng)], [h], PolyhedralCone.nonneg_orthant(1), C
    )


def q_problem():
    f1 = PolyhedralFn([[2.0, 0.0]], [0.0])
    f2 = PolyhedralFn([[-2.0, 0.0]], [0.0])
    ng1 = PolyhedralFn([[0.0, -1.0]], [-3.0])
    ng2 = BlackBoxFn("neg_quad_plus_one", 2)
    C = Polyhedron(A=[[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], b=[0.0, 0.0, 1.0])
    return FractionalProblem(
        2,
        [(f1, ng1), (f2, ng2)],
        [BlackBoxFn("relu_sq", 2), BlackBoxFn("eucl_minus_last", 2)],
        PolyhedralCone.nonneg_orthant(2),
        C,
    )


def zero_eps_certificate(prob, N):
    m, n, p = prob.m, prob.n, prob.p
    return EpsCertificate(
        lam=np.ones(m),
        gamma=1.0 / np.arange(1, N + 1),
        xstar=np.zeros((m, N, n)),
        wstar=np.zeros((m, N, n)),
        cstar=np.zeros((N, n)),
        ystar=np.zeros((N, p)),
        vstar=np.zeros((N, p)),
        ustar=np.zeros((N, n)),
    )


# ---------------------------------------------------------------------------
# convergence rule


def test_converged_rule():
    assert converged([1.0, 0.5, 0.25, 1e-4], tol_conv=1e-3)
    # last value too large
    assert not converged([1.0, 0.5, 0.25, 0.1], tol_conv=1e-3)
    # tail increases beyond jitter
    assert not converged([1e-5, 1e-5, 1e-5, 1e-5, 2e-4, 9e-4], tol_conv=1e-3)
    # jitter-sized wiggle is tolerated
    assert converged([1e-4, 1e-4, 1e-4, 1e-4 + 1e-10], tol_conv=1e-3)


def test_convergence_reasons_name_the_failing_part():
    # gamma is the scalar trace of the subdifferential form, and the zero
    # certificate holds every membership at 0, so only the rule can fail
    prob = toy_problem()
    base = zero_eps_certificate(prob, 8)
    # the tail (last four entries) rises by 2e-4 into entry 6
    rising = replace(base, gamma=np.array([1.0, 0.5, 0.25, 1e-4, 1e-4, 3e-4, 2e-4, 2e-4]))
    rep = verify_eps_certificate(prob, [0.0], rising, tol_conv=1e-3)
    assert rep.reasons == ("residual trace 'scalar' rises by 0.0002 at n=6",)
    high = replace(base, gamma=np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, 0.1, 0.05]))
    rep = verify_eps_certificate(prob, [0.0], high, tol_conv=1e-3)
    assert rep.reasons == ("residual trace 'scalar' ends at 0.05 above tol_conv 0.001",)
    assert not converged(rising.gamma, 1e-3) and not converged(high.gamma, 1e-3)


def test_converged_horizon_too_short():
    with pytest.raises(HorizonTooShort):
        converged([0.0, 0.0, 0.0], tol_conv=1e-3)


# ---------------------------------------------------------------------------
# generation on the toy


def test_generate_toy_efficient_zero_residuals():
    prob = toy_problem()
    cert, trace = generate_eps_certificate(prob, [0.0], N=100)
    assert np.abs(trace).max() <= 1e-9
    rep = verify_eps_certificate(prob, [0.0], cert, tol_conv=1e-2)
    assert rep.verdict == "Accept"
    assert not rep.reasons
    # gamma itself is the scalar trace of this form
    assert np.allclose(rep.residuals["scalar"], cert.gamma)


def test_generate_toy_dominated_floor():
    # at xbar = 1 both eps-subdifferentials sit in [1 - gamma, 1] and the
    # boundary normal cone only adds nonnegative mass, so the optimum of
    # the residual LP is exactly 2(1 - gamma_n)
    prob = toy_problem()
    cert, trace = generate_eps_certificate(prob, [1.0], N=20)
    floor = 2.0 * (1.0 - cert.gamma)
    assert np.abs(trace - floor).max() <= 1e-6
    assert (trace[3:] >= 1.5).all()
    rep = verify_eps_certificate(prob, [1.0], cert, tol_conv=1e-2)
    assert rep.verdict == "Reject"
    assert any("dual" in r for r in rep.reasons)


def test_generate_deterministic():
    prob = toy_problem()
    c1, t1 = generate_eps_certificate(prob, [0.0], N=12)
    c2, t2 = generate_eps_certificate(prob, [0.0], N=12)
    assert np.array_equal(t1, t2)
    assert np.array_equal(c1.xstar, c2.xstar)
    assert np.array_equal(c1.vstar, c2.vstar)


def test_generate_infeasible_point():
    with pytest.raises(PointOutsideDomain):
        generate_eps_certificate(toy_problem(), [2.0], N=10)


def test_generate_needs_gamma_or_n():
    with pytest.raises(ValueError):
        generate_eps_certificate(toy_problem(), [0.0])


def test_generate_black_box_h_requires_pin():
    prob = q_problem()
    with pytest.raises(ConjugateUnsupported):
        generate_eps_certificate(prob, [0.0, 0.5], N=10)
    cert, trace = generate_eps_certificate(prob, [0.0, 0.5], N=10, pin_vstar=True)
    assert np.abs(trace).max() <= 1e-9
    assert np.abs(cert.vstar).max() == 0.0


# ---------------------------------------------------------------------------
# eps verifier


def test_verify_eps_toy_zero_certificate():
    # 0 is in every gamma-subdifferential here: both |.| pieces are active
    # at 0, C contains 0 in its interior, and <ystar, h(0)> = 0
    prob = toy_problem()
    cert = zero_eps_certificate(prob, 100)
    rep = verify_eps_certificate(prob, [0.0], cert, tol_conv=1e-2)
    assert rep.verdict == "Accept"
    assert all(v.all() for v in rep.memberships.values())
    assert np.abs(rep.residuals["dual"]).max() == 0.0
    assert np.abs(rep.residuals["y"]).max() == 0.0


def test_verify_eps_tampered_xstar():
    # 2 is not a gamma-subgradient of |.| at 0 for any gamma: the
    # conjugate is infinite there
    prob = toy_problem()
    cert = zero_eps_certificate(prob, 10)
    bad = EpsCertificate(
        lam=cert.lam, gamma=cert.gamma,
        xstar=np.full_like(cert.xstar, 0.0) + np.array([2.0, 0.0])[:, None, None],
        wstar=cert.wstar, cstar=cert.cstar, ystar=cert.ystar,
        vstar=cert.vstar, ustar=cert.ustar,
    )
    rep = verify_eps_certificate(prob, [0.0], bad, tol_conv=10.0)
    assert rep.verdict == "Reject"
    assert any("subdiff_f[0]" in r for r in rep.reasons)


def test_verify_eps_nonzero_vstar_schedule():
    # hand-built certificate exercising the composite block: vstar = -gamma_n,
    # so (-vstar o h) = gamma_n (x - 1) with subdifferential {gamma_n}
    prob = toy_problem()
    N = 30
    gam = 1.0 / np.arange(1, N + 1)
    cert = EpsCertificate(
        lam=np.ones(2),
        gamma=gam,
        xstar=np.stack([-gam[:, None], np.zeros((N, 1))]),
        wstar=np.zeros((2, N, 1)),
        cstar=np.zeros((N, 1)),
        ystar=np.zeros((N, 1)),
        vstar=-gam[:, None],
        ustar=gam[:, None],
    )
    rep = verify_eps_certificate(prob, [0.0], cert, tol_conv=0.05)
    assert rep.verdict == "Accept"
    assert np.allclose(rep.residuals["y"], gam)
    assert np.abs(rep.residuals["dual"]).max() <= 1e-12


def test_verify_eps_horizon_too_short():
    prob = toy_problem()
    with pytest.raises(HorizonTooShort):
        verify_eps_certificate(prob, [0.0], zero_eps_certificate(prob, 3))


def test_memberships_against_defining_inequality():
    # grid oracle: x* in d_gamma f(xbar) iff f(x) >= f(xbar) + <x*, x-xbar> - gamma
    # for all x; checked on a 1-D lattice for every generated entry
    prob = toy_problem()
    cert, _ = generate_eps_certificate(prob, [0.0], N=10)
    xs = np.linspace(-2.0, 2.0, 801)
    fvals = np.abs(xs)
    for k in range(10):
        for i in range(2):
            star = cert.xstar[i, k, 0]
            assert (fvals >= 0.0 + star * xs - cert.gamma[k] - 1e-12).all()


# ---------------------------------------------------------------------------
# epi form


def test_epi_from_eps_toy_heights():
    # heights: a = b = d = s = gamma_n, t pinned to 0 by the vanishing
    # vstar convention; scalar residual = 6 gamma_n for the two-ratio count
    prob = toy_problem()
    cert = zero_eps_certificate(prob, 1000)
    epi = epi_from_eps(prob, [0.0], cert)
    gam = cert.gamma
    assert np.allclose(epi.a, gam[None, :], atol=0.0)
    assert np.allclose(epi.b, gam[None, :], atol=0.0)
    assert np.array_equal(epi.d, gam)
    assert np.array_equal(epi.s, gam)
    assert np.abs(epi.t).max() == 0.0
    rep = verify_epi_certificate(prob, [0.0], epi, tol_conv=1e-2)
    assert rep.verdict == "Accept"
    assert np.allclose(rep.residuals["scalar"], 6.0 * gam)


def test_epi_heights_zero_gamma_are_tight():
    # gamma = 0 reduces the mapping to Young-Fenchel equality heights
    prob = toy_problem()
    N = 5
    cert = EpsCertificate(
        lam=np.ones(2), gamma=np.zeros(N),
        xstar=np.zeros((2, N, 1)), wstar=np.zeros((2, N, 1)),
        cstar=np.zeros((N, 1)), ystar=np.zeros((N, 1)),
        vstar=np.zeros((N, 1)), ustar=np.zeros((N, 1)),
    )
    epi = epi_from_eps(prob, [0.0], cert)
    for arr in (epi.a, epi.b, epi.d, epi.s, epi.t):
        assert np.abs(arr).max() == 0.0


def test_verify_epi_reference_table_q():
    # the worked example's table: every membership tight or slack by
    # construction, dual residual (0, 1/n), scalar residual 6/n
    prob = q_problem()
    N = 100
    inv = 1.0 / np.arange(1, N + 1)
    z2 = np.zeros((N, 2))
    cert = EpiCertificate(
        lam=np.ones(2),
        xstar=np.stack([np.tile([2.0, 0.0], (N, 1)), np.tile([-2.0, 0.0], (N, 1))]),
        a=np.stack([inv, inv]),
        wstar=np.zeros((2, N, 2)),
        b=np.stack([inv, inv]),
        cstar=np.column_stack([np.zeros(N), inv]),
        d=inv.copy(),
        ystar=z2.copy(),
        s=inv.copy(),
        vstar=z2.copy(),
        ustar=z2.copy(),
        t=np.zeros(N),
    )
    rep = verify_epi_certificate(prob, [0.0, 0.5], cert, tol_conv=1e-1)
    assert rep.verdict == "Accept"
    assert abs(rep.residuals["dual"][-1] - 1.0 / N) <= 1e-15
    assert np.abs(rep.residuals["y"]).max() == 0.0
    assert abs(rep.residuals["scalar"][-1] - 6.0 / N) <= 1e-12

    # unreachable support value: sigma_C((1,0)) = +infinity on R+ x [0,1]
    tampered = EpiCertificate(
        lam=cert.lam, xstar=cert.xstar, a=cert.a, wstar=cert.wstar, b=cert.b,
        cstar=np.tile([1.0, 0.0], (N, 1)), d=cert.d, ystar=cert.ystar,
        s=cert.s, vstar=cert.vstar, ustar=cert.ustar, t=cert.t,
    )
    rep2 = verify_epi_certificate(prob, [0.0, 0.5], tampered, tol_conv=1e-1)
    assert rep2.verdict == "Reject"
    assert any("epi_C" in r for r in rep2.reasons)

    # negative epigraph height under a zero conjugate value
    low = EpiCertificate(
        lam=cert.lam, xstar=cert.xstar,
        a=np.stack([np.full(N, -1.0), inv]),
        wstar=cert.wstar, b=cert.b, cstar=cert.cstar, d=cert.d,
        ystar=cert.ystar, s=cert.s, vstar=cert.vstar, ustar=cert.ustar, t=cert.t,
    )
    rep3 = verify_epi_certificate(prob, [0.0, 0.5], low, tol_conv=1e-1)
    assert rep3.verdict == "Reject"
    assert any("epi_f[0]" in r for r in rep3.reasons)


@pytest.mark.parametrize("consumer", [epi_from_eps, eps_to_exact, verify_eps_certificate])
def test_certificate_shape_checked_against_problem(consumer):
    # a 2-D table (from the worked example's shapes) against the 1-D toy
    cert = zero_eps_certificate(q_problem(), 10)
    with pytest.raises(DimensionMismatch):
        consumer(toy_problem(), [0.0], cert)


def test_gamma_shape_is_checked():
    # an (N, 1) gamma would broadcast the verifier's gamma - gap to (N, N)
    cert = zero_eps_certificate(toy_problem(), 4)
    with pytest.raises(DimensionMismatch, match="gamma"):
        EpsCertificate(**{**vars(cert), "gamma": np.ones((4, 1))})


def test_transfer_and_verify_look_up_the_form_functions_per_call(monkeypatch):
    # a rebound module function (a tracer's wrapper) is the one that runs
    prob, xbar = toy_problem(), np.zeros(1)
    cert = zero_eps_certificate(prob, 4)
    assert certificates.transfer(prob, xbar, cert, "4.3") is cert
    calls = []
    for name in ("epi_from_eps", "eps_to_exact", "verify_epi_certificate",
                 "verify_exact_certificate", "verify_eps_certificate"):
        fn = getattr(certificates, name)
        monkeypatch.setattr(certificates, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    for tag in ("4.2", "4.3", "4.4"):
        moved = certificates.transfer(prob, xbar, cert, tag)
        assert type(moved) is certificates.FORMS[tag]
        assert certificates.verify_certificate(prob, xbar, moved).theorem == tag
    assert calls == ["epi_from_eps", "verify_epi_certificate", "verify_eps_certificate",
                     "eps_to_exact", "verify_exact_certificate"]


# ---------------------------------------------------------------------------
# exact form


def test_eps_to_exact_toy_degenerate():
    # the zero certificate's memberships already hold exactly, so every
    # regularization short-circuits at the base point
    prob = toy_problem()
    cert = zero_eps_certificate(prob, 50)
    ex = eps_to_exact(prob, [0.0], cert)
    assert np.abs(ex.x).max() == 0.0
    assert np.abs(ex.u).max() == 0.0
    assert np.abs(ex.y - (-1.0)).max() == 0.0
    rep = verify_exact_certificate(prob, [0.0], ex, tol_conv=1e-2)
    assert rep.verdict == "Accept"
    for name, rec in ex.br_bounds.items():
        root = np.sqrt(cert.gamma)
        assert (rec[:, 0] <= root).all(), name
        assert (rec[:, 1] <= root).all(), name
        assert (rec[:, 2] <= 2.0 * cert.gamma).all(), name


def test_verify_exact_nearby_subgradients():
    # x[0,n] = 1/n with xstar = 1 is an exact pair of |.| away from the
    # kink; the value gap f(1/n) - <1, 1/n - 0> vanishes identically
    prob = toy_problem()
    N = 100
    ex = ExactCertificate(
        lam=np.ones(2),
        x=np.stack([(1.0 / np.arange(1, N + 1))[:, None], np.zeros((N, 1))]),
        xstar=np.stack([np.ones((N, 1)), -np.ones((N, 1))]),
        w=np.zeros((2, N, 1)),
        wstar=np.zeros((2, N, 1)),
        c=np.zeros((N, 1)),
        cstar=np.zeros((N, 1)),
        u=np.zeros((N, 1)),
        ustar=np.zeros((N, 1)),
        y=np.full((N, 1), -1.0),
        ystar=np.zeros((N, 1)),
        vstar=np.zeros((N, 1)),
    )
    rep = verify_exact_certificate(prob, [0.0], ex, tol_conv=1e-2)
    assert rep.verdict == "Accept"
    assert np.abs(rep.residuals["gap_f[0]"]).max() <= 1e-15
    assert np.abs(rep.residuals["dual"]).max() == 0.0


def test_verify_exact_stuck_point_rejected():
    # constant x[0,n] = 1 never converges to the candidate
    prob = toy_problem()
    N = 10
    ex = ExactCertificate(
        lam=np.ones(2),
        x=np.stack([np.ones((N, 1)), -np.ones((N, 1))]),
        xstar=np.stack([np.ones((N, 1)), -np.ones((N, 1))]),
        w=np.zeros((2, N, 1)),
        wstar=np.zeros((2, N, 1)),
        c=np.zeros((N, 1)),
        cstar=np.zeros((N, 1)),
        u=np.zeros((N, 1)),
        ustar=np.zeros((N, 1)),
        y=np.full((N, 1), -1.0),
        ystar=np.zeros((N, 1)),
        vstar=np.zeros((N, 1)),
    )
    rep = verify_exact_certificate(prob, [0.0], ex, tol_conv=1e-2)
    assert rep.verdict == "Reject"
    assert any("point_x[0]" in r for r in rep.reasons)
    # point traces are held to tol_points = sqrt(tol_conv)
    assert "residual trace 'point_x[0]' ends at 1 above tol_points 0.1" in rep.reasons


def test_verify_exact_composite_points_all_off_domain():
    # h restricted to [-1, 1]: with vstar = -1 the composite is h itself,
    # and every nearby point u = 5 lies off its domain, so no conjugate is
    # asked for and each entry fails with an infinite gap
    base = toy_problem()
    h = PolyhedralFn([[1.0]], [-1.0], domain=Polyhedron.box([-1.0], [1.0]))
    prob = FractionalProblem(1, base.objectives, [h], base.cone, base.C)
    N = 6
    ex = ExactCertificate(
        lam=np.ones(2), x=np.zeros((2, N, 1)), xstar=np.zeros((2, N, 1)),
        w=np.zeros((2, N, 1)), wstar=np.zeros((2, N, 1)), c=np.zeros((N, 1)),
        cstar=np.zeros((N, 1)), u=np.full((N, 1), 5.0), ustar=np.zeros((N, 1)),
        y=np.full((N, 1), -1.0), ystar=np.zeros((N, 1)), vstar=np.full((N, 1), -1.0),
    )
    rep = verify_exact_certificate(prob, [0.0], ex)
    assert (rep.slacks["subdiff_comp"] == -np.inf).all()
    assert (rep.residuals["gap_comp"] == np.inf).all()
    assert rep.verdict == "Reject"


def test_verify_exact_bad_functional_rejected():
    prob = toy_problem()
    cert = zero_eps_certificate(prob, 10)
    ex = eps_to_exact(prob, [0.0], cert)
    bad = ExactCertificate(
        lam=ex.lam, x=ex.x, xstar=ex.xstar, w=ex.w,
        wstar=ex.wstar + 5.0, c=ex.c, cstar=ex.cstar,
        u=ex.u, ustar=ex.ustar, y=ex.y, ystar=ex.ystar, vstar=ex.vstar,
    )
    rep = verify_exact_certificate(prob, [0.0], bad, tol_conv=1e-2)
    assert rep.verdict == "Reject"
    assert any("subdiff_w" in r for r in rep.reasons)


def test_exact_transfer_nonzero_vstar():
    # composite block regularization with a genuinely nonzero weight
    prob = toy_problem()
    N = 20
    gam = 1.0 / np.arange(1, N + 1)
    cert = EpsCertificate(
        lam=np.ones(2), gamma=gam,
        xstar=np.stack([-gam[:, None], np.zeros((N, 1))]),
        wstar=np.zeros((2, N, 1)),
        cstar=np.zeros((N, 1)),
        ystar=np.zeros((N, 1)),
        vstar=-gam[:, None],
        ustar=gam[:, None],
    )
    ex = eps_to_exact(prob, [0.0], cert)
    assert np.array_equal(ex.vstar, cert.vstar)
    rep = verify_exact_certificate(prob, [0.0], ex, tol_conv=0.06, tol_points=0.3)
    assert all(v.all() for v in rep.memberships.values()), rep.reasons


# ---------------------------------------------------------------------------
# pipeline soundness on random instances


def rand_instance(rng):
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


def test_pipeline_soundness_random():
    rng = np.random.default_rng(7)
    grid = GridSpec(lows=[-2.0], highs=[2.0], counts=[401])
    accepted = 0
    for _ in range(8):
        prob = rand_instance(rng)
        # scan for a brute-force efficient candidate on the lattice
        pts = grid.points()
        pts = pts[feasible_mask(prob, pts)]
        cand = None
        for x in pts[:: 40]:
            v = henig_check_bruteforce(prob, x, grid)
            if v.kind == "properly_efficient":
                cand = x
                break
        if cand is None:
            continue
        cert, trace = generate_eps_certificate(prob, cand, N=16)
        # generated entries always satisfy their memberships
        rep = verify_eps_certificate(prob, cand, cert, tol_conv=0.1)
        assert all(v.all() for v in rep.memberships.values()), rep.reasons
        epi = epi_from_eps(prob, cand, cert)
        repE = verify_epi_certificate(prob, cand, epi, tol_conv=0.1)
        assert all(v.all() for v in repE.memberships.values()), repE.reasons
        ex = eps_to_exact(prob, cand, cert)
        repX = verify_exact_certificate(prob, cand, ex, tol_conv=0.1)
        assert all(v.all() for v in repX.memberships.values()), repX.reasons
        # the soundness chain: vanishing generator residuals imply Accept
        if np.abs(trace).max() <= 1e-9:
            assert rep.verdict == "Accept"
            accepted += 1
    assert accepted >= 2


def test_default_tol_conv_accepts_a_default_horizon_table():
    # gamma_N = 1/N ends at 1e-2 at N = 100; the library's default tol_conv
    # is the CLI's, so the verifiers accept what certify accepts
    prob, xbar = cli._toy_problem(), np.zeros(1)
    cert = generate_eps_certificate(prob, xbar, N=100)[0]
    for rep in (verify_eps_certificate(prob, xbar, cert), verify_certificate(prob, xbar, cert)):
        assert rep.verdict == "Accept", rep.reasons
        assert rep.tolerances["tol_conv"] == TOL_CONV


@pytest.mark.parametrize("consumer", [
    verify_eps_certificate, verify_certificate, epi_from_eps, eps_to_exact,
    lambda prob, x, cert: verify_epi_certificate(prob, x, epi_from_eps(prob, [0.0], cert)),
    lambda prob, x, cert: verify_exact_certificate(prob, x, eps_to_exact(prob, [0.0], cert)),
], ids=["verify_eps", "verify_certificate", "epi_from_eps", "eps_to_exact", "verify_epi",
        "verify_exact"])
def test_infeasible_candidate_is_refused(consumer):
    # f1 = f2 = 0, g = 1, h = -1, C = [-1, 1]: a table made at 0 fits x = 5
    # in every membership but C's, whose indicator the sum rule takes as 0
    zero, one = PolyhedralFn([[0.0]], [0.0]), PolyhedralFn([[0.0]], [-1.0])
    prob = FractionalProblem(1, [(zero, one), (zero, one)], [one],
                             PolyhedralCone.nonneg_orthant(1), Polyhedron.box([-1.0], [1.0]))
    cert = generate_eps_certificate(prob, [0.0], N=10)[0]
    with pytest.raises(PointOutsideDomain, match="not feasible"):
        consumer(prob, [5.0], cert)


def _bits(obj):
    """obj with every float and array replaced by its bytes, dataclasses and
    containers taken apart, for bitwise comparison."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return np.float64(obj).tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, [_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        return [(k, _bits(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _every_entry_point(prob, xbar, grid):
    """The results of every function that takes a candidate point, at xbar."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = parametric_problem(prob, xbar)
    eps, trace = generate_eps_certificate(prob, xbar, N=12)
    epi, exact = epi_from_eps(prob, xbar, eps), eps_to_exact(prob, xbar, eps)
    return [
        henig_check(prob, xbar, grid), param.xbar, param.nu, [s.c for _, s in param.phi],
        eps, trace, epi, exact, transfer(prob, xbar, eps, "4.2"), transfer(prob, xbar, eps, "4.4"),
        verify_eps_certificate(prob, xbar, eps), verify_epi_certificate(prob, xbar, epi),
        verify_exact_certificate(prob, xbar, exact),
        *(verify_certificate(prob, xbar, cert) for cert in (eps, epi, exact)),
        classical_kkt_check(prob, xbar),
    ]


@pytest.mark.parametrize("case", ["toy", "orthant"])
def test_a_candidate_and_its_point_give_identical_results(case):
    # every entry point takes a Candidate of the problem as it is, and a
    # point through candidate(): verdicts, tables and reports agree bit for bit
    if case == "toy":
        prob, x, grid = toy_problem(), np.zeros(1), GridSpec.parse("21:[-1,1]")
    else:
        data = pathlib.Path(__file__).parent / "data" / "orthant_nonneg.json"
        prob = serialization.problem_from_json(serialization.load_json(data))
        x = np.array([0.9341692789968652, -0.08174416579588993])
        grid = GridSpec.parse("41x41:[-1,1]x[-1,1]")
    cand = candidate(prob, x)
    assert candidate(prob, cand) is cand
    assert _bits(_every_entry_point(prob, cand, grid)) == _bits(_every_entry_point(prob, x, grid))


def test_a_candidate_of_another_problem_is_not_reused():
    # the toy at 0.5 has nu = 0.5; with its numerators doubled, nu = 1
    prob, x, grid = toy_problem(), np.array([0.5]), GridSpec.parse("21:[-1,1]")
    double = PolyhedralFn([[2.0], [-2.0]], [0.0, 0.0])
    other = FractionalProblem(1, [(double, ng) for _, ng in prob.objectives], prob.hmap,
                              prob.cone, prob.C)
    cand = candidate(prob, x)
    moved = candidate(other, cand)
    assert moved.prob is other and cand.nu.tolist() == [0.5, 0.5]
    assert _bits(moved) == _bits(candidate(other, x)) and moved.nu.tolist() == [1.0, 1.0]
    assert _bits(_every_entry_point(other, cand, grid)) == _bits(_every_entry_point(other, x, grid))


def test_tolerance_monotonicity():
    prob = toy_problem()
    cert = zero_eps_certificate(prob, 100)
    small = verify_eps_certificate(prob, [0.0], cert, tol_conv=1e-3)
    mid = verify_eps_certificate(prob, [0.0], cert, tol_conv=1e-2)
    large = verify_eps_certificate(prob, [0.0], cert, tol_conv=1e-1)
    assert small.verdict == "Reject"  # gamma[99] = 1e-2 > 1e-3
    assert mid.verdict == "Accept"
    assert large.verdict == "Accept"


def test_report_carries_heuristic_note():
    prob = toy_problem()
    rep = verify_eps_certificate(prob, [0.0], zero_eps_certificate(prob, 10), tol_conv=1.0)
    assert "heuristic" in rep.note


# ---------------------------------------------------------------------------
# classical multiplier check


def test_kkt_toy_holds_at_zero():
    res = classical_kkt_check(toy_problem(), [0.0])
    assert res.holds
    assert np.abs(res.ystar).max() <= 1e-12


def test_kkt_toy_fails_at_one():
    res = classical_kkt_check(toy_problem(), [1.0])
    assert not res.holds
    assert "infeasible" in res.reason


def test_kkt_black_box_unsupported():
    res = classical_kkt_check(q_problem(), [0.0, 0.5])
    assert not res.holds
    assert "unsupported data" in res.reason


def test_kkt_infeasible_point_raises():
    with pytest.raises(PointOutsideDomain):
        classical_kkt_check(toy_problem(), [2.0])


# ---------------------------------------------------------------------------
# Slater-type qualification


def test_slater_toy_true():
    grid = GridSpec(lows=[-1.0], highs=[1.0], counts=[21])
    assert slater_check(toy_problem(), grid) is True


def test_slater_q_false():
    # h1 = (max{0,x})^2 >= 0 everywhere on C, so no strictly interior image
    grid = GridSpec(lows=[0.0, 0.0], highs=[10.0, 1.0], counts=[51, 51])
    assert slater_check(q_problem(), grid) is False


# ---------------------------------------------------------------------------
# differential check of the three verifiers beyond one dimension


def blocks_problem(rng, n=2):
    # the benchmark recipe, by default at small size: n=2, m=3, p=2, six
    # pieces per function, C the box [-1, 1]^n, Y+ the nonnegative orthant
    m, p, pieces = 3, 2, 6
    objectives = [
        (
            PolyhedralFn(rng.normal(size=(pieces, n)), np.abs(rng.normal(size=pieces)) + 1.0),
            PolyhedralFn(
                0.1 * rng.normal(size=(pieces, n)), -5.0 - np.abs(rng.normal(size=pieces))
            ),
        )
        for _ in range(m)
    ]
    hmap = [
        PolyhedralFn(rng.normal(size=(pieces, n)), -1.0 - np.abs(rng.normal(size=pieces)))
        for _ in range(p)
    ]
    return FractionalProblem(
        n, objectives, hmap, PolyhedralCone.nonneg_orthant(p),
        Polyhedron.box([-1.0] * n, [1.0] * n),
    )


def test_verifier_slacks_match_independent_recomputation():
    # the second input adds an h component that every vstar row leaves at
    # zero weight, with a domain that some nearby points u leave: it drops
    # out of the composite with its domain, as in weighted_sum_polyhedral
    for zero_weight_h in (False, True):
        _verifier_slacks_case(zero_weight_h)


def _verifier_slacks_case(zero_weight_h):
    from henigcert.convex import (
        ScaledFn,
        as_polyhedral,
        conjugate,
        support_function,
    )
    from henigcert.fractional import feasible, nu_values

    rng = np.random.default_rng(20230220)
    prob = blocks_problem(rng)
    if zero_weight_h:
        extra = PolyhedralFn(rng.normal(size=(6, 2)), -1.0 - np.abs(rng.normal(size=6)),
                             Polyhedron(A=[[1.0, 0.0]], b=[0.4]))
        prob = FractionalProblem(2, prob.objectives, [*prob.hmap, extra],
                                 PolyhedralCone.nonneg_orthant(3), prob.C)
    m, n, p, N = prob.m, prob.n, prob.p, 6
    xbar = np.array([0.25, -0.15])
    assert feasible(prob, xbar)
    hbar = prob.h_values(xbar)
    lam = rng.uniform(0.5, 2.0, m)
    nu = nu_values(prob, xbar)
    f_fns = [ScaledFn(lam[i], f) for i, (f, _) in enumerate(prob.objectives)]
    w_fns = [ScaledFn(lam[i] * nu[i], ng) for i, (_, ng) in enumerate(prob.objectives)]
    G = prob.cone.G
    gam = 1.0 / np.arange(1, N + 1)

    def functional(fn, at, k):
        # entry k cycles through an exact subgradient at ``at`` (the
        # membership holds), a random mix of the pieces (finite conjugate,
        # either sign of slack) and a random vector (infinite conjugate)
        A, b = as_polyhedral(fn).A, as_polyhedral(fn).b
        if k % 3 == 0:
            return A[int(np.argmax(A @ at + b))]
        if k % 3 == 1:
            return rng.dirichlet(np.ones(A.shape[0])) @ A
        return rng.normal(scale=3.0, size=A.shape[1])

    vstar = -np.abs(rng.normal(size=(N, p)))
    vstar[::3] = 0.0  # vanishing rows take the zero-scaled composite
    vstar[1, 0] = 0.0
    if zero_weight_h:
        vstar[:, 2] = 0.0

    def comp_fn(v):
        if np.abs(v).max() <= 1e-12:
            return ScaledFn(0.0, prob.hmap[0])
        return weighted_sum_polyhedral(np.maximum(-v, 0.0), prob.hmap)

    comps = [comp_fn(vstar[k]) for k in range(N)]
    x = xbar + rng.uniform(-0.6, 0.6, (m, N, n))
    w = xbar + rng.uniform(-0.6, 0.6, (m, N, n))
    c = xbar + rng.uniform(-1.2, 1.2, (N, n))  # some points leave C
    u = xbar + rng.uniform(-0.6, 0.6, (N, n))
    if zero_weight_h:
        assert not extra.domain.contains_batch(u).all()
    y = -np.abs(rng.normal(size=(N, p)))
    y[[2, 5], 0] = 0.5  # two points leave -Y+
    xstar = np.array([[functional(f_fns[i], x[i, k], k) for k in range(N)] for i in range(m)])
    wstar = np.array([[functional(w_fns[i], w[i, k], k + 1) for k in range(N)] for i in range(m)])
    ustar = np.array([functional(comps[k], u[k], k) for k in range(N)])
    cstar = rng.normal(scale=0.3, size=(N, n))
    ystar = rng.normal(size=(N, p))
    ystar[::2] = np.abs(ystar[::2])

    def supp(s):
        return support_function(prob.C, s)

    def polar(V):
        return (V @ G.T).min(axis=1)

    def eps_gap(fn, s, at):
        cv = conjugate(fn, s)
        return cv + fn.eval(at) - s @ at if np.isfinite(cv) else np.inf

    def exact_slack(fn, s, at):
        if not np.isfinite(fn.eval(at)):
            return -np.inf
        return -eps_gap(fn, s, at)

    # ----- epigraph form
    def heights(shape):
        return rng.normal(scale=2.0, size=shape)

    epi = EpiCertificate(
        lam=lam, xstar=xstar, a=heights((m, N)), wstar=wstar, b=heights((m, N)),
        cstar=cstar, d=heights(N), ystar=ystar, s=heights(N), vstar=vstar,
        ustar=ustar, t=heights(N),
    )
    want = {}
    for i in range(m):
        want[f"epi_f[{i}]"] = [epi.a[i, k] - conjugate(f_fns[i], xstar[i, k]) for k in range(N)]
        want[f"epi_w[{i}]"] = [epi.b[i, k] - conjugate(w_fns[i], wstar[i, k]) for k in range(N)]
    want["epi_C"] = [epi.d[k] - supp(cstar[k]) for k in range(N)]
    want["ystar_polar"] = polar(ystar)
    want["s_nonneg"] = epi.s
    want["vstar_polar"] = polar(-vstar)
    want["epi_comp"] = [epi.t[k] - conjugate(comps[k], ustar[k]) for k in range(N)]
    rep_epi = verify_epi_certificate(prob, xbar, epi)

    # ----- eps-subdifferential form
    eps = EpsCertificate(
        lam=lam, gamma=gam, xstar=xstar, wstar=wstar, cstar=cstar,
        ystar=ystar, vstar=vstar, ustar=ustar,
    )
    want_eps = {}
    for i in range(m):
        want_eps[f"subdiff_f[{i}]"] = [
            gam[k] - eps_gap(f_fns[i], xstar[i, k], xbar) for k in range(N)
        ]
        want_eps[f"subdiff_w[{i}]"] = [
            gam[k] - eps_gap(w_fns[i], wstar[i, k], xbar) for k in range(N)
        ]
    want_eps["normal_C"] = [gam[k] - (supp(cstar[k]) - cstar[k] @ xbar) for k in range(N)]
    want_eps["normal_Y"] = np.minimum(polar(ystar), gam + ystar @ hbar)
    want_eps["vstar_polar"] = polar(-vstar)
    want_eps["subdiff_comp"] = [gam[k] - eps_gap(comps[k], ustar[k], xbar) for k in range(N)]
    rep_eps = verify_eps_certificate(prob, xbar, eps)

    # ----- exact form
    exact = ExactCertificate(
        lam=lam, x=x, xstar=xstar, w=w, wstar=wstar, c=c, cstar=cstar,
        u=u, ustar=ustar, y=y, ystar=ystar, vstar=vstar,
    )
    in_c = (c @ prob.C.A.T <= prob.C.b + 1e-7).all(axis=1)
    in_my = (y <= 1e-7).all(axis=1)
    want_ex = {}
    for i in range(m):
        want_ex[f"subdiff_f[{i}]"] = [
            exact_slack(f_fns[i], xstar[i, k], x[i, k]) for k in range(N)
        ]
        want_ex[f"subdiff_w[{i}]"] = [
            exact_slack(w_fns[i], wstar[i, k], w[i, k]) for k in range(N)
        ]
    want_ex["normal_C"] = [
        -(supp(cstar[k]) - cstar[k] @ c[k]) if in_c[k] else -np.inf for k in range(N)
    ]
    want_ex["normal_Y"] = np.where(
        in_my, np.minimum(polar(ystar), (ystar * y).sum(axis=1)), -np.inf
    )
    want_ex["vstar_polar"] = polar(-vstar)
    want_ex["subdiff_comp"] = [exact_slack(comps[k], ustar[k], u[k]) for k in range(N)]
    rep_ex = verify_exact_certificate(prob, xbar, exact)
    gaps = {}
    for i in range(m):
        for name, fn, pts, st in ((f"gap_f[{i}]", f_fns[i], x[i], xstar[i]),
                                  (f"gap_w[{i}]", w_fns[i], w[i], wstar[i])):
            gaps[name] = [
                abs(fn.eval(pts[k]) - st[k] @ (pts[k] - xbar) - fn.eval(xbar)) for k in range(N)
            ]
    gaps["gap_C"] = np.abs(((c - xbar) * cstar).sum(axis=1))
    gaps["gap_Y"] = np.abs(((y - hbar) * ystar).sum(axis=1))
    gaps["gap_comp"] = [
        abs(comps[k].eval(u[k]) - ustar[k] @ (u[k] - xbar) - comps[k].eval(xbar)) for k in range(N)
    ]
    for name, gap in gaps.items():
        np.testing.assert_allclose(rep_ex.residuals[name], gap, rtol=0, atol=1e-12, err_msg=name)

    for rep, expected in ((rep_epi, want), (rep_eps, want_eps), (rep_ex, want_ex)):
        # documented order: per objective f then w, then C, Y, the polar
        # check on vstar, and the composite last
        assert list(rep.memberships) == list(expected), rep.theorem
        assert list(rep.slacks) == list(expected), rep.theorem
        for name, sl in expected.items():
            np.testing.assert_allclose(rep.slacks[name], np.asarray(sl, float), rtol=0, atol=1e-12,
                                       err_msg=f"{rep.theorem} {name}")
            assert np.array_equal(rep.memberships[name], rep.slacks[name] >= -1e-7)
        held = np.concatenate([v for v in rep.memberships.values()])
        assert held.any() and not held.all(), rep.theorem
        assert rep.verdict == "Reject"
    for rep in (rep_eps, rep_ex):
        # finite failing slacks, not only infinite ones
        sl = np.concatenate([v for v in rep.slacks.values()])
        assert (np.isfinite(sl) & (sl < -1e-7)).any(), rep.theorem
    # the composite block ran with a nonzero weight
    assert any(not isinstance(fn, ScaledFn) for fn in comps)


def three_nine_piece_h():
    # n=2, two objectives, C = [-1, 1]^2 and three 9-piece h components,
    # whose weighted sum written out has 9^3 = 729 pieces; returns the
    # problem and the generator, which the tests draw from next
    rng = np.random.default_rng(729)
    n, p = 2, 3
    hmap = [PolyhedralFn(rng.normal(size=(9, n)), -1.0 - np.abs(rng.normal(size=9)))
            for _ in range(p)]
    objectives = [(PolyhedralFn(rng.normal(size=(6, n)), np.abs(rng.normal(size=6)) + 1.0),
                   PolyhedralFn(0.1 * rng.normal(size=(6, n)), -5.0 - np.abs(rng.normal(size=6))))
                  for _ in range(2)]
    prob = FractionalProblem(n, objectives, hmap, PolyhedralCone.nonneg_orthant(p),
                             Polyhedron.box([-1.0] * n, [1.0] * n))
    return prob, rng


def test_composite_conjugate_has_no_cross_product_cap():
    # vstar spreads over three 9-piece h components; the separable
    # conjugate LP has 27 piece rows, and the 4.3 and 4.2 composite slacks
    # match a HiGHS solve of it
    linprog = pytest.importorskip("scipy.optimize").linprog
    prob, rng = three_nine_piece_h()
    hmap, n, N, p = prob.hmap, prob.n, 6, prob.p
    xbar = np.array([0.1, -0.2])
    vstar = -rng.uniform(0.1, 1.0, (N, p))
    assert weighted_sum_polyhedral(-vstar[0], hmap).npieces == 9**3
    # weighted mixes of the pieces (finite conjugate), every third entry a
    # random vector (infinite)
    ustar = np.array([sum(w * (rng.dirichlet(np.ones(9)) @ h.A) for w, h in zip(-v, hmap))
                      if k % 3 else 3.0 * rng.normal(size=n) for k, v in enumerate(vstar)])
    cert = EpsCertificate(
        lam=np.ones(2), gamma=1.0 / np.arange(1, N + 1), xstar=np.zeros((2, N, n)),
        wstar=np.zeros((2, N, n)), cstar=np.zeros((N, n)), ystar=-vstar, vstar=vstar, ustar=ustar,
    )

    def highs_conjugate(u, w):
        # maximize <u,x> - sum_j w_j t_j subject to t_j >= every piece of h_j
        rows = np.vstack([np.hstack([h.A, np.tile(-np.eye(p)[j], (9, 1))])
                          for j, h in enumerate(hmap)])
        res = linprog(-np.concatenate([u, -w]), A_ub=rows,
                      b_ub=np.concatenate([-h.b for h in hmap]),
                      bounds=[(None, None)] * (n + p), method="highs")
        assert res.status in (0, 3), res.message
        return np.inf if res.status == 3 else -res.fun

    conj = np.array([highs_conjugate(u, -v) for u, v in zip(ustar, vstar)])
    assert np.isfinite(conj).any() and np.isinf(conj).any()
    comp_at_xbar = -vstar @ prob.h_values(xbar)
    with np.errstate(invalid="ignore"):
        want_eps = cert.gamma - (conj + comp_at_xbar - ustar @ xbar)
    rep_eps = verify_eps_certificate(prob, xbar, cert)
    epi = epi_from_eps(prob, xbar, cert)
    rep_epi = verify_epi_certificate(prob, xbar, epi)
    for got, want in ((rep_eps.slacks["subdiff_comp"], want_eps),
                      (rep_epi.slacks["epi_comp"], epi.t - conj)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
    # a positive vstar entry is a negative weight, outside the composite term
    with pytest.raises(UnsupportedData):
        verify_eps_certificate(prob, xbar, replace(cert, vstar=-vstar))


def test_eps_to_exact_on_a_729_piece_composite():
    # the composite's nearby pairs come from the separable LP, so a
    # composite whose pieces multiply out to 729 transfers: every pair
    # meets the three bounds and is exact at its point.  The other blocks
    # take exact functionals, so their pairs are the base points.
    from henigcert.fractional import nu_values

    prob, rng = three_nine_piece_h()
    N, xbar = 6, np.array([0.1, -0.2])
    vstar = -rng.uniform(0.1, 1.0, (N, prob.p))
    ustar = np.array([sum(w * (rng.dirichlet(np.ones(9)) @ h.A) for w, h in zip(-v, prob.hmap))
                      for v in vstar])
    gap = np.array([convex.young_fenchel_gap(weighted_sum_polyhedral(-v, prob.hmap), xbar, u)
                    for v, u in zip(vstar, ustar)])
    assert (gap > 1e-6).all()  # above the exactness tolerance
    gamma = gap * rng.uniform(1.1, 2.0, N)
    subgrads = [[convex.subdiff_element(convex.ScaledFn(c, fn), xbar)
                 for c, fn in zip((1.0, nu_i), pair)]
                for pair, nu_i in zip(prob.objectives, nu_values(prob, xbar))]
    stars = np.repeat(np.array(subgrads)[:, None], N, axis=1)  # (m, N, 2, n)
    cert = EpsCertificate(
        lam=np.ones(2), gamma=gamma, xstar=stars[..., 0, :], wstar=stars[..., 1, :],
        cstar=np.zeros((N, 2)), ystar=np.zeros((N, prob.p)), vstar=vstar, ustar=ustar,
    )
    exact = eps_to_exact(prob, xbar, cert)
    root = np.sqrt(gamma)
    bounds = exact.br_bounds["composite"]
    assert (bounds[:, 0] <= root).all() and (bounds[:, 1] <= root).all()
    assert (bounds[:, 2] <= 2.0 * gamma).all()
    assert (bounds[:, :2].max(axis=1) > 0).all()  # no entry was exact at xbar
    rep = verify_exact_certificate(prob, xbar, exact)
    assert rep.memberships["subdiff_comp"].all(), rep.slacks["subdiff_comp"]


# ---------------------------------------------------------------------------
# warm-started LP sessions


def efficient_at_zero(rng):
    # blocks_problem at the benchmark's n=4, with f[0] tilted by a
    # subgradient s of phi = sum_i f_i + nu_i (-g_i) at 0, so that 0
    # minimizes phi: 0 is then properly efficient, h(0) < 0 and 0 is inside
    # C, and its lambda = 1 certificates have a zero dual residual (the
    # tilt keeps every value at 0, hence nu)
    from henigcert.fractional import nu_values

    prob = blocks_problem(rng, n=4)
    nu = nu_values(prob, np.zeros(4))
    s = sum(f.A[np.argmax(f.b)] + nu_i * ng.A[np.argmax(ng.b)]
            for (f, ng), nu_i in zip(prob.objectives, nu))
    (f0, ng0), *rest = prob.objectives
    return FractionalProblem(4, [(PolyhedralFn(f0.A - s, f0.b), ng0), *rest], prob.hmap,
                             prob.cone, prob.C)


def test_warm_generation_entries_match_cold_solves(monkeypatch):
    # one session per certificate; every entry after the first comes from
    # one resolve_path call, which must run no phase 1, pivot at most a
    # third as often per entry as a fresh solve of that entry's program
    # (an entry read off the basis takes no pivot, one at a breakpoint
    # takes those of its resolve_rhs), and reach its value
    sessions = []

    class Recorded(LpSession):
        def __init__(self, lp):
            super().__init__(lp)
            self.entries, self.warm = [], {}
            sessions.append(self)

        def resolve_rhs(self, b_ub):
            before = sum(self.pivots.values())
            out = super().resolve_rhs(b_ub)
            self.warm[np.asarray(b_ub).tobytes()] = sum(self.pivots.values()) - before
            return out

        def resolve_path(self, B_ub):
            phase1 = self.pivots["phase 1"]
            values, X = super().resolve_path(B_ub)
            assert self.pivots["phase 1"] == phase1
            for b, value in zip(B_ub, values):
                cold = LpSession(replace(self.lp, b_ub=b))
                want = cold.maximize()
                self.entries.append(
                    (self.warm.get(b.tobytes(), 0), sum(cold.pivots.values()), value, want.value))
            return values, X

    monkeypatch.setattr(certificates, "LpSession", Recorded)
    rng = np.random.default_rng(5)
    xbar, N = np.zeros(4), 40
    for _ in range(4):
        prob = efficient_at_zero(rng)
        cert, trace = generate_eps_certificate(prob, xbar, N=N)
        (session,) = sessions
        sessions.clear()
        warm, cold, value, want = map(np.array, zip(*session.entries))
        assert len(warm) == N - 1
        assert (3 * warm <= cold).all(), (warm, cold)
        np.testing.assert_allclose(value, want, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(trace[1:], -value)
        rep = verify_eps_certificate(prob, xbar, cert, tol_conv=0.05)
        assert rep.verdict == "Accept", rep.reasons


def test_memoized_conjugates_match_one_shot_calls(monkeypatch):
    # the verifier keeps one Conjugate (or Support) per block, and for the
    # composite one per support pattern of its weights, so one LpSession
    # and one phase 1 each, and asks it for a block's values in batched
    # calls; each value must equal a one-shot call (for the composite, on
    # the weighted sum of its components)
    made, sessions, calls = [], [], []

    def one_shot_conjugate(fn, x, w=None):
        return convex.conjugate(fn if w is None else weighted_sum_polyhedral(w, fn), x)

    def recorded(base, one_shot):
        class Recorded(base):
            def __init__(self, fn):
                before = len(sessions)
                super().__init__(fn)
                assert len(sessions) == before + 1
                self.fn = fn
                made.append(self)

            def values(self, xs, *weights):
                before = len(sessions)
                got = super().values(xs, *weights)
                assert len(sessions) == before  # no new session, no phase 1
                for r, (x, value) in enumerate(zip(xs, got)):
                    want = one_shot(self.fn, x, *(w[r] for w in weights))
                    assert value == want or abs(value - want) <= 1e-12, (value, want)
                calls.extend(got)
                return got

        return Recorded

    class Counted(LpSession):
        def __init__(self, lp):
            super().__init__(lp)
            sessions.append(self)

    monkeypatch.setattr(certificates, "Conjugate", recorded(convex.Conjugate, one_shot_conjugate))
    monkeypatch.setattr(certificates, "Support", recorded(convex.Support, convex.support_function))
    monkeypatch.setattr(convex, "LpSession", Counted)
    rng = np.random.default_rng(8)
    prob = blocks_problem(rng)
    xbar, N = np.array([0.25, -0.15]), 12
    # functionals: mixes of the pieces (finite conjugates) and, every
    # fourth entry, a random vector (infinite); vstar takes three nonzero
    # rows, a third of the table each: two with both components in their
    # support, which share one session, and one with only the first
    polys = [convex.as_polyhedral(f) for pair in prob.objectives for f in pair]
    stars = [np.array([rng.dirichlet(np.ones(6)) @ p.A if k % 4 else rng.normal(size=2) * 3
                       for k in range(N)]) for p in polys]
    vstar = np.repeat([[-0.5, -0.2], [-0.1, -0.7], [-0.4, 0.0]], N // 3, axis=0)
    comps = [weighted_sum_polyhedral(-v, prob.hmap).A for v in vstar]
    cert = EpsCertificate(
        lam=np.ones(3), gamma=1.0 / np.arange(1, N + 1),
        xstar=np.array(stars[0::2]), wstar=np.array(stars[1::2]),
        cstar=rng.normal(size=(N, 2)), ystar=np.abs(rng.normal(size=(N, 2))), vstar=vstar,
        ustar=np.array([rng.dirichlet(np.ones(A.shape[0])) @ A for A in comps]),
    )
    verify_eps_certificate(prob, xbar, cert)
    # f[i], w[i] for three objectives, C, two composite support patterns
    assert len(made) == 9
    assert len(calls) == 8 * N
    assert np.isinf(calls).any() and np.isfinite(calls).any()
