"""The embedded two-ratio worked example and its golden five-stage run.

Problem data, over C = R+ x [0,1] with the componentwise order on R^2:

    minimize  ( 2x / (y+3),  2x / (-y^2-1) )
    subject to  ((max{0,x})^2, sqrt(x^2+y^2) - y) in -R+^2,  (x,y) in C

Both constraint components are nonnegative on C, so the feasible set
collapses to {0} x [0,1]; no point of C maps into the strict interior of
-R+^2, which is exactly the situation the sequential certificates exist
for.  The candidate is (0, 1/2) with ratio values nu = (0, 0).

The stages reproduce, in order: the ratio values, the feasible-set
collapse on a reference grid, the interior-point failure, the grid
oracle's efficiency verdict, and the Accept of the hand-built
conjugate-epigraph certificate table whose residuals are 1/n and 6/n.
"""

import time

import numpy as np

from .certificates import EpiCertificate, slater_check, verify_epi_certificate
from .cones import PolyhedralCone
from .convex import BlackBoxFn, Polyhedron, PolyhedralFn
from .fractional import FractionalProblem, candidate, feasible_mask, henig_check
from .grids import GridSpec
from .tolerances import TOL_CONV

XBAR = np.array([0.0, 0.5])

DEFAULT_GRID = GridSpec(lows=(0.0, 0.0), highs=(10.0, 1.0), counts=(201, 201))


def build_problem() -> FractionalProblem:
    f1 = PolyhedralFn([[2.0, 0.0]], [0.0])
    f2 = PolyhedralFn([[-2.0, 0.0]], [0.0])
    neg_g1 = PolyhedralFn([[0.0, -1.0]], [-3.0])
    neg_g2 = BlackBoxFn("neg_quad_plus_one", 2)
    h = [BlackBoxFn("relu_sq", 2), BlackBoxFn("eucl_minus_last", 2)]
    C = Polyhedron(A=[[-1.0, 0.0], [0.0, -1.0], [0.0, 1.0]], b=[0.0, 0.0, 1.0])
    return FractionalProblem(
        2, [(f1, neg_g1), (f2, neg_g2)], h, PolyhedralCone.nonneg_orthant(2), C
    )


def reference_certificate(N: int) -> EpiCertificate:
    """The hand-built epigraph table: xstar = ((2,0), (-2,0)) with heights
    1/n, wstar = 0 with heights 1/n, cstar = (0, 1/n) with d = 1/n,
    ystar = 0 with s = 1/n, vstar = 0, and the composite pair ((0,0), 0)."""
    inv = 1.0 / np.arange(1, N + 1)
    z2 = np.zeros((N, 2))
    return EpiCertificate(
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


def run(N: int = 1000, tol_conv: float = TOL_CONV, grid: GridSpec = DEFAULT_GRID) -> dict:
    """Run the five stages; returns a report dict with ``ok`` aggregated."""
    prob = build_problem()
    stages = []
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    cand = candidate(prob, XBAR)
    stages.append(
        {
            "stage": "ratio_values",
            "ok": bool(np.array_equal(cand.nu, np.zeros(2))),
            "nu": cand.nu.tolist(),
            "seconds": time.perf_counter() - t0,
        }
    )

    t0 = time.perf_counter()
    count, max_first = 0, None
    for X in grid.chunks():
        first = np.abs(X[feasible_mask(prob, X), 0])
        if first.size:
            count += first.size
            max_first = max(max_first or 0.0, float(first.max()))
    stages.append(
        {
            "stage": "feasible_set_collapse",
            "ok": max_first == 0.0,
            "feasible_points": count,
            "max_first_coordinate": max_first,
            "seconds": time.perf_counter() - t0,
        }
    )

    t0 = time.perf_counter()
    slater = slater_check(prob, grid)
    stages.append(
        {
            "stage": "interior_point_fails",
            "ok": slater is False,
            "slater": slater,
            "seconds": time.perf_counter() - t0,
        }
    )

    t0 = time.perf_counter()
    verdict, equiv = henig_check(prob, cand, grid)
    stages.append(
        {
            "stage": "efficiency_verdict",
            "ok": verdict.kind == "properly_efficient",
            "kind": verdict.kind,
            "eps_witness": verdict.eps_witness,
            "parametric_equivalence": equiv,
            "seconds": time.perf_counter() - t0,
        }
    )

    t0 = time.perf_counter()
    cert = reference_certificate(N)
    report = verify_epi_certificate(prob, cand, cert, tol_conv=tol_conv)
    dual_last = float(report.residuals["dual"][-1])
    y_max = float(np.abs(report.residuals["y"]).max())
    scalar_last = float(report.residuals["scalar"][-1])
    closed_ok = (
        abs(dual_last - 1.0 / N) <= 1e-9
        and y_max == 0.0
        and abs(scalar_last - 6.0 / N) <= 1e-9
    )
    stages.append(
        {
            "stage": "certificate_accept",
            "ok": report.verdict == "Accept" and closed_ok,
            "verdict": report.verdict,
            "reasons": list(report.reasons),
            "dual_residual_last": dual_last,
            "y_residual_max": y_max,
            "scalar_residual_last": scalar_last,
            "tol_conv": tol_conv,
            "seconds": time.perf_counter() - t0,
        }
    )

    return {
        "example": "two-ratio collapse example",
        "N": N,
        "grid": {"lows": grid.lows, "highs": grid.highs, "counts": grid.counts},
        "stages": stages,
        "ok": all(s["ok"] for s in stages),
        "seconds": time.perf_counter() - t_start,
    }
