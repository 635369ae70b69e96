"""The embedded worked example: five golden stages and their tolerance
semantics."""

import numpy as np
import pytest

from henigcert import example_q
from henigcert.fractional import feasible, nu_values


def test_candidate_data():
    prob = example_q.build_problem()
    assert prob.n == 2 and prob.m == 2 and prob.p == 2
    assert feasible(prob, example_q.XBAR)
    assert np.array_equal(nu_values(prob, example_q.XBAR), np.zeros(2))


def test_reference_certificate_table():
    cert = example_q.reference_certificate(7)
    inv = 1.0 / np.arange(1, 8)
    assert np.array_equal(cert.xstar[0], np.tile([2.0, 0.0], (7, 1)))
    assert np.array_equal(cert.xstar[1], np.tile([-2.0, 0.0], (7, 1)))
    for heights in (cert.a[0], cert.a[1], cert.b[0], cert.b[1], cert.d, cert.s):
        assert np.array_equal(heights, inv)
    assert np.array_equal(cert.cstar, np.column_stack([np.zeros(7), inv]))
    assert not cert.wstar.any() and not cert.ystar.any()
    assert not cert.vstar.any() and not cert.ustar.any() and not cert.t.any()


def test_five_stages_pass():
    # 6/n at n=200 is 0.03, so the coarse 1e-1 gate applies
    rep = example_q.run(N=200, tol_conv=1e-1)
    assert rep["ok"] is True
    names = [s["stage"] for s in rep["stages"]]
    assert names == [
        "ratio_values",
        "feasible_set_collapse",
        "interior_point_fails",
        "efficiency_verdict",
        "certificate_accept",
    ]


def test_golden_residuals_at_default_horizon():
    rep = example_q.run()
    last = rep["stages"][-1]
    assert rep["N"] == 1000
    assert abs(last["dual_residual_last"] - 1e-3) <= 1e-9
    assert last["y_residual_max"] == 0.0
    assert abs(last["scalar_residual_last"] - 6e-3) <= 1e-9
    assert last["verdict"] == "Accept"


def test_stage_details():
    rep = example_q.run(N=200, tol_conv=1e-1)
    by_name = {s["stage"]: s for s in rep["stages"]}
    assert by_name["ratio_values"]["nu"] == [0.0, 0.0]
    # the grid holds 201 feasible points, the whole x = 0 edge
    assert by_name["feasible_set_collapse"]["feasible_points"] == 201
    assert by_name["feasible_set_collapse"]["max_first_coordinate"] == 0.0
    assert by_name["interior_point_fails"]["slater"] is False
    assert by_name["efficiency_verdict"]["eps_witness"] >= 2.0 ** -20
    assert by_name["efficiency_verdict"]["parametric_equivalence"] is True


def test_tight_tolerance_rejects():
    # 6/n at n=1000 is 6e-3, far above 1e-5: the verify stage must fail
    rep = example_q.run(N=1000, tol_conv=1e-5)
    assert rep["ok"] is False
    failing = [s["stage"] for s in rep["stages"] if not s["ok"]]
    assert failing == ["certificate_accept"]


def test_longer_horizon_passes_tighter_gate():
    # 6/n at n=10000 is 6e-4, inside 1e-3
    rep = example_q.run(N=10000, tol_conv=1e-3)
    assert rep["ok"] is True
    last = rep["stages"][-1]
    assert abs(last["scalar_residual_last"] - 6e-4) <= 1e-9
