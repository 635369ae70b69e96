"""Exit codes and file flows of the command-line interface.

Commands run in-process through cli.main(argv); exit codes follow the
documented scheme (0 positive, 2 negative, 3 inconclusive, 64 usage,
65 data, 70 internal).
"""

import argparse
import json
import pathlib
import re
import shutil
import sys
import warnings

import numpy as np
import pytest

import grid_reference as ref
from henigcert import cli, example_q, serialization
from henigcert.cones import PolyhedralCone
from henigcert.convex import Polyhedron, PolyhedralFn
from henigcert.fractional import FractionalProblem
from henigcert.linprog import TOL_FEAS
from henigcert.serialization import certificate_from_json, certificate_to_json


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    toy = root / "toy.json"
    q = root / "q.json"
    serialization.dump_json(serialization.problem_to_json(cli._toy_problem()), toy)
    serialization.dump_json(serialization.problem_to_json(example_q.build_problem()), q)
    return {"root": root, "toy": str(toy), "q": str(q)}


TOY_GRID = "201:[-1,1]"
Q_GRID = "201x201:[0,10]x[0,1]"


# ---------------------------------------------------------------------------
# check


def test_check_q_properly_efficient(files, capsys):
    out = files["root"] / "check.json"
    rc = cli.main(
        ["check", "--problem", files["q"], "--point", "0,0.5",
         "--grid", Q_GRID, "--out", str(out)]
    )
    assert rc == 0
    assert "properly_efficient" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["verdict"]["kind"] == "properly_efficient"
    assert doc["verdict"]["eps_witness"] >= 2.0 ** -20
    assert doc["parametric_equivalence"] is True
    assert doc["grid"]["counts"] == [201, 201]


def test_check_toy_dominated(files, capsys):
    rc = cli.main(
        ["check", "--problem", files["toy"], "--point", "1", "--grid", TOY_GRID]
    )
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["kind"] == "dominated"
    assert doc["verdict"]["counterexample"] is not None


@pytest.mark.parametrize(
    "problem, point, grid",
    [("toy", "0", TOY_GRID), ("toy", "1", TOY_GRID), ("q", "0,0.5", Q_GRID)],
)
def test_check_scans_the_grid_once(files, capsys, monkeypatch, problem, point, grid):
    # the ratio problem and its reformulation share one walk over the
    # lattice, less the boxes and the sub-boxes the bound pass drops: the
    # rows tested for feasibility are the lattice rows outside those, in
    # the walk's order (box order by batch, ref.walk_order, or lattice
    # order by chunk without the pass), all of them, or when a Dominated
    # verdict ends the walk early those up to the end of the batch that
    # holds the witness; each f_i and -g_i is evaluated once at every
    # feasible row tested, and no feasible row of a dropped box or sub-box
    # hits a rung of either scan, by the row-major kernels.  Chunks of 64
    # points make the 201-point toy lattice more than one chunk, and slabs
    # of 2^9 bounds cut its walk into batches of fewer boxes than it keeps.
    from henigcert import fractional, grids
    from henigcert.convex import BlackBoxFn, ScaledFn
    from henigcert.grids import GridSpec

    monkeypatch.setattr(grids, "_CHUNK", 64)
    monkeypatch.setattr(fractional, "_SUB_SLAB_CELLS", 2 ** 9)
    tested, evaluated, checked = [], {}, []
    feasible_mask = fractional.feasible_mask

    def mask_spy(prob, X, *args, **kwargs):
        ok = feasible_mask(prob, X, *args, **kwargs)
        tested.append((np.array(X), np.array(ok)))
        return ok

    def eval_spy(original):
        def spy(self, X):
            evaluated.setdefault(id(self), []).append(np.array(X, float))
            return original(self, X)
        return spy

    monkeypatch.setattr(fractional, "feasible_mask", mask_spy)
    for cls in (PolyhedralFn, BlackBoxFn, ScaledFn):
        monkeypatch.setattr(cls, "eval_batch", eval_spy(cls.eval_batch))
    henig_check = cli.henig_check

    def check_spy(prob, *args):
        checked.append(prob)
        return henig_check(prob, *args)

    monkeypatch.setattr(cli, "henig_check", check_spy)
    rc = cli.main(["check", "--problem", files[problem], "--point", point, "--grid", grid])
    doc = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    monkeypatch.setattr(fractional, "_SUB_SLAB_CELLS", 2 ** 9)  # for bounds.slab below
    (prob,) = checked
    spec, xbar = GridSpec.parse(grid), cli._parse_vector(point, "point")
    ladder = fractional._validate_ladder(None)
    kept = ref.dropped_rows_miss(prob, xbar, spec, ladder)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        param = fractional.parametric_problem(prob, xbar)
    if problem == "toy":
        bounds = fractional._BoundPass(prob, spec, ladder, param)
        batches = ref.walk_batches(spec, np.logical_and(*bounds.box_codes()), bounds.slab)
        order = ref.walk_order(spec, kept, batches)
        ends = np.cumsum([kept[np.isin(ref.box_labels(spec), boxes)].sum() for boxes in batches])
    else:
        order, ends = np.flatnonzero(kept), [*range(64, spec.size, 64), spec.size]
    outside = spec.points()[order]
    visited = np.concatenate([X for X, _ in tested])
    feasible = np.concatenate([X[ok] for X, ok in tested])
    assert visited.tobytes() == outside[: len(visited)].tobytes()
    assert len(visited) in ends
    for f, ng in prob.objectives:
        for fn in (f, ng):
            assert np.concatenate(evaluated[id(fn)]).tobytes() == feasible.tobytes()
    if point == "1":
        assert rc == 2 and len(visited) < len(outside)
        # the witness is in the last batch walked
        last = [0, *ends][list(ends).index(len(visited))]
        assert (visited[last:] == doc["verdict"]["counterexample"]).all(axis=1).any()
    else:
        assert rc == 0 and len(visited) == len(outside)
    # at the toy's efficient point every box and sub-box without 0 misses
    # every rung, so the walk tests the 2 points of 0's sub-box, not the
    # 4 of its box; at its dominated point every sub-box holds a hit, and
    # Q's black-box denominator gives no bound, so the pass is skipped
    assert (len(outside) < spec.size) is (point == "0")
    if point == "0":
        feasible, hit = bounds.box_codes()
        assert (len(outside), (feasible & hit)[ref.box_labels(spec)].sum()) == (2, 4)
    want = fractional.henig_check(prob, xbar, spec)[1]
    assert doc["parametric_equivalence"] is want


@pytest.mark.parametrize("command", [
    ["check", "--grid", TOY_GRID],
    *(["certify", "--grid", TOY_GRID, "--theorem", t, "--n", "10", "--tol-conv", "1"]
      for t in ("4.3", "4.2", "4.4")),
    ["verify", "--tol-conv", "1"],
])
def test_candidate_is_evaluated_once(files, capsys, monkeypatch, command):
    # a command builds one Candidate and hands it to the oracle (check, and
    # certify's pre-check), to generation, the transfer and the verifier,
    # which take it as it is: over every module that binds them, the point
    # gets one one-row feasibility test and one evaluation of its ratios
    if command[0] == "verify":
        cert = str(files["root"] / "once.cert.json")
        certify = ["certify", "--problem", files["toy"], "--point", "0", "--force"]
        assert cli.main([*certify, "--n", "10", "--tol-conv", "1", "--out", cert]) == 0
        command = [*command, "--certificate", cert]
    calls = []
    spied = {"feasible": "feasible", "nu_values": "ratios", "_ratio_values": "ratios"}
    for key, module in list(sys.modules.items()):
        if key.startswith("henigcert."):
            for name in spied.keys() & vars(module).keys():
                def spy(*args, original=getattr(module, name), what=spied[name]):
                    calls.append(what)
                    return original(*args)

                monkeypatch.setattr(module, name, spy)
    argv = [command[0], "--problem", files["toy"], "--point", "0", *command[1:]]
    assert cli.main(argv) == 0
    assert sorted(calls) == ["feasible", "ratios"]


def test_check_infeasible_point_is_usage_error(files, capsys):
    rc = cli.main(
        ["check", "--problem", files["q"], "--point", "0.5,0.5", "--grid", Q_GRID]
    )
    assert rc == 64
    assert "not feasible" in capsys.readouterr().err


def test_check_point_outside_denominator_domain_is_usage_error(tmp_path, capsys):
    # x = 0.8 is feasible, but g1 = 1 only on x <= 0.5: usage (64), not internal (70)
    prob = cli._toy_problem()
    one_left = PolyhedralFn([[0.0]], [-1.0], Polyhedron(A=[[1.0]], b=[0.5]))
    prob = FractionalProblem(1, [(prob.objectives[0][0], one_left), prob.objectives[1]],
                             prob.hmap, prob.cone, prob.C)
    path = tmp_path / "restricted.json"
    serialization.dump_json(serialization.problem_to_json(prob), path)
    rc = cli.main(["check", "--problem", str(path), "--point", "0.8", "--grid", TOY_GRID])
    assert rc == 64
    assert "objective 0: denominator infinite at xbar" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bad_candidates(tmp_path_factory):
    # the toy with its first objective replaced, so that the feasible x = 0
    # has the ratio (x - 1)/1 = -1, or the denominator g_1(x) = x = 0
    root = tmp_path_factory.mktemp("bad")
    toy = cli._toy_problem()
    first = {
        "negative": (PolyhedralFn([[1.0]], [-1.0]), toy.objectives[1][1]),
        "zero": (toy.objectives[0][0], PolyhedralFn([[-1.0]], [0.0])),
    }
    paths = {}
    for name, objective in first.items():
        prob = FractionalProblem(1, [objective, toy.objectives[1]], toy.hmap, toy.cone, toy.C)
        paths[name] = str(root / f"{name}.json")
        serialization.dump_json(serialization.problem_to_json(prob), paths[name])
    return paths


@pytest.mark.parametrize("flags", [["check", "--grid", TOY_GRID], ["certify", "--grid", TOY_GRID],
                                   ["certify", "--force"]], ids=["check", "certify", "certify-force"])
@pytest.mark.parametrize("kind", ["negative", "zero"])
def test_bad_candidate_is_usage_error(bad_candidates, capsys, flags, kind):
    # the reformulation behind the oracle and the certificates needs
    # nu >= 0 and every g_i clear of 0: usage (64) with the reason, not
    # internal (70)
    command, *rest = flags
    rc = cli.main([command, "--problem", bad_candidates[kind], "--point", "0", *rest])
    assert rc == 64
    err = capsys.readouterr().err
    assert "usage error" in err
    assert {"negative": "negative ratio", "zero": "below 1e-09"}[kind] in err


@pytest.fixture(scope="module")
def no_interior(tmp_path_factory):
    # the toy with h = |x|: x = 0 is its one feasible point, so no grid
    # holds an interior point
    toy = cli._toy_problem()
    prob = FractionalProblem(1, toy.objectives, [PolyhedralFn([[1.0], [-1.0]], [0.0, 0.0])],
                             toy.cone, toy.C)
    path = tmp_path_factory.mktemp("pinned") / "pinned.json"
    serialization.dump_json(serialization.problem_to_json(prob), path)
    return str(path)


BAD_FLAGS = [("--lambda=-1,1", 64), ("--lambda=abc", 64), ("--lambda=1,2,3", 65)]


@pytest.mark.parametrize(
    ("command", "flags", "code"),
    [(command, *bad) for command in ("certify", "kkt") for bad in BAD_FLAGS]
    + [("certify", "--gamma=1/x", 64), ("certify", "--force --grid=oops", 64),
       ("certify", "--force --eps-ladder=5000", 64)],
    ids=str,
)
def test_bad_flags_are_refused_before_any_work(files, no_interior, capsys, command, flags, code):
    # certify at a dominated point stops at its pre-check (exit 2), and kkt
    # with no interior point at the qualification (exit 3); a bad --lambda
    # (sign or parse 64, length 65) or --gamma is refused before either,
    # with no report, and so are a bad --grid or --eps-ladder that --force
    # would leave unused
    argv = {"certify": ["certify", "--problem", files["toy"], "--point", "0.5", "--grid", TOY_GRID],
            "kkt": ["kkt", "--problem", no_interior, "--point", "0", "--grid", TOY_GRID]}[command]
    assert cli.main(argv) == {"certify": 2, "kkt": 3}[command]
    capsys.readouterr()
    assert cli.main([*argv, *flags.split()]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("henigcert: data error:" if code == 65 else "henigcert: usage error:")


@pytest.mark.parametrize("case", ["restricted-domain", "positive-vstar"])
def test_unsupported_data_is_usage_error(files, tmp_path, capsys, case):
    # valid data that an operation cannot handle exactly is a usage error
    # (64) with the library's reason and no report, not an internal error
    # (70): certificates need full-space objective domains, and the
    # composite term needs -vstar >= 0
    toy = ["--problem", files["toy"], "--point", "0"]
    if case == "restricted-domain":
        doc = serialization.problem_to_json(cli._toy_problem())
        doc["objectives"][0]["f"]["domain"] = {"n": 1, "A": [[1.0], [-1.0]], "b": [2.0, 2.0]}
        path = tmp_path / "restricted.json"
        serialization.dump_json(doc, path)
        argv = ["certify", "--problem", str(path), "--point", "0", "--force"]
        reason = "certificate generation needs full-space objective domains"
    else:
        cert = tmp_path / "cert.json"
        assert cli.main(["certify", *toy, "--force", "--n", "10", "--tol-conv", "1", "--out", str(cert)]) == 0
        doc = json.loads(cert.read_text())
        for entry in doc["entries"]:
            entry["vstar"] = [0.5]
        serialization.dump_json(doc, cert)
        argv = ["verify", *toy, "--certificate", str(cert)]
        reason = "composite term needs componentwise nonnegative -vstar"
    capsys.readouterr()
    assert cli.main(argv) == 64
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"henigcert: usage error: {reason}\n")


def test_check_takes_candidates_with_large_values(tmp_path, capsys):
    # the toy with f_i = |x| + b_i over g_i = c_i, b and c drawn from
    # U(1e7, 1e9): at 0.3, phi_i = f_i - nu_i g_i rounds to a few ulps of
    # f_i, up to about 1.2e-7, which a bound in the ratios alone refused
    # (exit 65) on about one draw in six; every draw is a candidate, and
    # properly efficient on the one-point lattice at it
    toy = cli._toy_problem()
    path = str(tmp_path / "large.json")
    rng = np.random.default_rng(24)
    for _ in range(40):
        b, c = rng.uniform(1e7, 1e9, size=(2, 2))
        objectives = [(PolyhedralFn([[1.0], [-1.0]], [bi, bi]), PolyhedralFn([[0.0]], [-ci]))
                      for bi, ci in zip(b, c)]
        prob = FractionalProblem(1, objectives, toy.hmap, toy.cone, toy.C)
        serialization.dump_json(serialization.problem_to_json(prob), path)
        assert cli.main(["check", "--problem", path, "--point", "0.3", "--grid", "1:[0.3,0.3]"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"]["kind"] == "properly_efficient"


def test_verify_at_an_infeasible_candidate_is_usage_error(tmp_path, capsys):
    # f1 = f2 = 0, g = 1, h = -1, C = [-1, 1]: the table certify writes at 0
    # passes every membership at 5 but C's, which the verifier does not test
    zero, one = PolyhedralFn([[0.0]], [0.0]), PolyhedralFn([[0.0]], [-1.0])
    prob = FractionalProblem(1, [(zero, one), (zero, one)], [one],
                             PolyhedralCone.nonneg_orthant(1), Polyhedron.box([-1.0], [1.0]))
    path, cert = str(tmp_path / "zero.json"), str(tmp_path / "z.json")
    serialization.dump_json(serialization.problem_to_json(prob), path)
    assert cli.main(["certify", "--problem", path, "--point", "0", "--force", "--out", cert]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--problem", path, "--point", "5", "--certificate", cert]) == 64
    assert "not feasible" in capsys.readouterr().err
    assert cli.main(["check", "--problem", path, "--point", "5", "--grid", TOY_GRID]) == 64


def test_refusals_of_the_point_read_alike(files, capsys):
    # one decision refuses a point for every command: the same message for
    # a point of the wrong dimension on all four, and for an infeasible
    # point on check and verify
    cert = str(files["root"] / "refusals.cert.json")
    toy = ["--problem", files["toy"]]
    assert cli.main(["certify", *toy, "--point", "0", "--force", "--out", cert]) == 0
    capsys.readouterr()
    tails = {"check": ["--grid", TOY_GRID], "certify": ["--force"],
             "verify": ["--certificate", cert], "kkt": ["--grid", TOY_GRID]}
    for command, tail in tails.items():
        assert cli.main([command, *toy, "--point", "0,0", *tail]) == 65
        assert capsys.readouterr().err == "henigcert: data error: point dimension does not match problem\n"
    for command in ("check", "verify"):
        assert cli.main([command, *toy, "--point", "5", *tails[command]]) == 64
        assert capsys.readouterr().err == (
            "henigcert: usage error: candidate point is not feasible within tol_feas=1e-09\n")


def test_verify_refuses_the_point_before_a_short_certificate(files, capsys):
    # verify takes its candidate before the verifier reads the certificate:
    # an infeasible point with a 3-entry table is a usage error (64), the
    # table alone a data error (65)
    toy = ["--problem", files["toy"]]
    assert cli.main(["certify", *toy, "--point", "0", "--force", "--n", "20", "--tol-conv", "1e-1"]) == 0
    doc = json.loads(capsys.readouterr().out)["certificate"]
    doc["entries"], doc["N"] = doc["entries"][:3], 3
    path = files["root"] / "short3.cert.json"
    serialization.dump_json(doc, path)
    assert cli.main(["verify", *toy, "--point", "5", "--certificate", str(path)]) == 64
    assert "not feasible" in capsys.readouterr().err
    assert cli.main(["verify", *toy, "--point", "0", "--certificate", str(path)]) == 65
    assert "horizon of at least 4" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["certify", "--force", "--n", "10"], ["kkt", "--grid", TOY_GRID]],
                         ids=["certify", "kkt"])
def test_lambda_weights_must_be_positive(files, capsys, command):
    # a weight of 0 or below is a bad flag value (64), not an internal error
    # (70); a weight vector of the wrong length stays a data error (65)
    base = [command[0], "--problem", files["toy"], "--point", "0", *command[1:]]
    for weights in ("0,1", "-1,1"):
        assert cli.main([*base, f"--lambda={weights}"]) == 64
        err = capsys.readouterr().err
        assert "usage error" in err and "strictly positive" in err
    assert cli.main([*base, "--lambda=1,1,1"]) == 65
    assert "lambda length does not match" in capsys.readouterr().err


def test_verify_and_kkt_at_bad_candidates(files, bad_candidates, capsys):
    cert = files["root"] / "toy-for-bad.cert.json"
    assert cli.main(["certify", "--problem", files["toy"], "--point", "0", "--force",
                     "--n", "20", "--tol-conv", "1e-1", "--out", str(cert)]) == 0
    capsys.readouterr()
    verify = ["verify", "--point", "0", "--certificate", str(cert)]
    assert cli.main([*verify, "--problem", bad_candidates["negative"]]) == 64
    assert "negative ratio" in capsys.readouterr().err
    # kkt keeps its "unsupported data" Fails at a negative ratio, and
    # refuses a denominator at 0
    kkt = ["kkt", "--point", "0", "--grid", TOY_GRID]
    assert cli.main([*kkt, "--problem", bad_candidates["negative"]]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Fails" and "negative ratio" in doc["reason"]
    assert cli.main([*kkt, "--problem", bad_candidates["zero"]]) == 64
    assert "below 1e-09" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage and data errors


def test_missing_required_flag(files, capsys):
    assert cli.main(["check", "--problem", files["toy"]]) == 64
    assert "usage error" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert cli.main(["frobnicate"]) == 64


def test_bad_point_grid_gamma(files, capsys):
    base = ["check", "--problem", files["toy"], "--point"]
    assert cli.main(base + ["zebra", "--grid", TOY_GRID]) == 64
    assert cli.main(base + ["0", "--grid", "oops"]) == 64
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "0",
         "--force", "--gamma", "1/n^3"]
    )
    assert rc == 64
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_vectors_are_usage_errors(files, capsys, value):
    # caught at parsing: no numpy warning, no internal error from the LP
    q = ["--problem", files["q"], "--grid", Q_GRID]
    assert cli.main(["check", *q, f"--point={value},0.5"]) == 64
    err = capsys.readouterr().err
    assert "point" in err and "non-finite" in err and "Warning" not in err
    assert cli.main(["certify", *q, "--point", "0,0.5", "--force", f"--lambda={value},1"]) == 64
    err = capsys.readouterr().err
    assert "lambda" in err and "non-finite" in err and "internal" not in err


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_horizon_below_one_is_usage_error(files, capsys, horizon):
    # a horizon below 1 is refused at parsing (64), not in the table (70)
    certify = ["certify", "--problem", files["toy"], "--point", "0", "--force"]
    assert cli.main(certify + ["--n", horizon]) == 64
    assert cli.main(["example-q", "--n", horizon]) == 64
    err = capsys.readouterr().err
    assert err.count("horizon must be at least 1") == 2 and "internal" not in err


def test_short_horizon_stays_data_error(files, capsys):
    # 1 to 3 entries parse, and the convergence rule refuses them (65)
    certify = ["certify", "--problem", files["toy"], "--point", "0", "--force"]
    for horizon in ("1", "3"):
        assert cli.main(certify + ["--n", horizon]) == 65
    assert "horizon of at least 4" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "-1e-12"])
def test_nan_or_negative_tolerance_is_usage_error(files, capsys, value):
    # NaN would Reject every table in silence, a negative tolerance would
    # refuse every point; both are refused at parsing
    toy = ["--problem", files["toy"], "--point", "0"]
    cert = str(files["root"] / "tol.json")
    assert cli.main(["certify", *toy, "--force", "--out", cert]) == 0
    for argv in (["certify", *toy, "--force", "--n", "10", f"--tol-conv={value}"],
                 ["verify", *toy, "--certificate", cert, f"--tol-conv={value}"],
                 ["example-q", "--n", "10", f"--tol-conv={value}"]):
        assert cli.main(argv) == 64, argv
        assert "tolerance must be nonnegative" in capsys.readouterr().err
    # the feasibility tolerance is fixed: --tol-feas is an unknown flag
    assert cli.main(["check", *toy, "--grid", TOY_GRID, f"--tol-feas={value}"]) == 64
    assert "unrecognized arguments: --tol-feas" in capsys.readouterr().err


def test_overflowing_grid_span_is_rejected(files, capsys):
    # hi - lo = inf would put nan on the axis; the span is refused up front
    # like any other bad grid argument (usage error, 64), with no warning
    big = "2x2x2x2:[-1e308,1e308]x[-1,1]x[-1,1]x[-1,1]"
    base = ["--problem", files["toy"], "--point", "0"]
    assert cli.main(["check", *base, "--grid", big]) == 64
    err = capsys.readouterr().err
    assert "overflows" in err and "Warning" not in err
    assert cli.main(["check", *base, "--grid", "2:[-1e308,1e308]"]) == 64
    assert "overflows" in capsys.readouterr().err


def test_main_reuses_one_parser(files, capsys, monkeypatch):
    # the parser is built once per process; a call leaves nothing behind for
    # the next one, a usage error after a successful call still exits 64, and
    # a handler rebound after the build (as a tracer does) is the one called
    seen = []

    def spy(self, args=None, namespace=None):
        seen.append(self)
        return argparse.ArgumentParser.parse_args(self, args, namespace)

    monkeypatch.setattr(cli._Parser, "parse_args", spy)
    base = ["check", "--problem", files["toy"], "--grid", TOY_GRID, "--point"]
    assert cli.main(base + ["0"]) == 0
    assert cli.main(base + ["1"]) == 2
    assert cli.main(["check", "--problem", files["toy"]]) == 64
    assert "usage error" in capsys.readouterr().err
    monkeypatch.setattr(cli, "cmd_check", lambda args: 42)
    assert cli.main(base + ["0"]) == 42
    assert len(seen) == 4 and len(set(map(id, seen))) == 1


@pytest.mark.parametrize("command", ["check", "certify"])
def test_eps_ladder_beyond_underflow_is_usage_error(files, capsys, command):
    # 2^-1075 rounds to 0, so the bound must stop at 1074 (exit 64, not 70)
    base = [command, "--problem", files["toy"], "--point", "0", "--grid", TOY_GRID]
    for bound in ("1075", "5000", "-1"):
        assert cli.main(base + ["--eps-ladder", bound]) == 64
        assert "--eps-ladder" in capsys.readouterr().err
    if command == "check":
        assert cli.main(base + ["--eps-ladder", "1074"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"]["eps_witness"] == 1.0


def test_missing_problem_file(files, capsys):
    rc = cli.main(
        ["check", "--problem", str(files["root"] / "nope.json"),
         "--point", "0", "--grid", TOY_GRID]
    )
    assert rc == 64


def test_invalid_json_is_data_error(files, capsys):
    bad = files["root"] / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc = cli.main(
        ["check", "--problem", str(bad), "--point", "0", "--grid", TOY_GRID]
    )
    assert rc == 65
    assert "data error" in capsys.readouterr().err


def test_schema_violation_is_data_error(files, capsys):
    bad = files["root"] / "badschema.json"
    bad.write_text('{"n": 1}', encoding="utf-8")
    rc = cli.main(
        ["check", "--problem", str(bad), "--point", "0", "--grid", TOY_GRID]
    )
    assert rc == 65
    capsys.readouterr()


# ---------------------------------------------------------------------------
# certify and verify


def test_certify_verify_round_trip(files, capsys):
    cert_path = files["root"] / "toy43.cert.json"
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "0",
         "--grid", TOY_GRID, "--out", str(cert_path)]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["report"]["verdict"] == "Accept"
    assert doc["generation"]["trace_converged"] is True
    assert max(doc["generation"]["trace"]) <= 1e-9
    assert doc["pre_check"]["kind"] == "properly_efficient"
    assert doc["parametric_equivalence"] is True

    # written certificate re-loads byte-identically
    raw = json.loads(cert_path.read_text())
    assert certificate_to_json(certificate_from_json(raw)) == raw

    rc = cli.main(
        ["verify", "--problem", files["toy"], "--point", "0",
         "--certificate", str(cert_path)]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["report"]["verdict"] == "Accept"


@pytest.mark.parametrize("theorem", ["4.2", "4.4"])
def test_certify_transfers(files, capsys, theorem):
    cert_path = files["root"] / f"toy{theorem}.cert.json"
    # tol 1e-1 admits the epigraph scalar residual 6/N = 0.06 at N=100
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "0", "--force",
         "--theorem", theorem, "--n", "100", "--tol-conv", "1e-1",
         "--out", str(cert_path)]
    )
    capsys.readouterr()
    assert rc == 0
    assert json.loads(cert_path.read_text())["theorem"] == theorem
    rc = cli.main(
        ["verify", "--problem", files["toy"], "--point", "0",
         "--certificate", str(cert_path), "--tol-conv", "1e-1"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["report"]["theorem"] == theorem


def test_certify_without_out_embeds_certificate(files, capsys):
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "0", "--force",
         "--n", "20", "--tol-conv", "1e-1"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["certificate"]["theorem"] == "4.3"
    assert doc["certificate"]["N"] == 20
    assert doc["pre_check"] == "skipped (--force)" and "parametric_equivalence" not in doc


def test_certify_dominated_stops_at_precheck(files, capsys):
    cert_path = files["root"] / "never.cert.json"
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "1",
         "--grid", TOY_GRID, "--out", str(cert_path)]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["pre_check"]["kind"] == "dominated"
    # the reformulation's verdict, which henig_check computes with the ratio one
    assert doc["parametric_equivalence"] is True
    assert not cert_path.exists()


@pytest.mark.parametrize("command", ["check", "certify"])
def test_lattice_without_feasible_points_is_inconclusive(files, capsys, command):
    # no lattice point of [3, 4] is feasible: the oracle is inconclusive
    # (exit 3), and certify stops at its pre-check without writing --out
    cert_path = files["root"] / "inconclusive.cert.json"
    argv = [command, "--problem", files["toy"], "--point", "0", "--grid", "5:[3,4]"]
    rc = cli.main([*argv, "--out", str(cert_path)] if command == "certify" else argv)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 3
    verdict = doc["verdict" if command == "check" else "pre_check"]
    assert verdict["kind"] == "inconclusive" and verdict["reason"] == "no feasible samples"
    assert not cert_path.exists()


def test_certify_forced_at_dominated_point_rejects(files, capsys):
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "1",
         "--force", "--n", "50"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["report"]["verdict"] == "Reject"
    # the residual floor of the dominated point stays away from zero
    assert min(doc["generation"]["trace"][4:]) >= 1.5


def test_certify_needs_grid_or_force(files, capsys):
    rc = cli.main(["certify", "--problem", files["toy"], "--point", "0"])
    assert rc == 64
    assert "--force" in capsys.readouterr().err


def test_certify_q_requires_pin_vstar(files, capsys):
    rc = cli.main(
        ["certify", "--problem", files["q"], "--point", "0,0.5", "--force"]
    )
    assert rc == 64
    assert "vstar" in capsys.readouterr().err
    rc = cli.main(
        ["certify", "--problem", files["q"], "--point", "0,0.5", "--force",
         "--theorem", "4.2", "--pin-vstar", "--n", "100", "--tol-conv", "1e-1"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["report"]["verdict"] == "Accept"


def test_certify_with_explicit_lambda(files, capsys):
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "0", "--force",
         "--lambda", "2,1", "--n", "20", "--tol-conv", "1e-1"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["certificate"]["lambda"] == [2.0, 1.0]


def test_verify_truncated_certificate_is_data_error(files, capsys):
    _, cert = None, None
    rc = cli.main(
        ["certify", "--problem", files["toy"], "--point", "0", "--force",
         "--n", "20", "--tol-conv", "1e-1"]
    )
    doc = json.loads(capsys.readouterr().out)
    short = dict(doc["certificate"])
    short["entries"] = short["entries"][:3]
    short["N"] = 3
    path = files["root"] / "short.cert.json"
    serialization.dump_json(short, path)
    rc = cli.main(
        ["verify", "--problem", files["toy"], "--point", "0",
         "--certificate", str(path)]
    )
    assert rc == 65
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# kkt


def test_kkt_q_cq_fails(files, capsys):
    rc = cli.main(
        ["kkt", "--problem", files["q"], "--point", "0,0.5", "--grid", Q_GRID]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert doc["slater"] is False
    assert "sequential certificates" in doc["verdict"]


def test_kkt_toy_holds_and_fails(files, capsys):
    rc = cli.main(
        ["kkt", "--problem", files["toy"], "--point", "0", "--grid", TOY_GRID]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["verdict"] == "Holds"
    assert abs(doc["ystar"][0]) <= 1e-9

    rc = cli.main(
        ["kkt", "--problem", files["toy"], "--point", "1", "--grid", TOY_GRID]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["verdict"] == "Fails"
    assert "infeasible" in doc["reason"]


def test_kkt_at_a_rounded_efficient_point_holds(capsys):
    # the committed problem's efficient point rounded to 8 decimals: phase 1
    # ends with two artificials basic at a few 1e-9, and pivoting one out on
    # an entry of -1.3e-9 threw the basic values to -20.9 (exit 70).  The
    # multipliers must meet the KKT rows within the LP core's feasibility
    # tolerance: y* in Y*, <y*, h(x)> = 0 and 0 in the sum of the
    # subdifferentials (each within that tolerance) of f_i, nu_i*(-g_i),
    # y*_j h_j and the normal cone of C
    linprog = pytest.importorskip("scipy.optimize").linprog
    path = str(DATA / "orthant_nonneg.json")
    x = np.array([0.93416928, -0.08174417])
    rc = cli.main(["kkt", "--problem", path, "--point=0.93416928,-0.08174417", "--grid", PARITY_GRID])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["verdict"] == "Holds"
    prob = serialization.problem_from_json(serialization.load_json(path))
    ystar = np.array(doc["ystar"])
    tol = 100 * TOL_FEAS * (1.0 + np.abs(ystar).max())
    assert (prob.cone.G @ ystar >= -tol).all()
    assert abs(ystar @ prob.h_values(x)) <= tol
    # (gradient rows, gaps to the max, weight) per summand
    parts = []
    for f, neg_g in prob.objectives:
        nu = f(x) / -neg_g(x)
        parts += [(f.A, f(x) - (f.A @ x + f.b), 1.0), (neg_g.A, neg_g(x) - (neg_g.A @ x + neg_g.b), nu)]
    parts += [(h.A, h(x) - (h.A @ x + h.b), max(y, 0.0)) for h, y in zip(prob.hmap, ystar)]
    cols = sum(len(gaps) for _, gaps, _ in parts)
    C_rows, C_slack = prob.C.A, prob.C.b - prob.C.A @ x
    M = np.hstack([(w * A).T for A, _, w in parts] + [C_rows.T])
    A_eq = np.zeros((len(parts), cols + len(C_slack)))
    A_gap = np.zeros((len(parts) + 1, cols + len(C_slack)))
    k = 0
    for i, (_, gaps, _) in enumerate(parts):
        A_eq[i, k:k + len(gaps)] = 1.0
        A_gap[i, k:k + len(gaps)] = gaps
        k += len(gaps)
    A_gap[-1, k:] = C_slack
    res = linprog(np.zeros(M.shape[1]), A_ub=np.vstack([M, -M, A_gap]),
                  b_ub=np.full(2 * M.shape[0] + A_gap.shape[0], tol),
                  A_eq=A_eq, b_eq=np.ones(len(parts)), bounds=(0, None), method="highs")
    assert res.status == 0


# ---------------------------------------------------------------------------
# cone forms and problem data

DATA = pathlib.Path(__file__).parent / "data"
PARITY_POINT = "--point=0.9341692789968652,-0.08174416579588993"
PARITY_GRID = "41x41:[-1,1]x[-1,1]"
CERTIFY = ["--force", "--n", "12", "--tol-conv", "0.1"]


@pytest.mark.parametrize(
    "command",
    [["check", "--grid", PARITY_GRID],
     *(["certify", "--theorem", t, *CERTIFY] for t in ("4.2", "4.3", "4.4")),
     ["kkt", "--grid", PARITY_GRID]],
    ids=["check", "certify-4.2", "certify-4.3", "certify-4.4", "kkt"],
)
def test_orthant_forms_run_alike(tmp_path, monkeypatch, capsys, command):
    # the committed problem with its orthant written as nonneg_orthant and
    # as generators: equal exit codes, equal reports apart from their
    # timings, byte-identical certificate files
    runs = []
    for form in ("nonneg", "generators"):
        work = tmp_path / form
        work.mkdir()
        shutil.copy(DATA / f"orthant_{form}.json", work / "problem.json")
        monkeypatch.chdir(work)
        out = ["--out", "cert.json"] if command[0] == "certify" else []
        rc = cli.main([*command, "--problem", "problem.json", PARITY_POINT, *out])
        report = re.sub(r'"seconds": [^,}]*', "", capsys.readouterr().out)
        runs.append((rc, report, (work / "cert.json").read_bytes() if out else None))
    assert runs[0][0] in (0, 2)
    assert runs[0] == runs[1]


def test_whole_space_cone(files, capsys):
    # generators with both signs of each axis span R^2: no inequality rows
    doc = serialization.problem_to_json(cli._toy_problem())
    doc["h"] = doc["h"] * 2
    doc["cone"] = {"type": "generators", "vectors": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
    path = files["root"] / "whole_space.json"
    serialization.dump_json(doc, path)
    common = ["--problem", str(path), "--point", "0"]
    assert cli.main(["check", *common, "--grid", TOY_GRID]) == 0
    assert "properly_efficient" in capsys.readouterr().out
    assert cli.main(["certify", *common, "--theorem", "4.3", *CERTIFY]) == 0


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("check", ("cone",), {"type": "generators", "vectors": [[float("inf")]]}),
        ("check", ("cone",), {"type": "generators", "vectors": [[float("nan")]]}),
        ("check", ("h", 0, "pieces", 0, "a", 0), float("inf")),
        ("certify", ("h", 0, "pieces", 0, "a", 0), float("inf")),
        ("check", ("objectives", 0, "f", "pieces", 0, "a", 0), float("nan")),
    ],
    ids=["cone-inf", "cone-nan", "h-inf-check", "h-inf-certify", "f-nan"],
)
def test_non_finite_problem_data_is_a_data_error(files, capsys, command, path, value):
    # json reads NaN and Infinity tokens; the cone and function
    # constructors refuse them, so the load fails as malformed data
    doc = serialization.problem_to_json(cli._toy_problem())
    _set(doc, path, value)
    bad = files["root"] / "non_finite.json"
    bad.write_text(json.dumps(doc))
    extra = ["--grid", TOY_GRID] if command == "check" else CERTIFY
    rc = cli.main([command, "--problem", str(bad), "--point", "0", *extra])
    err = capsys.readouterr().err
    assert rc == 65
    assert "non-finite" in err


# ---------------------------------------------------------------------------
# example-q and selftest


def test_example_q_all_stages(files, capsys):
    out = files["root"] / "exq.json"
    rc = cli.main(["example-q", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "all five stages pass" in text
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert [s["stage"] for s in doc["stages"]] == [
        "ratio_values",
        "feasible_set_collapse",
        "interior_point_fails",
        "efficiency_verdict",
        "certificate_accept",
    ]


def test_example_q_tight_tolerance_fails_verify_stage(capsys):
    rc = cli.main(["example-q", "--tol-conv", "1e-5"])
    text = capsys.readouterr().out
    assert rc == 2
    assert "certificate_accept" in text.splitlines()[-1]


def test_selftest(capsys):
    rc = cli.main(["selftest"])
    assert rc == 0
    assert "selftest: ok" in capsys.readouterr().out
