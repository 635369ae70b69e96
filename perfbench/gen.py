"""Seeded inputs for the pipeline benchmark.

Problems follow one recipe: ``default_rng(seed)``, m=3 ratio objectives,
6 max-affine pieces per function, p=2 constraint components, C the box
[-1,1]^n and the nonnegative orthant as ordering cone.

Efficient candidates are computed with scipy's HiGHS, never with the
package under test: iterate x <- argmin sum_i f_i(x) - nu_i(x_prev) g_i(x)
over the feasible set until x minimizes its own parametric sum.  Such a
point is properly efficient, and its eps-certificates with lambda = 1 have
a zero dual residual.
"""

import argparse
import contextlib
import io
import json
import os
import sys

import numpy as np
from scipy.optimize import linprog

import check

M, PIECES, P = 3, 6, 2
FIXED_POINT_TOL = 1e-9


def draw_problem(rng, n):
    """Raw data: f, -g and h as (A, b) piece stacks, C as (A, b) rows."""
    f = [(rng.normal(size=(PIECES, n)), np.abs(rng.normal(size=PIECES)) + 1.0) for _ in range(M)]
    neg_g = [
        (0.1 * rng.normal(size=(PIECES, n)), -5.0 - np.abs(rng.normal(size=PIECES)))
        for _ in range(M)
    ]
    h = [(rng.normal(size=(PIECES, n)), -1.0 - np.abs(rng.normal(size=PIECES))) for _ in range(P)]
    box = (np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n))
    return {"n": n, "f": f, "neg_g": neg_g, "h": h, "C": box}


def _parametric_argmin(prob, nu):
    """argmin over the feasible set of sum_i f_i(x) + nu_i (-g_i)(x), by one
    epigraph LP in (x, t_1..t_m, s_1..s_m); returns (x, optimal value)."""
    n = prob["n"]
    nv = n + 2 * M
    rows, rhs = [], []
    for i, (A, b) in enumerate(prob["f"]):
        for a, c in zip(A, b):
            row = np.zeros(nv)
            row[:n], row[n + i] = a, -1.0
            rows.append(row)
            rhs.append(-c)
    for i, (A, b) in enumerate(prob["neg_g"]):
        for a, c in zip(A, b):
            row = np.zeros(nv)
            row[:n], row[n + M + i] = a, -1.0
            rows.append(row)
            rhs.append(-c)
    for A, b in prob["h"]:
        for a, c in zip(A, b):
            row = np.zeros(nv)
            row[:n] = a
            rows.append(row)
            rhs.append(-c)
    cost = np.concatenate([np.zeros(n), np.ones(M), nu])
    bounds = [(-1.0, 1.0)] * n + [(None, None)] * (2 * M)
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"parametric LP failed: {res.message}")
    return res.x[:n], res.fun


def efficient_point(prob, max_iter=50):
    """Fixed point of the parametric argmin, or None if the iteration stalls."""
    x = np.zeros(prob["n"])
    for _ in range(max_iter):
        nu = check.ratios(prob, x)[0]
        if (nu <= 0).any():
            return None
        y, val = _parametric_argmin(prob, nu)
        if val >= -FIXED_POINT_TOL:
            return x if check.feasible(prob, x)[0] else None
        x = y
    return None


def problem_json(prob):
    def fn(Ab):
        A, b = Ab
        return {"type": "max_affine", "pieces": [{"a": a.tolist(), "b": float(c)} for a, c in zip(A, b)]}

    n = prob["n"]
    return {
        "n": n,
        "objectives": [{"f": fn(f), "neg_g": fn(ng)} for f, ng in zip(prob["f"], prob["neg_g"])],
        "h": [fn(h) for h in prob["h"]],
        "cone": {"type": "nonneg_orthant", "dim": P},
        "C": {"n": n, "A": prob["C"][0].tolist(), "b": prob["C"][1].tolist()},
    }


def point_arg(x):
    """--point=<vec> keeps a leading minus sign from reading as a flag."""
    return "--point=" + ",".join(repr(float(v)) for v in x)


def make_problems(seed, n, count, workdir, tag):
    """``count`` problems with an efficient candidate each, written as JSON.

    Draws continue from the seeded stream until ``count`` problems have a
    fixed point with positive ratios; returns dicts with the raw data, the
    candidate and the file path.  Each file is loaded once through the
    package's own reader, as the CLI will load it."""
    from henigcert import serialization

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        prob = draw_problem(rng, n)
        xbar = efficient_point(prob)
        if xbar is None:
            continue
        path = os.path.join(workdir, f"{tag}-{len(out)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem_json(prob), fh)
        serialization.problem_from_json(serialization.load_json(path))
        out.append({"prob": prob, "xbar": xbar, "path": path})
    return out


# ---------------------------------------------------------------------------
# workloads: sizes, then the command list each one runs in a closed loop

SIZES = {
    "oracle-scan": {"n": 4, "problems": 48, "grid": 20},
    "certify-eps": {"n": 4, "problems": 48, "grid": 5, "N": 100, "theorems": ["4.3", "4.2"]},
    "certify-4.3": {"n": 4, "problems": 48, "grid": 5, "N": 100, "theorems": ["4.3"]},
    "verify-tables": {"n": 4, "problems": 5, "N": 200},
    "exact-transfer": {"dims": [2, 4, 2, 4, 2, 4, 2, 4], "N": 20},  # problem dimensions, in run order
}
SMOKE_SIZES = {
    "oracle-scan": {"n": 4, "problems": 1, "grid": 6},
    "certify-eps": {"n": 4, "problems": 1, "grid": 3, "N": 20, "tol_conv": "0.5",
                    "theorems": ["4.3", "4.2"]},
    "certify-4.3": {"n": 4, "problems": 1, "grid": 3, "N": 20, "tol_conv": "0.5", "theorems": ["4.3"]},
    "verify-tables": {"n": 4, "problems": 1, "N": 20, "tol_conv": "0.5"},
    "exact-transfer": {"dims": [2], "N": 4},
}
WORKLOADS = tuple(SIZES)


def grid_arg(counts, n):
    return f"{'x'.join([str(counts)] * n)}:{'x'.join(['[-1,1]'] * n)}"


def _tol_conv(size, theorem):
    """The 4.2 scalar residual is about (2m+2)/N, which fails the CLI default
    of 0.01 at N=100, so 4.2 runs at 0.1; smoke sizes loosen both."""
    return size.get("tol_conv") or ("0.1" if theorem == "4.2" else "0.01")


def _quiet_cli(argv):
    from henigcert import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _oracle_scan(seed, size, workdir):
    ops = []
    n = size["n"]
    grid = grid_arg(size["grid"], n)
    for g, p in enumerate(make_problems(seed, n, size["problems"], workdir, "p")):
        candidates = {"efficient": (p["xbar"], "properly_efficient"),
                      "dominated": (np.zeros(n), "dominated")}
        for kind, (x, expect) in candidates.items():
            ops.append({"group": g, "label": f"check-{kind}", "kind": "check", "problem": p["path"],
                        "point": x.tolist(), "expect": expect, "grid": size["grid"],
                        "points": size["grid"] ** n,
                        "argv": ["check", "--problem", p["path"], point_arg(x), "--grid", grid]})
    return ops, []


def _certify_eps(seed, size, workdir):
    ops = []
    grid = grid_arg(size["grid"], size["n"])
    for g, p in enumerate(make_problems(seed, size["n"], size["problems"], workdir, "p")):
        for theorem in size["theorems"]:
            out = os.path.join(workdir, f"cert-{g}-{theorem}.json")
            ops.append({"group": g, "label": f"certify-{theorem}", "kind": "certify",
                        "problem": p["path"], "point": p["xbar"].tolist(), "theorem": theorem,
                        "N": size["N"], "out": out,
                        "argv": ["certify", "--problem", p["path"], point_arg(p["xbar"]),
                                 "--grid", grid, "--theorem", theorem, "--n", str(size["N"]),
                                 "--out", out, "--tol-conv", _tol_conv(size, theorem)]})
    return ops, []


def _verify_tables(seed, size, workdir):
    from henigcert import certificates, serialization

    ops, problems = [], []
    for g, p in enumerate(make_problems(seed, size["n"], size["problems"], workdir, "p")):
        prob = serialization.problem_from_json(serialization.load_json(p["path"]))
        eps_cert, _ = certificates.generate_eps_certificate(prob, p["xbar"], N=size["N"])
        tables = {"4.3": eps_cert, "4.2": certificates.epi_from_eps(prob, p["xbar"], eps_cert)}
        raw = check.load_problem(p["path"])
        for theorem, cert in tables.items():
            path = os.path.join(workdir, f"table-{g}-{theorem}.json")
            doc = serialization.certificate_to_json(cert)
            serialization.dump_json(doc, path)
            problems += [f"table {path}: {c}" for c in check.check_table(raw, p["xbar"], doc, theorem, size["N"])]
            tol_conv = _tol_conv(size, theorem)
            ops.append({"group": g, "label": f"verify-{theorem}", "kind": "verify",
                        "problem": p["path"], "point": p["xbar"].tolist(), "theorem": theorem,
                        "N": size["N"], "certificate": path,
                        "accept": check.table_accepts(doc, theorem, float(tol_conv)),
                        "reference": check.reference_slacks(raw, p["xbar"], doc, theorem),
                        "argv": ["verify", "--problem", p["path"], point_arg(p["xbar"]),
                                 "--certificate", path, "--tol-conv", tol_conv]})
    return ops, problems


def _exact_transfer(seed, size, workdir):
    ops = []
    dims = size["dims"]
    pools = {n: iter(make_problems(seed, n, dims.count(n), workdir, f"n{n}")) for n in sorted(set(dims))}
    for g, n in enumerate(dims):
        p = next(pools[n])
        ref = os.path.join(workdir, f"ref-{g}.json")
        base = ["--problem", p["path"], point_arg(p["xbar"]), "--force", "--n", str(size["N"])]
        # the 4.3 table the transfer starts from, for the nearby-pair bounds;
        # if it fails, so does the transfer, which then counts as an error
        _quiet_cli(["certify", "--theorem", "4.3", "--out", ref] + base)
        out = os.path.join(workdir, f"exact-{g}.json")
        ops.append({"group": g, "label": f"certify-4.4-n{n}", "kind": "certify",
                    "problem": p["path"], "point": p["xbar"].tolist(), "theorem": "4.4",
                    "N": size["N"], "out": out, "reference_table": ref,
                    "argv": ["certify", "--theorem", "4.4", "--out", out] + base})
    return ops, []


BUILDERS = {
    "oracle-scan": _oracle_scan,
    "certify-eps": _certify_eps,
    "certify-4.3": _certify_eps,
    "verify-tables": _verify_tables,
    "exact-transfer": _exact_transfer,
}


def build(workload, seed, workdir, smoke=False):
    """Write every input of one workload run into workdir; return the manifest.

    The package is imported here, so that set-up time includes it."""
    import henigcert.cli  # noqa: F401

    size = (SMOKE_SIZES if smoke else SIZES)[workload]
    ops, problems = BUILDERS[workload](seed, size, workdir)
    return {"workload": workload, "seed": seed, "size": size, "ops": ops, "setup_problems": problems}


def main():
    ap = argparse.ArgumentParser(description="build the inputs of one benchmark workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True, help="directory that holds the henigcert package")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    manifest = build(args.workload, args.seed, args.workdir, args.smoke)
    with open(os.path.join(args.workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


if __name__ == "__main__":
    main()
