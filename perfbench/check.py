"""Output checks that do not use the package under test.

Problems are parsed straight from their JSON files, conjugates and support
functions are solved with scipy's HiGHS, and the rest is numpy.  Every
check returns a list of complaints; an empty list means the output is
correct.
"""

import json

import numpy as np
from scipy.optimize import linprog

TOL = 1e-6          # membership slack allowed on top of the program's 1e-7
TOL_SLACK = 1e-6    # agreement between a reported slack and ours
VSTAR_ZERO = 1e-12  # a composite weight vector this small is the zero function
CONE_TOL = 1e-9


def load_problem(path):
    """Raw arrays of a max-affine problem file: f, neg_g, h as (A, b) pairs."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def fn(obj):
        return (np.array([p["a"] for p in obj["pieces"]], float),
                np.array([p["b"] for p in obj["pieces"]], float))

    return {
        "n": int(doc["n"]),
        "f": [fn(o["f"]) for o in doc["objectives"]],
        "neg_g": [fn(o["neg_g"]) for o in doc["objectives"]],
        "h": [fn(h) for h in doc["h"]],
        "C": (np.array(doc["C"]["A"], float), np.array(doc["C"]["b"], float)),
    }


def max_affine(Ab, X):
    """Values of max_k <A_k, x> + b_k at the rows of X (or at one point)."""
    A, b = Ab
    return (np.atleast_2d(X) @ A.T + b).max(axis=1)


def ratios(prob, X):
    """(rows, m) ratio values f_i/g_i."""
    return np.column_stack([max_affine(f, X) / -max_affine(g, X) for f, g in zip(prob["f"], prob["neg_g"])])


def feasible(prob, X, tol=1e-9):
    """Row mask: in C and h <= 0 within tol."""
    A, b = prob["C"]
    X = np.atleast_2d(X)
    ok = (X @ A.T <= b + tol).all(axis=1)
    for h in prob["h"]:
        ok &= max_affine(h, X) <= tol
    return ok


def conj_weighted(fns, weights, s):
    """Conjugate of sum_j weights[j] * max_affine(fns[j]) at s, by one LP in
    (x, t_1..t_k): max <s,x> - sum w_j t_j  s.t.  A_j x + b_j <= t_j."""
    s = np.asarray(s, float)
    live = [(Ab, w) for Ab, w in zip(fns, weights) if w > 0]
    if not live:
        return 0.0 if np.abs(s).max(initial=0.0) <= 1e-9 else np.inf
    n, k = s.shape[0], len(live)
    rows, rhs = [], []
    for j, ((A, b), _) in enumerate(live):
        block = np.zeros((A.shape[0], n + k))
        block[:, :n] = A
        block[:, n + j] = -1.0
        rows.append(block)
        rhs.append(-b)
    cost = np.concatenate([-s, [w for _, w in live]])
    res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  bounds=[(None, None)] * (n + k), method="highs")
    if res.status == 3:
        return np.inf
    if res.status != 0:
        raise RuntimeError(f"conjugate LP: {res.message}")
    return float(-res.fun)


def support(C, s):
    A, b = C
    res = linprog(-np.asarray(s, float), A_ub=A, b_ub=b, bounds=[(None, None)] * A.shape[1],
                  method="highs")
    if res.status == 3:
        return np.inf
    if res.status != 0:
        raise RuntimeError(f"support LP: {res.message}")
    return float(-res.fun)


def _blocks(prob, xbar, lam):
    """(label, fns, weights) for the scaled summands lam_i f_i and
    lam_i nu_i (-g_i) at xbar, matching the certificate field order."""
    nu = ratios(prob, xbar)[0]
    f = [(f"f[{i}]", [Ab], [lam[i]]) for i, Ab in enumerate(prob["f"])]
    w = [(f"w[{i}]", [Ab], [lam[i] * nu[i]]) for i, Ab in enumerate(prob["neg_g"])]
    return f, w


def _value(fns, weights, x):
    return sum(w * max_affine(Ab, x)[0] for Ab, w in zip(fns, weights) if w != 0)


def _composite_weights(vstar):
    vstar = np.asarray(vstar, float)
    if np.abs(vstar).max(initial=0.0) <= VSTAR_ZERO:
        return np.zeros_like(vstar)
    return np.maximum(-vstar, 0.0)


def sample_entries(N):
    return sorted({0, N - 1})


# ---------------------------------------------------------------------------
# oracle verdicts


def lattice_dominates(prob, x0, counts, chunk=1 << 16):
    """Is some feasible point of the ``counts``^n lattice on [-1,1]^n strictly
    better than x0 in every ratio?  When one is, 'dominated' is the only
    correct oracle verdict at x0 on that grid."""
    r0 = ratios(prob, np.asarray(x0, float)[None])[0]
    axes = np.linspace(-1.0, 1.0, counts)
    n = prob["n"]
    total = counts ** n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        X = axes[np.stack(np.unravel_index(idx, (counts,) * n), axis=1)]
        X = X[feasible(prob, X)]
        if len(X) and (ratios(prob, X) < r0 - 1e-9).all(axis=1).any():
            return True
    return False


def check_verdict(prob, xbar, expect, doc):
    """``expect`` is the verdict the seeded construction guarantees."""
    v = doc["verdict"]
    out = []
    if v["kind"] != expect:
        out.append(f"verdict {v['kind']}, expected {expect}")
    if doc.get("parametric_equivalence") is not True:
        out.append("ratio problem and reformulation disagree")
    if v["kind"] == "dominated":
        x = np.array(v["counterexample"], float)
        eps = float(v["at_eps"])
        d = ratios(prob, x)[0] - ratios(prob, xbar)[0]
        if not feasible(prob, x)[0]:
            out.append("counterexample is not feasible")
        if np.abs(d).max() <= 1e-12 or (d + eps * d.sum()).max() > CONE_TOL:
            out.append(f"counterexample ratio difference {d.tolist()} is not in -K_eps* at eps={eps:g}")
    return out


# ---------------------------------------------------------------------------
# certificates


def eps_slacks(prob, xbar, cert, k):
    """Our slacks of entry k of a 4.3 table, keyed like the verifier's report."""
    xbar = np.asarray(xbar, float)
    lam = np.asarray(cert["lambda"], float)
    e = cert["entries"][k]
    g = float(e["gamma"])
    f_blocks, w_blocks = _blocks(prob, xbar, lam)
    sl = {}
    for (name, fns, ws), star in zip(f_blocks, e["xstar"]):
        sl[f"subdiff_{name}"] = g - (conj_weighted(fns, ws, star) + _value(fns, ws, xbar) - np.dot(star, xbar))
    for (name, fns, ws), star in zip(w_blocks, e["wstar"]):
        sl[f"subdiff_{name}"] = g - (conj_weighted(fns, ws, star) + _value(fns, ws, xbar) - np.dot(star, xbar))
    sl["normal_C"] = g - (support(prob["C"], e["cstar"]) - np.dot(e["cstar"], xbar))
    hbar = np.array([max_affine(h, xbar)[0] for h in prob["h"]])
    ystar = np.array(e["ystar"], float)
    sl["normal_Y"] = min(ystar.min(), g + ystar @ hbar)
    sl["vstar_polar"] = float((-np.array(e["vstar"], float)).min())
    w = _composite_weights(e["vstar"])
    sl["subdiff_comp"] = g - (conj_weighted(prob["h"], w, e["ustar"]) + _value(prob["h"], w, xbar)
                              - np.dot(e["ustar"], xbar))
    return sl


def epi_slacks(prob, xbar, cert, k):
    """Our slacks of entry k of a 4.2 table, keyed like the verifier's report."""
    xbar = np.asarray(xbar, float)
    lam = np.asarray(cert["lambda"], float)
    e = cert["entries"][k]
    f_blocks, w_blocks = _blocks(prob, xbar, lam)
    sl = {}
    for i, (name, fns, ws) in enumerate(f_blocks):
        sl[f"epi_{name}"] = e["a"][i] - conj_weighted(fns, ws, e["xstar"][i])
    for i, (name, fns, ws) in enumerate(w_blocks):
        sl[f"epi_{name}"] = e["b"][i] - conj_weighted(fns, ws, e["wstar"][i])
    sl["epi_C"] = e["d"] - support(prob["C"], e["cstar"])
    sl["ystar_polar"] = float(np.min(e["ystar"]))
    sl["s_nonneg"] = float(e["s"])
    sl["vstar_polar"] = float((-np.array(e["vstar"], float)).min())
    w = _composite_weights(e["vstar"])
    sl["epi_comp"] = e["t"] - conj_weighted(prob["h"], w, e["ustar"])
    return sl


SLACKS = {"4.3": eps_slacks, "4.2": epi_slacks}


def converged(trace, tol_conv, jitter=1e-9):
    """The documented finite-horizon rule: last value within tol_conv and
    the last ceil(N/2) values non-increasing up to jitter."""
    trace = np.asarray(trace, float)
    tail = trace[-int(np.ceil(len(trace) / 2)):]
    return bool(trace[-1] <= tol_conv and not (np.diff(tail) > jitter).any())


def table_accepts(cert, theorem, tol_conv):
    """Does the convergence rule accept the residual traces of a 4.3 or 4.2
    table?  (Memberships are checked separately, on sampled entries.)"""
    def field(name):
        return np.array([e[name] for e in cert["entries"]], float)

    dual = np.abs(field("xstar").sum(axis=1) + field("wstar").sum(axis=1)
                  + field("cstar") + field("ustar")).max(axis=1)
    y = np.abs(field("ystar") + field("vstar")).max(axis=1)
    if theorem == "4.3":
        scalar = field("gamma")
    else:
        scalar = np.abs(field("a").sum(axis=1) + field("b").sum(axis=1) + field("d") + field("s") + field("t"))
    return all(converged(tr, tol_conv) for tr in (dual, y, scalar))


def check_table(prob, xbar, cert, theorem, N):
    """Memberships of the sampled entries of a 4.3 or 4.2 table."""
    out = []
    if cert.get("theorem") != theorem or len(cert.get("entries", ())) != N:
        return [f"certificate is not a {theorem} table of {N} entries"]
    for k in sample_entries(N):
        for name, s in SLACKS[theorem](prob, xbar, cert, k).items():
            if not s >= -TOL:
                out.append(f"entry n={k + 1}: {name} slack {s:.3e}")
    return out


def reference_slacks(prob, xbar, cert, theorem):
    """{entry index: our slacks} for the sampled entries of a table."""
    return {k: SLACKS[theorem](prob, xbar, cert, k) for k in sample_entries(len(cert["entries"]))}


def check_reported_slacks(reference, report):
    """The verifier's slacks at the sampled entries must match ours."""
    out = []
    for k, ours in reference.items():
        for name, s in ours.items():
            theirs = report["slacks"][name][int(k)]
            theirs = -np.inf if theirs is None else theirs
            if not (abs(theirs - s) <= TOL_SLACK * (1.0 + abs(s)) or (np.isinf(s) and theirs == s)):
                out.append(f"entry n={int(k) + 1}: {name} slack {theirs} reported, {s} recomputed")
    return out


def check_exact(prob, xbar, cert, ref):
    """Exact memberships at nearby points and the Brondsted-Rockafellar
    bounds against the 4.3 table ``ref`` that the transfer started from:
    ||x - xbar|| <= sqrt(g), ||x* - xbar*|| <= sqrt(g), gap <= 2 g."""
    xbar = np.asarray(xbar, float)
    lam = np.asarray(cert["lambda"], float)
    N = len(ref["entries"])
    if cert.get("theorem") != "4.4" or len(cert.get("entries", ())) != N:
        return [f"certificate is not a 4.4 table of {N} entries"]
    f_blocks, w_blocks = _blocks(prob, xbar, lam)
    out = []
    for k in sample_entries(N):
        e, r = cert["entries"][k], ref["entries"][k]
        g = float(r["gamma"])
        root = np.sqrt(g) * (1 + 1e-9)
        pairs = [(blk, e["x"][i], e["xstar"][i], r["xstar"][i]) for i, blk in enumerate(f_blocks)]
        pairs += [(blk, e["w"][i], e["wstar"][i], r["wstar"][i]) for i, blk in enumerate(w_blocks)]
        for (name, fns, ws), x, xs, xs0 in pairs:
            x, xs = np.array(x, float), np.array(xs, float)
            fx = _value(fns, ws, x)
            gap = conj_weighted(fns, ws, xs) + fx - xs @ x
            value_gap = abs(fx - _value(fns, ws, xbar) - xs @ (x - xbar))
            if gap > TOL:
                out.append(f"entry n={k + 1}: {name} is not an exact subgradient (gap {gap:.3e})")
            if np.linalg.norm(x - xbar) > root or np.linalg.norm(xs - np.array(xs0)) > root:
                out.append(f"entry n={k + 1}: {name} pair is farther than sqrt(gamma)")
            if value_gap > 2 * g * (1 + 1e-9):
                out.append(f"entry n={k + 1}: {name} value gap {value_gap:.3e} above 2 gamma")
        c, cs = np.array(e["c"], float), np.array(e["cstar"], float)
        A, b = prob["C"]
        if (A @ c > b + CONE_TOL).any() or support(prob["C"], cs) - cs @ c > TOL:
            out.append(f"entry n={k + 1}: cstar is not a normal of C at c")
        if (np.linalg.norm(c - xbar) > root or np.linalg.norm(cs - np.array(r["cstar"])) > root
                or abs(cs @ (c - xbar)) > 2 * g * (1 + 1e-9)):
            out.append(f"entry n={k + 1}: set_C pair breaks a nearby-pair bound")
    return out
