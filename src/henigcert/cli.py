"""Command-line entry points.

Commands: check | certify | verify | kkt | example-q | selftest.

Exit codes follow one fixed scheme across commands; ``_EXIT`` maps each
outcome word a command reports to its code, and no other place does:
    0   positive outcome (properly efficient / Accept / Holds / all stages pass)
    2   negative outcome (dominated / Reject / Fails / a stage failed)
    3   inconclusive outcome (oracle inconclusive, or the interior-point
        qualification fails so the classical multiplier route does not apply)
    64  usage errors: bad flags or flag values, unreadable input files,
        a candidate point that is infeasible, has a denominator near 0
        or (but for kkt) a negative ratio, an operation that needs
        --pin-vstar to proceed, or data the operation does not support
        (a restricted objective domain for certificates, a composite
        weight -vstar with a negative entry)
    65  data errors: malformed JSON, schema violations, dimension
        mismatches, certificates too short to apply the convergence rule
    70  internal errors: LP failures and anything unexpected

Reports are UTF-8 JSON.  By default the report goes to stdout; --out
writes it to a file and keeps stdout to a one-line summary.  For certify,
--out names the certificate file instead and the acceptance report stays
on stdout.  Tolerances are henigcert.tolerances' fixed values, but for
--tol-conv, whose default is the library's own, TOL_CONV = 1e-2.
"""

import argparse
import functools
import sys
import time

import numpy as np

from . import example_q, serialization
from .certificates import (
    FORMS,
    classical_kkt_check,
    converged,
    eps_to_exact,
    epi_from_eps,
    generate_eps_certificate,
    slater_check,
    transfer,
    verify_certificate,
)
from .cones import PolyhedralCone
from .convex import Polyhedron, PolyhedralFn
from .errors import (
    ConjugateUnsupported,
    DenominatorNearZero,
    DimensionMismatch,
    HenigcertError,
    HorizonTooShort,
    PointOutsideDomain,
    SchemaError,
    UnsupportedData,
    UnsupportedDomain,
)
from .fractional import FractionalProblem, candidate, feasible, henig_check
from .grids import GridSpec
from .tolerances import SELFTEST_TOL_CONV, TOL_CONV, TOL_FEAS

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

# 2^-k is a positive double up to k = 1074 and rounds to 0 beyond
MAX_LADDER_EXPONENT = 1074


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # negative-outcome code; route everything through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _horizon(text):
    # argparse reports an ArgumentTypeError as a bad flag value (usage error)
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"horizon {text!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"horizon must be at least 1, got {n}")
    return n


def _tolerance(text):
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is not a number") from None
    if not tol >= 0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"tolerance must be nonnegative, got {text}")
    return tol


def _parse_vector(text, what):
    parts = [t.strip() for t in text.split(",")]
    try:
        vals = [float(t) for t in parts if t != ""]
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}") from None
    if not vals:
        raise UsageError(f"empty {what} {text!r}")
    if not np.isfinite(vals).all():
        raise UsageError(f"{what} {text!r} has a non-finite entry")
    return np.array(vals)


def _parse_grid(text):
    try:
        return GridSpec.parse(text)
    except (SchemaError, DimensionMismatch) as exc:
        raise UsageError(str(exc)) from None


def _gamma_schedule(text, N):
    try:
        c, power = serialization.parse_closed_form(text)
    except SchemaError as exc:
        raise UsageError(str(exc)) from None
    n = np.arange(1, N + 1, dtype=float)
    gamma = c * n ** -float(power)
    if (gamma < 0).any():
        raise UsageError(f"gamma schedule {text!r} is negative")
    return gamma


def _load_problem(path):
    try:
        return serialization.problem_from_json(serialization.load_json(path))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_certificate(path):
    try:
        return serialization.certificate_from_json(serialization.load_json(path))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _grid_json(grid):
    return {
        "lows": list(grid.lows),
        "highs": list(grid.highs),
        "counts": list(grid.counts),
    }


def _verdict_json(v):
    return {
        "kind": v.kind,
        "eps_witness": v.eps_witness,
        "at_eps": v.at_eps,
        "counterexample": None if v.counterexample is None else list(v.counterexample),
        "reason": v.reason,
    }


def _ladder(args):
    if args.eps_ladder is None:
        return None
    if not 0 <= args.eps_ladder <= MAX_LADDER_EXPONENT:
        raise UsageError(
            f"--eps-ladder must be an exponent bound from 0 to {MAX_LADDER_EXPONENT}"
        )
    return tuple(2.0 ** -k for k in range(args.eps_ladder + 1))


# the one map from a command's outcome word to its exit code
_EXIT = {
    **dict.fromkeys(("properly_efficient", "Accept", "Holds", "pass"), EXIT_OK),
    **dict.fromkeys(("dominated", "Reject", "Fails", "FAIL"), EXIT_NEGATIVE),
    **dict.fromkeys(("inconclusive", "CQ fails - use sequential certificates"), EXIT_INCONCLUSIVE),
}


def _finish(doc, outcome, out=None):
    """Write the report ``doc`` to ``out`` with a one-line summary on stdout,
    or else to stdout; the exit code of ``outcome``."""
    if out:
        serialization.dump_json(doc, out)
        print(f"{doc['command']}: {outcome} (report: {out})")
    else:
        serialization.dump_json_stream(doc, sys.stdout)
    return _EXIT[outcome]


def _lambda(args, m):
    # checked before any work, so that a bad --lambda fails on every path
    if args.lam is None:
        return None
    lam = _parse_vector(args.lam, "lambda")
    if (lam <= 0).any():
        raise UsageError(f"lambda {args.lam!r} has a weight that is not strictly positive")
    if lam.shape[0] != m:
        raise DimensionMismatch("lambda length does not match objective count")
    return lam


def cmd_check(args):
    prob = _load_problem(args.problem)
    point = _parse_vector(args.point, "point")
    grid = _parse_grid(args.grid)
    ladder = _ladder(args)
    cand = candidate(prob, point)
    t0 = time.perf_counter()
    verdict, equiv = henig_check(prob, cand, grid, ladder)
    doc = {
        "command": "check",
        "problem": args.problem,
        "point": list(point),
        "grid": _grid_json(grid),
        "verdict": _verdict_json(verdict),
        "parametric_equivalence": equiv,
        "tol_feas": TOL_FEAS,
        "seconds": time.perf_counter() - t0,
    }
    return _finish(doc, verdict.kind, args.out)


def _generate_and_transfer(prob, cand, lam, gamma, args):
    eps_cert, trace = generate_eps_certificate(
        prob, cand, lam=lam, gamma=gamma, pin_vstar=args.pin_vstar
    )
    cert = transfer(prob, cand, eps_cert, args.theorem)
    return cert, trace, verify_certificate(prob, cand, cert, tol_conv=args.tol_conv)


def cmd_certify(args):
    prob = _load_problem(args.problem)
    point = _parse_vector(args.point, "point")
    lam, gamma = _lambda(args, prob.m), _gamma_schedule(args.gamma, args.n)
    if args.grid is None and not args.force:
        raise UsageError("certify needs --grid for the pre-check (or --force)")
    # --grid and --eps-ladder are parsed with --force too, which ignores them
    grid = None if args.grid is None else _parse_grid(args.grid)
    ladder = _ladder(args)
    cand = candidate(prob, point)
    t0 = time.perf_counter()
    doc = {
        "command": "certify",
        "problem": args.problem,
        "point": list(point),
        "theorem": args.theorem,
        "N": args.n,
        "gamma": args.gamma,
        "tol_conv": args.tol_conv,
    }
    if args.force:
        doc["pre_check"] = "skipped (--force)"
    else:
        verdict, equiv = henig_check(prob, cand, grid, ladder)
        doc["pre_check"] = _verdict_json(verdict)
        doc["parametric_equivalence"] = equiv
        doc["grid"] = _grid_json(grid)
        if verdict.kind != "properly_efficient":
            # no certificate to write, so --out stays untouched
            doc["seconds"] = time.perf_counter() - t0
            return _finish(doc, verdict.kind)
    cert, trace, report = _generate_and_transfer(prob, cand, lam, gamma, args)
    doc["generation"] = {
        "trace": trace,
        "trace_converged": converged(trace, args.tol_conv),
    }
    doc["report"] = serialization.report_to_json(report)
    doc["seconds"] = time.perf_counter() - t0
    cert_json = serialization.certificate_to_json(cert)
    if args.out:
        serialization.dump_json(cert_json, args.out)
        doc["certificate_file"] = args.out
    else:
        doc["certificate"] = cert_json
    return _finish(doc, report.verdict)


def cmd_verify(args):
    prob = _load_problem(args.problem)
    point = _parse_vector(args.point, "point")
    cert = _load_certificate(args.certificate)
    cand = candidate(prob, point)
    t0 = time.perf_counter()
    report = verify_certificate(prob, cand, cert, tol_conv=args.tol_conv)
    doc = {
        "command": "verify",
        "problem": args.problem,
        "point": list(point),
        "certificate": args.certificate,
        "report": serialization.report_to_json(report),
        "seconds": time.perf_counter() - t0,
    }
    return _finish(doc, report.verdict, args.out)


def cmd_kkt(args):
    prob = _load_problem(args.problem)
    point = _parse_vector(args.point, "point")
    grid = _parse_grid(args.grid)
    lam = _lambda(args, prob.m)
    # the ratios only after the interior-point search, in classical_kkt_check
    if not feasible(prob, point):
        raise PointOutsideDomain(f"candidate point is not feasible within tol_feas={TOL_FEAS:g}")
    t0 = time.perf_counter()
    slater = slater_check(prob, grid)
    doc = {
        "command": "kkt",
        "problem": args.problem,
        "point": list(point),
        "grid": _grid_json(grid),
        "slater": slater,
    }
    if not slater:
        doc["verdict"] = "CQ fails - use sequential certificates"
    else:
        result = classical_kkt_check(prob, point, lam=lam)
        doc["verdict"] = "Holds" if result.holds else "Fails"
        doc["ystar"] = None if result.ystar is None else list(result.ystar)
        doc["reason"] = result.reason
    doc["seconds"] = time.perf_counter() - t0
    return _finish(doc, doc["verdict"], args.out)


def cmd_example_q(args):
    grid = _parse_grid(args.grid) if args.grid else example_q.DEFAULT_GRID
    rep = example_q.run(N=args.n, tol_conv=args.tol_conv, grid=grid)
    for k, stage in enumerate(rep["stages"], 1):
        status = "pass" if stage["ok"] else "FAIL"
        extra = ""
        if stage["stage"] == "certificate_accept":
            extra = (
                f" dual={stage['dual_residual_last']:.3e}"
                f" y={stage['y_residual_max']:.3e}"
                f" scalar={stage['scalar_residual_last']:.3e}"
            )
        print(
            f"[{k}/5] {stage['stage']}: {status}{extra} ({stage['seconds']:.2f}s)"
        )
    doc = {"command": "example-q", **rep}
    if args.out:
        serialization.dump_json(doc, args.out)
        print(f"report: {args.out}")
    if rep["ok"]:
        print("example-q: all five stages pass")
    else:
        failing = [s["stage"] for s in rep["stages"] if not s["ok"]]
        print(f"example-q: failing stages: {', '.join(failing)}")
    return _EXIT["pass" if rep["ok"] else "FAIL"]


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


def cmd_selftest(args):
    t0 = time.perf_counter()
    prob = _toy_problem()
    xbar = candidate(prob, np.zeros(1))
    checks = []

    grid = GridSpec(lows=(-1.0,), highs=(1.0,), counts=(201,))
    verdict = henig_check(prob, xbar, grid)[0]
    checks.append(("oracle at the minimizer", verdict.kind == "properly_efficient"))

    eps_cert, trace = generate_eps_certificate(prob, xbar, N=100)
    checks.append(("generated residuals vanish", float(np.max(trace)) <= 1e-9))
    rep = verify_certificate(prob, xbar, eps_cert, tol_conv=SELFTEST_TOL_CONV)
    checks.append(("subdifferential form accepted", rep.verdict == "Accept"))

    for name, move in (("epigraph", epi_from_eps), ("exact", eps_to_exact)):
        rep = verify_certificate(prob, xbar, move(prob, xbar, eps_cert), tol_conv=SELFTEST_TOL_CONV)
        checks.append((f"{name} form accepted", rep.verdict == "Accept"))

    kkt = classical_kkt_check(prob, xbar)
    checks.append(("multiplier check holds", kkt.holds))

    ok = all(flag for _, flag in checks)
    for name, flag in checks:
        print(f"selftest: {name}: {'pass' if flag else 'FAIL'}")
    print(f"selftest: {'ok' if ok else 'FAILED'} ({time.perf_counter() - t0:.2f}s)")
    return _EXIT["pass" if ok else "FAIL"]


def _add_common(p, problem=True, point=True):
    if problem:
        p.add_argument("--problem", required=True, help="problem JSON file")
    if point:
        p.add_argument("--point", required=True, help="candidate point, e.g. 0,0.5")
    p.add_argument("--out", help="write the main output file here")


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    top = _Parser(prog="henigcert", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[], help="grid oracle for proper efficiency")
    _add_common(p)
    p.add_argument("--grid", required=True, help='e.g. "201x201:[0,10]x[0,1]"')
    p.add_argument("--eps-ladder", type=int, help="largest ladder exponent k (eps down to 2^-k)")

    p = sub.add_parser("certify", help="generate a certificate at a candidate point")
    _add_common(p)
    p.add_argument("--theorem", choices=sorted(FORMS), default="4.3")
    p.add_argument("--lambda", dest="lam", help="scalarization weights, e.g. 1,1")
    p.add_argument("--gamma", default="1/n", help="schedule: c, c/n or c/n^2")
    p.add_argument("--n", type=_horizon, default=100, help="horizon N")
    p.add_argument("--grid", help="pre-check grid (required unless --force)")
    p.add_argument("--eps-ladder", type=int)
    p.add_argument("--tol-conv", type=_tolerance, default=TOL_CONV)
    p.add_argument("--pin-vstar", action="store_true", help="fix vstar = 0")
    p.add_argument("--force", action="store_true", help="skip the oracle pre-check")

    p = sub.add_parser("verify", help="verify a certificate file")
    _add_common(p)
    p.add_argument("--certificate", required=True, help="certificate JSON file")
    p.add_argument("--tol-conv", type=_tolerance, default=TOL_CONV)

    p = sub.add_parser("kkt", help="interior-point qualification plus multiplier check")
    _add_common(p)
    p.add_argument("--grid", required=True, help="grid for the interior-point search")
    p.add_argument("--lambda", dest="lam")

    p = sub.add_parser("example-q", help="run the embedded worked example")
    p.add_argument("--n", type=_horizon, default=1000)
    p.add_argument("--tol-conv", type=_tolerance, default=TOL_CONV)
    p.add_argument("--grid", help="override the default 201x201 grid")
    p.add_argument("--out", help="write the JSON report here")

    sub.add_parser("selftest", help="quick end-to-end smoke test")

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # the handler is looked up per call, not kept in the cached parser,
        # so a rebinding of a cmd_* function in this module takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, PointOutsideDomain, DenominatorNearZero, ConjugateUnsupported,
            UnsupportedData, UnsupportedDomain) as exc:
        print(f"henigcert: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, DimensionMismatch, HorizonTooShort) as exc:
        print(f"henigcert: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except HenigcertError as exc:
        print(f"henigcert: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # last resort, keep the exit-code contract
        print(f"henigcert: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
