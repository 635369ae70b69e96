"""Pipeline benchmark of the henigcert command line.

    python3 perfbench/run.py --workload oracle-scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One client runs CLI commands one after another in this process
(``henigcert.cli.main(argv)``, stdout captured) over inputs built from the
seed, and checks every output without the package (see check.py).  The
last stdout line is one JSON object: with ``--trace 0`` its metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones of a traced run.
README.md in this directory defines every name.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 170
ERROR_EXITS = (64, 65, 70)


def _setup(args, work):
    """Build the inputs in fresh processes, SETUP_REPEATS times (once when
    tracing); returns the set-up seconds and the last manifest."""
    times = []
    for rep in range(1 if args.trace else SETUP_REPEATS):
        d = os.path.join(work, f"rep{rep}")
        os.mkdir(d)
        cmd = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", d, "--src", SRC] + (["--smoke"] if args.smoke else [])
        t0 = perf_counter()
        done = subprocess.run(cmd, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"input set-up failed with exit {done.returncode}")
    with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
        return times, json.load(fh)


def _environment(args):
    import numpy
    import scipy

    import henigcert

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "henigcert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "backend": henigcert.BACKEND, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "seed": args.seed,
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


class Client:
    """Runs manifest commands through the CLI and checks what they output."""

    def __init__(self):
        import check
        from henigcert import cli

        self.cli, self.check = cli, check
        self._problems = {}

    def problem(self, path):
        if path not in self._problems:
            self._problems[path] = self.check.load_problem(path)
        return self._problems[path]

    def execute(self, op):
        """One timed CLI command; returns (seconds, exit code, stdout, stderr)."""
        if "out" in op and os.path.exists(op["out"]):
            os.remove(op["out"])
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op["argv"])
        except Exception as exc:  # a raise is a failed command, not a benchmark crash
            rc = f"raised {exc!r}"
        return perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    def judge(self, op, rc, stdout, stderr):
        """(status, notes, entries, certificate bytes) of one finished command.

        status is ok; error (raised, or exit 64, 65 or 70); miss (completed
        without the outcome its inputs call for, such as Reject on an
        efficient candidate); or wrong (an output the checks refute)."""
        if not isinstance(rc, int) or rc in ERROR_EXITS:
            return "error", [f"exit {rc}: {stderr.strip()[-300:]}"], 0, 0
        check, prob, x = self.check, self.problem(op["problem"]), op["point"]
        try:
            doc = json.loads(stdout)
            if op["kind"] == "check":
                expect, kind = op["expect"], doc["verdict"]["kind"]
                if expect == "dominated" and kind != expect and not check.lattice_dominates(
                        prob, x, op["grid"]):
                    expect = kind  # no lattice point beats x strictly: the verdict is not provably wrong
                bad = check.check_verdict(prob, x, expect, doc)
                want = {"properly_efficient": 0, "dominated": 2}.get(kind, 3)
                bad += [f"exit {rc} for verdict {kind}"] if rc != want else []
                return ("wrong" if bad else "ok"), bad, 0, 0
            if op["kind"] == "verify":
                want = 0 if op["accept"] else 2
                bad = check.check_reported_slacks(op["reference"], doc["report"])
                bad += [f"exit {rc}, the convergence rule gives {want}"] if rc != want else []
                return ("wrong" if bad else "ok"), bad, op["N"], os.path.getsize(op["certificate"])
            pre = doc["pre_check"] if op["theorem"] != "4.4" else {"kind": "properly_efficient"}
            if pre["kind"] != "properly_efficient":
                status = "wrong" if pre["kind"] == "dominated" else "miss"
                return status, [f"pre-check verdict {pre['kind']} on an efficient candidate"], 0, 0
            with open(op["out"], encoding="utf-8") as fh:
                cert = json.load(fh)
            if op["theorem"] == "4.4":
                with open(op["reference_table"], encoding="utf-8") as fh:
                    bad = check.check_exact(prob, x, cert, json.load(fh))
            else:
                bad = check.check_table(prob, x, cert, op["theorem"], op["N"])
            size = os.path.getsize(op["out"])
            if bad:
                return "wrong", bad, 0, size
            if rc != 0 and op["theorem"] != "4.4":  # short 4.4 horizons cannot converge
                return "miss", [f"exit {rc}: " + "; ".join(doc["report"]["reasons"])], 0, size
            return "ok", [], op["N"], size
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return "wrong", [f"unreadable output: {exc!r}"], 0, 0


def _loop(args, manifest, client, tracer):
    """Closed loop over the manifest's groups until the time is up; a group
    (all commands on one problem) always runs whole."""
    groups = {}
    for op in manifest["ops"]:
        groups.setdefault(op["group"], []).append(op)
    order = list(groups.values())
    for i, op in enumerate(manifest["ops"]):
        op["index"] = i
    records = []
    deadline = perf_counter() + args.seconds
    g = 0
    while True:
        for op in order[g % len(order)]:
            rec = {"op": op["index"], "group": op["group"], "label": op["label"], "points": op.get("points", 0)}
            if tracer is None:
                rec["s"], rc, stdout, stderr = client.execute(op)
            else:
                # plain and traced run of the same command, in alternating order
                for traced in ((False, True) if len(records) % 2 == 0 else (True, False)):
                    if traced:
                        tracer.command = len(records)
                        tracer.install()
                        try:
                            rec["traced_s"], rc_t, _, _ = client.execute(op)
                        finally:
                            tracer.uninstall()
                    else:
                        rec["s"], rc, stdout, stderr = client.execute(op)
            rec["rc"] = rc
            rec["status"], rec["notes"], rec["entries"], rec["cert_bytes"] = client.judge(op, rc, stdout, stderr)
            if tracer is not None and rc_t != rc:
                rec["status"] = "wrong"
                rec["notes"].append(f"traced run exited {rc_t}, plain run {rc}")
            records.append(rec)
        g += 1
        if (g >= len(order)) if args.smoke else (perf_counter() >= deadline):
            return records


def _op_p50(records):
    """Median over the run's problems of the mean command time on each one,
    where a command's time is its median over repeats.  Averaging within a
    problem first keeps a workload that mixes a cheap and a dear command per
    problem (efficient and dominated checks) from reporting the gap between
    the two clusters."""
    per_op, group_of = {}, {}
    for r in records:
        per_op.setdefault(r["op"], []).append(r["s"])
        group_of[r["op"]] = r["group"]
    per_group = {}
    for op, times in per_op.items():
        per_group.setdefault(group_of[op], []).append(statistics.median(times))
    return statistics.median(statistics.mean(v) for v in per_group.values())


def _shared_metrics(records):
    """Throughput and failure metrics of the plain (untraced) runs."""
    check_s = sum(r["s"] for r in records if r["points"])
    cert_s = sum(r["s"] for r in records if not r["points"])
    failed = sum(1 for r in records if r["status"] != "ok")
    return {
        "lattice_pts_per_s": (sum(r["points"] for r in records) / check_s if check_s else None, "points/s"),
        "entries_per_s": (sum(r["entries"] for r in records) / cert_s if cert_s else None, "entries/s"),
        "failed_share": (failed / len(records), "ratio"),
    }


def _print_table(metrics, notes):
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:44s} {shown:>14s} {unit:10s} {notes.get(name, '')}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="oracle-scan, certify-4.3, certify-eps, verify-tables or exact-transfer")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest inputs, one pass over them")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "henigcert", "__init__.py")):
        print(f"perfbench: no henigcert package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # one BLAS thread and the numpy kernels, fixed before numpy loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", os.environ["OPENBLAS_NUM_THREADS"])
    os.environ["HENIGCERT_PURE_NUMPY"] = "1"
    sys.path[:0] = [SRC, HERE]
    import gen

    if args.workload not in gen.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}")

    work = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        setup_times, manifest = _setup(args, work)
        client = Client()
        env = _environment(args)
        if env["backend"] != "numpy" or env["blas_threads"] > env["nproc"]:
            print(f"perfbench: unexpected environment {env}", file=sys.stderr)
            return 2
        import tracing

        tracer = tracing.Tracer() if args.trace else None
        gc.collect()
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records = _loop(args, manifest, client, tracer)
        rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(work, ignore_errors=True)

    labels = {}
    for r in records:
        labels[r["label"]] = labels.get(r["label"], 0) + 1
    op_note = f"ops={len(records)}: " + ", ".join(f"{k}={v}" for k, v in labels.items())
    shared = _shared_metrics(records)
    if args.trace:
        plain = sum(r["s"] for r in records)
        metrics = dict(tracing.per_layer(tracer.spans, len(records)))
        metrics.update({k: (v or 0.0, u) for k, (v, u) in shared.items()})
        metrics["trace.ops"] = (len(records), "count")
        metrics["trace.overhead_share"] = (sum(r["traced_s"] for r in records) / plain - 1.0, "ratio")
        sized = [r["cert_bytes"] for r in records if r["cert_bytes"]]
        metrics["serialization.cert_bytes"] = (statistics.mean(sized) if sized else 0, "bytes")
        shown = metrics
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s.p50": (_op_p50(records), "s"),
            "peak_rss_mb": ((rss1 - rss0) / 1024.0, "MB"),
        }
        shown = {**metrics, **shared}
    wrong = manifest["setup_problems"] + [
        f"{r['label']}: {n}" for r in records if r["status"] == "wrong" for n in r["notes"]]
    failed = sum(1 for r in records if r["status"] != "ok")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    _print_table(shown, {"setup_s": f"median of {len(setup_times)} set-ups", "op_s.p50": op_note,
                         "failed_share": f"{failed} of {len(records)} commands",
                         "trace.ops": op_note})
    for r in [r for r in records if r["status"] != "ok"][:20]:
        print(f"  {r['status'].upper()} {r['label']}: {'; '.join(r['notes'])}")
    for line in manifest["setup_problems"]:
        print(f"  WRONG set-up: {line}")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}{'-trace' if args.trace else ''}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "env": env, "size": manifest["size"],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                   "setup_s": setup_times, "ops": records, "wrong": wrong}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.json.gz")
    print(json.dumps({
        "correct": not wrong, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
