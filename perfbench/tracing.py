"""Spans around the calls into each henigcert module, recorded from outside.

``Tracer.install`` replaces every binding of a traced function object in
the ``henigcert.*`` module dicts (and methods on their classes) with a
wrapper, so ``certificates.conjugate`` is traced as well as
``convex.conjugate``.  Spans stay in memory as
[name, start, end, parent, command id, failed, note] and are written once,
at the end of the run.  ``per_layer`` derives the per-layer metrics.
"""

import functools
import gzip
import json
import sys
from time import perf_counter

# metric name -> (module, attribute path, note taken from (args, result))
TARGETS = {
    "linprog.lp_solve": ("linprog", "lp_solve", None),
    "linprog.simplex_core": ("_kernels", "simplex_core", lambda a, r: a[0].size),
    "encodings.BlockLP.solve": ("encodings", "BlockLP.solve", None),
    "convex.conjugate": ("convex", "conjugate", None),
    "convex.support_function": ("convex", "support_function", None),
    "convex.br_regularize": ("convex", "br_regularize", None),
    "fractional.henig_check_bruteforce": ("fractional", "henig_check_bruteforce", None),
    "fractional.henig_check_parametric": ("fractional", "henig_check_parametric", None),
    "fractional.feasible_mask": ("fractional", "feasible_mask", None),
    "fractional.ratio_matrix": ("fractional", "ratio_matrix", None),
    "cones.in_minus_k_eps_polar_batch": ("cones", "in_minus_k_eps_polar_batch", None),
    "grids.GridSpec.points": ("grids", "GridSpec.points", None),
    "certificates.generate_eps_certificate": (
        "certificates", "generate_eps_certificate", lambda a, r: r[0].N),
    "certificates.eps_to_exact": ("certificates", "eps_to_exact", None),
    "certificates.epi_from_eps": ("certificates", "epi_from_eps", None),
    "certificates.verify_eps_certificate": ("certificates", "verify_eps_certificate", lambda a, r: a[2].N),
    "certificates.verify_epi_certificate": ("certificates", "verify_epi_certificate", lambda a, r: a[2].N),
    "certificates.verify_exact_certificate": (
        "certificates", "verify_exact_certificate", lambda a, r: a[2].N),
    "certificates._Memo.conj": ("certificates", "_Memo.conj", None),
    "certificates._Memo.supp": ("certificates", "_Memo.supp", None),
    "serialization.load_json": ("serialization", "load_json", None),
    "serialization.certificate_from_json": ("serialization", "certificate_from_json", None),
    "serialization.certificate_to_json": ("serialization", "certificate_to_json", None),
    "serialization.dump_json": ("serialization", "dump_json", None),
    "cli.cmd_check": ("cli", "cmd_check", None),
    "cli.cmd_certify": ("cli", "cmd_certify", None),
    "cli.cmd_verify": ("cli", "cmd_verify", None),
}
VERIFIERS = ("certificates.verify_eps_certificate", "certificates.verify_epi_certificate",
             "certificates.verify_exact_certificate")

NAME, START, END, PARENT, CMD, FAILED, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        return traced

    def install(self):
        """Wrap every binding site of every target; ``uninstall`` undoes it."""
        mods = {k: m for k, m in sys.modules.items() if k == "henigcert" or k.startswith("henigcert.")}
        for name, (mod, path, note) in TARGETS.items():
            owner = mods["henigcert." + mod]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, note)
            sites = [owner] if cls else [m for m in mods.values()]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        self._undo.append((site, key, original))

    def uninstall(self):
        for site, key, original in reversed(self._undo):
            setattr(site, key, original)
        self._undo.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command", "failed", "note"],
                       "spans": self.spans}, fh)


def _under(spans, i, names):
    """Is some ancestor of span i named in ``names``?"""
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def per_layer(spans, ops):
    """Per-layer metrics of the traced commands.

    Counts and seconds are means per traced command (base: ``trace.ops``);
    ratios come from totals and name their base in the README."""
    ops = max(ops, 1)
    total, self_s, calls, failed, s_max = {}, {}, {}, {}, {}
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        failed[name] = failed.get(name, 0) + rec[FAILED]
        s_max[name] = max(s_max.get(name, 0.0), dur)

    def c(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    lp = [i for i, r in enumerate(spans) if r[NAME] == "linprog.lp_solve"]
    cells = [r[NOTE] for r in spans if r[NAME] == "linprog.simplex_core"]
    gen_entries = sum(r[NOTE] or 0 for r in spans if r[NAME] == "certificates.generate_eps_certificate")
    ver_entries = sum(r[NOTE] or 0 for r in spans if r[NAME] in VERIFIERS)
    lookups = c("certificates._Memo.conj") + c("certificates._Memo.supp")
    memo = ("certificates._Memo.conj", "certificates._Memo.supp")
    misses = sum(1 for i, r in enumerate(spans)
                 if r[NAME] in ("convex.conjugate", "convex.support_function")
                 and r[PARENT] >= 0 and spans[r[PARENT]][NAME] in memo)
    checks = c("fractional.henig_check_bruteforce") + c("fractional.henig_check_parametric")

    m = {}
    for name in ("linprog.lp_solve", "convex.br_regularize"):
        m[f"{name}.calls"] = (c(name) / ops, "count")
        m[f"{name}.s"] = (total.get(name, 0.0) / ops, "s")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s")
        m[f"{name}.failed"] = (failed.get(name, 0) / ops, "count")
    m["convex.br_regularize.s_max"] = (s_max.get("convex.br_regularize", 0.0), "s")
    m["convex.br_regularize.lps_per_call"] = (
        ratio(sum(_under(spans, i, ("convex.br_regularize",)) for i in lp), c("convex.br_regularize")),
        "lp/call")
    for name in ("linprog.simplex_core", "encodings.BlockLP.solve", "convex.conjugate",
                 "convex.support_function", "fractional.henig_check_bruteforce",
                 "fractional.henig_check_parametric", "cones.in_minus_k_eps_polar_batch"):
        m[f"{name}.calls"] = (c(name) / ops, "count")
        m[f"{name}.s"] = (total.get(name, 0.0) / ops, "s")
    m["linprog.simplex_runs_per_lp"] = (ratio(c("linprog.simplex_core"), c("linprog.lp_solve")), "run/lp")
    m["linprog.tableau_cells.mean"] = (ratio(sum(cells), len(cells)), "cells")
    m["linprog.tableau_cells.max"] = (max(cells, default=0), "cells")
    for name in ("fractional.feasible_mask", "fractional.ratio_matrix", "grids.GridSpec.points",
                 "certificates.epi_from_eps", *VERIFIERS,
                 "serialization.load_json", "serialization.certificate_from_json",
                 "serialization.certificate_to_json", "serialization.dump_json"):
        m[f"{name}.s"] = (total.get(name, 0.0) / ops, "s")
    m["cones.ladder_passes_per_check"] = (ratio(c("cones.in_minus_k_eps_polar_batch"), checks), "pass/check")
    for name in ("certificates.generate_eps_certificate", "certificates.eps_to_exact",
                 "cli.cmd_check", "cli.cmd_certify", "cli.cmd_verify"):
        m[f"{name}.s"] = (total.get(name, 0.0) / ops, "s")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s")
    m["certificates.generate.entries"] = (gen_entries / ops, "entries")
    m["certificates.generate.lps_per_entry"] = (
        ratio(sum(_under(spans, i, ("certificates.generate_eps_certificate",)) for i in lp), gen_entries),
        "lp/entry")
    m["certificates.verify.entries"] = (ver_entries / ops, "entries")
    m["certificates.verify.lps_per_entry"] = (
        ratio(sum(_under(spans, i, VERIFIERS) for i in lp), ver_entries), "lp/entry")
    m["certificates.verify.memo_lookups"] = (lookups / ops, "count")
    m["certificates.verify.memo_hit_rate"] = (ratio(lookups - misses, lookups), "ratio")
    m["trace.spans"] = (len(spans) / ops, "count")
    return m
