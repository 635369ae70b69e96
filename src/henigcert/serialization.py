"""JSON encodings for functions, cones, problems, certificates, reports.

Certificates are finite tables; an optional closed_form block holds
per-field expressions from the tiny grammar {c, c/n, c/n^2} that are
expanded to N entries at load time, so a 1000-entry 1/n schedule stays a
one-line file.  All writers emit strict JSON (no NaN/Infinity tokens) as
one compact line per document; non-finite numbers are serialized as
null.
"""

import json
import math
import re

import numpy as np

from .cones import PolyhedralCone
from .convex import BlackBoxFn, ConvexFn, Polyhedron, PolyhedralFn, ScaledFn
from .certificates import FORMS
from .errors import SchemaError
from .fractional import FractionalProblem

_FORM_RE = re.compile(
    r"^\s*(?P<c>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"\s*(?P<den>/\s*n(?P<pow>\^2)?)?\s*$"
)


def parse_closed_form(text: str):
    """Return (c, k) for the sequence c / n**k; grammar: c, c/n, c/n^2."""
    m = _FORM_RE.match(str(text))
    if not m:
        raise SchemaError(f"closed form {text!r} not in the c | c/n | c/n^2 grammar")
    power = 0 if m.group("den") is None else (2 if m.group("pow") else 1)
    return float(m.group("c")), power


def _expand_form(spec, n: int):
    """Evaluate a (possibly nested) closed-form spec at index n."""
    if isinstance(spec, str):
        c, k = parse_closed_form(spec)
        return c / float(n) ** k
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, list):
        return [_expand_form(s, n) for s in spec]
    raise SchemaError("closed_form entries must be strings, numbers, or lists")


# ---------------------------------------------------------------------------
# functions, sets, cones


def polyhedron_to_json(P: Polyhedron) -> dict:
    out = {"n": P.n}
    if P.A.shape[0]:
        out["A"] = P.A.tolist()
        out["b"] = P.b.tolist()
    if P.E.shape[0]:
        out["E"] = P.E.tolist()
        out["d"] = P.d.tolist()
    return out


def polyhedron_from_json(obj) -> Polyhedron:
    if not isinstance(obj, dict):
        raise SchemaError("polyhedron must be an object")
    try:
        return Polyhedron(
            A=obj.get("A"), b=obj.get("b"), E=obj.get("E"), d=obj.get("d"),
            n=obj.get("n"),
        )
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad polyhedron: {exc}") from exc


def function_to_json(fn: ConvexFn) -> dict:
    if isinstance(fn, ScaledFn):
        return {"type": "scaled", "c": fn.c, "inner": function_to_json(fn.inner)}
    if isinstance(fn, BlackBoxFn):
        return {"type": "builtin", "name": fn.name, "dim": fn.dim}
    if isinstance(fn, PolyhedralFn):
        out = {
            "type": "max_affine",
            "pieces": [
                {"a": a.tolist(), "b": float(b)} for a, b in zip(fn.A, fn.b)
            ],
        }
        if not fn.domain.is_full_space():
            out["domain"] = polyhedron_to_json(fn.domain)
        return out
    raise SchemaError(f"cannot serialize function of type {type(fn).__name__}")


def function_from_json(obj) -> ConvexFn:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("function must be an object with a 'type'")
    kind = obj["type"]
    try:
        if kind == "max_affine":
            pieces = obj["pieces"]
            if not pieces:
                raise SchemaError("max_affine needs at least one piece")
            A = [p["a"] for p in pieces]
            b = [p["b"] for p in pieces]
            domain = polyhedron_from_json(obj["domain"]) if "domain" in obj else None
            return PolyhedralFn(A, b, domain=domain)
        if kind == "builtin":
            return BlackBoxFn(obj["name"], int(obj["dim"]))
        if kind == "scaled":
            return ScaledFn(float(obj["c"]), function_from_json(obj["inner"]))
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad {kind} function: {exc}") from exc
    raise SchemaError(f"unknown function type {kind!r}")


def cone_to_json(cone: PolyhedralCone) -> dict:
    if np.array_equal(cone.G, np.eye(cone.p)):
        return {"type": "nonneg_orthant", "dim": cone.p}
    if cone.G.shape[0] == 0:
        # {0} has no generators; its inequality rows keep the dimension
        return {"type": "inequalities", "H": cone.H.tolist()}
    return {"type": "generators", "vectors": cone.G.tolist()}


def cone_from_json(obj) -> PolyhedralCone:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SchemaError("cone must be an object with a 'type'")
    kind = obj["type"]
    try:
        if kind == "nonneg_orthant":
            return PolyhedralCone.nonneg_orthant(int(obj["dim"]))
        if kind == "generators":
            return PolyhedralCone(generators=obj["vectors"])
        if kind == "inequalities":
            cone = PolyhedralCone(H=obj["H"])
            if cone.p < 1:
                raise SchemaError("bad inequalities cone: H needs at least one column")
            return cone
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad {kind} cone: {exc}") from exc
    raise SchemaError(f"unknown cone type {kind!r}")


# ---------------------------------------------------------------------------
# problems


def problem_to_json(prob: FractionalProblem, name: str = "", description: str = "") -> dict:
    out = {
        "n": prob.n,
        "objectives": [
            {"f": function_to_json(f), "neg_g": function_to_json(ng)}
            for f, ng in prob.objectives
        ],
        "h": [function_to_json(h) for h in prob.hmap],
        "cone": cone_to_json(prob.cone),
        "C": polyhedron_to_json(prob.C),
    }
    if name:
        out["name"] = name
    if description:
        out["description"] = description
    return out


def problem_from_json(obj) -> FractionalProblem:
    if not isinstance(obj, dict):
        raise SchemaError("problem must be an object")
    for key in ("n", "objectives", "h", "cone", "C"):
        if key not in obj:
            raise SchemaError(f"problem is missing {key!r}")
    objectives = []
    for i, pair in enumerate(obj["objectives"]):
        if "f" not in pair or "neg_g" not in pair:
            raise SchemaError(f"objective {i} needs 'f' and 'neg_g'")
        objectives.append((function_from_json(pair["f"]), function_from_json(pair["neg_g"])))
    try:
        return FractionalProblem(
            n=int(obj["n"]),
            objectives=objectives,
            hmap=[function_from_json(h) for h in obj["h"]],
            cone=cone_from_json(obj["cone"]),
            C=polyhedron_from_json(obj["C"]),
        )
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"bad problem: {exc}") from exc


# ---------------------------------------------------------------------------
# certificates

# A certificate file holds "theorem", "lambda", "N" and "entries", one
# object per entry with the form's table fields in table order
# (``certificates._Table.layout``); a field with an objective axis holds m
# values per entry, one per objective.


def _entry_array(entries, field, lead, kind, m):
    """One table field read from every entry, objective axis first."""
    try:
        vals = [e[field] for e in entries]
    except KeyError:
        raise SchemaError(f"certificate entries missing field {field!r}")
    try:
        arr = np.asarray(vals, float)
    except ValueError as exc:
        raise SchemaError(f"field {field!r} is ragged or non-numeric") from exc
    if arr.ndim != 1 + lead + (kind != "s") or (lead and arr.shape[1] != m):
        what = "scalar" if kind == "s" else "vector"
        what = f"{m} {what}s" if lead else f"a {what}"
        raise SchemaError(f"field {field!r} must be {what} per entry")
    return np.swapaxes(arr, 0, 1) if lead else arr


def certificate_to_json(cert) -> dict:
    # one list per field with the entry axis first, then one dict per entry
    names, columns = [], []
    for field, (lead, _) in cert.layout().items():
        val = np.asarray(getattr(cert, field), float)
        names.append(field)
        columns.append((np.swapaxes(val, 0, 1) if lead else val).tolist())
    entries = [dict(zip(names, row)) for row in zip(*columns)]
    return {
        "theorem": cert.theorem,
        "lambda": cert.lam.tolist(),
        "N": cert.N,
        "entries": entries,
    }


def certificate_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("certificate must be an object")
    tag = obj.get("theorem")
    form = FORMS.get(tag) if isinstance(tag, str) else None
    if form is None:
        raise SchemaError(f"unknown theorem tag {tag!r}")
    try:
        if "lambda" not in obj:
            raise SchemaError("certificate is missing 'lambda'")
        lam = np.asarray(obj["lambda"], float).reshape(-1)
        m = lam.shape[0]
        entries = obj.get("entries")
        closed = obj.get("closed_form")
        if entries is None and closed is None:
            raise SchemaError("certificate needs 'entries' or 'closed_form'")
        if entries is None:
            if "N" not in obj:
                raise SchemaError("closed-form certificate needs 'N'")
            entries = [{} for _ in range(int(obj["N"]))]
        else:
            entries = [dict(e) for e in entries]
        if "N" in obj and int(obj["N"]) != len(entries):
            raise SchemaError("'N' does not match the number of entries")
        layout = form.layout()
        if closed is not None:
            if not isinstance(closed, dict):
                raise SchemaError("'closed_form' must be an object")
            for field, spec in closed.items():
                if field not in layout:
                    raise SchemaError(f"closed_form field {field!r} not in theorem {tag}")
                for k, e in enumerate(entries):
                    e[field] = _expand_form(spec, k + 1)
        N = len(entries)
        if N < 1:
            raise SchemaError("certificate needs at least one entry")
        data = {f: _entry_array(entries, f, lead, kind, m) for f, (lead, kind) in layout.items()}
        return form(lam=lam, **data)
    except SchemaError:
        raise
    except (TypeError, ValueError, KeyError) as exc:  # DimensionMismatch is a ValueError
        raise SchemaError(f"bad certificate: {exc}") from exc


# ---------------------------------------------------------------------------
# reports and file helpers


def _sanitize(value):
    """JSON-safe copy: numpy to builtins, non-finite floats to None.

    A plain float, by far the most common item, is recognized by its
    exact type; float arrays convert whole, with None in place of
    non-finite entries."""
    if type(value) is float:
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) is float and math.isfinite(v) else _sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            finite = np.isfinite(value)
            return value.tolist() if finite.all() else np.where(finite, value, None).tolist()
        if value.dtype.kind in "biu":
            return value.tolist()
        return _sanitize(value.tolist())
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def report_to_json(report) -> dict:
    return _sanitize(
        {
            "theorem": report.theorem,
            "verdict": report.verdict,
            "reasons": list(report.reasons),
            "memberships": report.memberships,
            "slacks": report.slacks,
            "residuals": report.residuals,
            "tolerances": report.tolerances,
            "note": report.note,
        }
    )


def _builtin(value):
    """The encoder's ``default``: numpy arrays and scalars as builtins
    (``float64`` is a float already and never gets here)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# one strict encoder for every item written; without indentation its
# encode() runs the C encoder
_ENCODER = json.JSONEncoder(allow_nan=False, default=_builtin)


def _encode(value) -> str:
    """``json.dumps(_sanitize(value))``: one C-encoder call, and the
    ``_sanitize`` copy only for an item the strict encoder refuses (a
    non-finite float makes it raise ValueError, a key of a numpy type
    TypeError; an object nothing can encode raises TypeError again).
    Two differences, neither met by the package's own documents (their
    keys are all str): in a dict the encoder takes as it is, a bool or
    None key reads ``"true"``/``"null"``, as the json module writes it,
    where ``_sanitize`` gives ``"True"``/``"None"``; and two keys that
    ``str`` maps to one string (1 and "1") both stay, where ``_sanitize``
    keeps one."""
    try:
        return _ENCODER.encode(value)
    except (ValueError, TypeError):
        return _ENCODER.encode(_sanitize(value))


def _write_json(value, fh, depth: int = 2) -> None:
    """Write ``value`` as ``_sanitize`` would leave it; the dicts and lists
    in its top ``depth`` levels item by item, each item with one call of
    the module's encoder (``_encode``).  The C encoder keeps every small
    string it encodes until it joins them; per item, a certificate table
    never sits in memory as tens of thousands of them."""
    kind = type(value)
    if depth and kind is dict:
        fh.write("{")
        for i, (k, v) in enumerate(value.items()):
            fh.write((", " if i else "") + _ENCODER.encode(str(k)) + ": ")
            _write_json(v, fh, depth - 1)
        fh.write("}")
    elif depth and kind is list:
        fh.write("[")
        for i, v in enumerate(value):
            if i:
                fh.write(", ")
            _write_json(v, fh, depth - 1)
        fh.write("]")
    else:
        fh.write(_encode(value))


def dump_json_stream(obj, fh) -> None:
    """Write ``obj`` as one line of compact strict JSON and a newline:
    numpy values as builtins, non-finite floats as null.  Nothing walks
    the whole document first; ``_sanitize`` runs only as the fallback
    for an item that holds a non-finite float (see ``_encode``)."""
    _write_json(obj, fh)
    fh.write("\n")


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json_stream(obj, fh)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
