"""JSON round trips, the closed-form sequence grammar, and schema errors."""

import io
import json

import numpy as np
import pytest

from henigcert import cli, example_q, serialization
from henigcert.certificates import (
    EpsCertificate,
    generate_eps_certificate,
    eps_to_exact,
    epi_from_eps,
    verify_eps_certificate,
)
from henigcert.cones import PolyhedralCone
from henigcert.convex import BlackBoxFn, Polyhedron, PolyhedralFn, ScaledFn
from henigcert.errors import SchemaError
from henigcert.fractional import FractionalProblem
from henigcert.serialization import (
    certificate_from_json,
    certificate_to_json,
    cone_from_json,
    cone_to_json,
    dump_json,
    dump_json_stream,
    function_from_json,
    function_to_json,
    load_json,
    parse_closed_form,
    polyhedron_from_json,
    polyhedron_to_json,
    problem_from_json,
    problem_to_json,
    report_to_json,
)


def toy_problem():
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


# ---------------------------------------------------------------------------
# closed-form grammar


def test_closed_form_accepts():
    assert parse_closed_form("3") == (3.0, 0)
    assert parse_closed_form("0") == (0.0, 0)
    assert parse_closed_form("1/n") == (1.0, 1)
    assert parse_closed_form(" 2.5 / n^2 ") == (2.5, 2)
    assert parse_closed_form("-1e-2/n") == (-0.01, 1)
    assert parse_closed_form(".5/n") == (0.5, 1)


@pytest.mark.parametrize("bad", ["n", "1/m", "1/n^3", "", "x/n", "1//n", "n/2"])
def test_closed_form_rejects(bad):
    with pytest.raises(SchemaError):
        parse_closed_form(bad)


# ---------------------------------------------------------------------------
# functions, sets, cones, problems


def test_polyhedron_round_trip():
    P = Polyhedron(
        A=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 2.0], E=[[1.0, -1.0]], d=[0.5]
    )
    doc = polyhedron_to_json(P)
    again = polyhedron_to_json(polyhedron_from_json(doc))
    assert again == doc
    # full space carries only the dimension
    free = polyhedron_to_json(Polyhedron(n=3))
    assert free == {"n": 3}
    assert polyhedron_from_json(free).contains_batch(np.zeros((1, 3)))[0]


def test_function_round_trips():
    fns = [
        PolyhedralFn([[1.0, 0.0], [-1.0, 2.0]], [0.0, 1.0]),
        PolyhedralFn([[1.0]], [0.0], domain=Polyhedron.box([0.0], [2.0])),
        BlackBoxFn("relu_sq", 2),
        ScaledFn(0.5, PolyhedralFn([[1.0]], [0.0])),
        ScaledFn(0.0, BlackBoxFn("neg_quad_plus_one", 2)),
    ]
    for fn in fns:
        doc = function_to_json(fn)
        assert function_to_json(function_from_json(doc)) == doc


def test_function_schema_errors():
    with pytest.raises(SchemaError):
        function_from_json({"type": "mystery"})
    with pytest.raises(SchemaError):
        function_from_json({"pieces": []})
    with pytest.raises(SchemaError):
        function_from_json({"type": "max_affine", "pieces": []})
    with pytest.raises(SchemaError):
        function_from_json({"type": "builtin", "name": "no_such_fn", "dim": 1})


def test_cone_round_trip():
    orth = cone_to_json(PolyhedralCone.nonneg_orthant(3))
    assert orth == {"type": "nonneg_orthant", "dim": 3}
    assert cone_to_json(cone_from_json(orth)) == orth
    gen = cone_to_json(PolyhedralCone(generators=[[1.0, 1.0], [0.0, 1.0]]))
    assert gen["type"] == "generators"
    assert cone_to_json(cone_from_json(gen)) == gen
    # identity generators are recognized as the orthant either way
    eye = cone_from_json({"type": "generators", "vectors": [[1.0, 0.0], [0.0, 1.0]]})
    assert cone_to_json(eye) == {"type": "nonneg_orthant", "dim": 2}
    with pytest.raises(SchemaError):
        cone_from_json({"type": "icecream", "dim": 2})


def test_cone_round_trip_keeps_every_cone():
    # {0} has no generators, so it is written by its inequalities, which
    # keep the dimension; each cone reads back with the same p, the same
    # generators and the same inequalities
    cones = {
        "zero": PolyhedralCone(H=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
        "plane": PolyhedralCone(generators=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        "half-plane": PolyhedralCone(H=[[1.0, 1.0]]),
        "orthant": PolyhedralCone(H=np.eye(2)),
    }
    kinds = {}
    for name, cone in cones.items():
        doc = cone_to_json(cone)
        kinds[name] = doc["type"]
        again = cone_from_json(json.loads(json.dumps(doc)))
        assert cone_to_json(again) == doc
        assert again.p == cone.p == 2
        for form in ("G", "H"):
            assert np.array_equal(getattr(again, form), getattr(cone, form)), (name, form)
    assert kinds == {"zero": "inequalities", "plane": "generators",
                     "half-plane": "generators", "orthant": "nonneg_orthant"}
    # a problem whose Y+ is {0} round-trips too
    toy = toy_problem()
    prob = FractionalProblem(toy.n, toy.objectives, toy.hmap * 2, cones["zero"], toy.C)
    doc = problem_to_json(prob)
    assert problem_to_json(problem_from_json(doc)) == doc
    for bad in ({"type": "inequalities", "H": []}, {"type": "inequalities"},
                {"type": "inequalities", "H": [[1.0, np.nan]]}):
        with pytest.raises(SchemaError, match="inequalities cone"):
            cone_from_json(bad)


def test_problem_round_trip():
    for prob, name in [(toy_problem(), "toy"), (example_q.build_problem(), "q")]:
        doc = problem_to_json(prob, name=name)
        again = problem_to_json(problem_from_json(doc), name=name)
        assert again == doc


def test_problem_schema_errors():
    with pytest.raises(SchemaError):
        problem_from_json({"n": 1})
    doc = problem_to_json(toy_problem())
    doc["objectives"][0] = {"f": doc["objectives"][0]["f"]}  # neg_g dropped
    with pytest.raises(SchemaError):
        problem_from_json(doc)


# ---------------------------------------------------------------------------
# certificates


def generated_toy_cert(N=12):
    prob = toy_problem()
    cert, _ = generate_eps_certificate(prob, np.zeros(1), N=N)
    return prob, cert


def test_certificate_round_trip_all_theorems():
    prob, eps_cert = generated_toy_cert()
    xbar = np.zeros(1)
    for cert in (eps_cert, epi_from_eps(prob, xbar, eps_cert), eps_to_exact(prob, xbar, eps_cert)):
        doc = certificate_to_json(cert)
        again = certificate_to_json(certificate_from_json(doc))
        assert again == doc


def test_round_tripped_certificate_verifies_identically():
    prob, cert = generated_toy_cert(N=20)
    loaded = certificate_from_json(certificate_to_json(cert))
    a = verify_eps_certificate(prob, np.zeros(1), cert, tol_conv=1e-1)
    b = verify_eps_certificate(prob, np.zeros(1), loaded, tol_conv=1e-1)
    assert a.verdict == b.verdict == "Accept"
    assert np.array_equal(a.residuals["dual"], b.residuals["dual"])


def test_closed_form_certificate_matches_table():
    N = 5
    doc = {
        "theorem": "4.2",
        "lambda": [1.0, 1.0],
        "N": N,
        "closed_form": {
            "xstar": [[2.0, 0.0], [-2.0, 0.0]],
            "a": ["1/n", "1/n"],
            "wstar": [[0.0, 0.0], [0.0, 0.0]],
            "b": ["1/n", "1/n"],
            "cstar": [0.0, "1/n"],
            "d": "1/n",
            "ystar": [0.0, 0.0],
            "s": "1/n",
            "vstar": [0.0, 0.0],
            "ustar": [0.0, 0.0],
            "t": 0.0,
        },
    }
    cert = certificate_from_json(doc)
    table = example_q.reference_certificate(N)
    for field in ("xstar", "a", "wstar", "b", "cstar", "d", "ystar", "s", "vstar", "ustar", "t"):
        assert np.array_equal(getattr(cert, field), getattr(table, field)), field


def test_closed_form_overrides_entries():
    _, cert = generated_toy_cert(N=4)
    doc = certificate_to_json(cert)
    doc["closed_form"] = {"gamma": "2/n"}
    loaded = certificate_from_json(doc)
    assert np.allclose(loaded.gamma, 2.0 / np.arange(1, 5))


def test_certificate_schema_errors():
    _, cert = generated_toy_cert(N=4)
    good = certificate_to_json(cert)

    for tag in ("4.9", ["4.3"], None):
        with pytest.raises(SchemaError):
            certificate_from_json(dict(good, theorem=tag))

    for bad in (dict(good, **{"lambda": ["x", 1.0]}), dict(good, N="four"), dict(good, entries=[1, 2])):
        with pytest.raises(SchemaError):
            certificate_from_json(bad)

    bad = {k: v for k, v in good.items() if k != "lambda"}
    with pytest.raises(SchemaError):
        certificate_from_json(bad)

    bad = dict(good, N=7)
    with pytest.raises(SchemaError):
        certificate_from_json(bad)

    bad = dict(good, closed_form={"nonsense": "1/n"})
    with pytest.raises(SchemaError):
        certificate_from_json(bad)

    entries = [dict(e) for e in good["entries"]]
    for e in entries:
        del e["gamma"]
    with pytest.raises(SchemaError):
        certificate_from_json(dict(good, entries=entries))

    with pytest.raises(SchemaError):
        certificate_from_json({"theorem": "4.3", "lambda": [1.0, 1.0]})

    with pytest.raises(SchemaError):
        certificate_from_json(
            {"theorem": "4.3", "lambda": [1.0, 1.0], "closed_form": {"gamma": "1/n"}}
        )


def test_certificate_entry_shape_errors():
    prob, cert = generated_toy_cert(N=4)
    xbar = np.zeros(1)
    docs = {"4.3": certificate_to_json(cert),
            "4.2": certificate_to_json(epi_from_eps(prob, xbar, cert))}
    # one bad entry per layout kind (m = 2, n = p = 1)
    cases = [
        ("4.3", "xstar", [[1.0]]),        # one vector where m=2 are required
        ("4.3", "xstar", [1.0, 1.0]),     # m scalars where m vectors are
        ("4.3", "gamma", [0.5]),          # a vector where a scalar is
        ("4.3", "cstar", 0.5),            # a scalar where a vector is
        ("4.3", "ystar", [[0.0]]),        # a matrix where a vector is
        ("4.2", "a", [0.5]),              # one scalar where m=2 are required
        ("4.2", "a", [[0.5], [0.5]]),     # m vectors where m scalars are
    ]
    for tag, field, value in cases:
        entries = [dict(e) for e in docs[tag]["entries"]]
        for e in entries:
            e[field] = value
        with pytest.raises(SchemaError, match=field):
            certificate_from_json(dict(docs[tag], entries=entries))

    # a single malformed entry among good ones makes the field ragged
    entries = [dict(e) for e in docs["4.3"]["entries"]]
    entries[0]["xstar"] = [[1.0]]  # one vector where m=2 are required
    with pytest.raises(SchemaError, match="xstar"):
        certificate_from_json(dict(docs["4.3"], entries=entries))


def test_certificate_files_keep_the_field_order():
    # the file layout follows the dataclass field order; a reordered
    # dataclass would change the format
    prob, eps_cert = generated_toy_cert(N=4)
    xbar = np.zeros(1)
    for cert in (eps_cert, epi_from_eps(prob, xbar, eps_cert), eps_to_exact(prob, xbar, eps_cert)):
        doc = certificate_to_json(cert)
        assert list(doc) == ["theorem", "lambda", "N", "entries"]
        want = [name for name, _ in FILE_LAYOUT[doc["theorem"]]]
        assert all(list(e) == want for e in doc["entries"])
        assert doc["entries"] == _certificate_reference(cert, FILE_LAYOUT[doc["theorem"]])


# ---------------------------------------------------------------------------
# reports and files


def test_report_json_is_strict(tmp_path):
    prob, cert = generated_toy_cert(N=20)
    report = verify_eps_certificate(prob, np.zeros(1), cert, tol_conv=1e-1)
    doc = report_to_json(report)
    text = json.dumps(doc, allow_nan=False)  # raises on NaN/Infinity
    assert "heuristic" in doc["note"]
    assert len(doc["residuals"]["dual"]) == cert.N
    path = tmp_path / "report.json"
    dump_json(doc, path)
    assert load_json(path) == json.loads(text)


def test_dump_json_nan_becomes_null(tmp_path):
    path = tmp_path / "x.json"
    dump_json({"v": float("nan"), "w": float("inf"), "a": np.array([1.0])}, path)
    assert load_json(path) == {"v": None, "w": None, "a": [1.0]}


def _sanitize_reference(value):
    # the item-by-item walk the writers used before, kept as the reference
    if isinstance(value, dict):
        return {str(k): _sanitize_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize_reference(v) for v in value]
    if isinstance(value, np.ndarray):
        return _sanitize_reference(value.tolist())  # a 0-d array gives a scalar
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else None
    return value


# the entry fields of a certificate file per theorem tag, in file order:
# (name, kind) where kind fixes the shape against (m, n, p); "mn" = list of
# m n-vectors, "m" = list of m scalars, "s" = a scalar, "n"/"p" = a vector
FILE_LAYOUT = {
    "4.2": [
        ("xstar", "mn"), ("a", "m"), ("wstar", "mn"), ("b", "m"),
        ("cstar", "n"), ("d", "s"), ("ystar", "p"), ("s", "s"),
        ("vstar", "p"), ("ustar", "n"), ("t", "s"),
    ],
    "4.3": [
        ("gamma", "s"), ("xstar", "mn"), ("wstar", "mn"), ("cstar", "n"),
        ("ystar", "p"), ("vstar", "p"), ("ustar", "n"),
    ],
    "4.4": [
        ("x", "mn"), ("xstar", "mn"), ("w", "mn"), ("wstar", "mn"),
        ("c", "n"), ("cstar", "n"), ("u", "n"), ("ustar", "n"),
        ("y", "p"), ("ystar", "p"), ("vstar", "p"),
    ],
}


def _certificate_reference(cert, fields):
    # the entry-by-entry table the certificate writer built before
    m = cert.lam.shape[0]
    entries = []
    for k in range(cert.N):
        entry = {}
        for field, kind in fields:
            val = getattr(cert, field)
            if kind == "s":
                entry[field] = float(val[k])
            elif kind == "m":
                entry[field] = [float(val[i, k]) for i in range(m)]
            elif kind == "mn":
                entry[field] = [val[i, k].tolist() for i in range(m)]
            else:
                entry[field] = val[k].tolist()
        entries.append(entry)
    return entries


def test_stream_writer_is_one_line_of_strict_json():
    obj = {
        "arr": np.array([[1.5, np.inf], [-np.inf, np.nan]]),
        "ints": np.arange(3),
        "bools": np.array([True, False]),
        "scalars": (np.float64(np.nan), np.float32(2.5), np.int64(7), np.bool_(True),
                    float("-inf"), np.float64(-np.inf)),
        "nested": {1: {"x": [np.float64(np.inf), None, "s", (1, 2.0)]}},
        "empty": np.zeros((0, 2)),
    }
    buf = io.StringIO()
    dump_json_stream(obj, buf)
    text = buf.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    assert "NaN" not in text and "Infinity" not in text
    got = json.loads(text)
    assert got == {
        "arr": [[1.5, None], [None, None]],
        "ints": [0, 1, 2],
        "bools": [True, False],
        "scalars": [None, 2.5, 7, True, None, None],
        "nested": {"1": {"x": [None, None, "s", [1, 2.0]]}},
        "empty": [],
    }
    assert [type(v) for v in got["ints"] + got["bools"] + got["scalars"][2:4]] == \
        [int] * 3 + [bool] * 2 + [int, bool]
    assert got == _sanitize_reference(obj)
    # the layout is that of json.dumps with its default separators
    assert text == json.dumps(_sanitize_reference(obj)) + "\n"


_NONFINITE = (float("nan"), float("inf"), float("-inf"), np.float64(np.nan), np.float32(-np.inf))


def _random_leaf(rng, finite):
    """One seeded JSON leaf: builtins, numpy scalars and arrays, floats
    whose repr is long or signed (0.1, 1e-300, -0.0), and a non-finite
    number, as a scalar or inside an array, when ``finite`` is False."""
    if not finite:
        bad = _NONFINITE[int(rng.integers(len(_NONFINITE)))]
        if rng.random() < 0.5:
            return bad
        arr = rng.normal(size=int(rng.integers(1, 4)))
        arr[int(rng.integers(arr.shape[0]))] = bad
        return arr if rng.random() < 0.5 else arr.astype(np.float32)
    pick = int(rng.integers(14))
    if pick == 0:
        return float(rng.choice([0.1, 1e-300, -0.0, 1e16, 2.5, -7.0]))
    if pick == 1:
        return float(rng.normal())
    if pick == 2:
        return np.float64(rng.normal())
    if pick == 3:
        return np.float32(rng.normal())
    if pick == 4:
        return np.int64(rng.integers(-10**12, 10**12))
    if pick == 5:
        return np.bool_(rng.random() < 0.5)
    if pick == 6:
        return rng.normal(size=(int(rng.integers(0, 3)), int(rng.integers(0, 3))))
    if pick == 7:
        return np.arange(int(rng.integers(0, 4)), dtype=np.int64)
    if pick == 8:
        return rng.random(int(rng.integers(0, 3))) < 0.5
    if pick == 9:
        return np.array(rng.normal())  # 0-d
    if pick == 10:
        return int(rng.integers(-5, 5))
    if pick == 11:
        return bool(rng.random() < 0.5)
    if pick == 12:
        return None
    return str(rng.choice(["s", "", "caf\u00e9", "q\"uote"]))


def _random_doc(rng, depth, nonfinite_at):
    """A seeded document ``depth`` container levels deep (0: a leaf), with
    a non-finite number at level ``nonfinite_at`` (None: all finite)."""
    if depth == 0:
        return _random_leaf(rng, finite=nonfinite_at != 0)
    size = int(rng.integers(0, 6))
    here = nonfinite_at == 0
    items = [_random_doc(rng, depth - 1, None if nonfinite_at in (None, 0) else nonfinite_at - 1)
             for _ in range(max(size, 1 if nonfinite_at else 0))]
    if here or rng.random() < 0.5:
        items.append(_random_leaf(rng, finite=not here))
    if rng.random() < 0.2:
        items = []  # an empty container (its non-finite entry goes with it)
    kind = int(rng.integers(3))
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    keys = ["k", 3, 2.5, np.int64(7), np.float64(0.5), "caf\u00e9", -1, 1e16]
    return {keys[i % len(keys)] if i < len(keys) else f"k{i}": v for i, v in enumerate(items)}


def test_stream_writer_matches_the_sanitizing_walk():
    # one encoder call per item, with the sanitizing copy only as the
    # fallback for an item it refuses, writes exactly the bytes of
    # json.dumps over the walked copy; numpy scalars and arrays, tuples,
    # empty containers, non-str keys, non-finite numbers at every depth
    rng = np.random.default_rng(20261018)
    nulls = 0
    for case in range(1500):
        depth = case % 5
        nonfinite_at = None if case % 3 == 0 else int(rng.integers(0, depth + 1))
        obj = _random_doc(rng, depth, nonfinite_at)
        buf = io.StringIO()
        dump_json_stream(obj, buf)
        want = json.dumps(_sanitize_reference(obj)) + "\n"
        assert buf.getvalue() == want, (case, obj)
        nulls += "null" in want
    assert nulls >= 500
    # a bool or None key inside an item the encoder takes as it is reads
    # as the json module spells it; at the streamed top levels and in an
    # item that falls back to the walk, keys go through str()
    buf = io.StringIO()
    dump_json_stream({True: 1, "a": [{None: 2, False: 0.5}, {None: np.nan}]}, buf)
    assert buf.getvalue() == '{"True": 1, "a": [{"null": 2, "false": 0.5}, {"None": null}]}\n'
    # what cannot be encoded still raises TypeError, at any depth
    for bad in (object(), {"a": [1, {"b": object()}]}, [np.complex128(1j)], {"a": (1, {2, 3})}):
        with pytest.raises(TypeError):
            dump_json_stream(bad, io.StringIO())


def test_certify_output_parses_as_before(tmp_path, monkeypatch, capsys):
    # a real certify run on a random polyhedral problem whose table does
    # not converge: the report and the certificate file parse back to the
    # objects the item walk, the entry-by-entry table and the indented
    # writer gave
    rng = np.random.default_rng(3)
    prob = FractionalProblem(
        2,
        [(PolyhedralFn(rng.normal(size=(4, 2)), np.abs(rng.normal(size=4)) + 1.0),
          PolyhedralFn(0.1 * rng.normal(size=(4, 2)), -5.0 - np.abs(rng.normal(size=4))))
         for _ in range(2)],
        [PolyhedralFn(rng.normal(size=(3, 2)), -1.0 - np.abs(rng.normal(size=3)))],
        PolyhedralCone.nonneg_orthant(1),
        Polyhedron.box([-1.0, -1.0], [1.0, 1.0]),
    )
    problem, cert_path = tmp_path / "p.json", tmp_path / "p.cert.json"
    dump_json(problem_to_json(prob), problem)
    made = {}
    for name in ("certificate_to_json", "report_to_json"):
        def recording(obj, original=getattr(serialization, name), name=name):
            made[name] = obj
            return original(obj)
        monkeypatch.setattr(serialization, name, recording)
    rc = cli.main(["certify", "--problem", str(problem), "--point", "0.3,-0.2", "--force",
                   "--n", "12", "--out", str(cert_path)])
    out = capsys.readouterr().out
    assert rc == 2 and out.count("\n") == 1
    doc = json.loads(out)
    report = made["report_to_json"]
    assert doc["report"] == json.loads(json.dumps(_sanitize_reference({
        "theorem": report.theorem, "verdict": report.verdict, "reasons": list(report.reasons),
        "memberships": report.memberships, "slacks": report.slacks,
        "residuals": report.residuals, "tolerances": report.tolerances, "note": report.note,
    }), indent=1, allow_nan=False))
    assert doc["report"]["verdict"] == "Reject" and doc["report"]["reasons"]
    cert = made["certificate_to_json"]
    text = cert_path.read_text()
    assert text.count("\n") == 1
    want = {"theorem": "4.3", "lambda": cert.lam.tolist(), "N": cert.N,
            "entries": _certificate_reference(cert, FILE_LAYOUT["4.3"])}
    assert json.loads(text) == json.loads(json.dumps(_sanitize_reference(want), indent=1))


def test_load_json_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_json(path)


def test_eps_certificate_from_pure_closed_form():
    # N=12 keeps gamma_N = 1/12 inside the 1e-1 convergence gate below
    doc = {
        "theorem": "4.3",
        "lambda": [1.0, 1.0],
        "N": 12,
        "closed_form": {
            "gamma": "1/n",
            "xstar": [[0.0], [0.0]],
            "wstar": [[0.0], [0.0]],
            "cstar": [0.0],
            "ystar": [0.0],
            "vstar": [0.0],
            "ustar": [0.0],
        },
    }
    cert = certificate_from_json(doc)
    assert isinstance(cert, EpsCertificate)
    assert cert.N == 12
    assert np.allclose(cert.gamma, 1.0 / np.arange(1, 13))
    prob = toy_problem()
    report = verify_eps_certificate(prob, np.zeros(1), cert, tol_conv=1e-1)
    assert report.verdict == "Accept"
