"""The benchmark tracer (perfbench/tracing.py) wraps functions and methods of
henigcert by name and raises on a name it cannot find, which only a traced
benchmark run would show.  This keeps every name it wraps resolvable."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, (mod, path, _) in tracing.TARGETS.items():
        # as Tracer.install looks them up: a module attribute, or a name in
        # the class __dict__
        owner = importlib.import_module("henigcert." + mod)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or attr not in vars(owner):
            missing.append(name)
    assert tracing.TARGETS and not missing
