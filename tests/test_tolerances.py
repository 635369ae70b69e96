"""The tolerance table: ``henigcert.tolerances`` is the one module that
binds a tolerance, and every convergence default is its ``TOL_CONV``."""

import ast
import inspect
import re
from pathlib import Path

from henigcert import certificates, cli, example_q, tolerances

PACKAGE = Path(tolerances.__file__).parent
NAME = re.compile(r"^TOL_|_TOL$|^JITTER$|_MARGIN$")


def _is_number(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_number(node.left) and _is_number(node.right)
    return False


def test_only_the_table_binds_a_tolerance():
    bound = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            bound += [f"{path.name}: {n}" for n in names if NAME.search(n) and _is_number(value)]
    assert not bound


def test_every_tol_conv_default_is_the_table_entry():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    defaults = {name: action.default
                for name, sub in commands.choices.items()
                for action in sub._actions if "--tol-conv" in action.option_strings}
    assert sorted(defaults) == ["certify", "example-q", "verify"]
    assert set(defaults.values()) == {tolerances.TOL_CONV}
    functions = [certificates.verify_epi_certificate, certificates.verify_eps_certificate,
                 certificates.verify_exact_certificate, certificates.verify_certificate,
                 example_q.run]
    for fn in functions:
        assert inspect.signature(fn).parameters["tol_conv"].default == tolerances.TOL_CONV, fn
