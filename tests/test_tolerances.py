"""The table of tolerances: every threshold at its value, defined once."""

import ast
from pathlib import Path

from jordancone import tolerances

PACKAGE = Path(tolerances.__file__).parent

# A change to any of these loosens or tightens a check the paper's facts
# rest on; it has to be made here as well as in the table.
PINNED = {
    "RCOND_SINGULAR": 1e-12,
    "CLUSTER_RTOL": 1e-8,
    "POSITIVITY_TOL": 1e-10,
    "INVERTIBILITY_TOL": 1e-10,
    "INTERIOR_TOL": 1e-9,
    "INTEGER_EXPONENT_TOL": 1e-12,
    "PROJECTION_TOL": 1e-10,
    "CENTRAL_TOL": 1e-10,
    "JORDAN_HOM_TOL": 1e-9,
    "SCALING_RTOL": 1e-12,
    "SPAN_DISTANCE_TOL": 1e-7,
    "TRACE_NORMALIZED_TOL": 1e-9,
    "RANK_CUTOFF": 1e-9,
    "CENTER_GAP_TOL": 1e-6,
    "ORDER_VIOLATION_TOL": 1e-9,
    "LINEARITY_DEFECT_TOL": 1e-8,
}


def test_every_entry_is_pinned():
    table = {k: v for k, v in vars(tolerances).items() if not k.startswith("_")}
    assert table == PINNED
    assert all(type(v) is float for v in table.values())


def test_table_holds_constants_only():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    body = [n for n in tree.body if not isinstance(n, ast.Expr)]  # the docstring
    assert all(isinstance(n, ast.Assign) for n in body)
    assert all(isinstance(n.value, ast.Constant) for n in body)


def test_no_threshold_literal_outside_the_table():
    # selftest keeps its acceptance gates as literals: each is also spelled
    # out in its criterion's detail string
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("tolerances.py", "selftest.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is float
                and 0.0 < abs(node.value) < 1e-3
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_modules_read_the_table():
    from jordancone import core, ordermaps, spectral, structure, verify

    for module in (core, spectral, structure, ordermaps, verify):
        for name, value in vars(module).items():
            if name in PINNED:
                assert value is getattr(tolerances, name), (module.__name__, name)


def test_checks_take_no_tolerance_argument():
    import inspect

    import jordancone as jc

    for f in (
        jc.is_positive, jc.is_interior, jc.is_projection, jc.is_central,
        jc.is_jordan_homomorphism, jc.is_jordan_isomorphism,
        jc.check_order_preserving, jc.check_linearity_blackbox,
    ):
        assert not {"tol", "tolerance"} & set(inspect.signature(f).parameters), f.__name__
