"""No input document ends in a traceback.

Valid algebra, element, operator and form documents are mutated (wrong
types, wrong nesting, missing keys, extra entries, non-finite values and
large declared sizes) and fed to the CLI verb that reads them, in-process.
Every run must exit 0, 1, 2 or 3 without a traceback; a run that exits 0
must have read values that serialize back to the document's own.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordancone as jc
from jordancone import cli
from jordancone.core import (
    algebra_from_dict,
    algebra_to_dict,
    element_from_list,
    element_to_list,
    operator_from_dict,
    operator_to_dict,
)

ALGEBRA = jc.direct_sum(jc.real(), jc.spin(2), jc.sym(2))
FORM_ALGEBRA = jc.direct_sum(jc.real(), jc.real(), jc.sym(2))


def _form_doc() -> dict:
    engaged = jc.decompose_engaged_disengaged(FORM_ALGEBRA).engaged_subalgebra
    form = jc.OrderIsoForm(
        FORM_ALGEBRA, FORM_ALGEBRA, (1, 0),
        (jc.Power(2.0), jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)))),
        jc.random_interior(engaged, 3), jc.identity_operator(engaged),
    )
    return jc.form_to_dict(form)


DOCUMENTS = {
    "algebra": algebra_to_dict(ALGEBRA),
    "element": element_to_list(jc.random_element(ALGEBRA, 1)),
    "operator": operator_to_dict(jc.quadratic_rep(jc.random_interior(ALGEBRA, 2))),
    "form": _form_doc(),
}

WRONG_TYPES = ["x", "2.5", True, False, None, 0, -1, 2.5, [], {}, [1.0], {"kind": "real"}]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
LARGE_SIZES = [10**6, 2**63, 10**100]
SIZE_KEYS = ("n", "rows", "cols")


def _paths(doc, path=()):
    """Every path into ``doc``, the root included."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _paths(v, path + (k,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, kind):
    doc = copy.deepcopy(DOCUMENTS[kind])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        size_paths = [p for p in paths if p and p[-1] in SIZE_KEYS]
        op = draw(st.sampled_from(
            ["retype", "wrap", "unwrap", "delete", "append", "non-finite"]
            + (["resize"] if size_paths else [])
        ))
        path = draw(st.sampled_from(size_paths if op == "resize" else paths))
        value = _at(doc, path)
        if op == "retype":
            new = draw(st.sampled_from(WRONG_TYPES))
        elif op == "wrap":
            new = [value]
        elif op == "unwrap":
            if not isinstance(value, (list, dict)) or not value:
                continue
            new = value[0] if isinstance(value, list) else list(value.values())
        elif op == "non-finite":
            new = draw(st.sampled_from(NON_FINITE))
        elif op == "resize":
            new = draw(st.sampled_from(LARGE_SIZES))
        elif op == "append":
            if not isinstance(value, list) or not value:
                continue
            new = value + [copy.deepcopy(value[-1])]
        else:  # delete
            if not path:
                continue
            del _at(doc, path[:-1])[path[-1]]
            continue
        if path:
            _at(doc, path[:-1])[path[-1]] = copy.deepcopy(new)
        else:
            doc = copy.deepcopy(new)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _factors(doc):
    return [{"kind": f["kind"], **({} if f["kind"] == "real" else {"n": f["n"]})}
            for f in doc["factors"]]


def _operator(doc):
    return {"rows": doc["rows"], "cols": doc["cols"], "data": [float(v) for v in doc["data"]]}


def _bijection(doc):
    if doc["kind"] == "power":
        return {"kind": "power", "alpha": float(doc["alpha"])}
    return {"kind": doc["kind"],
            "breakpoints": [[float(t), float(v)] for t, v in doc["breakpoints"]]}


def _roundtrips(kind, doc):
    """The document's values as the library reads and writes them back."""
    if kind == "algebra":
        return algebra_to_dict(algebra_from_dict(doc)) == {"factors": _factors(doc)}
    if kind == "element":
        return element_to_list(element_from_list(ALGEBRA, doc)) == [float(v) for v in doc]
    if kind == "operator":
        op = operator_from_dict(ALGEBRA, ALGEBRA, doc)
        return operator_to_dict(op) == _operator(doc)
    back = jc.form_to_dict(jc.form_from_dict(doc, validate=False))
    has_y = doc.get("y") is not None
    return back == {
        "domain": {"factors": _factors(doc["domain"])},
        "codomain": {"factors": _factors(doc["codomain"])},
        "sigma": sorted(doc["sigma"]),
        "f_p": [_bijection(b) for b in doc["f_p"]],
        "y": [float(v) for v in doc["y"]] if has_y else None,
        "J": _operator(doc["J"]) if has_y else None,
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("documents")
    (d / "algebra.json").write_text(json.dumps(DOCUMENTS["algebra"]))
    return d


def _argvs(kind, path, workdir):
    alg = str(workdir / "algebra.json")
    if kind == "algebra":
        return [["analyze", "--algebra", path], ["decompose", "--algebra", path]]
    if kind == "element":
        return [["spectrum", "--algebra", alg, "--element", path]]
    if kind == "operator":
        return [["factorize", "--algebra", alg, "--map", path]]
    return [["verify-oiso", "--form", path, "--trials", "5"]]


def test_documents_are_valid():
    for kind, doc in DOCUMENTS.items():
        assert _roundtrips(kind, doc), kind


def test_undefined_keys_are_ignored():
    def noted(doc):
        return {**doc, "note": "x"}

    algebra = noted({"factors": [noted(f) for f in DOCUMENTS["algebra"]["factors"]]})
    assert _roundtrips("algebra", algebra)
    assert _roundtrips("operator", noted(DOCUMENTS["operator"]))
    form = DOCUMENTS["form"]
    assert _roundtrips("form", noted({
        **form, "domain": noted(form["domain"]), "f_p": [noted(b) for b in form["f_p"]],
        "J": noted(form["J"]),
    }))


@pytest.mark.parametrize("kind", list(DOCUMENTS))
def test_no_input_ends_in_a_traceback(kind, workdir):
    @settings(max_examples=100, deadline=None)
    @given(mutated(kind))
    def check(doc):
        text = json.dumps(doc)
        assert len(text) <= 10_000
        path = workdir / f"{kind}.mutated.json"
        path.write_text(text)
        for argv in _argvs(kind, str(path), workdir):
            code, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv, code, err)
            assert "Traceback" not in err
            if code == 0:
                assert _roundtrips(kind, doc), text

    check()
