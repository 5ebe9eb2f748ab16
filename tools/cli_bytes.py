"""Fingerprint the CLI's output on a fixed set of cases, for byte-identity checks.

    python3 tools/cli_bytes.py > cli_bytes.txt

Runs every case in-process through ``jordancone.cli.main``, with the package
imported from ``src/`` beside this directory, and prints one line per case:
the case id and the sha256 of its exit code, stdout and stderr.  Two
checkouts whose reports should agree byte for byte are compared with
``diff`` on their outputs.

The cases cover every verb in both formats: analyze and decompose on mixed
algebras; spectrum on spin(4), spin(7), repeated sym(2)/sym(3) sums and
degenerate, negative and nearly degenerate elements; factorize on valid
``U_y J`` maps and on negative, singular, non-Jordan and non-positive ones;
verify-oiso on grid power demos, random classified forms, a tampered ``J``
and all-NaN ``y`` forms across seeds and trial counts; demo-nonlinear, with
an overflowing power (exit 2); malformed inputs of every kind (exit 1),
among them factor entries that are not objects, nested coordinate lists,
non-integer operator shapes, strings and booleans where numbers belong,
integers too large for a float or for Python's digit limit, form entries of
the wrong shape, piecewise-linear slopes that overflow or underflow a float
and JSON nested 1000 deep; and ``selftest --format structured`` (about 10 s).  Input files are written to a temporary
directory and named by relative paths, so error messages do not depend on
where it lies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jordancone as jc  # noqa: E402
from jordancone import cli  # noqa: E402
from jordancone.core import algebra_from_dict  # noqa: E402

FORMATS = ("text", "structured")


def _factors(*spec) -> list[dict]:
    return [{"kind": k} if k == "real" else {"kind": k, "n": n} for k, n in spec]


ALGEBRAS = {
    "r_r_s3": _factors(("real", 0), ("real", 0), ("sym", 3)),
    "r_s2_sp2": _factors(("real", 0), ("sym", 2), ("spin", 2)),
    "sp4": _factors(("spin", 4)),
    "sp7": _factors(("spin", 7)),
    "r_sp4_sp7": _factors(("real", 0), ("spin", 4), ("spin", 7)),
    "s2x4_r": _factors(*[("sym", 2)] * 4, ("real", 0)),
    "s3x3": _factors(*[("sym", 3)] * 3),
    "s2_s3_s2_s3_r": _factors(("sym", 2), ("sym", 3), ("sym", 2), ("sym", 3), ("real", 0)),
    "s1_sp3_s4": _factors(("sym", 1), ("spin", 3), ("sym", 4)),
    "s16": _factors(("sym", 16)),
}


def _elements(algebra: jc.AlgebraDescriptor, rng: np.random.Generator) -> dict:
    d = algebra.total_dim
    e = np.array(algebra.unit_coords)
    no_u = rng.standard_normal(d)
    for f, sl in zip(algebra.factors, algebra.slices):
        if f.kind == "spin":
            no_u[sl.start + 1:sl.stop] = 0.0
    return {
        "random": rng.standard_normal(d),
        "large": rng.standard_normal(d) * 1e6,
        "small": rng.standard_normal(d) * 1e-6,
        "square": jc.random_positive(algebra, rng).coords,
        "unit": e,
        "negative_unit": -2.0 * e,
        "near_degenerate": 3.0 * e + 1e-12 * rng.standard_normal(d),
        "spin_u_zero": no_u,
        "zero": np.zeros(d),
    }


def _maps(algebra: jc.AlgebraDescriptor, seed: int) -> dict:
    d = algebra.total_dim
    u_y = jc.quadratic_rep(jc.random_interior(algebra, seed)).matrix
    j = jc.random_jordan_automorphism(algebra, seed).matrix
    bent = np.eye(d)
    bent[0, -1] = 0.3
    outside = np.eye(d)
    outside[0, 0] = -1.0
    return {
        "u_y_j": u_y @ j,
        "identity": np.eye(d),
        "negation": -np.eye(d),
        "singular": np.zeros((d, d)),
        "not_jordan": u_y @ bent,
        "te_outside": outside,
    }


def _forms() -> dict:
    forms = {
        "grid20_a2": jc.grid_power_demo(20, lambda t: 2.0 if t <= 0.5 else 1.0),
        "grid20_a1.8373": jc.grid_power_demo(20, lambda t: 1.8373 if t <= 0.5 else 1.0),
        "grid8": jc.grid_power_demo(8, lambda t: 2.0 if t <= 0.5 else 1.0),
    }
    for name, spec, seed in (
        ("oiso_r_s2_sp2", (jc.real(), jc.sym(2), jc.spin(2)), 3),
        ("oiso_rr_sp2_sp2", (jc.real(), jc.real(), jc.spin(2), jc.spin(2)), 4),
        ("oiso_r_sp4_s3", (jc.real(), jc.spin(4), jc.sym(3), jc.real()), 5),
    ):
        algebra = jc.direct_sum(*spec)
        forms[name] = jc.random_order_iso(algebra, algebra, seed)
    docs = {name: jc.form_to_dict(form) for name, form in forms.items()}
    tampered = jc.form_to_dict(forms["oiso_r_s2_sp2"])
    n = tampered["J"]["rows"]
    data = np.array(tampered["J"]["data"]).reshape(n, n)
    data[0, 1] += 0.4
    tampered["J"]["data"] = data.ravel().tolist()
    docs["tampered_j"] = tampered
    for name, spec in (("nan_y_rr_s2", (jc.sym(2),)), ("nan_y_rr_s3", (jc.sym(3),))):
        algebra = jc.direct_sum(jc.real(), jc.real(), *spec)
        doc = jc.form_to_dict(jc.identity_form(algebra))
        doc["y"] = [float("nan")] * len(doc["y"])
        docs[name] = doc
    return docs


def _write(name: str, doc) -> str:
    Path(name).write_text(json.dumps(doc))
    return name


def cases() -> list[tuple[str, list[str]]]:
    """(case id, argv) pairs; writes their input files to the working directory."""
    out: list[tuple[str, list[str]]] = []

    def add(case: str, argv: list[str], formats=FORMATS) -> None:
        for fmt in formats:
            out.append((f"{case}:{fmt}", argv + ["--format", fmt]))

    rng = np.random.default_rng(20240)
    for name, factors in ALGEBRAS.items():
        alg_path = _write(f"alg_{name}.json", {"factors": factors})
        algebra = algebra_from_dict({"factors": factors})
        add(f"analyze:{name}", ["analyze", "--algebra", alg_path, "--seed", "3"])
        add(f"decompose:{name}", ["decompose", "--algebra", alg_path])
        for ename, coords in _elements(algebra, rng).items():
            path = _write(f"elt_{name}_{ename}.json", [float(v) for v in coords])
            add(f"spectrum:{name}:{ename}",
                ["spectrum", "--algebra", alg_path, "--element", path])
        if algebra.total_dim <= 40:
            for mname, m in _maps(algebra, 7).items():
                path = _write(f"map_{name}_{mname}.json", {
                    "rows": m.shape[0], "cols": m.shape[1],
                    "data": [float(v) for v in m.ravel()],
                })
                add(f"factorize:{name}:{mname}",
                    ["factorize", "--algebra", alg_path, "--map", path])

    for name, doc in _forms().items():
        path = _write(f"form_{name}.json", doc)
        trials = (20, 300) if name.startswith("nan_y") else (0, 20, 60, 100, 1000)
        for seed in range(5):
            for t in trials:
                add(f"verify-oiso:{name}:seed{seed}:trials{t}",
                    ["verify-oiso", "--form", path, "--seed", str(seed), "--trials", str(t)])

    for n_grid in (4, 8, 20):
        for seed in range(3):
            add(f"demo-nonlinear:n{n_grid}:seed{seed}",
                ["demo-nonlinear", "--n-grid", str(n_grid), "--seed", str(seed),
                 "--trials", "400"])
    add("demo-nonlinear:power1.5", ["demo-nonlinear", "--power", "1.5"])

    # malformed input: exit 1 (argparse usage errors exit 2)
    Path("broken.json").write_text("{not json")
    s3 = "alg_r_r_s3.json"
    bad = {
        "bad_kind": {"factors": [{"kind": "octonion"}]},
        "bad_n": {"factors": [{"kind": "sym", "n": 2.5}]},
        "bad_n_bool": {"factors": [{"kind": "spin", "n": True}]},
        "spin1": {"factors": [{"kind": "spin", "n": 1}]},
        "too_big": {"factors": [{"kind": "sym", "n": 23}]},
        "no_factors": {"algebra": []},
    }
    for name, doc in bad.items():
        path = _write(f"bad_alg_{name}.json", doc)
        add(f"bad:analyze:{name}", ["analyze", "--algebra", path])
    add("bad:analyze:missing", ["analyze", "--algebra", "missing.json"])
    add("bad:analyze:broken", ["analyze", "--algebra", "broken.json"])
    for name, doc in (
        ("nan", [float("nan")] + [0.0] * 7),
        ("inf", [float("inf")] * 8),
        ("short", [1.0, 2.0]),
        ("text", "abc"),
    ):
        path = _write(f"bad_elt_{name}.json", doc)
        add(f"bad:spectrum:{name}", ["spectrum", "--algebra", s3, "--element", path])
    for name, doc in (
        ("nan", {"rows": 8, "cols": 8, "data": [float("nan")] * 64}),
        ("shape", {"rows": 8, "cols": 8, "data": [0.0] * 10}),
        ("keys", {"data": []}),
    ):
        path = _write(f"bad_map_{name}.json", doc)
        add(f"bad:factorize:{name}", ["factorize", "--algebra", s3, "--map", path])
    add("bad:verify-oiso:broken", ["verify-oiso", "--form", "broken.json"])
    add("bad:verify-oiso:alg-as-form", ["verify-oiso", "--form", s3])
    add("bad:verify-oiso:negative-trials",
        ["verify-oiso", "--form", "form_grid8.json", "--trials", "-1"])
    add("bad:demo-nonlinear:n-grid", ["demo-nonlinear", "--n-grid", "200"])
    add("bad:demo-nonlinear:negative-trials", ["demo-nonlinear", "--trials", "-5"])
    out.append(("bad:usage:no-verb", []))
    out.append(("bad:usage:unknown-verb", ["frobnicate"]))
    out.append(("bad:usage:bad-format", ["analyze", "--algebra", s3, "--format", "xml"]))

    out.append(("selftest:structured", ["selftest", "--format", "structured"]))

    # later cases go last, so every earlier line keeps its place in the output
    add("demo-nonlinear:power-overflow",  # t**200 overflows: exit 2
        ["demo-nonlinear", "--power", "200", "--n-grid", "4", "--trials", "50"])
    grid8 = json.loads(Path("form_grid8.json").read_text())
    for name, factors in (("entry_str", ["real"]), ("entry_int", [5]), ("str", "real")):
        path = _write(f"bad_alg_factors_{name}.json", {"factors": factors})
        add(f"bad:analyze:factors_{name}", ["analyze", "--algebra", path])
        path = _write(f"bad_form_factors_{name}.json", {**grid8, "domain": {"factors": factors}})
        add(f"bad:verify-oiso:factors_{name}", ["verify-oiso", "--form", path])
    path = _write("bad_elt_nested.json", [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    add("bad:spectrum:nested", ["spectrum", "--algebra", s3, "--element", path])
    eye8 = [float(v) for v in np.eye(8).ravel()]
    for name, rows in (("rows_float", 8.0), ("rows_fraction", 8.5), ("rows_bool", True)):
        path = _write(f"bad_map_{name}.json", {"rows": rows, "cols": 8, "data": eye8})
        add(f"bad:factorize:{name}", ["factorize", "--algebra", s3, "--map", path])
    # values that are not JSON numbers, or too large for a float: exit 1
    rr = _write("alg_rr.json", {"factors": _factors(("real", 0), ("real", 0))})
    huge = 10**400
    for name, doc in (("strings", ["1.5", "2"]), ("booleans", [True, False]),
                      ("huge_int", [1, huge])):
        path = _write(f"bad_elt_{name}.json", doc)
        add(f"bad:spectrum:{name}", ["spectrum", "--algebra", rr, "--element", path])
    for name, entry in (("data_str", "1"), ("data_bool", True), ("data_huge_int", huge)):
        path = _write(f"bad_map_{name}.json",
                      {"rows": 8, "cols": 8, "data": [entry] + eye8[1:]})
        add(f"bad:factorize:{name}", ["factorize", "--algebra", s3, "--map", path])
    rr_s2 = jc.form_to_dict(jc.identity_form(jc.direct_sum(jc.real(), jc.real(), jc.sym(2))))
    for name, change in (
        ("sigma_float", {"sigma": [[0.9, 0], [1, 1]]}),
        ("alpha_str", {"f_p": [{"kind": "power", "alpha": "2.5"}] * 2}),
        ("alpha_bool", {"f_p": [{"kind": "power", "alpha": True}] * 2}),
        ("alpha_huge_int", {"f_p": [{"kind": "power", "alpha": huge}] * 2}),
        ("knot_str",
         {"f_p": [{"kind": "piecewise_linear", "breakpoints": [[0, 0], ["1", 2]]}] * 2}),
        ("y_huge_int", {"y": [huge, 0, 1]}),
        ("y_without_j", {"J": None}),
    ):
        path = _write(f"bad_form_{name}.json", {**rr_s2, **change})
        add(f"bad:verify-oiso:{name}", ["verify-oiso", "--form", path, "--trials", "20"])
    Path("bad_int_digits.json").write_text("[1" + "0" * 5000 + "]")
    add("bad:analyze:int_digits", ["analyze", "--algebra", "bad_int_digits.json"])
    # malformed structure: exit 1 with the field named
    pwl = "piecewise_linear"
    for name, change in (
        ("f_p_ints", {"f_p": [5, 5]}),
        ("sigma_triple", {"sigma": [[0, 0, 0], [1, 1]]}),
        ("power_no_alpha", {"f_p": [{"kind": "power"}] * 2}),
        ("knot_triple", {"f_p": [{"kind": pwl, "breakpoints": [[0, 0], [1, 2, 3]]}] * 2}),
        ("j_list", {"J": [1.0, 0.0, 0.0]}),
        ("slope_inf", {"f_p": [{"kind": pwl, "breakpoints": [[0, 0], [1e-300, 1e300]]}] * 2}),
        ("slope_zero", {"f_p": [{"kind": pwl, "breakpoints": [[0, 0], [1e300, 1e-300]]}] * 2}),
    ):
        path = _write(f"bad_form_{name}.json", {**rr_s2, **change})
        add(f"bad:verify-oiso:{name}", ["verify-oiso", "--form", path, "--trials", "20"])
    path = _write("bad_form_list.json", [rr_s2])
    add("bad:verify-oiso:form_list", ["verify-oiso", "--form", path])
    path = _write("bad_elt_object.json", {"coords": [1.0, 2.0]})
    add("bad:spectrum:object", ["spectrum", "--algebra", rr, "--element", path])
    Path("bad_deep.json").write_text("[" * 1000 + "]" * 1000)
    add("bad:analyze:deep", ["analyze", "--algebra", "bad_deep.json"])
    add("bad:verify-oiso:deep", ["verify-oiso", "--form", "bad_deep.json"])
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as err:  # argparse usage errors
            code = err.code
    return code, stdout.getvalue(), stderr.getvalue()


def main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for case, argv in cases():
                code, out, err = run(argv)
                digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
                print(f"{case} exit={code} {digest}", flush=True)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
