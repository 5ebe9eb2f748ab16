"""Tests of the benchmark itself: checkers, seeded inputs, tracing, smoke runs.

    python3 -m pytest bench/tests

They live outside ``tests/`` so the package's own suite does not collect them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "cold-analyze": {},
    "classify-roundtrip": {"points": 5, "trials": 5},
    "grid-verify": {"n_grid": 4, "trials": (10, 20)},
}


def build(name: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](run.load_library(), seed, workdir, **TINY[name])
    wl.prepare()
    return wl


def _clean_op(wl) -> int:
    """A cold-analyze op with an uncorrupted map and at least one real factor."""
    wl.ensure_inputs(64)
    return next(
        i for i in range(64)
        if not wl.corrupted(i) and ref.dim1_slots(wl.inputs[i].desc)
    )


def _edit(raw_call, **changes):
    rc, out, err = raw_call
    doc = json.loads(out)
    for path, value in changes.items():
        node = doc
        keys = path.split("__")
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value(node[keys[-1]])
    return rc, json.dumps(doc), err


# -- checkers flag wrong answers ------------------------------------------------


def test_cold_checker_flags_wrong_analysis_and_factorization(tmp_path):
    wl = build("cold-analyze", 0, tmp_path / "w")
    i = _clean_op(wl)
    analyzed, factored = wl.execute(i)
    assert wl.check(i, (analyzed, factored)) is None
    wrong_analyses = [
        _edit(analyzed, disengaged__coordinates=lambda c: [c[0] + 1] + c[1:]),
        _edit(analyzed, center_dimension=lambda c: c + 1),
        _edit(analyzed, p_D=lambda p: [v + 1e-6 for v in p]),
        (1, "", "error: malformed input\n"),
    ]
    for bad in wrong_analyses:
        assert wl.check(i, (bad, factored)) is not None
    wrong_factorizations = [
        _edit(factored, y=lambda y: [y[0] + 1e-6] + y[1:]),
        _edit(factored, J__data=lambda d: [d[0] + 1e-6] + d[1:]),
        (2, "", "error: Te not in interior of cone\n"),
    ]
    for bad in wrong_factorizations:
        assert wl.check(i, (analyzed, bad)) is not None


@pytest.mark.parametrize("message", [workloads.TE_OUT, workloads.NOT_JORDAN])
def test_cold_checker_flags_accepted_corrupted_map(tmp_path, message):
    wl = build("cold-analyze", 0, tmp_path / "w")
    wl.ensure_inputs(30)
    i = next(i for i in range(30) if wl.inputs[i].expected_error == message)
    analyzed, factored = wl.execute(i)
    assert factored[0] == 2 and wl.check(i, (analyzed, factored)) is None
    accepted = (0, json.dumps({"y": [], "J": {"data": []}}), "")
    assert wl.check(i, (analyzed, accepted)) is not None
    other = workloads.NOT_JORDAN if message == workloads.TE_OUT else workloads.TE_OUT
    assert wl.check(i, (analyzed, (2, "", f"error: {other}\n"))) is not None


def test_classify_checker_flags_wrong_identity_and_reports(tmp_path):
    wl = build("classify-roundtrip", 0, tmp_path / "w")
    images, forward, backward = wl.execute(0)
    assert wl.check(0, (images, forward, backward)) is None
    assert wl.check(0, (images + 1e-6, forward, backward)) is not None
    failed = dataclasses.replace(
        forward, failures=(wl.lib.verify.Failure((), "order preserved", 1.0),)
    )
    assert wl.check(0, (images, failed, backward)) is not None
    assert wl.check(0, (images, forward, dataclasses.replace(backward, trials=4))) is not None


def test_grid_checker_flags_wrong_verdicts(tmp_path):
    wl = build("grid-verify", 0, tmp_path / "w")
    raw = wl.execute(0)
    assert wl.check(0, raw) is None
    wrong = [
        (3, raw[1], raw[2]),
        _edit(raw, violations_found=lambda v: True),
        _edit(raw, linearity__claimed_linear=lambda v: True),
        _edit(raw, order_preservation__trials=lambda t: t - 1),
    ]
    for bad in wrong:
        assert wl.check(0, bad) is not None


# -- inputs come from the seed alone --------------------------------------------


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_descriptors(tmp_path, name):
    a = build(name, 3, tmp_path / "a")
    b = build(name, 3, tmp_path / "b")
    c = build(name, 4, tmp_path / "c")
    assert _files(a.workdir) == _files(b.workdir)
    ops = range(8)
    assert [a.descriptors(i) for i in ops] == [b.descriptors(i) for i in ops]
    if name == "classify-roundtrip":
        for pa, pb in zip(a.points, b.points):
            assert np.array_equal([p.coords for p in pa], [p.coords for p in pb])
    if name == "grid-verify":  # one fixed grid algebra; the seed picks the exponent
        assert a.alpha == b.alpha != c.alpha
    else:
        assert [a.descriptors(i) for i in ops] != [c.descriptors(i) for i in ops]


def test_cold_descriptors_never_repeat(tmp_path):
    wl = build("cold-analyze", 0, tmp_path / "w")
    wl.ensure_inputs(60)
    descs = [wl.inputs[i].desc for i in range(-2, 60)]
    assert len(set(descs)) == len(descs)
    assert all(10 <= ref.total_dim(d) <= 40 for d in descs)


# -- tracing ---------------------------------------------------------------------


def _bindings(lib) -> dict:
    out = {}
    for mod in lib.namespaces:
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for _, cls_name, attr, _ in tracing.METHODS:
        for mod in lib.namespaces:
            cls = vars(mod).get(cls_name)
            if isinstance(cls, type):
                out[(cls_name, attr)] = cls.__dict__[attr]
    out.update({("linalg", k): getattr(np.linalg, k) for k in tracing.LINALG})
    return out


def test_tracer_rebinds_every_name_and_restores_originals():
    lib = run.load_library()
    before = _bindings(lib)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        original = before[("jordancone.core", "jordan_product")]
        for mod in lib.namespaces:
            assert all(v is not original for v in vars(mod).values()), mod.__name__
        assert lib.package.jordan_product.__wrapped__ is original
        assert np.linalg.eigvalsh is not before[("linalg", "eigvalsh")]
    finally:
        tracer.uninstall()
    after = _bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_ops_give_identical_results(tmp_path):
    wl = build("cold-analyze", 1, tmp_path / "w")
    i = _clean_op(wl)
    untraced = wl.execute(i)
    tracer = tracing.Tracer(wl.lib)
    tracer.install()
    try:
        tracer.begin_op(i)
        traced = wl.execute(i)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert traced == untraced and wl.check(i, traced) is None
    assert tracer.stat("structure.center_basis").calls == 1  # one miss, then served from cache
    assert tracer.stat("cli.main").calls == 2
    assert tracer.spans and {s[-1] for s in tracer.spans} == {i}


# -- whole runs --------------------------------------------------------------------


def _declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metrics_printed():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_completes(name, trace):
    result, details = run.run(name, 0, 0.3, trace, sizes=TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _declared()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert details["workload_properties"]["ops"] == result["attempted"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "grid-verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == run.EXIT_NO_PACKAGE
    assert proc.stdout == ""
