"""Run one jordancone benchmark workload and print its metrics.

    python3 bench/run.py --workload cold-analyze --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` beside this directory, never from an
installed copy; without it the run exits with code 2 and prints no result.
Setup (package import, input generation, input files, warm-up) runs
``SETUP_REPEATS`` times, each on a fresh import so no cache survives, and the
last one is kept.  Ops then run back to back, one client in one process, for
``--seconds``; every result is checked.

With ``--trace 1`` the first half of the time runs untraced and the second
half under ``tracing.Tracer``; the metrics are then the per-layer ones, per
traced op, and raw spans of the first traced ops go to ``bench/out/``.

The last stdout line is the result object; the line before it holds the run
details: sample counts, ratio bases, failures, workload properties, machine.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

sys.dont_write_bytecode = True  # write nothing into the source tree

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - START

BENCH_DIR = Path(__file__).resolve().parent
PACKAGE_DIR = BENCH_DIR.parent / "src" / "jordancone"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MIN_LATENCY_SAMPLES = 100  # so that >= 10 latencies lie beyond the p90
EXIT_NO_PACKAGE = 2


class MissingPackage(Exception):
    pass


def load_library() -> SimpleNamespace:
    """Import the package afresh from the source tree beside the benchmark."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {PACKAGE_DIR}")
    for name in [n for n in sys.modules if n == "jordancone" or n.startswith("jordancone.")]:
        del sys.modules[name]
    src = str(PACKAGE_DIR.parent)
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("jordancone")
    if Path(package.__file__).resolve().parent != PACKAGE_DIR:
        raise MissingPackage(f"jordancone imported from {package.__file__}, not {PACKAGE_DIR}")
    modules = {m: importlib.import_module(f"jordancone.{m}") for m in tracing.MODULES}
    namespaces = [
        mod for name, mod in sys.modules.items()
        if name == "jordancone" or name.startswith("jordancone.")
    ]
    return SimpleNamespace(package=package, namespaces=namespaces, **modules)


def set_up(workload: str, seed: int, workdir: Path, sizes: dict):
    """One full setup: fresh import, inputs, input files, warm-up."""
    start = time.perf_counter()
    lib = load_library()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[workload](lib, seed, workdir, **sizes)
    wl.prepare()
    wl.warm_up()
    return time.perf_counter() - start, wl


@dataclass
class Phase:
    first_op: int
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> int:
        return self.attempted - len(self.failures)


def run_ops(wl, seconds: float, first_op: int, tracer=None) -> Phase:
    """Closed loop: the next op starts when the previous one is checked."""
    phase = Phase(first_op)
    clock = time.perf_counter
    paused = 0.0
    start = clock()
    i = first_op
    while clock() - start - paused < seconds:
        t = clock()
        wl.ensure_inputs(i + 1)  # per-op inputs past the block made in setup
        paused += clock() - t
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            raw, problem = wl.execute(i), None
        except Exception as exc:  # an op that raises is a failed op
            raw, problem = None, f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        if problem is None:
            try:
                problem = wl.check(i, raw)
            except Exception as exc:  # unreadable output is a wrong answer
                problem = f"check raised {type(exc).__name__}: {exc}"
        phase.latencies.append(t1 - t0)
        if problem is not None:
            phase.failures.append((i, problem))
        i += 1
    phase.elapsed = clock() - start - paused
    return phase


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


# (name, unit, better, value from the traced phase) for --trace 1
def _per_op(get):
    return lambda tr, ctx: get(tr) / max(tr.ops, 1)


def _calls(name):
    return _per_op(lambda tr: tr.stat(name).calls)


def _self(name):
    return _per_op(lambda tr: tr.stat(name).self_s)


def _module_self(module):
    return _per_op(lambda tr: tr.module_self_s(module))


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = (
    ("structure.center_basis.calls", "calls/op", "lower", _calls("structure.center_basis")),
    ("structure.center_basis.self_s", "s/op", "lower", _self("structure.center_basis")),
    ("structure.center_basis.bytes_computed", "B/op", "lower",
     _per_op(lambda tr: tr.stat("structure.center_basis").extra)),
    ("structure.decompose.calls", "calls/op", "lower", _calls("structure.decompose")),
    ("structure.decompose.cache_hit_ratio", "ratio", "higher",
     lambda tr, ctx: _ratio(ctx["cache_hits"], ctx["cache_lookups"])),
    ("structure.split.self_s", "s/op", "lower", _self("structure.split")),
    ("structure.self_s", "s/op", "lower", _module_self("structure")),
    ("core.jordan_product.calls", "calls/op", "lower", _calls("core.jordan_product")),
    ("core.jordan_product.self_s", "s/op", "lower", _self("core.jordan_product")),
    ("core.element_new.count", "count/op", "lower", _calls("core.element_new")),
    ("core.quadratic_rep.calls", "calls/op", "lower", _calls("core.quadratic_rep")),
    ("core.quadratic_rep.self_s", "s/op", "lower", _self("core.quadratic_rep")),
    ("core.mult_operator.calls", "calls/op", "lower", _calls("core.mult_operator")),
    ("core.self_s", "s/op", "lower", _module_self("core")),
    ("spectral.spectrum.calls", "calls/op", "lower", _calls("spectral.spectrum")),
    ("spectral.spectrum.self_s", "s/op", "lower", _self("spectral.spectrum")),
    ("spectral.spectral_decomposition.calls", "calls/op", "lower",
     _calls("spectral.spectral_decomposition")),
    ("spectral.spectral_decomposition.self_s", "s/op", "lower",
     _self("spectral.spectral_decomposition")),
    ("spectral.functional_calculus.self_s", "s/op", "lower", _self("spectral.functional_calculus")),
    ("spectral.self_s", "s/op", "lower", _module_self("spectral")),
    ("ordermaps.is_jordan_homomorphism.self_s", "s/op", "lower",
     _self("ordermaps.is_jordan_homomorphism")),
    ("ordermaps.factorize.calls", "calls/op", "lower", _calls("ordermaps.factorize")),
    ("ordermaps.factorize.self_s", "s/op", "lower", _self("ordermaps.factorize")),
    ("ordermaps.factorize.reject_ratio", "ratio", "lower",
     lambda tr, ctx: _ratio(tr.stat("ordermaps.factorize").raised,
                            tr.stat("ordermaps.factorize").calls)),
    ("ordermaps.apply_order_iso.calls", "calls/op", "lower", _calls("ordermaps.apply_order_iso")),
    ("ordermaps.apply_order_iso.self_s", "s/op", "lower", _self("ordermaps.apply_order_iso")),
    ("ordermaps.form_init.self_s", "s/op", "lower", _self("ordermaps.form_init")),
    ("ordermaps.self_s", "s/op", "lower", _module_self("ordermaps")),
    ("verify.trials", "trials/op", "higher",
     _per_op(lambda tr: tr.stat("verify.check_order_preserving").extra
             + tr.stat("verify.check_linearity_blackbox").extra)),
    ("verify.check_order_preserving.self_s", "s/op", "lower",
     _self("verify.check_order_preserving")),
    ("verify.check_linearity_blackbox.self_s", "s/op", "lower",
     _self("verify.check_linearity_blackbox")),
    ("verify.self_s", "s/op", "lower", _module_self("verify")),
    ("cli.calls", "calls/op", "lower", _calls("cli.main")),
    ("cli.self_s", "s/op", "lower", _module_self("cli")),
    ("linalg.calls", "calls/op", "lower", _per_op(lambda tr: tr.module_calls("linalg"))),
    ("linalg.self_s", "s/op", "lower", _module_self("linalg")),
    ("trace.overhead_ratio", "ratio", "lower",
     lambda tr, ctx: _ratio(ctx["untraced_ops_per_s"], ctx["traced_ops_per_s"])),
)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_ratio", "ratio"),
)


def workload_properties(wl, attempted: int) -> dict:
    uses = [d for i in range(attempted) for d in wl.descriptors(i)]
    dims = [ref.total_dim(d) for d in uses]
    corrupted = sum(wl.corrupted(i) for i in range(attempted))
    return {
        "descriptor_repeat_share": _ratio(len(uses) - len(set(uses)), len(uses)),
        "descriptor_uses": len(uses),
        "distinct_descriptors": len(set(uses)),
        "total_dim": {
            "min": min(dims), "median": statistics.median(dims), "max": max(dims),
        } if dims else None,
        "corrupted_map_share": _ratio(corrupted, attempted),
        "corrupted_maps": corrupted,
        "ops": attempted,
        # what one cold center_basis call per distinct descriptor stacks
        "commutator_bytes_total": sum(8 * ref.total_dim(d) ** 4 for d in set(uses)),
    }


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_env": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (result, details)."""
    sizes = sizes or {}
    workdir = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            took, wl = set_up(workload, seed, workdir, sizes)
            setups.append(took)
        details: dict = {"workload": workload, "seed": seed, "trace": int(trace)}
        if not trace:
            phases = [run_ops(wl, seconds, 0)]
            metrics = end_to_end_metrics(phases[0], setups)
        else:
            phases, metrics = traced_run(wl, seconds, workload, seed, details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = [x for ph in phases for x in ph.latencies]
    cut = p90(lat)
    attempted = sum(ph.attempted for ph in phases)
    failures = [f for ph in phases for f in ph.failures]
    if len(lat) < MIN_LATENCY_SAMPLES:
        print(f"warning: {len(lat)} latency samples, fewer than {MIN_LATENCY_SAMPLES}; "
              "the p90 has too few samples beyond it", file=sys.stderr)
    details.update({
        "latency_samples": len(lat),
        "samples_above_p90": sum(x > cut for x in lat),
        "p90_tail_ok": len(lat) >= MIN_LATENCY_SAMPLES,
        "error_ratio": _ratio(len(failures), attempted),
        "errors": len(failures),
        "attempted": attempted,
        "first_failures": [f"op {i}: {msg}" for i, msg in failures[:5]],
        "import_s": IMPORT_S,
        "setup_runs_s": setups,
        "workload_properties": workload_properties(wl, attempted),
        "machine": machine(),
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return result, details


def end_to_end_metrics(phase: Phase, setups: list) -> dict:
    lat_ms = [x * 1000.0 for x in phase.latencies]
    units = dict(END_TO_END)
    values = {
        "ops_per_s": phase.correct / phase.elapsed,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90(lat_ms),
        "setup_s": IMPORT_S + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "correct_ratio": phase.correct / phase.attempted,
    }
    return {k: (v, units[k]) for k, v in values.items()}


def traced_run(wl, seconds: float, workload: str, seed: int, details: dict):
    plain = run_ops(wl, seconds / 2, 0)
    decompose = wl.lib.structure.decompose_engaged_disengaged
    cache_info = getattr(decompose, "cache_info", None)
    before = cache_info() if cache_info else None
    tracer = tracing.Tracer(wl.lib)
    tracer.install()
    try:
        traced = run_ops(wl, seconds / 2, plain.first_op + plain.attempted, tracer)
    finally:
        tracer.uninstall()
    after = cache_info() if cache_info else None
    hits = after.hits - before.hits if cache_info else 0
    lookups = hits + (after.misses - before.misses) if cache_info else 0
    ctx = {
        "cache_hits": hits,
        "cache_lookups": lookups,
        "untraced_ops_per_s": plain.attempted / plain.elapsed,
        "traced_ops_per_s": traced.attempted / traced.elapsed,
    }
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    details.update({
        "traced_ops": tracer.ops,
        "untraced_ops": plain.attempted,
        "decompose_cache": {"hits": hits, "lookups": lookups},
        "factorize_rejections": tracer.stat("ordermaps.factorize").raised,
        "op_self_s": tracer.stat("op").self_s / max(tracer.ops, 1),
        "spans_file": str(spans_path.relative_to(BENCH_DIR.parent)),
        "spans_recorded": len(tracer.spans),
        **{k: v for k, v in ctx.items() if k.endswith("ops_per_s")},
    })
    metrics = {name: (fn(tracer, ctx), unit) for name, unit, _, fn in PER_LAYER}
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackage as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
