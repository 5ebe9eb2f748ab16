"""The three benchmark workloads: seeded inputs, one timed op each, and checks.

Every workload draws its inputs from ``--seed`` alone and hands the package
only those inputs.  ``execute(i)`` is the timed op; ``check(i, raw)`` judges
its result afterwards with ``reference`` arithmetic and the descriptor, never
with the function under test, and returns ``None`` or the reason it failed.
Ops are numbered from 0; negative numbers are warm-up ops.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref

TE_OUT = "Te not in interior of cone"
NOT_JORDAN = "residual map is not a Jordan isomorphism"


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run a CLI verb in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def op_seed(seed: int, i: int) -> int:
    return (seed * 1_000_003 + i * 7_919 + 12_345) % (2**31 - 1)


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class Workload:
    """Shared shape: ``prepare`` and ``warm_up`` run in setup, then ops."""

    name = ""

    def __init__(self, lib: SimpleNamespace, seed: int, workdir: Path) -> None:
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def ensure_inputs(self, count: int) -> None:
        """Make inputs for ops ``0..count-1``; a no-op unless inputs are per op."""

    def descriptors(self, i: int) -> tuple[ref.Descriptor, ...]:
        raise NotImplementedError

    def corrupted(self, i: int) -> bool:
        return False


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ColdInput:
    desc: ref.Descriptor
    algebra_path: str
    map_path: str
    y: np.ndarray
    j: np.ndarray
    expected_error: str | None


class ColdAnalyze(Workload):
    """``analyze`` then ``factorize`` on a descriptor no earlier op has used.

    Descriptors are 2-5 factors from real, sym(2..5), spin(2, 4, 7).  Each
    block of 30 ops visits every total_dim in 10..39 once, in a seeded order,
    so every seed sees the same mix of sizes.  The map is corrupted by size,
    so the corrupted ops cost the same on every seed: ``total_dim % 8 == 3``
    gets a map whose ``Te`` left the cone, ``total_dim % 8 == 7`` a unital
    non-multiplicative perturbation (8 sizes of 30), all others ``U_y J``.
    """

    name = "cold-analyze"
    CHOICES = (
        ("real", 0), ("sym", 2), ("sym", 3), ("sym", 4), ("sym", 5),
        ("spin", 2), ("spin", 4), ("spin", 7),
    )
    DIMS = tuple(range(10, 40))

    def __init__(self, lib, seed, workdir) -> None:
        super().__init__(lib, seed, workdir)
        self.seen: set = set()
        self.inputs: dict[int, _ColdInput] = {}
        self.schedule: list[int] = []

    def prepare(self) -> None:
        # one small and one middle-sized algebra to warm up on, then one block
        # of sizes; the timed loop makes the rest with its clock paused
        for i, dim in zip((-2, -1), (10, 23)):
            self.inputs[i] = self._make_input(i, dim)
        self.ensure_inputs(len(self.DIMS))

    def ensure_inputs(self, count: int) -> None:
        while len(self.schedule) < count:
            self.schedule.extend(int(d) for d in self.rng.permutation(self.DIMS))
        for i in range(len(self.inputs) - 2, count):
            self.inputs[i] = self._make_input(i, self.schedule[i])

    def _draw_descriptor(self, dim: int) -> ref.Descriptor:
        """An unseen descriptor of 2-5 factors with the given total_dim.

        Falls back to any total_dim in 10..40 once that size looks exhausted,
        so a package fast enough to run many ops still gets new descriptors.
        Forty stays far below sym(16) (d = 136), whose commutator SVD needs
        8 d^4 B.
        """
        choices = self.CHOICES
        for lo, hi in ((dim, dim), (10, 40)):
            for _ in range(5000):
                k = int(self.rng.integers(2, 6))
                desc = tuple(choices[j] for j in self.rng.integers(0, len(choices), size=k))
                if lo <= ref.total_dim(desc) <= hi and desc not in self.seen:
                    self.seen.add(desc)
                    return desc
        raise RuntimeError(f"no unseen descriptor near total_dim {dim}")

    def _make_input(self, i: int, dim: int) -> _ColdInput:
        rng = self.rng
        desc = self._draw_descriptor(dim)
        y = ref.random_interior(desc, rng)
        j = ref.random_automorphism(desc, rng)
        t = ref.quadratic_rep(desc, y) @ j
        expected = None
        if dim % 8 == 3:
            t, expected = ref.push_unit_out_of_cone(desc, t, (dim // 8) % 2), TE_OUT
        elif dim % 8 == 7:
            t, expected = ref.unital_perturbation(desc, t, rng), NOT_JORDAN
        d = t.shape[0]
        tag = f"{i:+06d}"
        return _ColdInput(
            desc=desc,
            algebra_path=_write_json(self.workdir / f"{tag}-algebra.json", ref.to_dict(desc)),
            map_path=_write_json(
                self.workdir / f"{tag}-map.json",
                {"rows": d, "cols": d, "data": [float(v) for v in t.ravel()]},
            ),
            y=y,
            j=j,
            expected_error=expected,
        )

    def warm_up(self) -> None:
        for i in (-2, -1):
            self.execute(i)

    def execute(self, i: int):
        inp = self.inputs[i]
        cli = self.lib.cli
        analyzed = run_cli(cli, [
            "analyze", "--algebra", inp.algebra_path,
            "--seed", str(op_seed(self.seed, i)), "--format", "structured",
        ])
        factored = run_cli(cli, [
            "factorize", "--algebra", inp.algebra_path, "--map", inp.map_path,
            "--format", "structured",
        ])
        return analyzed, factored

    def check(self, i: int, raw) -> str | None:
        inp = self.inputs[i]
        (rc_a, out_a, err_a), (rc_f, out_f, err_f) = raw
        if rc_a != 0:
            return f"analyze exit {rc_a}: {err_a.strip()}"
        doc = json.loads(out_a)
        slots = ref.dim1_slots(inp.desc)
        if doc["center_dimension"] != len(inp.desc):
            return f"center dimension {doc['center_dimension']} != {len(inp.desc)} factors"
        if doc["disengaged"]["coordinates"] != slots:
            return f"disengaged coordinates {doc['disengaged']['coordinates']} != {slots}"
        indicator = np.zeros(ref.total_dim(inp.desc))
        indicator[slots] = 1.0
        if np.abs(np.asarray(doc["p_D"]) - indicator).max() > 1e-9:
            return "p_D is not the indicator of the dim-1 slots"
        if inp.expected_error is not None:
            if rc_f != 2 or err_f != f"error: {inp.expected_error}\n":
                return f"corrupted map: exit {rc_f}, stderr {err_f.strip()!r}"
            return None
        if rc_f != 0:
            return f"factorize exit {rc_f}: {err_f.strip()}"
        fdoc = json.loads(out_f)
        y = np.asarray(fdoc["y"])
        j = np.asarray(fdoc["J"]["data"]).reshape(inp.j.shape)
        if np.abs(y - inp.y).max() > 1e-8 or np.abs(j - inp.j).max() > 1e-8:
            return "factorization differs from the generating (y, J)"
        return None

    def descriptors(self, i: int) -> tuple[ref.Descriptor, ...]:
        return (self.inputs[i].desc,)

    def corrupted(self, i: int) -> bool:
        return self.inputs[i].expected_error is not None


# ---------------------------------------------------------------------------


class ClassifyRoundtrip(Workload):
    """Criterion 7's round trip on a small pool of domain/codomain pairs.

    Each op draws ``random_order_iso``, inverts it, composes the two, applies
    the identity to the pair's pre-generated cone points and samples order
    preservation forward and back.  The pool holds one pair per mixed sum in
    ``POOL``; the seed orders each domain's factors and permutes them again
    for the codomain.  Fixing the factor multisets keeps the cost of the pool
    the same on every seed.  Ops visit the pairs round-robin.
    """

    name = "classify-roundtrip"
    POOL = (
        (("real", 0), ("real", 0), ("sym", 2)),
        (("real", 0), ("sym", 2), ("spin", 2)),
        (("real", 0), ("sym", 3)),
        (("real", 0), ("real", 0), ("real", 0)),
        (("real", 0), ("spin", 4)),
        (("real", 0), ("sym", 2), ("spin", 3)),
        (("real", 0), ("spin", 2), ("sym", 3)),
        (("real", 0), ("real", 0), ("spin", 2), ("spin", 2)),
    )

    def __init__(self, lib, seed, workdir, points: int = 200, trials: int = 100) -> None:
        super().__init__(lib, seed, workdir)
        self.n_points = points
        self.trials = trials
        self.pool: list[tuple[ref.Descriptor, ref.Descriptor]] = []
        self.algebras: list = []
        self.points: list[list] = []

    def prepare(self) -> None:
        core = self.lib.core
        for factors in self.POOL:
            dom = tuple(factors[k] for k in self.rng.permutation(len(factors)))
            cod = tuple(dom[k] for k in self.rng.permutation(len(dom)))
            self.pool.append((dom, cod))
            dom_alg, cod_alg = (core.algebra_from_dict(ref.to_dict(a)) for a in (dom, cod))
            self.algebras.append((dom_alg, cod_alg))
            self.points.append([
                core.Element(cod_alg, ref.random_square(cod, self.rng))
                for _ in range(self.n_points)
            ])

    def warm_up(self) -> None:
        for i in range(-len(self.pool), 0):
            self.execute(i)

    def execute(self, i: int):
        om, verify = self.lib.ordermaps, self.lib.verify
        dom, cod = self.algebras[i % len(self.pool)]
        points = self.points[i % len(self.pool)]
        s = op_seed(self.seed, i)
        form = om.random_order_iso(dom, cod, seed=s)
        back = om.invert_order_iso(form)
        ident = om.compose_order_iso(form, back)
        images = np.array([om.apply_order_iso(ident, z).coords for z in points])
        forward = verify.check_order_preserving(
            lambda z: om.apply_order_iso(form, z), dom, trials=self.trials, seed=s
        )
        backward = verify.check_order_preserving(
            lambda z: om.apply_order_iso(back, z), cod, trials=self.trials, seed=s
        )
        return images, forward, backward

    def check(self, i: int, raw) -> str | None:
        images, forward, backward = raw
        z = np.array([p.coords for p in self.points[i % len(self.pool)]])
        defect = (np.abs(images - z).max(axis=1) / (1.0 + np.abs(z).max(axis=1))).max()
        if not defect <= 1e-8:
            return f"identity defect {defect:.3e} > 1e-8"
        for side, rep in (("forward", forward), ("backward", backward)):
            if not rep.passed:
                return f"{side} order report failed: max violation {rep.max_violation:.3e}"
            if rep.trials != self.trials:
                return f"{side} order report ran {rep.trials} trials, not {self.trials}"
        return None

    def descriptors(self, i: int) -> tuple[ref.Descriptor, ...]:
        return self.pool[i % len(self.pool)]


# ---------------------------------------------------------------------------


class GridVerify(Workload):
    """``verify-oiso`` on the grid power demo's form, one per-op seed each.

    Setup builds ``grid_power_demo(n_grid)`` with a seeded exponent on the
    scalar half, and writes its form file.  Op ``i`` asks for
    ``trials[i % len(trials)]`` trials: equal ops would pile their latencies
    into one narrow peak per machine speed, and the median would jump
    between peaks as the machine's speed drifts during a run.
    """

    name = "grid-verify"

    def __init__(self, lib, seed, workdir, n_grid: int = 20,
                 trials: tuple[int, ...] = (20, 40, 60, 80, 100)) -> None:
        super().__init__(lib, seed, workdir)
        self.n_grid = n_grid
        self.trials = trials
        self.alpha = float(self.rng.uniform(1.5, 2.5))
        self.desc: ref.Descriptor = ()
        self.form_path = ""

    def prepare(self) -> None:
        alpha = self.alpha
        form = self.lib.ordermaps.grid_power_demo(
            self.n_grid, lambda t: alpha if t <= 0.5 else 1.0
        )
        self.desc = tuple((f.kind, f.n) for f in form.domain.factors)
        self.form_path = _write_json(
            self.workdir / "grid-form.json", self.lib.ordermaps.form_to_dict(form)
        )

    def warm_up(self) -> None:
        self.execute(-1)

    def execute(self, i: int):
        return run_cli(self.lib.cli, [
            "verify-oiso", "--form", self.form_path, "--trials", str(self._trials(i)),
            "--seed", str(op_seed(self.seed, i)), "--format", "structured",
        ])

    def check(self, i: int, raw) -> str | None:
        rc, out, err = raw
        if rc != 0:
            return f"verify-oiso exit {rc}: {err.strip()}"
        doc = json.loads(out)
        if doc["violations_found"] is not False:
            return "violations reported on a valid form"
        if doc["linearity"]["claimed_linear"] is not False:
            return "a power map was claimed linear"
        if doc["order_preservation"]["trials"] != self._trials(i):
            return f"ran {doc['order_preservation']['trials']} trials, not {self._trials(i)}"
        return None

    def _trials(self, i: int) -> int:
        return self.trials[i % len(self.trials)]

    def descriptors(self, i: int) -> tuple[ref.Descriptor, ...]:
        return (self.desc,)


WORKLOADS = {w.name: w for w in (ColdAnalyze, ClassifyRoundtrip, GridVerify)}
