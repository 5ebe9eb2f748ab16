"""Spans around calls into the package, installed from outside it.

``Tracer.install`` wraps every public function of the package's modules, a
few class methods and the ``numpy.linalg`` kernels the package calls, and
rebinds each wrapped object under every name that holds it in any
``jordancone`` module, so ``from .core import ...`` callers are traced too.
``uninstall`` puts every original back.

Each span adds its duration to its parent, so a span's self time is its
duration minus the time its child spans cover.  Self time, calls and raised
exceptions are summed per span name as calls return; raw spans (name, start,
end, parent, op) are kept only for the first ``SAMPLE_OPS`` ops, up to
``MAX_SPANS``.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import numpy as np

MODULES = ("cli", "core", "spectral", "structure", "ordermaps", "verify")
LINALG = ("svd", "eigh", "eigvalsh", "inv", "qr")
SAMPLE_OPS = 2  # ops whose raw spans are kept
MAX_SPANS = 20_000
ALIASES = {
    "decompose_engaged_disengaged": "decompose",
    "factorize_linear_order_iso": "factorize",
}
# (module, class, attribute, span name); properties are wrapped on their getter
METHODS = (
    ("core", "Element", "__post_init__", "core.element_new"),
    ("ordermaps", "OrderIsoForm", "__post_init__", "ordermaps.form_init"),
    ("structure", "Decomposition", "split", "structure.split"),
    ("structure", "Decomposition", "engaged_slots", "structure.split"),
)


def _commutator_bytes(args, kwargs, result) -> float:
    # center_basis stacks d^3 x d float64 commutator coordinates
    algebra = args[0] if args else kwargs["algebra"]
    return 8.0 * algebra.total_dim ** 4


def _report_trials(args, kwargs, result) -> float:
    return float(result.trials)


EXTRAS = {
    "structure.center_basis": _commutator_bytes,
    "verify.check_order_preserving": _report_trials,
    "verify.check_linearity_blackbox": _report_trials,
}


class Stat:
    __slots__ = ("calls", "self_s", "raised", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.extra = 0.0


class Tracer:
    def __init__(self, lib) -> None:
        self.lib = lib
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.ops = 0
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._op_id: int | None = None
        self._recording = False
        self._op_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def targets(self) -> list[tuple[object, str, object, str]]:
        """(owner, attribute, original, span name) for everything wrapped."""
        out = []
        for mod_name in MODULES:
            mod = getattr(self.lib, mod_name)
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    out.append((mod, attr, obj, f"{mod_name}.{ALIASES.get(attr, attr)}"))
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(getattr(self.lib, mod_name), cls_name, None)
            if cls is not None and attr in cls.__dict__:
                out.append((cls, attr, cls.__dict__[attr], span))
        for attr in LINALG:
            out.append((np.linalg, attr, getattr(np.linalg, attr), f"linalg.{attr}"))
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for owner, attr, original, span in self.targets():
            if isinstance(original, property):
                replacement = property(self._wrap(original.fget, span))
            else:
                replacement = self._wrap(original, span)
            wrapped[id(original)] = replacement
            self._rebind(owner, attr, original, replacement)
        # re-exports: every other package namespace holding a wrapped object
        for mod in self.lib.namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._rebind(mod, attr, obj, wrapped[id(obj)])

    def _rebind(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, Stat())
        extra = EXTRAS.get(name)
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                end = clock()
                stack.pop()
                stat.calls += 1
                stat.self_s += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if tracer._recording:
                    tracer._record(name, start, end, frame[1], parent)
            if extra is not None:
                stat.extra += extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, name, start, end, span_id, parent) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, span_id, parent, self._op_id))

    def begin_op(self, op_id: int) -> None:
        """Open the op's root span; its self time is the benchmark's own work."""
        self._op_id = op_id
        self._recording = self.ops < SAMPLE_OPS
        self._stack.append([0.0, next(self._ids)])
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        stat = self.stats.setdefault("op", Stat())
        stat.calls += 1
        stat.self_s += end - self._op_start - frame[0]
        if self._recording:
            self._record("op", self._op_start, end, frame[1], 0)
        self._recording = False
        self.ops += 1

    # -- output ---------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))

    def module_calls(self, module: str) -> int:
        prefix = module + "."
        return sum(s.calls for n, s in self.stats.items() if n.startswith(prefix))

    def write_spans(self, path: Path) -> None:
        """One JSON object per line; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "id": span_id, "parent": parent, "op": op,
                }) + "\n")
