"""Batch front-end: analyze algebras, decompose elements and maps, verify
order-isomorphism forms, and run the acceptance suite.

Exit codes: 0 success, 1 malformed input, 2 mathematical precondition
failure (with the library's diagnostic), 3 verification failures found.
Structured output is a single JSON document with a ``schema_version``
field; identical commands with identical seeds produce byte-identical
structured reports.  Every verb writes its report through `_dumps`, which
matches ``json.dumps(doc, indent=2, sort_keys=True)`` byte for byte but
formats a list of floats only once however often the document cites it.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from .core import (
    Element,
    algebra_from_dict,
    algebra_to_dict,
    check_total_dim,
    element_from_list,
    element_to_list,
    operator_from_dict,
    operator_to_dict,
)
from .spectral import spectral_decomposition
from .structure import center_basis, decompose_engaged_disengaged
from .ordermaps import (
    check_linearity,
    factorize_linear_order_iso,
    form_from_dict,
    grid_power_demo,
    grid_total_dim,
)
from .verify import check_linearity_blackbox, check_order_preserving
from .selftest import run_acceptance

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATIONS = 3


class _BadInput(Exception):
    """Raised while reading or interpreting an input file (exit code 1)."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers JSONDecodeError, text that is not UTF-8 and integers
    # past Python's digit limit
    except (OSError, ValueError) as err:
        raise _BadInput(f"{path}: {err}") from err
    except RecursionError:  # about 1000 nested lists or objects
        raise _BadInput(f"{path}: JSON nested too deeply") from None


def _parse(path: str, build: Callable):
    """``build`` applied to the JSON document at ``path``; exit 1 on failure."""
    doc = _load_json(path)
    try:
        return build(doc)
    except ValueError as err:
        raise _BadInput(f"{path}: {err}") from err


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise _BadInput(f"--trials must be non-negative, got {trials}")


def _float_words(text: str) -> str:
    """Respell ``repr`` float text the way JSON does: NaN, Infinity."""
    # a finite float's repr holds no "n"
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _atom(o) -> str | None:
    """The JSON text of a scalar, or None when ``o`` is not one."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_words(float.__repr__(o))
    return None


def _key(k) -> str:
    text = k if isinstance(k, str) else _atom(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return encode_basestring_ascii(text)


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.

    A non-empty list or tuple of floats is formatted once per object and
    indent level, from one ``repr`` of the whole list, and reused wherever
    it recurs; so the coordinate lists that `SampleReport.to_dict` shares
    between failures cost one formatting each.  Raises TypeError on
    whatever ``json.dumps`` rejects.
    """
    chunks: list[str] = []
    formatted: dict[tuple[int, int], str] = {}

    def put(o, level: int) -> None:
        text = _atom(o)
        if text is not None:
            chunks.append(text)
            return
        inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
        if isinstance(o, (list, tuple)):
            key = (id(o), level)
            if key in formatted:
                chunks.append(formatted[key])
            elif not o:
                chunks.append("[]")
            elif set(map(type, o)) == {float}:
                # list repr applies float.__repr__ to each item
                body = _float_words(repr(list(o))[1:-1]).replace(", ", "," + inner)
                formatted[key] = "[" + inner + body + outer + "]"
                chunks.append(formatted[key])
            else:
                for n, v in enumerate(o):
                    chunks.append("," + inner if n else "[" + inner)
                    put(v, level + 1)
                chunks.append(outer + "]")
        elif isinstance(o, dict):
            if not o:
                chunks.append("{}")
                return
            for n, (k, v) in enumerate(sorted(o.items())):
                chunks.append(("," if n else "{") + inner + _key(k) + ": ")
                put(v, level + 1)
            chunks.append(outer + "}")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    put(doc, 0)
    return "".join(chunks)


def _emit(doc: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "structured":
        print(_dumps({"schema_version": SCHEMA_VERSION, **doc}))
    else:
        for line in text_lines:
            print(line)


def _cmd_analyze(args: argparse.Namespace) -> int:
    algebra = _parse(args.algebra, algebra_from_dict)
    dec = decompose_engaged_disengaged(algebra)
    center_dim = len(center_basis(algebra))
    doc = {
        "verb": "analyze",
        "seed": args.seed,
        "algebra": algebra_to_dict(algebra),
        "total_dim": algebra.total_dim,
        "center_dimension": center_dim,
        "disengaged": {
            "count": len(dec.disengaged_atoms),
            "coordinates": list(dec.disengaged_coordinates),
            "atoms": [element_to_list(a) for a in dec.disengaged_atoms],
        },
        "p_D": element_to_list(dec.p_D),
        "engaged_factors": (
            algebra_to_dict(dec.engaged_subalgebra)["factors"]
            if dec.engaged_subalgebra is not None
            else []
        ),
    }
    text = [
        f"algebra: {algebra} (dim {algebra.total_dim})",
        f"center dimension: {center_dim}",
        f"disengaged atoms: {len(dec.disengaged_atoms)} at coordinates "
        f"{list(dec.disengaged_coordinates)}",
        f"p_D = {dec.p_D.coords.tolist()}",
        "engaged part: "
        + (str(dec.engaged_subalgebra) if dec.engaged_subalgebra else "(zero)"),
    ]
    _emit(doc, text, args.format)
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    algebra = _parse(args.algebra, algebra_from_dict)
    x = _parse(args.element, lambda doc: element_from_list(algebra, doc))
    d = spectral_decomposition(x)
    doc = {
        "verb": "spectrum",
        "algebra": algebra_to_dict(algebra),
        "eigenvalues": [float(v) for v in d.eigenvalues],
        "idempotents": [element_to_list(p) for p in d.idempotents],
    }
    text = [f"eigenvalues: {[float(v) for v in d.eigenvalues]}"]
    text += [f"idempotent {i}: {p.coords.tolist()}" for i, p in enumerate(d.idempotents)]
    _emit(doc, text, args.format)
    return EXIT_OK


def _cmd_factorize(args: argparse.Namespace) -> int:
    algebra = _parse(args.algebra, algebra_from_dict)
    op = _parse(args.map, lambda doc: operator_from_dict(algebra, algebra, doc))
    y, j = factorize_linear_order_iso(op)
    doc = {
        "verb": "factorize",
        "algebra": algebra_to_dict(algebra),
        "y": element_to_list(y),
        "J": operator_to_dict(j),
    }
    text = [
        f"y = {y.coords.tolist()}",
        f"J = {np.array2string(j.matrix, precision=10)}",
    ]
    _emit(doc, text, args.format)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    algebra = _parse(args.algebra, algebra_from_dict)
    dec = decompose_engaged_disengaged(algebra)
    doc = {
        "verb": "decompose",
        "seed": args.seed,
        "algebra": algebra_to_dict(algebra),
        "p_D": element_to_list(dec.p_D),
        "p_E": element_to_list(dec.p_E),
        "disengaged_atoms": [element_to_list(a) for a in dec.disengaged_atoms],
        "disengaged_coordinates": list(dec.disengaged_coordinates),
        "engaged_factors": (
            algebra_to_dict(dec.engaged_subalgebra)["factors"]
            if dec.engaged_subalgebra is not None
            else []
        ),
    }
    text = [
        f"p_D = {dec.p_D.coords.tolist()}",
        f"p_E = {dec.p_E.coords.tolist()}",
        f"disengaged coordinates: {list(dec.disengaged_coordinates)}",
        "engaged part: "
        + (str(dec.engaged_subalgebra) if dec.engaged_subalgebra else "(zero)"),
    ]
    _emit(doc, text, args.format)
    return EXIT_OK


# an unvalidated form may hold inf or huge entries; sampling reports them as
# violations, so numpy's overflow warnings would only repeat that on stderr
@np.errstate(over="ignore", invalid="ignore")
def _cmd_verify_oiso(args: argparse.Namespace) -> int:
    _check_trials(args.trials)
    # untrusted input: skip construction-time invariants, let sampling judge
    form = _parse(args.form, lambda doc: form_from_dict(doc, validate=False))
    rep_order = check_order_preserving(
        form, form.domain, trials=args.trials, seed=args.seed
    )
    claimed_linear = check_linearity(form)
    rep_lin = check_linearity_blackbox(
        form, form.domain, trials=max(50, args.trials // 10), seed=args.seed
    )
    linearity_consistent = (not claimed_linear) or rep_lin.passed
    violations = (not rep_order.passed) or (not linearity_consistent)
    doc = {
        "verb": "verify-oiso",
        "seed": args.seed,
        "order_preservation": rep_order.to_dict(),
        "linearity": {
            "claimed_linear": claimed_linear,
            "blackbox": rep_lin.to_dict(),
            "consistent": linearity_consistent,
        },
        "violations_found": violations,
    }
    text = [
        f"order preservation: {'ok' if rep_order.passed else 'VIOLATED'} "
        f"({rep_order.trials} trials, max violation {rep_order.max_violation:.3e})",
        f"linear: {claimed_linear} "
        f"(blackbox max defect {rep_lin.max_violation:.3e})",
        f"violations found: {violations}",
    ]
    _emit(doc, text, args.format)
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_demo_nonlinear(args: argparse.Namespace) -> int:
    _check_trials(args.trials)
    try:
        check_total_dim(grid_total_dim(args.n_grid))
    except ValueError as err:
        raise _BadInput(f"--n-grid {args.n_grid}: {err}") from err
    alpha = args.power
    form = grid_power_demo(args.n_grid, lambda t: alpha if t <= 0.5 else 1.0)
    rep_order = check_order_preserving(
        form, form.domain, trials=args.trials, seed=args.seed
    )
    rep_lin = check_linearity_blackbox(
        form, form.domain, trials=max(50, args.trials // 10), seed=args.seed
    )
    hom = [f for f in rep_lin.failures if f.predicate.startswith("homogeneous")]
    witness = hom[0] if hom else (rep_lin.failures[0] if rep_lin.failures else None)
    doc = {
        "verb": "demo-nonlinear",
        "seed": args.seed,
        "n_grid": args.n_grid,
        "power": alpha,
        "algebra": algebra_to_dict(form.domain),
        "linear": check_linearity(form),
        "order_preservation": rep_order.to_dict(),
        "linearity_blackbox": rep_lin.to_dict(),
        "witness": (
            {
                "predicate": witness.predicate,
                "magnitude": float(witness.magnitude),
                "inputs": [
                    element_to_list(x) if isinstance(x, Element) else x
                    for x in witness.inputs
                ],
            }
            if witness is not None
            else None
        ),
    }
    text = [
        f"grid algebra: {form.domain}",
        f"linear form: {check_linearity(form)}",
        f"order preservation: {'ok' if rep_order.passed else 'VIOLATED'} "
        f"({rep_order.trials} trials)",
        f"linearity defects found: max {rep_lin.max_violation:.6g}",
    ]
    if witness is not None:
        text.append(
            f"witness: {witness.predicate} violated by {witness.magnitude:.6g} "
            f"at x = {[round(float(c), 6) for c in witness.inputs[0].coords]}"
        )
    _emit(doc, text, args.format)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    results, elapsed = run_acceptance()
    all_passed = all(r.passed for r in results)
    doc = {
        "verb": "selftest",
        "all_passed": all_passed,
        "results": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    text = [r.line() for r in results]
    text.append(f"elapsed: {elapsed:.1f}s")
    text.append("all criteria passed" if all_passed else "CRITERIA FAILED")
    _emit(doc, text, args.format)
    return EXIT_OK if all_passed else EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordancone",
        description="Euclidean Jordan algebras, symmetric cones, and order isomorphisms",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        p.add_argument("--format", choices=("text", "structured"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    # analyze and decompose read the structure off the descriptor; their
    # --seed is kept so existing command lines and reports stay valid
    unused_seed = "accepted and echoed in the report; unused (no randomness)"

    p = sub.add_parser("analyze", help="factor list, center, disengaged atoms")
    p.add_argument("--algebra", required=True)
    common(p, seed=False)
    p.add_argument("--seed", type=int, default=0, help=unused_seed)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("spectrum", help="eigenvalues and idempotent frame of an element")
    p.add_argument("--algebra", required=True)
    p.add_argument("--element", required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("factorize", help="factor a linear order isomorphism as U_y J")
    p.add_argument("--algebra", required=True)
    p.add_argument("--map", required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("decompose", help="engaged/disengaged decomposition")
    p.add_argument("--algebra", required=True)
    common(p, seed=False)
    p.add_argument("--seed", type=int, default=0, help=unused_seed)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify-oiso", help="sample-test an order-isomorphism form")
    p.add_argument("--form", required=True)
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=_cmd_verify_oiso)

    p = sub.add_parser("demo-nonlinear", help="grid power demo: non-linear order iso")
    p.add_argument("--n-grid", type=int, default=8)
    p.add_argument("--power", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=2000)
    common(p)
    p.set_defaults(func=_cmd_demo_nonlinear)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    common(p, seed=False)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as err:
        print(f"error: malformed input: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
