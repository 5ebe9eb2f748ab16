"""Brute-force sampling oracles, independent of the predicates they check.

The extremality oracle samples the order interval [0, x] through the exact
parametrization y = U_{x^(1/2)} w with w uniform-ish in [0, e]; quadratic
representations of square roots map order intervals onto order intervals,
so every draw is a genuine candidate witness.  A sampling oracle can only
refute extremality, never prove it: oracle-true means "no counterexample
found in the given number of trials".

The order and linearity checks draw all their samples at once: one
``standard_normal((trials, 2, d))`` draw is the same stream as drawing
``random_element`` v then w trial by trial, so the batched checks see the
samples a per-trial loop would.  The cone points v o v come from one
`jordan_products` call; an `OrderIsoForm` maps all of them in one
`apply_order_iso_rows` call, while a black-box callable is called once per
point; one `spectra` call then measures every defect.  A violation that is
not a finite number (a map that returned NaN, say) counts as infinite, so
it always fails.

The center oracles recompute the center numerically, from the null space
of the commutator system [L_{e_k}, L_{e_j}] and random central elements,
without the descriptor facts `structure` reads the center from; the tests
and the acceptance suite compare the two routes.  They are capped at
``ORACLE_MAX_DIM`` because the commutator system takes 8 d^4 bytes.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from typing import Callable

from .core import (
    AlgebraDescriptor,
    Element,
    _fresh_element,
    basis_element,
    inner_product,
    jordan_products,
    mult_operator,
    quadratic_rep,
    as_rng,
)
from .ordermaps import OrderIsoForm, apply_order_iso_rows
from .spectral import (
    is_positive,
    spectra,
    spectral_decomposition,
    sqrt,
    trace,
)

SPAN_DISTANCE_TOL = 1e-7
SAMPLE_CHUNK = 2048  # order-interval draws per batch in extreme_vector_oracle
RANK_CUTOFF = 1e-9  # relative singular-value cutoff of the commutator system
CENTER_GAP_TOL = 1e-6
ORACLE_MAX_DIM = 40  # 8 * 40^4 B = 20 MB of commutator coordinates


@dataclass(frozen=True)
class Failure:
    """One violated predicate: the offending inputs and the magnitude."""

    inputs: tuple
    predicate: str
    magnitude: float


@dataclass(frozen=True)
class SampleReport:
    """Outcome of a sampling check.

    ``failures`` holds exactly the trials whose violation exceeded
    ``tolerance``, so the report is clean iff ``max_violation`` is within
    tolerance.
    """

    trials: int
    tolerance: float
    max_violation: float
    failures: tuple[Failure, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """The report as JSON-ready data.

        An input `Element` becomes its coordinate list, built once per
        distinct element (matched by identity): every failure that cites
        the same element shares one list object, so a writer can format it
        once.  The lists are shared; treat them as read-only.
        """
        coords: dict[int, list[float]] = {}

        def listed(x):
            if not isinstance(x, Element):
                return x
            if id(x) not in coords:
                coords[id(x)] = x.coords.tolist()
            return coords[id(x)]

        return {
            "trials": self.trials,
            "tolerance": self.tolerance,
            "max_violation": float(self.max_violation),
            "failures": [
                {
                    "predicate": f.predicate,
                    "magnitude": float(f.magnitude),
                    "inputs": [listed(x) for x in f.inputs],
                }
                for f in self.failures
            ],
        }


def _uniform_order_interval(
    algebra: AlgebraDescriptor, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Batch of elements of [0, e]: random frames with uniform eigenvalues."""
    out = np.empty((count, algebra.total_dim))
    for f, sl in zip(algebra.factors, algebra.slices):
        if f.kind == "real":
            out[:, sl.start] = rng.uniform(0.0, 1.0, size=count)
        elif f.kind == "spin":
            hi = rng.uniform(0.0, 1.0, size=count)
            lo = rng.uniform(0.0, 1.0, size=count)
            d = rng.standard_normal((count, f.n))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            out[:, sl.start] = 0.5 * (hi + lo)
            out[:, sl.start + 1:sl.stop] = 0.5 * (hi - lo)[:, None] * d
        else:
            n = f.n
            g = rng.standard_normal((count, n, n))
            # eigenvector frames of GOE matrices are Haar-distributed
            _, vecs = np.linalg.eigh(g + np.swapaxes(g, 1, 2))
            lam = rng.uniform(0.0, 1.0, size=(count, n))
            w = np.einsum("bik,bk,bjk->bij", vecs, lam, vecs)
            iu, ju = np.triu_indices(n)
            out[:, sl] = 0.5 * (w[:, iu, ju] + w[:, ju, iu])
    return out


def extreme_vector_oracle(x: Element, trials: int = 10_000, seed: int = 0) -> bool:
    """Sampling test for extremality of the ray through x.

    Requires x positive and trace-normalized (<x, e> = 1).  Draws random
    y in [0, x] and returns False as soon as one lands farther than
    ``SPAN_DISTANCE_TOL`` (in the trace norm) from the ray through x;
    returns True when all trials stay on the ray.  Independent of the
    spectrum-based `structure.is_atom` test it is used to cross-check.
    """
    if not is_positive(x):
        raise ValueError("element not in cone")
    if abs(trace(x) - 1.0) > 1e-9:
        raise ValueError("element is not trace-normalized")
    rng = as_rng(seed)
    m = quadratic_rep(sqrt(x)).matrix
    w = x.algebra.inner_weights
    xw = w * x.coords
    xx = inner_product(x, x)
    done = 0
    while done < trials:
        batch = min(SAMPLE_CHUNK, trials - done)
        ys = _uniform_order_interval(x.algebra, rng, batch) @ m.T
        lam = np.clip(ys @ xw / xx, 0.0, None)
        resid = ys - lam[:, None] * x.coords
        dist = np.sqrt((resid * resid) @ w)
        if np.any(dist > SPAN_DISTANCE_TOL):
            return False
        done += batch
    return True


def _violations(v: np.ndarray) -> np.ndarray:
    """Violation magnitudes clamped at 0; NaN and infinities count as inf."""
    return np.where(np.isfinite(v), np.where(v > 0.0, v, 0.0), np.inf)


def _draw_squares(
    algebra: AlgebraDescriptor, trials: int, seed: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Rows v o v and w o w for one (v, w) pair per trial.

    One ``standard_normal((trials, 2, d))`` draw yields the same stream as
    drawing ``random_element`` v then w trial by trial.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    s = as_rng(seed).standard_normal((trials, 2, algebra.total_dim))
    v, w = s[:, 0], s[:, 1]
    return jordan_products(algebra, v, v), jordan_products(algebra, w, w)


def _images(
    f: OrderIsoForm | Callable[[Element], Element],
    algebra: AlgebraDescriptor,
    inputs: list[np.ndarray],
) -> tuple[AlgebraDescriptor, list[np.ndarray]]:
    """The codomain and the image of every row of each (N, d) input array.

    A form maps all rows in one `apply_order_iso_rows` call.  A callable is
    called once per row as an `Element`, trial by trial, and in the order of
    ``inputs`` within a trial; each `Element` holds a read-only view of its
    row, as every input array is made read-only here.
    """
    if isinstance(f, OrderIsoForm):
        if f.domain != algebra:
            raise ValueError("algebra mismatch")
        out = apply_order_iso_rows(f, np.concatenate(inputs))
        return f.codomain, np.split(out, len(inputs))
    for a in inputs:
        a.setflags(write=False)
    n = inputs[0].shape[0]
    images = [f(_fresh_element(algebra, a[i])) for i in range(n) for a in inputs]
    codomain = images[0].algebra if images else algebra
    if any(y.algebra is not codomain and y.algebra != codomain for y in images):
        raise ValueError("algebra mismatch")
    out = np.array([y.coords for y in images]).reshape(n, len(inputs), codomain.total_dim)
    return codomain, [out[:, k] for k in range(len(inputs))]


def check_order_preserving(
    f: OrderIsoForm | Callable[[Element], Element],
    algebra: AlgebraDescriptor,
    trials: int = 1000,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> SampleReport:
    """Sample ordered pairs x <= z and test f(x) <= f(z).

    ``f`` is an `OrderIsoForm` or any map of `Element`s.  The violation
    magnitude is the negative part of the smallest eigenvalue of
    f(z) - f(x).
    """
    x, ww = _draw_squares(algebra, trials, seed)
    z = x + ww
    codomain, (fz, fx) = _images(f, algebra, [z, x])
    violations = _violations(-spectra(codomain, fz - fx).min(axis=1))
    failures = tuple(
        Failure(
            (Element(algebra, x[i]), Element(algebra, z[i])),
            "order preserved",
            float(violations[i]),
        )
        for i in np.flatnonzero(violations > tolerance)
    )
    return SampleReport(trials, tolerance, float(violations.max(initial=0.0)), failures)


_SCALES = (0.5, 2.0, 3.0)


def check_linearity_blackbox(
    f: OrderIsoForm | Callable[[Element], Element],
    algebra: AlgebraDescriptor,
    trials: int = 1000,
    seed: int = 0,
    tolerance: float = 1e-8,
) -> SampleReport:
    """Sample additivity and homogeneity of a map on the cone.

    ``f`` is an `OrderIsoForm` or any map of `Element`s.  Checks
    f(x + z) = f(x) + f(z) and f(a x) = a f(x) for a in {1/2, 2, 3} on
    random cone points; magnitudes are order-unit norms of the defects.
    Failures come trial by trial, the additivity check first.
    """
    x, z = _draw_squares(algebra, trials, seed)
    codomain, (fs, fx, fz, *fa) = _images(
        f, algebra, [x + z, x, z] + [a * x for a in _SCALES]
    )
    defects = [fs - (fx + fz)] + [fxa - a * fx for a, fxa in zip(_SCALES, fa)]
    stacked = np.stack(defects, axis=1).reshape(-1, codomain.total_dim)
    violations = _violations(np.abs(spectra(codomain, stacked)).max(axis=1))
    violations = violations.reshape(trials, len(defects))
    failures = []
    for i in np.flatnonzero((violations > tolerance).any(axis=1)):
        xi = Element(algebra, x[i])
        for k in np.flatnonzero(violations[i] > tolerance):
            magnitude = float(violations[i, k])
            if k == 0:
                failures.append(Failure((xi, Element(algebra, z[i])), "additive", magnitude))
            else:
                a = _SCALES[k - 1]
                failures.append(Failure((xi, a), f"homogeneous (a={a:g})", magnitude))
    return SampleReport(trials, tolerance, float(violations.max(initial=0.0)), tuple(failures))


# ---------------------------------------------------------------------------
# the numerical center: an oracle for the descriptor route in `structure`

def center_oracle(algebra: AlgebraDescriptor) -> list[Element]:
    """A basis of the center, via the null space of the commutator system.

    Raises ValueError above ``ORACLE_MAX_DIM`` before allocating anything.
    """
    d = algebra.total_dim
    if d > ORACLE_MAX_DIM:
        raise ValueError(f"center oracle needs total_dim <= {ORACLE_MAX_DIM}, got {d}")
    ls = np.stack([mult_operator(basis_element(algebra, k)).matrix for k in range(d)])
    # column k: all commutators [L_{e_k}, L_{e_j}] stacked and vectorized
    cols = np.empty((d * d * d, d))
    for k in range(d):
        comms = ls[k][None, :, :] @ ls - ls @ ls[k][None, :, :]
        cols[:, k] = comms.reshape(-1)
    _, sv, vt = np.linalg.svd(cols, full_matrices=False)
    if sv.size and sv[0] > 0.0:
        rank = int(np.count_nonzero(sv > RANK_CUTOFF * sv[0]))
    else:
        rank = 0
    return [Element(algebra, vt[i]) for i in range(rank, d)]


def central_idempotents_oracle(algebra: AlgebraDescriptor, seed: int = 0) -> list[Element]:
    """The minimal idempotents of the (associative) center.

    Draws a random element of the `center_oracle` span, decomposes it
    spectrally, and accepts the resulting frame when all center eigenvalues
    are well separated; degenerate draws are retried with fresh randomness.
    Raises ValueError above ``ORACLE_MAX_DIM``.
    """
    basis = center_oracle(algebra)
    k = len(basis)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        coeffs = rng.standard_normal(k)
        z = Element(algebra, sum(c * b.coords for c, b in zip(coeffs, basis)))
        d = spectral_decomposition(z)
        if len(d.eigenvalues) != k:
            continue
        if k > 1 and np.diff(d.eigenvalues[::-1]).min() < CENTER_GAP_TOL:
            continue
        # canonical order: by the first coordinate each idempotent occupies
        return sorted(
            d.idempotents,
            key=lambda p: int(np.flatnonzero(np.abs(p.coords) > 0.5)[0]),
        )
    raise ValueError("degenerate center draws exhausted")
