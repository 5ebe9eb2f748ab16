"""Spectral theory: decompositions, functional calculus, positivity, norm.

Every element of a direct sum of simple factors has a finite spectral
decomposition x = sum_i lambda_i p_i with pairwise orthogonal idempotents
summing to the unit.  Eigenvalues closer than ``CLUSTER_RTOL * (1 + |x|)``
are merged into a single idempotent so that frames stay stable under
numerical noise; for that reason the reconstruction accuracy of a
`SpectralDecomposition` is bounded below by the clustering width on
(adversarially) near-degenerate inputs.  The clustering width limits
decomposition frames only: `functional_calculus`, and with it `sqrt`, `inv`
and `power`, applies phi to each eigenvalue of each factor separately and is
exact up to rounding however close eigenvalues of different factors lie.

``spectrum`` returns eigenvalues *with multiplicity* (one entry per atomic
dimension: n for sym(n), two for a spin factor, one for real), while a
``SpectralDecomposition`` lists each merged eigenvalue once.
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass
from typing import Callable

from .core import (
    AlgebraDescriptor,
    Element,
    inner_product,
    sym_from_matrix,
    sym_to_matrix,
    unit,
)

CLUSTER_RTOL = 1e-8
POSITIVITY_TOL = 1e-10
INVERTIBILITY_TOL = 1e-10
INTERIOR_TOL = 1e-9


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh`` of a matrix or a stack; NaN for non-finite ones.

    LAPACK raises on a non-finite matrix of size >= 3 where size 2 yields
    NaN.  Finite matrices keep their exact eigenvalues.
    """
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        bad = ~np.isfinite(m).all(axis=(-2, -1))
        if not bad.any():
            raise
        out = np.full(m.shape[:-1], np.nan)
        out[~bad] = np.linalg.eigvalsh(m[~bad])
        return out


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of one matrix; NaN pieces for a non-finite one.

    The single-matrix counterpart of `_eigvalsh`: where LAPACK raises on a
    non-finite matrix, every eigenvalue and eigenvector entry is NaN.
    Finite matrices keep their exact pieces.
    """
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        if np.isfinite(m).all():
            raise
        n = m.shape[-1]
        return np.full(n, np.nan), np.full((n, n), np.nan)


def spectrum(x: Element) -> np.ndarray:
    """Eigenvalues of x, descending, with multiplicity."""
    vals: list[np.ndarray] = []
    for f, sl in zip(x.algebra.factors, x.algebra.slices):
        b = x.coords[sl]
        if f.kind == "real":
            vals.append(b)
        elif f.kind == "spin":
            s, r = b[0], float(np.linalg.norm(b[1:]))
            vals.append(np.array([s + r, s - r]))
        else:
            vals.append(_eigvalsh(sym_to_matrix(b, f.n)))
    out = np.concatenate(vals)
    out[::-1].sort()
    return out


def spectra(algebra: AlgebraDescriptor, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of every row of an (N, d) coordinate array.

    Row i is ``spectrum`` of row i: descending, with multiplicity.  One pass
    of array operations per entry of ``algebra.product_groups``: scalar
    slots as they are, spin blocks as s +- |u|, one stacked ``eigvalsh``
    per sym(n) size.  The single-element cone predicates, which need only
    the smallest eigenvalue, use `_lowest`.
    """
    n = x.shape[0]
    vals: list[np.ndarray] = []
    for kind, slots, full in algebra.product_groups:
        if kind == "scalar":
            vals.append(x[:, slots])
        elif kind == "spin":
            b = x[:, slots]
            s, u = b[..., 0], b[..., 1:]
            # one dot product per row, as np.linalg.norm takes it in `spectrum`
            r = np.sqrt(np.matmul(u[..., None, :], u[..., :, None])[..., 0, 0])
            vals += [s + r, s - r]
        else:
            lam = _eigvalsh(x[:, full])  # (N, factors, n)
            vals.append(lam.reshape(n, lam.shape[1] * lam.shape[2]))
    out = np.concatenate(vals, axis=1)
    out[:, ::-1].sort(axis=1)
    return out


def _lowest(x: Element) -> float:
    """The smallest eigenvalue of x; NaN if any eigenvalue is NaN.

    Equal to ``spectrum(x).min()``: the same eigenvalues, without the
    sorted array.  One pass over ``algebra.product_groups`` collects them
    as floats: scalar slots as they are, s +- |u| per spin block (|u| from
    the dot product ``np.linalg.norm`` takes), one stacked ``eigvalsh``
    per sym(n) size.
    """
    c = x.coords
    vals: list[float] = []
    for kind, slots, full in x.algebra.product_groups:
        if kind == "scalar":
            vals += c[slots].tolist()
        elif kind == "spin":
            b = c[slots]
            u = b[:, 1:]
            r = np.sqrt(np.matmul(u[:, None, :], u[:, :, None])[:, 0, 0])
            vals += (b[:, 0] - r).tolist()
            vals += (b[:, 0] + r).tolist()  # NaN alone when s = -inf, |u| = inf
        else:
            vals += _eigvalsh(c[full]).ravel().tolist()
    # the sum is NaN only if some value is NaN (or both infinities occur);
    # otherwise Python's min sees a total order and is exact
    if math.isnan(sum(vals)):
        return float(np.min(vals))
    return min(vals)


def is_positive(x: Element, tol: float = POSITIVITY_TOL) -> bool:
    return bool(_lowest(x) >= -tol)


def order_unit_norm(x: Element) -> float:
    """max |spectrum|; equals inf{lam > 0 : -lam e <= x <= lam e}."""
    return float(np.abs(spectrum(x)).max())


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct (merged) eigenvalues with an orthogonal idempotent frame."""

    algebra: AlgebraDescriptor
    eigenvalues: np.ndarray          # descending, one per idempotent
    idempotents: tuple[Element, ...]

    def __post_init__(self) -> None:
        e = np.array(self.eigenvalues, dtype=float, copy=True)
        e.setflags(write=False)
        object.__setattr__(self, "eigenvalues", e)

    def reconstruct(self) -> Element:
        c = np.zeros(self.algebra.total_dim)
        for lam, p in zip(self.eigenvalues, self.idempotents):
            c += lam * p.coords
        return Element(self.algebra, c)


def _factor_pieces(x: Element) -> list[tuple[float, int, np.ndarray]]:
    """Rank-one spectral pieces (eigenvalue, factor index, block coords)."""
    pieces: list[tuple[float, int, np.ndarray]] = []
    for fi, (f, sl) in enumerate(zip(x.algebra.factors, x.algebra.slices)):
        b = x.coords[sl]
        if f.kind == "real":
            pieces.append((float(b[0]), fi, np.array([1.0])))
        elif f.kind == "spin":
            s, u = b[0], b[1:]
            r = float(np.linalg.norm(u))
            if r == 0.0:
                w = np.zeros(f.n)
                w[0] = 1.0  # degenerate direction: first basis vector
            else:
                w = u / r
            for sign in (1.0, -1.0):
                pieces.append(
                    (float(s + sign * r), fi,
                     np.concatenate(([0.5], 0.5 * sign * w)))
                )
        else:
            lams, vecs = _eigh(sym_to_matrix(b, f.n))
            for k in range(f.n):
                v = vecs[:, k]
                pieces.append((float(lams[k]), fi, sym_from_matrix(np.outer(v, v), f.n)))
    return pieces


def spectral_decomposition(x: Element) -> SpectralDecomposition:
    """Decompose x into eigenvalues and an orthogonal idempotent frame.

    Eigenvalues within ``CLUSTER_RTOL * (1 + |x|)`` of each other (chained)
    are merged into one idempotent, across factors.
    """
    algebra = x.algebra
    pieces = _factor_pieces(x)
    scale = max(abs(lam) for lam, _, _ in pieces)
    tol = CLUSTER_RTOL * (1.0 + scale)
    pieces.sort(key=lambda t: (-t[0], t[1]))

    eigenvalues: list[float] = []
    idempotents: list[Element] = []
    group: list[tuple[float, int, np.ndarray]] = []

    def flush() -> None:
        if not group:
            return
        c = np.zeros(algebra.total_dim)
        for _, fi, block in group:
            c[algebra.slices[fi]] += block
        eigenvalues.append(sum(lam for lam, _, _ in group) / len(group))
        idempotents.append(Element(algebra, c))
        group.clear()

    for piece in pieces:
        if group and group[-1][0] - piece[0] > tol:
            flush()
        group.append(piece)
    flush()
    return SpectralDecomposition(algebra, np.array(eigenvalues), tuple(idempotents))


def functional_calculus(
    x: Element, phi: Callable[[float], float], name: str = "phi"
) -> Element:
    """sum phi(lambda_i) a_i over the rank-one pieces a_i of x.

    phi sees every eigenvalue of every factor as it is, never an average of
    a cluster, so eigenvalues of different factors closer than the
    clustering width do not perturb the result.  Eigenvalues are visited in
    descending order; the first one mapped to a non-finite value is named
    in the error.
    """
    slices = x.algebra.slices
    c = np.zeros(x.algebra.total_dim)
    for lam, fi, block in sorted(_factor_pieces(x), key=lambda t: (-t[0], t[1])):
        val = phi(lam)
        if not np.isfinite(val):
            raise ValueError(f"eigenvalue {lam:.9g} outside domain of {name}")
        c[slices[fi]] += val * block
    return Element(x.algebra, c)


def sqrt(x: Element) -> Element:
    if not is_positive(x):
        lam = float(spectrum(x).min())
        raise ValueError(f"eigenvalue {lam:.9g} outside domain of sqrt")
    # eigenvalues in [-POSITIVITY_TOL, 0) are clamped to 0
    return functional_calculus(x, lambda t: float(np.sqrt(max(t, 0.0))), "sqrt")


def inv(x: Element) -> Element:
    lam_min = float(np.abs(spectrum(x)).min())
    if lam_min <= INVERTIBILITY_TOL:
        raise ValueError(f"eigenvalue {lam_min:.9g} outside domain of inv")
    return functional_calculus(x, lambda t: 1.0 / t, "inv")


def power(x: Element, alpha: float) -> Element:
    """x^alpha via the spectral decomposition.

    Integer alpha works on any element (negative integers require
    invertibility).  Non-integer alpha > 0 is defined on the closed cone
    with 0^alpha := 0; non-integer alpha < 0 additionally requires a
    strictly positive spectrum.
    """
    name = f"pow({alpha:g})"
    if abs(alpha - round(alpha)) < 1e-12:
        k = int(round(alpha))
        if k < 0 and float(np.abs(spectrum(x)).min()) <= INVERTIBILITY_TOL:
            raise ValueError(f"eigenvalue outside domain of {name}: not invertible")
        return functional_calculus(x, lambda t: float(t) ** k, name)
    if alpha > 0:
        if not is_positive(x):
            lam = float(spectrum(x).min())
            raise ValueError(f"eigenvalue {lam:.9g} outside domain of {name}")
        return functional_calculus(x, lambda t: max(t, 0.0) ** alpha, name)
    lam_min = float(spectrum(x).min())
    if lam_min <= INVERTIBILITY_TOL:
        raise ValueError(f"eigenvalue {lam_min:.9g} outside domain of {name}")
    return functional_calculus(x, lambda t: t ** alpha, name)


def atomic_refinement(d: SpectralDecomposition) -> list[tuple[float, Element]]:
    """Split a spectral frame into rank-one idempotents (atoms).

    Each sym-factor idempotent of rank r splits into r rank-one pieces via
    its eigenvectors; a full spin-factor unit splits as (1/2)(1, w) +
    (1/2)(1, -w) along the first basis direction; spin half-idempotents and
    real units are atoms already.  The result is an orthogonal family of
    atoms a_i with sum_i lambda_i a_i equal to the decomposed element and
    sum_i a_i equal to the algebra unit (zero eigenvalues are kept).
    """
    algebra = d.algebra
    out: list[tuple[float, Element]] = []
    for lam, p in zip(d.eigenvalues, d.idempotents):
        for f, sl in zip(algebra.factors, algebra.slices):
            b = p.coords[sl]
            if f.kind == "real":
                if b[0] > 0.5:
                    out.append((float(lam), _padded(algebra, sl, np.array([1.0]))))
            elif f.kind == "spin":
                s = b[0]
                # valid spin idempotent blocks have s in {0, 1/2, 1}
                if s >= 0.75:
                    w = np.zeros(f.n)
                    w[0] = 1.0
                    for sign in (1.0, -1.0):
                        out.append(
                            (float(lam),
                             _padded(algebra, sl, np.concatenate(([0.5], 0.5 * sign * w))))
                        )
                elif s > 0.25:
                    out.append((float(lam), _padded(algebra, sl, b)))
            else:
                m = sym_to_matrix(b, f.n)
                if np.abs(m).max() < 0.25:
                    continue
                lams, vecs = np.linalg.eigh(m)
                for k in range(f.n):
                    if lams[k] > 0.5:
                        v = vecs[:, k]
                        out.append(
                            (float(lam),
                             _padded(algebra, sl, sym_from_matrix(np.outer(v, v), f.n)))
                        )
    return out


def _padded(algebra: AlgebraDescriptor, sl: slice, block: np.ndarray) -> Element:
    c = np.zeros(algebra.total_dim)
    c[sl] = block
    return Element(algebra, c)


def is_interior(x: Element, tol: float = INTERIOR_TOL) -> bool:
    """Whether x lies in the open cone (all eigenvalues > tol; NaN fails)."""
    return bool(_lowest(x) > tol)


def trace(x: Element) -> float:
    """Sum of eigenvalues with multiplicity; equals <x, e> in the trace form."""
    return inner_product(x, unit(x.algebra))
