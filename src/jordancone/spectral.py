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

Eigenvalues (`spectra`) and rank-one pieces (`_pieces`) are read off
``algebra.product_groups``, one kind and size at a time; `spectrum` is
`spectra` of one row, and the cone predicates go through `_lowest`, which
reads a finite element as Python floats.  Every sym block goes through
`_eigh`, which calls LAPACK's symmetric eigensolver gufunc (`_EIGVALSH`,
`_EIGH`) directly and no ``np.linalg`` routine; a sym block holding NaN or
inf has NaN eigenvalues.

The thresholds named here (``CLUSTER_RTOL``, ``POSITIVITY_TOL``,
``INTERIOR_TOL``, ``INVERTIBILITY_TOL``) are defined in `tolerances`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg
from dataclasses import dataclass
from typing import Callable

from .core import (
    AlgebraDescriptor,
    Element,
    _fresh_element,
    _triu_indices,
    inner_product,
    unit,
)
from .tolerances import (
    CLUSTER_RTOL,
    INTEGER_EXPONENT_TOL,
    INTERIOR_TOL,
    INVERTIBILITY_TOL,
    POSITIVITY_TOL,
)

# LAPACK's symmetric eigensolver on the lower triangle of each matrix in a
# stack: the gufuncs np.linalg.eigvalsh and np.linalg.eigh call after their
# argument checks, errstate and type resolution.  Private numpy API, pinned
# by the byte tests against the public wrappers.
_EIGVALSH = _umath_linalg.eigvalsh_lo
_EIGH = _umath_linalg.eigh_lo


def _eigh(m: np.ndarray, vectors: bool = False):
    """``np.linalg.eigvalsh`` (``eigh`` if ``vectors``) of a stack of matrices.

    A finite stack goes straight to the LAPACK loop those wrappers run
    (`_EIGVALSH`, `_EIGH`), without their argument checks and ``errstate``:
    the same bits, and LinAlgError if LAPACK fails on a matrix.  A matrix
    holding NaN or inf gets NaN eigenvalues (and eigenvectors) without
    reaching LAPACK; the finite matrices of its stack keep their exact bits.
    """
    if np.isfinite(m).all():
        out = _EIGH(m) if vectors else _EIGVALSH(m)
        # NaN is LAPACK's only output on a finite matrix it failed on
        if np.isnan(out[0] if vectors else out).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return out
    good = np.isfinite(m).all(axis=(-2, -1))
    res = _eigh(m[good], vectors)
    out = np.full(m.shape[:-1], np.nan), np.full(m.shape, np.nan)
    for part, g in zip(out, res if vectors else [res]):
        part[good] = g
    return out if vectors else out[0]


def _spin(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(s + r, s - r, r)`` with r = |u| for spin rows b = (..., s, u_1..u_n)."""
    s, u = b[..., 0], b[..., 1:]
    # one stacked dot product per row; on a contiguous row it rounds as
    # np.linalg.norm does
    r = np.sqrt(np.matmul(u[..., None, :], u[..., :, None])[..., 0, 0])
    return s + r, s - r, r


def spectrum(x: Element) -> np.ndarray:
    """Eigenvalues of x, descending, with multiplicity."""
    return spectra(x.algebra, x.coords[None])[0]


def spectra(algebra: AlgebraDescriptor, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of every row of an (N, d) coordinate array.

    Row i holds the eigenvalues of row i, descending, with multiplicity,
    gathered per entry of ``algebra.product_groups``: scalar slots as they
    are, spin rows as s + |u| and s - |u|, sym matrices through `_eigh`
    (NaN for a block holding NaN or inf).  At N = 1 this is `spectrum`.
    For larger N a spin(n >= 4) row may differ from it in the last bit: the
    gather ``x[:, slots]`` strides the last axis by 8 N bytes, so the
    stacked ``matmul`` takes numpy's strided loop instead of the BLAS dot a
    contiguous row gets.  The single-element cone predicates, which need
    only the smallest eigenvalue, use `_lowest`.
    """
    parts: list[np.ndarray] = []
    for kind, slots, full in algebra.product_groups:
        if kind == "scalar":
            parts.append(x[:, slots])
        elif kind == "spin":
            parts += _spin(x[:, slots])[:2]
        else:
            lam = _eigh(x[:, full])  # (N, k, n); N may be 0
            parts.append(lam.reshape(lam.shape[0], lam.shape[1] * lam.shape[2]))
    out = np.concatenate(parts, axis=1)
    out[:, ::-1].sort(axis=1)
    return out


def _lowest(x: Element) -> float:
    """The smallest eigenvalue of x; NaN if any eigenvalue is NaN.

    Equal to ``spectrum(x).min()`` up to the sign of a zero.  A finite x is
    read as Python floats: scalar slots as they are, s - |u| for each spin
    row (|u|^2 by the BLAS dot `_spin` takes on a contiguous row; s + |u| is
    never lower), and the first, lowest, eigenvalue LAPACK returns for each
    sym matrix, one call per size.  A non-finite x, or values whose sum is
    not finite, take ``spectrum(x).min()``, which is NaN if any eigenvalue
    is NaN.
    """
    c = x.coords
    # a sum of floats is finite only if every term is; then Python's min
    # sees a total order and is exact
    if math.isfinite(sum(c.tolist())):
        vals: list[float] = []
        for kind, slots, full in x.algebra.product_groups:
            if kind == "scalar":
                vals += c[slots].tolist()
            elif kind == "spin":
                b = c[slots]
                vals += [s - math.sqrt(u.dot(u)) for s, u in zip(b[:, 0].tolist(), b[:, 1:])]
            else:
                vals += _EIGVALSH(c[full])[:, 0].tolist()
        if math.isfinite(sum(vals)):
            return min(vals)
    return float(spectrum(x).min())


def is_positive(x: Element) -> bool:
    """Whether x lies in the closed cone (all eigenvalues >= -POSITIVITY_TOL;
    NaN fails)."""
    return bool(_lowest(x) >= -POSITIVITY_TOL)


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


def _pieces(x: Element) -> list[tuple[float, slice, np.ndarray | float]]:
    """Rank-one spectral pieces (eigenvalue, factor slice, block coords) of x.

    One pass over ``algebra.product_groups``: a scalar slot is its own piece
    (block 1.0); a spin block gives (1/2)(1, +-w) for s +- |u|, with
    w = u / |u| (the first basis vector when u = 0); eigenvector v of a sym
    block, from one `_eigh` per size, gives the block of v v^T.  Listed in
    factor order (spin + before -, sym eigenvectors 0..n-1 within a factor).
    """
    c = x.coords
    pieces: list[tuple[float, slice, np.ndarray | float]] = []
    for kind, slots, full in x.algebra.product_groups:
        b = c[slots if full is None else full]
        if kind == "scalar":
            factors = [[(lam, 1.0)] for lam in b.tolist()]
        elif kind == "spin":
            hi, lo, r = _spin(b)
            factors = []
            for a, z, norm, u in zip(hi.tolist(), lo.tolist(), r.tolist(), b[:, 1:]):
                w = u / norm if norm else np.eye(1, u.size)[0]  # u = 0: first basis vector
                factors.append([(a, np.concatenate(([0.5], 0.5 * w))),
                                (z, np.concatenate(([0.5], -0.5 * w)))])
        else:
            lams, vecs = _eigh(b, vectors=True)  # (k, n), (k, n, n)
            iu, ju = _triu_indices(b.shape[-1])
            outer = vecs[:, iu, :] * vecs[:, ju, :]  # column j: block of v_j v_j^T
            factors = [list(zip(lam, blk.T)) for lam, blk in zip(lams.tolist(), outer)]
        for row, factor in zip(slots.reshape(len(factors), -1).tolist(), factors):
            sl = slice(row[0], row[-1] + 1)
            pieces += [(lam, sl, block) for lam, block in factor]
    # factor order, stable within a factor: the callers' clustering scale
    # and their sort of NaN eigenvalues depend on it
    pieces.sort(key=lambda t: t[1].start)
    return pieces


def _descending(piece: tuple[float, slice, np.ndarray | float]) -> tuple[float, int]:
    return -piece[0], piece[1].start  # then factor order: offsets grow with it


def spectral_decomposition(x: Element) -> SpectralDecomposition:
    """Decompose x into eigenvalues and an orthogonal idempotent frame.

    Eigenvalues within ``CLUSTER_RTOL * (1 + |x|)`` of each other (chained)
    are merged into one idempotent, across factors.
    """
    algebra = x.algebra
    pieces = _pieces(x)
    scale = max(abs(lam) for lam, _, _ in pieces)
    tol = CLUSTER_RTOL * (1.0 + scale)
    pieces.sort(key=_descending)

    eigenvalues: list[float] = []
    idempotents: list[Element] = []
    group: list[tuple[float, slice, np.ndarray | float]] = []

    def flush() -> None:
        if not group:
            return
        c = np.zeros(algebra.total_dim)
        for _, sl, block in group:
            c[sl] += block
        eigenvalues.append(sum(lam for lam, _, _ in group) / len(group))
        idempotents.append(_fresh_element(algebra, c))
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
    c = np.zeros(x.algebra.total_dim)
    for lam, sl, block in sorted(_pieces(x), key=_descending):
        val = phi(lam)
        if not np.isfinite(val):
            raise ValueError(f"eigenvalue {lam:.9g} outside domain of {name}")
        c[sl] += val * block
    return _fresh_element(x.algebra, c)


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
    if abs(alpha - round(alpha)) < INTEGER_EXPONENT_TOL:
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

    Each idempotent p keeps those of its own rank-one pieces (`_pieces`)
    whose eigenvalue exceeds 1/2: a rank-r sym block splits along r
    eigenvectors, a full spin-factor unit into (1/2)(1, +-e_1), a spin
    half-idempotent (1/2, u) comes back as (1/2, u / (2|u|)) and a real
    unit as it is.  The result is an orthogonal family of atoms a_i with
    sum_i lambda_i a_i equal to the decomposed element and sum_i a_i equal
    to the algebra unit (zero eigenvalues are kept).  A non-finite
    eigenvalue of the frame or of one of its idempotents raises ValueError.
    """
    out: list[tuple[float, Element]] = []
    for lam, p in zip(d.eigenvalues.tolist(), d.idempotents):
        for mu, sl, block in _pieces(p):
            for v in (lam, mu):
                if not math.isfinite(v):
                    raise ValueError(f"eigenvalue {v:.9g} outside domain of atomic_refinement")
            if mu > 0.5:
                c = np.zeros(d.algebra.total_dim)
                c[sl] = block
                out.append((lam, _fresh_element(d.algebra, c)))
    return out


def is_interior(x: Element) -> bool:
    """Whether x lies in the open cone (all eigenvalues > INTERIOR_TOL; NaN
    fails)."""
    return bool(_lowest(x) > INTERIOR_TOL)


def trace(x: Element) -> float:
    """Sum of eigenvalues with multiplicity; equals <x, e> in the trace form."""
    return inner_product(x, unit(x.algebra))
