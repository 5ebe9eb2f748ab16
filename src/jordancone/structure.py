"""Projection and atom predicates, the center, and the engaged/disengaged
decomposition of an algebra.

For the supported simple factors the center is spanned by the factor units
and the disengaged atoms are exactly the units of the one-dimensional
factors (Faraut & Koranyi, *Analysis on Symmetric Cones*, ch. III-V), so
centrality, atoms, the center, the split and the codimension-one
functionals are all read off the descriptor, with `spectrum` as the only
numerical routine: no randomness, no SVD, no rank cutoff.  A disengaged
atom is detected through centrality (for atoms: disengaged, orthogonal-to-
all-other-atoms, and central are equivalent properties), because
centrality is a finite test while the definitional "not in the span of
other extreme rays" quantifies over a continuum.  The general numerical
routes (the commutator null space, random central idempotents, the
extremality sampler) live in `verify` as independent oracles that the
tests and the acceptance suite check this module against.  The
projection and centrality thresholds are defined in `tolerances`.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass
from functools import lru_cache

from .core import AlgebraDescriptor, Element, jordan_product
from .spectral import order_unit_norm, spectrum
from .tolerances import CENTRAL_TOL, PROJECTION_TOL


def is_projection(p: Element) -> bool:
    """p o p = p within PROJECTION_TOL * (1 + |p|)."""
    residual = jordan_product(p, p) - p
    return order_unit_norm(residual) <= PROJECTION_TOL * (1.0 + order_unit_norm(p))


def is_atom(p: Element) -> bool:
    """A minimal non-zero projection: exactly one eigenvalue is 1.

    Once `is_projection` holds, every eigenvalue lies within about 2e-10 of
    0 or 1, so counting those above 1/2 gives the rank of p.
    """
    return is_projection(p) and int(np.count_nonzero(spectrum(p) > 0.5)) == 1


def is_central(x: Element) -> bool:
    """Whether x lies in the center: the span of the factor units.

    The residual of x after projecting each factor block onto its unit in
    the trace form (X - (tr X / n) I for sym(n), (0, u) for spin, 0 for a
    one-dimensional factor) must stay within CENTRAL_TOL * (1 + |x|)
    entrywise.
    """
    a = x.algebra
    e = a.unit_coords
    we = a.inner_weights * e
    coeffs = np.add.reduceat(we * x.coords, a.offsets) / np.add.reduceat(we * e, a.offsets)
    residual = x.coords - np.repeat(coeffs, [f.dim for f in a.factors]) * e
    return bool(np.abs(residual).max() <= CENTRAL_TOL * (1.0 + order_unit_norm(x)))


def _factor_unit(algebra: AlgebraDescriptor, index: int) -> Element:
    c = np.zeros(algebra.total_dim)
    sl = algebra.slices[index]
    c[sl] = algebra.unit_coords[sl]
    return Element(algebra, c)


def center_basis(algebra: AlgebraDescriptor) -> list[Element]:
    """A basis of the center: the units of the factors, in factor order."""
    return [_factor_unit(algebra, i) for i in range(len(algebra.factors))]


def dim1_factor_indices(algebra: AlgebraDescriptor) -> list[int]:
    """Factor indices of the one-dimensional summands (``real`` and ``sym(1)``)."""
    return [i for i, f in enumerate(algebra.factors) if f.dim == 1]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The split of an algebra into disengaged and engaged parts.

    ``p_D`` is the central projection carrying the disengaged atoms,
    ``p_E = e - p_D`` carries the engaged part.  ``disengaged_coordinates``
    gives the full-algebra coordinate slot of each disengaged atom, in the
    same order as ``disengaged_atoms``.  ``engaged_subalgebra`` is None
    when every factor is disengaged; otherwise its coordinates are the
    full-algebra slots ``engaged_slots``, in order.
    """

    algebra: AlgebraDescriptor
    p_D: Element
    p_E: Element
    disengaged_atoms: tuple[Element, ...]
    disengaged_coordinates: tuple[int, ...]
    engaged_subalgebra: AlgebraDescriptor | None

    def __post_init__(self) -> None:
        dis = np.array(self.disengaged_coordinates, dtype=np.intp)
        eng = np.setdiff1d(np.arange(self.algebra.total_dim), dis)
        dis.setflags(write=False)
        eng.setflags(write=False)
        object.__setattr__(self, "_disengaged_index", dis)
        object.__setattr__(self, "_engaged_index", eng)

    @property
    def has_engaged(self) -> bool:
        return self.engaged_subalgebra is not None

    @property
    def engaged_slots(self) -> np.ndarray:
        """Full-algebra slots of the engaged-subalgebra coordinates, ascending."""
        return self._engaged_index

    def split(self, x: Element) -> tuple[np.ndarray, Element | None]:
        """Disengaged coordinate values and the engaged-subalgebra part of x."""
        xd = x.coords[self._disengaged_index]
        if self.engaged_subalgebra is None:
            return xd, None
        return xd, Element(self.engaged_subalgebra, x.coords[self._engaged_index])

    def embed_engaged(self, xe: Element) -> Element:
        if self.engaged_subalgebra is None:
            raise ValueError("decomposition has no engaged part")
        c = np.zeros(self.algebra.total_dim)
        c[self._engaged_index] = xe.coords
        return Element(self.algebra, c)


@lru_cache(maxsize=1024)
def decompose_engaged_disengaged(algebra: AlgebraDescriptor) -> Decomposition:
    """Split the algebra along its disengaged (central) atoms.

    The disengaged atoms are the units of the one-dimensional factors, in
    slot order; their sum is the central projection p_D, and the engaged
    subalgebra is the direct sum of the remaining factors.
    """
    dim1 = dim1_factor_indices(algebra)
    atoms = tuple(_factor_unit(algebra, i) for i in dim1)
    p_d = np.zeros(algebra.total_dim)
    for atom in atoms:
        p_d += atom.coords
    engaged = [f for i, f in enumerate(algebra.factors) if i not in dim1]
    return Decomposition(
        algebra=algebra,
        p_D=Element(algebra, p_d),
        p_E=Element(algebra, algebra.unit_coords - p_d),
        disengaged_atoms=atoms,
        disengaged_coordinates=tuple(algebra.offsets[i] for i in dim1),
        engaged_subalgebra=AlgebraDescriptor(tuple(engaged)) if engaged else None,
    )


def codim1_ideals(algebra: AlgebraDescriptor) -> list[tuple[Element, np.ndarray]]:
    """Central atoms paired with their multiplicative functionals.

    For a central atom p the functional phi_p is defined by
    U_p x = phi_p(x) p; its kernel is a codimension-one ideal, and in
    finite dimension this list is exhaustive.  The functional is returned
    as a coefficient row, phi_p(x) = row @ x.coords: for the unit of a
    one-dimensional factor it is the coordinate at that factor's slot.
    """
    dec = decompose_engaged_disengaged(algebra)
    out = []
    for atom, slot in zip(dec.disengaged_atoms, dec.disengaged_coordinates):
        row = np.zeros(algebra.total_dim)
        row[slot] = 1.0
        row.setflags(write=False)
        out.append((atom, row))
    return out
