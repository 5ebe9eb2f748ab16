"""Finite-dimensional Euclidean Jordan algebras stored as coordinate vectors.

An algebra is a direct sum of simple factors; three factor kinds are
supported:

* ``real``     -- one scalar, ordinary multiplication.
* ``spin(n)``  -- the spin factor R (+) R^n with coordinates ``(s, u_1..u_n)``
                  and product ``(s,u) o (t,v) = (s t + <u,v>, s v + t u)``.
                  Its cone is the Lorentz (second-order) cone.
* ``sym(n)``   -- real symmetric n x n matrices under ``X o Y = (XY+YX)/2``,
                  stored as the unscaled upper triangle in row-major order:
                  the coordinate at slot (i, j) is the matrix entry at both
                  (i, j) and (j, i).  The cone is the PSD cone.

The trace form ``<x, y>`` (scalar product / 2(st+<u,v>) / trace(XY) per
factor) is the inner product used for orthogonality tests throughout.  In
the stored coordinates it is a weighted dot product: off-diagonal sym slots
carry weight 2, spin slots weight 2, everything else weight 1.

All values are immutable after construction and every operation is a pure
function, so the whole module is safe for concurrent use.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass
from functools import cached_property, lru_cache

RCOND_SINGULAR = 1e-12
# Largest total_dim accepted from input files and the CLI (exit code 1
# above it).  `factorize` peaks at about 129 MB RSS at d = 256 (its Jordan
# homomorphism test takes the basis pairs 4096 at a time); the other verbs
# have not been measured there, so the cap does not rise yet.
MAX_TOTAL_DIM = 256

_KINDS = ("real", "spin", "sym")


@dataclass(frozen=True)
class FactorDescriptor:
    """One simple factor of an algebra: ``real``, ``spin(n)`` or ``sym(n)``."""

    kind: str
    n: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "spin" and self.n < 2:
            raise ValueError("spin factor requires n >= 2")
        if self.kind == "sym" and self.n < 1:
            raise ValueError("sym factor requires n >= 1")
        if self.kind == "real" and self.n != 0:
            raise ValueError("real factor takes no size parameter")

    @property
    def dim(self) -> int:
        if self.kind == "real":
            return 1
        if self.kind == "spin":
            return self.n + 1
        return self.n * (self.n + 1) // 2

    def __str__(self) -> str:
        return self.kind if self.kind == "real" else f"{self.kind}({self.n})"


def real() -> FactorDescriptor:
    return FactorDescriptor("real")


def spin(n: int) -> FactorDescriptor:
    return FactorDescriptor("spin", n)


def sym(n: int) -> FactorDescriptor:
    return FactorDescriptor("sym", n)


@lru_cache(maxsize=None)
def _triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def sym_to_matrix(block: np.ndarray, n: int) -> np.ndarray:
    """Reconstruct the dense symmetric matrix from upper-triangle coords."""
    iu, ju = _triu_indices(n)
    m = np.zeros((n, n))
    m[iu, ju] = block
    m[ju, iu] = block
    return m


def sym_from_matrix(m: np.ndarray, n: int) -> np.ndarray:
    """Extract upper-triangle coordinates; symmetrizes the input first."""
    iu, ju = _triu_indices(n)
    s = 0.5 * (m + m.T)
    return s[iu, ju]


@dataclass(frozen=True)
class AlgebraDescriptor:
    """An ordered direct sum of simple factors with a fixed coordinate layout."""

    factors: tuple[FactorDescriptor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("algebra needs at least one factor")

    @cached_property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for f in self.factors:
            out.append(acc)
            acc += f.dim
        return tuple(out)

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        return tuple(
            slice(off, off + f.dim) for off, f in zip(self.offsets, self.factors)
        )

    @cached_property
    def inner_weights(self) -> np.ndarray:
        """Weight vector w with <x,y> = sum_i w_i x_i y_i (trace form)."""
        w = np.ones(self.total_dim)
        for f, sl in zip(self.factors, self.slices):
            if f.kind == "spin":
                w[sl] = 2.0
            elif f.kind == "sym":
                iu, ju = _triu_indices(f.n)
                w[sl] = np.where(iu == ju, 1.0, 2.0)
        w.setflags(write=False)
        return w

    @cached_property
    def product_groups(self) -> tuple[tuple[str, np.ndarray, np.ndarray | None], ...]:
        """Slot index arrays for `jordan_products`, one entry per (kind, size).

        Factors of one kind and size share an entry, so the kernel does one
        batch of array operations per entry rather than per factor:

        * ``("scalar", slots, None)``: the slots of every one-dimensional
          factor (``real`` and ``sym(1)``), shape (k,);
        * ``("spin", slots, None)``: one row ``(s, u_1..u_n)`` per spin(n)
          factor, shape (k, n + 1);
        * ``("sym", slots, full)``: the upper-triangle slots of each sym(n)
          factor, shape (k, n(n+1)/2), and the slot holding each dense
          matrix entry, shape (k, n, n).
        """
        scalars: list[int] = []
        blocks: dict[tuple[str, int], list[np.ndarray]] = {}
        for f, sl in zip(self.factors, self.slices):
            if f.dim == 1:
                scalars.append(sl.start)
            else:
                blocks.setdefault((f.kind, f.n), []).append(np.arange(sl.start, sl.stop))
        groups: list[tuple[str, np.ndarray, np.ndarray | None]] = []
        if scalars:
            groups.append(("scalar", np.array(scalars), None))
        for (kind, n), rows in blocks.items():
            slots = np.stack(rows)
            full = None
            if kind == "sym":
                iu, ju = _triu_indices(n)
                pos = np.empty((n, n), dtype=int)
                pos[iu, ju] = np.arange(iu.size)
                pos[ju, iu] = np.arange(iu.size)
                full = slots[:, pos]
            groups.append((kind, slots, full))
        return tuple(groups)

    @cached_property
    def unit_coords(self) -> np.ndarray:
        c = np.zeros(self.total_dim)
        for f, off in zip(self.factors, self.offsets):
            if f.kind == "real":
                c[off] = 1.0
            elif f.kind == "spin":
                c[off] = 1.0
            else:
                iu, ju = _triu_indices(f.n)
                c[off:off + f.dim][iu == ju] = 1.0
        c.setflags(write=False)
        return c

    def __str__(self) -> str:
        return " + ".join(str(f) for f in self.factors)


def direct_sum(*factors: FactorDescriptor) -> AlgebraDescriptor:
    return AlgebraDescriptor(tuple(factors))


@dataclass(frozen=True, eq=False)
class Element:
    """A coordinate vector in a fixed algebra."""

    algebra: AlgebraDescriptor
    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coords, dtype=float, copy=True).reshape(-1)
        if c.shape != (self.algebra.total_dim,):
            raise ValueError(
                f"coords length {c.size} does not match algebra dimension "
                f"{self.algebra.total_dim}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    def block(self, factor_index: int) -> np.ndarray:
        return self.coords[self.algebra.slices[factor_index]]

    def __add__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _fresh_element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _check_same_algebra(self, other)
        return _fresh_element(self.algebra, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return _fresh_element(self.algebra, -self.coords)

    def __mul__(self, scalar: float) -> "Element":
        return _fresh_element(self.algebra, self.coords * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Element({self.algebra}, {np.array2string(self.coords, precision=6)})"


def _fresh_element(algebra: AlgebraDescriptor, coords: np.ndarray) -> Element:
    """An `Element` over a float array of length ``algebra.total_dim``, made
    read-only in place instead of copied.

    The array is fresh and nothing else holds it, or it is a read-only view
    (a row, say) of an array that nothing else writes.
    """
    coords.setflags(write=False)
    x = object.__new__(Element)
    object.__setattr__(x, "algebra", algebra)
    object.__setattr__(x, "coords", coords)
    return x


def unit(algebra: AlgebraDescriptor) -> Element:
    return Element(algebra, algebra.unit_coords)


def zero(algebra: AlgebraDescriptor) -> Element:
    return Element(algebra, np.zeros(algebra.total_dim))


def basis_element(algebra: AlgebraDescriptor, index: int) -> Element:
    c = np.zeros(algebra.total_dim)
    c[index] = 1.0
    return Element(algebra, c)


def _check_same_algebra(x: Element, y: Element) -> None:
    if x.algebra != y.algebra:
        raise ValueError("algebra mismatch")


def jordan_products(algebra: AlgebraDescriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise Jordan products of two (N, d) coordinate arrays.

    The batched kernel behind every product in the package: one pass of
    array operations per entry of ``algebra.product_groups``.
    """
    out = np.empty((x.shape[0], algebra.total_dim))
    for kind, slots, full in algebra.product_groups:
        if kind == "scalar":
            out[:, slots] = x[:, slots] * y[:, slots]
        elif kind == "spin":
            a, b = x[:, slots], y[:, slots]
            s, u = a[..., :1], a[..., 1:]
            t, v = b[..., :1], b[..., 1:]
            out[:, slots[:, 0]] = s[..., 0] * t[..., 0] + (u * v).sum(axis=-1)
            out[:, slots[:, 1:]] = s * v + t * u
        else:
            iu, ju = _triu_indices(full.shape[-1])
            m = x[:, full] @ y[:, full]
            out[:, slots] = 0.5 * (m[..., iu, ju] + m[..., ju, iu])  # (XY + YX)/2
    return out


def jordan_product(x: Element, y: Element) -> Element:
    """The Jordan product x o y."""
    _check_same_algebra(x, y)
    out = jordan_products(x.algebra, x.coords[None, :], y.coords[None, :])
    return Element(x.algebra, out[0])


def inner_product(x: Element, y: Element) -> float:
    """Trace form: x*y / 2(st+<u,v>) / trace(XY) per factor, summed."""
    _check_same_algebra(x, y)
    return float(np.dot(x.algebra.inner_weights * x.coords, y.coords))


def triple_product(x: Element, y: Element, z: Element) -> Element:
    """{x,y,z} = (x o y) o z + (z o y) o x - (x o z) o y."""
    return (
        jordan_product(jordan_product(x, y), z)
        + jordan_product(jordan_product(z, y), x)
        - jordan_product(jordan_product(x, z), y)
    )


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A dense linear map between algebra coordinate spaces."""

    domain: AlgebraDescriptor
    codomain: AlgebraDescriptor
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.shape != (self.codomain.total_dim, self.domain.total_dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match descriptors "
                f"({self.codomain.total_dim}, {self.domain.total_dim})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def identity_operator(algebra: AlgebraDescriptor) -> LinearOperator:
    return LinearOperator(algebra, algebra, np.eye(algebra.total_dim))


def op_apply(op: LinearOperator, x: Element) -> Element:
    if x.algebra != op.domain:
        raise ValueError("algebra mismatch")
    return Element(op.codomain, op.matrix @ x.coords)


def op_compose(s: LinearOperator, t: LinearOperator) -> LinearOperator:
    """The composition s o t (t acts first)."""
    if t.codomain != s.domain:
        raise ValueError("algebra mismatch: operators do not compose")
    return LinearOperator(t.domain, s.codomain, s.matrix @ t.matrix)


def op_invert(op: LinearOperator) -> LinearOperator:
    if op.matrix.shape[0] != op.matrix.shape[1]:
        raise ValueError("singular operator: matrix is not square")
    sv = np.linalg.svd(op.matrix, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_SINGULAR:
        raise ValueError("singular operator")
    return LinearOperator(op.codomain, op.domain, np.linalg.inv(op.matrix))


def quadratic_rep(x: Element) -> LinearOperator:
    """The quadratic representation U_x: y -> {x,y,x} = 2 L_x^2 - L_{x^2}."""
    lx = mult_operator(x).matrix
    lx2 = mult_operator(jordan_product(x, x)).matrix
    return LinearOperator(x.algebra, x.algebra, 2.0 * lx @ lx - lx2)


def mult_operator(x: Element) -> LinearOperator:
    """The multiplication operator L_x: y -> x o y.

    Row j of the kernel's output is x o e_j, the j-th column of L_x.
    """
    d = x.algebra.total_dim
    rows = jordan_products(x.algebra, np.broadcast_to(x.coords, (d, d)), np.eye(d))
    return LinearOperator(x.algebra, x.algebra, rows.T)


def as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_element(algebra: AlgebraDescriptor, seed: int | np.random.Generator) -> Element:
    rng = as_rng(seed)
    return Element(algebra, rng.standard_normal(algebra.total_dim))


def random_positive(algebra: AlgebraDescriptor, seed: int | np.random.Generator) -> Element:
    v = random_element(algebra, seed)
    return jordan_product(v, v)


def random_interior(
    algebra: AlgebraDescriptor,
    seed: int | np.random.Generator,
    floor: float = 0.1,
) -> Element:
    """A random element of the open cone: a square pushed off the boundary."""
    return random_positive(algebra, seed) + floor * unit(algebra)


# ---------------------------------------------------------------------------
# serialization (the CLI file formats)

def algebra_to_dict(algebra: AlgebraDescriptor) -> dict:
    out = []
    for f in algebra.factors:
        entry: dict = {"kind": f.kind}
        if f.kind != "real":
            entry["n"] = f.n
        out.append(entry)
    return {"factors": out}


def algebra_from_dict(doc: dict) -> AlgebraDescriptor:
    if not isinstance(doc, dict) or "factors" not in doc:
        raise ValueError("algebra document must contain a 'factors' list")
    factors = []
    for entry in doc["factors"]:
        n = entry.get("n", 0)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"factor size n must be an integer, got {n!r}")
        factors.append(FactorDescriptor(entry["kind"], n))
    check_total_dim(sum(f.dim for f in factors))
    return AlgebraDescriptor(tuple(factors))


def check_total_dim(total_dim: int) -> None:
    """Raise ValueError when total_dim exceeds ``MAX_TOTAL_DIM``."""
    if total_dim > MAX_TOTAL_DIM:
        raise ValueError(f"total_dim {total_dim} exceeds MAX_TOTAL_DIM = {MAX_TOTAL_DIM}")


def element_to_list(x: Element) -> list[float]:
    return [float(c) for c in x.coords]


def _finite_array(data, finite: bool) -> np.ndarray:
    values = np.asarray(data, dtype=float)
    if finite and not np.isfinite(values).all():
        raise ValueError("non-finite value in input")
    return values


def element_from_list(algebra: AlgebraDescriptor, data: list, *, finite: bool = True) -> Element:
    """Parse a coordinate list; non-finite values are rejected unless
    ``finite`` is false (forms loaded unvalidated, to be judged by sampling)."""
    return Element(algebra, _finite_array(data, finite))


def operator_to_dict(op: LinearOperator) -> dict:
    r, c = op.matrix.shape
    return {"rows": r, "cols": c, "data": [float(v) for v in op.matrix.ravel()]}


def operator_from_dict(
    domain: AlgebraDescriptor, codomain: AlgebraDescriptor, doc: dict, *, finite: bool = True
) -> LinearOperator:
    """Parse a dense row-major operator; ``finite`` as in `element_from_list`."""
    r, c = int(doc["rows"]), int(doc["cols"])
    data = _finite_array(doc["data"], finite)
    if data.size != r * c:
        raise ValueError("operator data length does not match rows*cols")
    return LinearOperator(domain, codomain, data.reshape(r, c))
