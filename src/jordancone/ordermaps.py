"""Order isomorphisms between cones: factorization and classification.

A linear order isomorphism T factors uniquely as T = U_y J with y interior
to the codomain cone and J a Jordan isomorphism; y is the square root of
T(e).  A general (possibly non-linear) order isomorphism acts coordinate-
wise on the disengaged atoms through monotone bijections of the half-line
and linearly on the engaged part:

    f(x) = (f_p(x_p) placed in slot sigma(p))  +  U_y J x_E.

`OrderIsoForm` realizes maps in this classified shape.  The catalog of
monotone bijections is restricted to powers and increasing piecewise-linear
maps, which is closed under inversion and rich enough to witness both
failure modes of linearity (additivity and homogeneity).  Arbitrary
black-box maps can only be *sampled* for the order-isomorphism property;
see the `verify` module.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from dataclasses import InitVar, dataclass, field
from typing import Callable, Union

from .core import (
    RCOND_SINGULAR,
    AlgebraDescriptor,
    Element,
    LinearOperator,
    _fresh_element,
    direct_sum,
    jordan_product,
    jordan_products,
    op_apply,
    op_compose,
    op_invert,
    quadratic_rep,
    random_interior,
    as_rng,
    real,
    sym,
    sym_from_matrix,
    sym_to_matrix,
    unit,
)
from .spectral import (
    POSITIVITY_TOL,
    inv,
    is_interior,
    is_positive,
    spectra,
    sqrt,
)
from .structure import Decomposition, decompose_engaged_disengaged

JORDAN_HOM_TOL = 1e-9
HOM_PAIR_CHUNK = 4096  # basis pairs per product-kernel call in is_jordan_homomorphism


# ---------------------------------------------------------------------------
# monotone bijections of the nonnegative half-line

@dataclass(frozen=True)
class Power:
    """t -> t**alpha with finite alpha > 0."""

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("power bijection requires alpha > 0")
        if not math.isfinite(self.alpha):
            raise ValueError("power bijection requires a finite alpha")

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("monotone bijections act on the half-line t >= 0")
        return float(t) ** self.alpha

    def inverse(self) -> "Power":
        return Power(1.0 / self.alpha)

    def compose(self, inner: "MonotoneBijection") -> "MonotoneBijection":
        """The map t -> self(inner(t))."""
        if isinstance(inner, Power):
            return Power(self.alpha * inner.alpha)
        if self.alpha == 1.0:
            return inner
        raise ValueError(
            "composition of a non-trivial power with a piecewise-linear "
            "bijection is not representable in the supported catalog"
        )

    def is_scaling(self) -> bool:
        return self.alpha == 1.0


@dataclass(frozen=True)
class PiecewiseLinear:
    """A strictly increasing piecewise-linear bijection with f(0) = 0.

    ``breakpoints`` is a tuple of finite (t, f(t)) pairs starting at (0, 0)
    with strictly increasing t and values; past the last pair the final slope
    continues to infinity.
    """

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bp = tuple((float(t), float(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(bp) < 2 or bp[0] != (0.0, 0.0):
            raise ValueError("breakpoints must start at (0, 0) and have >= 2 knots")
        if not all(math.isfinite(t) and math.isfinite(v) for t, v in bp):
            raise ValueError("breakpoints must be finite")
        ts = np.array([t for t, _ in bp])
        vs = np.array([v for _, v in bp])
        if np.any(np.diff(ts) <= 0) or np.any(np.diff(vs) <= 0):
            raise ValueError("breakpoints must be strictly increasing (slopes > 0)")
        object.__setattr__(self, "_ts", tuple(t for t, _ in bp))
        object.__setattr__(self, "_vs", tuple(v for _, v in bp))

    def _slopes(self) -> np.ndarray:
        return np.diff(self._vs) / np.diff(self._ts)

    def __call__(self, t: float) -> float:
        if t < 0:
            raise ValueError("monotone bijections act on the half-line t >= 0")
        ts, vs = self._ts, self._vs
        # the segment left of t; NaN and inf sort past the last knot
        k = min(bisect.bisect_right(ts, t), len(ts) - 1) - 1
        slope = (vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k])
        return vs[k] + slope * (t - ts[k])

    def inverse(self) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple((v, t) for t, v in self.breakpoints))

    def compose(self, inner: "MonotoneBijection") -> "MonotoneBijection":
        """The map t -> self(inner(t))."""
        if isinstance(inner, Power):
            if inner.alpha == 1.0:
                return self
            raise ValueError(
                "composition of a non-trivial power with a piecewise-linear "
                "bijection is not representable in the supported catalog"
            )
        # knots: inner's knots plus preimages of self's knots under inner
        inner_inv = inner.inverse()
        ts = {t for t, _ in inner.breakpoints}
        ts.update(inner_inv(s) for s, _ in self.breakpoints)
        knots = sorted(ts)
        return PiecewiseLinear(tuple((t, self(inner(t))) for t in knots))

    def is_scaling(self) -> bool:
        s = self._slopes()
        return bool(np.allclose(s, s[0], rtol=1e-12, atol=0.0))


MonotoneBijection = Union[Power, PiecewiseLinear]


# ---------------------------------------------------------------------------
# Jordan homomorphism tests and the U_y J factorization

def is_jordan_homomorphism(
    op: LinearOperator, tol: float = JORDAN_HOM_TOL, norm: float | None = None
) -> bool:
    """Unital and multiplicative on all standard basis pairs.

    The d(d+1)/2 pairs (e_i, e_j), i <= j, go through the product kernel
    ``HOM_PAIR_CHUNK`` pairs at a time, so the work arrays stay
    O(chunk * d); the largest defect |T(e_i o e_j) - T e_i o T e_j| must
    stay within tol * (1 + |T|_2^2), and the check stops at the first
    chunk that exceeds it.  ``norm`` is |T|_2 when the caller has it.
    """
    e_dom, e_cod = unit(op.domain), unit(op.codomain)
    if np.abs(op_apply(op, e_dom).coords - e_cod.coords).max() > tol:
        return False
    if norm is None:
        norm = float(np.linalg.norm(op.matrix, 2))
    scale = tol * (1.0 + norm**2)
    eye = np.eye(op.domain.total_dim)
    i, j = np.triu_indices(op.domain.total_dim)
    images = op.matrix.T  # row k is T e_k
    for start in range(0, i.size, HOM_PAIR_CHUNK):
        ci, cj = i[start:start + HOM_PAIR_CHUNK], j[start:start + HOM_PAIR_CHUNK]
        lhs = jordan_products(op.domain, eye[ci], eye[cj]) @ images
        rhs = jordan_products(op.codomain, images[ci], images[cj])
        if not np.abs(lhs - rhs).max() <= scale:  # NaN fails too
            return False
    return True


def is_jordan_isomorphism(op: LinearOperator, tol: float = JORDAN_HOM_TOL) -> bool:
    m = op.matrix
    if m.shape[0] != m.shape[1]:
        return False
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < RCOND_SINGULAR:
        return False
    # |T|_2 is the largest singular value, as np.linalg.norm(m, 2) computes it
    return is_jordan_homomorphism(op, tol, norm=float(sv[0]))


def factorize_linear_order_iso(op: LinearOperator) -> tuple[Element, LinearOperator]:
    """Factor a linear order isomorphism T as T = U_y J.

    Returns the unique pair (y, J) with y = (T e)^{1/2} interior to the
    codomain cone and J = U_{y^-1} T a Jordan isomorphism.

    Raises
    ------
    ValueError
        "Te not in interior of cone" when T cannot be an order isomorphism
        because the unit's image leaves the open cone; "residual map is not
        a Jordan isomorphism" when T maps the unit into the interior but is
        still not an order isomorphism.
    """
    if op.matrix.shape[0] != op.matrix.shape[1]:
        raise ValueError("factorization requires a square operator")
    z = op_apply(op, unit(op.domain))
    if not is_interior(z):
        raise ValueError("Te not in interior of cone")
    y = sqrt(z)
    j = op_compose(quadratic_rep(inv(y)), op)
    if not is_jordan_isomorphism(j):
        raise ValueError("residual map is not a Jordan isomorphism")
    return y, j


# ---------------------------------------------------------------------------
# the classified form of an order isomorphism

@dataclass(frozen=True, eq=False)
class OrderIsoForm:
    """An order isomorphism in classified shape.

    ``sigma[i]`` is the codomain disengaged slot receiving domain
    disengaged slot i, ``f_p[i]`` the monotone bijection acting there.
    ``y`` and ``J`` live on the engaged subalgebras and are None exactly
    when the algebras have no engaged part.  Construction validates that y
    is interior and J a Jordan isomorphism unless ``validate=False`` (used
    to load untrusted forms for sampling-based verification).

    Construction also fixes the slot plan both apply routes read: the
    domain slot of each disengaged atom, the codomain slot its image lands
    in (``sigma`` already applied), and the engaged slots on either side.
    """

    domain: AlgebraDescriptor
    codomain: AlgebraDescriptor
    sigma: tuple[int, ...]
    f_p: tuple[MonotoneBijection, ...]
    y: Element | None
    J: LinearOperator | None
    validate: bool = field(default=True, repr=False)
    # set by the module's own constructors when J has just passed
    # `is_jordan_isomorphism`, so validation does not run it a second time
    _j_checked: InitVar[bool] = False

    def __post_init__(self, _j_checked: bool) -> None:
        object.__setattr__(self, "sigma", tuple(int(i) for i in self.sigma))
        object.__setattr__(self, "f_p", tuple(self.f_p))
        dd = decompose_engaged_disengaged(self.domain)
        cd = decompose_engaged_disengaged(self.codomain)
        object.__setattr__(self, "_dd", dd)
        object.__setattr__(self, "_cd", cd)

        n_dis = len(dd.disengaged_atoms)
        if len(cd.disengaged_atoms) != n_dis:
            raise ValueError("cones not order isomorphic under supported factors")
        if len(self.sigma) != n_dis or sorted(self.sigma) != list(range(n_dis)):
            raise ValueError("sigma must be a bijection of the disengaged slots")
        if len(self.f_p) != n_dis:
            raise ValueError("one monotone bijection per disengaged atom required")

        if dd.has_engaged != cd.has_engaged:
            raise ValueError("cones not order isomorphic under supported factors")
        if dd.has_engaged:
            if self.y is None or self.J is None:
                raise ValueError("engaged part present: y and J are required")
            if self.y.algebra != cd.engaged_subalgebra:
                raise ValueError("y must live in the codomain engaged subalgebra")
            if (self.J.domain, self.J.codomain) != (
                dd.engaged_subalgebra,
                cd.engaged_subalgebra,
            ):
                raise ValueError("J must map the engaged subalgebras")
            if self.validate:
                if not is_interior(self.y):
                    raise ValueError("y is not in the interior of the cone")
                if not _j_checked and not is_jordan_isomorphism(self.J):
                    raise ValueError("J is not a Jordan isomorphism")
            engaged = quadratic_rep(self.y).matrix @ self.J.matrix
        else:
            if self.y is not None or self.J is not None:
                raise ValueError("no engaged part: y and J must be None")
            engaged = None
        object.__setattr__(self, "_engaged_matrix", engaged)
        src = np.array(dd.disengaged_coordinates, dtype=np.intp)
        dst = np.array([cd.disengaged_coordinates[j] for j in self.sigma], dtype=np.intp)
        src.setflags(write=False)
        dst.setflags(write=False)
        object.__setattr__(self, "_src", src)
        object.__setattr__(self, "_dst", dst)
        object.__setattr__(self, "_src_engaged", dd.engaged_slots)
        object.__setattr__(self, "_dst_engaged", cd.engaged_slots)

    @property
    def domain_decomposition(self) -> Decomposition:
        return self._dd

    @property
    def codomain_decomposition(self) -> Decomposition:
        return self._cd

    @property
    def engaged_matrix(self) -> np.ndarray | None:
        """The matrix of U_y J on engaged-subalgebra coordinates."""
        return self._engaged_matrix


def identity_form(algebra: AlgebraDescriptor) -> OrderIsoForm:
    dd = decompose_engaged_disengaged(algebra)
    n = len(dd.disengaged_atoms)
    if dd.has_engaged:
        y = unit(dd.engaged_subalgebra)
        j = LinearOperator(
            dd.engaged_subalgebra,
            dd.engaged_subalgebra,
            np.eye(dd.engaged_subalgebra.total_dim),
        )
    else:
        y = j = None
    return OrderIsoForm(algebra, algebra, tuple(range(n)), (Power(1.0),) * n, y, j)


def _apply_rows(form: OrderIsoForm, x: np.ndarray) -> np.ndarray:
    """The classified map on each row of an (N, d) array; no cone check.

    Each bijection runs its own scalar ``__call__`` on every entry of its
    column (a vectorized power can differ from ``**`` in the last bit).
    The engaged part is one stacked matrix-vector product: every row goes
    through the same BLAS call a single ``M @ x`` makes, which a
    matrix-matrix product does not, so batched and single images agree
    bitwise.
    """
    out = np.zeros((x.shape[0], form.codomain.total_dim))
    for src, dst, bij in zip(form._src.tolist(), form._dst.tolist(), form.f_p):
        out[:, dst] = [bij(max(t, 0.0)) for t in x[:, src].tolist()]
    m = form.engaged_matrix
    if m is not None:
        xe = x[:, form._src_engaged]
        out[:, form._dst_engaged] = np.matmul(m, xe[:, :, None])[:, :, 0]
    return out


def apply_order_iso(form: OrderIsoForm, x: Element) -> Element:
    """Evaluate the classified map on a cone element.

    Bitwise equal to `apply_order_iso_rows` on the one row x, without its
    batching: one scalar call per disengaged slot and one matrix-vector
    product for the engaged part.
    """
    if x.algebra is not form.domain and x.algebra != form.domain:
        raise ValueError("algebra mismatch")
    if not is_positive(x):
        raise ValueError("element not in cone")
    c = x.coords
    out = np.zeros(form.codomain.total_dim)
    out[form._dst] = [bij(max(t, 0.0)) for bij, t in zip(form.f_p, c[form._src].tolist())]
    m = form.engaged_matrix
    if m is not None:
        out[form._dst_engaged] = m @ c[form._src_engaged]
    return _fresh_element(form.codomain, out)


def apply_order_iso_rows(form: OrderIsoForm, x: np.ndarray) -> np.ndarray:
    """`apply_order_iso` on each row of an (N, d) array of cone elements.

    Row i of the result equals ``apply_order_iso`` of row i bitwise.  One
    batched positivity check covers all rows.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != form.domain.total_dim:
        raise ValueError(
            f"coordinate array of shape {x.shape} does not match algebra "
            f"dimension {form.domain.total_dim}"
        )
    if not (spectra(form.domain, x).min(axis=1) >= -POSITIVITY_TOL).all():
        raise ValueError("element not in cone")
    return _apply_rows(form, x)


def invert_order_iso(form: OrderIsoForm) -> OrderIsoForm:
    """The inverse map, again in classified shape."""
    n = len(form.sigma)
    sigma_inv = [0] * n
    for i, j in enumerate(form.sigma):
        sigma_inv[j] = i
    f_inv = tuple(form.f_p[sigma_inv[j]].inverse() for j in range(n))
    if form.engaged_matrix is not None:
        dd, cd = form.domain_decomposition, form.codomain_decomposition
        back = op_invert(
            LinearOperator(
                dd.engaged_subalgebra, cd.engaged_subalgebra, form.engaged_matrix
            )
        )
        y, j = factorize_linear_order_iso(back)
    else:
        y = j = None
    return OrderIsoForm(
        form.codomain, form.domain, tuple(sigma_inv), f_inv, y, j, _j_checked=True
    )


def compose_order_iso(f: OrderIsoForm, g: OrderIsoForm) -> OrderIsoForm:
    """The composition f o g (g acts first), in classified shape."""
    if g.codomain != f.domain:
        raise ValueError("algebra mismatch: compose requires g.codomain == f.domain")
    sigma = tuple(f.sigma[g.sigma[i]] for i in range(len(g.sigma)))
    f_p = tuple(f.f_p[g.sigma[i]].compose(g.f_p[i]) for i in range(len(g.sigma)))
    if g.engaged_matrix is not None:
        m = f.engaged_matrix @ g.engaged_matrix
        dd = g.domain_decomposition
        cd = f.codomain_decomposition
        y, j = factorize_linear_order_iso(
            LinearOperator(dd.engaged_subalgebra, cd.engaged_subalgebra, m)
        )
    else:
        y = j = None
    return OrderIsoForm(g.domain, f.codomain, sigma, f_p, y, j, _j_checked=True)


def check_linearity(form: OrderIsoForm) -> bool:
    """Whether the classified map is (the restriction of) a linear map.

    True iff every disengaged bijection is a scaling t -> c t; in
    particular always true when the domain has no disengaged atoms.
    """
    return all(bij.is_scaling() for bij in form.f_p)


def linear_operator_of_form(form: OrderIsoForm) -> LinearOperator:
    """Assemble the full-coordinate linear operator of a linear form."""
    if not check_linearity(form):
        raise ValueError("form is not linear")
    m = np.zeros((form.codomain.total_dim, form.domain.total_dim))
    m[form._dst, form._src] = [bij(1.0) for bij in form.f_p]  # the slopes of scalings
    if form.engaged_matrix is not None:
        m[np.ix_(form._dst_engaged, form._src_engaged)] = form.engaged_matrix
    return LinearOperator(form.domain, form.codomain, m)


def affinity_on_translated_cone(
    form: OrderIsoForm, x: Element, trials: int = 100, seed: int = 0
) -> tuple[LinearOperator, Element]:
    """The affine representation of the form on the cone translated by x.

    Requires a domain without disengaged atoms, where order isomorphisms
    of upper sets are affine: returns (S, b) with S linear such that
    f(x + y) = S(x + y) + b for y >= 0, verified on random samples.
    """
    if form.domain_decomposition.disengaged_atoms:
        raise ValueError("domain has disengaged atoms")
    if not is_positive(x):
        raise ValueError("element not in cone")
    s = linear_operator_of_form(form)
    b = apply_order_iso(form, x) - op_apply(s, x)
    rng = as_rng(seed)
    for _ in range(trials):
        v = Element(form.domain, rng.standard_normal(form.domain.total_dim))
        yv = jordan_product(v, v)
        lhs = apply_order_iso(form, x + yv)
        rhs = op_apply(s, x + yv) + b
        if np.abs(lhs.coords - rhs.coords).max() > 1e-8 * (
            1.0 + np.abs(lhs.coords).max()
        ):
            raise AssertionError("affine verification failed on a sample")
    return s, b


# ---------------------------------------------------------------------------
# generators

def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sym_conjugation_matrix(n: int, q: np.ndarray) -> np.ndarray:
    """Coordinate matrix of X -> Q^T X Q on upper-triangle coordinates."""
    dim = n * (n + 1) // 2
    m = np.empty((dim, dim))
    for j in range(dim):
        b = np.zeros(dim)
        b[j] = 1.0
        m[:, j] = sym_from_matrix(q.T @ sym_to_matrix(b, n) @ q, n)
    return m


def _random_factor_automorphism(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "real":
        return np.eye(1)
    if kind == "spin":
        rot = _haar_orthogonal(n, rng)
        out = np.eye(n + 1)
        out[1:, 1:] = rot
        return out
    return _sym_conjugation_matrix(n, _haar_orthogonal(n, rng))


def _grouped_factor_bijection(
    domain: AlgebraDescriptor,
    codomain: AlgebraDescriptor,
    rng: np.random.Generator,
) -> list[tuple[int, int]]:
    """Random pairing of domain factors with same-kind codomain factors."""
    groups: dict[tuple[str, int], tuple[list[int], list[int]]] = {}
    for i, f in enumerate(domain.factors):
        groups.setdefault((f.kind, f.n), ([], []))[0].append(i)
    for i, f in enumerate(codomain.factors):
        groups.setdefault((f.kind, f.n), ([], []))[1].append(i)
    pairs: list[tuple[int, int]] = []
    for (kind, n), (dom_idx, cod_idx) in sorted(groups.items()):
        if len(dom_idx) != len(cod_idx):
            raise ValueError("cones not order isomorphic under supported factors")
        perm = rng.permutation(len(dom_idx))
        pairs.extend((dom_idx[k], cod_idx[int(perm[k])]) for k in range(len(dom_idx)))
    return pairs


def _random_jordan_iso_between(
    domain: AlgebraDescriptor,
    codomain: AlgebraDescriptor,
    rng: np.random.Generator,
) -> LinearOperator:
    pairs = _grouped_factor_bijection(domain, codomain, rng)
    m = np.zeros((codomain.total_dim, domain.total_dim))
    for di, ci in pairs:
        f = domain.factors[di]
        block = _random_factor_automorphism(f.kind, f.n, rng)
        m[codomain.slices[ci], domain.slices[di]] = block
    return LinearOperator(domain, codomain, m)


def random_jordan_automorphism(
    algebra: AlgebraDescriptor, seed: int | np.random.Generator = 0
) -> LinearOperator:
    """A random Jordan automorphism: per-factor rotations/conjugations plus
    a random permutation of mutually isomorphic factors."""
    op = _random_jordan_iso_between(algebra, algebra, as_rng(seed))
    assert is_jordan_isomorphism(op)
    return op


def random_order_iso(
    domain: AlgebraDescriptor,
    codomain: AlgebraDescriptor,
    seed: int | np.random.Generator = 0,
    allow_nonlinear: bool = True,
) -> OrderIsoForm:
    """Sample an order isomorphism in classified shape.

    The engaged parts must match up to a permutation of factors and the
    disengaged atom counts must agree; otherwise the cones are not order
    isomorphic within the supported factor catalog and a ValueError is
    raised.  Disengaged bijections are powers with exponent in [0.3, 3]
    (forced to 1 when ``allow_nonlinear`` is false), y is drawn interior,
    and J is a random factor-matched Jordan isomorphism.
    """
    rng = as_rng(seed)
    dd = decompose_engaged_disengaged(domain)
    cd = decompose_engaged_disengaged(codomain)
    if len(dd.disengaged_atoms) != len(cd.disengaged_atoms):
        raise ValueError("cones not order isomorphic under supported factors")
    if dd.has_engaged != cd.has_engaged:
        raise ValueError("cones not order isomorphic under supported factors")
    n = len(dd.disengaged_atoms)
    sigma = tuple(int(i) for i in rng.permutation(n))
    if allow_nonlinear:
        f_p = tuple(Power(float(a)) for a in rng.uniform(0.3, 3.0, size=n))
    else:
        f_p = (Power(1.0),) * n
    if dd.has_engaged:
        j = _random_jordan_iso_between(
            dd.engaged_subalgebra, cd.engaged_subalgebra, rng
        )
        y = random_interior(cd.engaged_subalgebra, rng)
    else:
        y = j = None
    return OrderIsoForm(domain, codomain, sigma, f_p, y, j)


# ---------------------------------------------------------------------------
# the grid power demo: a non-linear order isomorphism on a discretized
# version of the matrix-valued function algebra whose off-diagonal entries
# vanish on the first half of the interval

def grid_total_dim(n_grid: int) -> int:
    """total_dim of `grid_power_demo`'s algebra, without building it.

    The points t_k <= 1/2 are k = 0..(n_grid-1)//2, two slots each; the
    others carry three sym(2) slots each.
    """
    low = (n_grid - 1) // 2 + 1
    return 2 * low + 3 * (n_grid - low)


def grid_power_demo(n_grid: int, lam: Callable[[float], float]) -> OrderIsoForm:
    """A coordinatewise power map on the scalar half of a grid algebra.

    The grid t_k = k/(n_grid-1) on [0, 1] carries two real factors per
    point with t <= 1/2 (diagonal 2x2 matrices) and one sym(2) factor per
    point with t > 1/2.  The returned form applies t -> t^lam(t_k) on each
    scalar slot and the identity on the sym blocks; lam must be strictly
    positive and identically 1 on the engaged (t > 1/2) half.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    ts = [k / (n_grid - 1) for k in range(n_grid)]
    lams = [float(lam(t)) for t in ts]
    if any(l <= 0 for l in lams):
        raise ValueError("λ must be strictly positive on the grid")
    factors = []
    exponents = []
    for t, l in zip(ts, lams):
        if t <= 0.5:
            factors.extend([real(), real()])
            exponents.extend([l, l])
        else:
            if l != 1.0:
                raise ValueError("λ must be 1 on engaged blocks")
            factors.append(sym(2))
    algebra = direct_sum(*factors)
    dd = decompose_engaged_disengaged(algebra)
    sigma = tuple(range(len(dd.disengaged_atoms)))
    f_p = tuple(Power(a) for a in exponents)
    if dd.has_engaged:
        y = unit(dd.engaged_subalgebra)
        j = LinearOperator(
            dd.engaged_subalgebra,
            dd.engaged_subalgebra,
            np.eye(dd.engaged_subalgebra.total_dim),
        )
    else:
        y = j = None
    return OrderIsoForm(algebra, algebra, sigma, f_p, y, j)


# ---------------------------------------------------------------------------
# serialization

def _bijection_to_dict(bij: MonotoneBijection) -> dict:
    if isinstance(bij, Power):
        return {"kind": "power", "alpha": bij.alpha}
    return {"kind": "piecewise_linear", "breakpoints": [list(p) for p in bij.breakpoints]}


def _bijection_from_dict(doc: dict) -> MonotoneBijection:
    if doc["kind"] == "power":
        return Power(float(doc["alpha"]))
    if doc["kind"] == "piecewise_linear":
        return PiecewiseLinear(tuple((float(t), float(v)) for t, v in doc["breakpoints"]))
    raise ValueError(f"unknown bijection kind {doc['kind']!r}")


def form_to_dict(form: OrderIsoForm) -> dict:
    from .core import algebra_to_dict, element_to_list, operator_to_dict

    return {
        "domain": algebra_to_dict(form.domain),
        "codomain": algebra_to_dict(form.codomain),
        "sigma": [[i, j] for i, j in enumerate(form.sigma)],
        "f_p": [_bijection_to_dict(b) for b in form.f_p],
        "y": element_to_list(form.y) if form.y is not None else None,
        "J": operator_to_dict(form.J) if form.J is not None else None,
    }


def form_from_dict(doc: dict, validate: bool = True) -> OrderIsoForm:
    from .core import algebra_from_dict, element_from_list, operator_from_dict

    domain = algebra_from_dict(doc["domain"])
    codomain = algebra_from_dict(doc["codomain"])
    pairs = sorted((int(i), int(j)) for i, j in doc["sigma"])
    if [i for i, _ in pairs] != list(range(len(pairs))):
        raise ValueError("sigma pairs must cover the disengaged slots")
    sigma = tuple(j for _, j in pairs)
    f_p = tuple(_bijection_from_dict(b) for b in doc["f_p"])
    dd = decompose_engaged_disengaged(domain)
    cd = decompose_engaged_disengaged(codomain)
    if doc.get("y") is not None:
        if cd.engaged_subalgebra is None or dd.engaged_subalgebra is None:
            raise ValueError("form document carries y/J but the algebras have no engaged part")
        # unvalidated forms may carry non-finite values for sampling to flag
        y = element_from_list(cd.engaged_subalgebra, doc["y"], finite=validate)
        j = operator_from_dict(
            dd.engaged_subalgebra, cd.engaged_subalgebra, doc["J"], finite=validate
        )
    else:
        y = j = None
    return OrderIsoForm(domain, codomain, sigma, f_p, y, j, validate=validate)
