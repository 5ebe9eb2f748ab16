"""Independent Jordan-algebra arithmetic for building inputs and checking results.

Written from the coordinate conventions in the package README, not by calling
the package, so that no check relies on the code it checks:

* a descriptor is a tuple of ``(kind, n)`` pairs, ``n = 0`` for ``real``;
* ``spin(n)`` stores ``(s, u_1..u_n)``, product ``(st + <u,v>, sv + tu)``;
* ``sym(n)`` stores the unscaled upper triangle in row-major order.

The quadratic representation uses closed forms (``Y X Y`` for sym blocks,
``2 Arw(y)^2 - Arw(y o y)`` for spin blocks), not the package's
column-by-column triple products.
"""

from __future__ import annotations

import numpy as np

Factor = tuple[str, int]
Descriptor = tuple[Factor, ...]

INTERIOR_FLOOR = 0.1


def factor_dim(factor: Factor) -> int:
    kind, n = factor
    if kind == "real":
        return 1
    if kind == "spin":
        return n + 1
    return n * (n + 1) // 2


def total_dim(desc: Descriptor) -> int:
    return sum(factor_dim(f) for f in desc)


def offsets(desc: Descriptor) -> list[int]:
    out, acc = [], 0
    for f in desc:
        out.append(acc)
        acc += factor_dim(f)
    return out


def dim1_slots(desc: Descriptor) -> list[int]:
    """Coordinates of the one-dimensional factors: the disengaged atoms."""
    return [off for off, f in zip(offsets(desc), desc) if factor_dim(f) == 1]


def to_dict(desc: Descriptor) -> dict:
    """The package's algebra file format."""
    return {
        "factors": [
            {"kind": k} if k == "real" else {"kind": k, "n": n} for k, n in desc
        ]
    }


def _blocks(desc: Descriptor):
    for f, off in zip(desc, offsets(desc)):
        yield f, slice(off, off + factor_dim(f))


def _sym_matrix(block: np.ndarray, n: int) -> np.ndarray:
    iu, ju = np.triu_indices(n)
    m = np.zeros((n, n))
    m[iu, ju] = block
    m[ju, iu] = block
    return m


def _sym_coords(m: np.ndarray, n: int) -> np.ndarray:
    iu, ju = np.triu_indices(n)
    return 0.5 * (m[iu, ju] + m[ju, iu])


def unit(desc: Descriptor) -> np.ndarray:
    e = np.zeros(total_dim(desc))
    for (kind, n), sl in _blocks(desc):
        if kind == "sym":
            iu, ju = np.triu_indices(n)
            e[sl] = (iu == ju).astype(float)
        else:
            e[sl.start] = 1.0
    return e


def product(desc: Descriptor, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty(total_dim(desc))
    for (kind, n), sl in _blocks(desc):
        a, b = x[sl], y[sl]
        if kind == "real":
            out[sl] = a * b
        elif kind == "spin":
            out[sl.start] = a[0] * b[0] + a[1:] @ b[1:]
            out[sl.start + 1:sl.stop] = a[0] * b[1:] + b[0] * a[1:]
        else:
            ma, mb = _sym_matrix(a, n), _sym_matrix(b, n)
            out[sl] = _sym_coords(0.5 * (ma @ mb + mb @ ma), n)
    return out


def eigenvalues(desc: Descriptor, x: np.ndarray) -> np.ndarray:
    vals = []
    for (kind, n), sl in _blocks(desc):
        b = x[sl]
        if kind == "real":
            vals.append(b)
        elif kind == "spin":
            r = float(np.linalg.norm(b[1:]))
            vals.append(np.array([b[0] + r, b[0] - r]))
        else:
            vals.append(np.linalg.eigvalsh(_sym_matrix(b, n)))
    return np.concatenate(vals)


def _arrow(b: np.ndarray) -> np.ndarray:
    m = b[0] * np.eye(b.size)
    m[0, 1:] = b[1:]
    m[1:, 0] = b[1:]
    return m


def _sym_linear_map(n: int, act) -> np.ndarray:
    """Coordinate matrix of a linear map X -> act(X) on sym(n)."""
    dim = n * (n + 1) // 2
    out = np.empty((dim, dim))
    for k in range(dim):
        basis = np.zeros(dim)
        basis[k] = 1.0
        out[:, k] = _sym_coords(act(_sym_matrix(basis, n)), n)
    return out


def quadratic_rep(desc: Descriptor, y: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of U_y."""
    d = total_dim(desc)
    m = np.zeros((d, d))
    for (kind, n), sl in _blocks(desc):
        b = y[sl]
        if kind == "real":
            m[sl, sl] = b[0] * b[0]
        elif kind == "spin":
            sq = np.concatenate(([b[0] ** 2 + b[1:] @ b[1:]], 2.0 * b[0] * b[1:]))
            a = _arrow(b)
            m[sl, sl] = 2.0 * a @ a - _arrow(sq)
        else:
            yy = _sym_matrix(b, n)
            m[sl, sl] = _sym_linear_map(n, lambda x: yy @ x @ yy)
    return m


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_automorphism(desc: Descriptor, rng: np.random.Generator) -> np.ndarray:
    """A Jordan automorphism: per-factor rotations or orthogonal conjugations,
    composed with a random permutation of mutually isomorphic factors."""
    d = total_dim(desc)
    offs = offsets(desc)
    target = list(range(len(desc)))
    for f in dict.fromkeys(desc):
        idx = [i for i, g in enumerate(desc) if g == f]
        for i, j in zip(idx, rng.permutation(idx)):
            target[i] = int(j)
    m = np.zeros((d, d))
    for i, (kind, n) in enumerate(desc):
        w = factor_dim((kind, n))
        if kind == "real":
            block = np.eye(1)
        elif kind == "spin":
            block = np.eye(n + 1)
            block[1:, 1:] = _haar_orthogonal(n, rng)
        else:
            q = _haar_orthogonal(n, rng)
            block = _sym_linear_map(n, lambda x: q.T @ x @ q)
        src, dst = offs[i], offs[target[i]]
        m[dst:dst + w, src:src + w] = block
    return m


def random_square(desc: Descriptor, rng: np.random.Generator) -> np.ndarray:
    """A cone element v o v with v standard normal."""
    v = rng.standard_normal(total_dim(desc))
    return product(desc, v, v)


def random_interior(desc: Descriptor, rng: np.random.Generator) -> np.ndarray:
    """An interior cone element: a square pushed off the boundary."""
    return random_square(desc, rng) + INTERIOR_FLOOR * unit(desc)


def push_unit_out_of_cone(desc: Descriptor, t: np.ndarray, variant: int) -> np.ndarray:
    """A map whose image of the unit leaves the cone.

    Variant 0 negates the map; variant 1 shifts T e by -(lambda_min + 1/2) e,
    so its smallest eigenvalue becomes -1/2.
    """
    if variant == 0:
        return -t
    e = unit(desc)
    shift = float(eigenvalues(desc, t @ e).min()) + 0.5
    return t - shift * np.outer(e, e / (e @ e))


def unital_perturbation(desc: Descriptor, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """T (I + 0.05 N) with N e = 0: T e stays interior, the residual map is
    no longer multiplicative."""
    e = unit(desc)
    g = rng.standard_normal(t.shape)
    n = g - np.outer(g @ e, e / (e @ e))
    return t @ (np.eye(t.shape[0]) + 0.05 * n)
