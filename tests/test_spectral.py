import warnings

import numpy as np
import pytest

import jordancone as jc
from jordancone import spectral
from jordancone.core import sym_from_matrix, sym_to_matrix
from jordancone.spectral import is_interior, trace
from jordancone.tolerances import INTERIOR_TOL, POSITIVITY_TOL


S2 = jc.direct_sum(jc.sym(2))
SP2 = jc.direct_sum(jc.spin(2))
SP3 = jc.direct_sum(jc.spin(3))
MIXED = jc.direct_sum(jc.real(), jc.sym(3), jc.spin(4))


def elem(algebra, coords):
    return jc.Element(algebra, np.asarray(coords, dtype=float))


class TestSpectrum:
    def test_unit(self):
        d = jc.spectral_decomposition(jc.unit(MIXED))
        assert len(d.eigenvalues) == 1
        np.testing.assert_allclose(d.eigenvalues, [1.0])
        np.testing.assert_allclose(d.idempotents[0].coords, jc.unit(MIXED).coords)

    def test_spin_by_hand(self):
        # (2,(1,0)) has eigenvalues 2 +- 1 with idempotents (1, +-(1,0))/2
        x = elem(SP2, [2.0, 1.0, 0.0])
        d = jc.spectral_decomposition(x)
        np.testing.assert_allclose(d.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(d.idempotents[0].coords, [0.5, 0.5, 0.0])
        np.testing.assert_allclose(d.idempotents[1].coords, [0.5, -0.5, 0.0])

    def test_sym_diagonal_by_hand(self):
        x = elem(S2, [5.0, 0.0, -1.0])
        d = jc.spectral_decomposition(x)
        np.testing.assert_allclose(d.eigenvalues, [5.0, -1.0])
        np.testing.assert_allclose(d.idempotents[0].coords, [1.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(d.idempotents[1].coords, [0.0, 0.0, 1.0], atol=1e-15)

    def test_multiplicity(self):
        # spectrum carries multiplicities: the spin unit has two eigenvalues 1
        np.testing.assert_allclose(jc.spectrum(jc.unit(SP3)), [1.0, 1.0])
        assert jc.spectrum(jc.unit(MIXED)).size == 1 + 3 + 2

    def test_order_unit_norm(self):
        assert jc.order_unit_norm(elem(S2, [5.0, 0.0, -1.0])) == pytest.approx(5.0)

    def test_positivity(self):
        assert jc.is_positive(jc.unit(MIXED))
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = jc.random_element(MIXED, rng)
            assert jc.is_positive(jc.jordan_product(x, x))

    def test_norm_of_square(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = jc.random_element(MIXED, rng)
            n = jc.order_unit_norm(x)
            n2 = jc.order_unit_norm(jc.jordan_product(x, x))
            assert abs(n2 - n * n) <= 1e-10 * (1.0 + n * n)


SPECTRA_ALGEBRAS = (
    [jc.direct_sum(jc.real()), jc.direct_sum(jc.sym(1))]
    + [jc.direct_sum(jc.spin(n)) for n in range(2, 8)]
    + [jc.direct_sum(jc.sym(n)) for n in range(2, 7)]
    + [
        MIXED,
        jc.direct_sum(jc.sym(2), jc.real(), jc.sym(2), jc.spin(2), jc.sym(1)),
        jc.direct_sum(jc.spin(3), jc.sym(3), jc.spin(3), jc.real(), jc.sym(4)),
    ]
)


class TestSpectra:
    @pytest.mark.parametrize("algebra", SPECTRA_ALGEBRAS, ids=str)
    def test_rows_match_spectrum(self, algebra):
        rng = np.random.default_rng(8)
        d = algebra.total_dim
        e = algebra.unit_coords
        rows = [
            np.zeros(d),
            e,
            -3.0 * e + 1e-13 * rng.standard_normal(d),  # nearly degenerate
            5.0 * e + 1e-7 * rng.standard_normal(d),
        ]
        rows += [rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4) for _ in range(40)]
        x = np.array(rows)
        got = jc.spectra(algebra, x)
        for i, row in enumerate(rows):
            want = jc.spectrum(elem(algebra, row))
            tol = 1e-12 * (1.0 + np.abs(want).max())
            assert got[i].shape == want.shape
            assert np.abs(got[i] - want).max() <= tol
        assert np.all(np.diff(got, axis=1) <= 0.0)

    def test_empty_batch(self):
        assert jc.spectra(MIXED, np.empty((0, MIXED.total_dim))).shape == (0, 6)

    def test_non_finite_blocks_give_nan(self):
        # a sym block holding NaN or inf gets NaN eigenvalues
        algebra = jc.direct_sum(jc.real(), jc.sym(3), jc.sym(3), jc.spin(2))
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, algebra.total_dim))
        x[4, 3] = np.nan
        x[9, 8:13] = np.inf
        x[20] = np.nan
        got = jc.spectra(algebra, x)
        finite = [i for i in range(30) if i not in (4, 9, 20)]
        np.testing.assert_array_equal(got[finite], jc.spectra(algebra, x[finite]))
        for i in (4, 9):
            assert np.isnan(got[i]).sum() == 3
            np.testing.assert_array_equal(got[i], jc.spectrum(elem(algebra, x[i])))
        assert np.isnan(got[20]).all()

    @pytest.mark.parametrize(
        "row", [[1.0, 0.0, np.nan], [0.0, 1.0, np.nan], [1.0, np.inf, 0.0]], ids=str
    )
    def test_non_finite_sym2_block_is_nan_on_every_route(self, row):
        # LAPACK returns finite eigenvalues for some 2 x 2 matrices holding
        # NaN or inf ([[1, 0], [0, nan]] gives 0 and -0); none may reach it
        x = elem(S2, row)
        assert np.isnan(jc.spectrum(x)).all()
        assert np.isnan(jc.spectra(S2, np.array([row, S2.unit_coords]))[0]).all()
        assert not jc.is_positive(x)
        assert not is_interior(x)
        with pytest.raises(ValueError, match="element not in cone"):
            jc.apply_order_iso(jc.identity_form(S2), x)
        assert np.isnan(jc.spectral_decomposition(x).eigenvalues).all()

    @pytest.mark.parametrize("algebra", SPECTRA_ALGEBRAS, ids=str)
    def test_lowest_equals_spectrum_min(self, algebra):
        rng = np.random.default_rng(10)
        d = algebra.total_dim
        e = algebra.unit_coords
        rows = [np.zeros(d), e, -3.0 * e + 1e-13 * rng.standard_normal(d)]
        rows += [rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4) for _ in range(40)]
        # lowest eigenvalue exactly at the cone tolerances, on the unit and on one slot
        for t in (POSITIVITY_TOL, -POSITIVITY_TOL, INTERIOR_TOL, -INTERIOR_TOL):
            rows.append(t * e)
            row = e.copy()
            row[0] = t
            rows.append(row)
        for k in range(d):
            for v in (np.nan, np.inf, -np.inf):
                row = rng.standard_normal(d)
                row[k] = v
                rows.append(row)
        rows.append(np.full(d, np.nan))
        rows.append(np.full(d, -np.inf))  # spin: s + |u| = -inf + inf is NaN
        both = e.copy()
        both[0], both[-1] = np.inf, -np.inf
        rows.append(both)
        # finite rows whose |u|^2, eigenvalues or coordinate sum overflow
        for v in (1e200, 1e308, -1e308):
            rows.append(np.full(d, v))
            rows.append(v * e)
            row = rng.standard_normal(d)
            row[-1] = v
            rows.append(row)
        alternating = np.where(np.arange(d) % 2 == 0, 1e308, -1e308)
        rows += [alternating, -alternating]
        rows += [np.full(d, -0.0), -0.0 * e, 0.0 * e - e + e]
        for row in rows:
            x = elem(algebra, row)
            # inf - inf and |u|^2 overflowing in a spin block
            with np.errstate(invalid="ignore", over="ignore"):
                want = jc.spectrum(x).min()
                got = spectral._lowest(x)
                positive, interior = jc.is_positive(x), is_interior(x)
            assert got == want or (np.isnan(got) and np.isnan(want)), row
            assert positive == bool(want >= -POSITIVITY_TOL)
            assert interior == bool(want > INTERIOR_TOL)


class TestReconstruction:
    @pytest.mark.parametrize("algebra", [S2, SP3, MIXED, jc.direct_sum(jc.sym(5))])
    def test_random_elements(self, algebra):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = jc.random_element(algebra, rng)
            d = jc.spectral_decomposition(x)
            err = jc.order_unit_norm(d.reconstruct() - x)
            assert err <= 1e-9 * (1.0 + jc.order_unit_norm(x))
            total = sum(p.coords for p in d.idempotents)
            np.testing.assert_allclose(total, algebra.unit_coords, atol=1e-10)
            for i, p in enumerate(d.idempotents):
                for j, q in enumerate(d.idempotents):
                    prod = jc.jordan_product(p, q)
                    target = p.coords if i == j else np.zeros_like(p.coords)
                    np.testing.assert_allclose(prod.coords, target, atol=1e-10)

    def test_eigenvalues_descending(self):
        x = jc.random_element(MIXED, 3)
        d = jc.spectral_decomposition(x)
        assert np.all(np.diff(d.eigenvalues) < 0)

    def test_degenerate_spin_element(self):
        d = jc.spectral_decomposition(jc.unit(SP3))
        assert len(d.eigenvalues) == 1
        np.testing.assert_allclose(d.idempotents[0].coords, [1.0, 0.0, 0.0, 0.0])


class TestFunctionalCalculus:
    def test_sqrt_unit(self):
        out = jc.sqrt(jc.unit(MIXED))
        np.testing.assert_allclose(out.coords, jc.unit(MIXED).coords, atol=1e-14)

    def test_sqrt_squares(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = jc.random_positive(MIXED, rng)
            r = jc.sqrt(x)
            back = jc.jordan_product(r, r)
            assert jc.order_unit_norm(back - x) <= 1e-9 * (1.0 + jc.order_unit_norm(x))

    def test_inv_by_hand(self):
        x = elem(S2, [2.0, 0.0, 4.0])
        out = jc.inv(x)
        np.testing.assert_allclose(out.coords, [0.5, 0.0, 0.25], atol=1e-14)

    def test_sqrt_domain_error(self):
        x = elem(S2, [1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="outside domain"):
            jc.sqrt(x)

    def test_inv_domain_error_names_eigenvalue(self):
        x = elem(S2, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="outside domain of inv"):
            jc.inv(x)

    def test_power_non_integer_on_boundary(self):
        # 0^alpha := 0 on the closed cone
        x = elem(S2, [4.0, 0.0, 0.0])
        out = jc.power(x, 0.5)
        np.testing.assert_allclose(out.coords, [2.0, 0.0, 0.0], atol=1e-14)

    def test_power_integer_on_indefinite(self):
        x = elem(S2, [2.0, 0.0, -3.0])
        out = jc.power(x, 3)
        np.testing.assert_allclose(out.coords, [8.0, 0.0, -27.0], atol=1e-12)

    def test_power_non_integer_requires_positivity(self):
        x = elem(S2, [1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="outside domain"):
            jc.power(x, 0.5)

    def test_spectral_mapping(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = jc.random_element(MIXED, rng)
            fx = jc.functional_calculus(x, lambda t: t * t - 2.0, "phi")
            got = np.sort(jc.spectrum(fx))
            want = np.sort(jc.spectrum(x) ** 2 - 2.0)
            np.testing.assert_allclose(got, want, atol=1e-8 * (1 + np.abs(want).max()))

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_sym_block_gives_nan_pieces(self, n):
        # an all-NaN sym block has NaN eigenvalues and NaN pieces
        algebra = jc.direct_sum(jc.real(), jc.sym(n))
        x = elem(algebra, [np.nan] * algebra.total_dim)
        d = jc.spectral_decomposition(x)
        assert np.isnan(d.eigenvalues).all()
        with pytest.raises(ValueError, match="eigenvalue nan outside domain of pow"):
            jc.power(x, 2)
        with pytest.raises(ValueError, match="eigenvalue nan outside domain of id"):
            jc.functional_calculus(x, lambda t: t, "id")

    def test_finite_sym_blocks_keep_their_pieces(self):
        # on one matrix or on a stack holding a non-finite one, each finite
        # matrix gets the bits of its own np.linalg.eigh (np.linalg.eigvalsh
        # without vectors), and the non-finite one NaN
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            m = rng.standard_normal((3, n, n))
            m = m + m.transpose(0, 2, 1)
            bad = m.copy()
            bad[1, 0, 0] = np.nan
            for k in range(3):
                want = np.linalg.eigh(m[k])
                for got in (spectral._eigh(m[k], vectors=True),
                            [a[k] for a in spectral._eigh(m, vectors=True)]):
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
                if k != 1:
                    got = [a[k] for a in spectral._eigh(bad, vectors=True)]
                    assert got[0].tobytes() == want[0].tobytes()
                    assert got[1].tobytes() == want[1].tobytes()
                    assert spectral._eigh(bad)[k].tobytes() == np.linalg.eigvalsh(m[k]).tobytes()
            lams, vecs = spectral._eigh(bad, vectors=True)
            assert np.isnan(lams[1]).all() and np.isnan(vecs[1]).all()
            assert np.isnan(spectral._eigh(bad)[1]).all()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lapack_core_bits_equal_the_wrappers(self, n):
        # on a finite stack _eigh calls the gufunc np.linalg.eigvalsh/eigh
        # run after their checks: the same bits, one matrix or many, at any
        # scale
        rng = np.random.default_rng(40 + n)
        for count in (1, 50):
            for scale in (np.exp(-20.0), 1.0, np.exp(20.0)):
                m = rng.standard_normal((count, n, n)) * scale
                m = m + m.transpose(0, 2, 1)
                assert spectral._eigh(m).tobytes() == np.linalg.eigvalsh(m).tobytes()
                got, want = spectral._eigh(m, vectors=True), np.linalg.eigh(m)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                assert spectral._eigh(m[0]).tobytes() == np.linalg.eigvalsh(m[0]).tobytes()

    def test_lapack_failure_on_finite_input_raises(self, monkeypatch):
        # LAPACK marks a matrix it failed on with NaN output; on finite input
        # that is LinAlgError, as np.linalg raises, on every route
        monkeypatch.setattr(spectral, "_EIGVALSH", lambda m: np.full(m.shape[:-1], np.nan))
        monkeypatch.setattr(
            spectral, "_EIGH", lambda m: (np.full(m.shape[:-1], np.nan), np.full(m.shape, np.nan))
        )
        x = jc.random_element(MIXED, 3)
        mixed_stack = np.stack([np.eye(3), np.full((3, 3), np.nan)])
        for run in (
            lambda: spectral._eigh(np.eye(3)[None]),
            lambda: spectral._eigh(np.eye(3), vectors=True),
            lambda: spectral._eigh(mixed_stack),
            lambda: spectral._lowest(x),
            lambda: jc.spectrum(x),
            lambda: jc.spectral_decomposition(x),
        ):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                run()

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_sym3_warns_nothing(self, v):
        # LAPACK never sees these through the bare gufunc, whose failure
        # would surface as numpy's invalid-value RuntimeWarning
        algebra = jc.direct_sum(jc.real(), jc.sym(3), jc.sym(3))
        rng = np.random.default_rng(12)
        one = rng.standard_normal(algebra.total_dim)
        one[3] = v
        for row in (one, np.full(algebra.total_dim, v)):
            x = elem(algebra, row)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                spectral._lowest(x)
                jc.spectrum(x)
                jc.spectra(algebra, np.stack([row, algebra.unit_coords]))
                jc.spectral_decomposition(x)

    def test_custom_phi_domain_error(self):
        phi = lambda t: float(np.log(t)) if t > 0 else float("nan")
        with pytest.raises(ValueError, match="outside domain of log"):
            jc.functional_calculus(elem(S2, [1.0, 0.0, -1.0]), phi, "log")


class TestAtomicRefinement:
    def test_unit_splits_into_frame(self):
        d = jc.spectral_decomposition(jc.unit(S2))
        pairs = jc.atomic_refinement(d)
        assert len(pairs) == 2
        total = sum(a.coords for _, a in pairs)
        np.testing.assert_allclose(total, jc.unit(S2).coords, atol=1e-12)
        for _, a in pairs:
            assert jc.is_atom(a)

    def test_rank_one_with_zero_part(self):
        x = elem(S2, [3.0, 0.0, 0.0])
        pairs = jc.atomic_refinement(jc.spectral_decomposition(x))
        recon = sum(lam * a.coords for lam, a in pairs)
        np.testing.assert_allclose(recon, x.coords, atol=1e-12)
        lams = sorted(lam for lam, _ in pairs)
        assert lams == [0.0, 3.0]

    def test_spin_unit_splits_in_two(self):
        pairs = jc.atomic_refinement(jc.spectral_decomposition(jc.unit(SP3)))
        assert len(pairs) == 2
        total = sum(a.coords for _, a in pairs)
        np.testing.assert_allclose(total, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        for _, a in pairs:
            assert jc.is_atom(a)

    @pytest.mark.parametrize("algebra", [S2, SP3, MIXED])
    def test_random_refinements(self, algebra):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = jc.random_element(algebra, rng)
            pairs = jc.atomic_refinement(jc.spectral_decomposition(x))
            recon = sum(lam * a.coords for lam, a in pairs)
            assert np.abs(recon - x.coords).max() <= 1e-9 * (
                1.0 + jc.order_unit_norm(x)
            )
            atoms = [a for _, a in pairs]
            for i, a in enumerate(atoms):
                assert jc.is_atom(a)
                for b in atoms[i + 1:]:
                    assert jc.order_unit_norm(jc.jordan_product(a, b)) <= 1e-10


class TestHelpers:
    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = jc.random_element(MIXED, rng)
            assert trace(x) == pytest.approx(float(jc.spectrum(x).sum()), abs=1e-10)

    def test_is_interior(self):
        assert is_interior(jc.unit(MIXED))
        assert not is_interior(elem(S2, [1.0, 0.0, 0.0]))

    def test_nan_element_is_neither_positive_nor_interior(self):
        x = elem(jc.direct_sum(jc.sym(3)), [np.nan] * 6)
        assert np.isnan(jc.spectrum(x)).all()
        assert not jc.is_positive(x)
        assert not is_interior(x)


# ---------------------------------------------------------------------------
# The per-factor routes that the grouped eigen kernel replaced, kept as
# references.  `spectral` now reads every eigenvalue and every rank-one piece
# off ``algebra.product_groups``; these loop over the factors one at a time.


def ref_spectrum(x):
    """Eigenvalues of x, descending, with multiplicity (per factor)."""
    vals = []
    for f, sl in zip(x.algebra.factors, x.algebra.slices):
        b = x.coords[sl]
        if f.dim == 1:  # real or sym(1): one scalar slot, as the library reads it
            vals.append(b)
        elif f.kind == "spin":
            s, r = b[0], float(np.linalg.norm(b[1:]))
            vals.append(np.array([s + r, s - r]))
        else:
            vals.append(spectral._eigh(sym_to_matrix(b, f.n)))
    out = np.concatenate(vals)
    out[::-1].sort()
    return out


def ref_factor_pieces(x):
    """Rank-one spectral pieces (eigenvalue, factor index, block coords)."""
    pieces = []
    for fi, (f, sl) in enumerate(zip(x.algebra.factors, x.algebra.slices)):
        b = x.coords[sl]
        if f.dim == 1:  # real or sym(1): one scalar slot, as the library reads it
            pieces.append((float(b[0]), fi, np.array([1.0])))
        elif f.kind == "spin":
            s, u = b[0], b[1:]
            r = float(np.linalg.norm(u))
            if r == 0.0:
                w = np.zeros(f.n)
                w[0] = 1.0
            else:
                w = u / r
            for sign in (1.0, -1.0):
                pieces.append(
                    (float(s + sign * r), fi, np.concatenate(([0.5], 0.5 * sign * w)))
                )
        else:
            lams, vecs = spectral._eigh(sym_to_matrix(b, f.n), vectors=True)
            for k in range(f.n):
                v = vecs[:, k]
                pieces.append(
                    (float(lams[k]), fi, sym_from_matrix(np.outer(v, v), f.n))
                )
    return pieces


def ref_pieces(x):
    """`ref_factor_pieces` in the shape of `spectral._pieces`."""
    slices = x.algebra.slices
    return [(lam, slices[fi], block) for lam, fi, block in ref_factor_pieces(x)]


def ref_atomic_refinement(d):
    """Per-factor split of a frame, with its own thresholds and eigh."""
    algebra = d.algebra
    out = []
    for lam, p in zip(d.eigenvalues, d.idempotents):
        for f, sl in zip(algebra.factors, algebra.slices):
            b = p.coords[sl]
            if f.kind == "real":
                if b[0] > 0.5:
                    out.append((float(lam), padded(algebra, sl, np.array([1.0]))))
            elif f.kind == "spin":
                s = b[0]
                if s >= 0.75:
                    w = np.zeros(f.n)
                    w[0] = 1.0
                    for sign in (1.0, -1.0):
                        block = np.concatenate(([0.5], 0.5 * sign * w))
                        out.append((float(lam), padded(algebra, sl, block)))
                elif s > 0.25:
                    out.append((float(lam), padded(algebra, sl, b)))
            else:
                m = sym_to_matrix(b, f.n)
                if np.abs(m).max() < 0.25:
                    continue
                lams, vecs = np.linalg.eigh(m)
                for k in range(f.n):
                    if lams[k] > 0.5:
                        v = vecs[:, k]
                        block = sym_from_matrix(np.outer(v, v), f.n)
                        out.append((float(lam), padded(algebra, sl, block)))
    return out


def padded(algebra, sl, block):
    c = np.zeros(algebra.total_dim)
    c[sl] = block
    return jc.Element(algebra, c)


def rank(algebra):
    return sum({"real": 1, "spin": 2}.get(f.kind, f.n) for f in algebra.factors)


REFERENCE_ALGEBRAS = SPECTRA_ALGEBRAS + [
    jc.direct_sum(*[jc.sym(2)] * 6, jc.real(), jc.real()),  # the grid shape
    jc.direct_sum(jc.real(), jc.sym(3), jc.sym(3)),
]


def reference_rows(algebra, seed):
    """Random rows at many scales, nearly degenerate and spin u = 0 rows,
    and rows holding NaN or +-inf."""
    rng = np.random.default_rng(seed)
    d = algebra.total_dim
    e = algebra.unit_coords
    rows = [
        np.zeros(d),
        e,
        -3.0 * e + 1e-13 * rng.standard_normal(d),
        5.0 * e + 1e-7 * rng.standard_normal(d),
    ]
    rows += [rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4) for _ in range(24)]
    rows += [rng.standard_normal(d) * np.exp(rng.choice([-20.0, 20.0])) for _ in range(4)]
    for _ in range(2):
        row = rng.standard_normal(d)
        for f, sl in zip(algebra.factors, algebra.slices):
            if f.kind == "spin":
                row[sl.start + 1:sl.stop] = 0.0
        rows.append(row)
    finite = len(rows)
    for v in (np.nan, np.inf, -np.inf):
        row = rng.standard_normal(d)
        row[rng.integers(d)] = v
        rows.append(row)
        rows.append(np.full(d, v))
    return rows, finite


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def outcome(f):
    """The result of f(), or the type and text of the ValueError it raises."""
    try:
        return f()
    except ValueError as err:
        return ("ValueError", str(err))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestAgainstReferences:
    """The grouped kernel against the per-factor routes, byte for byte."""

    @pytest.mark.parametrize("algebra", REFERENCE_ALGEBRAS, ids=str)
    def test_eigenvalues(self, algebra):
        rows, _ = reference_rows(algebra, 21)
        for row in rows:
            x = elem(algebra, row)
            want = ref_spectrum(x)
            assert same_bytes(jc.spectrum(x), want), row
            assert same_bytes(jc.spectra(algebra, x.coords[None])[0], want), row
            got = spectral._lowest(x)
            assert got == want.min() or (np.isnan(got) and np.isnan(want.min())), row

    def test_signed_zeros_follow_the_group_order(self):
        # -0.0 and 0.0 compare equal, so the sort keeps them in input order:
        # factor order in the per-factor route, group order in the kernel
        # (the same order `spectra` has always used)
        algebra = jc.direct_sum(jc.spin(3), jc.real())
        x = elem(algebra, [-0.0] * 5)
        assert same_bytes(jc.spectrum(x), [-0.0, 0.0, -0.0])
        assert same_bytes(ref_spectrum(x), [0.0, -0.0, -0.0])
        assert same_bytes(jc.spectrum(x), jc.spectra(algebra, x.coords[None])[0])

    @pytest.mark.parametrize("algebra", REFERENCE_ALGEBRAS, ids=str)
    def test_decomposition_and_calculus(self, algebra, monkeypatch):
        rows, _ = reference_rows(algebra, 22)
        routes = {
            "decomposition": lambda x: jc.spectral_decomposition(x),
            "sqrt": jc.sqrt,
            "inv": jc.inv,
            "square": lambda x: jc.power(x, 2),
            "root": lambda x: jc.power(x, 0.5),
        }

        def as_bytes(value):
            if isinstance(value, tuple):
                return value
            if isinstance(value, jc.SpectralDecomposition):
                return [value.eigenvalues.tobytes()] + [
                    p.coords.tobytes() for p in value.idempotents
                ]
            return value.coords.tobytes()

        xs = [elem(algebra, row) for row in rows]
        xs += [jc.jordan_product(x, x) for x in xs]  # in the cone: sqrt and root apply
        got = {k: [as_bytes(outcome(lambda: f(x))) for x in xs] for k, f in routes.items()}
        monkeypatch.setattr(spectral, "_pieces", ref_pieces)
        for k, f in routes.items():
            assert got[k] == [as_bytes(outcome(lambda: f(x))) for x in xs], k

    @pytest.mark.parametrize("algebra", REFERENCE_ALGEBRAS, ids=str)
    def test_atomic_refinement(self, algebra):
        rows, finite = reference_rows(algebra, 23)
        spread = any(f.kind == "sym" and f.n >= 5 for f in algebra.factors)
        spin_u = np.zeros(algebra.total_dim, dtype=bool)
        for f, sl in zip(algebra.factors, algebra.slices):
            if f.kind == "spin":
                spin_u[sl.start + 1:sl.stop] = True
        for i, row in enumerate(rows):
            d = jc.spectral_decomposition(elem(algebra, row))
            if i >= finite:
                with pytest.raises(ValueError, match="outside domain of atomic_refinement"):
                    jc.atomic_refinement(d)
                continue
            got, want = jc.atomic_refinement(d), ref_atomic_refinement(d)
            assert len(got) == rank(algebra)
            if len(want) < len(got):
                # the reference skips sym blocks with every entry below 1/4,
                # which drops spread-out rank-one atoms of sym(n >= 5)
                assert spread
                continue
            for (lam, a), (mu, b) in zip(got, want):
                assert same_bytes(lam, mu)
                assert same_bytes(a.coords[~spin_u], b.coords[~spin_u])
                # a spin half-atom (1/2, u) comes back as (1/2, u / (2|u|))
                assert np.abs(a.coords - b.coords).max() <= 4e-16

    @pytest.mark.parametrize(
        "algebra",
        [
            jc.direct_sum(jc.real(), jc.sym(3)),
            jc.direct_sum(jc.real(), jc.sym(2)),
            jc.direct_sum(jc.spin(3)),
        ],
        ids=str,
    )
    def test_non_finite_frame_is_refused(self, algebra):
        # the per-factor route raised LinAlgError, dropped the sym block, or
        # returned atoms under a NaN eigenvalue on these
        d = jc.spectral_decomposition(elem(algebra, [np.nan] * algebra.total_dim))
        with pytest.raises(ValueError, match="eigenvalue nan outside domain of atomic_refinement"):
            jc.atomic_refinement(d)

    def test_spread_rank_one_atom_is_kept(self):
        # v v^T with v = (1, ..., 1) / sqrt(5) has every entry 1/5
        algebra = jc.direct_sum(jc.sym(5))
        v = np.ones(5) / np.sqrt(5.0)
        x = elem(algebra, sym_from_matrix(3.0 * np.outer(v, v), 5))
        pairs = jc.atomic_refinement(jc.spectral_decomposition(x))
        assert len(pairs) == 5
        np.testing.assert_allclose(
            sum(a.coords for _, a in pairs), algebra.unit_coords, atol=1e-12
        )
        assert all(jc.is_atom(a) for _, a in pairs)

    def test_one_eigh_per_sym_size(self, monkeypatch):
        algebra = jc.direct_sum(jc.real(), *[jc.sym(2)] * 3, *[jc.sym(3)] * 2)
        calls = []
        eigh = spectral._EIGH

        def counted(m):
            calls.append(np.shape(m))
            return eigh(m)

        monkeypatch.setattr(spectral, "_EIGH", counted)
        jc.spectral_decomposition(jc.random_element(algebra, 0))
        assert calls == [(3, 2, 2), (2, 3, 3)]
