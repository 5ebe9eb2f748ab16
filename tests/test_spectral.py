import numpy as np
import pytest

import jordancone as jc
from jordancone import spectral
from jordancone.spectral import INTERIOR_TOL, POSITIVITY_TOL, is_interior, trace


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
        # LAPACK raises on a non-finite sym(n >= 3) matrix; that block gets NaN
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
        for row in rows:
            x = elem(algebra, row)
            with np.errstate(invalid="ignore"):  # inf - inf in a spin block
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
        # LAPACK raises on an all-NaN sym(n >= 3) matrix and yields NaN for n = 2
        algebra = jc.direct_sum(jc.real(), jc.sym(n))
        x = elem(algebra, [np.nan] * algebra.total_dim)
        d = jc.spectral_decomposition(x)
        assert np.isnan(d.eigenvalues).all()
        with pytest.raises(ValueError, match="eigenvalue nan outside domain of pow"):
            jc.power(x, 2)
        with pytest.raises(ValueError, match="eigenvalue nan outside domain of id"):
            jc.functional_calculus(x, lambda t: t, "id")

    def test_finite_sym_blocks_keep_their_pieces(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            m = rng.standard_normal((n, n))
            m = m + m.T
            got, want = spectral._eigh(m), np.linalg.eigh(m)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

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
