import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordancone as jc
from jordancone import ordermaps, spectral
from jordancone.ordermaps import grid_total_dim
from jordancone.structure import decompose_engaged_disengaged


S2 = jc.direct_sum(jc.sym(2))
S3 = jc.direct_sum(jc.sym(3))
RR = jc.direct_sum(jc.real(), jc.real())
RRR = jc.direct_sum(jc.real(), jc.real(), jc.real())
R_S2 = jc.direct_sum(jc.real(), jc.sym(2))
MIXED = jc.direct_sum(jc.real(), jc.sym(2), jc.spin(3))


def elem(algebra, coords):
    return jc.Element(algebra, np.asarray(coords, dtype=float))


# ---------------------------------------------------------------------------
# monotone bijections

class TestPower:
    def test_eval_and_inverse(self):
        f = jc.Power(2.0)
        assert f(3.0) == pytest.approx(9.0)
        assert f.inverse()(9.0) == pytest.approx(3.0)

    def test_compose(self):
        f = jc.Power(2.0).compose(jc.Power(0.25))
        assert isinstance(f, jc.Power) and f.alpha == pytest.approx(0.5)

    def test_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            jc.Power(0.0)

    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -np.inf])
    def test_requires_finite_exponent(self, alpha):
        # inf > 0 holds, so positivity alone let Power(inf) through
        with pytest.raises(ValueError, match="power bijection requires"):
            jc.Power(alpha)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            jc.Power(2.0)(-1.0)

    def test_overflow_is_a_value_error(self):
        # 40.0 ** 200 is out of float range: Python raises OverflowError
        with pytest.raises(ValueError, match=r"alpha = 200\.0, t = 40\.0"):
            jc.Power(200.0)(40.0)
        form = jc.OrderIsoForm(RR, RR, (0, 1), (jc.Power(200.0),) * 2, None, None)
        with pytest.raises(ValueError, match="power bijection overflows"):
            jc.apply_order_iso(form, elem(RR, [40.0, 1.0]))
        with pytest.raises(ValueError, match="power bijection overflows"):
            jc.apply_order_iso_rows(form, np.array([[1.0, 1.0], [1.0, 40.0]]))
        assert jc.Power(200.0)(1.0) == 1.0

    def test_scaling_detection(self):
        assert jc.Power(1.0).is_scaling()
        assert not jc.Power(2.0).is_scaling()


class TestPiecewiseLinear:
    def test_validation(self):
        with pytest.raises(ValueError):
            jc.PiecewiseLinear(((1.0, 1.0), (2.0, 2.0)))  # must start at origin
        with pytest.raises(ValueError):
            jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 1.0)))  # not increasing

    @pytest.mark.parametrize("knot", [(np.nan, 1.0), (1.0, np.inf), (np.inf, np.inf), (1.0, np.nan)])
    def test_requires_finite_knots(self, knot):
        # comparisons with NaN are false and inf - x > 0, so the increasing
        # check alone let these through
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            jc.PiecewiseLinear(((0.0, 0.0), knot, (5.0, 6.0)))
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            jc.PiecewiseLinear(((0.0, 0.0), (0.5, 0.5), knot))

    def test_eval_with_extension(self):
        f = jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)))
        assert f(0.5) == pytest.approx(1.0)
        assert f(2.0) == pytest.approx(2.5)
        assert f(10.0) == pytest.approx(3.0 + 0.5 * 7.0)  # last slope continues

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 20.0))
    def test_inverse_roundtrip(self, t):
        f = jc.PiecewiseLinear(((0.0, 0.0), (1.0, 3.0), (2.0, 3.5), (4.0, 8.0)))
        assert f.inverse()(f(t)) == pytest.approx(t, abs=1e-10)

    def test_compose_matches_pointwise(self):
        f = jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 5.0)))
        g = jc.PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (3.0, 4.0)))
        h = f.compose(g)  # t -> f(g(t))
        for t in np.linspace(0.0, 6.0, 50):
            assert h(float(t)) == pytest.approx(f(g(float(t))), abs=1e-10)

    def test_mixed_composition_unsupported(self):
        pl = jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0)))
        with pytest.raises(ValueError, match="not representable"):
            jc.Power(2.0).compose(pl)
        with pytest.raises(ValueError, match="not representable"):
            pl.compose(jc.Power(2.0))
        assert jc.Power(1.0).compose(pl) is pl
        assert pl.compose(jc.Power(1.0)) is pl

    def test_eval_bitwise_equal_to_searchsorted_formula(self):
        def reference(bp, t):
            ts = [p[0] for p in bp]
            vs = [p[1] for p in bp]
            k = int(np.searchsorted(ts, t, side="right")) - 1
            if k >= len(ts) - 1:
                k = len(ts) - 2
            slope = (vs[k + 1] - vs[k]) / (ts[k + 1] - ts[k])
            return vs[k] + slope * (t - ts[k])

        f = jc.PiecewiseLinear(((0.0, 0.0), (0.3, 0.7), (1.0, 2.0), (2.5, 2.1), (4.0, 9.0)))
        knots = [t for t, _ in f.breakpoints]
        between = [0.5 * (a + b) for a, b in zip(knots, knots[1:])]
        past = [4.0 + 1e-12, 7.5, 1e300, np.inf, np.nan]
        for t in [0.0, -0.0, 5e-324, *knots, *between, *past]:
            got, want = f(t), reference(f.breakpoints, t)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), t
        assert np.array(f._slopes).tobytes() == (np.diff([0.0, 0.7, 2.0, 2.1, 9.0]) / np.diff(knots)).tobytes()

    @pytest.mark.parametrize("knot", [(1e-300, 1e300), (1e300, 1e-300)], ids=["inf", "zero"])
    def test_slopes_must_be_finite_positive_floats(self, knot):
        # finite, increasing knots whose slope overflows to inf or underflows
        # to 0.0: the first used to map every t > 0 to inf with overflow
        # warnings, the second was accepted with f(1) = f(5) = 0.0
        with pytest.raises(ValueError, match="slopes must be finite and > 0"):
            jc.PiecewiseLinear(((0.0, 0.0), knot))
        with pytest.raises(ValueError, match="slopes must be finite and > 0"):
            jc.PiecewiseLinear(((0.0, 0.0), (1e-300, 1e-300), (1e-300 + 1e-310, 1.0), (2.0, 2.0)))

    def test_scaling_detection(self):
        assert jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 4.0))).is_scaling()
        assert not jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 3.0))).is_scaling()


# ---------------------------------------------------------------------------
# Jordan homomorphism checks and the factorization

class TestJordanHomomorphism:
    def test_identity(self):
        assert jc.is_jordan_homomorphism(jc.identity_operator(S3))

    def test_orthogonal_conjugation(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        from jordancone.ordermaps import _sym_conjugation_matrix

        op = jc.LinearOperator(S3, S3, _sym_conjugation_matrix(3, q))
        assert jc.is_jordan_homomorphism(op)

    def test_scaling_fails_unitality(self):
        op = jc.LinearOperator(S3, S3, 2.0 * np.eye(6))
        assert not jc.is_jordan_homomorphism(op)

    def test_batched_check_accepts_automorphisms_and_flags_one_entry(self):
        algebra = jc.direct_sum(jc.real(), jc.sym(5), jc.spin(4))
        for seed in range(5):
            op = jc.random_jordan_automorphism(algebra, seed)
            assert jc.is_jordan_homomorphism(op)
            m = op.matrix.copy()
            m[3, 7] += 1e-6
            assert not jc.is_jordan_homomorphism(jc.LinearOperator(algebra, algebra, m))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_check_matches_one_shot(self, monkeypatch, chunk):
        algebra = jc.direct_sum(jc.real(), jc.sym(5), jc.spin(4))
        ops = []
        for seed in range(5):
            op = jc.random_jordan_automorphism(algebra, seed)
            m = op.matrix.copy()
            m[3, 7] += 1e-6
            ops += [op, jc.LinearOperator(algebra, algebra, m)]
        monkeypatch.setattr(ordermaps, "HOM_PAIR_CHUNK", 10**9)
        one_shot = [jc.is_jordan_homomorphism(op) for op in ops]
        monkeypatch.setattr(ordermaps, "HOM_PAIR_CHUNK", chunk)
        assert [jc.is_jordan_homomorphism(op) for op in ops] == one_shot
        assert one_shot == [True, False] * 5

    def test_defect_in_last_chunk_is_found(self, monkeypatch):
        # T = I + A on a trailing sym(2) block with A unital: every defective
        # pair lies inside that block, which holds the last 6 of the pairs
        algebra = jc.direct_sum(jc.real(), jc.sym(5), jc.sym(2))
        d = algebra.total_dim
        pairs = d * (d + 1) // 2
        m = np.eye(d)
        m[d - 2, d - 3] += 1e-6  # the off-diagonal picks up the (0,0) entry ...
        m[d - 2, d - 1] -= 1e-6  # ... minus the (1,1) entry, so T e = e
        e = jc.unit(algebra).coords
        assert np.array_equal(m @ e, e)
        i, j = np.triu_indices(d)
        images, eye = m.T, np.eye(d)
        defects = np.abs(
            jc.jordan_products(algebra, eye[i], eye[j]) @ images
            - jc.jordan_products(algebra, images[i], images[j])
        ).max(axis=1)
        assert np.flatnonzero(defects > 1e-9).min() >= pairs - 6

        op = jc.LinearOperator(algebra, algebra, m)
        monkeypatch.setattr(ordermaps, "HOM_PAIR_CHUNK", 10**9)
        assert not jc.is_jordan_homomorphism(op)
        monkeypatch.setattr(ordermaps, "HOM_PAIR_CHUNK", pairs - 6)
        assert not jc.is_jordan_homomorphism(op)

    def test_isomorphism_passes_its_norm(self, monkeypatch):
        algebra = jc.direct_sum(jc.real(), jc.sym(3))
        op = jc.random_jordan_automorphism(algebra, 2)
        seen = []
        real_hom = ordermaps.is_jordan_homomorphism
        monkeypatch.setattr(
            ordermaps, "is_jordan_homomorphism",
            lambda op, norm=None: seen.append(norm) or real_hom(op, norm),
        )
        assert ordermaps.is_jordan_isomorphism(op)
        assert seen == [np.linalg.norm(op.matrix, 2)]

    def test_isomorphism_needs_invertibility(self):
        m = np.zeros((3, 3))
        m[0, 0] = m[0, 2] = 0.5  # averages the diagonal: unital, not injective
        op = jc.LinearOperator(S2, S2, m)
        assert not jc.is_jordan_isomorphism(op)


class TestFactorization:
    def test_identity_map(self):
        y, j = jc.factorize_linear_order_iso(jc.identity_operator(S2))
        np.testing.assert_allclose(y.coords, jc.unit(S2).coords, atol=1e-12)
        np.testing.assert_allclose(j.matrix, np.eye(3), atol=1e-12)

    def test_recovers_quadratic_rep(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = jc.random_interior(MIXED, rng)
            t = jc.quadratic_rep(y)
            y2, j2 = jc.factorize_linear_order_iso(t)
            assert jc.order_unit_norm(y2 - y) <= 1e-8
            np.testing.assert_allclose(j2.matrix, np.eye(MIXED.total_dim), atol=1e-8)

    def test_recovers_both_factors(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = jc.random_interior(S3, rng)
            j = jc.random_jordan_automorphism(S3, rng)
            t = jc.op_compose(jc.quadratic_rep(y), j)
            y2, j2 = jc.factorize_linear_order_iso(t)
            assert jc.order_unit_norm(y2 - y) <= 1e-8
            assert np.abs(j2.matrix - j.matrix).max() <= 1e-8

    def test_eigenvalues_of_different_factors_within_cluster_width(self):
        # 0.1 and 0.1 + 2e-6 square to eigenvalues 4e-7 apart, inside the
        # clustering width 1e-8 * (1 + 289) of y o y; sqrt must not merge them
        algebra = jc.direct_sum(jc.real(), jc.real(), jc.sym(2))
        y = elem(algebra, [0.1, 0.1 + 2e-6, 17.0, 0.0, 1.0])
        back = jc.sqrt(jc.jordan_product(y, y))
        assert np.abs(back.coords - y.coords).max() <= 1e-8
        j = jc.random_jordan_automorphism(algebra, 0)
        y2, j2 = jc.factorize_linear_order_iso(jc.op_compose(jc.quadratic_rep(y), j))
        assert np.abs(y2.coords - y.coords).max() <= 1e-8
        assert np.abs(j2.matrix - j.matrix).max() <= 1e-8

    def test_rejects_non_positive_unit_image(self):
        t = jc.LinearOperator(S2, S2, -np.eye(3))
        with pytest.raises(ValueError, match="Te not in interior of cone"):
            jc.factorize_linear_order_iso(t)

    def test_rejects_boundary_unit_image(self):
        m = np.eye(3)
        m[2, 2] = 0.0
        with pytest.raises(ValueError, match="Te not in interior of cone"):
            jc.factorize_linear_order_iso(jc.LinearOperator(S2, S2, m))

    def test_nan_unit_image_not_interior(self):
        # NaN > INTERIOR_TOL is false, so the unit-image check stops it before sqrt
        t = jc.LinearOperator(S2, S2, np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="Te not in interior of cone"):
            jc.factorize_linear_order_iso(t)

    def test_rejects_non_jordan_residual(self):
        rng = np.random.default_rng(3)
        y = jc.random_interior(S2, rng)
        t = jc.quadratic_rep(y).matrix
        e = S2.unit_coords
        dual = S2.inner_weights * e / float((S2.inner_weights * e) @ e)
        g = rng.standard_normal((3, 3))
        b = np.eye(3) + 0.1 * (g - np.outer(g @ e, dual))
        with pytest.raises(ValueError, match="residual map is not a Jordan"):
            jc.factorize_linear_order_iso(jc.LinearOperator(S2, S2, t @ b))


# ---------------------------------------------------------------------------
# classified forms

def squaring_form(algebra=R_S2, alpha=2.0):
    dec = decompose_engaged_disengaged(algebra)
    n = len(dec.disengaged_atoms)
    return jc.OrderIsoForm(
        algebra, algebra, tuple(range(n)), (jc.Power(alpha),) * n,
        jc.unit(dec.engaged_subalgebra),
        jc.identity_operator(dec.engaged_subalgebra),
    )


class TestOrderIsoForm:
    def test_identity_form_acts_trivially(self):
        rng = np.random.default_rng(4)
        form = jc.identity_form(MIXED)
        for _ in range(20):
            x = jc.random_positive(MIXED, rng)
            out = jc.apply_order_iso(form, x)
            np.testing.assert_allclose(out.coords, x.coords, atol=1e-12)

    def test_coordinate_squaring_by_hand(self):
        form = jc.OrderIsoForm(RR, RR, (0, 1), (jc.Power(2.0),) * 2, None, None)
        out = jc.apply_order_iso(form, elem(RR, [3.0, 2.0]))
        np.testing.assert_allclose(out.coords, [9.0, 4.0])

    def test_rejects_elements_outside_cone(self):
        form = jc.identity_form(S2)
        with pytest.raises(ValueError, match="element not in cone"):
            jc.apply_order_iso(form, elem(S2, [1.0, 0.0, -1.0]))

    def test_validates_interior_y(self):
        dec = decompose_engaged_disengaged(R_S2)
        with pytest.raises(ValueError, match="interior"):
            jc.OrderIsoForm(
                R_S2, R_S2, (0,), (jc.Power(1.0),),
                elem(dec.engaged_subalgebra, [1.0, 0.0, 0.0]),  # boundary point
                jc.identity_operator(dec.engaged_subalgebra),
            )

    def test_validates_nan_y(self):
        dec = decompose_engaged_disengaged(R_S2)
        with pytest.raises(ValueError, match="interior"):
            jc.OrderIsoForm(
                R_S2, R_S2, (0,), (jc.Power(1.0),),
                elem(dec.engaged_subalgebra, [np.nan] * 3),
                jc.identity_operator(dec.engaged_subalgebra),
            )

    def test_validates_jordan_part(self):
        dec = decompose_engaged_disengaged(R_S2)
        with pytest.raises(ValueError, match="Jordan"):
            jc.OrderIsoForm(
                R_S2, R_S2, (0,), (jc.Power(1.0),),
                jc.unit(dec.engaged_subalgebra),
                jc.LinearOperator(
                    dec.engaged_subalgebra, dec.engaged_subalgebra, 2 * np.eye(3)
                ),
            )

    def test_validate_false_skips_semantic_checks(self):
        dec = decompose_engaged_disengaged(R_S2)
        form = jc.OrderIsoForm(
            R_S2, R_S2, (0,), (jc.Power(1.0),),
            jc.unit(dec.engaged_subalgebra),
            jc.LinearOperator(
                dec.engaged_subalgebra, dec.engaged_subalgebra, 2 * np.eye(3)
            ),
            validate=False,
        )
        out = jc.apply_order_iso(form, jc.unit(R_S2))
        assert out.coords[1] == pytest.approx(2.0)

    def test_sigma_must_be_bijection(self):
        with pytest.raises(ValueError, match="sigma"):
            jc.OrderIsoForm(RR, RR, (0, 0), (jc.Power(1.0),) * 2, None, None)

    def test_mismatched_cones_rejected(self):
        with pytest.raises(ValueError, match="not order isomorphic"):
            jc.OrderIsoForm(S2, RR, (), (), jc.unit(S2), jc.identity_operator(S2))


class TestApplyRows:
    FORMS = {
        "mixed": lambda: jc.random_order_iso(
            jc.direct_sum(jc.real(), jc.spin(3), jc.real(), jc.sym(2)),
            jc.direct_sum(jc.sym(2), jc.real(), jc.spin(3), jc.real()),
            seed=11,
        ),
        "engaged-only": lambda: jc.random_order_iso(S3, S3, seed=12),
        "reals": lambda: jc.OrderIsoForm(
            RR, RR, (1, 0),
            (jc.Power(0.5), jc.PiecewiseLinear(((0, 0), (1, 2), (3, 4)))),
            None, None,
        ),
        "three-reals": lambda: jc.OrderIsoForm(
            RRR, RRR, (2, 0, 1),
            (jc.Power(1.0), jc.Power(2.5), jc.PiecewiseLinear(((0, 0), (0.5, 2), (1, 3)))),
            None, None,
        ),
        "spins": lambda: jc.random_order_iso(
            jc.direct_sum(jc.real(), jc.spin(2), jc.real(), jc.spin(2)),
            jc.direct_sum(jc.spin(2), jc.real(), jc.spin(2), jc.real()),
            seed=14,
        ),
        "spin-sym": lambda: jc.random_order_iso(
            jc.direct_sum(jc.real(), jc.spin(2), jc.sym(3)),
            jc.direct_sum(jc.sym(3), jc.real(), jc.spin(2)),
            seed=15,
        ),
    }

    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_rows_equal_single_applies_bitwise(self, name):
        form = self.FORMS[name]()
        rng = np.random.default_rng(13)
        x = np.array([jc.random_positive(form.domain, rng).coords for _ in range(30)])
        x[0] = 0.0
        x[1] = -0.0  # max(-0.0, 0.0) keeps the sign; both routes must agree
        x[2] = -x[2] * 0.0
        got = jc.apply_order_iso_rows(form, x)
        for row, image in zip(x, got):
            single = jc.apply_order_iso(form, elem(form.domain, row)).coords
            assert single.tobytes() == image.tobytes()

    def test_single_apply_linalg_calls(self, monkeypatch):
        # the single-element path reads its cone check and slot plan off the
        # descriptor and the form: no public np.linalg routine at all, no
        # LAPACK call for spin blocks and one eigvalsh per sym(n) size
        calls = []
        for name in [n for n in dir(np.linalg) if not n.startswith("_")]:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.linalg, name, counted)
        for name, core in (("eigvalsh", spectral._EIGVALSH), ("eigh", spectral._EIGH)):
            def counted_core(m, _core=core, _name=name):
                calls.append(f"lapack {_name}")
                return _core(m)
            monkeypatch.setattr(spectral, f"_{name.upper()}", counted_core)
        spins = jc.direct_sum(jc.real(), jc.real(), jc.spin(2), jc.spin(2))
        mixed = jc.direct_sum(jc.real(), jc.spin(2), jc.sym(3))
        for algebra, want in ((spins, []), (mixed, ["lapack eigvalsh"])):
            form = jc.random_order_iso(algebra, algebra, seed=16)
            x = jc.random_positive(algebra, 17)
            calls.clear()
            jc.apply_order_iso(form, x)
            assert calls == want

    def test_any_row_outside_cone_rejected(self):
        form = jc.identity_form(MIXED)
        x = np.array([jc.random_positive(MIXED, s).coords for s in range(5)])
        x[3, 0] = -1.0  # the real slot goes negative
        with pytest.raises(ValueError, match="element not in cone"):
            jc.apply_order_iso_rows(form, x)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            jc.apply_order_iso_rows(jc.identity_form(S2), np.ones((2, 4)))


class TestInversionComposition:
    def test_invert_roundtrip(self):
        rng = np.random.default_rng(5)
        form = jc.random_order_iso(R_S2, R_S2, seed=6)
        back = jc.invert_order_iso(form)
        for _ in range(1000):
            x = jc.random_positive(R_S2, rng)
            roundtrip = jc.apply_order_iso(back, jc.apply_order_iso(form, x))
            assert jc.order_unit_norm(roundtrip - x) <= 1e-8 * (
                1.0 + jc.order_unit_norm(x)
            )

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(6)
        form = jc.random_order_iso(MIXED, MIXED, seed=7)
        ident = jc.compose_order_iso(form, jc.invert_order_iso(form))
        for _ in range(100):
            z = jc.random_positive(MIXED, rng)
            out = jc.apply_order_iso(ident, z)
            assert jc.order_unit_norm(out - z) <= 1e-8 * (1.0 + jc.order_unit_norm(z))

    def test_invert_and_compose_check_j_once(self, monkeypatch):
        form = jc.random_order_iso(MIXED, MIXED, seed=9)
        calls = []
        check = ordermaps.is_jordan_isomorphism

        def counted(op, *args, **kwargs):
            calls.append(op)
            return check(op, *args, **kwargs)

        monkeypatch.setattr(ordermaps, "is_jordan_isomorphism", counted)
        back = jc.invert_order_iso(form)
        assert len(calls) == 1 and calls[0] is back.J
        ident = jc.compose_order_iso(form, back)
        assert len(calls) == 2 and calls[1] is ident.J
        monkeypatch.undo()
        for g in (back, ident):
            assert jc.is_jordan_isomorphism(g.J)
            assert jc.is_interior(g.y)

    def test_compose_requires_matching_algebras(self):
        f = jc.identity_form(S2)
        g = jc.identity_form(S3)
        with pytest.raises(ValueError, match="algebra mismatch"):
            jc.compose_order_iso(f, g)

    def test_compose_piecewise_linear_slots(self):
        pl = jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 5.0)))
        f = jc.OrderIsoForm(RR, RR, (0, 1), (pl, pl.inverse()), None, None)
        g = jc.compose_order_iso(jc.invert_order_iso(f), f)
        for x in ([0.3, 1.7], [2.5, 0.1], [4.0, 4.0]):
            out = jc.apply_order_iso(g, elem(RR, x))
            np.testing.assert_allclose(out.coords, x, atol=1e-10)

    def test_permutation_slots_compose(self):
        f = jc.random_order_iso(RR, RR, seed=8)
        back = jc.invert_order_iso(f)
        x = elem(RR, [1.5, 0.25])
        out = jc.apply_order_iso(back, jc.apply_order_iso(f, x))
        np.testing.assert_allclose(out.coords, x.coords, atol=1e-10)


class TestGenerators:
    def test_automorphism_is_jordan(self):
        for seed in range(5):
            op = jc.random_jordan_automorphism(MIXED, seed)
            assert jc.is_jordan_isomorphism(op)

    def test_automorphism_is_isometry(self):
        # unital order isomorphisms preserve the order-unit norm
        rng = np.random.default_rng(7)
        op = jc.random_jordan_automorphism(MIXED, 9)
        for _ in range(500):
            x = jc.random_element(MIXED, rng)
            assert jc.order_unit_norm(jc.op_apply(op, x)) == pytest.approx(
                jc.order_unit_norm(x), abs=1e-9 * (1 + jc.order_unit_norm(x))
            )

    def test_automorphism_preserves_cone(self):
        rng = np.random.default_rng(8)
        op = jc.random_jordan_automorphism(MIXED, 10)
        for _ in range(100):
            x = jc.random_positive(MIXED, rng)
            assert jc.is_positive(jc.op_apply(op, x))

    def test_real_algebra_automorphism_is_identity(self):
        op = jc.random_jordan_automorphism(jc.direct_sum(jc.real()), 0)
        np.testing.assert_array_equal(op.matrix, np.eye(1))

    def test_factor_swap_on_two_reals(self):
        # some seed produces the coordinate swap
        swapped = False
        for seed in range(10):
            op = jc.random_jordan_automorphism(RR, seed)
            if np.array_equal(op.matrix, np.array([[0.0, 1.0], [1.0, 0.0]])):
                swapped = True
        assert swapped

    def test_linear_form_collapses_to_operator(self):
        form = jc.random_order_iso(R_S2, R_S2, seed=11, allow_nonlinear=False)
        assert jc.check_linearity(form)
        op = jc.linear_operator_of_form(form)
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = jc.random_positive(R_S2, rng)
            out = jc.apply_order_iso(form, x)
            np.testing.assert_allclose(
                out.coords, jc.op_apply(op, x).coords,
                atol=1e-8 * (1 + np.abs(out.coords).max()),
            )

    def test_incompatible_cones_rejected(self):
        with pytest.raises(ValueError, match="not order isomorphic"):
            jc.random_order_iso(S2, RR, seed=0)
        with pytest.raises(ValueError, match="not order isomorphic"):
            jc.random_order_iso(
                jc.direct_sum(jc.sym(2)), jc.direct_sum(jc.spin(2)), seed=0
            )

    def test_engaged_only_forms_are_linear(self):
        for seed in range(10):
            form = jc.random_order_iso(S3, S3, seed=seed, allow_nonlinear=True)
            assert jc.check_linearity(form)

    def test_order_preservation_of_random_forms(self):
        rng = np.random.default_rng(10)
        form = jc.random_order_iso(MIXED, MIXED, seed=12)
        back = jc.invert_order_iso(form)
        for mapping, algebra in ((form, MIXED), (back, MIXED)):
            for _ in range(1000):
                v = jc.random_element(algebra, rng)
                w = jc.random_element(algebra, rng)
                x = jc.jordan_product(v, v)
                z = x + jc.jordan_product(w, w)
                diff = jc.apply_order_iso(mapping, z) - jc.apply_order_iso(mapping, x)
                assert jc.spectrum(diff).min() >= -1e-9


class TestCheckLinearity:
    def test_power_one_is_linear(self):
        assert jc.check_linearity(jc.identity_form(R_S2))

    def test_power_two_is_not(self):
        assert not jc.check_linearity(squaring_form())

    def test_uniform_slope_counts_as_linear(self):
        pl = jc.PiecewiseLinear(((0.0, 0.0), (1.0, 3.0), (2.0, 6.0)))
        form = jc.OrderIsoForm(RR, RR, (0, 1), (pl, jc.Power(1.0)), None, None)
        assert jc.check_linearity(form)


class TestGridPowerDemo:
    def test_trivial_lambda_is_linear(self):
        form = jc.grid_power_demo(4, lambda t: 1.0)
        assert jc.check_linearity(form)

    def test_power_two_nonlinear_but_monotone(self):
        form = jc.grid_power_demo(4, lambda t: 2.0 if t <= 0.5 else 1.0)
        assert not jc.check_linearity(form)
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = jc.random_element(form.domain, rng)
            w = jc.random_element(form.domain, rng)
            x = jc.jordan_product(v, v)
            z = x + jc.jordan_product(w, w)
            diff = jc.apply_order_iso(form, z) - jc.apply_order_iso(form, x)
            assert jc.spectrum(diff).min() >= -1e-9

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="strictly positive"):
            jc.grid_power_demo(4, lambda t: -1.0)

    def test_rejects_nonunit_lambda_on_matrix_half(self):
        with pytest.raises(ValueError, match="must be 1 on engaged blocks"):
            jc.grid_power_demo(4, lambda t: 2.0)

    def test_total_dim_without_building(self):
        for n in (2, 3, 8, 20, 21, 64):
            form = jc.grid_power_demo(n, lambda t: 1.0)
            assert grid_total_dim(n) == form.domain.total_dim
        assert grid_total_dim(20) == 50 and grid_total_dim(64) == 160

    def test_layout(self):
        form = jc.grid_power_demo(8, lambda t: 2.0 if t <= 0.5 else 1.0)
        kinds = [f.kind for f in form.domain.factors]
        assert kinds.count("real") == 8 and kinds.count("sym") == 4


class TestFormSerialization:
    def test_roundtrip_with_engaged_part(self):
        form = jc.random_order_iso(MIXED, MIXED, seed=18)
        doc = jc.form_to_dict(form)
        back = jc.form_from_dict(doc)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = jc.random_positive(MIXED, rng)
            np.testing.assert_allclose(
                jc.apply_order_iso(back, x).coords,
                jc.apply_order_iso(form, x).coords,
                atol=1e-12,
            )

    def test_roundtrip_piecewise_linear(self):
        pl = jc.PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 5.0)))
        form = jc.OrderIsoForm(RR, RR, (1, 0), (pl, jc.Power(0.5)), None, None)
        back = jc.form_from_dict(jc.form_to_dict(form))
        x = elem(RR, [1.5, 4.0])
        np.testing.assert_allclose(
            jc.apply_order_iso(back, x).coords,
            jc.apply_order_iso(form, x).coords,
        )

    @pytest.mark.parametrize(
        "sigma", [[[0.9, 0], [1, 1]], [[0, 1], [1, "0"]], [[False, 0], [True, 1]]], ids=repr
    )
    def test_sigma_entries_must_be_integers(self, sigma):
        # int() used to read 0.9 as slot 0 and "0" as slot 0
        doc = jc.form_to_dict(jc.identity_form(RR))
        doc["sigma"] = sigma
        with pytest.raises(ValueError, match=r"^sigma\[[01]\]\[[01]\]: expected a non-negative integer"):
            jc.form_from_dict(doc)

    @pytest.mark.parametrize(
        "bijection, message",
        [
            ({"kind": "power", "alpha": "2.5"}, "expected a number"),
            ({"kind": "power", "alpha": True}, "expected a number"),
            ({"kind": "power", "alpha": 10**400}, "too large for a float"),
            ({"kind": "piecewise_linear", "breakpoints": [[0, 0], ["1", 2]]},
             "expected a number"),
            ({"kind": "piecewise_linear", "breakpoints": [[0, 0], [1, 10**400]]},
             "too large for a float"),
        ],
        ids=["alpha-str", "alpha-bool", "alpha-huge", "knot-str", "knot-huge"],
    )
    def test_bijection_values_must_be_numbers(self, bijection, message):
        doc = jc.form_to_dict(jc.identity_form(RR))
        doc["f_p"][0] = bijection
        with pytest.raises(ValueError, match=message):
            jc.form_from_dict(doc)

    def test_integer_bijection_values_are_numbers(self):
        doc = jc.form_to_dict(jc.identity_form(RR))
        doc["f_p"] = [{"kind": "power", "alpha": 2},
                      {"kind": "piecewise_linear", "breakpoints": [[0, 0], [1, 3]]}]
        form = jc.form_from_dict(doc)
        assert form.f_p[0] == jc.Power(2.0)
        assert form.f_p[1](2.0) == 6.0

    @pytest.mark.parametrize("missing", ["y", "J"])
    @pytest.mark.parametrize("validate", [True, False])
    def test_y_and_j_come_together(self, missing, validate):
        doc = jc.form_to_dict(jc.identity_form(R_S2))
        dropped = {k: v for k, v in doc.items() if k != missing}
        for bad in ({**doc, missing: None}, dropped):
            with pytest.raises(ValueError, match="both 'y' and 'J', or neither"):
                jc.form_from_dict(bad, validate=validate)

    def test_huge_integer_in_y_is_malformed(self):
        doc = jc.form_to_dict(jc.identity_form(R_S2))
        doc["y"] = [1, 0, 10**400]
        for validate in (True, False):
            with pytest.raises(ValueError, match="too large for a float"):
                jc.form_from_dict(doc, validate=validate)

    def test_invalid_document_rejected(self):
        doc = jc.form_to_dict(jc.identity_form(RR))
        doc["sigma"] = [[0, 1], [1, 1]]  # not a bijection
        with pytest.raises(ValueError):
            jc.form_from_dict(doc)
