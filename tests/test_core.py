import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordancone as jc
from jordancone.core import _fresh_element


S2 = jc.direct_sum(jc.sym(2))
S3 = jc.direct_sum(jc.sym(3))
SP2 = jc.direct_sum(jc.spin(2))
MIXED = jc.direct_sum(jc.real(), jc.sym(2), jc.spin(3))


def elem(algebra, coords):
    return jc.Element(algebra, np.asarray(coords, dtype=float))


class TestDescriptors:
    def test_dims(self):
        assert jc.real().dim == 1
        assert jc.spin(4).dim == 5
        assert jc.sym(4).dim == 10
        assert MIXED.total_dim == 1 + 3 + 4
        assert MIXED.offsets == (0, 1, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            jc.spin(1)
        with pytest.raises(ValueError):
            jc.sym(0)
        with pytest.raises(ValueError):
            jc.FactorDescriptor("real", 3)
        with pytest.raises(ValueError):
            jc.AlgebraDescriptor(())

    def test_element_length_checked(self):
        with pytest.raises(ValueError):
            elem(S2, [1.0, 2.0])

    def test_coords_read_only(self):
        x = jc.unit(S2)
        with pytest.raises(ValueError):
            x.coords[0] = 5.0

    def test_public_constructor_copies(self):
        arr = np.array([1.0, 2.0, 3.0])
        x = jc.Element(S2, arr)
        assert arr.flags.writeable and not x.coords.flags.writeable
        assert not np.shares_memory(arr, x.coords)
        arr[0] = 7.0
        assert x.coords[0] == 1.0

    def test_fresh_arrays_are_taken_read_only(self):
        arr = np.array([1.0, 2.0, 3.0])
        x = _fresh_element(S2, arr)
        assert x.coords is arr and not arr.flags.writeable
        y = jc.Element(S2, [4.0, 5.0, 6.0])
        for z in (x + y, x - y, -x, 2.0 * x, x * 2.0):
            assert not z.coords.flags.writeable
            assert not np.shares_memory(z.coords, x.coords)
            assert not np.shares_memory(z.coords, y.coords)


class TestJordanProduct:
    def test_unit_law(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = jc.random_element(S3, rng)
            out = jc.jordan_product(jc.unit(S3), x)
            np.testing.assert_array_equal(out.coords, x.coords)

    def test_spin_product_by_hand(self):
        # (2,(1,0)) o (0,(0,1)) = (2*0 + <(1,0),(0,1)>, 2*(0,1) + 0*(1,0))
        x = elem(SP2, [2.0, 1.0, 0.0])
        y = elem(SP2, [0.0, 0.0, 1.0])
        out = jc.jordan_product(x, y)
        np.testing.assert_allclose(out.coords, [0.0, 0.0, 2.0])

    def test_sym_product_by_hand(self):
        # E11 o E12 = (E11 E12 + E12 E11)/2 = E12/2
        e11 = elem(S2, [1.0, 0.0, 0.0])
        e12 = elem(S2, [0.0, 1.0, 0.0])
        out = jc.jordan_product(e11, e12)
        np.testing.assert_allclose(out.coords, [0.0, 0.5, 0.0])

    def test_commutativity_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = jc.random_element(MIXED, rng)
            y = jc.random_element(MIXED, rng)
            xy = jc.jordan_product(x, y)
            yx = jc.jordan_product(y, x)
            assert np.abs(xy.coords - yx.coords).max() == 0.0

    def test_mismatch_raises(self):
        with pytest.raises(ValueError, match="algebra mismatch"):
            jc.jordan_product(jc.unit(S2), jc.unit(S3))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8),
           st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    def test_jordan_identity(self, xs, ys):
        x, y = elem(MIXED, xs), elem(MIXED, ys)
        x2 = jc.jordan_product(x, x)
        lhs = jc.jordan_product(x, jc.jordan_product(y, x2))
        rhs = jc.jordan_product(jc.jordan_product(x, y), x2)
        scale = 1.0 + np.abs(x.coords).max() ** 2 * (1.0 + np.abs(y.coords).max())
        assert np.abs(lhs.coords - rhs.coords).max() <= 1e-10 * scale


class TestInnerProduct:
    def test_unit_norms(self):
        assert jc.inner_product(jc.unit(S3), jc.unit(S3)) == pytest.approx(3.0)
        sp4 = jc.direct_sum(jc.spin(4))
        assert jc.inner_product(jc.unit(sp4), jc.unit(sp4)) == pytest.approx(2.0)

    def test_off_diagonal_weight(self):
        # E12 reconstructs to [[0,1],[1,0]] whose square has trace 2
        e12 = elem(S2, [0.0, 1.0, 0.0])
        assert jc.inner_product(e12, e12) == pytest.approx(2.0)

    def test_against_dense_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = jc.random_element(MIXED, rng)
            y = jc.random_element(MIXED, rng)
            expected = 0.0
            expected += x.coords[0] * y.coords[0]
            from jordancone.core import sym_to_matrix
            xm = sym_to_matrix(x.coords[1:4], 2)
            ym = sym_to_matrix(y.coords[1:4], 2)
            expected += np.trace(xm @ ym)
            expected += 2.0 * (x.coords[4] * y.coords[4] + x.coords[5:] @ y.coords[5:])
            assert jc.inner_product(x, y) == pytest.approx(expected, rel=1e-12)

    def test_associativity_of_trace_form(self):
        # <x o y, z> = <x, y o z>
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y, z = (jc.random_element(MIXED, rng) for _ in range(3))
            lhs = jc.inner_product(jc.jordan_product(x, y), z)
            rhs = jc.inner_product(x, jc.jordan_product(y, z))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestTripleProduct:
    def test_unit_absorbs(self):
        rng = np.random.default_rng(4)
        y = jc.random_element(MIXED, rng)
        out = jc.triple_product(jc.unit(MIXED), y, jc.unit(MIXED))
        np.testing.assert_allclose(out.coords, y.coords, atol=1e-14)

    def test_collapses_to_square(self):
        rng = np.random.default_rng(5)
        x = jc.random_element(MIXED, rng)
        out = jc.triple_product(x, jc.unit(MIXED), x)
        np.testing.assert_allclose(
            out.coords, jc.jordan_product(x, x).coords, atol=1e-13
        )

    def test_projection_fixes_unit_image(self):
        # {p, e, p} = p for the projection p = E11
        p = elem(S2, [1.0, 0.0, 0.0])
        out = jc.triple_product(p, jc.unit(S2), p)
        np.testing.assert_allclose(out.coords, p.coords, atol=1e-15)


class TestQuadraticRep:
    def test_unit_gives_identity(self):
        u = jc.quadratic_rep(jc.unit(MIXED))
        np.testing.assert_array_equal(u.matrix, np.eye(MIXED.total_dim))

    def test_rank_one_projection_matrix(self):
        p = elem(S2, [1.0, 0.0, 0.0])
        u = jc.quadratic_rep(p)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(u.matrix, expected, atol=1e-15)

    def test_spin_unit_image_is_square(self):
        x = elem(SP2, [0.0, 1.0, 0.0])
        out = jc.op_apply(jc.quadratic_rep(x), jc.unit(SP2))
        np.testing.assert_allclose(out.coords, [1.0, 0.0, 0.0], atol=1e-15)

    def test_matches_triple_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = jc.random_element(MIXED, rng)
            y = jc.random_element(MIXED, rng)
            via_matrix = jc.op_apply(jc.quadratic_rep(x), y)
            direct = jc.triple_product(x, y, x)
            assert np.abs(via_matrix.coords - direct.coords).max() <= 1e-12 * (
                1.0 + np.abs(direct.coords).max()
            )

    def test_fundamental_identity(self):
        # U_{U_x y} = U_x U_y U_x
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = jc.random_element(MIXED, rng)
            y = jc.random_element(MIXED, rng)
            ux = jc.quadratic_rep(x).matrix
            uy = jc.quadratic_rep(y).matrix
            uxy = jc.quadratic_rep(jc.op_apply(jc.quadratic_rep(x), y)).matrix
            scale = (1.0 + np.abs(x.coords).max() ** 2) ** 2 * (
                1.0 + np.abs(y.coords).max()
            ) ** 2
            assert np.abs(uxy - ux @ uy @ ux).max() <= 1e-8 * scale


class TestOperators:
    def test_apply_identity(self):
        x = jc.random_element(MIXED, 8)
        out = jc.op_apply(jc.identity_operator(MIXED), x)
        np.testing.assert_array_equal(out.coords, x.coords)

    def test_invert_scaling(self):
        t = jc.LinearOperator(S2, S2, 2.0 * np.eye(3))
        inv = jc.op_invert(t)
        np.testing.assert_allclose(inv.matrix, 0.5 * np.eye(3))

    def test_invert_singular(self):
        t = jc.LinearOperator(S2, S2, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="singular operator"):
            jc.op_invert(t)

    def test_compose_with_inverse(self):
        x = jc.random_element(MIXED, 9)
        while np.abs(jc.spectrum(x)).min() < 0.1:
            x = jc.random_element(MIXED, 10)
        ux = jc.quadratic_rep(x)
        prod = jc.op_compose(ux, jc.op_invert(ux))
        np.testing.assert_allclose(prod.matrix, np.eye(MIXED.total_dim), atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            jc.LinearOperator(S2, S2, np.eye(4))
        with pytest.raises(ValueError, match="algebra mismatch"):
            jc.op_apply(jc.identity_operator(S2), jc.unit(S3))


class TestSerialization:
    def test_algebra_roundtrip(self):
        from jordancone.core import algebra_from_dict, algebra_to_dict

        assert algebra_from_dict(algebra_to_dict(MIXED)) == MIXED

    def test_element_roundtrip(self):
        from jordancone.core import element_from_list, element_to_list

        x = jc.random_element(MIXED, 11)
        back = element_from_list(MIXED, element_to_list(x))
        np.testing.assert_array_equal(back.coords, x.coords)

    def test_operator_roundtrip(self):
        from jordancone.core import operator_from_dict, operator_to_dict

        op = jc.quadratic_rep(jc.random_element(MIXED, 12))
        back = operator_from_dict(MIXED, MIXED, operator_to_dict(op))
        np.testing.assert_array_equal(back.matrix, op.matrix)

    def test_bad_documents_raise(self):
        from jordancone.core import algebra_from_dict, operator_from_dict

        with pytest.raises(ValueError):
            algebra_from_dict({"factor": []})
        with pytest.raises(ValueError):
            operator_from_dict(S2, S2, {"rows": 3, "cols": 3, "data": [1.0]})

    @pytest.mark.parametrize("factors", [["real"], [5], "real", {"kind": "real"}], ids=str)
    def test_factors_must_be_a_list_of_objects(self, factors):
        from jordancone.core import algebra_from_dict

        with pytest.raises(ValueError, match=r"^factors(\[0\])?: expected an? (list|object)"):
            algebra_from_dict({"factors": factors})

    def test_coordinates_must_be_flat(self):
        from jordancone.core import element_from_list, operator_from_dict

        with pytest.raises(ValueError, match="flat list of numbers, got list values"):
            element_from_list(jc.direct_sum(jc.real(), jc.sym(2)), [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="expected a list, got 1.0"):
            element_from_list(jc.direct_sum(jc.real()), 1.0)
        with pytest.raises(ValueError, match="data: expected a flat list of numbers"):
            operator_from_dict(S2, S2, {"rows": 3, "cols": 3, "data": np.eye(3).tolist()})

    @pytest.mark.parametrize(
        "data, message",
        [
            (["1.5", "2"], "got str values"),
            ([True, False], "got bool values"),
            ([1.0, "2"], "got str values"),
            ([None, 1.0], "got NoneType values"),
            ([1, 2.5], None),
        ],
        ids=repr,
    )
    def test_coordinates_must_be_json_numbers(self, data, message):
        from jordancone.core import element_from_list, operator_from_dict

        rr = jc.direct_sum(jc.real(), jc.real())
        doc = {"rows": 1, "cols": 2, "data": data}
        r = jc.direct_sum(jc.real())
        if message is None:  # ints and floats are numbers
            assert element_from_list(rr, data).coords.tolist() == [1.0, 2.5]
            assert operator_from_dict(rr, r, doc).matrix.tolist() == [[1.0, 2.5]]
            return
        with pytest.raises(ValueError, match=message):
            element_from_list(rr, data)
        with pytest.raises(ValueError, match=message):
            operator_from_dict(rr, r, doc)

    def test_integer_past_float_range_is_malformed(self):
        from jordancone.core import element_from_list, operator_from_dict

        rr = jc.direct_sum(jc.real(), jc.real())
        with pytest.raises(ValueError, match="too large for a float"):
            element_from_list(rr, [1.0, 10**400])
        with pytest.raises(ValueError, match="too large for a float"):
            operator_from_dict(rr, rr, {"rows": 2, "cols": 2, "data": [10**400, 0, 0, 1]})

    @pytest.mark.parametrize("rows", [3.0, 3.5, True, "3", None], ids=repr)
    def test_operator_shape_must_be_integers(self, rows):
        from jordancone.core import operator_from_dict

        doc = {"rows": rows, "cols": 3, "data": np.eye(3).ravel().tolist()}
        with pytest.raises(ValueError, match="rows: expected a non-negative integer"):
            operator_from_dict(S2, S2, doc)
        with pytest.raises(ValueError, match="cols: expected a non-negative integer"):
            operator_from_dict(S2, S2, {**doc, "rows": 3, "cols": rows})
