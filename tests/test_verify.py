import numpy as np
import pytest

import jordancone as jc
from jordancone.spectral import trace


S2 = jc.direct_sum(jc.sym(2))
RR = jc.direct_sum(jc.real(), jc.real())
R_S2 = jc.direct_sum(jc.real(), jc.sym(2))


def elem(algebra, coords):
    return jc.Element(algebra, np.asarray(coords, dtype=float))


class TestExtremeVectorOracle:
    def test_atom_survives_all_trials(self):
        e11 = elem(S2, [1.0, 0.0, 0.0])
        assert jc.extreme_vector_oracle(e11, trials=10_000, seed=0)

    def test_scaled_unit_is_refuted(self):
        assert not jc.extreme_vector_oracle(0.5 * jc.unit(S2), trials=10_000, seed=0)

    def test_real_factor_unit_is_extreme(self):
        p = elem(R_S2, [1.0, 0.0, 0.0, 0.0])
        assert jc.extreme_vector_oracle(p, trials=2_000, seed=0)

    def test_non_projection_ray_is_refuted(self):
        x = elem(S2, [0.7, 0.0, 0.3])  # distinct eigenvalues, trace one
        assert not jc.extreme_vector_oracle(x, trials=10_000, seed=0)

    def test_spin_atom_is_extreme(self):
        sp = jc.direct_sum(jc.spin(3))
        p = elem(sp, [0.5, 0.5, 0.0, 0.0])
        assert jc.extreme_vector_oracle(p, trials=2_000, seed=1)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="not in cone"):
            jc.extreme_vector_oracle(elem(S2, [1.0, 0.0, -1.0]))
        with pytest.raises(ValueError, match="trace-normalized"):
            jc.extreme_vector_oracle(jc.unit(S2))

    def test_agreement_with_is_atom_small_scale(self):
        for algebra in (S2, R_S2, jc.direct_sum(jc.spin(2))):
            frame = jc.atomic_refinement(
                jc.spectral_decomposition(jc.random_positive(algebra, 3))
            )
            atoms = [a for _, a in frame]
            family = list(atoms) + [jc.unit(algebra)]
            if len(atoms) >= 2:
                family.append(atoms[0] + atoms[1])
            for p in family:
                q = (1.0 / trace(p)) * p
                assert jc.extreme_vector_oracle(q, trials=2_000, seed=0) == jc.is_atom(p)


class TestOrderPreserving:
    def test_identity_clean(self):
        rep = jc.check_order_preserving(lambda x: x, S2, trials=300, seed=0)
        assert rep.passed and rep.max_violation == 0.0

    def test_matrix_squaring_flagged(self):
        # squaring is not monotone on the PSD cone in dimension > 1
        rep = jc.check_order_preserving(
            lambda x: jc.jordan_product(x, x), S2, trials=300, seed=0
        )
        assert not rep.passed
        assert rep.max_violation > 1e-3

    def test_coordinate_squaring_clean_on_reals(self):
        form = jc.OrderIsoForm(RR, RR, (0, 1), (jc.Power(2.0),) * 2, None, None)
        rep = jc.check_order_preserving(
            lambda x: jc.apply_order_iso(form, x), RR, trials=300, seed=0
        )
        assert rep.passed

    def test_nan_images_fail(self):
        rep = jc.check_order_preserving(
            lambda x: jc.Element(R_S2, np.full(4, np.nan)), R_S2, trials=20, seed=0
        )
        assert not rep.passed
        assert len(rep.failures) == 20 and rep.max_violation == np.inf

    def test_report_invariant(self):
        rep = jc.check_order_preserving(
            lambda x: jc.jordan_product(x, x), S2, trials=100, seed=1
        )
        assert (len(rep.failures) == 0) == (rep.max_violation <= rep.tolerance)
        for f in rep.failures:
            assert f.magnitude > rep.tolerance


class TestLinearityBlackbox:
    def test_quadratic_rep_is_linear(self):
        u = jc.quadratic_rep(jc.random_interior(S2, 2))
        rep = jc.check_linearity_blackbox(
            lambda x: jc.op_apply(u, x), S2, trials=200, seed=0
        )
        assert rep.passed

    def test_nan_images_fail(self):
        rep = jc.check_linearity_blackbox(
            lambda x: jc.Element(R_S2, np.full(4, np.nan)), R_S2, trials=10, seed=0
        )
        assert not rep.passed
        assert len(rep.failures) == 40 and rep.max_violation == np.inf

    def test_grid_demo_flagged(self):
        form = jc.grid_power_demo(4, lambda t: 2.0 if t <= 0.5 else 1.0)
        rep = jc.check_linearity_blackbox(
            lambda x: jc.apply_order_iso(form, x), form.domain, trials=100, seed=0
        )
        assert not rep.passed
        assert rep.max_violation > 1e-3
        predicates = {f.predicate.split(" ")[0] for f in rep.failures}
        assert "additive" in predicates and "homogeneous" in predicates

    def test_linear_random_form_clean(self):
        form = jc.random_order_iso(R_S2, R_S2, seed=3, allow_nonlinear=False)
        rep = jc.check_linearity_blackbox(
            lambda x: jc.apply_order_iso(form, x), R_S2,
            trials=200, seed=0, tolerance=1e-8,
        )
        assert rep.passed

    def test_report_serialization(self):
        rep = jc.check_order_preserving(
            lambda x: jc.jordan_product(x, x), S2, trials=50, seed=2
        )
        doc = rep.to_dict()
        assert doc["trials"] == 50
        assert len(doc["failures"]) == len(rep.failures)
        if doc["failures"]:
            first = doc["failures"][0]
            assert isinstance(first["inputs"][0], list)
            assert first["magnitude"] > 0
