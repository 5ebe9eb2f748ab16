import numpy as np
import pytest

import jordancone as jc
from jordancone.spectral import trace


S2 = jc.direct_sum(jc.sym(2))
RR = jc.direct_sum(jc.real(), jc.real())
R_S2 = jc.direct_sum(jc.real(), jc.sym(2))
MIXED_V = jc.direct_sum(jc.real(), jc.spin(2), jc.sym(2))


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


def _forms():
    """Forms covering both bijection kinds, permuted sigma and both split shapes."""
    a = jc.direct_sum(jc.real(), jc.spin(3), jc.real(), jc.sym(2))
    b = jc.direct_sum(jc.sym(2), jc.real(), jc.spin(3), jc.real())
    engaged = jc.direct_sum(jc.sym(3), jc.spin(4))
    r3 = jc.direct_sum(jc.real(), jc.real(), jc.real())
    dec = jc.decompose_engaged_disengaged(R_S2)
    tampered = jc.LinearOperator(
        dec.engaged_subalgebra, dec.engaged_subalgebra,
        np.eye(3) + 0.4 * np.eye(3, k=1),
    )
    return {
        "powers-permuted": jc.random_order_iso(a, b, seed=3),
        "piecewise-linear": jc.OrderIsoForm(
            r3, r3, (2, 0, 1),
            (
                jc.Power(2.0),
                jc.PiecewiseLinear(((0, 0), (1, 2), (3, 4))),
                jc.PiecewiseLinear(((0, 0), (2, 1))),
            ),
            None, None,
        ),
        "engaged-only": jc.random_order_iso(engaged, engaged, seed=4),
        "linear-mixed": jc.random_order_iso(a, a, seed=5, allow_nonlinear=False),
        "grid": jc.grid_power_demo(6, lambda t: 1.7 if t <= 0.5 else 1.0),
        # not order preserving: the order check has failures to compare too
        "tampered": jc.OrderIsoForm(
            R_S2, R_S2, (0,), (jc.Power(1.0),),
            jc.unit(dec.engaged_subalgebra), tampered, validate=False,
        ),
    }


FORMS = _forms()


class TestFormPath:
    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("check", [jc.check_order_preserving, jc.check_linearity_blackbox])
    def test_form_and_callable_reports_agree(self, name, check):
        form = FORMS[name]
        by_form = check(form, form.domain, trials=120, seed=7)
        by_call = check(lambda z: jc.apply_order_iso(form, z), form.domain, trials=120, seed=7)
        assert by_form.to_dict() == by_call.to_dict()
        assert [f.predicate for f in by_form.failures] == [
            f.predicate for f in by_call.failures
        ]

    def test_failures_exist_where_expected(self):
        tampered, grid = FORMS["tampered"], FORMS["grid"]
        assert not jc.check_order_preserving(tampered, R_S2, trials=120, seed=7).passed
        rep = jc.check_linearity_blackbox(grid, grid.domain, trials=120, seed=7)
        assert {f.predicate.split(" ")[0] for f in rep.failures} == {"additive", "homogeneous"}

    def test_samples_and_call_order(self):
        # one f call per row: z then x for each trial, the same stream as
        # drawing random_element v then w trial by trial
        seen = []
        jc.check_order_preserving(lambda z: seen.append(z.coords) or z, MIXED_V, trials=5, seed=3)
        rng = np.random.default_rng(3)
        want = []
        for _ in range(5):
            v, w = jc.random_element(MIXED_V, rng), jc.random_element(MIXED_V, rng)
            x = jc.jordan_product(v, v)
            want += [(x + jc.jordan_product(w, w)).coords, x.coords]
        assert np.array_equal(np.array(seen), np.array(want))

    def test_linearity_calls_f_once_per_row(self):
        calls = []
        jc.check_linearity_blackbox(lambda z: calls.append(1) or z, MIXED_V, trials=7, seed=0)
        assert len(calls) == 7 * 6  # x + z, x, z and three multiples of x

    def test_callable_gets_read_only_row_views(self):
        # rows reach f uncopied, as views that neither f nor the sampler writes
        seen = []
        jc.check_linearity_blackbox(lambda z: seen.append(z) or z, MIXED_V, trials=4, seed=1)
        assert len(seen) == 4 * 6
        assert all(z.coords.base is not None and not z.coords.flags.writeable for z in seen)
        assert len({id(z.coords.base) for z in seen}) == 6  # one array per input

    def test_failure_order_is_trial_by_trial(self):
        grid = FORMS["grid"]
        rep = jc.check_linearity_blackbox(grid, grid.domain, trials=30, seed=2)
        per_trial = ["additive"] + [f"homogeneous (a={a:g})" for a in (0.5, 2.0, 3.0)]
        assert [f.predicate for f in rep.failures] == per_trial * 30
        for k in range(30):
            group = rep.failures[4 * k:4 * k + 4]
            assert all(f.inputs[0] is group[0].inputs[0] for f in group)

    def test_report_shares_one_list_per_input(self):
        grid = FORMS["grid"]
        by_form = jc.check_linearity_blackbox(grid, grid.domain, trials=30, seed=2)
        by_call = jc.check_linearity_blackbox(
            lambda z: jc.apply_order_iso(grid, z), grid.domain, trials=30, seed=2
        )
        for rep in (by_form, by_call):
            failures = rep.to_dict()["failures"]
            assert len(failures) == 4 * 30
            for k in range(30):
                group = failures[4 * k:4 * k + 4]
                x = group[0]["inputs"][0]
                assert all(f["inputs"][0] is x for f in group)
                assert x == rep.failures[4 * k].inputs[0].coords.tolist()
                assert group[0]["inputs"][1] is not x  # z of the additive check
            assert failures[0]["inputs"][0] is not failures[4]["inputs"][0]

    def test_zero_trials_and_negative_trials(self):
        form = FORMS["powers-permuted"]
        for check in (jc.check_order_preserving, jc.check_linearity_blackbox):
            rep = check(form, form.domain, trials=0, seed=0)
            assert rep.trials == 0 and rep.passed and rep.max_violation == 0.0
            with pytest.raises(ValueError, match="non-negative"):
                check(form, form.domain, trials=-1, seed=0)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="algebra mismatch"):
            jc.check_order_preserving(FORMS["grid"], S2, trials=3, seed=0)

