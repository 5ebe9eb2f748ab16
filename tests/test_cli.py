import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordancone as jc
from jordancone import cli
from jordancone.selftest import CriterionResult


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
        return str(p)

    write("alg.json", {"factors": [{"kind": "real"}, {"kind": "real"},
                                   {"kind": "sym", "n": 3}]})
    write("elt.json", [1.0, 2.0, 5.0, 0.0, 0.0, -1.0, 0.0, 0.0])
    write("idmap.json", {"rows": 8, "cols": 8, "data": np.eye(8).ravel().tolist()})
    write("negmap.json", {"rows": 8, "cols": 8, "data": (-np.eye(8)).ravel().tolist()})

    rr_s2 = jc.direct_sum(jc.real(), jc.real(), jc.sym(2))
    dec = jc.decompose_engaged_disengaged(rr_s2)
    form = jc.OrderIsoForm(
        rr_s2, rr_s2, (1, 0), (jc.Power(2.0), jc.Power(0.5)),
        jc.unit(dec.engaged_subalgebra),
        jc.identity_operator(dec.engaged_subalgebra),
    )
    write("form.json", jc.form_to_dict(form))

    bad = jc.form_to_dict(form)
    j = np.array(bad["J"]["data"]).reshape(3, 3)
    bad["J"]["data"] = (j + 0.4 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])).ravel().tolist()
    write("tampered_form.json", bad)

    nan = jc.form_to_dict(jc.identity_form(jc.direct_sum(jc.real(), jc.sym(2))))
    nan["y"] = [float("nan")] * 3
    write("nan_form.json", nan)

    (tmp_path / "broken.json").write_text("{not json")
    paths["broken.json"] = str(tmp_path / "broken.json")
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_text_report(self, files, capsys):
        code, out, _ = run(capsys, ["analyze", "--algebra", files["alg.json"]])
        assert code == 0
        assert "disengaged atoms: 2" in out
        assert "sym(3)" in out

    def test_structured_report(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["analyze", "--algebra", files["alg.json"], "--format", "structured"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["disengaged"]["count"] == 2
        assert doc["disengaged"]["coordinates"] == [0, 1]
        assert doc["center_dimension"] == 3
        assert doc["engaged_factors"] == [{"kind": "sym", "n": 3}]

    def test_large_simple_algebra(self, tmp_path, capsys):
        # sym(16), d = 136: read off the descriptor, no d^4 commutator system
        p = tmp_path / "sym16.json"
        p.write_text(json.dumps({"factors": [{"kind": "sym", "n": 16}]}))
        code, out, _ = run(
            capsys, ["analyze", "--algebra", str(p), "--format", "structured"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["center_dimension"] == 1
        assert doc["disengaged"]["count"] == 0
        assert doc["disengaged"]["coordinates"] == []

    def test_seed_is_echoed_but_unused(self, files, capsys):
        def report(seed):
            _, out, _ = run(capsys, ["analyze", "--algebra", files["alg.json"],
                                     "--seed", seed, "--format", "structured"])
            return json.loads(out)

        a, b = report("1"), report("2")
        assert (a.pop("seed"), b.pop("seed")) == (1, 2)
        assert a == b

    def test_deterministic_output(self, files, capsys):
        argv = ["analyze", "--algebra", files["alg.json"], "--seed", "5",
                "--format", "structured"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_report_reparses(self, files, capsys):
        argv = ["analyze", "--algebra", files["alg.json"], "--format", "structured"]
        _, out, _ = run(capsys, argv)
        doc = json.loads(out)
        again = json.loads(json.dumps(doc, indent=2, sort_keys=True))
        assert again == doc


class TestSpectrum:
    def test_eigenvalues(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["spectrum", "--algebra", files["alg.json"],
             "--element", files["elt.json"], "--format", "structured"],
        )
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["eigenvalues"], [5.0, 2.0, 1.0, 0.0, -1.0])
        total = np.sum([np.array(p) for p in doc["idempotents"]], axis=0)
        np.testing.assert_allclose(total, [1, 1, 1, 0, 0, 1, 0, 1], atol=1e-12)


class TestFactorize:
    def test_identity(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["factorize", "--algebra", files["alg.json"],
             "--map", files["idmap.json"], "--format", "structured"],
        )
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["y"], [1, 1, 1, 0, 0, 1, 0, 1], atol=1e-12)
        np.testing.assert_allclose(
            np.array(doc["J"]["data"]).reshape(8, 8), np.eye(8), atol=1e-12
        )

    def test_precondition_failure_exits_2(self, files, capsys):
        code, _, err = run(
            capsys,
            ["factorize", "--algebra", files["alg.json"], "--map", files["negmap.json"]],
        )
        assert code == 2
        assert "Te not in interior of cone" in err


class TestBadInput:
    def test_broken_json_exits_1(self, files, capsys):
        code, _, err = run(capsys, ["analyze", "--algebra", files["broken.json"]])
        assert code == 1
        assert "malformed input" in err

    def test_missing_file_exits_1(self, files, capsys):
        code, _, err = run(capsys, ["analyze", "--algebra", "/nonexistent.json"])
        assert code == 1

    def test_wrong_coordinate_count_exits_1(self, files, capsys):
        code, _, err = run(
            capsys,
            ["spectrum", "--algebra", files["alg.json"], "--element", files["idmap.json"]],
        )
        assert code == 1

    def test_invalid_factor_exits_1(self, files, tmp_path, capsys):
        p = tmp_path / "bad_alg.json"
        p.write_text(json.dumps({"factors": [{"kind": "spin", "n": 1}]}))
        code, _, err = run(capsys, ["analyze", "--algebra", str(p)])
        assert code == 1
        assert "spin factor requires n >= 2" in err


    def test_non_integer_factor_size_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad_alg.json"
        p.write_text(json.dumps({"factors": [{"kind": "sym", "n": 2.7}]}))
        code, _, err = run(capsys, ["analyze", "--algebra", str(p)])
        assert code == 1
        assert "must be an integer" in err

    def test_dimension_cap_exits_1_before_allocating(self, tmp_path, capsys):
        # sym(10^6) would need 5e11 coordinates; the cap is read off the sizes
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"factors": [{"kind": "sym", "n": 1000000}]}))
        code, out, err = run(capsys, ["analyze", "--algebra", str(p)])
        assert code == 1 and out == ""
        assert "exceeds MAX_TOTAL_DIM" in err

    def test_grid_dimension_cap_exits_1(self, capsys):
        code, out, err = run(capsys, ["demo-nonlinear", "--n-grid", "1000000"])
        assert code == 1 and out == ""
        assert "exceeds MAX_TOTAL_DIM" in err

    @pytest.mark.parametrize("verb", ["verify-oiso", "demo-nonlinear"])
    def test_negative_trials_exit_1(self, files, capsys, verb):
        argv = [verb, "--trials", "-5"]
        if verb == "verify-oiso":
            argv += ["--form", files["form.json"]]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "--trials must be non-negative" in err

    def test_non_finite_element_exits_1(self, tmp_path, capsys):
        alg = tmp_path / "alg.json"
        alg.write_text(json.dumps({"factors": [{"kind": "real"}, {"kind": "sym", "n": 2}]}))
        elt = tmp_path / "elt.json"
        elt.write_text(json.dumps([float("inf"), 0.0, 0.0, 1.0]))
        code, out, err = run(
            capsys, ["spectrum", "--algebra", str(alg), "--element", str(elt)]
        )
        assert code == 1 and out == ""
        assert "non-finite" in err

    def test_non_finite_operator_exits_1(self, files, tmp_path, capsys):
        m = np.eye(8)
        m[2, 3] = float("nan")
        p = tmp_path / "nanmap.json"
        p.write_text(json.dumps({"rows": 8, "cols": 8, "data": m.ravel().tolist()}))
        code, out, err = run(
            capsys, ["factorize", "--algebra", files["alg.json"], "--map", str(p)]
        )
        assert code == 1 and out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize(
        "bijection, message",
        [
            ({"kind": "power", "alpha": float("inf")}, "requires a finite alpha"),
            ({"kind": "piecewise_linear", "breakpoints": [[0, 0], [1, float("nan")], [2, 3]]},
             "breakpoints must be finite"),
            ({"kind": "piecewise_linear", "breakpoints": [[0, 0], [1, 1], [float("inf")] * 2]},
             "breakpoints must be finite"),
        ],
        ids=["power-inf", "pwl-nan-knot", "pwl-inf-knot"],
    )
    def test_non_finite_bijection_exits_1(self, files, tmp_path, capsys, bijection, message):
        # NaN and inf pass the alpha > 0 and increasing-knot checks; such a
        # form used to be sampled, exiting 3 with RuntimeWarnings on stderr
        with open(files["form.json"]) as fh:
            form = json.load(fh)
        form["f_p"][0] = bijection
        p = tmp_path / "inf_form.json"
        p.write_text(json.dumps(form))
        code, out, err = run(capsys, ["verify-oiso", "--form", str(p), "--trials", "20"])
        assert code == 1 and out == ""
        assert "malformed input" in err and message in err


class TestVerifyOiso:
    def test_honest_nonlinear_form_passes(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["verify-oiso", "--form", files["form.json"], "--trials", "300",
             "--format", "structured"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["order_preservation"]["failures"] == []
        assert doc["linearity"]["claimed_linear"] is False
        assert doc["violations_found"] is False

    def test_zero_trials_clean_empty_report(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["verify-oiso", "--form", files["form.json"], "--trials", "0",
             "--format", "structured"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["order_preservation"] == {
            "trials": 0, "tolerance": 1e-9, "max_violation": 0.0, "failures": [],
        }

    def test_nan_form_flagged(self, files, capsys):
        code, out, _ = run(
            capsys, ["verify-oiso", "--form", files["nan_form.json"], "--trials", "50"]
        )
        assert code == 3
        assert "order preservation: VIOLATED" in out

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_nan_y_counts_as_infinite(self, tmp_path, capsys, n):
        # LAPACK raises on a NaN sym(3) block; the sampling must still report inf
        form = jc.form_to_dict(
            jc.identity_form(jc.direct_sum(jc.real(), jc.real(), jc.sym(n)))
        )
        form["y"] = [float("nan")] * (n * (n + 1) // 2)
        path = tmp_path / "nan_form.json"
        path.write_text(json.dumps(form))
        code, out, err = run(
            capsys,
            ["verify-oiso", "--form", str(path), "--trials", "20", "--format", "structured"],
        )
        assert (code, err) == (3, "")
        assert json.loads(out)["order_preservation"]["max_violation"] == float("inf")
        assert '"max_violation": Infinity' in out

    def test_tampered_form_flagged(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["verify-oiso", "--form", files["tampered_form.json"], "--trials", "300",
             "--format", "structured"],
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["violations_found"] is True
        assert doc["order_preservation"]["failures"]


class TestDemoNonlinear:
    def test_prints_witness(self, files, capsys):
        code, out, _ = run(
            capsys, ["demo-nonlinear", "--n-grid", "8", "--power", "2",
                     "--trials", "300"],
        )
        assert code == 0
        assert "witness" in out
        assert "order preservation: ok" in out

    def test_structured_witness(self, files, capsys):
        code, out, _ = run(
            capsys,
            ["demo-nonlinear", "--n-grid", "4", "--power", "2", "--trials", "200",
             "--format", "structured"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["linear"] is False
        assert doc["witness"]["magnitude"] > 1e-3
        assert doc["order_preservation"]["failures"] == []

    def test_invalid_power_exits_2(self, files, capsys):
        code, _, err = run(capsys, ["demo-nonlinear", "--power", "-1"])
        assert code == 2
        assert "strictly positive" in err

    def test_infinite_power_exits_2(self, files, capsys):
        # it used to run, with RuntimeWarnings from the inf - inf defects
        code, out, err = run(capsys, ["demo-nonlinear", "--n-grid", "3", "--power", "inf"])
        assert code == 2 and out == ""
        assert err == "error: power bijection requires a finite alpha\n"


class TestSelftest:
    def test_exit_code_reflects_results(self, files, capsys, monkeypatch):
        ok = [CriterionResult(1, "fake", True, "fine")]
        monkeypatch.setattr(cli, "run_acceptance", lambda: (ok, 0.1))
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "PASS" in out

        bad = [CriterionResult(1, "fake", False, "broken")]
        monkeypatch.setattr(cli, "run_acceptance", lambda: (bad, 0.1))
        code, out, _ = run(capsys, ["selftest", "--format", "structured"])
        assert code == 3
        doc = json.loads(out)
        assert doc["all_passed"] is False


# ---------------------------------------------------------------------------
# the structured writer: json.dumps(indent=2, sort_keys=True), byte for byte

def _reference_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300]
)
_TEXT = st.text() | st.sampled_from(["", "\x00\x1f\x7f\n\t", "\u00e9\u4e2d\u2028", "\"\\/"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
    | st.lists(_FLOATS, min_size=1),
    lambda kids: (
        st.lists(kids, max_size=5)
        | st.lists(kids, max_size=5).map(tuple)
        | st.dictionaries(_TEXT, kids, max_size=5)
    ),
    max_leaves=40,
)


class TestStructuredWriter:
    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_matches_json_dumps(self, doc):
        assert cli._dumps(doc) == _reference_dumps(doc)

    def test_empty_containers(self):
        for doc in ({}, [], (), {"a": [], "b": {}, "c": ()}, [[], {}, [[]]]):
            assert cli._dumps(doc) == _reference_dumps(doc)

    def test_list_shared_at_two_depths(self):
        shared = [0.1, -0.0, float("nan"), float("inf"), 1e300, 5e-324]
        doc = {"a": shared, "b": [shared, {"c": (shared, 1.5)}], "d": shared}
        assert cli._dumps(doc) == _reference_dumps(doc)

    def test_non_string_keys(self):
        doc = {1: "a", 2.5: "b", -3: [1.0]}
        assert cli._dumps(doc) == _reference_dumps(doc)
        assert cli._dumps({None: 0}) == _reference_dumps({None: 0})
        assert cli._dumps({True: 0}) == _reference_dumps({True: 0})

    @pytest.mark.parametrize(
        "doc", [np.int64(3), {"a": [1.0, np.int64(3)]}, {1.0, 2.0}, [{"a": {1, 2}}], {(1,): 0}]
    )
    def test_rejects_what_json_rejects(self, doc):
        with pytest.raises(TypeError):
            _reference_dumps(doc)
        with pytest.raises(TypeError):
            cli._dumps(doc)


# every structured verb; file names stand for the fixture's paths
_CANONICAL = {
    "analyze": ["analyze", "--algebra", "alg.json"],
    "decompose": ["decompose", "--algebra", "alg.json"],
    "factorize": ["factorize", "--algebra", "alg.json", "--map", "idmap.json"],
    "spectrum": ["spectrum", "--algebra", "alg.json", "--element", "elt.json"],
    "verify-oiso": ["verify-oiso", "--form", "form.json", "--trials", "200"],
    "verify-oiso-tampered": ["verify-oiso", "--form", "tampered_form.json", "--trials", "300"],
    "verify-oiso-nan": ["verify-oiso", "--form", "nan_form.json", "--trials", "50"],
    "demo-nonlinear": ["demo-nonlinear", "--n-grid", "4", "--trials", "200"],
    "selftest": ["selftest"],
}


class TestCanonicalOutput:
    @pytest.mark.parametrize("case", sorted(_CANONICAL))
    def test_structured_stdout_is_canonical_json(self, case, files, capsys, monkeypatch):
        fake = [CriterionResult(1, "fake", True, "fine")]
        monkeypatch.setattr(cli, "run_acceptance", lambda: (fake, 0.1))
        argv = [files.get(a, a) for a in _CANONICAL[case]] + ["--format", "structured"]
        _, out, _ = run(capsys, argv)
        assert out == _reference_dumps(json.loads(out)) + "\n"
