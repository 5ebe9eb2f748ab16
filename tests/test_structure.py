import numpy as np
import pytest

import jordancone as jc
from jordancone.structure import decompose_engaged_disengaged
from jordancone.tolerances import CENTRAL_TOL, PROJECTION_TOL


S2 = jc.direct_sum(jc.sym(2))
S3 = jc.direct_sum(jc.sym(3))
SP2 = jc.direct_sum(jc.spin(2))
R_S2 = jc.direct_sum(jc.real(), jc.sym(2))
RR_S3 = jc.direct_sum(jc.real(), jc.real(), jc.sym(3))


def elem(algebra, coords):
    return jc.Element(algebra, np.asarray(coords, dtype=float))


class TestPredicates:
    def test_unit_is_projection(self):
        assert jc.is_projection(jc.unit(S2))

    def test_half_unit_is_not(self):
        assert not jc.is_projection(0.5 * jc.unit(S2))

    def test_spin_half_idempotent(self):
        assert jc.is_projection(elem(SP2, [0.5, 0.5, 0.0]))

    def test_atoms(self):
        e11 = elem(S3, [1, 0, 0, 0, 0, 0])
        e11_plus_e22 = elem(S3, [1, 0, 0, 1, 0, 0])
        assert jc.is_atom(e11)
        assert not jc.is_atom(e11_plus_e22)
        assert not jc.is_atom(jc.zero(S3))
        real_unit = elem(R_S2, [1, 0, 0, 0])
        assert jc.is_atom(real_unit)

    def test_centrality(self):
        assert jc.is_central(jc.unit(S2))
        assert not jc.is_central(elem(S2, [1.0, 0.0, 0.0]))
        assert jc.is_central(elem(R_S2, [1, 0, 0, 0]))


MIXED_ALGEBRAS = [
    R_S2,
    RR_S3,
    jc.direct_sum(jc.spin(3), jc.real()),
    jc.direct_sum(jc.sym(1), jc.spin(2), jc.sym(2)),
    jc.direct_sum(jc.sym(3), jc.spin(4)),
    jc.direct_sum(jc.real(), jc.sym(2), jc.spin(2), jc.sym(1)),
]


def commutes_with_all(x, tol=CENTRAL_TOL):
    """The commutator route: [L_x, L_b] = 0 for every basis element b."""
    lx = jc.mult_operator(x).matrix
    scale = tol * (1.0 + jc.order_unit_norm(x))
    for k in range(x.algebra.total_dim):
        lb = jc.mult_operator(jc.basis_element(x.algebra, k)).matrix
        if np.abs(lx @ lb - lb @ lx).max() > scale:
            return False
    return True


def rank_one_projection(p):
    """The U_p route: a projection whose quadratic representation has rank 1."""
    if not jc.is_projection(p):
        return False
    sv = np.linalg.svd(jc.quadratic_rep(p).matrix, compute_uv=False)
    return sv[0] > 0.0 and int(np.count_nonzero(sv > 1e-9 * sv[0])) == 1


class TestPredicatesAgainstOracles:
    """The descriptor predicates against the numerical routes they replace.

    Centrality is compared with the distance to the `center_oracle` span
    and with the commutator route.  The commutator route is more lenient
    for off-center parts between about 1.2 and 6.1 times ``CENTRAL_TOL``;
    outside that band all three agree.
    """

    @pytest.mark.parametrize("algebra", MIXED_ALGEBRAS, ids=str)
    def test_is_central(self, algebra):
        rng = np.random.default_rng(11)
        center = np.array([b.coords for b in jc.center_oracle(algebra)])
        units = np.array([b.coords for b in jc.center_basis(algebra)])

        def near_oracle_span(x):
            off = x.coords - center.T @ (center @ x.coords)
            return np.abs(off).max() <= CENTRAL_TOL * (1.0 + jc.order_unit_norm(x))

        for _ in range(20):
            z = rng.uniform(-1.0, 1.0, size=len(units)) @ units
            # a direction orthogonal to the center, max-abs 1
            u = rng.standard_normal(algebra.total_dim)
            u -= center.T @ (center @ u)
            u /= np.abs(u).max()
            for k in (0.0, 0.1, 1.0, 10.0):
                x = elem(algebra, z + k * CENTRAL_TOL * u)
                got = jc.is_central(x)
                assert got == (k <= 1.0)
                assert got == near_oracle_span(x) == commutes_with_all(x)
            x = jc.random_element(algebra, rng)
            assert not jc.is_central(x) and not near_oracle_span(x)

    @pytest.mark.parametrize("algebra", MIXED_ALGEBRAS, ids=str)
    def test_is_atom(self, algebra):
        rng = np.random.default_rng(12)
        frame = [
            a for _, a in jc.atomic_refinement(
                jc.spectral_decomposition(jc.random_positive(algebra, rng))
            )
        ]
        candidates = [(a, True) for a in frame]
        candidates += [(frame[0] + frame[1], False), (jc.unit(algebra), False)]
        for p, atom in candidates:
            u = rng.standard_normal(algebra.total_dim)
            u /= np.abs(u).max()
            for k in (0.0, 0.1, 1.0, 10.0):
                # along p itself p o p - p has norm k tol (1 + k tol)
                scaled = (1.0 + k * PROJECTION_TOL) * p
                assert jc.is_atom(scaled) == (atom and k <= 1.0)
                assert jc.is_atom(scaled) == rank_one_projection(scaled)
                q = elem(algebra, p.coords + k * PROJECTION_TOL * u)
                assert jc.is_atom(q) == rank_one_projection(q)
                if k <= 0.1:
                    assert jc.is_atom(q) == atom

    def test_structure_runs_without_svd(self, monkeypatch):
        algebra = jc.direct_sum(jc.real(), jc.sym(16), jc.sym(1))

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        decompose_engaged_disengaged.cache_clear()
        dec = decompose_engaged_disengaged(algebra)
        assert [row.argmax() for _, row in jc.codim1_ideals(algebra)] == [0, 137]
        assert all(jc.is_atom(a) and jc.is_central(a) for a in dec.disengaged_atoms)
        assert jc.is_central(dec.p_E) and not jc.is_atom(dec.p_E)
        assert not jc.is_central(jc.random_element(algebra, 0))


class TestCenter:
    @pytest.mark.parametrize(
        "algebra,dim",
        [
            (S3, 1),
            (jc.direct_sum(jc.real(), jc.real()), 2),
            (R_S2, 2),
            (jc.direct_sum(jc.spin(3)), 1),
            (RR_S3, 3),
        ],
    )
    def test_center_dimension(self, algebra, dim):
        basis = jc.center_basis(algebra)
        assert len(basis) == dim
        for b in basis:
            assert jc.is_central(b)
        # the descriptor's factor units span the oracle's numerical center
        oracle = np.array([b.coords for b in jc.center_oracle(algebra)])
        units = np.array([b.coords for b in basis])
        assert len(oracle) == dim
        assert np.linalg.matrix_rank(np.vstack([oracle, units]), tol=1e-8) == dim

    def test_minimal_central_idempotents_simple(self):
        for algebra in (S3, jc.direct_sum(jc.spin(3))):
            idems = jc.central_idempotents_oracle(algebra)
            assert len(idems) == 1
            np.testing.assert_allclose(
                idems[0].coords, jc.unit(algebra).coords, atol=1e-9
            )

    def test_minimal_central_idempotents_mixed(self):
        algebra = jc.direct_sum(jc.real(), jc.real(), jc.sym(2))
        idems = jc.central_idempotents_oracle(algebra, seed=3)
        assert len(idems) == 3
        expected = [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 1],
        ]
        for got, want in zip(idems, expected):
            np.testing.assert_allclose(got.coords, want, atol=1e-9)

    def test_deterministic_given_seed(self):
        a = jc.central_idempotents_oracle(RR_S3, seed=5)
        b = jc.central_idempotents_oracle(RR_S3, seed=5)
        for p, q in zip(a, b):
            np.testing.assert_array_equal(p.coords, q.coords)


class TestDescriptorRouteAgainstOracle:
    """The descriptor route against the commutator-nullspace oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_disengaged_slots_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pool = [jc.real(), jc.sym(1), jc.sym(2), jc.sym(3), jc.spin(2), jc.spin(3)]
        factors = [pool[int(i)] for i in rng.integers(0, len(pool), size=4)]
        algebra = jc.direct_sum(*factors)
        dec = decompose_engaged_disengaged(algebra)
        idems = jc.central_idempotents_oracle(algebra, seed=seed)
        assert len(idems) == len(jc.center_basis(algebra))
        atoms = [c for c in idems if jc.is_atom(c)]
        assert len(atoms) == len(dec.disengaged_atoms)
        for got, want in zip(dec.disengaged_atoms, atoms):
            np.testing.assert_allclose(got.coords, want.coords, atol=1e-9)

    def test_oracle_rejects_large_algebras_before_allocating(self):
        # sym(16) has d = 136: its commutator system would take 8 d^4 B = 2.7 GB
        big = jc.direct_sum(jc.sym(16))
        assert big.total_dim > jc.verify.ORACLE_MAX_DIM
        with pytest.raises(ValueError, match="center oracle needs total_dim"):
            jc.center_oracle(big)
        with pytest.raises(ValueError, match="center oracle needs total_dim"):
            jc.central_idempotents_oracle(big)

    def test_large_algebra_reads_off_the_descriptor(self):
        algebra = jc.direct_sum(jc.real(), jc.sym(16), jc.sym(1))
        dec = decompose_engaged_disengaged(algebra)
        assert dec.disengaged_coordinates == (0, 137)
        assert dec.engaged_subalgebra == jc.direct_sum(jc.sym(16))
        assert len(jc.center_basis(algebra)) == 3
        np.testing.assert_array_equal(dec.engaged_slots, np.arange(1, 137))


class TestDecomposition:
    def test_mixed_algebra(self):
        dec = decompose_engaged_disengaged(RR_S3)
        assert dec.disengaged_coordinates == (0, 1)
        np.testing.assert_allclose(dec.p_D.coords[:2], [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(dec.p_D.coords[2:], 0.0, atol=1e-10)
        assert dec.engaged_subalgebra == S3
        assert jc.is_central(dec.p_D)
        assert jc.is_projection(dec.p_D)

    def test_engaged_only(self):
        dec = decompose_engaged_disengaged(jc.direct_sum(jc.sym(4)))
        assert dec.disengaged_atoms == ()
        np.testing.assert_allclose(dec.p_D.coords, 0.0)
        assert dec.engaged_subalgebra == jc.direct_sum(jc.sym(4))

    def test_fully_disengaged(self):
        dec = decompose_engaged_disengaged(jc.direct_sum(jc.real()))
        assert dec.engaged_subalgebra is None
        np.testing.assert_allclose(dec.p_D.coords, [1.0])

    def test_sym1_counts_as_disengaged(self):
        dec = decompose_engaged_disengaged(jc.direct_sum(jc.sym(1), jc.spin(2)))
        assert dec.disengaged_coordinates == (0,)

    def test_split_and_embed_reconstruct(self):
        rng = np.random.default_rng(0)
        dec = decompose_engaged_disengaged(RR_S3)
        for _ in range(20):
            x = jc.random_element(RR_S3, rng)
            xd, xe = dec.split(x)
            rebuilt = dec.embed_engaged(xe).coords.copy()
            for val, slot in zip(xd, dec.disengaged_coordinates):
                rebuilt[slot] += val
            np.testing.assert_allclose(rebuilt, x.coords, atol=1e-12)

    def test_quadratic_reps_of_parts_reconstruct(self):
        # x = U_{p_D} x + U_{p_E} x
        rng = np.random.default_rng(1)
        for algebra in (RR_S3, R_S2, jc.direct_sum(jc.real(), jc.spin(3))):
            dec = decompose_engaged_disengaged(algebra)
            ud = jc.quadratic_rep(dec.p_D).matrix
            ue = jc.quadratic_rep(dec.p_E).matrix
            for _ in range(10):
                x = jc.random_element(algebra, rng)
                np.testing.assert_allclose(
                    ud @ x.coords + ue @ x.coords, x.coords, atol=1e-9
                )

    def test_disengaged_summands_annihilate_each_other(self):
        dec = decompose_engaged_disengaged(RR_S3)
        p, q = dec.disengaged_atoms
        prod = jc.quadratic_rep(p).matrix @ jc.quadratic_rep(q).matrix
        assert np.abs(prod).max() <= 1e-10

    def test_atom_membership_against_p_D(self):
        # every atom of a frame is dominated by p_D or orthogonal to it
        rng = np.random.default_rng(2)
        for algebra in (RR_S3, R_S2):
            dec = decompose_engaged_disengaged(algebra)
            ud = jc.quadratic_rep(dec.p_D).matrix
            for _ in range(10):
                x = jc.random_positive(algebra, rng)
                for _, a in jc.atomic_refinement(jc.spectral_decomposition(x)):
                    dominated = np.abs(ud @ a.coords - a.coords).max() <= 1e-9
                    orthogonal = (
                        jc.order_unit_norm(jc.jordan_product(a, dec.p_D)) <= 1e-9
                    )
                    assert dominated or orthogonal


class TestCentralAtomsAreOrthogonalToAllOthers:
    """Central atoms, and only they, are orthogonal to every other atom."""

    @pytest.mark.parametrize(
        "algebra",
        [
            R_S2,
            RR_S3,
            jc.direct_sum(jc.real(), jc.spin(2), jc.sym(2)),
            jc.direct_sum(jc.sym(2), jc.sym(2)),
        ],
    )
    def test_equivalence_on_sampled_atoms(self, algebra):
        rng = np.random.default_rng(3)
        frames = [
            jc.atomic_refinement(
                jc.spectral_decomposition(jc.random_positive(algebra, rng))
            )
            for _ in range(10)
        ]
        candidates = [a for frame in frames[:2] for _, a in frame]
        for a in candidates:
            max_overlap = 0.0
            for frame in frames:
                for _, q in frame:
                    if np.abs(q.coords - a.coords).max() < 0.1:
                        continue  # same atom reappearing in another frame
                    overlap = jc.order_unit_norm(jc.jordan_product(a, q))
                    max_overlap = max(max_overlap, overlap)
            if jc.is_central(a):
                assert max_overlap <= 1e-8
            else:
                assert max_overlap > 1e-3


class TestCodimensionOneIdeals:
    def test_counts(self):
        assert len(jc.codim1_ideals(R_S2)) == 1
        assert len(jc.codim1_ideals(S3)) == 0
        assert len(jc.codim1_ideals(jc.direct_sum(jc.real(), jc.real()))) == 2

    def test_functional_is_coordinate_projection(self):
        (atom, row), = jc.codim1_ideals(R_S2)
        np.testing.assert_allclose(atom.coords, [1, 0, 0, 0], atol=1e-10)
        np.testing.assert_allclose(row, [1, 0, 0, 0], atol=1e-10)

    def test_multiplicative(self):
        rng = np.random.default_rng(4)
        for atom, row in jc.codim1_ideals(RR_S3):
            for _ in range(50):
                x = jc.random_element(RR_S3, rng)
                y = jc.random_element(RR_S3, rng)
                lhs = row @ jc.jordan_product(x, y).coords
                assert lhs == pytest.approx(
                    (row @ x.coords) * (row @ y.coords), rel=1e-9, abs=1e-9
                )

    def test_count_matches_disengaged_atoms(self):
        for algebra in (R_S2, RR_S3, S3, SP2):
            dec = decompose_engaged_disengaged(algebra)
            assert len(jc.codim1_ideals(algebra)) == len(dec.disengaged_atoms)
