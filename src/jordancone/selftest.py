"""The acceptance suite: ten self-contained checks at fixed seeds.

Each criterion returns a pass/fail result with a deterministic detail
string (identical runs produce identical reports); timing is tracked
separately so structured reports stay byte-stable.  The CLI ``selftest``
verb and the acceptance tests both run `run_acceptance`.
"""

from __future__ import annotations

import time
import numpy as np
from dataclasses import dataclass

from .core import (
    AlgebraDescriptor,
    Element,
    LinearOperator,
    direct_sum,
    identity_operator,
    jordan_product,
    jordan_products,
    op_apply,
    op_compose,
    quadratic_rep,
    random_element,
    random_interior,
    random_positive,
    real,
    spin,
    sym,
    unit,
)
from .spectral import (
    atomic_refinement,
    inv,
    order_unit_norm,
    spectra,
    spectral_decomposition,
    spectrum,
    trace,
)
from .structure import (
    center_basis,
    codim1_ideals,
    decompose_engaged_disengaged,
    dim1_factor_indices,
    is_atom,
    is_projection,
)
from .ordermaps import (
    OrderIsoForm,
    Power,
    apply_order_iso,
    apply_order_iso_rows,
    check_linearity,
    compose_order_iso,
    factorize_linear_order_iso,
    grid_power_demo,
    invert_order_iso,
    random_jordan_automorphism,
    random_order_iso,
)
from .verify import (
    center_oracle,
    central_idempotents_oracle,
    check_linearity_blackbox,
    check_order_preserving,
    extreme_vector_oracle,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  criterion {self.number:2d}  {self.name}: {self.detail}"


def _random_mixed_descriptor(rng: np.random.Generator) -> AlgebraDescriptor:
    small = [real(), sym(1)]
    big = [sym(2), sym(3), sym(4), spin(2), spin(3), spin(5)]
    n1 = int(rng.integers(0, 4))
    nb = int(rng.integers(0, 4))
    if n1 + nb == 0:
        n1, nb = 1, 1
    factors = [small[int(rng.integers(0, 2))] for _ in range(n1)]
    factors += [big[int(rng.integers(0, len(big)))] for _ in range(nb)]
    order = rng.permutation(len(factors))
    return direct_sum(*[factors[i] for i in order])


def criterion_1() -> CriterionResult:
    """Jordan identity and the JB norm axioms on random pairs per factor kind."""
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for algebra in (direct_sum(sym(4)), direct_sum(spin(5)), direct_sum(real())):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            nx, ny = order_unit_norm(x), order_unit_norm(y)
            x2 = jordan_product(x, x)
            lhs = jordan_product(x, jordan_product(y, x2))
            rhs = jordan_product(jordan_product(x, y), x2)
            jid = order_unit_norm(lhs - rhs) / (1.0 + nx * nx * ny)
            sq = abs(order_unit_norm(x2) - nx * nx) / (1.0 + nx * nx)
            y2 = jordan_product(y, y)
            mono = max(
                0.0, order_unit_norm(x2) - order_unit_norm(x2 + y2)
            ) / (1.0 + order_unit_norm(x2 + y2))
            worst = max(worst, jid, sq, mono)
            ok = ok and jid <= 1e-10 and sq <= 1e-10 and mono <= 1e-10
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        ok = False
        return CriterionResult(
            1, "jordan and norm axioms", False,
            f"exceeded runtime budget: {elapsed:.1f}s >= 5s",
        )
    return CriterionResult(
        1, "jordan and norm axioms", ok,
        f"3x1000 pairs, worst relative defect {worst:.3e} (tol 1e-10)",
    )


def criterion_2() -> CriterionResult:
    """Spectral reconstruction and frame laws across mixed algebras."""
    algebras = [
        direct_sum(sym(5)),
        direct_sum(spin(7)),
        direct_sum(real(), sym(3), spin(4)),
    ]
    rng = np.random.default_rng(22)
    worst_rec, worst_frame = 0.0, 0.0
    for k in range(1000):
        algebra = algebras[k % 3]
        x = random_element(algebra, rng)
        d = spectral_decomposition(x)
        rec = order_unit_norm(d.reconstruct() - x) / (1.0 + order_unit_norm(x))
        worst_rec = max(worst_rec, rec)
        esum = sum(p.coords for p in d.idempotents) - algebra.unit_coords
        worst_frame = max(worst_frame, float(np.abs(esum).max()))
        for i, p in enumerate(d.idempotents):
            for j in range(i, len(d.idempotents)):
                prod = jordan_product(p, d.idempotents[j])
                target = p.coords if i == j else 0.0
                worst_frame = max(
                    worst_frame, float(np.abs(prod.coords - target).max())
                )
    ok = worst_rec <= 1e-9 and worst_frame <= 1e-10
    return CriterionResult(
        2, "spectral reconstruction", ok,
        f"1000 elements, reconstruction {worst_rec:.3e} (tol 1e-9), "
        f"frame laws {worst_frame:.3e} (tol 1e-10)",
    )


def criterion_3() -> CriterionResult:
    """U_e = identity; U_x U_{x^-1} = identity for invertible x."""
    worst_unit = 0.0
    for algebra in (
        direct_sum(sym(5)),
        direct_sum(spin(7)),
        direct_sum(real(), sym(3), spin(4)),
    ):
        ue = quadratic_rep(unit(algebra)).matrix
        worst_unit = max(
            worst_unit, float(np.abs(ue - np.eye(algebra.total_dim)).max())
        )
    algebra = direct_sum(real(), sym(3), spin(4))
    eye = np.eye(algebra.total_dim)
    rng = np.random.default_rng(33)
    worst_inv = 0.0
    for _ in range(500):
        x = random_element(algebra, rng)
        while np.abs(spectrum(x)).min() < 0.05:
            x = random_element(algebra, rng)
        prod = quadratic_rep(x).matrix @ quadratic_rep(inv(x)).matrix
        worst_inv = max(worst_inv, float(np.abs(prod - eye).max()))
    ok = worst_unit <= 1e-12 and worst_inv <= 1e-8
    return CriterionResult(
        3, "quadratic representation", ok,
        f"U_e defect {worst_unit:.3e} (tol 1e-12), "
        f"500 inverses, U_x U_x^-1 defect {worst_inv:.3e} (tol 1e-8)",
    )


def criterion_4() -> CriterionResult:
    """U_y J factorization: 500 round-trips, 50 corrupted maps rejected."""
    algebra = direct_sum(real(), sym(2), spin(3))
    rng = np.random.default_rng(44)
    worst = 0.0
    ok = True
    for _ in range(500):
        y = random_interior(algebra, rng)
        j = random_jordan_automorphism(algebra, rng)
        t = op_compose(quadratic_rep(y), j)
        y2, j2 = factorize_linear_order_iso(t)
        worst = max(
            worst,
            order_unit_norm(y2 - y),
            float(np.abs(j2.matrix - j.matrix).max()),
        )
    ok = ok and worst <= 1e-8

    e_coords = algebra.unit_coords
    dual_e = algebra.inner_weights * e_coords
    dual_e = dual_e / float(dual_e @ e_coords)
    rejected = 0
    for k in range(50):
        y = random_interior(algebra, rng)
        j = random_jordan_automorphism(algebra, rng)
        t = op_compose(quadratic_rep(y), j)
        if k % 2 == 0:
            # push Te out of the cone
            if k % 4 == 0:
                bad = LinearOperator(algebra, algebra, -t.matrix)
            else:
                z = op_apply(t, unit(algebra))
                d = spectral_decomposition(z)
                p = d.idempotents[-1]  # smallest eigenvalue
                m = t.matrix - (d.eigenvalues[-1] + 0.5) * np.outer(p.coords, dual_e)
                bad = LinearOperator(algebra, algebra, m)
            expected = "Te not in interior of cone"
        else:
            # unital non-multiplicative perturbation keeps Te interior
            g = rng.standard_normal((algebra.total_dim, algebra.total_dim))
            n = g - np.outer(g @ e_coords, dual_e)
            b = np.eye(algebra.total_dim) + 0.05 * n
            bad = LinearOperator(algebra, algebra, t.matrix @ b)
            expected = "residual map is not a Jordan isomorphism"
        try:
            factorize_linear_order_iso(bad)
        except ValueError as err:
            if str(err) == expected:
                rejected += 1
    ok = ok and rejected == 50
    return CriterionResult(
        4, "factorization uniqueness", ok,
        f"500 round-trips, worst defect {worst:.3e} (tol 1e-8); "
        f"{rejected}/50 corrupted maps rejected with the correct diagnostic",
    )


def criterion_5() -> CriterionResult:
    """Engaged/disengaged decomposition on randomized descriptors, read off
    the descriptor and checked against the numerical center oracles."""
    rng = np.random.default_rng(55)
    ok = True
    checked = 0
    for k in range(20):
        algebra = _random_mixed_descriptor(rng)
        dec = decompose_engaged_disengaged(algebra)
        idems = central_idempotents_oracle(algebra, seed=k)
        oracle_atoms = [c for c in idems if is_atom(c)]
        oracle_slots = sorted(int(np.argmax(np.abs(c.coords))) for c in oracle_atoms)
        oracle_p_d = sum((c.coords for c in oracle_atoms), np.zeros(algebra.total_dim))
        center = np.array([b.coords for b in center_oracle(algebra)])
        ok = ok and len(idems) == len(center_basis(algebra))
        ok = ok and list(dec.disengaged_coordinates) == oracle_slots
        ok = ok and is_projection(dec.p_D)
        ok = ok and float(np.abs(dec.p_D.coords - oracle_p_d).max()) <= 1e-9
        for atom, slot in zip(dec.disengaged_atoms, dec.disengaged_coordinates):
            target = np.zeros(algebra.total_dim)
            target[slot] = 1.0
            ok = ok and float(np.abs(atom.coords - target).max()) <= 1e-9
            # distance to the oracle's (orthonormal) center basis
            off_center = atom.coords - center.T @ (center @ atom.coords)
            ok = ok and is_atom(atom) and float(np.abs(off_center).max()) <= 1e-9
        checked += 1
    return CriterionResult(
        5, "engaged/disengaged decomposition", ok,
        f"{checked} randomized descriptors: descriptor route matches the "
        "commutator-nullspace oracle; p_D is the sum of the oracle's atomic "
        "central idempotents and each atom lies in its center (tol 1e-9)",
    )


def criterion_6() -> CriterionResult:
    """Linearity dichotomy: engaged-only algebras force linear forms;
    a one-dimensional summand admits the squaring counterexample."""
    engaged_only = direct_sum(sym(3), spin(4))
    ok = True
    worst = 0.0
    for s in range(25):
        form = random_order_iso(engaged_only, engaged_only, seed=s)
        ok = ok and check_linearity(form)
        rep = check_linearity_blackbox(form, engaged_only, trials=100, seed=s)
        worst = max(worst, rep.max_violation)
        ok = ok and rep.passed

    mixed = direct_sum(real(), sym(3))
    dec = decompose_engaged_disengaged(mixed)
    squaring = OrderIsoForm(
        mixed, mixed, (0,), (Power(2.0),),
        unit(dec.engaged_subalgebra),
        identity_operator(dec.engaged_subalgebra),
    )
    rep = check_order_preserving(squaring, mixed, trials=10_000, seed=6)
    ok = ok and rep.passed
    p0 = dec.disengaged_atoms[0]
    x1, x2 = 2.0 * p0, 3.0 * p0
    defect = order_unit_norm(
        apply_order_iso(squaring, x1 + x2)
        - apply_order_iso(squaring, x1)
        - apply_order_iso(squaring, x2)
    )
    # (2+3)^2 = 25 against 2^2 + 3^2 = 13: defect 12
    ok = ok and defect > 1e-3
    return CriterionResult(
        6, "linearity dichotomy", ok,
        f"engaged-only: 25 forms linear, blackbox defect {worst:.3e} (tol 1e-8); "
        f"squaring form: {rep.trials} order trials clean, "
        f"additivity defect {defect:.6g} > 1e-3",
    )


def criterion_7() -> CriterionResult:
    """Classification round-trip: compose with inverse is the identity and
    both directions preserve order."""
    presets = [
        (direct_sum(real(), real(), sym(2)), direct_sum(sym(2), real(), real())),
        (direct_sum(real(), sym(2), spin(2)), direct_sum(spin(2), real(), sym(2))),
        (direct_sum(sym(3)), direct_sum(sym(3))),
        (direct_sum(real(), real()), direct_sum(real(), real())),
        (direct_sum(spin(4), real()), direct_sum(real(), spin(4))),
    ]
    worst = 0.0
    ok = True
    point_rng = np.random.default_rng(777)
    for k in range(200):
        dom, cod = presets[k % len(presets)]
        form = random_order_iso(dom, cod, seed=1000 + k)
        back = invert_order_iso(form)
        ident = compose_order_iso(form, back)  # codomain -> codomain
        # 500 cone points v o v, the stream of 500 random_positive draws
        v = point_rng.standard_normal((500, cod.total_dim))
        z = jordan_products(cod, v, v)
        err = np.abs(spectra(cod, apply_order_iso_rows(ident, z) - z)).max(axis=1) / (
            1.0 + np.abs(spectra(cod, z)).max(axis=1)
        )
        worst = max(worst, float(err.max()))
        rep_f = check_order_preserving(form, dom, trials=100, seed=k)
        rep_b = check_order_preserving(back, cod, trials=100, seed=k)
        ok = ok and rep_f.passed and rep_b.passed
    ok = ok and worst <= 1e-8
    return CriterionResult(
        7, "classification round-trip", ok,
        f"200 forms x 500 points, identity defect {worst:.3e} (tol 1e-8); "
        "order preservation clean in both directions",
    )


def criterion_8() -> CriterionResult:
    """Atoms are exactly the rays the extremality oracle accepts."""
    catalog = [
        direct_sum(real()),
        direct_sum(real(), real()),
        direct_sum(sym(2)),
        direct_sum(spin(2)),
        direct_sum(real(), sym(2)),
        direct_sum(spin(3), real()),
        direct_sum(sym(3)),
        direct_sum(sym(2), spin(2)),
        direct_sum(real(), real(), sym(2)),
        direct_sum(sym(4)),
        direct_sum(spin(8)),
        direct_sum(real(), sym(3), spin(2)),
    ]
    ok = True
    projections_checked = 0
    for algebra in catalog:
        frame = atomic_refinement(
            spectral_decomposition(random_positive(algebra, 7))
        )
        atoms = [a for _, a in frame]
        family: list[Element] = list(atoms)
        if len(atoms) >= 2:
            family.append(atoms[0] + atoms[1])
        family.append(unit(algebra))
        for p in family:
            expected = is_atom(p)
            q = (1.0 / trace(p)) * p
            for s in range(5):
                got = extreme_vector_oracle(q, trials=10_000, seed=s)
                ok = ok and (got == expected)
            projections_checked += 1
    return CriterionResult(
        8, "atoms = extreme vectors", ok,
        f"{len(catalog)} algebras (total_dim <= 10), {projections_checked} "
        "projections, 10^4 trials x 5 seeds: oracle agrees with is_atom",
    )


def criterion_9() -> CriterionResult:
    """Codimension-one ideals: one per dim-1 factor, functionals multiplicative."""
    rng = np.random.default_rng(99)
    ok = True
    worst = 0.0
    for k in range(20):
        algebra = _random_mixed_descriptor(rng)
        ideals = codim1_ideals(algebra)
        ok = ok and len(ideals) == len(dim1_factor_indices(algebra))
        for _, row in ideals:
            for _ in range(100):
                x = random_element(algebra, rng)
                y = random_element(algebra, rng)
                lhs = float(row @ jordan_product(x, y).coords)
                fx, fy = float(row @ x.coords), float(row @ y.coords)
                defect = abs(lhs - fx * fy) / (1.0 + abs(fx) * abs(fy))
                worst = max(worst, defect)
    ok = ok and worst <= 1e-9
    return CriterionResult(
        9, "codimension-one ideals", ok,
        f"20 descriptors: count matches dim-1 factors; multiplicativity "
        f"defect {worst:.3e} (tol 1e-9) on 100 pairs each",
    )


def criterion_10_demo() -> tuple[bool, str]:
    """The grid power demo is order preserving but not homogeneous."""
    form = grid_power_demo(8, lambda t: 2.0 if t <= 0.5 else 1.0)
    rep_order = check_order_preserving(form, form.domain, trials=2000, seed=10)
    rep_lin = check_linearity_blackbox(form, form.domain, trials=200, seed=10)
    hom = [f for f in rep_lin.failures if f.predicate.startswith("homogeneous")]
    ok = (
        rep_order.passed
        and not check_linearity(form)
        and rep_lin.max_violation > 1e-3
        and bool(hom)
    )
    witness = hom[0] if hom else None
    detail = (
        f"order preservation clean over {rep_order.trials} trials; "
        f"nonlinear with max defect {rep_lin.max_violation:.6g}"
    )
    if witness is not None:
        detail += f"; homogeneity witness: {witness.predicate}, defect {witness.magnitude:.6g}"
    return ok, detail


def run_acceptance() -> tuple[list[CriterionResult], float]:
    """Run all acceptance criteria; returns the results and elapsed seconds."""
    start = time.perf_counter()
    results = [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(),
        criterion_8(),
        criterion_9(),
    ]
    demo_ok, demo_detail = criterion_10_demo()
    elapsed = time.perf_counter() - start
    within_budget = elapsed < 60.0
    detail = demo_detail + (
        "; suite completed within the 60 s budget"
        if within_budget
        else f"; suite exceeded the 60 s budget ({elapsed:.1f}s)"
    )
    results.append(
        CriterionResult(10, "grid power demo and runtime", demo_ok and within_budget, detail)
    )
    return results, elapsed
