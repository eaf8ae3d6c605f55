"""Contact residuals, sphere solving, continuation, radial invariance."""

from __future__ import annotations

import numpy as np
import pytest

import folcontact as fc
from folcontact.contact import (
    _contact_system,
    _damped_newton,
    _merge_points,
    sphere_search,
    sphere_seeds,
)
from folcontact.errors import NonHomogeneousFormError, SingularGradientError

from conftest import axis_distance, random_morse


def test_mu_examples(form321):
    ident = fc.linear_form(fc.SymMatrix(np.eye(3, dtype=complex)))
    assert fc.mu_of(ident, [1, 0, 0]) == pytest.approx(1.0)
    assert fc.mu_of(form321, [0, 1, 0]) == pytest.approx(0.5)


def test_mu_symplectic_identically_zero(symplectic4):
    # symbolic check: sum_j z_j f_j(z) is the zero polynomial
    pairing_terms = []
    for j, f in enumerate(symplectic4.coeffs):
        for c, e in f.terms:
            ne = list(e)
            ne[j] += 1
            pairing_terms.append((c, ne))
    assert fc.Polynomial(4, pairing_terms).terms == []
    # numerically zero to rounding (FMA-fused products leave ulp residue)
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(fc.mu_of(symplectic4, z)) <= 1e-14


def test_mu_singular_gradient():
    # d(sum z_j^3/3 - z_j^2/2) has coefficients z_j^2 - z_j, vanishing at (1,1)
    f = fc.Polynomial(
        2, [(1 / 3, (3, 0)), (1 / 3, (0, 3)), (-0.5, (2, 0)), (-0.5, (0, 2))]
    )
    with pytest.raises(SingularGradientError):
        fc.mu_of(f.differential(), [1.0, 1.0])


def test_residual_examples(form321, symplectic4):
    ident = fc.linear_form(fc.SymMatrix(np.eye(3, dtype=complex)))
    assert fc.contact_residual(ident, [1, 0, 0]) == pytest.approx(0.0, abs=1e-15)

    rng = np.random.default_rng(4)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert abs(fc.contact_residual(symplectic4, z) - 1.0) <= 1e-12

    z = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    res = fc.contact_residual(form321, z)
    assert res >= 0.1
    # independent least-squares oracle for min_mu ||z - mu conj(f)||
    fbar = fc.eval_form(form321, z).conj()
    Areal = np.stack([np.concatenate([fbar.real, fbar.imag]),
                      np.concatenate([-fbar.imag, fbar.real])], axis=1)
    b = np.concatenate([z.real, z.imag])
    _, lstsq_res, _, _ = np.linalg.lstsq(Areal, b, rcond=None)
    assert res == pytest.approx(float(np.sqrt(lstsq_res[0])) / np.linalg.norm(z), rel=1e-9)


def test_residual_scale_invariance_linear(form321):
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        T = complex(rng.standard_normal(), rng.standard_normal())
        if abs(T) < 1e-3:
            continue
        assert fc.contact_residual(form321, T * z) == pytest.approx(
            fc.contact_residual(form321, z), abs=1e-12
        )


def test_residual_rejects_origin(form321):
    with pytest.raises(ValueError):
        fc.contact_residual(form321, [0, 0, 0])


def test_contact_system_jacobian_matches_finite_differences(form321, cubic3):
    rng = np.random.default_rng(8)
    for form in (form321, cubic3.differential()):
        n = form.n
        anchor = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        residual, jacobian = _contact_system(form, 1.0, anchor)
        for _ in range(10):
            u = rng.standard_normal(2 * n + 2)
            J = jacobian(u)
            h = 1e-6
            for k in range(2 * n + 2):
                e = np.zeros(2 * n + 2)
                e[k] = h
                fd = (residual(u + e) - residual(u - e)) / (2 * h)
                assert np.all(np.abs(fd - J[:, k]) <= 1e-5 * (1.0 + np.abs(J[:, k])))


def test_damped_newton_builds_jacobian_once_per_step():
    # arctan(u) = 0 from u = 3: the full Newton step overshoots to u = -9.5,
    # so the line search has to reject trial points before it accepts one
    res_pts, jac_pts = [], []

    def residual(u):
        res_pts.append(u.copy())
        return np.arctan(u)

    def jacobian(u):
        jac_pts.append(u.copy())
        return np.array([[1.0 / (1.0 + u[0] ** 2)]])

    u, norm_f = _damped_newton(residual, jacobian, np.array([3.0]), 1e-12, 50)
    assert norm_f <= 1e-12 and abs(u[0]) <= 1e-12
    assert np.array_equal(res_pts[0], [3.0]) and np.array_equal(jac_pts[0], [3.0])
    # one Jacobian per step, each at the iterate the step starts from: the
    # start, then every accepted point except the final one
    accepted = jac_pts[1:] + [u]
    assert all(any(np.array_equal(a, p) for p in res_pts) for a in accepted)
    assert len({float(p[0]) for p in jac_pts}) == len(jac_pts)
    # every other residual evaluation is a rejected trial point, with no Jacobian
    rejected = [
        p for p in res_pts[1:] if not any(np.array_equal(p, a) for a in accepted)
    ]
    assert len(rejected) >= 1
    assert len(res_pts) == 1 + len(accepted) + len(rejected)
    assert not any(np.array_equal(p, q) for p in rejected for q in jac_pts)


def test_damped_newton_fails_on_singular_jacobian():
    out = _damped_newton(
        lambda u: u - 1.0, lambda u: np.zeros((2, 2)), np.zeros(2), 1e-12, 10
    )
    assert out is None


def test_sphere_search_rejects_zero_form():
    zero = fc.PolyOneForm([fc.Polynomial(2, []), fc.Polynomial(2, [])])
    with pytest.raises(SingularGradientError):
        sphere_search(zero, 1.0, 5, 0)


def test_solve_on_sphere_diag(form321):
    points = fc.solve_on_sphere(form321, 1.0, 50, 1234)
    assert len(points) >= 1
    for p in points:
        assert p.residual <= 1e-9
        assert abs(np.linalg.norm(p.z) - 1.0) <= 1e-10
        assert min(axis_distance(p.z, j) for j in range(3)) <= 1e-6


def test_solve_on_sphere_symplectic_empty(symplectic4):
    search = sphere_search(symplectic4, 1.0, 50, 7)
    assert search.points == []
    assert search.seeds_converged == 0
    assert search.seeds_tried == 50


def test_solve_on_sphere_identity_phase_structure():
    ident = fc.linear_form(fc.SymMatrix(np.eye(3, dtype=complex)))
    points = fc.solve_on_sphere(ident, 1.0, 40, 97)
    assert points
    for p in points:
        args = [np.angle(v) for v in p.z if abs(v) > 1e-8]
        for a in args[1:]:
            d = (a - args[0]) % np.pi
            assert min(d, np.pi - d) <= 1e-7


def test_solver_determinism(form321):
    a = fc.solve_on_sphere(form321, 1.0, 30, 55)
    b = fc.solve_on_sphere(form321, 1.0, 30, 55)
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert np.array_equal(p.z, q.z)
        assert p.mu == q.mu and p.residual == q.residual


def test_seed_stream_is_prefix_stable():
    small = sphere_seeds(3, 10, 42)
    large = sphere_seeds(3, 100, 42)
    assert np.array_equal(small, large[:10])


def test_merge_is_order_independent(form321):
    points = fc.solve_on_sphere(form321, 1.0, 30, 3)
    # rebuild unmerged phase copies and shuffle
    raw = []
    for k, p in enumerate(points):
        for phase in (1.0, np.exp(0.3j), np.exp(2.1j)):
            z = p.z * phase
            raw.append(
                fc.ContactPoint(
                    z=z,
                    mu=fc.mu_of(form321, z),
                    radius=p.radius,
                    residual=fc.contact_residual(form321, z),
                )
            )
    rng = np.random.default_rng(9)
    for _ in range(3):
        perm = rng.permutation(len(raw))
        merged = _merge_points([raw[i] for i in perm], dedup_tol=1e-6)
        assert len(merged) == len(points)
        keys = sorted(tuple(np.round(np.abs(q.z), 8)) for q in merged)
        ref = sorted(tuple(np.round(np.abs(q.z), 8)) for q in points)
        assert keys == ref


def test_ratio_spread_at_accepted_points():
    # on accepted points with all coordinates active, the defining ratios agree
    ident = fc.linear_form(fc.SymMatrix(np.eye(3, dtype=complex)))
    tol = 1e-9
    points = fc.solve_on_sphere(ident, 1.0, 60, 11, tol=tol)
    checked = 0
    for p in points:
        if np.min(np.abs(p.z)) < 0.2:
            continue
        ratios = fc.eval_form(ident, p.z) / p.z.conj()
        scale = float(np.max(np.abs(ratios)))
        spread = float(np.max(np.abs(ratios[:, None] - ratios[None, :])))
        assert spread <= 10 * tol * scale
        checked += 1
    assert checked >= 1


def test_continue_radially_linear_line(form321):
    start = fc.point_at(form321, [0.0, 0.5, 0.0])
    path = fc.continue_radially(form321, start, 0.1, 2.0, 15)
    assert not path.truncated
    assert len(path.points) == 15 + 1  # grid skips no radius; start included
    radii = [p.radius for p in path.points]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    for p in path.points:
        assert axis_distance(p.z, 1) <= 1e-8
        assert p.residual <= 1e-9


def test_continue_radially_cubic_real_axis(cubic3):
    form = cubic3.differential()
    start = fc.point_at(form, [0.5, 0.0, 0.0])
    path = fc.continue_radially(form, start, 0.1, 2.0, 12)
    assert not path.truncated
    for p in path.points:
        assert axis_distance(p.z, 0) <= 1e-9
        assert abs(p.z[0].imag) <= 1e-9


def test_continue_radially_identity_cone(identity3):
    form = fc.linear_form(identity3)
    start = fc.point_at(form, [0.3, 0.4, 0.0])
    path = fc.continue_radially(form, start, 0.05, 1.5, 10)
    assert not path.truncated
    for p in path.points:
        assert p.residual <= 1e-9


def test_continue_radially_validates_bounds(form321):
    start = fc.point_at(form321, [0.5, 0.0, 0.0])
    with pytest.raises(ValueError):
        fc.continue_radially(form321, start, 0.6, 2.0, 10)


def test_radial_invariance_examples(form321, cubic3):
    p = fc.point_at(form321, [0.7, 0.0, 0.0])
    assert fc.radial_invariance_check(form321, p, [1.0, 1j, 1 + 1j], 1e-9)

    form = cubic3.differential()
    q = fc.point_at(form, [0.8, 0.0, 0.0])
    assert fc.radial_invariance_check(form, q, [1j * np.pi / 4], 1e-9)

    mixed = fc.PolyOneForm(
        [
            fc.Polynomial(2, [(1.0, (1, 0)), (0.5, (2, 0))]),
            fc.Polynomial(2, [(1.0, (0, 1))]),
        ]
    )
    pt = fc.ContactPoint(z=np.array([1.0, 0j]), mu=1.0, radius=1.0, residual=0.0)
    with pytest.raises(NonHomogeneousFormError):
        fc.radial_invariance_check(mixed, pt, [1.0], 1e-9)


def test_radial_invariance_property_on_solved_points(cubic3):
    form = cubic3.differential()
    grid = [0.5, 1j, 1 + 1j, 1j * np.pi / 4]
    for p in fc.solve_on_sphere(form, 1.0, 30, 2718):
        assert fc.radial_invariance_check(form, p, grid, 1e-9)


def test_oracle_equivalence_small(form321):
    rng = np.random.default_rng(31)
    for _ in range(8):
        A = random_morse(rng, 3)
        _, lineset = fc.analyze(A)
        form = fc.linear_form(A)
        pts = fc.solve_on_sphere(form, 1.0, 50, int(rng.integers(0, 2**31)))
        for p in pts:
            d = min(
                np.linalg.norm(p.z - np.sum(p.z * l.direction.conj()) * l.direction)
                for l in lineset.lines
            )
            assert d <= 1e-6
