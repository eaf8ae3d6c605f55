"""Contact residuals, sphere solving, continuation, radial invariance."""

from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest

import folcontact as fc
from folcontact import contact
from folcontact.contact import (
    _contact_system,
    _damped_newton,
    _merge_points,
    _newton_on_sphere,
    sphere_search,
    sphere_seeds,
)
from folcontact.errors import RadiusRangeError, SingularGradientError

from conftest import (
    aligned_distance,
    axis_distance,
    degree_five_form,
    form_to_json,
    mixed_degree_five_form,
    one_halving_newton,
    random_exact_form,
    radially_invariant,
    random_morse,
    run_cli,
)


def test_mu_examples(form321):
    ident = fc.linear_form(fc.SymMatrix(np.eye(3, dtype=complex)))
    assert fc.point_at(ident, [1, 0, 0]).mu == pytest.approx(1.0)
    assert fc.point_at(form321, [0, 1, 0]).mu == pytest.approx(0.5)


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
        assert abs(fc.point_at(symplectic4, z).mu) <= 1e-14


def test_mu_singular_gradient():
    # d(sum z_j^3/3 - z_j^2/2) has coefficients z_j^2 - z_j, vanishing at (1,1)
    f = fc.Polynomial(
        2, [(1 / 3, (3, 0)), (1 / 3, (0, 3)), (-0.5, (2, 0)), (-0.5, (0, 2))]
    )
    with pytest.raises(SingularGradientError):
        fc.point_at(f.differential(), [1.0, 1.0])


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
    fbar = form321.evaluate(z).conj()
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
        anchors = rng.standard_normal((10, n)) + 1j * rng.standard_normal((10, n))
        residual, jacobian = _contact_system(form, 1.0, anchors)
        rows = np.arange(10)
        U = rng.standard_normal((10, 2 * n + 2))
        J = jacobian(U, rows)
        assert J.shape == (10, 2 * n + 2, 2 * n + 2)
        h = 1e-6
        for k in range(2 * n + 2):
            e = np.zeros(2 * n + 2)
            e[k] = h
            fd = (residual(U + e, rows) - residual(U - e, rows)) / (2 * h)
            assert np.all(np.abs(fd - J[:, :, k]) <= 1e-5 * (1.0 + np.abs(J[:, :, k])))


def _contact_system_by_concatenation(form, r, anchors, U, rows):
    """(residual, jacobian) of the contact system from whole blocks, concatenated
    in the unknowns (Re z, Im z, Re nu, Im nu) and permuted to the interleaved
    (Re z_1, Im z_1, ..., Re nu, Im nu) of the stack U."""
    n = form.n
    # perm[i] is the block position of interleaved unknown i
    perm = np.append(np.arange(2 * n).reshape(2, n).T.reshape(-1), [2 * n, 2 * n + 1])
    Ub = np.ascontiguousarray(U[:, np.argsort(perm)])  # row-major, as the kernel's stacks are
    Z = Ub[:, :n] + 1j * Ub[:, n : 2 * n]
    nu = Ub[:, 2 * n] + 1j * Ub[:, 2 * n + 1]
    G = nu[:, None] * Z - form.evaluate(Z).conj()
    sphere = np.sum(np.abs(Z) ** 2, axis=1) - r * r
    phase = np.imag(np.sum(Z * anchors[rows].conj(), axis=1))
    F = np.concatenate([G.real, G.imag, sphere[:, None], phase[:, None]], axis=1)
    # the real rows (Re G; Im G) of G(z, conj z, nu) from its Wirtinger blocks
    dz, dzbar, dnu = nu[:, None, None] * np.eye(n), -fc.jacobian_form(form, Z).conj(), Z[..., None]
    G = np.concatenate([dz + dzbar, 1j * (dz - dzbar), dnu, 1j * dnu], axis=-1)
    G = np.concatenate([G.real, G.imag], axis=-2)
    zeros = np.zeros((len(U), 2))
    sphere = np.concatenate([2.0 * Z.real, 2.0 * Z.imag, zeros], axis=1)
    phase = np.concatenate([-anchors[rows].imag, anchors[rows].real, zeros], axis=1)
    J = np.concatenate([G, sphere[:, None], phase[:, None]], axis=1)
    return F[:, perm], J[:, perm][:, :, perm]


@pytest.mark.parametrize("S", [1, 3, 64])
def test_contact_system_matches_the_concatenated_blocks(S, form321, cubic3):
    rng = np.random.default_rng(22 + S)
    for form in (form321, cubic3.differential(), random_exact_form(rng, 8, 4)):
        n = form.n
        anchors = rng.standard_normal((64, n)) + 1j * rng.standard_normal((64, n))
        r = 1.3
        residual, jacobian = _contact_system(form, r, anchors)
        rows = rng.choice(64, size=S, replace=False)
        U = rng.standard_normal((S, 2 * n + 2))
        F, J = _contact_system_by_concatenation(form, r, anchors, U, rows)
        assert np.array_equal(residual(U, rows), F)
        assert np.array_equal(jacobian(U, rows), J)


def test_damped_newton_builds_jacobian_once_per_step():
    # arctan(u) = 0 from u = 3 and u = -2: the full Newton steps overshoot
    # (3 -> -9.5), so the line search has to reject trial points before it
    # accepts one; each row keeps its own sequence
    res_pts = {0: [], 1: []}
    jac_pts = {0: [], 1: []}

    def residual(U, rows):
        for s, u in zip(rows, U):
            res_pts[int(s)].append(u.copy())
        return np.arctan(U)

    def jacobian(U, rows):
        for s, u in zip(rows, U):
            jac_pts[int(s)].append(u.copy())
        return (1.0 / (1.0 + U**2))[:, :, None]

    U0 = np.array([[3.0], [-2.0]])
    U, norm = _damped_newton(residual, jacobian, U0, 1e-12, 50)
    for s in (0, 1):
        u, res, jac = U[s], res_pts[s], jac_pts[s]
        assert norm[s] <= 1e-12 and abs(u[0]) <= 1e-12
        assert np.array_equal(res[0], U0[s]) and np.array_equal(jac[0], U0[s])
        # one Jacobian per step, each at the iterate the step starts from: the
        # start, then every accepted point except the final one
        accepted = jac[1:] + [u]
        assert all(any(np.array_equal(a, p) for p in res) for a in accepted)
        assert len({float(p[0]) for p in jac}) == len(jac)
        # every other residual evaluation is a trial point not taken, with no Jacobian
        rejected = [p for p in res[1:] if not any(np.array_equal(p, a) for a in accepted)]
        assert len(rejected) >= 1
        assert len(res) == 1 + len(accepted) + len(rejected)
        assert not any(np.array_equal(p, q) for p in rejected for q in jac)


def test_damped_newton_fails_on_singular_jacobian():
    _, norm = _damped_newton(
        lambda U, rows: U - 1.0,
        lambda U, rows: np.zeros((len(U), 2, 2)),
        np.zeros((3, 2)),
        1e-12,
        10,
    )
    assert np.all(norm == np.inf)


def test_damped_newton_failing_rows_drop_out_alone():
    # u - 1 = 0 with slopes 0 (singular), 1e-320 (the step overflows to inf)
    # and 1 (converges in one step), and a NaN start, whose step is NaN
    slopes = np.array([0.0, 1e-320, 1.0, 1.0])

    def jacobian(U, rows):
        return slopes[rows][:, None, None] * np.ones((len(U), 1, 1))

    U0 = np.array([[0.0], [0.0], [0.0], [np.nan]])
    U, norm = _damped_newton(lambda U, rows: U - 1.0, jacobian, U0, 1e-12, 10)
    assert norm[0] == norm[1] == norm[3] == np.inf
    assert norm[2] <= 1e-12 and U[2, 0] == 1.0


def _backtracking_reference(u0: np.ndarray, target: float, max_iter: int):
    """Damped Newton on arctan(u) = 0 for one row, one halving at a time.

    Returns (u, ||F||, halvings of each step, None for a failed search).
    """
    u = np.array(u0, dtype=float)
    F = np.arctan(u)
    norm = np.linalg.norm(F)
    halvings = []
    for _ in range(max_iter):
        if norm <= target:
            break
        du = np.linalg.solve(np.diag(1.0 / (1.0 + u**2)), -F)
        t = 1.0
        for h in range(contact.NEWTON_MAX_HALVINGS + 1):
            trial = u + t * du
            F_trial = np.arctan(trial)
            norm_trial = np.linalg.norm(F_trial)
            if norm_trial < (1.0 - 1e-4 * t) * norm:
                u, F, norm = trial, F_trial, norm_trial
                halvings.append(h)
                break
            t *= 0.5
        else:
            return u, np.inf, halvings + [None]
    return u, norm, halvings


# arctan(u) = 0 from these starts needs 0, 1, 2, 3, 4, 7, 15, 30 and more
# than NEWTON_MAX_HALVINGS halvings on its first step (the full step
# overshoots to about -pi u^2 / 2); 0.0 starts at the root
ARCTAN_STARTS = [0.5, 2.0, 3.0, 6.0, 20.0, 100.0, 3e4, 1e9, 1e10, 0.0]
FIRST_HALVINGS = [0, 1, 2, 3, 4, 7, 15, 30, None, None]
FAILING, AT_ROOT = 8, 9


def test_chunked_backtracking_matches_one_halving_at_a_time():
    steps = []  # per Newton step, the stack rows of each residual call

    def residual(U, rows):
        if steps:
            steps[-1].append(rows.copy())
        return np.arctan(U)

    def jacobian(U, rows):
        steps.append([])
        return (1.0 / (1.0 + U**2))[:, :, None]

    U0 = np.array(ARCTAN_STARTS)[:, None]
    U, norm = _damped_newton(residual, jacobian, U0, 1e-12, 50)
    for s, u0 in enumerate(U0):
        u, ref_norm, halvings = _backtracking_reference(u0, 1e-12, 50)
        assert (halvings or [None])[0] == FIRST_HALVINGS[s]
        assert np.array_equal(U[s], u) and norm[s] == ref_norm
    assert np.isinf(norm[FAILING]) and np.all(np.delete(norm, FAILING) <= 1e-12)
    # the runs start at h = 0: from h = lo, a call tries max(lo + 1,
    # SEED_BLOCK // rows searching) h per row, so no call's stack has one
    # row, and no call evaluates more than max(SEED_BLOCK, rows x (lo + 1))
    # trial points; a step with at most two rows searching makes one call
    for step in steps:
        lo = 0
        for call in step:
            searching = len(np.unique(call))
            k, rest = divmod(len(call), searching)
            chunk = min(lo + 1, contact.NEWTON_MAX_HALVINGS + 1 - lo)
            assert rest == 0 and len(call) >= 2 and len(call) <= max(contact.SEED_BLOCK, searching * chunk)
            lo += k
        if len(np.unique(step[0])) <= 2:
            assert len(step) == 1
    assert any(len(np.unique(step[0])) <= 2 for step in steps)
    # on the first step, 9 rows search h = 0-6 and 4 of them h = 7-22, which
    # leaves the rows that need 30 halvings or more h = 23-30; the failing
    # row evaluates all NEWTON_MAX_HALVINGS + 1 trial points, and the row
    # at the root none
    first = np.concatenate(steps[0])
    assert [len(call) for call in steps[0]] == [63, 64, 16]
    assert np.count_nonzero(first == FAILING) == contact.NEWTON_MAX_HALVINGS + 1
    assert np.count_nonzero(first == AT_ROOT) == 0


def test_a_step_whose_rows_all_accept_in_the_first_run_makes_one_residual_call():
    # 8 rows whose first steps need 0-7 halvings: the first run tries
    # h = 0-7 for each, SEED_BLOCK trial points in one call
    starts = [0.5, 2.0, 3.0, 6.0, 20.0, 30.0, 50.0, 100.0]
    assert [_backtracking_reference(np.array([u]), 1e-12, 1)[2][0] for u in starts] == list(range(8))
    calls = []

    def residual(U, rows):
        calls.append(len(U))
        return np.arctan(U)

    U, norm = _damped_newton(residual, lambda U, rows: (1.0 / (1.0 + U**2))[:, :, None], np.array(starts)[:, None], 0.0, 1)
    assert calls == [8, contact.SEED_BLOCK]
    assert all(np.array_equal(U[s], _backtracking_reference(np.array([u]), 0.0, 1)[0]) for s, u in enumerate(starts))


@pytest.mark.parametrize(
    "form",
    [
        fc.linear_form(random_morse(np.random.default_rng(16), 16)),
        random_exact_form(np.random.default_rng(6), 6, 4),
        random_exact_form(np.random.default_rng(8), 8, 5),
    ],
    ids=["linear-16", "exact-6", "exact-8"],
)
def test_newton_on_sphere_matches_a_one_halving_kernel(form, monkeypatch):
    # 64 seeds, some of whose rows fail (norm inf): the line search runs
    # with many rows searching, with few, and on rows that exhaust it
    seeds = sphere_seeds(form.n, contact.SEED_BLOCK, 3, 1.0)
    norms = []

    def reference(*args):
        U, norm = one_halving_newton(*args)
        norms.append(norm)
        return U, norm

    F = form.evaluate(seeds)
    got = _newton_on_sphere(form, seeds, F, 1.0, fc.ACCEPT_TOL)
    monkeypatch.setattr(contact, "_damped_newton", reference)
    ref = _newton_on_sphere(form, seeds, F, 1.0, fc.ACCEPT_TOL)
    assert 1 <= np.count_nonzero(np.isinf(norms[0])) < contact.SEED_BLOCK // 4
    assert len(ref[0]) >= contact.SEED_BLOCK // 2
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_stacked_rows_match_rows_solved_alone(cubic3):
    for form in (fc.linear_form(random_morse(np.random.default_rng(2), 4)), cubic3.differential()):
        seeds = sphere_seeds(form.n, 12, 5, 1.0)
        Z = _newton_on_sphere(form, seeds, form.evaluate(seeds), 1.0, fc.ACCEPT_TOL)[0]
        assert len(Z) >= 6
        alone = np.concatenate(
            [_newton_on_sphere(form, seed[None], form.evaluate(seed[None]), 1.0, fc.ACCEPT_TOL)[0] for seed in seeds]
        )
        assert alone.shape == Z.shape and np.abs(alone - Z).max() <= 1e-12


@pytest.mark.parametrize("block", [1, 3])
def test_sphere_search_does_not_depend_on_the_seed_block(block, monkeypatch, cubic3):
    for form in (fc.linear_form(random_morse(np.random.default_rng(4), 5)), cubic3.differential()):
        ref = sphere_search(form, 1.0, 20, 17)
        monkeypatch.setattr(contact, "SEED_BLOCK", block)
        got = sphere_search(form, 1.0, 20, 17)
        monkeypatch.undo()
        assert (got.seeds_tried, got.seeds_converged) == (ref.seeds_tried, ref.seeds_converged)
        # the same points at the same phase: the representative of an orbit
        # does not depend on rounding-level residuals
        assert len(got.points) == len(ref.points)
        for p, q in zip(got.points, ref.points):
            assert np.abs(p.z - q.z).max() <= 1e-12
            assert abs(p.mu - q.mu) <= 1e-12 * abs(q.mu)


def test_point_at_tiny_point_is_not_singular():
    # the singular-gradient test is relative to the size of the terms of f,
    # so a contact point near the origin is as regular as one at |z| = 1
    form = fc.linear_form(fc.SymMatrix(np.diag([1.0, 2.0])))
    p = fc.point_at(form, [1e-20, 0.0])
    assert p.residual == 0.0 and p.mu == 1.0


def test_point_at_refuses_the_origin_before_its_gradient_test(form321, cubic3):
    # f(0) = 0 for these homogeneous forms, so the singular-gradient test
    # would fire at the origin: the origin is refused first, as bad input
    for form in (form321, cubic3.differential()):
        for refuse in (fc.point_at, fc.contact_residual):
            with pytest.raises(ValueError, match="origin") as exc:
                refuse(form, [0.0, 0.0, 0.0])
            assert not isinstance(exc.value, SingularGradientError)


def test_singular_gradient_at_origin_zero_form_and_cancelling_terms(form321):
    # the singular test fires at the origin, which point_at refuses first
    origin = np.zeros(3, dtype=complex)
    assert contact._field(origin, *form321.evaluate_scaled(origin))[2]
    zero = fc.PolyOneForm([fc.Polynomial(2, []), fc.Polynomial(2, [])])
    with pytest.raises(SingularGradientError):
        fc.point_at(zero, [1.0, 0.5])
    # (z1 - 1) dz1 + 0 dz2: the terms cancel exactly at (1, 0) but not at
    # (1 + 1e-10, 0), where f = (1e-10, 0) is far above their rounding
    step = fc.PolyOneForm([fc.Polynomial(2, [(1.0, (1, 0)), (-1.0, (0, 0))]), fc.Polynomial(2, [])])
    with pytest.raises(SingularGradientError):
        fc.point_at(step, [1.0, 0.0])
    p = fc.point_at(step, [1.0 + 1e-10, 0.0])
    assert p.residual <= 1e-15


def test_sphere_search_scales_mu_within_the_normal_doubles():
    form = degree_five_form()
    unit = sphere_search(form, 1.0, 20, 0)
    assert len(unit.points) == 8
    for r in (1e-70, 1e70):
        search = sphere_search(form, r, 20, 0)
        assert [p.mu for p in search.points] == [r**-4 * p.mu for p in unit.points]
        assert all(np.finfo(float).tiny <= abs(p.mu) < np.inf for p in search.points)


@pytest.mark.parametrize("r", [1e-80, 1e77, 1e80, 1e100])
def test_sphere_search_refuses_a_radius_where_scaled_mu_leaves_the_normal_doubles(r):
    # r^-4 mu overflows at 1e-80; at 1e77 and 1e80 it is subnormal, at 1e100 zero
    with pytest.raises(RadiusRangeError, match=re.escape(f"radius {r:.3g} is out of range: r^-4 mu")):
        sphere_search(degree_five_form(), r, 20, 0)


@pytest.mark.parametrize("x", [1e50, 1e100])
def test_point_at_refuses_a_point_where_f_overflows(x):
    # the z1 axis is contact (f2 = 0 there), but the rounding scale of f,
    # whose f1 = 6 z1^5, is not finite; warnings are errors here
    form = degree_five_form()
    for refuse in (fc.point_at, fc.contact_residual):
        with pytest.raises(RadiusRangeError, match="rounding scale is non-finite"):
            refuse(form, [x, 0.0])
    assert fc.point_at(form, [1e30, 0.0]).residual <= 1e-15


def test_point_at_refuses_a_point_whose_square_overflows():
    # f = (1, 2) of d(z1 + 2 z2) has a finite rounding scale everywhere, but
    # |z|^2 overflows at 1e155 (1, 2), where point_at reported radius inf
    # and residual 0, with warnings (errors here)
    form = fc.Polynomial(2, [(1.0, (1, 0)), (2.0, (0, 1))]).differential()
    for refuse in (fc.point_at, fc.contact_residual):
        with pytest.raises(RadiusRangeError, match="squared norm is non-finite"):
            refuse(form, [1e155, 2e155])
    assert fc.point_at(form, [1e153, 2e153]).residual <= 1e-15


def test_sphere_search_rejects_zero_form():
    zero = fc.PolyOneForm([fc.Polynomial(2, []), fc.Polynomial(2, [])])
    with pytest.raises(SingularGradientError):
        sphere_search(zero, 1.0, 5, 0)


def test_solve_on_sphere_diag(form321):
    points = sphere_search(form321, 1.0, 50, 1234).points
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


@pytest.mark.parametrize("r", [1e-10, 1e-14])
def test_non_homogeneous_form_at_small_radius(r):
    # d(z1^2/2 + z2^2 + z1^3/3) is solved at r itself: with a Newton target
    # absolute in r no seed converged at these radii
    g = fc.Polynomial(2, [(0.5, (2, 0)), (1.0, (0, 2)), (1 / 3, (3, 0))])
    form = g.differential()
    search = sphere_search(form, r, 20, 0)
    assert search.seeds_converged == 20 and len(search.points) == 2
    for p in search.points:  # the contact points lie on the two axes
        assert abs(np.linalg.norm(p.z) - r) <= 1e-10 * r
        assert p.residual <= 1e-12
        assert min(axis_distance(p.z, j) for j in range(2)) <= 1e-12 * r
    path = fc.continue_radially(form, search.points[0], r / 10, 10 * r, 8)
    assert not path.truncated and len(path.points) == 9
    for p in path.points:
        assert p.residual <= 1e-12


@pytest.mark.parametrize("r", [5.0, 1e5, 1e10, 1e30])
def test_non_homogeneous_form_finds_both_axes_at_any_radius(r):
    # a Newton stagnation bound absolute in r, checked before the contact
    # verdict, dropped these axis points from r = 5 on and every point from
    # r = 1e5 on; at 1e30 the kernel's norms overflowed with warnings, which
    # are errors here
    search = sphere_search(mixed_degree_five_form(), r, 20, 0)
    assert search.seeds_converged == 20 and len(search.points) >= 8
    for j in range(2):
        assert any(axis_distance(p.z, j) <= 1e-9 * r for p in search.points)
    for p in search.points:
        assert p.radius == r and p.residual <= 1e-15


def test_non_homogeneous_search_refuses_a_radius_where_f_overflows():
    # f's rounding scale overflows at every seed of radius 1e40; warnings
    # are errors here
    with pytest.raises(RadiusRangeError, match="radius 1e\\+40 is out of range: f's rounding scale is non-finite"):
        sphere_search(mixed_degree_five_form(), 1e40, 20, 0)


def _huge_squares() -> fc.PolyOneForm:
    """f = 3e300 (z1^2, z2^2, z3^2): homogeneous, and its rounding scale overflows on the unit sphere."""
    return fc.PolyOneForm([fc.Polynomial(3, [(3e300, tuple(2 * np.eye(3, dtype=int)[j]))]) for j in range(3)])


def test_search_and_scan_refuse_a_homogeneous_form_whose_scale_overflows(tmp_path):
    # f = 3e300 (z1^2, z2^2, z3^2) is homogeneous, so both sample the unit
    # sphere, where f's rounding scale already overflows: the search
    # reported no point, exit 0, a clean negative, where the scan refused
    # it; both refuse it now, from one sampling rule (warnings are errors)
    form = _huge_squares()
    with pytest.raises(RadiusRangeError, match="rounding scale is non-finite"):
        sphere_search(form, 1.0, 20, 0)
    with pytest.raises(RadiusRangeError, match="rounding scale is non-finite"):
        fc.transversality_scan(form, 1.0, 20, 0)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_json(form)))
    for command in ("contact-solve", "scan"):
        code, out, err = run_cli([command, "--input", str(path)])
        assert (code, out) == (3, "") and "rounding scale is non-finite" in err


@pytest.mark.parametrize("r", [1e-3, 5.0])
def test_a_homogeneous_scale_overflow_names_the_unit_sphere(tmp_path, r):
    # the form is sampled on the unit sphere at every radius, so every
    # radius fails; the refusal named the radius asked for ("radius 0.001
    # is out of range"), as if another radius could pass
    form = _huge_squares()
    for refuse in (sphere_search, fc.transversality_scan):
        with pytest.raises(RadiusRangeError, match="the unit sphere, where a homogeneous form is sampled,") as info:
            refuse(form, r, 20, 0)
        assert f"radius {r:.3g}" not in str(info.value)
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form_to_json(form)))
    for command in ("contact-solve", "scan"):
        code, out, err = run_cli([command, "--input", str(path), "--radius", repr(r)])
        assert (code, out) == (3, "") and "the unit sphere" in err and f"radius {r:.3g}" not in err


def _scaled(form: fc.PolyOneForm, c: float) -> fc.PolyOneForm:
    """c times form: the same contact set, with every coefficient scaled."""
    return fc.PolyOneForm([fc.Polynomial(form.n, [(c * a, e) for a, e in f.terms]) for f in form.coeffs])


@pytest.mark.parametrize("c", [1e4, 1e8, 1e12])
def test_sphere_search_does_not_depend_on_the_size_of_the_form(c, cubic3, form321):
    # c f has the contact points of f; with a Newton stagnation bound the
    # cubic lost 7 or 8 of its 21 orbits here, from 28-38 converged seeds
    for form, orbits in ((cubic3.differential(), 21), (form321, 3)):
        unit = sphere_search(form, 1.0, 200, 0)
        search = sphere_search(_scaled(form, c), 1.0, 200, 0)
        assert len(search.points) == len(unit.points) == orbits
        assert search.seeds_converged >= unit.seeds_converged >= 199
        for p in search.points:
            assert min(aligned_distance(p.z, q.z) for q in unit.points) <= 1e-9


def test_solve_on_sphere_identity_phase_structure():
    ident = fc.linear_form(fc.SymMatrix(np.eye(3, dtype=complex)))
    points = sphere_search(ident, 1.0, 40, 97).points
    assert points
    for p in points:
        args = [np.angle(v) for v in p.z if abs(v) > 1e-8]
        for a in args[1:]:
            d = (a - args[0]) % np.pi
            assert min(d, np.pi - d) <= 1e-7


def test_solver_determinism(form321):
    a = sphere_search(form321, 1.0, 30, 55).points
    b = sphere_search(form321, 1.0, 30, 55).points
    assert len(a) == len(b)
    for p, q in zip(a, b):
        assert np.array_equal(p.z, q.z)
        assert p.mu == q.mu and p.residual == q.residual


def test_seed_stream_is_prefix_stable():
    small = sphere_seeds(3, 10, 42, 1.0)
    large = sphere_seeds(3, 100, 42, 1.0)
    assert np.array_equal(small, large[:10])


def test_merge_is_order_independent(form321):
    points = sphere_search(form321, 1.0, 30, 3).points
    # rebuild unmerged phase copies and shuffle
    raw = []
    for k, p in enumerate(points):
        for phase in (1.0, np.exp(0.3j), np.exp(2.1j)):
            z = p.z * phase
            raw.append(
                fc.ContactPoint(
                    z=z,
                    mu=fc.point_at(form321, z).mu,
                    radius=p.radius,
                    residual=fc.contact_residual(form321, z),
                )
            )
    rng = np.random.default_rng(9)
    for _ in range(3):
        perm = rng.permutation(len(raw))
        merged = _merged([raw[i] for i in perm], dedup_tol=1e-6)
        assert len(merged) == len(points)
        keys = sorted(tuple(np.round(np.abs(q.z), 8)) for q in merged)
        ref = sorted(tuple(np.round(np.abs(q.z), 8)) for q in points)
        assert keys == ref


def _merged(points, dedup_tol):
    """The points _merge_points reports, from the row indices it returns (n = 3)."""
    return [points[i] for i in _merge_points(np.array([p.z for p in points]).reshape(-1, 3), dedup_tol)]


def _merge_reference(points, dedup_tol):
    """Pairwise union-find over the same Gram distance; the merged points."""
    parent = list(range(len(points)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, p in enumerate(points):
        for j in range(i + 1, len(points)):
            w = points[j].z
            d2 = np.sum(np.abs(p.z) ** 2) + np.sum(np.abs(w) ** 2) - 2.0 * abs(np.sum(p.z * w.conj()))
            if d2 < dedup_tol**2:
                parent[root(i)] = root(j)
    clusters = {}
    for i, p in enumerate(points):
        clusters.setdefault(root(i), []).append(p)

    def key(p):
        return tuple(np.round(np.concatenate([p.z.real, p.z.imag]), 9)), tuple(
            np.concatenate([p.z.real, p.z.imag])
        )

    return sorted((min(group, key=key) for group in clusters.values()), key=key)


def _points(Z):
    return [fc.ContactPoint(z=z, mu=1.0, radius=1.0, residual=0.0) for z in Z]


def test_merge_points_matches_pairwise_union_find():
    tol = 1e-6
    e1, e2, e3 = np.eye(3, dtype=complex)
    # a chain of points 0.75 tol apart, so that only neighbours are joined,
    # with a rotated copy of one link; a lone point, an exact duplicate pair
    # and random phase copies
    chain = [e1 + 0.75 * k * tol * e2 for k in range(8)] + [np.exp(2j) * (e1 + 0.75 * tol * e2)]
    twins = [e3 / np.sqrt(2) + e2 / np.sqrt(2)] * 2
    rng = np.random.default_rng(21)
    base = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    copies = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * base[k % 5] for k in range(20)]
    cases = [[], [e2], chain, twins, chain + [e3] + twins + copies]
    for Z in cases:
        for order in [None] + [rng.permutation(len(Z)) for _ in range(4)]:
            points = _points(Z if order is None else [Z[i] for i in order])
            got, want = _merged(points, tol), _merge_reference(points, tol)
            assert [p.z.tolist() for p in got] == [p.z.tolist() for p in want]
    assert len(_merged(_points(chain), tol)) == 1
    assert len(_merged(_points(cases[-1]), tol)) == 1 + 1 + 1 + 5


def test_merge_points_memory_stays_below_the_gram_matrix():
    # 1024 orbits, 4 phase copies each: an m x m complex Gram matrix would
    # take 4096^2 * 16 bytes = 268 MB
    rng = np.random.default_rng(5)
    base = rng.standard_normal((1024, 3)) + 1j * rng.standard_normal((1024, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 1024, 1)))
    Z = (phases * base).reshape(-1, 3)
    tracemalloc.start()
    try:
        merged = _merge_points(Z, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(merged) == 1024
    assert peak < 268e6 / 10


def test_aligned_distance_resolves_close_points():
    # |z|^2 + |w|^2 - 2|<z, w>| cancels to a floor of about 1.5e-8 |z|
    # and read 0.0 for both pairs
    rng = np.random.default_rng(12)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z /= np.linalg.norm(z)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v -= np.vdot(z, v) * z  # orthogonal to z: the aligned distance is |v|
    v *= 1.7e-10 / np.linalg.norm(v)
    w = np.exp(0.7j) * (z + v)
    assert aligned_distance(z, w) == pytest.approx(1.7e-10, rel=1e-5)
    assert aligned_distance(z, z * (1 + 1e-12)) == pytest.approx(1e-12, rel=1e-3)
    assert aligned_distance(z, np.zeros(4)) == pytest.approx(1.0)


def test_aligned_distance_of_a_subnormal_or_overflowing_overlap():
    # <w, z> = 1e-320 is subnormal: s/|s| overflowed to nan, with warnings
    # (errors here), which would fail any distance bound the tests take
    # with it. An overlap whose modulus overflows, though its parts do not,
    # took the phase 0
    z, w = np.array([1.0, 0.0j]), np.array([1e-320, 1.0 + 0.0j])
    assert aligned_distance(z, w) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    z, w = np.array([1e154, 0.0j]), np.array([1.3e154 * (1 - 1j), 0.0])
    assert aligned_distance(z, w) == pytest.approx((1.3 * np.sqrt(2.0) - 1.0) * 1e154, rel=1e-14)


def test_ratio_spread_at_accepted_points():
    # on accepted points with all coordinates active, the defining ratios agree
    ident = fc.linear_form(fc.SymMatrix(np.eye(3, dtype=complex)))
    tol = 1e-9
    points = sphere_search(ident, 1.0, 60, 11, tol=tol).points
    checked = 0
    for p in points:
        if np.min(np.abs(p.z)) < 0.2:
            continue
        ratios = ident.evaluate(p.z) / p.z.conj()
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


def _mixed_form() -> fc.PolyOneForm:
    """d(z1^2/2 + z2^2 + z1^3/3): not homogeneous, so traced by the corrector."""
    return fc.Polynomial(2, [(0.5, (2, 0)), (1.0, (0, 2)), (1 / 3, (3, 0))]).differential()


def _record_evaluations(form, monkeypatch) -> list:
    """Record each evaluation of form: True/False for evaluate of one point
    or a stack, ("scaled", ndim) for evaluate_scaled."""
    calls = []
    evaluate, scaled = form.evaluate, form.evaluate_scaled
    monkeypatch.setattr(form, "evaluate", lambda z: calls.append(np.ndim(z) == 1) or evaluate(z))
    monkeypatch.setattr(form, "evaluate_scaled", lambda z: calls.append(("scaled", np.ndim(z))) or scaled(z))
    return calls


def test_continue_radially_evaluates_form_once_per_radius(monkeypatch):
    # the corrector's Newton kernel evaluates stacks; f at each prediction,
    # the kernel's start, and f and the rounding scale of each accepted
    # point each come from one build of that point
    form = _mixed_form()
    start = fc.point_at(form, [0.0, 0.5])
    calls = _record_evaluations(form, monkeypatch)
    path = fc.continue_radially(form, start, 0.1, 2.0, 15)
    monkeypatch.undo()
    accepted = len(path.points) - 1
    assert calls.count(True) == 0 and calls.count(("scaled", 2)) == 2 * accepted == 30
    for p in path.points[1:]:
        assert p.residual == fc.contact_residual(form, p.z) and p.mu == fc.point_at(form, p.z).mu


def test_continue_radially_scales_a_homogeneous_start(form321, monkeypatch):
    # the contact set of a homogeneous form is a cone: no radius is solved,
    # and each direction's points are checked by one stacked evaluation
    start = sphere_search(form321, 1.0, 20, 0).points[0]
    newton_calls = []
    monkeypatch.setattr(contact, "_newton_on_sphere", lambda *args: newton_calls.append(args))
    calls = _record_evaluations(form321, monkeypatch)
    path = fc.continue_radially(form321, start, 0.1, 2.0, 15)
    monkeypatch.undo()
    assert newton_calls == [] and calls == [("scaled", 2)] * 2
    assert not path.truncated and len(path.points) == 16
    for p in path.points:
        assert np.array_equal(p.z, start.z * (p.radius / start.radius))
        # a stacked product may differ from a one-row product in the last
        # bit; the residual is relative to |z| already
        assert p.mu == pytest.approx(fc.point_at(form321, p.z).mu, rel=1e-14, abs=0)
        assert abs(p.residual - fc.contact_residual(form321, p.z)) <= 1e-14


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_solvers_refuse_a_tolerance_that_is_not_positive(form321, tol):
    # no point could pass it: an empty answer would look like a clean result
    with pytest.raises(ValueError, match="tolerance"):
        fc.sphere_search(form321, 1.0, 5, 0, tol)
    start = fc.point_at(form321, [0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="tolerance"):
        fc.continue_radially(form321, start, 0.1, 2.0, 10, tol)


def test_start_point_is_judged_by_the_callers_tol(form321):
    # residual 5e-9: above ACCEPT_TOL, within 1e-6; every path point meets tol
    start = fc.point_at(form321, [1e-8, 1.0, 0.0])
    assert start.residual == pytest.approx(5e-9)
    path = fc.continue_radially(form321, start, 0.1, 2.0, 6, tol=1e-6)
    assert not path.truncated and all(p.residual <= 1e-6 for p in path.points)
    assert radially_invariant(form321, start, [0.5, 1j], 1e-6)
    # residual 5e-10: within ACCEPT_TOL, above 1e-10
    start = fc.point_at(form321, [1e-9, 1.0, 0.0])
    assert start.residual == pytest.approx(5e-10)
    with pytest.raises(ValueError, match="not a contact point"):
        fc.continue_radially(form321, start, 0.1, 2.0, 6, tol=1e-10)


def test_continue_radially_truncates_at_a_singular_grid_point():
    # d((z1^2 + z2^2)/2 - z1^3/3) is singular at (1, 0), where the real-axis
    # branch from (0.7, 0) meets the grid radius 1: a corrector failure
    form = fc.PolyOneForm(
        [fc.Polynomial(2, [(1.0, (1, 0)), (-1.0, (2, 0))]), fc.Polynomial(2, [(1.0, (0, 1))])]
    )
    start = fc.point_at(form, [0.7, 0.0])
    path = fc.continue_radially(form, start, 0.5, 2.0, 3)
    assert path.truncated and path.truncation_radius == 1.0
    assert [p.radius for p in path.points] == [0.5, 0.7]


@pytest.mark.parametrize("window", [(0.2, 1.2), (0.4, 0.6), (0.15, 0.6)])
def test_continue_radially_keeps_the_points_inside_a_corrector_window(window, monkeypatch):
    # the corrector fails outside [lo, hi]: both directions truncate at
    # their first failing radius, the path keeps exactly the radii inside,
    # and truncation_radius is the failing radius nearest the start (below
    # it for the first two windows, above it for the third)
    lo, hi = window
    newton = contact._newton_on_sphere

    def windowed(form, Z0, F0, r, tol):
        found = newton(form, Z0, F0, r, tol)
        return found if lo <= r <= hi else tuple(part[:0] for part in found)

    monkeypatch.setattr(contact, "_newton_on_sphere", windowed)
    form = _mixed_form()
    start = fc.point_at(form, [0.0, 0.5])
    grid = np.geomspace(0.1, 2.0, 15)
    path = fc.continue_radially(form, start, 0.1, 2.0, 15)
    inside = grid[(lo <= grid) & (grid <= hi)]
    outside = grid[(grid < lo) | (grid > hi)]
    assert outside.min() < 0.5 < outside.max()  # both directions truncate
    assert path.truncated and path.truncation_radius == float(outside[np.argmin(np.abs(outside - 0.5))])
    assert [p.radius for p in path.points] == sorted([float(r) for r in inside] + [0.5])


@pytest.mark.parametrize("r_min, r_max, bad", [(1e-170, 2.0, 1e-170), (0.1, 1e200, 1e200)])
def test_continue_radially_refuses_radii_out_of_range(form321, r_min, r_max, bad):
    # their squares are not normal doubles: the trace would lose its line
    # to overflow and read as truncated
    start = fc.point_at(form321, [1.0, 0.0, 0.0])
    with pytest.raises(RadiusRangeError, match=re.escape(f"radius {bad:.3g} is out of range")):
        fc.continue_radially(form321, start, r_min, r_max, 20)


def test_continue_radially_over_the_full_radius_range(form321):
    start = fc.point_at(form321, [1.0, 0.0, 0.0])
    grid = np.geomspace(1e-150, 1e150, 21)
    path = fc.continue_radially(form321, start, 1e-150, 1e150, 21)
    assert not path.truncated and path.truncation_radius is None
    assert len(path.points) == 1 + np.count_nonzero(grid != 1.0)
    assert path.points[0].radius == 1e-150 and path.points[-1].radius == 1e150
    for p in path.points:
        assert p.residual <= 1e-9 and axis_distance(p.z, 0) <= 1e-9 * p.radius


def test_continue_radially_from_a_search_start_over_the_full_radius_range(form321):
    # a generic-phase start: the per-radius corrector lost this line at 1e15
    start = sphere_search(form321, 1.0, 20, 0).points[0]
    path = fc.continue_radially(form321, start, 1e-150, 1e150, 21)
    assert not path.truncated and len(path.points) == 21
    for p in path.points:
        assert p.residual <= 1e-9 and fc.contact_residual(form321, p.z) <= 1e-9
        assert aligned_distance(p.z / p.radius, start.z / start.radius) <= 1e-14


def test_continue_radially_degree_four_form_is_untruncated():
    # f of degree 4: the corrector's absolute rounding floor r^4 eps passed
    # its target 1e-13 r near r = 7 and truncated this trace at 7.2
    form = random_exact_form(np.random.default_rng(0), 2, 5)
    assert form.homogeneous_degree() == 4
    start = sphere_search(form, 1.0, 20, 0).points[1]
    path = fc.continue_radially(form, start, 0.1, 10.0, 15)
    assert not path.truncated and len(path.points) == 15
    assert path.points[0].radius == 0.1 and path.points[-1].radius == 10.0
    for p in path.points:
        assert p.residual <= 1e-9 and fc.contact_residual(form, p.z) <= 1e-12


def test_continue_radially_corrector_follows_an_axis_where_f_is_large():
    # d(2 z1^5 + 2 z2^5 + z1^2 z2^3 + z1^2/2 + z2^2): the whole z1 axis is
    # contact (f2 = 0 there), but from r = 7.2 on the corrector's Newton
    # solve stalls at f's rounding floor, above its target 1e-13 r, and a
    # norm test ahead of the contact verdict truncated the trace there
    g = fc.Polynomial(2, [(2.0, (5, 0)), (2.0, (0, 5)), (1.0, (2, 3)), (0.5, (2, 0)), (1.0, (0, 2))])
    form = g.differential()
    direction = np.array([-0.964 - 0.267j, 0.0])
    start = fc.point_at(form, direction / np.linalg.norm(direction))
    path = fc.continue_radially(form, start, 0.1, 10.0, 15)
    assert not path.truncated and len(path.points) == 15
    for p in path.points:
        assert p.residual <= 1e-9 and axis_distance(p.z, 0) <= 1e-9 * p.radius


@pytest.mark.parametrize("r_max", [1e10, 1e30, 1e60])
def test_continue_radially_corrector_runs_until_f_overflows(r_max):
    # the z1 axis of a non-homogeneous form, traced up to the radius where
    # f's rounding scale overflows (from about 3e30 on) and no further;
    # warnings are errors here
    form = mixed_degree_five_form()
    path = fc.continue_radially(form, fc.point_at(form, [1.0, 0.0]), 0.1, r_max, 40)
    for p in path.points:
        assert p.residual <= 1e-15 and axis_distance(p.z, 0) <= 1e-9 * p.radius
    if r_max < 1e31:
        assert not path.truncated and len(path.points) == 41
    else:
        last, r_fail = path.points[-1].radius, path.truncation_radius
        assert np.isfinite(form.evaluate_scaled(np.array([last, 0.0]))[1])
        assert not np.isfinite(form.evaluate_scaled(np.array([r_fail, 0.0]))[1])


def test_continue_radially_corrector_truncates_where_the_branch_jumps(monkeypatch):
    # both axes of the form are contact on every sphere; at one radius the
    # corrector is made to land on the z2 axis, a contact point r sqrt(2)
    # from its prediction on the z1 axis: a jump to another branch, so the
    # trace ends there and keeps the points before it
    form = mixed_degree_five_form()
    start = fc.point_at(form, [1.0, 0.0])
    whole = fc.continue_radially(form, start, 0.1, 10.0, 12)
    assert not whole.truncated
    up = [p.radius for p in whole.points if p.radius > start.radius]
    r_jump = up[2]
    newton = contact._newton_on_sphere

    def jumping(form, Z0, F0, r, tol):
        if r != r_jump:
            return newton(form, Z0, F0, r, tol)
        Z = np.array([[0.0, r]], dtype=complex)
        return newton(form, Z, form.evaluate_scaled(Z)[0], r, tol)

    monkeypatch.setattr(contact, "_newton_on_sphere", jumping)
    path = fc.continue_radially(form, start, 0.1, 10.0, 12)
    assert path.truncated and path.truncation_radius == r_jump
    kept = [p for p in whole.points if p.radius < r_jump]
    assert [p.radius for p in path.points] == [p.radius for p in kept]
    for p, q in zip(path.points, kept):
        assert np.array_equal(p.z, q.z) and (p.mu, p.residual) == (q.mu, q.residual)


@pytest.mark.parametrize("r_min, r_max, r_fail", [(1e-150, 1e150, 1e-90), (1e-100, 1e100, 1e-80)])
def test_continue_radially_truncates_the_cubic_where_f_underflows(cubic3, r_min, r_max, r_fail):
    # f = 3 z^2: at r_fail |f|^2 is below the normal doubles (the gradient is
    # singular to rounding, or the residual is rounding noise); above the
    # start |f|^2 overflows at 1 / r_fail, farther away. Warnings are errors
    # here, so no overflow may warn
    form = cubic3.differential()
    start = sphere_search(form, 1.0, 20, 0).points[0]
    path = fc.continue_radially(form, start, r_min, r_max, 21)
    assert path.truncated and path.truncation_radius == r_fail
    f = form.evaluate(start.z * r_fail)
    assert np.sum(np.abs(f) ** 2) < np.finfo(float).tiny
    grid = np.geomspace(r_min, r_max, 21)
    kept = grid[(grid > r_fail) & (grid < 1.0 / r_fail) & (grid != 1.0)]
    assert [p.radius for p in path.points] == sorted([float(r) for r in kept] + [1.0])


def test_form_id_is_pinned(form321, cubic3):
    # the ids reports carry: the hash of each coefficient's terms in order
    assert contact.form_id(form321) == "cc1c9b2e8357"
    assert contact.form_id(cubic3.differential()) == "cd6bb6b02f3c"
    assert contact.form_id(fc.symplectic_form(4)) == "fa80f88c1af1"


def test_radial_invariance_examples(form321, cubic3):
    # a homogeneous form's contact variety is invariant under z -> z e^T, T complex
    p = fc.point_at(form321, [0.7, 0.0, 0.0])
    assert radially_invariant(form321, p, [1.0, 1j, 1 + 1j], 1e-9)

    form = cubic3.differential()
    q = fc.point_at(form, [0.8, 0.0, 0.0])
    assert radially_invariant(form, q, [1j * np.pi / 4], 1e-9)


def test_radial_invariance_raises_at_a_singular_scaled_point(cubic3):
    # f = 3 z^2 is homogeneous, so it vanishes on the orbit of a contact point
    # only by underflow: at |z| ~ 1e-100, |f|^2 and the rounding scale's
    # square round to 0, so the gradient vanishes to rounding there, and the
    # radial trace through the point truncates where that begins
    form = cubic3.differential()
    p = fc.point_at(form, [0.8, 0.0, 0.0])
    assert radially_invariant(form, p, [0.5, 1j], 1e-9)
    with pytest.raises(SingularGradientError):
        fc.point_at(form, p.z * np.exp(-230.0))
    with pytest.raises(ValueError):  # e^T underflows: the scaled point is 0
        fc.point_at(form, p.z * np.exp(-800.0))
    path = fc.continue_radially(form, p, 1e-120, 2.0, 40)
    assert path.truncated and path.truncation_radius == pytest.approx(1.26e-80, rel=1e-3)


def test_radial_invariance_property_on_solved_points(cubic3):
    form = cubic3.differential()
    grid = [0.5, 1j, 1 + 1j, 1j * np.pi / 4]
    for p in sphere_search(form, 1.0, 30, 2718).points:
        assert radially_invariant(form, p, grid, 1e-9)


def test_oracle_equivalence_small(form321):
    rng = np.random.default_rng(31)
    for _ in range(8):
        A = random_morse(rng, 3)
        _, lineset = fc.analyze(A)
        form = fc.linear_form(A)
        pts = sphere_search(form, 1.0, 50, int(rng.integers(0, 2**31))).points
        for p in pts:
            d = min(
                np.linalg.norm(p.z - np.sum(p.z * l.direction.conj()) * l.direction)
                for l in lineset.lines
            )
            assert d <= 1e-6


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda form: sphere_search(form, 0.0, 8, 0), "radius must be positive"),
        (lambda form: sphere_search(form, -1.0, 8, 0), "radius must be positive"),
        # NaN is bad input, as for a tolerance, not a radius out of range
        (lambda form: sphere_search(form, np.nan, 8, 0), "radius must be positive"),
        (lambda form: fc.transversality_scan(form, np.nan, 10, 0), "radius must be positive"),
        (lambda form: sphere_search(form, 1.0, 0, 0), "at least one seed"),
        (
            lambda form: fc.continue_radially(form, fc.point_at(form, [1.0, 0.0, 0.0]), 0.1, 2.0, 1),
            "at least two continuation steps",
        ),
    ],
    ids=["zero radius", "negative radius", "nan radius", "nan scan radius", "no seed", "one step"],
)
def test_contact_refusals(form321, call, fragment):
    with pytest.raises(ValueError, match=fragment) as exc:
        call(form321)
    assert type(exc.value) is ValueError
