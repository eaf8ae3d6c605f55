"""Contact residuals, sphere solving, continuation, radial invariance."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import folcontact as fc
from folcontact import contact
from folcontact.contact import (
    _aligned_distance,
    _contact_system,
    _damped_newton,
    _merge_points,
    _newton_on_sphere,
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


# arctan(u) = 0 from these starts needs 0, 1, 2, 3, 7, 15, 30 and more than
# NEWTON_MAX_HALVINGS halvings on its first step (the full step overshoots
# to about -pi u^2 / 2); 0.0 starts at the root
ARCTAN_STARTS = [0.5, 2.0, 3.0, 6.0, 100.0, 3e4, 1e9, 1e10, 0.0]
FIRST_HALVINGS = [0, 1, 2, 3, 7, 15, 30, None, None]


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
    assert np.isinf(norm[7]) and np.all(np.delete(norm, 7) <= 1e-12)
    # at most five residual calls per Newton step; on the first step a row
    # that needs k halvings evaluates at most 2k + 1 trial points, and the
    # failing row all NEWTON_MAX_HALVINGS + 1 of them
    assert all(len(step) <= 5 for step in steps)
    first = np.concatenate(steps[0])
    for s, k in enumerate(FIRST_HALVINGS[:-1]):
        evaluated = np.count_nonzero(first == s)
        assert 1 <= evaluated <= (2 * k + 1 if k is not None else contact.NEWTON_MAX_HALVINGS + 1)
    assert np.count_nonzero(first == 7) == contact.NEWTON_MAX_HALVINGS + 1
    assert np.count_nonzero(first == 8) == 0


def test_stacked_rows_match_rows_solved_alone(cubic3):
    for form in (fc.linear_form(random_morse(np.random.default_rng(2), 4)), cubic3.differential()):
        seeds = sphere_seeds(form.n, 12, 5)
        Z, ok = _newton_on_sphere(form, seeds, 1.0)
        assert ok.sum() >= 6
        for s in range(len(seeds)):
            z1, ok1 = _newton_on_sphere(form, seeds[s : s + 1], 1.0)
            assert ok1[0] == ok[s]
            if ok[s]:
                assert np.abs(z1[0] - Z[s]).max() <= 1e-12


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


def test_singular_gradient_at_origin_zero_form_and_cancelling_terms(form321):
    with pytest.raises(SingularGradientError):
        fc.mu_of(form321, [0.0, 0.0, 0.0])
    zero = fc.PolyOneForm([fc.Polynomial(2, []), fc.Polynomial(2, [])])
    with pytest.raises(SingularGradientError):
        fc.mu_of(zero, [1.0, 0.5])
    # (z1 - 1) dz1 + 0 dz2: the terms cancel exactly at (1, 0) but not at
    # (1 + 1e-10, 0), where f = (1e-10, 0) is far above their rounding
    step = fc.PolyOneForm([fc.Polynomial(2, [(1.0, (1, 0)), (-1.0, (0, 0))]), fc.Polynomial(2, [])])
    with pytest.raises(SingularGradientError):
        fc.point_at(step, [1.0, 0.0])
    p = fc.point_at(step, [1.0 + 1e-10, 0.0])
    assert p.residual <= 1e-15


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
            got, want = _merge_points(points, tol), _merge_reference(points, tol)
            assert [p.z.tolist() for p in got] == [p.z.tolist() for p in want]
    assert len(_merge_points(_points(chain), tol)) == 1
    assert len(_merge_points(_points(cases[-1]), tol)) == 1 + 1 + 1 + 5


def test_merge_points_memory_stays_below_the_gram_matrix():
    # 1024 orbits, 4 phase copies each: an m x m complex Gram matrix would
    # take 4096^2 * 16 bytes = 268 MB
    rng = np.random.default_rng(5)
    base = rng.standard_normal((1024, 3)) + 1j * rng.standard_normal((1024, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 1024, 1)))
    points = _points((phases * base).reshape(-1, 3))
    tracemalloc.start()
    try:
        merged = _merge_points(points, 1e-6)
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
    assert _aligned_distance(z, w) == pytest.approx(1.7e-10, rel=1e-5)
    assert _aligned_distance(z, z * (1 + 1e-12)) == pytest.approx(1e-12, rel=1e-3)
    assert _aligned_distance(z, np.zeros(4)) == pytest.approx(1.0)


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


def test_continue_radially_evaluates_form_once_per_radius(form321, monkeypatch):
    start = fc.point_at(form321, [0.0, 0.5, 0.0])
    single = []  # single-point evaluations: the Newton kernel evaluates stacks
    evaluate, scale = form321.evaluate, form321.rounding_scale
    monkeypatch.setattr(form321, "evaluate", lambda z: single.append(np.ndim(z) == 1) or evaluate(z))
    monkeypatch.setattr(form321, "rounding_scale", lambda z: single.append("scale") or scale(z))
    path = fc.continue_radially(form321, start, 0.1, 2.0, 15)
    monkeypatch.undo()
    accepted = len(path.points) - 1
    assert single.count(True) == single.count("scale") == accepted == 15
    for p in path.points[1:]:
        assert p.residual == fc.contact_residual(form321, p.z) and p.mu == fc.mu_of(form321, p.z)


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


def test_radial_invariance_raises_at_a_singular_scaled_point(cubic3):
    # f = 3 z^2 is homogeneous, so it vanishes on the orbit of a contact point
    # only by underflow: at |z| ~ 1e-100, |f|^2 and the rounding scale's
    # square round to 0, so the gradient vanishes to rounding there
    form = cubic3.differential()
    p = fc.point_at(form, [0.8, 0.0, 0.0])
    assert fc.radial_invariance_check(form, p, [0.5, 1j], 1e-9)
    for T_samples in ([0.5, -230.0], [-230.0, 0.5]):
        with pytest.raises(SingularGradientError):
            fc.radial_invariance_check(form, p, T_samples, 1e-9)
    with pytest.raises(ValueError):  # e^T underflows: the scaled point is 0
        fc.radial_invariance_check(form, p, [0.5, -800.0], 1e-9)


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
