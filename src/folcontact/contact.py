"""Contact equations of a one-form against spheres centered at the origin.

A point z != 0 is a contact point when the radial field equals a complex
multiple of the gradient of the form, z = mu * conj(f(z)); equivalently the
ratios f_j(z)/conj(z_j) all agree. The multiplier mu is always computed by
its least-squares formula

    mu(z) = <z, conj(f(z))> / ||f(z)||^2 = sum_j z_j f_j(z) / sum_j |f_j(z)|^2

so the residual ||z - mu conj(f)|| / |z| is independent of any solver state.
It is undefined where f(z) is zero to rounding, ||f(z)|| <= 1e-14 times
the form's rounding scale ||(|C| |z|^E)|| at z (see
PolyOneForm.rounding_scale): a test relative to the size of the terms,
so it holds at any |z|.

`_field` is the one place where f, mu, w = z - mu conj(f) and that test are
computed, for a point or a stack, from one form evaluation. Its callers pick
what a singular point means: mu_of, contact_residual and point_at raise
SingularGradientError, sphere_search drops the row.

The sphere solver works on the real system in 2n+2 unknowns
(Re z, Im z, Re mu, Im mu):

    z - mu conj(f(z)) = 0          (2n real equations)
    |z|^2 - r^2       = 0
    Im <z, anchor>    = 0          (kills the phase orbit through a solution)

with damped Newton iteration from reproducible random sphere seeds. The
iteration is `_damped_newton`, the one Newton kernel of the library, which
runs a stack of starting points together: each row keeps its own Newton
sequence, line search and stopping rule, and a row that fails drops out
alone. It builds the Jacobians once per Newton step, at the iterates the
step starts from, and its line search evaluates only residuals: Armijo
backtracking whose trial steps 2^-h are tried in doubling chunks of h,
one residual call per chunk, so a step makes at most five calls.
`sphere_search` hands it the seeds in blocks of SEED_BLOCK rows, so memory
does not grow with the seed count; `continue_radially` and the leaf polish
in leaf.py call it with a stack of one. The points found are merged into
phase orbits from Gram products in blocks of SEED_BLOCK rows against all
m points, so the merge needs O(SEED_BLOCK m) memory, never m^2.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import PolyOneForm, as_cvec, jacobian_form
from .errors import NonHomogeneousFormError, RadiusRangeError, SingularGradientError

ACCEPT_TOL = 1e-9
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30
# Seeds per stacked Newton solve in sphere_search, and rows per Gram block
# of its merge.
SEED_BLOCK = 64


@dataclass
class ContactPoint:
    """An (approximate) solution of the contact equations."""

    z: np.ndarray
    mu: complex
    radius: float
    residual: float
    leaf_value: complex | None = None
    morse_index: int | None = None

    @property
    def accepted(self) -> bool:
        return self.residual <= ACCEPT_TOL


@dataclass
class ContactPath:
    """Radial continuation record; points have strictly monotone radius."""

    points: list[ContactPoint]
    form_id: str
    truncated: bool = False
    truncation_radius: float | None = None


@dataclass
class SphereSearch:
    """Result of a multi-seed sphere solve, with seed diagnostics."""

    points: list[ContactPoint] = field(default_factory=list)
    seeds_tried: int = 0
    seeds_converged: int = 0


def form_id(form: PolyOneForm) -> str:
    """Stable short identifier of a form (hash of its canonical term list)."""
    payload = [
        [[c.real, c.imag, list(e)] for c, e in f.terms] for f in form.coeffs
    ]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    return digest[:12]


def _gradient_vanishes(form: PolyOneForm, z: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Where f = f(z) is zero to rounding, per point of a batch (..., n)."""
    return np.linalg.norm(f, axis=-1) <= 1e-14 * form.rounding_scale(z)


def _field(form: PolyOneForm, z: np.ndarray):
    """(f, mu, w, singular) at one point (n,) or per row of a stack (S, n).

    Where singular (_gradient_vanishes), mu and w mean nothing: the caller decides.
    """
    f = form.evaluate(z)
    singular = _gradient_vanishes(form, z, f)
    mu = np.sum(z * f, axis=-1) / np.where(singular, 1.0, np.sum(np.abs(f) ** 2, axis=-1))
    return f, mu, z - mu[..., None] * f.conj(), singular


def mu_of(form: PolyOneForm, z) -> complex:
    """Least-squares multiplier minimizing ||z - mu * conj(f(z))||."""
    _, mu, _, singular = _field(form, as_cvec(z, form.n))
    if singular:
        raise SingularGradientError("gradient of the one-form vanishes at this point")
    return complex(mu)


def contact_residual(form: PolyOneForm, z) -> float:
    """Scale-normalized distance ||z - mu(z) conj(f(z))|| / |z|.

    Vanishes exactly on the contact variety away from the origin; for linear
    forms it is invariant under z -> T z for any complex T != 0.
    """
    z = as_cvec(z, form.n)
    if np.linalg.norm(z) == 0.0:
        raise ValueError("contact residual is undefined at the origin")
    return point_at(form, z).residual


def sphere_seeds(n: int, count: int, rng_seed: int, radius: float = 1.0) -> np.ndarray:
    """count points uniform on the radius-r sphere of C^n.

    Uses the counter-based Philox generator so the stream is reproducible
    across platforms, and so shorter draws are prefixes of longer ones.
    """
    gen = np.random.Generator(np.random.Philox(key=int(rng_seed)))
    raw = gen.standard_normal((count, 2 * n))
    z = raw[:, :n] + 1j * raw[:, n:]
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    return radius * z / norms[:, None]


def _check_radius(r: float) -> None:
    """Refuse a sphere radius whose square is not a normal finite double.

    Point norms are taken with np.linalg.norm, which squares: at such radii
    |z| itself comes out as 0 or inf, so no result could be trusted.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if not np.finfo(float).tiny <= r * r < np.inf:
        what = "below the normal double range" if r < 1.0 else "non-finite"
        raise RadiusRangeError(f"radius {r:.3g} is out of range: its square is {what}")


def _real_rows(dz: np.ndarray, dzbar: np.ndarray, dlam: np.ndarray) -> np.ndarray:
    """Real Jacobian rows (Re G; Im G) of a complex block G(z, conj z, lam).

    From the Wirtinger blocks dG/dz, dG/dconj(z) (S x m x n) and dG/dlam
    (S x m) of a G holomorphic in lam, for each row of a stack of S points,
    in the columns (Re z, Im z, Re lam, Im lam).
    """
    dlam = dlam[..., None]
    block = np.concatenate([dz + dzbar, 1j * (dz - dzbar), dlam, 1j * dlam], axis=-1)
    return np.concatenate([block.real, block.imag], axis=-2)


def _contact_system(form: PolyOneForm, r: float, anchors: np.ndarray):
    """Stacked (residual, jacobian) callbacks of the real contact system.

    Row s of a stack U packs (Re z, Im z, Re nu, Im nu) where nu = 1/mu,
    i.e. the solved equations are nu z - conj(f(z)) = 0 plus the sphere and
    phase-anchor rows, with anchors[s] the anchor of stack row s. The
    inverse multiplier keeps the Jacobian uniformly scaled across solution
    branches (the nu-column is z, of norm r, whereas the mu-column conj(f)
    collapses on branches with small coefficient norm and starves their
    Newton basins). residual(U, rows) is (S, 2n+2) and jacobian(U, rows)
    is (S, 2n+2, 2n+2) for the stack rows `rows` held in U.
    """
    n = form.n

    def residual(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        Z = U[:, :n] + 1j * U[:, n : 2 * n]
        G = (U[:, 2 * n] + 1j * U[:, 2 * n + 1])[:, None] * Z - form.evaluate(Z).conj()
        sphere = np.sum(np.abs(Z) ** 2, axis=1) - r * r
        phase = np.imag(np.sum(Z * anchors[rows].conj(), axis=1))
        return np.concatenate([G.real, G.imag, sphere[:, None], phase[:, None]], axis=1)

    def jacobian(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        Z = U[:, :n] + 1j * U[:, n : 2 * n]
        nu = U[:, 2 * n] + 1j * U[:, 2 * n + 1]
        G = _real_rows(nu[:, None, None] * np.eye(n), -jacobian_form(form, Z).conj(), Z)
        zeros = np.zeros((len(U), 2))
        anchor = anchors[rows]
        sphere = np.concatenate([2.0 * Z.real, 2.0 * Z.imag, zeros], axis=1)
        phase = np.concatenate([-anchor.imag, anchor.real, zeros], axis=1)
        return np.concatenate([G, sphere[:, None], phase[:, None]], axis=1)

    return residual, jacobian


def _newton_steps(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Steps -J^{-1} F for a stack; NaN rows where J is exactly singular."""
    try:
        return np.linalg.solve(J, -F[..., None])[..., 0]
    except np.linalg.LinAlgError:  # a singular row: solve the rows one by one
        dU = np.full_like(F, np.nan)
        for s in range(len(F)):
            try:
                dU[s] = np.linalg.solve(J[s], -F[s])
            except np.linalg.LinAlgError:
                pass
        return dU


def _damped_newton(residual, jacobian, U0: np.ndarray, target: float, max_iter: int):
    """Damped Newton on residual(U) = 0 from each row of U0; (U, ||F(U)||).

    Each row runs its own iteration until ||F|| <= target or for max_iter
    steps; the caller judges the final norms. Each step builds the
    Jacobians once, at the iterates it starts from, and takes for each row
    the first step t = 2^-h, h = 0..NEWTON_MAX_HALVINGS, with
    ||F(u + t du)|| < (1 - 1e-4 t) ||F(u)|| (Armijo backtracking). The trial
    steps are tried in doubling chunks, h = 0 | 1-2 | 3-6 | 7-14 | 15-30,
    each one residual call over the rows still searching: at most five
    calls per step, and a row that needs k halvings evaluates at most
    2k + 1 trial points (trying all 31 at once would evaluate several
    times the rows). The row takes the first passing h of its chunk, the
    very step a one-halving-at-a-time search would take. A row fails, and
    comes back with norm inf, on a singular or non-finite step, or when no
    h passes; the other rows go on. The callbacks take (U, rows): the
    iterates of the stack rows `rows`.
    """
    U = np.array(U0, dtype=float)
    F = residual(U, np.arange(len(U)))
    norm = np.linalg.norm(F, axis=1)
    live = np.ones(len(U), dtype=bool)
    for _ in range(max_iter):
        live &= ~(norm <= target)  # a NaN start iterates, and fails on its step
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        dU = _newton_steps(jacobian(U[rows], rows), F[rows])
        finite = np.all(np.isfinite(dU), axis=1)
        norm[rows[~finite]] = np.inf
        live[rows[~finite]] = False
        rows, dU = rows[finite], dU[finite]
        lo = 0  # the chunk h = lo..hi
        while rows.size and lo <= NEWTON_MAX_HALVINGS:
            hi = min(2 * lo, NEWTON_MAX_HALVINGS)
            t = 0.5 ** np.arange(lo, hi + 1)
            U_trial = U[rows, None] + t[:, None] * dU[:, None]  # (rows, chunk, 2n+2)
            F_trial = residual(U_trial.reshape(-1, U.shape[1]), np.repeat(rows, len(t)))
            F_trial = F_trial.reshape(len(rows), len(t), -1)
            norm_trial = np.linalg.norm(F_trial, axis=2)
            passes = norm_trial < (1.0 - 1e-4 * t) * norm[rows, None]
            ok = passes.any(axis=1)
            h = np.argmax(passes[ok], axis=1)  # the first passing step of each row
            at = rows[ok]
            U[at], F[at], norm[at] = U_trial[ok, h], F_trial[ok, h], norm_trial[ok, h]
            rows, dU = rows[~ok], dU[~ok]
            lo = hi + 1
        norm[rows] = np.inf  # no productive step left
        live[rows] = False
    return U, norm


def _newton_on_sphere(
    form: PolyOneForm,
    Z0: np.ndarray,
    r: float,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on the contact system at fixed radius from each row of Z0.

    Each row is anchored at its own start. Returns the solutions scaled to
    radius r and the mask of rows that converged; a row fails when the
    kernel fails on it, when it stagnates above 1e-6 r, or when z collapses
    to 0. The Newton target 1e-13 r and that bound are relative to r, so a
    non-homogeneous form, which is solved at r itself, converges at any
    radius.
    """
    n = form.n
    F0 = form.evaluate(Z0)
    nu0 = np.conj(np.sum(F0 * Z0, axis=1)) / (r * r)  # least squares for ||nu z - conj f||
    U0 = np.concatenate([Z0.real, Z0.imag, nu0.real[:, None], nu0.imag[:, None]], axis=1)
    U, norm = _damped_newton(*_contact_system(form, r, Z0), U0, 1e-13 * r, max_iter)
    Z = U[:, :n] + 1j * U[:, n : 2 * n]
    nz = np.linalg.norm(Z, axis=1)
    ok = (norm <= 1e-6 * r) & (nz > 0.0)
    Z[ok] *= (r / nz[ok])[:, None]
    return Z, ok


def _aligned_distance(z: np.ndarray, w: np.ndarray) -> float:
    """Euclidean distance after the optimal global phase rotation of w.

    Taken as ||z - e^{i theta} w|| with e^{i theta} = <w, z>/|<w, z>| (1 when
    <w, z> = 0), not from |z|^2 + |w|^2 - 2|<z, w>|, which cancels to a
    floor of about 1.5e-8 |z|.
    """
    s = np.vdot(w, z)
    phase = s / abs(s) if s != 0 else 1.0
    return float(np.linalg.norm(z - phase * w))


def _point_sort_key(p: ContactPoint):
    """(Re z, Im z) rounded to 9 places, ties broken by the exact values."""
    x = np.concatenate([p.z.real, p.z.imag])
    return tuple(np.round(x, 9)), tuple(x)


def _merge_points(points: list[ContactPoint], dedup_tol: float) -> list[ContactPoint]:
    """Merge phase-orbit duplicates; order-independent.

    Two points are joined when their phase-aligned distance is below
    dedup_tol, and every connected component of that graph is one orbit.
    The distances come from Gram products in row blocks of SEED_BLOCK
    points against all m, d^2 = |z_i|^2 + |z_j|^2 - 2|<z_i, z_j>| < tol^2,
    so memory is O(SEED_BLOCK m), never m^2. This form cancels to an error
    of about eps r^2, far below tol^2 = 1e-12 r^2 at the tolerance
    sphere_search uses. The components are found by min-label propagation
    with pointer jumping, recomputing the blocks each round, until no label
    changes. Each component is represented by its least point in
    _point_sort_key order, not by its least residual: residuals near 1e-16
    are rounding noise and would let rounding pick the phase.
    """
    if not points:
        return []
    m = len(points)
    Z = np.array([p.z for p in points])
    Zbar = Z.conj()
    sq = np.sum(np.abs(Z) ** 2, axis=1)
    label = np.arange(m)
    while True:
        hooked = label.copy()
        for start in range(0, m, SEED_BLOCK):
            block = slice(start, start + SEED_BLOCK)
            # einsum, not matmul: a multithreaded BLAS product of this thin
            # shape can be ten times slower on a loaded machine
            gram = np.einsum("ik,jk->ij", Z[block], Zbar)
            d2 = sq[block, None] + sq - 2.0 * np.abs(gram)
            hooked[block] = np.min(np.where(d2 < dedup_tol**2, label, label[block, None]), axis=1)
        while not np.array_equal(hooked[hooked], hooked):  # pointer jumping
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    clusters: dict[int, list[ContactPoint]] = {}
    for i, p in zip(label, points):
        clusters.setdefault(int(i), []).append(p)
    reps = [min(group, key=_point_sort_key) for group in clusters.values()]
    return sorted(reps, key=_point_sort_key)


def sphere_search(
    form: PolyOneForm,
    r: float,
    n_seeds: int,
    rng_seed: int,
    tol: float = ACCEPT_TOL,
) -> SphereSearch:
    """Multi-seed contact solve on the radius-r sphere, with diagnostics.

    The contact set of a homogeneous form of degree k is a cone, and mu
    scales by t^(1-k) along it: such forms are solved on the unit sphere
    and the points scaled to radius r, so the answer does not depend on
    how far r is from 1.
    """
    _check_radius(r)
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if form.is_zero:
        raise SingularGradientError("every coefficient of the one-form is zero")
    k = form.homogeneous_degree()
    r_solve = 1.0 if k is not None else r
    seeds = sphere_seeds(form.n, n_seeds, rng_seed, r_solve)
    out = SphereSearch(seeds_tried=n_seeds)
    found: list[ContactPoint] = []
    for start in range(0, n_seeds, SEED_BLOCK):
        Z, ok = _newton_on_sphere(form, seeds[start : start + SEED_BLOCK], r_solve)
        Z = Z[ok]
        _, mu, W, singular = _field(form, Z)
        Z, mu, W = Z[~singular], mu[~singular], W[~singular]
        norm_z = np.linalg.norm(Z, axis=1)
        res = np.linalg.norm(W, axis=1) / norm_z
        keep = (res <= tol) & (np.abs(norm_z - r_solve) <= 1e-10 * r_solve)
        found += [
            ContactPoint(z=z, mu=complex(m), radius=r_solve, residual=float(e))
            for z, m, e in zip(Z[keep], mu[keep], res[keep])
        ]
    out.seeds_converged = len(found)
    out.points = _merge_points(found, dedup_tol=1e-6 * r_solve)
    if r_solve != r:
        try:
            mu_scale = r ** (1 - k)
        except OverflowError:
            raise RadiusRangeError(
                f"radius {r:.3g} is out of range: mu scales by r^{1 - k}, which is non-finite"
            ) from None
        out.points = [
            ContactPoint(z=r * p.z, mu=mu_scale * p.mu, radius=r, residual=p.residual)
            for p in out.points
        ]
    return out


def solve_on_sphere(
    form: PolyOneForm,
    r: float,
    n_seeds: int,
    rng_seed: int,
    tol: float = ACCEPT_TOL,
) -> list[ContactPoint]:
    """Contact points on the radius-r sphere found from n_seeds random starts.

    Deterministic for fixed rng_seed; phase-orbit duplicates are merged; an
    empty list is a valid outcome (transverse sphere). Diverged seeds are
    dropped (see sphere_search for the counts).
    """
    return sphere_search(form, r, n_seeds, rng_seed, tol).points


def point_at(form: PolyOneForm, z, morse_index: int | None = None) -> ContactPoint:
    """Package a known location as a ContactPoint (mu and residual recomputed)."""
    z = as_cvec(z, form.n)
    _, mu, w, singular = _field(form, z)
    if singular:
        raise SingularGradientError("gradient of the one-form vanishes at this point")
    radius = float(np.linalg.norm(z))
    if radius == 0.0:
        raise ValueError("contact residual is undefined at the origin")
    residual = float(np.linalg.norm(w)) / radius
    return ContactPoint(z=z, mu=complex(mu), radius=radius, residual=residual, morse_index=morse_index)


def continue_radially(
    form: PolyOneForm,
    start: ContactPoint,
    r_min: float,
    r_max: float,
    steps: int,
    tol: float = ACCEPT_TOL,
) -> ContactPath:
    """Trace the contact cone through `start` over a radius grid.

    Predictor scales the previous point radially; corrector re-solves the
    contact system at the fixed target radius anchored at the prediction.
    Corrector failure (or a jump to a different branch) truncates the path
    in that direction and sets the truncated flag.
    """
    if not (0 < r_min < start.radius < r_max):
        raise ValueError("need 0 < r_min < start.radius < r_max")
    if steps < 2:
        raise ValueError("need at least two continuation steps")
    if not start.accepted:
        raise ValueError("start point is not an accepted contact point")

    grid = np.geomspace(r_min, r_max, steps)
    below = sorted([r for r in grid if r < start.radius], reverse=True)
    above = sorted([r for r in grid if r > start.radius])

    truncated = False
    truncation_radius: float | None = None

    def walk(radii: list[float]) -> list[ContactPoint]:
        nonlocal truncated, truncation_radius
        pts: list[ContactPoint] = []
        z_prev = start.z
        r_prev = start.radius
        for r in radii:
            pred = z_prev * (r / r_prev)
            Z, converged = _newton_on_sphere(form, pred[None], r)
            z, ok = Z[0], bool(converged[0])
            if ok:
                q = point_at(form, z)
                # a corrected point far from the prediction means the branch
                # was lost (collision / non-Morse behavior), not continued
                ok = q.residual <= tol and _aligned_distance(z, pred) <= 0.3 * r
            if not ok:
                truncated = True
                if truncation_radius is None or abs(r - start.radius) < abs(
                    truncation_radius - start.radius
                ):
                    truncation_radius = float(r)
                break
            pts.append(ContactPoint(z=z, mu=q.mu, radius=float(r), residual=q.residual))
            z_prev, r_prev = z, r
        return pts

    down = walk(below)
    up = walk(above)
    points = list(reversed(down)) + [start] + up
    return ContactPath(
        points=points,
        form_id=form_id(form),
        truncated=truncated,
        truncation_radius=truncation_radius,
    )


def radial_invariance_check(
    form: PolyOneForm,
    p: ContactPoint,
    T_samples,
    tol: float,
) -> bool:
    """True iff every scaled point p * e^T stays on the contact variety.

    Requires a homogeneous form (all coefficient polynomials of one total
    degree k); for such forms the contact variety is invariant under the
    radial orbits z -> z e^T with multiplier law mu -> mu conj(e^{kT}) e^{-T}.
    The scaled points form one stack: any that is 0 or not finite raises
    ValueError, and any singular one SingularGradientError.
    """
    if form.homogeneous_degree() is None:
        raise NonHomogeneousFormError(
            "radial invariance is defined for homogeneous one-forms only"
        )
    if not p.accepted:
        raise ValueError("point is not an accepted contact point")
    Z = p.z * np.exp(np.asarray(T_samples, dtype=complex))[:, None]
    radius = np.linalg.norm(Z, axis=1)
    if not np.all((radius > 0.0) & (radius < np.inf)):
        raise ValueError("a scaled point is 0 or not finite")
    _, _, W, singular = _field(form, Z)
    if np.any(singular):
        raise SingularGradientError("gradient of the one-form vanishes at a scaled point")
    return bool(np.all(np.linalg.norm(W, axis=1) / radius <= tol))
