"""Contact equations of a one-form against spheres centered at the origin.

A point z != 0 is a contact point when the radial field equals a complex
multiple of the gradient of the form, z = mu * conj(f(z)); equivalently the
ratios f_j(z)/conj(z_j) all agree. The multiplier mu is always computed by
its least-squares formula

    mu(z) = <z, conj(f(z))> / ||f(z)||^2 = sum_j z_j f_j(z) / sum_j |f_j(z)|^2

so the residual ||z - mu conj(f)|| / |z| is independent of any solver state.

The sphere solver works on the real system in 2n+2 unknowns
(Re z, Im z, Re mu, Im mu):

    z - mu conj(f(z)) = 0          (2n real equations)
    |z|^2 - r^2       = 0
    Im <z, anchor>    = 0          (kills the phase orbit through a solution)

with damped Newton iteration from reproducible random sphere seeds. The
iteration is `_damped_newton`, one kernel shared with the leaf polish in
leaf.py: it builds the Jacobian once per Newton step, at the iterate the
step starts from, and its line search evaluates only residuals.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import PolyOneForm, as_cvec, eval_form, jacobian_form
from .errors import NonHomogeneousFormError, SingularGradientError

ACCEPT_TOL = 1e-9
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30


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


def _multiplier(z: np.ndarray, f: np.ndarray) -> complex:
    """mu(z) from the coefficient vector f = f(z); see mu_of."""
    denom = float(np.sum(np.abs(f) ** 2))
    if np.sqrt(denom) <= 1e-14 * (1.0 + np.linalg.norm(z)):
        raise SingularGradientError("gradient of the one-form vanishes at this point")
    return complex(np.sum(z * f) / denom)


def mu_of(form: PolyOneForm, z) -> complex:
    """Least-squares multiplier minimizing ||z - mu * conj(f(z))||."""
    z = as_cvec(z, form.n)
    return _multiplier(z, eval_form(form, z))


def contact_residual(form: PolyOneForm, z) -> float:
    """Scale-normalized distance ||z - mu(z) conj(f(z))|| / |z|.

    Vanishes exactly on the contact variety away from the origin; for linear
    forms it is invariant under z -> T z for any complex T != 0.
    """
    z = as_cvec(z, form.n)
    norm_z = np.linalg.norm(z)
    if norm_z == 0.0:
        raise ValueError("contact residual is undefined at the origin")
    f = eval_form(form, z)
    mu = _multiplier(z, f)
    return float(np.linalg.norm(z - mu * f.conj()) / norm_z)


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


def _real_rows(dz: np.ndarray, dzbar: np.ndarray, dlam: np.ndarray) -> np.ndarray:
    """Real Jacobian rows (Re G; Im G) of a complex block G(z, conj z, lam).

    From the Wirtinger blocks dG/dz, dG/dconj(z) (m x n) and dG/dlam (m) of
    a G holomorphic in lam, in the columns (Re z, Im z, Re lam, Im lam).
    """
    block = np.hstack([dz + dzbar, 1j * (dz - dzbar), dlam[:, None], 1j * dlam[:, None]])
    return np.vstack([block.real, block.imag])


def _contact_system(form: PolyOneForm, r: float, anchor: np.ndarray):
    """(residual, jacobian) callbacks of the real contact system.

    u packs (Re z, Im z, Re nu, Im nu) where nu = 1/mu, i.e. the solved
    equations are nu z - conj(f(z)) = 0 plus the sphere and phase-anchor
    rows. The inverse multiplier keeps the Jacobian uniformly scaled across
    solution branches (the nu-column is z, of norm r, whereas the mu-column
    conj(f) collapses on branches with small coefficient norm and starves
    their Newton basins). The residual has length 2n+2.
    """
    n = form.n

    def residual(u: np.ndarray) -> np.ndarray:
        z = u[:n] + 1j * u[n : 2 * n]
        G = complex(u[2 * n], u[2 * n + 1]) * z - form.evaluate(z).conj()
        sphere = np.sum(np.abs(z) ** 2) - r * r
        return np.concatenate([G.real, G.imag, [sphere, np.imag(np.sum(z * anchor.conj()))]])

    def jacobian(u: np.ndarray) -> np.ndarray:
        z = u[:n] + 1j * u[n : 2 * n]
        nu = complex(u[2 * n], u[2 * n + 1])
        rows = _real_rows(nu * np.eye(n), -jacobian_form(form, z).conj(), z)
        sphere = np.concatenate([2.0 * z.real, 2.0 * z.imag, [0.0, 0.0]])
        phase = np.concatenate([-anchor.imag, anchor.real, [0.0, 0.0]])
        return np.vstack([rows, sphere, phase])

    return residual, jacobian


def _damped_newton(residual, jacobian, u0: np.ndarray, target: float, max_iter: int):
    """Damped Newton on residual(u) = 0 from u0; (u, ||F(u)||) or None.

    Runs until ||F|| <= target or for max_iter steps; the caller judges the
    final norm. Each step builds the Jacobian once, at its starting iterate,
    and halves the step until ||F(u + t du)|| < (1 - 1e-4 t) ||F(u)||, with
    residuals only at the trial points. None on a singular or non-finite
    step, or when NEWTON_MAX_HALVINGS + 1 halvings find no decrease.
    """
    u = u0
    F = residual(u)
    norm_f = np.linalg.norm(F)
    for _ in range(max_iter):
        if norm_f <= target:
            break
        try:
            du = np.linalg.solve(jacobian(u), -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(du)):
            return None
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS + 1):
            u_trial = u + step * du
            F_trial = residual(u_trial)
            norm_trial = np.linalg.norm(F_trial)
            if norm_trial < (1.0 - 1e-4 * step) * norm_f:
                break
            step *= 0.5
        else:
            return None  # no productive step left
        u, F, norm_f = u_trial, F_trial, norm_trial
    return u, norm_f


def _newton_on_sphere(
    form: PolyOneForm,
    z0: np.ndarray,
    r: float,
    anchor: np.ndarray | None = None,
    max_iter: int = NEWTON_MAX_ITER,
) -> np.ndarray | None:
    """Damped Newton on the contact system at fixed radius; None on failure."""
    n = form.n
    if anchor is None:
        anchor = z0
    f0 = form.evaluate(z0)
    nu0 = np.conj(np.sum(f0 * z0)) / (r * r)  # least squares for ||nu z - conj f||
    u0 = np.concatenate([z0.real, z0.imag, [nu0.real, nu0.imag]])
    out = _damped_newton(*_contact_system(form, r, anchor), u0, 1e-13 * max(1.0, r), max_iter)
    if out is None or out[1] > 1e-6 * max(1.0, r):
        return None  # failed, or stagnated far from a solution
    z = out[0][:n] + 1j * out[0][n : 2 * n]
    nz = np.linalg.norm(z)
    if nz == 0.0:
        return None
    return z * (r / nz)


def _aligned_distance(z: np.ndarray, w: np.ndarray) -> float:
    """Euclidean distance after the optimal global phase rotation of w."""
    d2 = np.sum(np.abs(z) ** 2) + np.sum(np.abs(w) ** 2) - 2.0 * abs(np.sum(z * w.conj()))
    return float(np.sqrt(max(d2, 0.0)))


def _point_sort_key(p: ContactPoint):
    return tuple(np.round(np.concatenate([p.z.real, p.z.imag]), 9))


def _merge_points(points: list[ContactPoint], dedup_tol: float) -> list[ContactPoint]:
    """Merge phase-orbit duplicates; order-independent (full pairwise graph)."""
    m = len(points)
    parent = list(range(m))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if _aligned_distance(points[i].z, points[j].z) < dedup_tol:
                parent[root(i)] = root(j)
    clusters: dict[int, list[ContactPoint]] = {}
    for i in range(m):
        clusters.setdefault(root(i), []).append(points[i])
    reps = [
        min(group, key=lambda p: (p.residual, _point_sort_key(p)))
        for group in clusters.values()
    ]
    return sorted(reps, key=_point_sort_key)


def sphere_search(
    form: PolyOneForm,
    r: float,
    n_seeds: int,
    rng_seed: int,
    tol: float = ACCEPT_TOL,
) -> SphereSearch:
    """Multi-seed contact solve on the radius-r sphere, with diagnostics."""
    if r <= 0:
        raise ValueError("radius must be positive")
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if all(f.is_zero for f in form.coeffs):
        raise SingularGradientError("every coefficient of the one-form is zero")
    seeds = sphere_seeds(form.n, n_seeds, rng_seed, r)
    out = SphereSearch(seeds_tried=n_seeds)
    found: list[ContactPoint] = []
    for a in seeds:
        z = _newton_on_sphere(form, a, r)
        if z is None:
            continue
        try:
            res = contact_residual(form, z)
        except SingularGradientError:
            continue
        if res <= tol and abs(np.linalg.norm(z) - r) <= 1e-10 * r:
            found.append(ContactPoint(z=z, mu=mu_of(form, z), radius=r, residual=res))
            out.seeds_converged += 1
    out.points = _merge_points(found, dedup_tol=1e-6 * r)
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
    """Package a known location as a ContactPoint (residual recomputed)."""
    z = as_cvec(z, form.n)
    return ContactPoint(
        z=z,
        mu=mu_of(form, z),
        radius=float(np.linalg.norm(z)),
        residual=contact_residual(form, z),
        morse_index=morse_index,
    )


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
            z = _newton_on_sphere(form, pred, r, anchor=pred)
            ok = z is not None
            if ok:
                res = contact_residual(form, z)
                # a corrected point far from the prediction means the branch
                # was lost (collision / non-Morse behavior), not continued
                ok = res <= tol and _aligned_distance(z, pred) <= 0.3 * r
            if not ok:
                truncated = True
                if truncation_radius is None or abs(r - start.radius) < abs(
                    truncation_radius - start.radius
                ):
                    truncation_radius = float(r)
                break
            pts.append(ContactPoint(z=z, mu=mu_of(form, z), radius=float(r), residual=res))
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
    """
    if form.homogeneous_degree() is None:
        raise NonHomogeneousFormError(
            "radial invariance is defined for homogeneous one-forms only"
        )
    if not p.accepted:
        raise ValueError("point is not an accepted contact point")
    for T in T_samples:
        z = p.z * np.exp(complex(T))
        if contact_residual(form, z) > tol:
            return False
    return True
