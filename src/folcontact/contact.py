"""Contact equations of a one-form against spheres centered at the origin.

A point z != 0 is a contact point when the radial field equals a complex
multiple of the gradient of the form, z = mu * conj(f(z)); equivalently the
ratios f_j(z)/conj(z_j) all agree. The multiplier mu is always computed by
its least-squares formula

    mu(z) = <z, conj(f(z))> / ||f(z)||^2 = sum_j z_j f_j(z) / sum_j |f_j(z)|^2

so the residual ||z - mu conj(f)|| / |z| is independent of any solver state.
It is undefined where f(z) is zero to rounding, ||f(z)|| <= 1e-14 times
the form's rounding scale ||(|z^E| |C|)|| at z (see
PolyOneForm.evaluate_scaled): a test relative to the size of the terms,
so it holds at any |z|.

`_field` is the one place where mu, w = z - mu conj(f) and that test are
computed, for a point or a stack, from f and its rounding scale, which
one monomial build gives together (PolyOneForm.evaluate_scaled here; in
leaf.py, one build of a leaf chart's plan, which gives g as well and
f and its scale with the bits of evaluate_scaled). Its callers pick what
a bad point means.

* A single point goes through `_point_field`, the one place a point is
  refused: the origin with ValueError, a point where |z|^2 or f's
  rounding scale is not finite with RadiusRangeError, a singular one with
  SingularGradientError. Its callers are point_at (and contact_residual
  through it) and the leaf's field sample leaf._sample, which
  sample_field and every flow, polish and Hessian sample go through, at
  a leaf chart's base too (the leaf code has no second singular test);
  the point a flow or leaf_hessian reports is made from its sample. Each
  lets the refusal propagate, except a flow step, which halves its trial
  step when the sample at the trial point is refused for range or
  singularity.
* A stack goes through `_contact_rows`, the one verdict on whether its
  rows are contact points: it fails a row whose rounding scale is not
  finite, whose gradient is singular or whose residual is above tol.
  `_newton_on_sphere` keeps only the rows that pass, and reads nothing
  else of the Newton solve, not even its norms, so sphere_search drops
  the others and the corrector of continue_radially truncates the path
  there; a homogeneous trace truncates at its first failing row.
  transversality_scan, in leaf.py, calls `_field` on its stack itself: a
  non-finite scale there raises RadiusRangeError, and a singular row
  scores 0.

`_contact_point` is the one place a ContactPoint gets its radius and
residual from (z, mu, w): point_at's point and every point a flow or
leaf_hessian reports. Every contact residual, of such a point or of a
row of a stack, is `_residual`, the row norm np.linalg.norm(., axis=-1)
of w over that of z, so a point has the same residual alone as in a
stack of one.

The sphere solver works on the real system in 2n+2 unknowns
(Re z, Im z, Re mu, Im mu):

    z - mu conj(f(z)) = 0          (2n real equations)
    |z|^2 - r^2       = 0
    Im <z, anchor>    = 0          (kills the phase orbit through a solution)

with damped Newton iteration from reproducible random sphere seeds. The
iteration is `_damped_newton`, the one damped-Newton kernel of the
library, which runs a stack of starting points together: each row keeps
its own Newton sequence, line search and stopping rule, and a row that
fails drops out alone. It builds the Jacobians once per Newton step, at
the iterates the step starts from, and its line search evaluates only
residuals: Armijo backtracking whose trial steps 2^-h are tried in runs of
h, one residual call per run over the rows still searching: h = 0 alone,
then doubling runs that grow to fill a stack of SEED_BLOCK trial points
when few rows are searching, so a step with one or two rows searching
makes two calls. The steps and their Armijo factors are two read-only
arrays built once at import from NEWTON_MAX_HALVINGS and sliced per call.
The contact system's callbacks write each residual and Jacobian block into
one array allocated per call, the real Jacobian rows of a complex block by
the one rule `_real_rows`, with no concatenation; their constants are
built once per system. Every entry is the value whole-block concatenation
gives (a zero may differ in sign), so the Newton iterates do not depend on
how the arrays are assembled. `sphere_search` hands it the seeds in blocks
of SEED_BLOCK rows, so memory does not grow with the seed count;
`continue_radially`, for a form that is not homogeneous, calls it with a
stack of one. The kernel serves only these two: the leaf code in leaf.py
has its own Newton model on the leaf (leaf._leaf_model), which its flow,
its polish and its Hessian share, and runs no square contact system. A
homogeneous form needs no solve on a radial trace: its contact set is a
real cone, so `continue_radially` scales the start to every radius of the
grid and checks the points of each direction in one stack. The points
sphere_search finds stay arrays (z, mu and residual per row) from the
Newton solve to the report: `_merge_points` merges the rows into phase
orbits from Gram products in blocks of SEED_BLOCK rows against all m rows,
so the merge needs O(SEED_BLOCK m) memory, never m^2, and returns the row
index of one point per orbit. Only those rows become ContactPoints.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .algebra import PolyOneForm, _readonly, as_cvec, jacobian_form
from .errors import RadiusRangeError, SingularGradientError

ACCEPT_TOL = 1e-9
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 30
# Seeds per stacked Newton solve in sphere_search, rows per Gram block of
# its merge, and the trial points a line-search call fills when few rows
# are searching.
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


@dataclass
class ContactPath:
    """Radial continuation record; points have strictly monotone radius."""

    points: list[ContactPoint]
    form_id: str
    truncated: bool
    truncation_radius: float | None


@dataclass
class SphereSearch:
    """Result of a multi-seed sphere solve, with seed diagnostics.

    seeds_converged counts the seeds whose Newton solve reached a point
    that the contact verdict (_contact_rows) accepts, before the merge into
    phase orbits.
    """

    points: list[ContactPoint]
    seeds_tried: int
    seeds_converged: int


def form_id(form: PolyOneForm) -> str:
    """Stable short identifier of a form (hash of its canonical term list).

    The terms of f_j are the nonzero rows of column j of the form's table,
    in the order of its exponents.
    """
    E, C = form._exps.tolist(), form._coeffs.T.tolist()
    payload = [[[c.real, c.imag, e] for c, e in zip(column, E) if c != 0] for column in C]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    return digest[:12]


def _field(z: np.ndarray, f: np.ndarray, scale):
    """(mu, w, singular) at one point (n,) or per row of a stack (S, n).

    From f = f(z) and its rounding scale. singular is where f is zero to
    rounding, ||f|| <= 1e-14 scale; there mu and w mean nothing, and the
    caller decides.
    """
    sq = np.add.reduce(np.abs(f) ** 2, axis=-1)
    singular = np.sqrt(sq) <= 1e-14 * scale
    mu = np.add.reduce(z * f, axis=-1) / np.where(singular, 1.0, sq)
    return mu, z - mu[..., None] * f.conj(), singular


def _contact_rows(form: PolyOneForm, Z: np.ndarray, tol: float):
    """The contact-point verdict on the rows of a stack Z (S, n): (mu, residual, ok).

    From one evaluate_scaled of the stack. ok holds where f's rounding
    scale is finite, the gradient is not singular and the residual
    ||w|| / |z| is at most tol; elsewhere mu and the residual mean nothing.
    """
    F, scale = form.evaluate_scaled(Z)
    with np.errstate(over="ignore", invalid="ignore"):  # a row past the doubles fails below
        mu, W, singular = _field(Z, F, scale)
        residual = _residual(W, Z)
    return mu, residual, np.isfinite(scale) & ~singular & (residual <= tol)


def _residual(w: np.ndarray, z: np.ndarray):
    """The contact residual ||w|| / |z| of a point (n,) or per row of a stack (S, n).

    Row norms, np.linalg.norm(., axis=-1), for a point too: a point has the
    same residual alone as in a stack of one.
    """
    return np.linalg.norm(w, axis=-1) / np.linalg.norm(z, axis=-1)


def _point_field(z: np.ndarray, f: np.ndarray, scale):
    """(mu, w) at one point z from f = f(z) and its rounding scale, or its refusal.

    The origin, where |z|^2 is 0, is refused first, with ValueError,
    whatever the form: a form with f(0) = 0 would otherwise report a
    singular gradient there. A point where |z|^2 is not finite, as
    _check_radius refuses such a radius, or where f's rounding scale is not
    finite (f or its terms overflow) raises RadiusRangeError, and a
    singular one SingularGradientError. |z|^2 is one np.vdot and the range
    tests math.isfinite, as the leaf's field samples, which come here too,
    are the hot path of a flow.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        sq = np.vdot(z, z).real
    if sq == 0.0:
        raise ValueError("contact residual is undefined at the origin")
    if not math.isfinite(sq):
        raise RadiusRangeError("point is out of range: its squared norm is non-finite")
    if not math.isfinite(scale):
        raise RadiusRangeError(f"point of norm {math.sqrt(sq):.3g} is out of range: f's rounding scale is non-finite")
    mu, w, singular = _field(z, f, scale)
    if singular:
        raise SingularGradientError("gradient of the one-form vanishes at this point")
    return mu, w


def _contact_point(z: np.ndarray, mu, w: np.ndarray, leaf_value=None, morse_index=None) -> ContactPoint:
    """The ContactPoint at z with multiplier mu and field w = z - mu conj(f(z)).

    The one place a point gets its radius |z| and its residual (_residual).
    """
    radius, residual = float(np.linalg.norm(z)), float(_residual(w, z))
    return ContactPoint(z, complex(mu), radius, residual, leaf_value, morse_index)


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is not positive (NaN too): no point could meet it."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")


def contact_residual(form: PolyOneForm, z) -> float:
    """Scale-normalized distance ||z - mu(z) conj(f(z))|| / |z|.

    Vanishes exactly on the contact variety away from the origin; for linear
    forms it is invariant under z -> T z for any complex T != 0.
    """
    return point_at(form, z).residual


def sphere_seeds(n: int, count: int, rng_seed: int, radius: float) -> np.ndarray:
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

    A radius that is not positive, NaN included, is bad input (ValueError).
    Point norms are taken with np.linalg.norm, which squares: at radii whose
    square leaves the normal doubles |z| itself comes out as 0 or inf, so no
    result could be trusted (RadiusRangeError).
    """
    if not r > 0:
        raise ValueError("radius must be positive")
    if not np.finfo(float).tiny <= r * r < np.inf:
        what = "below the normal double range" if r < 1.0 else "non-finite"
        raise RadiusRangeError(f"radius {r:.3g} is out of range: its square is {what}")


def _real_rows(out: np.ndarray, dz, dzbar, dlam) -> None:
    """Write the real Jacobian rows (Re G; Im G) of a complex block G(z, conj z, lam) into out.

    From the Wirtinger blocks dG/dz, dG/dconj(z) (S x m x n) and dG/dlam
    (S x m) of a G holomorphic in lam, for each row of a stack of S points;
    out is the (S x 2m x 2n+2) slice of a preallocated Jacobian that holds
    the rows, in the columns (Re z, Im z, Re lam, Im lam). With s = dz +
    dzbar and d = dz - dzbar they are [[Re s, -Im d, Re dlam, -Im dlam],
    [Im s, Re d, Im dlam, Re dlam]], each block written by one real
    operation on the parts of dz and dzbar, with no complex s or d formed.
    """
    m, n = out.shape[-2] // 2, (out.shape[-1] - 2) // 2
    re, im = out[..., :m, :], out[..., m:, :]
    np.add(np.real(dz), np.real(dzbar), out=re[..., :n])
    np.subtract(np.imag(dzbar), np.imag(dz), out=re[..., n : 2 * n])
    np.add(np.imag(dz), np.imag(dzbar), out=im[..., :n])
    np.subtract(np.real(dz), np.real(dzbar), out=im[..., n : 2 * n])
    re[..., 2 * n] = np.real(dlam)
    np.negative(np.imag(dlam), out=re[..., 2 * n + 1])
    im[..., 2 * n] = np.imag(dlam)
    im[..., 2 * n + 1] = np.real(dlam)


def _contact_system(form: PolyOneForm, r: float, anchors: np.ndarray):
    """Stacked (residual, jacobian) callbacks of the real contact system.

    Row s of a stack U packs (Re z, Im z, Re nu, Im nu) where nu = 1/mu,
    i.e. the solved equations are nu z - conj(f(z)) = 0 plus the sphere and
    phase-anchor rows, with anchors[s] the anchor of stack row s. The
    inverse multiplier keeps the Jacobian uniformly scaled across solution
    branches (the nu-column is z, of norm r, whereas the mu-column conj(f)
    collapses on branches with small coefficient norm and starves their
    Newton basins). residual(U, rows) is (S, 2n+2) and jacobian(U, rows)
    is (S, 2n+2, 2n+2) for the stack rows `rows` held in U; each is
    written into one array allocated per call, block by block, and the
    constants r^2, the conjugated anchors, their Jacobian rows and the
    identity are built once here.
    """
    n = form.n
    r2 = r * r
    anchors_conj = anchors.conj()
    phase_rows = np.concatenate([-anchors.imag, anchors.real], axis=1)
    eye = np.eye(n)

    def residual(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        out = np.empty(U.shape)
        Z = U[:, :n] + 1j * U[:, n : 2 * n]
        nuZ = (U[:, 2 * n] + 1j * U[:, 2 * n + 1])[:, None] * Z
        F = form.evaluate(Z)
        # Re and Im of nu z - conj(f)
        np.subtract(nuZ.real, F.real, out=out[:, :n])
        np.add(nuZ.imag, F.imag, out=out[:, n : 2 * n])
        np.subtract(np.add.reduce(np.abs(Z) ** 2, axis=1), r2, out=out[:, 2 * n])
        out[:, 2 * n + 1] = np.add.reduce(Z * anchors_conj[rows], axis=1).imag
        return out

    def jacobian(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        J = np.empty(U.shape + U.shape[-1:])
        Z = U[:, :n] + 1j * U[:, n : 2 * n]
        nu = U[:, 2 * n] + 1j * U[:, 2 * n + 1]
        _real_rows(J[:, : 2 * n], nu[:, None, None] * eye, -jacobian_form(form, Z).conj(), Z)
        np.multiply(U[:, : 2 * n], 2.0, out=J[:, 2 * n, : 2 * n])  # the sphere row
        J[:, 2 * n + 1, : 2 * n] = phase_rows[rows]
        J[:, 2 * n :, 2 * n :] = 0.0
        return J

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


# The line search's trial steps t = 2^-h, h = 0..NEWTON_MAX_HALVINGS, and
# the Armijo factors 1 - 1e-4 t they must reach, sliced per residual call.
_STEPS = _readonly(0.5 ** np.arange(NEWTON_MAX_HALVINGS + 1))
_ARMIJO = _readonly(1.0 - 1e-4 * _STEPS)


def _norms(F: np.ndarray) -> np.ndarray:
    """||F|| per row of a real F: the bits of np.linalg.norm(F, axis=1), which
    computes the same sum of squares, without its Python overhead."""
    return np.sqrt(np.add.reduce(F * F, axis=1))


def _damped_newton(residual, jacobian, U0: np.ndarray, target: float, max_iter: int):
    """Damped Newton on residual(U) = 0 from each row of U0; (U, ||F(U)||).

    Each row runs its own iteration until ||F|| <= target or for max_iter
    steps; the caller judges the rows. Each step builds the
    Jacobians once, at the iterates it starts from, and takes for each row
    the first step t = 2^-h, h = 0..NEWTON_MAX_HALVINGS, with
    ||F(u + t du)|| < (1 - 1e-4 t) ||F(u)|| (Armijo backtracking). Each
    residual call tries a run of h for every row still searching: h = 0
    alone, then from each h = lo on the next max(lo + 1, SEED_BLOCK // rows
    searching) values, capped at NEWTON_MAX_HALVINGS. With many rows
    searching these are the doubling chunks h = 1-2 | 3-6 | 7-14 | 15-30;
    with few, the chunk grows to fill a stack of SEED_BLOCK trials, so a
    step with at most two rows searching makes two calls, and no call
    after the first evaluates more than max(SEED_BLOCK, rows x doubling
    chunk) trial points. h = 0 stays alone because a one-row stack is
    contracted by a matrix-vector product, which rounds differently from a
    stack of two or more rows; for the same reason no run leaves h =
    NEWTON_MAX_HALVINGS alone for the next call. So every trial point is
    evaluated with the bits a one-halving-at-a-time search gives it, and
    the row takes the first passing h of its run, that search's very step,
    gathered with the other accepted rows through one flat index into the
    run's trials. A row fails, and comes back with norm inf, on a singular
    or non-finite step, or when no h passes; the other rows go on. The
    callbacks take (U, rows): the iterates of the stack rows `rows`.
    """
    U = np.array(U0, dtype=float)
    F = residual(U, np.arange(len(U)))
    norm = _norms(F)
    live = np.ones(len(U), dtype=bool)
    for _ in range(max_iter):
        live &= ~(norm <= target)  # a NaN start iterates, and fails on its step
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        U_rows = U[rows]  # the searching rows keep these iterates until they accept
        dU = _newton_steps(jacobian(U_rows, rows), F[rows])
        finite = np.isfinite(dU).all(axis=1)
        if not finite.all():
            norm[rows[~finite]] = np.inf
            live[rows[~finite]] = False
            rows, U_rows, dU = rows[finite], U_rows[finite], dU[finite]
        norm_rows = norm[rows, None]
        lo = 0
        while rows.size and lo <= NEWTON_MAX_HALVINGS:
            hi = 1 if lo == 0 else min(lo + max(lo + 1, SEED_BLOCK // rows.size), NEWTON_MAX_HALVINGS + 1)
            if hi == NEWTON_MAX_HALVINGS:  # leave no lone last h: a stack of one row rounds otherwise
                hi -= 1
            k = hi - lo
            U_trial = (U_rows[:, None] + _STEPS[lo:hi, None] * dU[:, None]).reshape(-1, U.shape[1])
            F_trial = residual(U_trial, np.repeat(rows, k))
            norm_trial = _norms(F_trial)
            passes = norm_trial.reshape(-1, k) < _ARMIJO[lo:hi] * norm_rows
            ok = passes.any(axis=1)
            hit = np.flatnonzero(ok)
            take = hit * k + passes[hit].argmax(axis=1)  # the first passing step of each row
            at = rows[hit]
            U[at], F[at], norm[at] = U_trial[take], F_trial[take], norm_trial[take]
            search = ~ok
            rows, U_rows, dU, norm_rows = rows[search], U_rows[search], dU[search], norm_rows[search]
            lo = hi
        norm[rows] = np.inf  # no productive step left
        live[rows] = False
    return U, norm


def _newton_on_sphere(form: PolyOneForm, Z0: np.ndarray, r: float, tol: float):
    """The contact points damped Newton reaches at radius r from the rows of Z0: (Z, mu, residual).

    Each row is anchored at its own start and runs at most NEWTON_MAX_ITER
    steps. Its last iterate, wherever the kernel stopped, is scaled to
    radius r unless z collapsed to 0, and kept where it passes
    _contact_rows to tol, in row order: that verdict alone accepts a point.
    The kernel's target 1e-13 r is only its early exit, not a verdict, so a
    row that stalls at the rounding floor of f's terms, which grows with r
    faster than r, still gives its point. The kernel runs with overflow
    ignored: a non-finite trial fails its Armijo test, a non-finite step
    fails its row, and the verdict judges what is left.
    """
    n = form.n
    with np.errstate(over="ignore", invalid="ignore"):
        F0 = form.evaluate(Z0)
        nu0 = np.conj(np.sum(F0 * Z0, axis=1)) / (r * r)  # least squares for ||nu z - conj f||
        U0 = np.concatenate([Z0.real, Z0.imag, nu0.real[:, None], nu0.imag[:, None]], axis=1)
        U = _damped_newton(*_contact_system(form, r, Z0), U0, 1e-13 * r, NEWTON_MAX_ITER)[0]
    Z = U[:, :n] + 1j * U[:, n : 2 * n]
    nz = np.linalg.norm(Z, axis=1)
    kept = nz > 0.0
    Z = Z[kept] * (r / nz[kept])[:, None]
    mu, residual, ok = _contact_rows(form, Z, tol)
    return Z[ok], mu[ok], residual[ok]


def _aligned_distance(z: np.ndarray, w: np.ndarray) -> float:
    """Euclidean distance after the optimal global phase rotation of w.

    Taken as ||z - e^{i theta} w|| with e^{i theta} = <w, z>/|<w, z>| (1 when
    <w, z> = 0), not from |z|^2 + |w|^2 - 2|<z, w>|, which cancels to a
    floor of about 1.5e-8 |z|.
    """
    s = np.vdot(w, z)
    phase = s / abs(s) if s != 0 else 1.0
    return float(np.linalg.norm(z - phase * w))


def _merge_points(Z: np.ndarray, dedup_tol: float) -> np.ndarray:
    """Row indices of one point per phase orbit of the (m, n) points Z, in report order.

    Two points are joined when their phase-aligned distance is below
    dedup_tol, and every connected component of that graph is one orbit.
    The distances come from Gram products in row blocks of SEED_BLOCK
    points against all m, d^2 = |z_i|^2 + |z_j|^2 - 2|<z_i, z_j>| < tol^2,
    so memory is O(SEED_BLOCK m), never m^2. This form cancels to an error
    of about eps r^2, far below tol^2 = 1e-12 r^2 at the tolerance
    sphere_search uses. The components are found by min-label propagation
    with pointer jumping, recomputing the blocks each round, until no label
    changes. The rows are ordered by (Re z, Im z) rounded to 9 places, ties
    broken by the exact values and then by row (one stable lexsort), and
    each component is represented by its first row in that order, not by
    its least residual: residuals near 1e-16 are rounding noise and would
    let rounding pick the phase. The result does not depend on the order of
    the rows, only on which rows they are.
    """
    m = len(Z)
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
    x = np.concatenate([Z.real, Z.imag], axis=1)
    order = np.lexsort(np.concatenate([np.round(x, 9), x], axis=1).T[::-1])
    _, first = np.unique(label[order], return_index=True)
    return order[np.sort(first)]


def sphere_search(
    form: PolyOneForm,
    r: float,
    n_seeds: int,
    rng_seed: int,
    tol: float = ACCEPT_TOL,
) -> SphereSearch:
    """Multi-seed contact solve on the radius-r sphere, with diagnostics.

    Deterministic for fixed rng_seed; phase-orbit duplicates are merged.
    Empty points mean that no contact point was found from these seeds,
    not that the sphere is transverse.

    The contact set of a homogeneous form of degree k is a cone, and mu
    scales by t^(1-k) along it: such forms are solved on the unit sphere
    and the points scaled to radius r, so the answer does not depend on
    how far r is from 1. An r at which the scale r^(1-k) or a scaled mu
    is not a normal finite double raises RadiusRangeError. Any other form
    is solved at r itself, and a radius where f's rounding scale overflows
    at a seed raises RadiusRangeError, as point_at does.
    """
    _check_radius(r)
    _check_tol(tol)
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if form.is_zero:
        raise SingularGradientError("every coefficient of the one-form is zero")
    k = form.homogeneous_degree()
    r_solve = 1.0 if k is not None else r
    seeds = sphere_seeds(form.n, n_seeds, rng_seed, r_solve)
    if k is None and not np.isfinite(form.evaluate_scaled(seeds)[1]).all():
        raise RadiusRangeError(f"radius {r:.3g} is out of range: f's rounding scale is non-finite")
    blocks = range(0, n_seeds, SEED_BLOCK)
    found = [_newton_on_sphere(form, seeds[start : start + SEED_BLOCK], r_solve, tol) for start in blocks]
    Z_all, mu, res = (np.concatenate(parts) for parts in zip(*found))
    reported = _merge_points(Z_all, dedup_tol=1e-6 * r_solve)
    Z, mu, res, radius = Z_all[reported], mu[reported], res[reported], r_solve
    if r_solve != r:
        with np.errstate(over="ignore", invalid="ignore"):  # out-of-range values are refused below
            mu_scale = np.float64(r) ** (1 - k)
            mu = mu_scale * mu
        size = np.abs(np.append(mu, mu_scale))
        if not np.all((np.finfo(float).tiny <= size) & (size < np.inf)):
            raise RadiusRangeError(f"radius {r:.3g} is out of range: r^{1 - k} mu is not a normal double")
        Z, radius = r * Z, r
    points = [ContactPoint(z=z, mu=complex(m), radius=radius, residual=float(e)) for z, m, e in zip(Z, mu, res)]
    return SphereSearch(points, n_seeds, len(Z_all))


def point_at(form: PolyOneForm, z, morse_index: int | None = None) -> ContactPoint:
    """Package a known location as a ContactPoint (mu and residual recomputed).

    The point is refused as _point_field refuses it: the origin with
    ValueError, whatever the form, a point where |z|^2, f or its rounding
    scale overflows with RadiusRangeError, and a singular one with
    SingularGradientError.
    """
    z = as_cvec(z, form.n)
    return _contact_point(z, *_point_field(z, *form.evaluate_scaled(z)), morse_index=morse_index)


def _corrected_side(form: PolyOneForm, start: ContactPoint, radii: np.ndarray, tol: float):
    """One direction of a radial trace by predictor and corrector: (points, failing radius or None).

    The predictor scales the previous point to the next radius; the
    corrector re-solves the contact system there, anchored at the
    prediction. The first radius where it fails ends the direction.
    """
    pts, z_prev, r_prev = [], start.z, start.radius
    for r in radii:
        pred = z_prev * (r / r_prev)
        Z, mu, residual = _newton_on_sphere(form, pred[None], r, tol)
        # a corrected point far from the prediction means the branch
        # was lost (collision / non-Morse behavior), not continued
        if not (len(Z) and _aligned_distance(Z[0], pred) <= 0.3 * r):
            return pts, float(r)
        z_prev, r_prev = Z[0], r
        pts.append(ContactPoint(z=z_prev, mu=complex(mu[0]), radius=float(r), residual=float(residual[0])))
    return pts, None


def _scaled_side(form: PolyOneForm, start: ContactPoint, radii: np.ndarray, tol: float):
    """One direction of a homogeneous form's radial trace: (points, failing radius or None).

    The contact set of a homogeneous form is a real cone, so its point at
    radius r is start.z r / start.radius. The points of all radii are
    checked in one stack: a point fails where the gradient is singular,
    where the residual exceeds tol, or where f or its rounding scale
    leaves the double range (overflow gives a non-finite scale), and the
    direction keeps the points before its first failing radius.
    """
    Z = start.z * (radii / start.radius)[:, None]
    mu, residual, ok = _contact_rows(form, Z, tol)
    stop = len(radii) if ok.all() else int(np.argmin(ok))  # the first failing radius
    pts = [
        ContactPoint(z=z, mu=complex(m), radius=float(r), residual=float(e))
        for z, m, r, e in zip(Z[:stop], mu[:stop], radii[:stop], residual[:stop])
    ]
    return pts, (float(radii[stop]) if stop < len(radii) else None)


def continue_radially(
    form: PolyOneForm,
    start: ContactPoint,
    r_min: float,
    r_max: float,
    steps: int,
    tol: float = ACCEPT_TOL,
) -> ContactPath:
    """Trace the contact cone through `start` over a radius grid.

    The start must be a contact point to tol (residual <= tol), as every
    point of the path is. Both directions run from the start outwards, and
    each ends at its first failing radius. truncation_radius is the failing
    radius nearest the start, and truncated says there is one.

    * A homogeneous form's contact set is a real cone, so its point at
      radius r is the start scaled, start.z r / start.radius. Each
      direction's points are checked in one stack (one evaluate_scaled); a
      radius fails on a singular gradient (as where f underflows), a
      residual above tol, or an f or rounding scale out of the double
      range.
    * Any other form is traced by predictor and corrector: the predictor
      scales the previous point radially, and the corrector re-solves the
      contact system at the target radius, anchored at the prediction. A
      radius fails where the corrected point fails the contact verdict (f's
      rounding scale not finite, a singular gradient or a residual above
      tol) or jumps to a different branch.

    r_min and r_max must square to normal finite doubles (RadiusRangeError,
    as for sphere_search): the radii of the grid between them then do too.
    """
    if not (0 < r_min < start.radius < r_max):
        raise ValueError("need 0 < r_min < start.radius < r_max")
    _check_radius(r_min)
    _check_radius(r_max)
    if steps < 2:
        raise ValueError("need at least two continuation steps")
    _check_tol(tol)
    if not start.residual <= tol:
        raise ValueError(f"start point is not a contact point to tol (residual {start.residual:.3e})")

    grid = np.geomspace(r_min, r_max, steps)
    side = _corrected_side if form.homogeneous_degree() is None else _scaled_side
    sides, failed = [], []  # each direction's points, from the start out, and its failing radius
    for radii in (grid[grid < start.radius][::-1], grid[grid > start.radius]):
        pts, r_failed = side(form, start, radii, tol)
        sides.append(pts)
        if r_failed is not None:
            failed.append(r_failed)
    down, up = sides
    truncation_radius = min(failed, key=lambda r: abs(r - start.radius), default=None)
    return ContactPath(
        points=down[::-1] + [start] + up,
        form_id=form_id(form),
        truncated=truncation_radius is not None,
        truncation_radius=truncation_radius,
    )
