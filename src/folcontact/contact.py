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
  transversality_scan, in leaf.py, calls `_field` on its stack itself,
  and a singular row scores 0.
* sphere_search and transversality_scan sample the sphere through
  `_sphere_sample`, one rule for both: a homogeneous form on the unit
  sphere, seeds drawn there, one evaluate_scaled of them, and
  RadiusRangeError where f's rounding scale is not finite at a seed. The
  search's Newton solve takes its starting nu from that f; the kernel's
  first residual call evaluates the seeds again.

`_contact_point` is the one place a ContactPoint gets its radius and
residual from (z, mu, w): point_at's point and every point a flow or
leaf_hessian reports. `_contact_points` builds the points of a stack's
rows from the verdict's (mu, residual): every point sphere_search and
continue_radially report but the trace's start. Every contact residual,
of such a point, of a row of a stack or of a scan sample, is
`_residual`, the row norm np.linalg.norm(., axis=-1) of w over that of
z, so a point has the same residual alone as in a stack of one.

The sphere solver works on the real system in 2n+2 unknowns, the float
view of the complex row (z_1, ..., z_n, nu), nu = 1/mu, so (Re z_1, Im z_1,
..., Re nu, Im nu) interleaved:

    nu z - conj(f(z)) = 0          (2n real equations)
    |z|^2 - r^2       = 0
    Im <z, anchor>    = 0          (kills the phase orbit through a solution)

with damped Newton iteration from reproducible random sphere seeds. The
iteration is `_damped_newton`, the one damped-Newton kernel of the
library, which runs a stack of starting points together: each row keeps
its own Newton sequence, line search and stopping rule, and a row that
fails drops out alone. It builds the Jacobians once per Newton step, at
the iterates the step starts from, and its line search evaluates only
residuals: Armijo backtracking whose trial steps 2^-h are tried in runs of
h from h = 0, one residual call per run over the rows still searching:
doubling runs that grow to fill a stack of SEED_BLOCK trial points when
few rows are searching, so a step with one or two rows searching makes
one call, as does a step with 8 rows that all accept by h = 7. The steps
and their Armijo factors are two read-only arrays built once at import
from NEWTON_MAX_HALVINGS and sliced per call. The contact system's
callbacks read z and nu through the complex view of the stack and write
each residual and Jacobian into one array allocated per call, its rows
float views of complex rows, with no concatenation; their constants are
built once per system. Every entry is the value whole-block
concatenation in the unknowns (Re z, Im z, Re nu, Im nu) gives, permuted
(a zero may differ in sign). `sphere_search` hands it the seeds in blocks
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


def _contact_points(Z: np.ndarray, mu: np.ndarray, radius, residual: np.ndarray) -> list[ContactPoint]:
    """The ContactPoints of the rows of Z with their multipliers and residuals.

    radius is one value for every row or one per row.
    """
    radii = np.broadcast_to(radius, len(Z))
    return [ContactPoint(z, complex(m), float(r), float(e)) for z, m, r, e in zip(Z, mu, radii, residual)]


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


def _sphere_sample(form: PolyOneForm, r: float, count: int, rng_seed: int):
    """(r_s, Z, F, scale): count seeds Z on the sphere of radius r_s, f at them and its rounding scale.

    The contact set of a homogeneous form is a cone, on which the contact
    residual and the scan score are constant, so such a form is sampled on
    the unit sphere, r_s = 1; any other at r_s = r. One evaluate_scaled of
    the seeds gives F and the scale, and a seed where the scale is not
    finite raises RadiusRangeError, as point_at does, naming the sphere
    sampled (a homogeneous form fails so at every radius): sphere_search
    and transversality_scan sample the sphere here.
    """
    homogeneous = form.homogeneous_degree() is not None
    r_s = 1.0 if homogeneous else r
    Z = sphere_seeds(form.n, count, rng_seed, r_s)
    F, scale = form.evaluate_scaled(Z)
    if not np.isfinite(scale).all():
        sphere = "the unit sphere, where a homogeneous form is sampled," if homogeneous else f"radius {r:.3g}"
        raise RadiusRangeError(f"{sphere} is out of range: f's rounding scale is non-finite")
    return r_s, Z, F, scale


def _contact_system(form: PolyOneForm, r: float, anchors: np.ndarray):
    """Stacked (residual, jacobian) callbacks of the real contact system.

    Row s of a stack U is the float view of the complex row (z_1, ..., z_n,
    nu), nu = 1/mu: the unknowns (Re z_1, Im z_1, ..., Re nu, Im nu),
    interleaved. The solved equations are nu z - conj(f(z)) = 0 plus the
    sphere and phase-anchor rows, with anchors[s] the anchor of stack row s,
    and the residual is the float view of (nu z - conj(f(z)), (|z|^2 - r^2)
    + i Im <z, anchor>). The inverse multiplier keeps the Jacobian uniformly
    scaled across solution branches (the nu-column is z, of norm r, whereas
    the mu-column conj(f) collapses on branches with small coefficient norm
    and starves their Newton basins). residual(U, rows) is (S, 2n+2) and
    jacobian(U, rows) is (S, 2n+2, 2n+2) for the stack rows `rows` held in
    U; the callbacks read z and nu through U.view(complex). In the Jacobian,
    rows 2j and 2j+1 of the z block are the float views of -conj(df_j/dz)
    and i conj(df_j/dz), nu is added to its diagonal 2 x 2 blocks by four
    strided adds, the nu columns are the float views of z and i z, the
    sphere row is 2 (Re z, Im z) and the phase row, built once here, is the
    float view of i anchor. Each array is allocated once per call, and its
    entries are those of the system in blocks (Re z, Im z, Re nu, Im nu),
    permuted (a zero may differ in sign).
    """
    n, m = form.n, 2 * form.n
    r2 = r * r
    anchors_conj = anchors.conj()
    phase_rows = (1j * anchors).view(float)

    def residual(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        V = U.view(complex)
        Z = V[:, :n]
        out = np.empty(V.shape, dtype=complex)
        np.subtract(V[:, n:] * Z, form.evaluate(Z).conj(), out=out[:, :n])
        F = out.view(float)
        np.subtract(np.add.reduce(np.abs(Z) ** 2, axis=1), r2, out=F[:, m])
        F[:, m + 1] = np.add.reduce(Z * anchors_conj[rows], axis=1).imag
        return F

    def jacobian(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        S, N = U.shape
        J = np.empty((S, N, N))
        V = U.view(complex)
        Df = jacobian_form(form, V[:, :n]).conj()
        np.negative(Df, out=J.view(complex)[:, 0:m:2, :n])
        np.multiply(Df, 1j, out=J.view(complex)[:, 1:m:2, :n])
        nu, diagonal = V[:, n:], J.reshape(S, N * N)[:, : m * N]  # entry (2j, 2j) at 2j (N + 1)
        diagonal[:, :: 2 * N + 2] += nu.real
        diagonal[:, 1 :: 2 * N + 2] -= nu.imag
        diagonal[:, N :: 2 * N + 2] += nu.imag
        diagonal[:, N + 1 :: 2 * N + 2] += nu.real
        J[:, :m, m] = U[:, :m]
        J[:, :m, m + 1] = (1j * V[:, :n]).view(float)
        np.multiply(U[:, :m], 2.0, out=J[:, m, :m])  # the sphere row
        J[:, m + 1, :m] = phase_rows[rows]
        J[:, m:, m:] = 0.0
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
    residual call tries a run of h for every row still searching: from
    h = lo, starting at 0, the next max(lo + 1, SEED_BLOCK // rows
    searching) values, capped at NEWTON_MAX_HALVINGS, until every row has
    accepted a step. With many rows searching these are h = 0 alone and
    then the doubling chunks 1-2 | 3-6 | 7-14 | 15-30; with few, the run
    grows to fill a stack of SEED_BLOCK trials: 8 rows try h = 0-7 in one
    call, and one or two rows all 31 values. No call evaluates more than
    max(SEED_BLOCK, rows x (lo + 1)) trial points, and no call's stack has
    one row, which a matrix-vector product would contract, rounding
    differently from a stack of two or more rows; for the same reason no
    run leaves h = NEWTON_MAX_HALVINGS alone for the next call. So every
    trial point is evaluated with the bits a one-halving-at-a-time search,
    in stacks of at least two rows, gives it, and the row takes the first
    passing h of its run, that search's very step, gathered with the other
    accepted rows through one flat index into the run's trials. A row
    fails, and comes back with norm inf, on a singular or non-finite step,
    or when no h passes; the other rows go on. The callbacks take (U,
    rows): the iterates of the stack rows `rows`.
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
            hi = min(lo + max(lo + 1, SEED_BLOCK // rows.size), NEWTON_MAX_HALVINGS + 1)
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


def _newton_on_sphere(form: PolyOneForm, Z0: np.ndarray, F0: np.ndarray, r: float, tol: float):
    """The contact points damped Newton reaches at radius r from the rows of Z0: (Z, mu, residual).

    F0 is f at the rows of Z0, which the caller already holds; it gives
    each row's starting nu, the least-squares solution of nu z = conj(f).
    The kernel's first residual call evaluates the starts again. Each row
    is anchored at its own start (its phase row is Im <z, start> = 0) and
    runs at most NEWTON_MAX_ITER steps. Its last iterate, wherever the
    kernel stopped, is scaled to radius r unless z collapsed to 0, and
    kept where it passes _contact_rows to tol, in row order: that verdict
    alone accepts a point. The kernel's target 1e-13 r is only its early
    exit, not a verdict, so a row that stalls at the rounding floor of f's
    terms, which grows with r faster than r, still gives its point. The
    kernel runs with overflow ignored: a non-finite trial fails its Armijo
    test, a non-finite step fails its row, and the verdict judges what is
    left.
    """
    n = form.n
    with np.errstate(over="ignore", invalid="ignore"):
        nu0 = np.conj(np.sum(F0 * Z0, axis=1)) / (r * r)  # least squares for ||nu z - conj f||
        U0 = np.concatenate([Z0, nu0[:, None]], axis=1).view(float)
        U = _damped_newton(*_contact_system(form, r, Z0), U0, 1e-13 * r, NEWTON_MAX_ITER)[0]
    Z = U.view(complex)[:, :n]
    nz = np.linalg.norm(Z, axis=1)
    kept = nz > 0.0
    Z = Z[kept] * (r / nz[kept])[:, None]
    mu, residual, ok = _contact_rows(form, Z, tol)
    return Z[ok], mu[ok], residual[ok]


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

    The seeds are drawn by _sphere_sample, as transversality_scan's
    samples are. The contact set of a homogeneous form of degree k is a
    cone, and mu scales by t^(1-k) along it: such forms are solved on the
    unit sphere and the points scaled to radius r, so the answer does not
    depend on how far r is from 1. An r at which the scale r^(1-k) or a
    scaled mu is not a normal finite double raises RadiusRangeError. Any
    other form is solved at r itself. Where f's rounding scale overflows at
    a seed, on the unit sphere or at r, the search raises RadiusRangeError,
    as point_at does, rather than report no point.
    """
    _check_radius(r)
    _check_tol(tol)
    if n_seeds < 1:
        raise ValueError("need at least one seed")
    if form.is_zero:
        raise SingularGradientError("every coefficient of the one-form is zero")
    r_solve, seeds, F, _ = _sphere_sample(form, r, n_seeds, rng_seed)
    blocks = [slice(start, start + SEED_BLOCK) for start in range(0, n_seeds, SEED_BLOCK)]
    found = [_newton_on_sphere(form, seeds[block], F[block], r_solve, tol) for block in blocks]
    Z_all, mu, res = (np.concatenate(parts) for parts in zip(*found))
    reported = _merge_points(Z_all, dedup_tol=1e-6 * r_solve)
    Z, mu, res, radius = Z_all[reported], mu[reported], res[reported], r_solve
    if r_solve != r:
        k = form.homogeneous_degree()
        with np.errstate(over="ignore", invalid="ignore"):  # out-of-range values are refused below
            mu_scale = np.float64(r) ** (1 - k)
            mu = mu_scale * mu
        size = np.abs(np.append(mu, mu_scale))
        if not np.all((np.finfo(float).tiny <= size) & (size < np.inf)):
            raise RadiusRangeError(f"radius {r:.3g} is out of range: r^{1 - k} mu is not a normal double")
        Z, radius = r * Z, r
    return SphereSearch(_contact_points(Z, mu, radius, res), n_seeds, len(Z_all))


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
    prediction, so the corrected point has the prediction's phase. The
    first radius where it fails ends the direction.
    """
    pts, z_prev, r_prev = [], start.z, start.radius
    for r in radii:
        pred = (z_prev * (r / r_prev))[None]
        Z, mu, residual = _newton_on_sphere(form, pred, form.evaluate_scaled(pred)[0], r, tol)
        # a corrected point far from the prediction means the branch
        # was lost (collision / non-Morse behavior), not continued
        if not (len(Z) and np.linalg.norm(Z[0] - pred[0]) <= 0.3 * r):
            return pts, float(r)
        z_prev, r_prev = Z[0], r
        pts += _contact_points(Z, mu, r, residual)
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
    pts = _contact_points(Z[:stop], mu[:stop], radii[:stop], residual[:stop])
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
