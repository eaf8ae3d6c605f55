"""Geometry on leaves of an exact one-form.

The projected field w(z) = z - mu(z) conj(f(z)) is tangent to the foliation
(its hermitian product with the gradient conj(f) vanishes identically),
vanishes exactly on the contact variety, and under the standard
identification of C^n with R^{2n} equals half the gradient of the squared
distance restricted to the leaf. Flowing along -w therefore descends the
distance on the leaf; critical points of the restricted distance are the
contact points on that leaf. f, mu, w and the singular test come from
contact._field, the one place where they are computed: sample_field raises
at a singular point, transversality_scan scores it 0, and the points flows
and Hessians report take mu and the residual from their field sample.

Leaves are tracked through a known polynomial first integral g with
f = dg: the flow corrects drift by Newton steps back onto {g = c} along the
gradient, and the restricted Hessian at a critical point is computed
exactly from f, D^2 g and the multiplier, in an orthonormal basis of the
tangent space ker(f^T) of the leaf.

Hessian scale convention: reports contain half the Hessian of the squared
distance, which makes the eigenvalues dimensionless (the quadratic-integral
closed form is then exactly {1 +- sigma_i/sigma_j}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Polynomial, PolyOneForm, as_cvec, jacobian_form
from .contact import (
    ContactPoint,
    _check_radius,
    _damped_newton,
    _field,
    _real_rows,
    sphere_seeds,
)
from .errors import (
    ChartError,
    FlowError,
    LeafCorrectionError,
    SingularGradientError,
)

LEAF_TOL = 1e-9  # relative on-leaf precondition tolerance
EIG_TOL = 1e-7
DEFAULT_FLOW_TOL = 1e-8


@dataclass
class FieldSample:
    """One evaluation of the projected tangential field."""

    z: np.ndarray
    grad_omega: np.ndarray
    mu: complex
    w: np.ndarray
    t_norm: float


@dataclass
class LeafChart:
    """The leaf {g = c} of a first integral g, with the one-form f = dg.

    Flows, the leaf polish and the restricted Hessian all move on the leaf
    through g and f; make_chart checks that the leaf is regular where it
    is created.
    """

    integral: Polynomial
    form: PolyOneForm
    c: complex


@dataclass
class HessianReport:
    """Exact restricted Hessian (half squared distance) at a critical point.

    `matrix` is symmetric, of size 2(n-1), in the real coordinates
    (Re xi_1, Im xi_1, Re xi_2, Im xi_2, ...) of tangent vectors v = Q xi,
    where Q is an orthonormal complex basis of the leaf's tangent space (see
    leaf_hessian); its eigenvalues do not depend on that choice of basis.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray  # ascending
    negative_count: int
    point: ContactPoint


@dataclass
class FlowResult:
    """Converged flow plus its trace (step count, distance values)."""

    point: ContactPoint
    steps: int
    phi_trace: list[float] = field(default_factory=list)
    polished: bool = False


def sample_field(form: PolyOneForm, z) -> FieldSample:
    """Projected field sample at z; t_norm is the transversality measure."""
    z = as_cvec(z, form.n)
    if np.linalg.norm(z) == 0.0:
        raise ValueError("field sample is undefined at the origin")
    f, mu, w, singular = _field(form, z)
    if singular:
        raise SingularGradientError("gradient of the one-form vanishes at this point")
    return FieldSample(
        z=z,
        grad_omega=f.conj(),
        mu=complex(mu),
        w=w,
        t_norm=float(np.linalg.norm(w)),
    )


def _sampled_point(s: FieldSample, leaf_value: complex, morse_index: int | None = None):
    """The ContactPoint at a field sample s, with mu and the residual from s."""
    radius = float(np.linalg.norm(s.z))
    return ContactPoint(s.z, s.mu, radius, s.t_norm / radius, leaf_value, morse_index)


def project_to_leaf(
    integral: Polynomial,
    form: PolyOneForm,
    z,
    c: complex,
    max_iter: int = 50,
) -> np.ndarray:
    """Newton-correct z onto the leaf {g = c} of the integral g along conj(f).

    With f = dg the form, iterates z += (c - g(z)) conj(f(z)) / ||f(z)||^2
    down to the rounding floor; raises LeafCorrectionError on divergence.

    It stays outside the shared kernel contact._damped_newton: it solves one
    complex equation in n unknowns by that minimum-norm step, with no line
    search, and the kernel solves square systems; a non-square branch in
    the kernel would be a second path through it.
    """
    z = as_cvec(z, form.n)
    target = 1e-14 * (1.0 + abs(c))
    accept = 1e-12 * (1.0 + abs(c))
    best_err = np.inf
    for _ in range(max_iter):
        val = integral.evaluate(z)
        err = abs(val - c)
        if err <= target:
            return z
        if err >= best_err and err <= accept:
            return z  # stagnated at the rounding floor, still on the leaf
        best_err = min(best_err, err)
        f = form.evaluate(z)
        denom = float(np.sum(np.abs(f) ** 2))
        if denom <= 1e-28 * (1.0 + np.linalg.norm(z)) ** 2:
            raise LeafCorrectionError("gradient vanished during leaf correction")
        z = z + (c - val) / denom * f.conj()
        if not np.all(np.isfinite(z.view(float))):
            raise LeafCorrectionError("leaf correction diverged")
    val = integral.evaluate(z)
    if abs(val - c) <= accept:
        return z
    raise LeafCorrectionError(
        f"leaf correction did not converge (|f - c| = {abs(val - c):.3e})"
    )


def homogeneous_leaf_scale(integral: Polynomial, z, c: complex) -> np.ndarray:
    """Scale z onto {f = c} for a homogeneous integral: z * (c/f(z))^(1/k)."""
    z = as_cvec(z, integral.n)
    k = integral.homogeneous_degree()
    if k is None:
        raise ValueError("integral is not homogeneous")
    val = integral.evaluate(z)
    if abs(val) <= 1e-14 * (1.0 + abs(c)):
        raise LeafCorrectionError("seed lies on the zero cone of the integral")
    return z * (c / val) ** (1.0 / k)


def make_chart(
    integral: Polynomial,
    base,
    c: complex | None = None,
    form: PolyOneForm | None = None,
) -> LeafChart:
    """The leaf of `integral` through (or prescribed by c near) base.

    Raises ValueError if base is off the prescribed leaf and ChartError if
    every coefficient of the form vanishes there.
    """
    if form is None:
        form = integral.differential()
    base = as_cvec(base, form.n)
    val = integral.evaluate(base)
    if c is None:
        c = val
    elif abs(val - c) > LEAF_TOL * (1.0 + abs(c)):
        raise ValueError(
            f"base is not on the leaf (|f(base) - c| = {abs(val - c):.3e})"
        )
    if np.max(np.abs(form.evaluate(base))) < 1e-10 * (1.0 + np.linalg.norm(base)):
        raise ChartError("all form coefficients vanish at the base point")
    return LeafChart(integral=integral, form=form, c=complex(c))


def _leaf_system(chart: LeafChart):
    """Stacked (residual, jacobian) callbacks of the leaf-constrained contact system.

    Square real system in (Re z, Im z, Re mu, Im mu) for each row of a
    stack U: z - mu conj(f(z)) = 0 plus the real and imaginary parts of
    f(z) - c = 0. The leaf constraint replaces the sphere and phase rows of
    the sphere solver, as the leaf meets each phase orbit discretely. The
    system has no per-row data, so the callbacks ignore the kernel's rows.
    """
    form, integral, c = chart.form, chart.integral, chart.c
    n = form.n

    def residual(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        Z = U[:, :n] + 1j * U[:, n : 2 * n]
        G = Z - (U[:, 2 * n] + 1j * U[:, 2 * n + 1])[:, None] * form.evaluate(Z).conj()
        L = integral.evaluate(Z) - c
        return np.concatenate([G.real, G.imag, L.real[:, None], L.imag[:, None]], axis=1)

    def jacobian(U: np.ndarray, rows: np.ndarray) -> np.ndarray:
        Z = U[:, :n] + 1j * U[:, n : 2 * n]
        mu = U[:, 2 * n] + 1j * U[:, 2 * n + 1]
        F = form.evaluate(Z)
        G = _real_rows(
            np.broadcast_to(np.eye(n), (len(U), n, n)),
            -mu[:, None, None] * jacobian_form(form, Z).conj(),
            -F.conj(),
        )
        # d(f - c) = sum_k f_k dz_k: holomorphic, free of the multiplier
        leaf = _real_rows(F[:, None, :], np.zeros((len(U), 1, n)), np.zeros((len(U), 1)))
        return np.concatenate([G, leaf], axis=1)

    return residual, jacobian


def _polish_on_leaf(
    chart: LeafChart, z0: np.ndarray, max_iter: int = 40
) -> np.ndarray | None:
    """Newton on (z - mu conj(f) = 0, f(z) - c = 0); None on failure.

    Runs the damped-Newton kernel shared with the sphere solver on a stack
    of one (contact._damped_newton: one Jacobian per step, residuals only at
    line-search trial points) and, unlike that solver, succeeds only when
    the residual norm reaches its target 1e-13 (1 + |c| + |z0|).
    """
    form, c = chart.form, chart.c
    n = form.n
    f0 = form.evaluate(z0)
    d0 = float(np.sum(np.abs(f0) ** 2))
    if d0 <= 1e-28:
        return None
    mu = complex(np.sum(z0 * f0) / d0)
    u0 = np.concatenate([z0.real, z0.imag, [mu.real, mu.imag]])
    target = 1e-13 * (1.0 + abs(c) + np.linalg.norm(z0))
    U, norm = _damped_newton(*_leaf_system(chart), u0[None], target, max_iter)
    if not norm[0] <= target:
        return None
    return U[0, :n] + 1j * U[0, n : 2 * n]


def flow_to_critical(
    chart: LeafChart,
    z0,
    direction: str = "descend",
    tol: float = DEFAULT_FLOW_TOL,
    max_steps: int = 2000,
) -> FlowResult:
    """Flow the projected field on the leaf to a critical point.

    Adaptive explicit midpoint on dz/ds = -w (descend) or +w (ascend), each
    accepted step Newton-corrected back onto the leaf, with phi = |z|^2
    strictly monotone across accepted steps. Once t_norm is small the flow
    hands over to a Newton polish on the leaf-constrained contact system
    (so near-critical seeds, including saddle seeds, return immediately).
    """
    if direction not in ("descend", "ascend"):
        raise ValueError("direction must be 'descend' or 'ascend'")
    sgn = -1.0 if direction == "descend" else 1.0
    integral, form, c = chart.integral, chart.form, chart.c

    z = as_cvec(z0, form.n)
    if abs(integral.evaluate(z) - c) > LEAF_TOL * (1.0 + abs(c)):
        raise ValueError("seed is not on the leaf")

    def finish(sample, steps, trace, polished):
        return FlowResult(
            point=_sampled_point(sample, complex(integral.evaluate(sample.z))),
            steps=steps,
            phi_trace=trace,
            polished=polished,
        )

    phi = float(np.sum(np.abs(z) ** 2))
    trace = [phi]
    s = sample_field(form, z)
    if s.t_norm <= tol:
        polished = _polish_on_leaf(chart, z)
        if polished is not None and np.linalg.norm(polished - z) <= 0.2 * (
            1.0 + np.linalg.norm(z)
        ):
            return finish(sample_field(form, polished), 0, trace, True)
        return finish(s, 0, trace, False)

    h = 0.005 * (1.0 + phi) / (s.t_norm**2 + 1e-300)
    steps = 0
    last_polish_t = np.inf
    for _ in range(max_steps):
        switch = max(tol, 1e-3 * (1.0 + np.sqrt(phi)))
        if s.t_norm <= switch and s.t_norm < 0.3 * last_polish_t:
            last_polish_t = s.t_norm
            polished = _polish_on_leaf(chart, z)
            if polished is not None and np.linalg.norm(polished - z) <= 0.2 * (
                1.0 + np.linalg.norm(z)
            ):
                s_fin = sample_field(form, polished)
                if s_fin.t_norm <= tol:
                    return finish(s_fin, steps, trace, True)
        if s.t_norm <= tol:
            return finish(s, steps, trace, False)

        accepted = False
        while h >= 1e-15:
            try:
                z_mid = project_to_leaf(integral, form, z + sgn * 0.5 * h * s.w, c)
                w_mid = sample_field(form, z_mid).w
                z_new = project_to_leaf(integral, form, z + sgn * h * w_mid, c)
            except (LeafCorrectionError, SingularGradientError):
                h *= 0.5
                continue
            phi_new = float(np.sum(np.abs(z_new) ** 2))
            dphi = phi_new - phi
            monotone = dphi < 0 if sgn < 0 else dphi > 0
            if monotone and abs(dphi) <= 0.25 * (1.0 + phi):
                accepted = True
                break
            h *= 0.5
        if not accepted:
            raise FlowError(
                "step size collapsed before reaching a critical point",
                last_point=finish(s, steps, trace, False).point,
                steps=steps,
            )
        z, phi = z_new, phi_new
        trace.append(phi)
        steps += 1
        s = sample_field(form, z)
        h *= 1.5

    if s.t_norm <= tol:
        return finish(s, steps, trace, False)
    raise FlowError(
        f"step limit exceeded (t_norm = {s.t_norm:.3e} after {steps} steps)",
        last_point=finish(s, steps, trace, False).point,
        steps=steps,
    )


def _tangent_basis(f: np.ndarray) -> np.ndarray:
    """Orthonormal complex basis Q (n x (n-1)) of ker(f^T) = {v : sum f_j v_j = 0}.

    The Gram-Schmidt basis of the implicit-function tangents
    e_j - (f_j/f_k) e_k, j != k, with k = argmax |f_j|: their QR factors
    with the diagonal of R made real positive. Where those tangents are
    already orthonormal (e.g. f along a coordinate axis), Q is exactly them.
    """
    n = f.size
    k = int(np.argmax(np.abs(f)))
    free = [j for j in range(n) if j != k]
    V = np.zeros((n, n - 1), dtype=complex)
    V[free, range(n - 1)] = 1.0
    V[k] = -f[free] / f[k]
    Q, R = np.linalg.qr(V)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def leaf_hessian(
    chart: LeafChart,
    p,
    crit_tol: float = 1e-6,
    eig_tol: float = EIG_TOL,
) -> HessianReport:
    """Exact restricted Hessian (half squared distance) at a critical point p.

    A leaf curve z(t) = p + t v + t^2 a / 2 with f = dg(p) has f^T v = 0 and
    f^T a = -v^T H v, where H = D^2 g(p) (the Jacobian of the form). As
    p = mu conj(f) at a critical point, phi = |z|^2/2 has second derivative
    |v|^2 - Re(conj(mu) v^T H v) along it (the second-order conditions of
    constrained optimisation). With v = Q xi for an orthonormal basis Q of
    ker(f^T) and S = conj(mu) Q^T H Q this is |xi|^2 - Re(xi^T S xi), so the
    real matrix is I - [[Re S, -Im S], [-Im S, -Re S]], with (Re xi_a,
    Im xi_a) interleaved, and its eigenvalues are 1 +- (Takagi values of S).
    """
    form, integral, c = chart.form, chart.integral, chart.c
    p = as_cvec(p, form.n)
    val = complex(integral.evaluate(p))
    if abs(val - c) > LEAF_TOL * (1.0 + abs(c)):
        raise ValueError("point is not on the chart leaf")
    s = sample_field(form, p)
    if s.t_norm > crit_tol:
        raise ValueError(f"point is not critical (t_norm = {s.t_norm:.3e})")

    Q = _tangent_basis(s.grad_omega.conj())
    H = jacobian_form(form, p)
    S = np.conj(s.mu) * (Q.T @ (0.5 * (H + H.T)) @ Q)
    # block (a, b) of M is delta_ab I - Re S_ab diag(1, -1) + Im S_ab [[0, 1], [1, 0]]
    M = (
        np.eye(2 * (form.n - 1))
        - np.kron(S.real, np.diag([1.0, -1.0]))
        + np.kron(S.imag, [[0.0, 1.0], [1.0, 0.0]])
    )

    eigenvalues = np.linalg.eigvalsh(M)
    negative_count = int(np.sum(eigenvalues < -eig_tol))
    point = _sampled_point(s, val, negative_count)
    return HessianReport(
        matrix=M, eigenvalues=eigenvalues, negative_count=negative_count, point=point
    )


def transversality_scan(
    form: PolyOneForm, r: float, n_samples: int, rng_seed: int, n_worst: int = 10
) -> tuple[float, list[tuple[float, np.ndarray]]]:
    """Minimum of t_norm/|z| over random sphere samples, with worst points.

    Samples share the seed stream with the contact solver, so larger sample
    counts extend (and their minima refine) smaller ones. Sample points where
    the gradient vanishes score 0 (a singular point on the sphere is maximal
    non-transversality). The score of a homogeneous form is scale-free, so
    such forms are sampled on the unit sphere and the worst points scaled
    to radius r.
    """
    _check_radius(r)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    r_sample = 1.0 if form.homogeneous_degree() is not None else r
    z = sphere_seeds(form.n, n_samples, rng_seed, r_sample)
    _, _, w, singular = _field(form, z)
    scores = np.linalg.norm(w, axis=1) / r_sample
    scores[singular] = 0.0
    order = np.argsort(scores, kind="stable")[: min(n_worst, n_samples)]
    worst = [(float(scores[i]), z[i] * (r / r_sample)) for i in order]
    return float(scores.min()), worst


def index_persistence(
    chart: LeafChart,
    p: ContactPoint,
    dc: complex,
    flow_tol: float = DEFAULT_FLOW_TOL,
) -> bool:
    """Does the critical point survive on the nearby leaf c + dc, same index?

    The seed is p transported onto the new leaf along the gradient, then
    flowed to a critical point there; True iff that point stays within the
    persistence radius 10 sqrt(|dc|) (1 + |p|) and its Morse index matches.
    A False is a report, not an error: degenerate (non-Morse) points may
    legitimately fail.
    """
    if p.morse_index is None:
        raise ValueError("point needs a computed morse_index")
    dc = complex(dc)
    if abs(dc) > 0.1 * abs(chart.c):
        raise ValueError("|dc| must be at most 0.1 |c|")
    c_new = chart.c + dc
    try:
        seed = project_to_leaf(chart.integral, chart.form, p.z, c_new)
        chart_new = make_chart(chart.integral, seed, c_new, form=chart.form)
        result = flow_to_critical(chart_new, seed, "descend", tol=flow_tol)
        report = leaf_hessian(chart_new, result.point.z)
    except (FlowError, ChartError, ValueError):
        return False
    persist_radius = 10.0 * np.sqrt(abs(dc)) * (1.0 + np.linalg.norm(p.z))
    if np.linalg.norm(result.point.z - p.z) > persist_radius:
        return False
    return report.negative_count == p.morse_index
