"""Geometry on leaves of an exact one-form.

The projected field w(z) = z - mu(z) conj(f(z)) is tangent to the foliation
(its hermitian product with the gradient conj(f) vanishes identically),
vanishes exactly on the contact variety, and under the standard
identification of C^n with R^{2n} equals half the gradient of the squared
distance restricted to the leaf. Flowing along -w therefore descends the
distance on the leaf; critical points of the restricted distance are the
contact points on that leaf.

Leaves are tracked through a known polynomial first integral f: the flow
corrects drift by Newton steps back onto {f = c} along the gradient, and
the restricted Hessian is computed in implicit-function chart coordinates
that eliminate the strongest coefficient ("pivot") variable.

Hessian scale convention: reports contain half the Hessian of the squared
distance, which makes the eigenvalues dimensionless (the quadratic-integral
closed form is then exactly {1 +- sigma_i/sigma_j}).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Polynomial, PolyOneForm, as_cvec, jacobian_form
from .contact import ContactPoint, _damped_newton, _real_rows, contact_residual, mu_of, sphere_seeds
from .errors import (
    ChartError,
    FlowError,
    LeafCorrectionError,
    SingularGradientError,
)

LEAF_TOL = 1e-9  # relative on-leaf precondition tolerance
EIG_TOL = 1e-7
HESSIAN_STEP = 1e-4
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
    """Implicit-function chart on the leaf {f = c} around `base`.

    The pivot is the coordinate with the largest |f_j(base)|; it is the
    variable eliminated by the implicit function theorem, and computations
    in the chart refuse to continue if its coefficient decays below half
    the creation-time strength.
    """

    integral: Polynomial
    form: PolyOneForm
    base: np.ndarray
    c: complex
    pivot: int
    pivot_strength: float

    def validate_at(self, z: np.ndarray) -> None:
        fk = abs(self.form.coeffs[self.pivot].evaluate(z))
        if fk < 0.5 * self.pivot_strength or fk < 1e-12 * (1.0 + np.linalg.norm(z)):
            raise ChartError(
                f"pivot coefficient {self.pivot} degenerated ({fk:.3e} vs creation "
                f"strength {self.pivot_strength:.3e})"
            )


@dataclass
class HessianReport:
    """Real restricted Hessian in chart coordinates (half squared-distance)."""

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
    f = form.evaluate(z)
    grad = f.conj()
    mu = mu_of(form, z)
    w = z - mu * grad
    return FieldSample(
        z=z,
        grad_omega=grad,
        mu=mu,
        w=w,
        t_norm=float(np.linalg.norm(w)),
    )


def project_to_leaf(
    integral: Polynomial,
    form: PolyOneForm,
    z,
    c: complex,
    max_iter: int = 50,
) -> np.ndarray:
    """Newton-correct z onto {f = c} along the gradient conj(f).

    Iterates z += (c - f(z)) conj(f(z)) / ||f(z)||^2 down to the rounding
    floor; raises LeafCorrectionError on divergence.
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
    """Chart on the leaf of `integral` through (or prescribed by c near) base."""
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
    f = form.evaluate(base)
    pivot = int(np.argmax(np.abs(f)))
    strength = float(np.abs(f[pivot]))
    if strength < 1e-10 * (1.0 + np.linalg.norm(base)):
        raise ChartError("all form coefficients vanish at the base point")
    return LeafChart(
        integral=integral,
        form=form,
        base=base,
        c=complex(c),
        pivot=pivot,
        pivot_strength=strength,
    )


def _leaf_system(chart: LeafChart):
    """(residual, jacobian) callbacks of the leaf-constrained contact system.

    Square real system in (Re z, Im z, Re mu, Im mu): z - mu conj(f(z)) = 0
    plus the real and imaginary parts of f(z) - c = 0. The leaf constraint
    replaces the sphere and phase rows of the sphere solver, as the leaf
    meets each phase orbit discretely.
    """
    form, integral, c = chart.form, chart.integral, chart.c
    n = form.n

    def residual(u: np.ndarray) -> np.ndarray:
        z = u[:n] + 1j * u[n : 2 * n]
        G = z - complex(u[2 * n], u[2 * n + 1]) * form.evaluate(z).conj()
        L = integral.evaluate(z) - c
        return np.concatenate([G.real, G.imag, [L.real, L.imag]])

    def jacobian(u: np.ndarray) -> np.ndarray:
        z = u[:n] + 1j * u[n : 2 * n]
        mu = complex(u[2 * n], u[2 * n + 1])
        f = form.evaluate(z)
        rows = _real_rows(np.eye(n), -mu * jacobian_form(form, z).conj(), -f.conj())
        # d(f - c) = sum_k f_k dz_k: holomorphic, free of the multiplier
        leaf = _real_rows(f[None, :], np.zeros((1, n)), np.zeros(1))
        return np.vstack([rows, leaf])

    return residual, jacobian


def _polish_on_leaf(
    chart: LeafChart, z0: np.ndarray, max_iter: int = 40
) -> np.ndarray | None:
    """Newton on (z - mu conj(f) = 0, f(z) - c = 0); None on failure.

    Runs the damped-Newton kernel shared with the sphere solver
    (contact._damped_newton: one Jacobian per step, residuals only at
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
    out = _damped_newton(*_leaf_system(chart), u0, target, max_iter)
    if out is None or out[1] > target:
        return None
    return out[0][:n] + 1j * out[0][n : 2 * n]


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

    def finish(z, steps, trace, polished):
        res = contact_residual(form, z)
        return FlowResult(
            point=ContactPoint(
                z=z,
                mu=mu_of(form, z),
                radius=float(np.linalg.norm(z)),
                residual=res,
                leaf_value=complex(integral.evaluate(z)),
            ),
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
            return finish(polished, 0, trace, True)
        return finish(z, 0, trace, False)

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
                t_fin = sample_field(form, polished).t_norm
                if t_fin <= tol:
                    return finish(polished, steps, trace, True)
        if s.t_norm <= tol:
            return finish(z, steps, trace, False)

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
                last_point=finish(z, steps, trace, False).point,
                steps=steps,
            )
        z, phi = z_new, phi_new
        trace.append(phi)
        steps += 1
        s = sample_field(form, z)
        h *= 1.5

    if s.t_norm <= tol:
        return finish(z, steps, trace, False)
    raise FlowError(
        f"step limit exceeded (t_norm = {s.t_norm:.3e} after {steps} steps)",
        last_point=finish(z, steps, trace, False).point,
        steps=steps,
    )


def _chart_point(
    chart: LeafChart, p: np.ndarray, free_idx: list[int], offsets: np.ndarray
) -> np.ndarray:
    """Leaf point with the free chart coordinates displaced by `offsets`.

    offsets has length 2(n-1), interleaved (dx, dy) per free coordinate; the
    pivot coordinate is re-solved by 1-d Newton on f(z) = c.
    """
    integral, form, c, k = chart.integral, chart.form, chart.c, chart.pivot
    z = p.copy()
    for m, j in enumerate(free_idx):
        z[j] = z[j] + complex(offsets[2 * m], offsets[2 * m + 1])
    target = 1e-14 * (1.0 + abs(c))
    for _ in range(60):
        val = integral.evaluate(z)
        if abs(val - c) <= target:
            return z
        fk = form.coeffs[k].evaluate(z)
        if abs(fk) < 0.5 * chart.pivot_strength:
            raise ChartError("pivot coefficient degenerated during chart solve")
        z[k] = z[k] - (val - c) / fk
    if abs(integral.evaluate(z) - c) <= 1e-12 * (1.0 + abs(c)):
        return z
    raise ChartError("pivot solve did not converge")


def leaf_hessian(
    chart: LeafChart,
    p,
    crit_tol: float = 1e-6,
    step_scale: float = HESSIAN_STEP,
    eig_tol: float = EIG_TOL,
) -> HessianReport:
    """Restricted Hessian (half squared distance) at a critical point p.

    Second-order central differences in the 2(n-1) real chart coordinates;
    every displaced point is put back on the leaf through the pivot before
    evaluating the distance.
    """
    form, integral, c = chart.form, chart.integral, chart.c
    p = as_cvec(p, form.n)
    if abs(integral.evaluate(p) - c) > LEAF_TOL * (1.0 + abs(c)):
        raise ValueError("point is not on the chart leaf")
    s = sample_field(form, p)
    if s.t_norm > crit_tol:
        raise ValueError(f"point is not critical (t_norm = {s.t_norm:.3e})")
    chart.validate_at(p)

    free_idx = [j for j in range(form.n) if j != chart.pivot]
    dims = 2 * len(free_idx)
    h = step_scale * (1.0 + np.linalg.norm(p))

    def phi_half(offsets: np.ndarray) -> float:
        z = _chart_point(chart, p, free_idx, offsets)
        return 0.5 * float(np.sum(np.abs(z) ** 2))

    phi0 = 0.5 * float(np.sum(np.abs(p) ** 2))
    H = np.empty((dims, dims))
    for a in range(dims):
        ea = np.zeros(dims)
        ea[a] = h
        H[a, a] = (phi_half(ea) - 2.0 * phi0 + phi_half(-ea)) / (h * h)
    for a in range(dims):
        for b in range(a + 1, dims):
            ea = np.zeros(dims)
            eb = np.zeros(dims)
            ea[a] = h
            eb[b] = h
            val = (
                phi_half(ea + eb)
                - phi_half(ea - eb)
                - phi_half(-ea + eb)
                + phi_half(-ea - eb)
            ) / (4.0 * h * h)
            H[a, b] = H[b, a] = val

    eigenvalues = np.linalg.eigvalsh(H)
    negative_count = int(np.sum(eigenvalues < -eig_tol))
    point = ContactPoint(
        z=p,
        mu=s.mu,
        radius=float(np.linalg.norm(p)),
        residual=contact_residual(form, p),
        leaf_value=complex(integral.evaluate(p)),
        morse_index=negative_count,
    )
    return HessianReport(
        matrix=H, eigenvalues=eigenvalues, negative_count=negative_count, point=point
    )


def transversality_scan(
    form: PolyOneForm, r: float, n_samples: int, rng_seed: int, n_worst: int = 10
) -> tuple[float, list[tuple[float, np.ndarray]]]:
    """Minimum of t_norm/|z| over random sphere samples, with worst points.

    Samples share the seed stream with the contact solver, so larger sample
    counts extend (and their minima refine) smaller ones. Sample points where
    the gradient vanishes score 0 (a singular point on the sphere is maximal
    non-transversality).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    z = sphere_seeds(form.n, n_samples, rng_seed, r)
    f = form.evaluate(z)
    denom = np.sum(np.abs(f) ** 2, axis=1)
    singular = np.sqrt(denom) <= 1e-14 * (1.0 + r)
    denom_safe = np.where(singular, 1.0, denom)
    mu = np.sum(z * f, axis=1) / denom_safe
    w = z - mu[:, None] * f.conj()
    scores = np.linalg.norm(w, axis=1) / r
    scores[singular] = 0.0
    order = np.argsort(scores, kind="stable")[: min(n_worst, n_samples)]
    worst = [(float(scores[i]), z[i]) for i in order]
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
