"""Geometry on leaves of an exact one-form.

The projected field w(z) = z - mu(z) conj(f(z)) is tangent to the foliation
(its hermitian product with the gradient conj(f) vanishes identically),
vanishes exactly on the contact variety, and under the standard
identification of C^n with R^{2n} equals half the gradient of the squared
distance phi = |z|^2 restricted to the leaf; critical points of the
restricted distance are the contact points on that leaf. mu, w and the
singular test come from contact._field, the one place where they are
computed. A field sample (sample_field, and every flow, polish and Hessian
sample) refuses its point as point_at does, through contact._point_field,
the one refusal of a leaf point: the origin (ValueError), a point out of
range, where |z|^2 or f's rounding scale is not finite
(RadiusRangeError), and a singular point (SingularGradientError), a
chart's base included. transversality_scan scores a singular point 0.

Leaves are tracked through a known polynomial first integral g with
f = dg. A LeafChart compiles the power plan of g's and f's monomial
tables stacked (algebra._side_by_side), once per (integral, form): the
chart of a nearby leaf (index_persistence) shares it. Every point the leaf
code visits is built once (_evaluate): each iterate of the correction
onto {g = c}, the seed of a flow, the point of a Hessian and the base of
make_chart given a c. That build's g rows are contracted with the
integral's coefficients and its f rows with the form's, and f's rounding
scale is the form's _scale of its rows, so g, f and the scale are
integral.evaluate's and form.evaluate_scaled's, bit for bit. A field
sample is made from them with no second evaluation, and so is every point
a flow or leaf_hessian reports: its mu and residual are point_at's at its
z and its leaf_value is integral.evaluate(z). The correction hands back
its last build. The leaf's tests are relative to sizes at their point:
the correction's target and the on-leaf test to the leaf size, |c| plus
the plain product |z^E| |C| of g's rows, the flow's and the Hessian's
criticality tests to |z|, so a leaf near the origin behaves as a unit
one. The build and both sizes are taken under np.errstate: a point past
the doubles shows as a non-finite size, which the correction and the
field sample refuse, with no warning.

The leaf code has one Newton model, the second-order model of phi/2 on the
leaf (_leaf_model): in the orthonormal Householder basis Q of the tangent
space ker(f^T) (_tangent_basis), the gradient Q^H w and the matrix of
|xi|^2 - Re(xi^T S xi), with S = conj(mu) Q^T D^2 g Q, the Riemannian
Hessian with the least-squares multiplier. flow_to_critical descends phi by
modified-Newton steps on it, each trial corrected back onto {g = c} along
the gradient (_project) and accepted by an Armijo test, and near a critical
point hands over to a polish of pure Newton steps on the same model
(_polish_on_leaf); leaf_hessian reports the model's matrix at a critical
point, where it is the exact restricted Hessian. None of it runs the
damped-Newton kernel of the sphere solver (contact._damped_newton).

Hessian scale convention: reports contain half the Hessian of the squared
distance, which makes the eigenvalues dimensionless (the quadratic-integral
closed form is then exactly {1 +- sigma_i/sigma_j}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import Polynomial, PolyOneForm, _monomials, _side_by_side, as_cvec, jacobian_form
from .contact import ContactPoint, _check_radius, _check_tol, _contact_point, _field, _point_field, sphere_seeds
from .errors import FlowError, LeafCorrectionError, RadiusRangeError, SingularGradientError

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

    `table` is the power plan of g's and f's monomial tables stacked
    (algebra._side_by_side): one build of it at a point gives g, f and f's
    rounding scale, each as its own table gives it (_evaluate). It is
    compiled when a chart is made without one, and replace(chart, c=...)
    shares it, which is how index_persistence moves to a nearby leaf.
    Flows, the leaf polish and the restricted Hessian all move on the leaf
    through it; make_chart checks that a base given with its c is on the
    leaf, and the first field sample at a point refuses it if singular.
    """

    integral: Polynomial
    form: PolyOneForm
    c: complex
    table: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.table is None:
            self.table = _side_by_side(self.integral, self.form)


@dataclass
class HessianReport:
    """Exact restricted Hessian (half squared distance) at a critical point.

    `matrix` is symmetric, of size 2(n-1), in the real coordinates
    (Re xi_1, Im xi_1, Re xi_2, Im xi_2, ...) of tangent vectors v = Q xi,
    where Q is the orthonormal Householder basis of the leaf's tangent space
    (see leaf_hessian); its eigenvalues do not depend on that choice of basis.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray  # ascending
    negative_count: int
    point: ContactPoint


@dataclass
class FlowResult:
    """Where a flow ended: the critical point, the steps taken (modified-Newton
    descent iterations, see flow_to_critical; the polish's are not counted),
    whether the Newton polish found the point, and phi = |z|^2 at the seed
    and at the point reported (the polished point, when polished)."""

    point: ContactPoint
    steps: int
    polished: bool
    phi_initial: float
    phi_final: float


@dataclass
class ScanSample:
    """One scanned sphere point and its score t_norm/|z|."""

    score: float
    z: np.ndarray


@dataclass
class ScanResult:
    """The least score of a transversality scan and its worst samples, ascending."""

    min_score: float
    worst: list[ScanSample]


def _sample(z: np.ndarray, f: np.ndarray, scale) -> FieldSample:
    """The field sample at z from f = f(z) and its rounding scale: no evaluation.

    The point is refused as point_at refuses it (contact._point_field).
    t_norm is the expression 1-D np.linalg.norm evaluates, sqrt(re.re + im.im).
    """
    mu, w = _point_field(z, f, scale)
    re, im = w.real, w.imag
    return FieldSample(z=z, grad_omega=f.conj(), mu=complex(mu), w=w, t_norm=math.sqrt(re.dot(re) + im.dot(im)))


def sample_field(form: PolyOneForm, z) -> FieldSample:
    """Projected field sample at z; t_norm is the transversality measure.

    z is refused as point_at refuses it: the origin with ValueError, a
    point where f's rounding scale is not finite with RadiusRangeError, a
    singular one with SingularGradientError.
    """
    z = as_cvec(z, form.n)
    return _sample(z, *form.evaluate_scaled(z))


def _evaluate(chart: LeafChart, z: np.ndarray):
    """(g(z), leaf size, f(z), f's rounding scale) at one point: one build.

    The build is of chart.table; its g rows are contracted with the
    integral's coefficients and its f rows with the form's, as each
    table's _build does, and f's scale is the form's _scale of its rows.
    The leaf size, which the leaf tests at z are relative to, is |c| plus
    the plain product |z^E| |C| of g's rows: unlike a root of a sum of
    squares, it stays finite while g's terms do.
    """
    g, form = chart.integral, chart.form
    with np.errstate(over="ignore", invalid="ignore"):  # a point past the doubles has a non-finite size
        monomials = _monomials(z[None], chart.table)
        g_rows, f_rows = monomials[: len(g._exps)], monomials[len(g._exps) :]
        size = abs(chart.c) + (np.abs(g_rows).T @ g._abs_coeffs)[0, 0]
        return (g_rows.T @ g._coeffs)[0, 0], size, (f_rows.T @ form._coeffs)[0], form._scale(f_rows)[0]


def _project(chart: LeafChart, z: np.ndarray):
    """(z on the chart's leaf, its evaluation (g, size, f, f's scale)): see project_to_leaf.

    Each iterate is one _evaluate, and the last one is handed back, so a
    caller gets the field at the corrected point without evaluating it.
    """
    c, max_iter = chart.c, 50
    best_err = np.inf
    for k in range(max_iter + 1):
        evaluation = g, size, f, f_scale = _evaluate(chart, z)
        if not (math.isfinite(size) and math.isfinite(f_scale)):
            raise LeafCorrectionError("point out of range: g's or f's rounding scale is non-finite")
        err = abs(g - c)
        # on the leaf, or stagnated at the rounding floor (or out of iterates) near it
        if err <= 1e-14 * size or (err <= 1e-12 * size and (err >= best_err or k == max_iter)):
            return z, evaluation
        if k == max_iter:
            raise LeafCorrectionError(f"leaf correction did not converge (|f - c| = {err:.3e})")
        best_err = min(best_err, err)
        denom = np.vdot(f, f).real
        if math.sqrt(denom) <= 1e-14 * f_scale:  # contact._field's singular test
            raise LeafCorrectionError("gradient vanished during leaf correction")
        z = z + (c - g) / denom * f.conj()
        if not np.isfinite(z).all():
            raise LeafCorrectionError("leaf correction diverged")


def project_to_leaf(integral: Polynomial, form: PolyOneForm, z, c: complex) -> np.ndarray:
    """Newton-correct z onto the leaf {g = c} of the integral g along conj(f).

    With f = dg the form, iterates z += (c - g(z)) conj(f(z)) / ||f(z)||^2
    until |g - c| <= 1e-14 size, or stagnates at most 1e-12 size from c, at
    most 50 times. size is |c| plus g's rounding scale at the iterate, the
    plain product |z^E| |C| of its terms (_evaluate), so the correction is
    the same at every scale of z, and a start far off the leaf does not
    loosen it. Raises LeafCorrectionError on divergence, where g's or f's
    rounding scale is not finite and where f vanishes to rounding at an
    iterate (contact._field's singular test). Each iterate gets g and f
    from one build of the chart's stacked plan; this function compiles that
    plan, and the leaf code, which has a chart, runs the same loop
    (_project) on the chart's own plan.

    It stays outside the damped-Newton kernel contact._damped_newton: it
    solves one complex equation in n unknowns by that minimum-norm step,
    with no line search, and the kernel solves square systems.
    """
    z = as_cvec(z, form.n)
    return _project(LeafChart(integral, form, complex(c)), z)[0]


def _check_on_leaf(chart: LeafChart, evaluation, what: str) -> None:
    """Refuse, with ValueError, the base, seed or point `what` whose
    evaluation (g, size, f, f's scale) has |g - c| > LEAF_TOL size, for
    the chart's c."""
    err = abs(evaluation[0] - chart.c)
    if err > LEAF_TOL * evaluation[1]:
        raise ValueError(f"{what} is not on the leaf (|g({what}) - c| = {err:.3e})")


def make_chart(
    integral: Polynomial,
    base,
    c: complex | None = None,
    *,
    form: PolyOneForm,
) -> LeafChart:
    """The leaf of `integral` through (or prescribed by c near) base.

    form must be the integral's differential; it is taken as given, not
    recomputed or checked. Compiles the chart's stacked plan. Given c, it
    checks, from one build of the plan, that base is on that leaf
    (ValueError, _check_on_leaf); without one, c is integral.evaluate(base),
    which has the bits of g in that build, so base is on the leaf. Neither
    refuses a base out of range or singular: the first field sample there,
    of a flow or a Hessian, refuses it, as it refuses every such point.
    """
    base = as_cvec(base, form.n)
    with np.errstate(over="ignore", invalid="ignore"):  # a base past the doubles is refused where it is sampled
        chart = LeafChart(integral, form, complex(integral.evaluate(base) if c is None else c))
    if c is not None:
        _check_on_leaf(chart, _evaluate(chart, base), "base")
    return chart


def _phi(z: np.ndarray) -> float:
    """phi = |z|^2, the squared distance a flow descends."""
    return float(np.sum(np.abs(z) ** 2))


def _polish_on_leaf(chart: LeafChart, s: FieldSample, g: complex):
    """(field sample, g) at the point Newton polishes s, on g, to, or None on failure.

    Pure Newton on the leaf's model (_leaf_model), the flow's model with M
    unmodified: each step solves M x = -grad at the current sample and
    corrects z + Q xi onto the leaf (_project), whose last build gives the
    next sample. It converges to the nearest critical point, of any index.
    It succeeds when t_norm <= 1e-13 (|c| + |z0|), z0 = s.z, within 40
    steps, and returns None at once when a step's M is singular, its
    correction or sample fails, or it lands farther than 0.2 |z0| from z0.
    The sample and g come from one build of the chart's plan there.
    """
    z0, r0, steps = s.z, np.linalg.norm(s.z), 0
    target = 1e-13 * (abs(chart.c) + r0)
    while s.t_norm > target:
        if steps == 40:
            return None
        Q, M, grad = _leaf_model(chart, s.z, s)
        try:
            z, evaluation = _project(chart, s.z + Q @ np.linalg.solve(M, -grad).view(complex))
            s, g = _sample(z, *evaluation[2:]), complex(evaluation[0])
        except (np.linalg.LinAlgError, LeafCorrectionError, RadiusRangeError, SingularGradientError):
            return None
        if np.linalg.norm(z - z0) > 0.2 * r0:
            return None
        steps += 1
    return s, g


def flow_to_critical(
    chart: LeafChart,
    z0,
    direction: str = "descend",
    tol: float = DEFAULT_FLOW_TOL,
    max_steps: int = 2000,
) -> FlowResult:
    """Descend phi = |z|^2 on the leaf to a critical point.

    direction must be "descend" (ValueError otherwise): phi is strictly
    plurisubharmonic, so on a leaf it has no local maximum to ascend to
    (Andreotti and Frankel, Ann. of Math. 69, 1959).

    Modified-Newton descent on the leaf's second-order model (_leaf_model):
    each step solves M x = -grad in the tangent coordinates of z, with each
    eigenvalue lambda of M replaced by max(|lambda|, 1e-3 max |lambda|)
    (Nocedal and Wright, Numerical Optimization, 2nd ed., 2006, section 3.4),
    so x descends even at a saddle. The trial z + t Q xi is corrected onto
    the leaf (_project), whose last evaluation gives the field sample
    there; t starts at 1 and halves until the correction and the sample
    succeed and phi decreases by the Armijo test, 1e-4 of its slope along
    the step. The seed is refused as every field sample is: a singular
    seed with SingularGradientError, one out of range with
    RadiusRangeError. tol must be positive and max_steps non-negative
    (ValueError).

    One loop, whose top, before each step and after the last, tests for its
    exits in this order:

    * polished: t_norm is within the polish switch max(tol, 1e-3) |z| and
      below 0.3 times that of the last polish tried, and the pure-Newton
      polish on the same model (_polish_on_leaf) lands at a point with
      t_norm <= tol |z| (so critical seeds, saddles included, return at
      step 0);
    * critical: t_norm <= tol |z|, returned unpolished;
    * step limit: max_steps steps taken, FlowError.

    The fourth exit is inside a step: FlowError when t falls below 1e-15
    with no trial accepted. Both FlowErrors carry the last point and the
    step count.
    """
    if direction != "descend":
        raise ValueError(f"direction must be 'descend', got {direction!r}: |z|^2 has no local maximum on a leaf")
    _check_tol(tol)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")

    z = as_cvec(z0, chart.form.n)
    evaluation = _evaluate(chart, z)
    g = complex(evaluation[0])
    _check_on_leaf(chart, evaluation, "seed")
    phi = phi_initial = _phi(z)
    s = _sample(z, *evaluation[2:])
    last_polish_t = np.inf
    steps = 0
    while True:
        if s.t_norm <= max(tol, 1e-3) * math.sqrt(phi) and s.t_norm < 0.3 * last_polish_t:
            last_polish_t = s.t_norm
            polished = _polish_on_leaf(chart, s, g)
            if polished is not None and polished[0].t_norm <= tol * math.sqrt(_phi(polished[0].z)):
                s, g = polished
                return FlowResult(_contact_point(s.z, s.mu, s.w, g), steps, True, phi_initial, _phi(s.z))
        if s.t_norm <= tol * math.sqrt(phi):
            return FlowResult(_contact_point(s.z, s.mu, s.w, g), steps, False, phi_initial, phi)
        if steps >= max_steps:
            raise FlowError(
                f"step limit exceeded (t_norm = {s.t_norm:.3e} after {steps} steps)",
                last_point=_contact_point(s.z, s.mu, s.w, g),
                steps=steps,
            )

        Q, M, grad = _leaf_model(chart, s.z, s)
        lam, V = np.linalg.eigh(M)
        lam = np.abs(lam)
        x = -(V @ ((V.T @ grad) / np.maximum(lam, 1e-3 * lam.max())))  # (Re xi_1, Im xi_1, ...)
        v = Q @ x.view(complex)
        armijo = 2e-4 * grad.dot(x)  # 1e-4 of the slope 2 grad . x < 0 of phi along v
        t = 1.0
        while True:
            if t < 1e-15:
                raise FlowError(
                    "step size collapsed before reaching a critical point",
                    last_point=_contact_point(s.z, s.mu, s.w, g),
                    steps=steps,
                )
            try:
                z, evaluation = _project(chart, s.z + t * v)
                phi_new = _phi(z)
                if phi_new - phi <= t * armijo:
                    s = _sample(z, *evaluation[2:])
                    break
            except (LeafCorrectionError, RadiusRangeError, SingularGradientError):
                pass
            t *= 0.5
        g, phi = complex(evaluation[0]), phi_new
        steps += 1


def _tangent_basis(f: np.ndarray) -> np.ndarray:
    """Orthonormal complex basis Q (n x (n-1)) of ker(f^T) = {v : sum f_j v_j = 0}.

    One Householder reflector H = I - 2 u u^H / u^H u (Golub and Van Loan,
    Matrix Computations, section 5.1) with a = conj(f)/|f|, k = argmax |f_j|
    and u = a + (a_k/|a_k|) e_k maps a to a multiple of e_k, so column k of
    the unitary, hermitian H is a multiple of a and the others span
    ker(f^T); Q is H without column k. Where f lies along a coordinate axis,
    u is a multiple of e_k and Q is exactly the coordinate tangents e_j,
    j != k.
    """
    n, k = f.size, int(np.argmax(np.abs(f)))
    u = f.conj() / math.sqrt(np.vdot(f, f).real)  # a, then u
    u[k] += u[k] / abs(u[k])
    H = np.outer(u, u.conj() * (-2.0 / np.vdot(u, u).real))
    H.flat[:: n + 1] += 1.0
    return H[:, [j for j in range(n) if j != k]]


def _hessian_matrix(S: np.ndarray) -> np.ndarray:
    """The real matrix I - [[Re S, -Im S], [-Im S, -Re S]] of leaf_hessian,
    with (Re xi_a, Im xi_a) interleaved.

    Block (a, b) is delta_ab I - Re S_ab diag(1, -1) + Im S_ab [[0, 1], [1, 0]].
    Each of its four strided entries is computed with every product of that
    sum, the x 0 ones too, so that its bits, zero signs included, are those
    of the sum of the Kronecker products.
    """
    re, im = S.real, S.imag
    delta = np.eye(len(S))
    M = np.empty((2 * len(S), 2 * len(S)))
    M[0::2, 0::2] = (delta - re) + im * 0.0
    M[1::2, 1::2] = (delta - re * -1.0) + im * 0.0
    M[0::2, 1::2] = M[1::2, 0::2] = (0.0 - re * 0.0) + im
    return M


def _leaf_model(chart: LeafChart, z: np.ndarray, s: FieldSample):
    """(Q, M, grad): the second-order model of phi/2 = |z|^2/2 on the leaf at z.

    From the field sample s at z and the Jacobian H = D^2 g(z) of the form:
    Q is the orthonormal basis of the tangent space ker(f^T)
    (_tangent_basis), M the real matrix of |xi|^2 - Re(xi^T S xi) with
    S = conj(mu) Q^T sym(H) Q (_hessian_matrix), and grad the real gradient
    Q^H w, in the interleaved real coordinates (Re xi_a, Im xi_a) of
    tangent vectors Q xi. At a critical point M is the restricted Hessian
    (leaf_hessian); elsewhere it is the Riemannian Hessian with the
    least-squares multiplier mu (Absil, Mahony and Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008, ch. 6), the Newton model of the
    flow and of its polish.
    """
    Q = _tangent_basis(s.grad_omega.conj())
    H = jacobian_form(chart.form, z)
    M = _hessian_matrix(np.conj(s.mu) * (Q.T @ (0.5 * (H + H.T)) @ Q))
    return Q, M, (Q.conj().T @ s.w).view(float)  # (Re, Im) interleaved


def leaf_hessian(chart: LeafChart, p) -> HessianReport:
    """Exact restricted Hessian (half squared distance) at a critical point p.

    p must be on the chart's leaf (see _check_on_leaf) and critical, with
    t_norm at most 1e-6 |p|, else ValueError. An eigenvalue below -EIG_TOL
    counts as negative.

    A leaf curve z(t) = p + t v + t^2 a / 2 with f = dg(p) has f^T v = 0 and
    f^T a = -v^T H v, where H = D^2 g(p) (the Jacobian of the form). As
    p = mu conj(f) at a critical point, phi = |z|^2/2 has second derivative
    |v|^2 - Re(conj(mu) v^T H v) along it (the second-order conditions of
    constrained optimisation). With v = Q xi for an orthonormal basis Q of
    ker(f^T) and S = conj(mu) Q^T H Q this is |xi|^2 - Re(xi^T S xi), so the
    real matrix is I - [[Re S, -Im S], [-Im S, -Re S]], with (Re xi_a,
    Im xi_a) interleaved, and its eigenvalues are 1 +- (Takagi values of S).
    """
    p = as_cvec(p, chart.form.n)
    evaluation = _evaluate(chart, p)
    _check_on_leaf(chart, evaluation, "point")
    s = _sample(p, *evaluation[2:])
    if s.t_norm > 1e-6 * np.linalg.norm(p):
        raise ValueError(f"point is not critical (t_norm = {s.t_norm:.3e} at |p| = {np.linalg.norm(p):.3e})")

    M = _leaf_model(chart, p, s)[1]
    eigenvalues = np.linalg.eigvalsh(M)
    negative_count = int(np.sum(eigenvalues < -EIG_TOL))
    point = _contact_point(p, s.mu, s.w, complex(evaluation[0]), negative_count)
    return HessianReport(matrix=M, eigenvalues=eigenvalues, negative_count=negative_count, point=point)


def transversality_scan(form: PolyOneForm, r: float, n_samples: int, rng_seed: int) -> ScanResult:
    """Minimum of t_norm/|z| over random sphere samples, with the 10 worst samples.

    The ScanResult lists the worst samples by ascending score, so its
    min_score is the first one's. Samples share the seed stream with the
    contact solver, so larger sample counts extend (and their minima
    refine) smaller ones. Sample points where the gradient vanishes score 0
    (a singular point on the sphere is maximal non-transversality). The
    score of a homogeneous form is scale-free, so such forms are sampled on
    the unit sphere and the worst points scaled to radius r. A radius where
    f's rounding scale overflows at a sample raises RadiusRangeError, as
    point_at does.
    """
    _check_radius(r)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    r_sample = 1.0 if form.homogeneous_degree() is not None else r
    z = sphere_seeds(form.n, n_samples, rng_seed, r_sample)
    f, scale = form.evaluate_scaled(z)
    if not np.all(np.isfinite(scale)):
        raise RadiusRangeError(f"radius {r:.3g} is out of range: f's rounding scale is non-finite")
    _, w, singular = _field(z, f, scale)
    scores = np.linalg.norm(w, axis=1) / r_sample
    scores[singular] = 0.0
    order = np.argsort(scores, kind="stable")[:10]
    worst = [ScanSample(float(scores[i]), z[i] * (r / r_sample)) for i in order]
    return ScanResult(float(scores.min()), worst)


def index_persistence(chart: LeafChart, p: ContactPoint, dc: complex) -> bool:
    """Does the critical point survive on the nearby leaf c + dc, same index?

    The seed is p transported onto the new leaf along the gradient, then
    flowed to a critical point there at flow_to_critical's default tol;
    True iff that point stays within the persistence radius
    10 sqrt(|dc|) (1 + |p|) and its Morse index matches.
    The new leaf's chart shares the chart's stacked plan. A seed the flow
    refuses as singular gives False, as a flow or Hessian that fails does.
    A False is a report, not an error: degenerate (non-Morse) points may
    legitimately fail.
    """
    if p.morse_index is None:
        raise ValueError("point needs a computed morse_index")
    dc = complex(dc)
    if abs(dc) > 0.1 * abs(chart.c):
        raise ValueError("|dc| must be at most 0.1 |c|")
    chart_new = replace(chart, c=chart.c + dc)
    try:
        seed = _project(chart_new, as_cvec(p.z, chart.form.n))[0]
        result = flow_to_critical(chart_new, seed, "descend")
        report = leaf_hessian(chart_new, result.point.z)
    except (FlowError, SingularGradientError, ValueError):
        return False
    persist_radius = 10.0 * np.sqrt(abs(dc)) * (1.0 + np.linalg.norm(p.z))
    if np.linalg.norm(result.point.z - p.z) > persist_radius:
        return False
    return report.negative_count == p.morse_index
