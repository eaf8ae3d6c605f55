"""Projected field, leaf flows, restricted Hessians, scans, persistence."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import folcontact as fc
from folcontact.contact import sphere_seeds
from folcontact import leaf
from folcontact.errors import FlowError, LeafCorrectionError, RadiusRangeError, SingularGradientError
from folcontact.leaf import _tangent_basis

from conftest import (
    axis_distance,
    degree_five_form,
    homogeneous_leaf_scale,
    random_exact_form,
    random_morse,
    random_symmetric,
)


def _on_leaf_seed(integral, form, raw, c):
    z = homogeneous_leaf_scale(integral, raw, c)
    return fc.project_to_leaf(integral, form, z, c)


# -----------------------------------------------------------------------------
# field samples
# -----------------------------------------------------------------------------


def test_sample_field_on_contact_line(form321):
    s = fc.sample_field(form321, [1, 0, 0])
    assert s.t_norm <= 1e-15


def _count_evaluations(monkeypatch, *tables) -> list:
    """Record the name of every evaluation of the given forms and integrals
    (evaluate, evaluate_scaled); evaluate_scaled gives values and rounding
    scale from one build."""
    calls = []
    for table in tables:
        for name in [name for name in ("evaluate", "evaluate_scaled") if hasattr(table, name)]:
            method = getattr(table, name)
            wrapper = lambda *a, _n=name, _m=method: calls.append(_n) or _m(*a)
            monkeypatch.setattr(table, name, wrapper)
    return calls


def test_sample_field_evaluates_form_once(form321, monkeypatch):
    calls = _count_evaluations(monkeypatch, form321)
    fc.sample_field(form321, [0.4 + 0.1j, 0.5, 0.6 - 0.2j])
    assert calls == ["evaluate_scaled"]


@pytest.mark.parametrize("report", ["point_at", "leaf_hessian", "flow_to_critical"])
def test_reported_point_evaluates_form_once(report, form321, integral321, monkeypatch):
    # mu and the residual of the reported point come from one evaluation of
    # the form, as point_at's do; the flow starts at a critical point and its
    # polish is switched off, so it reports the seed. leaf_hessian and the
    # flow take g, f and f's rounding scale there from one build of the
    # chart's stacked plan, which also gives the flow's test for
    # criticality, and evaluate neither the form nor the integral on its own
    z = (0.6 + 0.3j) * np.array([0.0, 1.0, 0.0])
    chart = fc.make_chart(integral321, z, form=form321)
    run = {
        "point_at": lambda: fc.point_at(form321, z),
        "leaf_hessian": lambda: fc.leaf_hessian(chart, z).point,
        "flow_to_critical": lambda: fc.flow_to_critical(chart, z).point,
    }[report]
    monkeypatch.setattr(leaf, "_polish_on_leaf", lambda *args: None)
    calls, builds = _count_evaluations(monkeypatch, form321, integral321), _record_builds(monkeypatch)
    p = run()
    monkeypatch.undo()
    assert calls == (["evaluate_scaled"] if report == "point_at" else [])
    assert [b.tobytes() for b in builds] == ([] if report == "point_at" else [z.tobytes()])
    assert np.array_equal(p.z, z)
    q = fc.point_at(form321, z)
    assert p.mu == q.mu and p.residual == q.residual == fc.contact_residual(form321, z)
    if report != "point_at":
        assert p.leaf_value == integral321.evaluate(z)


def test_sample_field_refuses_the_origin_and_a_point_out_of_range(form321, cubic3):
    # as point_at does: the origin first, whatever the form (f(0) = 0 for
    # these), then a point on the contact z1 axis of
    # d(z1^6 + z2^6 + z1^3 z2^3 / 2) where f's rounding scale overflows,
    # refused before f is squared, as warnings are errors here
    for form in (form321, cubic3.differential()):
        with pytest.raises(ValueError, match="origin") as exc:
            fc.sample_field(form, np.zeros(3))
        assert not isinstance(exc.value, SingularGradientError)
    with pytest.raises(RadiusRangeError, match="point of norm 1e\\+50 is out of range"):
        fc.sample_field(degree_five_form(), [1e50, 0.0])


def test_flow_and_hessian_points_have_the_residual_of_point_at(form321, integral321):
    # a leaf point's radius, mu and residual are point_at's at its z, and
    # its leaf value is the integral's at its z, bit for bit: one residual
    # rule for a point wherever it comes from. The chart's build contracts
    # g's and f's monomials with each table's own coefficients, so on a
    # dense form too the point is built from the form's and the integral's
    # own values
    rng = np.random.default_rng(3)
    cases = [(integral321, form321, rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(200)]
    rng = np.random.default_rng(5)
    for _ in range(100):
        A = random_symmetric(rng, 4)
        cases.append((fc.quadratic_first_integral(A), fc.linear_form(A), rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    for integral, form, z0 in cases:
        chart = fc.make_chart(integral, z0, form=form)
        flow_point = fc.flow_to_critical(chart, z0).point
        for p in (flow_point, fc.leaf_hessian(chart, flow_point.z).point):
            q = fc.point_at(form, p.z)
            assert (p.radius, p.mu, p.residual) == (q.radius, q.mu, q.residual)
            assert p.leaf_value == integral.evaluate(p.z)


def test_sample_field_symplectic(symplectic4):
    rng = np.random.default_rng(12)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    z /= np.linalg.norm(z)
    s = fc.sample_field(symplectic4, z)
    assert s.t_norm == pytest.approx(1.0, abs=1e-12)


def test_sample_field_generic_point(form321):
    z = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    s = fc.sample_field(form321, z)
    assert s.t_norm > 0.1
    pairing = np.sum(s.w * s.grad_omega.conj())
    assert abs(pairing) <= 1e-10 * (1 + s.t_norm) * (1 + np.linalg.norm(s.grad_omega))


def test_orthogonality_property(form321, symplectic4, cubic3):
    rng = np.random.default_rng(13)
    for form in (form321, symplectic4, cubic3.differential()):
        for _ in range(50):
            z = rng.standard_normal(form.n) + 1j * rng.standard_normal(form.n)
            s = fc.sample_field(form, z)
            scale = (1 + np.linalg.norm(s.w)) * (1 + np.linalg.norm(s.grad_omega))
            assert abs(np.sum(s.w * s.grad_omega.conj())) <= 1e-10 * scale


def test_tangent_basis_is_one_householder_reflector():
    # Q, H without its column k = argmax |f_j|, is an orthonormal basis of
    # ker(f^T) for n = 2..8 at any scale of f, and exactly the coordinate
    # tangents e_j, j != k, when f lies along the axis k
    rng = np.random.default_rng(15)
    for n in range(2, 9):
        for _ in range(50):
            f = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.integers(-100, 100)
            Q = _tangent_basis(f)
            assert Q.shape == (n, n - 1)
            assert np.abs(Q.conj().T @ Q - np.eye(n - 1)).max() <= 1e-15
            assert np.abs(f @ Q).max() <= 1e-15 * np.linalg.norm(f)
        for k in range(n):
            f = np.zeros(n, dtype=complex)
            f[k] = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-100, 100)
            assert np.array_equal(_tangent_basis(f), np.delete(np.eye(n), k, axis=1))


def test_model_polish_lands_on_its_own_critical_point(form321, integral321, cubic3):
    # 1e-9 off the minimum and the two saddles of diag(3, 2, 1), and off a
    # contact point of the cubic, pure Newton on the leaf model polishes back
    # to that critical point, whatever its index
    cubic_form = cubic3.differential()
    cases = [(integral321, form321, p) for p in np.sqrt([2.0 / 3.0, 1.0, 2.0])[:, None] * np.eye(3) * np.exp(0.4j)]
    cases += [(cubic3, cubic_form, 0.8 * np.exp(0.2j) * p) for p in _cubic_contact_points()[3::6]]
    for integral, form, p in cases:
        chart = fc.make_chart(integral, p, form=form)
        z0, evaluation = leaf._project(chart, p + 1e-9 * np.array([1.0j, 1.0, -1.0]))
        polished = leaf._polish_on_leaf(chart, leaf._sample(z0, *evaluation[2:]), complex(evaluation[0]))
        assert polished is not None
        s, g = polished
        assert s.t_norm <= 1e-13 * (abs(chart.c) + np.linalg.norm(z0))
        assert g == integral.evaluate(s.z) and abs(g - chart.c) <= 1e-14 * abs(chart.c)
        assert np.linalg.norm(s.z - p) <= 1e-12 * np.linalg.norm(p)


def test_gradient_identity_in_chart(diag321, form321, integral321):
    # finite differences of |z|^2 along chart lifts match 2 Re <w, lift>
    rng = np.random.default_rng(14)
    h = 1e-6
    checked = 0
    while checked < 100:
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = _on_leaf_seed(integral321, form321, raw, 1.0)
        f = form321.evaluate(z)
        k = int(np.argmax(np.abs(f)))
        s = fc.sample_field(form321, z)
        for j in range(3):
            if j == k:
                continue
            for comp in (1.0, 1j):
                lift = np.zeros(3, dtype=complex)
                lift[j] = comp
                lift[k] = -comp * f[j] / f[k]
                zp = fc.project_to_leaf(integral321, form321, z + h * lift, 1.0)
                zm = fc.project_to_leaf(integral321, form321, z - h * lift, 1.0)
                fd = (np.sum(np.abs(zp) ** 2) - np.sum(np.abs(zm) ** 2)) / (2 * h)
                analytic = 2 * np.real(np.sum(s.w * lift.conj()))
                assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-7)
        checked += 1


# -----------------------------------------------------------------------------
# flows
# -----------------------------------------------------------------------------


def _phi_per_step(chart, z0, direction: str, steps: int, **flow_options) -> list[float]:
    """phi = |z|^2 at each of a flow's first `steps` steps, step 0 the seed.

    The flow is deterministic, so its point after k steps is the last point
    of the FlowError a rerun capped at max_steps = k raises.
    """
    phis = []
    for k in range(steps):
        with pytest.raises(FlowError, match="step limit") as info:
            fc.flow_to_critical(chart, z0, direction, max_steps=k, **flow_options)
        assert info.value.steps == k
        phis.append(float(np.sum(np.abs(info.value.last_point.z) ** 2)))
    return phis


def test_flow_descend_to_minimum(form321, integral321):
    rng = np.random.default_rng(15)
    for _ in range(5):
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z0 = _on_leaf_seed(integral321, form321, raw, 1.0)
        chart = fc.make_chart(integral321, z0, 1.0, form=form321)
        res = fc.flow_to_critical(chart, z0, "descend", tol=1e-8)
        assert abs(np.linalg.norm(res.point.z) - np.sqrt(2.0 / 3.0)) <= 1e-6
        assert axis_distance(res.point.z, 0) <= 1e-6
        assert fc.sample_field(form321, res.point.z).t_norm <= 1e-8
        assert res.phi_initial == float(np.sum(np.abs(z0) ** 2))
        assert res.phi_final == float(np.sum(np.abs(res.point.z) ** 2))
        # phi decreases strictly at every accepted step, and to the point reported
        phis = _phi_per_step(chart, z0, "descend", res.steps, tol=1e-8) + [res.phi_final]
        assert res.steps > 0 and phis[0] == res.phi_initial
        assert all(b < a for a, b in zip(phis, phis[1:]))
        # flow limits are contact points
        assert res.point.residual <= 10 * 1e-8


def test_flow_already_critical_returns_immediately(form321, integral321):
    p = np.array([np.sqrt(2.0 / 3.0), 0.0, 0.0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    res = fc.flow_to_critical(chart, p, "descend")
    assert res.steps == 0 and res.polished is True and res.phi_initial == 2.0 / 3.0
    assert res.phi_final == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert np.linalg.norm(res.point.z - p) <= 1e-9


def test_flow_refuses_to_ascend(form321, integral321):
    # |z|^2 is strictly plurisubharmonic, so it has no local maximum on a
    # leaf: an ascent from 100 random seeds on diag(3, 2, 1) reached no
    # critical point, and most ended in LinAlgError
    p = np.array([np.sqrt(2.0 / 3.0), 0.02, 0.0], dtype=complex)
    z0 = fc.project_to_leaf(integral321, form321, p, 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    with pytest.raises(ValueError, match="no local maximum") as exc:
        fc.flow_to_critical(chart, z0, "ascend")
    assert type(exc.value) is ValueError


def test_flow_with_no_steps_allowed_raises_at_the_seed(form321, integral321):
    z0 = _on_leaf_seed(integral321, form321, np.array([0.3, 0.5 + 0.1j, 0.7]), 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    assert fc.sample_field(form321, z0).t_norm > 1e-3 * np.linalg.norm(z0)  # outside the polish switch
    with pytest.raises(FlowError, match="step limit exceeded") as exc:
        fc.flow_to_critical(chart, z0, max_steps=0)
    assert exc.value.steps == 0 and np.array_equal(exc.value.last_point.z, z0)


def test_flow_whose_corrections_all_fail_reports_a_collapsed_step(form321, integral321, monkeypatch):
    z0 = _on_leaf_seed(integral321, form321, np.array([0.3, 0.5 + 0.1j, 0.7]), 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)

    def fail(chart, z):
        raise LeafCorrectionError("leaf correction diverged")

    monkeypatch.setattr(leaf, "_project", fail)
    with pytest.raises(FlowError, match="step size collapsed") as exc:
        fc.flow_to_critical(chart, z0)
    assert exc.value.steps == 0 and np.array_equal(exc.value.last_point.z, z0)


def test_flow_halves_a_step_whose_correction_fails(form321, integral321, monkeypatch):
    # the first leaf correction of a step fails: that step is halved and
    # the flow still polishes to a critical point
    z0 = _on_leaf_seed(integral321, form321, np.array([0.3, 0.5 + 0.1j, 0.7]), 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    project, failed = leaf._project, []

    def fail_once(chart, z):
        if not failed:
            failed.append(z)
            raise LeafCorrectionError("leaf correction diverged")
        return project(chart, z)

    monkeypatch.setattr(leaf, "_project", fail_once)
    res = fc.flow_to_critical(chart, z0)
    monkeypatch.undo()
    assert len(failed) == 1 and res.steps > 0 and res.polished is True
    assert fc.sample_field(form321, res.point.z).t_norm <= 1e-8


@pytest.mark.parametrize("error", [RadiusRangeError, SingularGradientError])
def test_flow_halves_a_step_whose_trial_sample_is_refused(error, form321, integral321, monkeypatch):
    # the field sample at the first trial that passes its Armijo test is
    # refused, out of range or singular: that trial's t is halved, and the
    # flow still polishes
    z0 = _on_leaf_seed(integral321, form321, np.array([0.3, 0.5 + 0.1j, 0.7]), 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    point_field, project, samples, trials = leaf._point_field, leaf._project, [], []

    def refuse_second(z, f, scale):
        samples.append(z)
        if len(samples) == 2:  # the seed is the first sample
            raise error("refused")
        return point_field(z, f, scale)

    monkeypatch.setattr(leaf, "_point_field", refuse_second)

    def recorded_project(chart, z):
        out = project(chart, z)
        trials.append((z, out[0]))
        return out

    monkeypatch.setattr(leaf, "_project", recorded_project)
    res = fc.flow_to_critical(chart, z0)
    monkeypatch.undo()
    assert res.steps > 0 and res.polished is True
    assert fc.sample_field(form321, res.point.z).t_norm <= 1e-8
    # the refused sample is that of the projected trial z0 + t v; the next trial is z0 + (t/2) v
    k = next(i for i, (_, z) in enumerate(trials) if np.array_equal(z, samples[1]))
    assert np.allclose(trials[k + 1][0] - z0, 0.5 * (trials[k][0] - z0), rtol=1e-12, atol=0)


def test_flow_whose_polish_fails_ends_unpolished_at_tol(form321, integral321, monkeypatch):
    # every Newton solve of the leaf polish fails, as on a singular model
    # matrix (the descent steps solve by eigh): the flow goes on until
    # t_norm <= tol |z| and reports that point unpolished. A sample already
    # at the polish target needs no solve and polishes, so tol is 1e-6,
    # which this flow meets at t_norm 1.6e-7, before it gets that far
    z0 = _on_leaf_seed(integral321, form321, np.array([0.3, 0.5 + 0.1j, 0.7]), 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    solves = []

    def fail(M, b):
        solves.append(M)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", fail)
    res = fc.flow_to_critical(chart, z0, tol=1e-6)
    monkeypatch.undo()
    assert solves and res.steps > 0 and res.polished is False
    assert 1e-13 < fc.sample_field(form321, res.point.z).t_norm <= 1e-6 * np.linalg.norm(res.point.z)


def _record_builds(monkeypatch) -> list:
    """Record the point of every build of a chart's stacked plan (each is
    of one point); a form's or an integral's own evaluation is not one."""
    points = []
    build = leaf._monomials
    monkeypatch.setattr(leaf, "_monomials", lambda z, plan: points.append(z[0].copy()) or build(z, plan))
    return points


@pytest.mark.parametrize("x", [1e110, 1e200])
def test_projection_refuses_a_point_far_off_the_leaf(x, form321, integral321):
    # at x e1 the correction halves z per iterate, so 50 of them do not reach
    # the leaf g = 1 from 1e110, and g's rounding scale is not finite at
    # 1e200. A target taken from the size at the start accepted, from 1e110,
    # a point near 6e102 e1, where g is about 5e205, as on the leaf. The
    # build at 1e200 overflows with no warning (warnings are errors here)
    with pytest.raises(LeafCorrectionError):
        fc.project_to_leaf(integral321, form321, [x, 0.0, 0.0], 1.0)


def test_projection_refuses_an_iterate_where_f_overflows(cubic3):
    # at 1e80 (0.3, 0.5 + 0.1i, 0.7) g's rounding scale is finite and f's is
    # not: the correction onto the leaf c = 1 divided by an overflowed
    # |f|^2, with warnings (errors here)
    z = 1e80 * np.array([0.3, 0.5 + 0.1j, 0.7])
    with pytest.raises(LeafCorrectionError, match="rounding scale is non-finite"):
        fc.project_to_leaf(cubic3, cubic3.differential(), z, 1.0)


def test_projection_iterate_is_one_evaluation(form321, integral321, monkeypatch):
    # each Newton iterate z -> z + (c - g) conj(f) / |f|^2 takes g and f from
    # one build of the stacked plan, with the bits of the integral's and the
    # form's own evaluations, and the point it returns was built last;
    # neither is evaluated on its own, nor any Jacobian
    z0 = np.array([0.7 + 0.2j, 0.5 - 0.1j, 0.3 + 0.4j])
    calls, points = _count_evaluations(monkeypatch, form321, integral321), _record_builds(monkeypatch)
    monkeypatch.setattr(leaf, "jacobian_form", None)
    z = fc.project_to_leaf(integral321, form321, z0, 1.0)
    monkeypatch.undo()
    assert calls == [] and len(points) >= 3 and np.array_equal(points[0], z0) and np.array_equal(points[-1], z)
    for a, b in zip(points, points[1:]):
        f = form321.evaluate(a)
        assert np.array_equal(b, a + (1.0 - integral321.evaluate(a)) / np.vdot(f, f).real * f.conj())


def test_flow_step_samples_cost_no_evaluation(form321, integral321, monkeypatch):
    # with the polish off, every build of the chart's plan is the seed's or a
    # projection iterate's, and no point is built twice: a step's Newton
    # model takes the field sample at its start from the evaluation that
    # point's projection ended with, and only its Jacobian is evaluated
    # there, once per step. The form is not evaluated on its own, not even
    # for the last point, which the error reports
    z0 = _on_leaf_seed(integral321, form321, np.array([0.3, 0.5 + 0.1j, 0.7]), 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    monkeypatch.setattr(leaf, "_polish_on_leaf", lambda *args: None)
    jacobian, jacobians = leaf.jacobian_form, []
    monkeypatch.setattr(leaf, "jacobian_form", lambda form, z: jacobians.append(z.copy()) or jacobian(form, z))
    calls, points = _count_evaluations(monkeypatch, form321, integral321), _record_builds(monkeypatch)
    with pytest.raises(FlowError) as exc:
        fc.flow_to_critical(chart, z0, max_steps=3)
    monkeypatch.undo()
    assert exc.value.steps == 3 and np.array_equal(points[0], z0) and calls == []
    assert exc.value.last_point.leaf_value == integral321.evaluate(exc.value.last_point.z)
    assert len(points) >= 1 + 3  # the seed, then at least one projection iterate per step
    assert len({p.tobytes() for p in points}) == len(points)
    assert len(jacobians) == 3 and np.array_equal(jacobians[0], z0)
    assert all(any(np.array_equal(z, p) for p in points) for z in jacobians)


def test_flow_projects_once_per_step_attempt(form321, integral321, monkeypatch):
    # each trial z + t v of a step is one _project, at t = 1, 1/2, 1/4, ...
    # from the point where the step's Newton model was taken (from this seed
    # the first step halves three times); beside the projections only the
    # seed is evaluated
    z0 = _on_leaf_seed(integral321, form321, np.array([0.1, 0.5, 0.9]), 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    calls, depth = [], [0]
    project, evaluate, model = leaf._project, leaf._evaluate, leaf._leaf_model

    def counted_project(chart, z):
        calls.append(("project", z))
        depth[0] += 1
        try:
            return project(chart, z)
        finally:
            depth[0] -= 1

    def counted_evaluate(chart, z):
        if depth[0] == 0:
            calls.append(("evaluate", z))
        return evaluate(chart, z)

    monkeypatch.setattr(leaf, "_polish_on_leaf", lambda *args: None)
    monkeypatch.setattr(leaf, "_project", counted_project)
    monkeypatch.setattr(leaf, "_evaluate", counted_evaluate)
    monkeypatch.setattr(leaf, "_leaf_model", lambda chart, z, s: calls.append(("model", z)) or model(chart, z, s))
    with pytest.raises(FlowError) as exc:
        fc.flow_to_critical(chart, z0, max_steps=3)
    monkeypatch.undo()
    names = [name for name, _ in calls]
    assert exc.value.steps == 3 and names[0] == "evaluate" and names.count("evaluate") == 1
    assert names.count("model") == 3 and names[1] == "model"
    starts = [i for i, name in enumerate(names) if name == "model"] + [len(calls)]
    assert starts[1] - starts[0] == 1 + 4
    for a, b in zip(starts, starts[1:]):
        z, trials = calls[a][1], [t for _, t in calls[a + 1 : b]]
        assert trials and all(name == "project" for name in names[a + 1 : b])
        for k, trial in enumerate(trials[1:], 1):
            assert np.allclose(trial - z, 0.5**k * (trials[0] - z), rtol=1e-12, atol=0)


def test_index_persistence_shares_the_chart_table(form321, integral321, monkeypatch):
    # make_chart without c takes it from one evaluation of the integral at
    # the base and builds nothing there: the base is on that leaf in the
    # bits an on-leaf test would compare. The nearby leaf's chart shares
    # the chart's stacked plan
    p = np.array([0, 1.0, 0], dtype=complex)
    calls, builds = _count_evaluations(monkeypatch, form321, integral321), _record_builds(monkeypatch)
    chart = fc.make_chart(integral321, p, form=form321)
    monkeypatch.undo()
    assert calls == ["evaluate"] and builds == [] and chart.c == integral321.evaluate(p) == 1.0
    report = fc.leaf_hessian(chart, p)
    monkeypatch.setattr(leaf, "_side_by_side", None)  # compiling a plan would fail
    assert fc.index_persistence(chart, report.point, 0.01)


@pytest.mark.parametrize("tol, max_steps", [(0.0, 10), (-1e-8, 10), (float("nan"), 10), (1e-8, -5)])
def test_flow_refuses_bad_tolerance_and_step_limit(form321, integral321, tol, max_steps):
    p = np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    with pytest.raises(ValueError):
        fc.flow_to_critical(chart, p, tol=tol, max_steps=max_steps)


def test_flow_rejects_off_leaf_seed(form321, integral321):
    chart = fc.make_chart(
        integral321, np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex), 1.0, form=form321
    )
    with pytest.raises(ValueError):
        fc.flow_to_critical(chart, np.array([1.0, 1.0, 1.0]), "descend")


@pytest.mark.parametrize("s", [1.0, 1e-7])
def test_flow_refuses_a_seed_off_its_leaf_at_any_scale(s, form321, integral321):
    # 1e-3 relative off the leaf through s (0.3, 0.5 + 0.1i, 0.7): the
    # on-leaf test is relative to the leaf size, so it refuses the seed at
    # s = 1e-7 as at s = 1, where an absolute 1e-9 (1 + |c|) accepted it
    z0 = s * np.array([0.3, 0.5 + 0.1j, 0.7])
    chart = fc.make_chart(integral321, z0, form=form321)
    with pytest.raises(ValueError, match="seed is not on the leaf"):
        fc.flow_to_critical(chart, z0 * (1.0 + 1e-3))


def test_flow_on_cubic_leaf(cubic3):
    form = cubic3.differential()
    rng = np.random.default_rng(16)
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z0 = _on_leaf_seed(cubic3, form, raw, 1.0)
    chart = fc.make_chart(cubic3, z0, 1.0, form=form)
    res = fc.flow_to_critical(chart, z0, "descend", tol=1e-8, max_steps=4000)
    assert abs(complex(cubic3.evaluate(res.point.z)) - 1.0) <= 1e-9
    assert fc.sample_field(form, res.point.z).t_norm <= 1e-8


@pytest.mark.parametrize("s", [10.0**-e for e in range(14)])
def test_flow_from_a_scaled_seed_ends_at_the_scaled_minimum(s, form321, integral321):
    # the flow's tests are relative to |z|: from s (0.3, 0.5 + 0.1i, 0.7) it
    # descends to s times the s = 1 minimum on the z1 axis. An absolute
    # polish switch 1e-3 (1 + |z|) polished seeds of s <= 1e-3 at once into
    # the index-1 saddle on the z2 axis, an absolute tol 1e-8 did so from
    # s = 1e-8, and an absolute gradient test in make_chart refused the
    # seed from s = 1e-11
    def minimum(s):
        z0 = s * np.array([0.3, 0.5 + 0.1j, 0.7])
        return fc.flow_to_critical(fc.make_chart(integral321, z0, form=form321), z0)

    res, z1 = minimum(s), minimum(1.0).point.z
    assert res.polished is True and res.steps > 0
    assert np.linalg.norm(res.point.z - s * z1) <= 1e-9 * s * np.linalg.norm(z1)
    assert axis_distance(res.point.z, 0) <= 1e-9 * np.linalg.norm(res.point.z)


@pytest.mark.parametrize("s", [10.0**-e for e in range(14)])
def test_projection_and_flow_steps_do_not_depend_on_scale(s, form321, integral321):
    # from 1e-3 relative off the leaf through s (0.3, 0.5 + 0.1i, 0.7) the
    # projection lands within 1e-14 of the leaf size, |c| plus g's rounding
    # scale sum a_j |z_j|^2 / 2 at the start, and the flow from that point
    # takes the steps it takes at s = 1. An absolute target 1e-14 (1 + |c|)
    # left the point 1e-3 relative off its leaf from s = 1e-6, and the
    # flow took 10-12 steps there where s = 1 takes 5
    def flow_steps(s):
        z0 = s * np.array([0.3, 0.5 + 0.1j, 0.7])
        return fc.flow_to_critical(fc.make_chart(integral321, z0, form=form321), z0).steps

    z0 = s * np.array([0.3, 0.5 + 0.1j, 0.7])
    c, start = integral321.evaluate(z0), z0 * (1.0 + 1e-3)
    size = abs(c) + 0.5 * np.sum(np.array([3.0, 2.0, 1.0]) * np.abs(start) ** 2)
    z = fc.project_to_leaf(integral321, form321, start, c)
    assert abs(integral321.evaluate(z) - c) <= 1e-14 * size
    assert flow_steps(s) == flow_steps(1.0)


@pytest.mark.parametrize(
    "name, s, out_of_range",
    [("cubic3", s, s >= 1e77) for s in (1e60, 1e76, 1e77, 1e78, 1e80, 1e100)]
    + [("integral321", s, s >= 1e154) for s in (1e100, 1e153, 1e154)],
)
def test_flow_and_hessian_leave_the_doubles_where_point_at_does(name, s, out_of_range, request):
    # a chart sample takes f's rounding scale by _scale's rule, the root of
    # a sum of squares, so it is not finite exactly where point_at's is:
    # there the flow from s (0.3, 0.5 + 0.1i, 0.7) and the Hessian at s e1
    # raise RadiusRangeError, and below it both polish as at s = 1. A scale
    # by math.hypot let the cubic's seed through from 1e77, and the samples
    # then squared an overflowing f, with warnings (errors here)
    integral = request.getfixturevalue(name)
    form = integral.differential()
    seed, axis = s * np.array([0.3, 0.5 + 0.1j, 0.7]), s * np.array([1.0, 0.0, 0.0], dtype=complex)
    flow = lambda: fc.flow_to_critical(fc.make_chart(integral, seed, form=form), seed)
    hessian = lambda: fc.leaf_hessian(fc.make_chart(integral, axis, form=form), axis)
    if out_of_range:
        for z, call in ((seed, flow), (axis, hessian)):
            for refuse in (lambda: fc.point_at(form, z), call):
                with pytest.raises(RadiusRangeError, match="rounding scale is non-finite"):
                    refuse()
    else:
        res = flow()
        assert res.polished is True and res.steps == 6
        assert hessian().negative_count == 0


def test_flow_newton_matrix_is_the_leaf_hessian(form321, integral321, monkeypatch):
    # 1e-9 off the critical points of diag(3, 2, 1), the minimum and two
    # saddles, the matrix of the flow's first Newton step is leaf_hessian's,
    # bit for bit: both come from _leaf_model. The polish is off and tol is
    # below the point's t_norm, so the flow takes a step there
    model, matrices = leaf._leaf_model, []

    def recorded_model(chart, z, s):
        out = model(chart, z, s)
        matrices.append(out[1])
        return out

    monkeypatch.setattr(leaf, "_polish_on_leaf", lambda *args: None)
    monkeypatch.setattr(leaf, "_leaf_model", recorded_model)
    for p in np.sqrt([2.0 / 3.0, 1.0, 2.0])[:, None] * np.eye(3) * np.exp(0.4j):
        chart = fc.make_chart(integral321, p, form=form321)
        p = fc.project_to_leaf(integral321, form321, p + 1e-9 * np.array([0.0, 1.0, 1.0j]), chart.c)
        with pytest.raises(FlowError):
            fc.flow_to_critical(chart, p, tol=1e-300, max_steps=1)
        report = fc.leaf_hessian(chart, p)
        assert len(matrices) == 2 and matrices[0].tobytes() == matrices[1].tobytes() == report.matrix.tobytes()
        matrices.clear()


def test_seeded_descents_end_at_minima():
    # 400 descents from random seeds, on random Morse leaves (n = 3-6) and
    # the cubic's: none ends at a critical point of Morse index > 0
    rng = np.random.default_rng(11)
    cubic = fc.Polynomial(3, [(1.0, (3, 0, 0)), (1.0, (0, 3, 0)), (1.0, (0, 0, 3))])
    ends_at_saddles = 0
    for i in range(400):
        integral = cubic if i % 5 == 4 else fc.quadratic_first_integral(random_morse(rng, 3 + i % 4))
        form = integral.differential()
        z0 = rng.standard_normal(form.n) + 1j * rng.standard_normal(form.n)
        chart = fc.make_chart(integral, z0, form=form)
        res = fc.flow_to_critical(chart, z0)
        assert res.polished is True
        ends_at_saddles += fc.leaf_hessian(chart, res.point.z).negative_count > 0
    assert ends_at_saddles == 0


# -----------------------------------------------------------------------------
# hessians
# -----------------------------------------------------------------------------


def test_leaf_hessian_sigma1(diag321, form321, integral321):
    p = np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    report = fc.leaf_hessian(chart, p)
    expected = sorted([5 / 3, 1 / 3, 4 / 3, 2 / 3])
    assert np.allclose(np.sort(report.eigenvalues), expected, rtol=1e-6)
    assert report.negative_count == 0
    assert report.point.morse_index == 0


def test_leaf_hessian_sigma2(diag321, form321, integral321):
    p = np.array([0, 1.0, 0], dtype=complex)  # f = 1 on the second axis
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    report = fc.leaf_hessian(chart, p)
    expected = sorted([1 + 1.5, 1 - 1.5, 1.5, 0.5])
    assert np.allclose(np.sort(report.eigenvalues), expected, rtol=1e-6)
    assert report.negative_count == 1


def test_leaf_hessian_identity_degenerate(identity3):
    form = fc.linear_form(identity3)
    integral = fc.quadratic_first_integral(identity3)
    p = np.array([np.sqrt(2.0), 0, 0], dtype=complex)
    chart = fc.make_chart(integral, p, 1.0, form=form)
    report = fc.leaf_hessian(chart, p)
    assert np.min(np.abs(report.eigenvalues)) <= 1e-6


def test_leaf_hessian_complex_phase_blocks(diag321, form321):
    # complex leaf value: contact representative has a genuine phase; the
    # 2x2 chart blocks must follow beta = conj(rho_i) w^2/|w|^2 with the
    # u^2 - v^2 and 2uv combinations, and eigenvalues stay 1 +- rho ratios
    integral = fc.quadratic_first_integral(diag321)
    c = np.exp(1j * np.pi / 5)
    w = np.sqrt(2.0 * c / 3.0)
    p = np.array([w, 0, 0], dtype=complex)
    chart = fc.make_chart(integral, p, c, form=form321)
    report = fc.leaf_hessian(chart, p)
    kappa = w**2 / abs(w) ** 2
    expected_eigs = []
    blocks = []
    for rho in (2.0 / 3.0, 1.0 / 3.0):
        beta = np.conj(rho) * kappa
        blocks.append(
            np.array(
                [[1 - beta.real, -beta.imag], [-beta.imag, 1 + beta.real]]
            )
        )
        expected_eigs += [1 - abs(beta), 1 + abs(beta)]
    H_expected = np.zeros((4, 4))
    H_expected[:2, :2] = blocks[0]
    H_expected[2:, 2:] = blocks[1]
    assert np.allclose(report.matrix, H_expected, atol=1e-6)
    assert np.allclose(np.sort(report.eigenvalues), np.sort(expected_eigs), rtol=1e-6)


def _off_axis_lines(rng, n):
    """Random Morse A, its descending Takagi values, and every line's point
    scaled by a non-real factor (so the leaf value has a genuine phase)."""
    A = random_morse(rng, n)
    verdict, lineset = fc.analyze(A)
    points = [line.direction * 0.7 * np.exp(0.3j) for line in lineset.lines]
    return A, verdict.sigma, points


def _cubic_contact_points():
    """The 21 contact directions of z1^3 + z2^3 + z3^3 on the unit sphere:
    equal moduli on a support, relative phases cube roots of unity."""
    out = []
    for support in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        for phases in np.ndindex(*(3,) * (len(support) - 1)):
            z = np.zeros(3, dtype=complex)
            z[list(support)] = np.exp(2j * np.pi * np.array((0,) + phases) / 3)
            out.append(z / np.linalg.norm(z))
    return out


def _kronecker_hessian_matrix(S: np.ndarray) -> np.ndarray:
    # the reference: the leaf Hessian's matrix as a sum of Kronecker products
    return (
        np.eye(2 * len(S))
        - np.kron(S.real, np.diag([1.0, -1.0]))
        + np.kron(S.imag, [[0.0, 1.0], [1.0, 0.0]])
    )


def test_hessian_matrix_has_the_bits_of_the_kronecker_sum(monkeypatch, form321, integral321):
    # zero signs included: a leaf-hessian report writes -0.0 as such; the
    # x 0 products of the sum show where a part of S is not finite
    rng = np.random.default_rng(25)
    zeros, non_finite = np.array([0.0, -0.0]), np.array([np.inf, -np.inf, np.nan])
    for _ in range(300):
        m = int(rng.integers(1, 7))
        parts = rng.standard_normal((2, m, m)) * 10.0 ** rng.integers(-3, 4, (2, m, m))
        draw = rng.random((2, m, m))
        parts[draw < 0.4] = rng.choice(zeros, int((draw < 0.4).sum()))
        parts[draw > 0.97] = rng.choice(non_finite, int((draw > 0.97).sum()))
        S = np.empty((m, m), dtype=complex)
        S.real, S.imag = parts  # 1j * inf would make the real part NaN
        with np.errstate(invalid="ignore"):  # inf x 0
            assert leaf._hessian_matrix(S).tobytes() == _kronecker_hessian_matrix(S).tobytes()
    # at i e_j on diag(3, 2, 1), S has -0.0 imaginary parts
    seen = []
    hessian_matrix = leaf._hessian_matrix
    monkeypatch.setattr(leaf, "_hessian_matrix", lambda S: seen.append(S) or hessian_matrix(S))
    for j in range(3):
        p = np.zeros(3, dtype=complex)
        p[j] = 1j
        report = fc.leaf_hessian(fc.make_chart(integral321, p, form=form321), p)
        S = seen[-1]
        assert np.any(np.signbit(S.imag) & (S.imag == 0))
        assert report.matrix.tobytes() == _kronecker_hessian_matrix(S).tobytes()


def test_leaf_hessian_matches_closed_form_on_random_morse():
    rng = np.random.default_rng(17)
    for n in (3, 4, 5, 6):
        for _ in range(2):
            A, sigma, points = _off_axis_lines(rng, n)
            form = fc.linear_form(A)
            integral = fc.quadratic_first_integral(A)
            for j, p in enumerate(points):
                report = fc.leaf_hessian(fc.make_chart(integral, p, form=form), p)
                closed = fc.hessian_eigenvalues_closed_form(sigma, j)
                assert np.max(np.abs(report.eigenvalues - closed)) <= 1e-9
                assert report.negative_count == j


def test_leaf_hessian_matches_finite_differences_of_distance(cubic3):
    # chart-free oracle: for a unit tangent v = Q (x_even + i x_odd), the
    # second difference of |z|^2/2 along leaf projections of p +- h v is x^T M x
    rng = np.random.default_rng(18)
    cases = []
    for n in (3, 4, 5):
        A, _, points = _off_axis_lines(rng, n)
        cases += [(fc.quadratic_first_integral(A), fc.linear_form(A), p) for p in points]
    cases += [(cubic3, cubic3.differential(), p) for p in _cubic_contact_points()]
    h = 1e-4
    for integral, form, p in cases:
        chart = fc.make_chart(integral, p, form=form)
        report = fc.leaf_hessian(chart, p)
        Q = _tangent_basis(form.evaluate(p))
        assert np.allclose(Q.conj().T @ Q, np.eye(form.n - 1), atol=1e-14)
        assert np.allclose(form.evaluate(p) @ Q, 0.0, atol=1e-14)

        def phi(z):
            return 0.5 * float(np.sum(np.abs(z) ** 2))

        for _ in range(3):
            x = rng.standard_normal(2 * (form.n - 1))
            x /= np.linalg.norm(x)
            v = Q @ (x[0::2] + 1j * x[1::2])
            zp = fc.project_to_leaf(integral, form, p + h * v, chart.c)
            zm = fc.project_to_leaf(integral, form, p - h * v, chart.c)
            fd = (phi(zp) + phi(zm) - 2.0 * phi(p)) / (h * h)
            assert fd == pytest.approx(x @ report.matrix @ x, abs=1e-5)


def test_leaf_hessian_rejects_noncritical(form321, integral321):
    z = _on_leaf_seed(
        integral321, form321, np.array([0.4 + 0.1j, 0.5, 0.6 - 0.2j]), 1.0
    )
    chart = fc.make_chart(integral321, z, 1.0, form=form321)
    if fc.sample_field(form321, z).t_norm > 1e-6:
        with pytest.raises(ValueError):
            fc.leaf_hessian(chart, z)


def test_leaf_hessian_criticality_is_relative(form321, integral321):
    # at 1e-7 (0.3, 0.5 + 0.1i, 0.7) t_norm is 0.44 |z|, and the point is
    # refused as it is at 1e-3 (an absolute t_norm <= 1e-6 accepted it with
    # morse_index 1); the saddle s (0, 1, 0) keeps its eigenvalues at every scale
    z = 1e-7 * np.array([0.3, 0.5 + 0.1j, 0.7])
    with pytest.raises(ValueError, match="not critical"):
        fc.leaf_hessian(fc.make_chart(integral321, z, form=form321), z)
    for e in range(14):
        p = np.array([0.0, 10.0**-e, 0.0], dtype=complex)
        report = fc.leaf_hessian(fc.make_chart(integral321, p, form=form321), p)
        assert np.max(np.abs(report.eigenvalues - [-0.5, 0.5, 1.5, 2.5])) <= 1e-12
        assert report.negative_count == 1


def test_chart_requires_gradient():
    # the gradient 2 z1 dz1 of z1^2 vanishes on the z2 axis: make_chart
    # checks only that its base is on the leaf, and the first field sample
    # there, of a flow or a Hessian, refuses the base as it refuses every
    # singular point
    integral = fc.Polynomial(3, [(1.0, (2, 0, 0))])
    base = np.array([0.0, 1.0, 0.0], dtype=complex)
    chart = fc.make_chart(integral, base, 0.0, form=integral.differential())
    with pytest.raises(SingularGradientError):
        fc.flow_to_critical(chart, base)
    with pytest.raises(SingularGradientError):
        fc.leaf_hessian(chart, base)


# -----------------------------------------------------------------------------
# transversality scans
# -----------------------------------------------------------------------------


def test_scan_symplectic_unit(symplectic4):
    scan = fc.transversality_scan(symplectic4, 1.0, 10_000, 21)
    assert scan.min_score == pytest.approx(1.0, abs=1e-12)
    assert len(scan.worst) == 10
    assert scan.worst[0].score == scan.min_score


def test_scan_diag_finds_near_contact(form321):
    # thresholds frozen from measurement: 1e4 uniform samples on S^5 land
    # within ~0.1 of an axis (min-distance scaling N^(-1/4)), 1e5 within ~0.05
    scan = fc.transversality_scan(form321, 1.0, 10_000, 22)
    assert scan.min_score < 0.15
    assert min(axis_distance(scan.worst[0].z, j) for j in range(3)) < 0.3
    assert fc.transversality_scan(form321, 1.0, 100_000, 23).min_score < 0.05


def test_scan_minimum_decreases_with_samples(form321):
    mins = [
        fc.transversality_scan(form321, 1.0, n, 23).min_score for n in (100, 1000, 10_000)
    ]
    assert mins[0] >= mins[1] >= mins[2]


def test_scan_deterministic(form321):
    a = fc.transversality_scan(form321, 1.0, 500, 24)
    b = fc.transversality_scan(form321, 1.0, 500, 24)
    assert a.min_score == b.min_score
    assert all(np.array_equal(x.z, y.z) and x.score == y.score for x, y in zip(a.worst, b.worst))


def test_scan_singular_mask_agrees_with_mu_of(monkeypatch):
    # samples score 0 exactly where point_at finds the gradient zero to rounding;
    # a form whose terms are all tiny is not singular anywhere but at 0
    step = fc.PolyOneForm([fc.Polynomial(2, [(1.0, (1, 0)), (-1.0, (0, 0))]), fc.Polynomial(2, [])])
    tiny = fc.linear_form(fc.SymMatrix(1e-20 * np.array([[1.0, 1.0], [1.0, 0.0]])))
    points = np.array([[1.0, 0.0], [1.0 + 1e-10, 1.0], [1.0, 1j]], dtype=complex)
    monkeypatch.setattr(leaf, "sphere_seeds", lambda n, count, seed, r: points[:count])
    for form, want_singular in ((step, [True, False, True]), (tiny, [False, False, False])):
        worst = fc.transversality_scan(form, 1.0, 3, 0).worst
        singular = []
        for sample in sorted(worst, key=lambda s: points.tolist().index(s.z.tolist())):
            score, z = sample.score, sample.z
            try:
                fc.point_at(form, z)
                singular.append(False)
                assert score > 0.0
                # the score is t_norm / r and the residual t_norm / |z|, r = 1
                residual = fc.contact_residual(form, z)
                assert score == pytest.approx(residual * np.linalg.norm(z), rel=1e-15, abs=0.0)
            except SingularGradientError:
                singular.append(True)
                assert score == 0.0
        assert singular == want_singular


# -----------------------------------------------------------------------------
# persistence
# -----------------------------------------------------------------------------


def test_index_persistence_minimum(diag321, form321, integral321):
    p = np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    report = fc.leaf_hessian(chart, p)
    assert report.negative_count == 0
    assert fc.index_persistence(chart, report.point, 0.01)
    assert fc.index_persistence(chart, report.point, 0.01j)


def test_index_persistence_saddle(diag321, form321, integral321):
    p = np.array([0, 1.0, 0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    report = fc.leaf_hessian(chart, p)
    assert report.negative_count == 1
    assert fc.index_persistence(chart, report.point, 0.01)
    assert fc.index_persistence(chart, report.point, 0.01j)


@pytest.mark.parametrize("outcome", ["flow fails", "lands far"])
def test_index_persistence_reports_a_lost_point_as_false(outcome, form321, integral321, monkeypatch):
    # a flow that fails, or one that lands on the mirror image -q of the
    # point q it reaches: -q is critical on the same leaf with the same
    # index (g and |z|^2 are even), but lies beyond the persistence radius
    # 10 sqrt(|dc|) (1 + |p|), about 0.57 at dc = 0.001
    p = np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    report = fc.leaf_hessian(chart, p)
    flow, landed = leaf.flow_to_critical, []

    def lost(chart, z0, direction):
        if outcome == "flow fails":
            raise FlowError("step limit exceeded", last_point=None, steps=0)
        res = flow(chart, z0, direction)
        landed.append(-res.point.z)
        return replace(res, point=replace(res.point, z=landed[0]))

    monkeypatch.setattr(leaf, "flow_to_critical", lost)
    assert fc.index_persistence(chart, report.point, 0.001) is False
    monkeypatch.undo()
    if outcome == "lands far":
        chart_new = replace(chart, c=chart.c + 0.001)
        assert fc.leaf_hessian(chart_new, landed[0]).negative_count == report.negative_count
        assert np.linalg.norm(landed[0] - p) > 10.0 * np.sqrt(0.001) * (1.0 + np.linalg.norm(p))


def test_index_persistence_identity_reports_bool(identity3):
    form = fc.linear_form(identity3)
    integral = fc.quadratic_first_integral(identity3)
    p = np.array([np.sqrt(2.0), 0, 0], dtype=complex)
    chart = fc.make_chart(integral, p, 1.0, form=form)
    report = fc.leaf_hessian(chart, p)
    # degenerate case: the lemma preconditions fail; outcome is only reported
    assert isinstance(fc.index_persistence(chart, report.point, 0.01), bool)


def test_index_persistence_validates_dc(diag321, form321, integral321):
    p = np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    report = fc.leaf_hessian(chart, p)
    with pytest.raises(ValueError):
        fc.index_persistence(chart, report.point, 0.5)


def _persistence_without_index(form, integral):
    p = fc.point_at(form, [np.sqrt(2.0 / 3.0), 0.0, 0.0])
    fc.index_persistence(fc.make_chart(integral, p.z, form=form), p, 0.01)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda form, integral: fc.transversality_scan(form, 1.0, 0, 0), "at least one sample"),
        (_persistence_without_index, "needs a computed morse_index"),
    ],
    ids=["no sample", "no morse index"],
)
def test_leaf_refusals(form321, integral321, call, fragment):
    with pytest.raises(ValueError, match=fragment) as exc:
        call(form321, integral321)
    assert type(exc.value) is ValueError
