"""Projected field, leaf flows, restricted Hessians, scans, persistence."""

from __future__ import annotations

import numpy as np
import pytest

import folcontact as fc
from folcontact.contact import sphere_seeds
from folcontact.errors import ChartError, FlowError
from folcontact.leaf import _leaf_system, homogeneous_leaf_scale

from conftest import axis_distance


def _on_leaf_seed(integral, form, raw, c):
    z = homogeneous_leaf_scale(integral, raw, c)
    return fc.project_to_leaf(integral, form, z, c)


# -----------------------------------------------------------------------------
# field samples
# -----------------------------------------------------------------------------


def test_sample_field_on_contact_line(form321):
    s = fc.sample_field(form321, [1, 0, 0])
    assert s.t_norm <= 1e-15


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


def test_leaf_system_jacobian_matches_finite_differences(form321, integral321, cubic3):
    rng = np.random.default_rng(15)
    cubic_form = cubic3.differential()
    for integral, form in ((integral321, form321), (cubic3, cubic_form)):
        n = form.n
        base = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        residual, jacobian = _leaf_system(fc.make_chart(integral, base, form=form))
        for _ in range(10):
            u = rng.standard_normal(2 * n + 2)
            J = jacobian(u)
            h = 1e-6
            for k in range(2 * n + 2):
                e = np.zeros(2 * n + 2)
                e[k] = h
                fd = (residual(u + e) - residual(u - e)) / (2 * h)
                assert np.all(np.abs(fd - J[:, k]) <= 1e-5 * (1.0 + np.abs(J[:, k])))


def test_gradient_identity_in_chart(diag321, form321, integral321):
    # finite differences of |z|^2 along chart lifts match 2 Re <w, lift>
    rng = np.random.default_rng(14)
    h = 1e-6
    checked = 0
    while checked < 100:
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = _on_leaf_seed(integral321, form321, raw, 1.0)
        f = fc.eval_form(form321, z)
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
        assert all(b < a for a, b in zip(res.phi_trace, res.phi_trace[1:]))
        # flow limits are contact points
        assert res.point.residual <= 10 * 1e-8


def test_flow_already_critical_returns_immediately(form321, integral321):
    p = np.array([np.sqrt(2.0 / 3.0), 0.0, 0.0], dtype=complex)
    chart = fc.make_chart(integral321, p, 1.0, form=form321)
    res = fc.flow_to_critical(chart, p, "descend")
    assert res.steps == 0
    assert np.linalg.norm(res.point.z - p) <= 1e-9


def test_flow_ascend_reports_or_diagnoses(form321, integral321):
    # start near the minimum, slightly displaced, and ascend
    p = np.array([np.sqrt(2.0 / 3.0), 0.02, 0.0], dtype=complex)
    z0 = fc.project_to_leaf(integral321, form321, p, 1.0)
    chart = fc.make_chart(integral321, z0, 1.0, form=form321)
    try:
        res = fc.flow_to_critical(chart, z0, "ascend", tol=1e-8, max_steps=400)
    except FlowError as exc:
        assert exc.steps > 0  # diagnostic carries how far the flow got
        assert exc.last_point is not None
    else:
        # converged: must be a genuine contact point of higher index
        # (fresh chart: the old pivot degenerates at the new critical point)
        assert res.point.residual <= 1e-7
        chart2 = fc.make_chart(integral321, res.point.z, 1.0, form=form321)
        report = fc.leaf_hessian(chart2, res.point.z)
        assert report.negative_count >= 1


def test_flow_rejects_off_leaf_seed(form321, integral321):
    chart = fc.make_chart(
        integral321, np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex), 1.0, form=form321
    )
    with pytest.raises(ValueError):
        fc.flow_to_critical(chart, np.array([1.0, 1.0, 1.0]), "descend")


def test_flow_on_cubic_leaf(cubic3):
    form = cubic3.differential()
    rng = np.random.default_rng(16)
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z0 = _on_leaf_seed(cubic3, form, raw, 1.0)
    chart = fc.make_chart(cubic3, z0, 1.0, form=form)
    res = fc.flow_to_critical(chart, z0, "descend", tol=1e-8, max_steps=4000)
    assert abs(complex(cubic3.evaluate(res.point.z)) - 1.0) <= 1e-9
    assert fc.sample_field(form, res.point.z).t_norm <= 1e-8


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


def test_leaf_hessian_rejects_noncritical(form321, integral321):
    z = _on_leaf_seed(
        integral321, form321, np.array([0.4 + 0.1j, 0.5, 0.6 - 0.2j]), 1.0
    )
    chart = fc.make_chart(integral321, z, 1.0, form=form321)
    if fc.sample_field(form321, z).t_norm > 1e-6:
        with pytest.raises(ValueError):
            fc.leaf_hessian(chart, z)


def test_chart_requires_gradient(integral321, form321):
    with pytest.raises(ChartError):
        fc.make_chart(
            fc.Polynomial(3, [(1.0, (2, 0, 0))]),
            np.array([0.0, 1.0, 0.0], dtype=complex),
            0.0,
        )


# -----------------------------------------------------------------------------
# transversality scans
# -----------------------------------------------------------------------------


def test_scan_symplectic_unit(symplectic4):
    min_score, worst = fc.transversality_scan(symplectic4, 1.0, 10_000, 21)
    assert min_score == pytest.approx(1.0, abs=1e-12)
    assert len(worst) == 10
    assert worst[0][0] == min_score


def test_scan_diag_finds_near_contact(form321):
    # thresholds frozen from measurement: 1e4 uniform samples on S^5 land
    # within ~0.1 of an axis (min-distance scaling N^(-1/4)), 1e5 within ~0.05
    min_score, worst = fc.transversality_scan(form321, 1.0, 10_000, 22)
    assert min_score < 0.15
    score, z = worst[0]
    assert min(axis_distance(z, j) for j in range(3)) < 0.3
    min_score_dense, _ = fc.transversality_scan(form321, 1.0, 100_000, 23)
    assert min_score_dense < 0.05


def test_scan_minimum_decreases_with_samples(form321):
    mins = [
        fc.transversality_scan(form321, 1.0, n, 23)[0] for n in (100, 1000, 10_000)
    ]
    assert mins[0] >= mins[1] >= mins[2]


def test_scan_deterministic(form321):
    a = fc.transversality_scan(form321, 1.0, 500, 24)
    b = fc.transversality_scan(form321, 1.0, 500, 24)
    assert a[0] == b[0]
    assert all(np.array_equal(x[1], y[1]) and x[0] == y[0] for x, y in zip(a[1], b[1]))


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
