"""Morse verdicts, contact lines, indices, morseify, unit-sphere tangencies."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

import folcontact as fc
from folcontact import linear
from folcontact.errors import SingularMatrixError

from conftest import axis_distance, line_distance, random_morse, random_symmetric


def _tangencies(A: fc.SymMatrix) -> list[fc.ContactPoint]:
    """One unit-sphere tangency per contact line of A: analyze's lines through point_at."""
    form = fc.linear_form(A)
    return [fc.point_at(form, line.direction, line.morse_index) for line in fc.analyze(A)[1].lines]


def test_analyze_diag(diag321):
    verdict, lineset = fc.analyze(diag321)
    assert verdict.is_morse
    assert verdict.sigma == [3.0, 2.0, 1.0]
    assert len(lineset.lines) == 3 and not lineset.rejected
    for j, line in enumerate(lineset.lines):
        axis = np.zeros(3, dtype=complex)
        axis[j] = 1.0
        assert np.linalg.norm(line.direction - axis) <= 1e-9
        assert line.mu_modulus == pytest.approx(1.0 / line.sigma)
        assert line.residual <= 1e-9


def test_analyze_identity(identity3):
    verdict, lineset = fc.analyze(identity3)
    assert not verdict.is_morse
    assert verdict.min_gap == 0.0
    assert len(lineset.lines) == 3  # lines are still valid contact directions
    for line in lineset.lines:
        assert line.residual <= 1e-9


def test_analyze_perturbed_identity():
    eps = [1e-2, 2e-2 * 1j, -3e-2]
    A = fc.SymMatrix(np.diag([1 + e for e in eps]))
    verdict, _ = fc.analyze(A)
    assert verdict.is_morse


def _ill_conditioned(sigma_min: float) -> fc.SymMatrix:
    """U diag(1, 0.5, sigma_min) U^T, U unitary: condition number 1/sigma_min."""
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return fc.SymMatrix(U @ np.diag([1.0, 0.5, sigma_min]) @ U.T)


@pytest.mark.parametrize("sigma_min", [1e-7, 1e-8])
def test_analyze_keeps_the_lines_of_an_ill_conditioned_matrix(sigma_min):
    # the sigma_min line has residual ~ eps sigma_max/sigma_min, above 1e-9
    verdict, lineset = fc.analyze(_ill_conditioned(sigma_min))
    assert verdict.is_morse and not lineset.rejected
    assert [line.morse_index for line in lineset.lines] == [0, 1, 2]
    assert lineset.lines[2].residual > fc.ACCEPT_TOL


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_analyze_and_tangencies_find_every_line_at_extreme_scales(scale):
    # |f|^2 of diag(3, 2, 1) s under- or overflows from |s| ~ 1e-154 or 1e154 on;
    # the lines are checked on A scaled by a power of two to entries near 1
    sigma = np.array([3.0, 2.0, 1.0])
    A = fc.SymMatrix(scale * np.diag(sigma))
    verdict, lineset = fc.analyze(A)
    assert verdict.is_morse and not lineset.rejected
    assert [line.morse_index for line in lineset.lines] == [0, 1, 2]
    assert all(line.residual <= np.finfo(float).eps for line in lineset.lines)
    assert np.allclose([line.mu_modulus * scale for line in lineset.lines], 1.0 / sigma, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_analyze_rejects_a_direction_off_its_line(j, monkeypatch):
    takagi = linear.takagi

    def rotated(A):
        tk = takagi(A)
        U = tk.U.copy()
        U[:, j] = np.cos(1e-3) * tk.U[:, j] + np.sin(1e-3) * tk.U[:, (j + 1) % 3]
        return replace(tk, U=U)

    A = _ill_conditioned(1e-7)
    sigma = takagi(A).sigma
    monkeypatch.setattr(linear, "takagi", rotated)
    _, lineset = fc.analyze(A)
    assert [line.sigma for line in lineset.rejected] == [sigma[j]]
    kept = [k for k in range(3) if k != j]
    assert [line.sigma for line in lineset.lines] == [sigma[k] for k in kept]
    assert [line.morse_index for line in lineset.lines] == kept  # the sigma rank among all lines


def test_analyze_rejects_singular():
    with pytest.raises(SingularMatrixError):
        fc.analyze(fc.SymMatrix(np.diag([1.0, 1.0, 0.0]).astype(complex)))


@pytest.mark.parametrize("diagonal", [[1e308, 1e308, 0.0], [1e200, 1e-200]])
def test_singular_matrix_message_overflows_at_neither_end_of_the_doubles(diagonal):
    # sigma_min and sigma_max name the failure; their product, which the
    # message used to give, is nan (with overflow warnings) for the first and
    # a misleading 1.0 for the second
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularMatrixError) as info:
            fc.analyze(fc.SymMatrix(np.diag(diagonal)))
    assert caught == []
    assert str(info.value) == (
        "matrix is singular or too ill-conditioned "
        f"(sigma_min = {min(diagonal):.3e}, sigma_max = {max(diagonal):.3e})"
    )


def test_morse_indices_diag(diag321):
    verdict, lineset = fc.analyze(diag321)
    assert verdict.is_morse
    assert [line.morse_index for line in lineset.lines] == [0, 1, 2]


def test_closed_form_hessian_eigenvalues():
    sigma = [3.0, 2.0, 1.0]
    line1 = fc.hessian_eigenvalues_closed_form(sigma, 0)
    assert np.allclose(np.sort(line1), sorted([5 / 3, 1 / 3, 4 / 3, 2 / 3]))
    line3 = fc.hessian_eigenvalues_closed_form(sigma, 2)
    assert np.allclose(np.sort(line3), sorted([1 + 3, 1 - 3, 1 + 2, 1 - 2]))
    assert int(np.sum(line1 < 0)) == 0
    assert int(np.sum(line3 < 0)) == 2


def test_morseify_identity(identity3):
    result = fc.morseify(identity3, 1e-3)
    out = result.matrix
    assert fc.analyze(out)[0].is_morse
    assert np.linalg.norm(out.array - identity3.array) <= 1e-3
    # the distance is computed once, by the budget check, and reported
    assert result.frobenius_distance == np.linalg.norm(out.array - identity3.array)
    assert result.changed is True


def test_morseify_noop_on_morse(diag321):
    for eps in (0.5, 1e-6):
        assert fc.morseify(diag321, eps) == fc.MorseifyResult(diag321, 0.0, False)
        assert fc.morseify(diag321, eps).matrix is diag321


def test_morseify_offdiagonal():
    A = fc.SymMatrix([[0.0, 1.0], [1.0, 0.0]])
    out = fc.morseify(A, 1e-2).matrix
    assert fc.analyze(out)[0].is_morse
    assert np.linalg.norm(out.array - A.array) <= 1e-2


def test_morseify_property():
    rng = np.random.default_rng(101)
    for k in range(20):
        n = int(rng.integers(2, 5))
        A = random_symmetric(rng, n, max_cond=1e3)
        if k % 2 == 0:
            # collapse two Takagi values to force the perturbation branch
            tk = fc.takagi(A)
            sigma = tk.sigma.copy()
            sigma[-1] = sigma[0]
            M = tk.U @ np.diag(sigma) @ tk.U.T
            A = fc.SymMatrix(0.5 * (M + M.T))
        for eps in (1e-2, 1e-4):
            out = fc.morseify(A, eps).matrix
            assert fc.analyze(out)[0].is_morse
            assert np.linalg.norm(out.array - A.array) <= eps
            # idempotence: a Morse output morseifies to itself
            assert fc.morseify(out, eps).matrix is out


def test_unit_sphere_tangencies_diag(diag321):
    points = _tangencies(diag321)
    assert len(points) == 3
    for j, p in enumerate(points):
        assert axis_distance(p.z, j) <= 1e-9
        assert p.residual <= 1e-9
        assert p.radius == pytest.approx(1.0)


def test_unit_sphere_tangencies_random_morse():
    rng = np.random.default_rng(55)
    for _ in range(10):
        A = random_morse(rng, 4)
        points = _tangencies(A)
        assert len(points) == 4
        assert all(p.residual <= 1e-9 for p in points)


def test_unit_sphere_tangencies_are_the_lines_packaged_as_points():
    rng = np.random.default_rng(56)
    for n in (3, 5):
        A = random_morse(rng, n)
        form = fc.linear_form(A)
        _, lineset = fc.analyze(A)
        for p, line in zip(_tangencies(A), lineset.lines, strict=True):
            assert np.array_equal(p.z, line.direction)
            assert p.mu == fc.point_at(form, line.direction).mu
            assert p.residual == line.residual
            assert p.morse_index == line.morse_index
            assert p.radius == pytest.approx(1.0, abs=1e-15)


def test_unit_sphere_tangencies_identity(identity3):
    points = _tangencies(identity3)
    assert len(points) >= 3
    assert all(p.residual <= 1e-9 for p in points)


def test_line_closure_property():
    rng = np.random.default_rng(77)
    for _ in range(10):
        A = random_morse(rng, 3)
        form = fc.linear_form(A)
        _, lineset = fc.analyze(A)
        for line in lineset.lines:
            T = complex(rng.standard_normal(), rng.standard_normal())
            if abs(T) < 1e-2:
                continue
            assert fc.contact_residual(form, T * line.direction) <= 1e-9 * (1 + abs(T))


def test_non_mixing_property():
    rng = np.random.default_rng(78)
    for _ in range(10):
        A = random_morse(rng, 3)
        form = fc.linear_form(A)
        _, lineset = fc.analyze(A)
        w = lineset.lines[0].direction + lineset.lines[1].direction
        assert fc.contact_residual(form, w) >= 1e-3


def test_index_agreement_with_numeric_hessian():
    # closed-form index equals the numeric leaf-Hessian negative count
    rng = np.random.default_rng(88)
    for n in (3, 4):
        for _ in range(3):
            A = random_morse(rng, n)
            verdict, lineset = fc.analyze(A)
            assert verdict.is_morse
            integral = fc.quadratic_first_integral(A)
            form = fc.linear_form(A)
            for line in lineset.lines:
                c = complex(integral.evaluate(line.direction))
                chart = fc.make_chart(integral, line.direction, c, form=form)
                report = fc.leaf_hessian(chart, line.direction)
                assert report.negative_count == line.morse_index


def test_solver_outputs_lie_on_lines():
    rng = np.random.default_rng(99)
    for _ in range(5):
        A = random_morse(rng, 3)
        _, lineset = fc.analyze(A)
        pts = fc.sphere_search(fc.linear_form(A), 1.0, 40, int(rng.integers(2**31))).points
        for p in pts:
            assert min(line_distance(p.z, l.direction) for l in lineset.lines) <= 1e-6


def test_symmatrix_keeps_a_subnormal_entry():
    # halving each entry before adding would round 5e-324 to 0
    M = np.diag([1.0, 5e-324]).astype(complex)
    assert np.array_equal(fc.SymMatrix(M).array, M)


def test_symmatrix_averages_entries_near_the_largest_double():
    M = np.array([[1e308, 5e307 * (1 + 1e-15)], [5e307, -1e308]], dtype=complex)
    S = fc.SymMatrix(M).array
    assert np.array_equal(S, S.T)
    assert np.all(np.isfinite(S.view(float)))
    assert S[0, 0] == 1e308 and S[1, 1] == -1e308
    assert abs(S[0, 1] - 5e307) <= 1e-15 * 5e307


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: fc.hessian_eigenvalues_closed_form([1.0, 0.0], 1), "positive sigma"),
        (lambda: fc.morseify(fc.SymMatrix(np.eye(3)), 0.0), "eps must be positive"),
        (lambda: fc.morseify(fc.SymMatrix(np.eye(3)), -1e-3), "eps must be positive"),
        (lambda: fc.morseify(fc.SymMatrix(np.eye(3)), 1e-12), "below the Morse gap tolerance"),
    ],
    ids=["zero sigma", "zero eps", "negative eps", "eps below the gap"],
)
def test_linear_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment) as exc:
        call()
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
@pytest.mark.parametrize("n", [14, 16, 24])
def test_morseify_shrinks_the_staircase_to_the_budget(n, eps):
    # from n = 14 on the plain staircase eps/(2n) (n-1, ..., 1, 0) is longer
    # than the budget 0.99 eps (1.022 eps at n = 14), so its step shrinks
    # until the staircase meets the budget
    result = fc.morseify(fc.SymMatrix(np.eye(n)), eps)
    assert result.changed is True and fc.analyze(result.matrix)[0].is_morse
    assert 0.98 * eps < result.frobenius_distance <= eps
