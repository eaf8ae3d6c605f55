"""Polynomial kernel, matrices, gram inverse, Takagi factorization."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

import folcontact as fc
from folcontact.errors import DimensionMismatchError, SingularMatrixError

from conftest import random_symmetric


# -----------------------------------------------------------------------------
# polynomials and forms
# -----------------------------------------------------------------------------


def test_polynomial_merges_and_prunes():
    p = fc.Polynomial(2, [(1.0, (1, 0)), (2.0, (1, 0)), (0.0, (0, 1)), (-3.0, (1, 0))])
    assert p.terms == []  # 1 + 2 - 3 = 0, and the explicit zero is pruned
    q = fc.Polynomial(2, [(1.0, (2, 0)), (1j, (0, 2))])
    assert q.total_degree == 2
    assert q.homogeneous_degree() == 2


def test_polynomial_rejects_bad_terms():
    with pytest.raises(DimensionMismatchError):
        fc.Polynomial(2, [(1.0, (1, 0, 0))])
    with pytest.raises(ValueError):
        fc.Polynomial(2, [(1.0, (-1, 0))])


def test_polynomial_partial_and_differential():
    f = fc.Polynomial(3, [(1.0, (3, 0, 0)), (2.0, (1, 1, 1))])
    fx = f.partial(0)
    z = np.array([1.0 + 1j, 2.0, -1.0], dtype=complex)
    assert fx.evaluate(z) == pytest.approx(3 * (1 + 1j) ** 2 + 2 * 2 * (-1))
    form = f.differential()
    assert form.n == 3
    assert np.allclose(form.evaluate(z)[0], fx.evaluate(z))


def test_eval_form_examples(diag321, form321, cubic3):
    # linear diagonal form at (1,1,1): coefficients are the diagonal
    assert np.allclose(fc.eval_form(form321, [1, 1, 1]), [3, 2, 1])
    # differential of a cubic power sum at a basis point
    assert np.allclose(fc.eval_form(cubic3.differential(), [1, 0, 0]), [3, 0, 0])
    # pairwise-rotation form by direct substitution
    assert np.allclose(fc.eval_form(fc.symplectic_form(4), [1, 2, 3, 4]), [2, -1, 4, -3])


def test_eval_form_dimension_mismatch(form321):
    with pytest.raises(DimensionMismatchError):
        fc.eval_form(form321, [1, 2])


def test_jacobian_form_closed_forms(diag321, form321):
    z = np.array([0.3 - 0.7j, 1.1, -0.4j])
    assert np.allclose(fc.jacobian_form(form321, z), diag321.array)
    sq = fc.quadratic_first_integral(fc.SymMatrix(2 * np.eye(3, dtype=complex)))
    assert np.allclose(fc.jacobian_form(sq.differential(), z), 2 * np.eye(3))
    cubic = fc.Polynomial(3, [(1.0, (3, 0, 0)), (1.0, (0, 3, 0)), (1.0, (0, 0, 3))])
    assert np.allclose(
        fc.jacobian_form(cubic.differential(), [1, 1, 1]), np.diag([6.0, 6.0, 6.0])
    )


@pytest.mark.parametrize("fixture", ["linear", "symplectic", "cubic"])
def test_jacobian_matches_finite_differences(fixture, diag321, cubic3):
    form = {
        "linear": fc.linear_form(diag321),
        "symplectic": fc.symplectic_form(4),
        "cubic": cubic3.differential(),
    }[fixture]
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(100):
        z = rng.standard_normal(form.n) + 1j * rng.standard_normal(form.n)
        J = fc.jacobian_form(form, z)
        for k in range(form.n):
            e = np.zeros(form.n, dtype=complex)
            e[k] = h
            fd = (fc.eval_form(form, z + e) - fc.eval_form(form, z - e)) / (2 * h)
            scale = np.abs(J[:, k]) + 1.0
            assert np.all(np.abs(fd - J[:, k]) <= 1e-5 * scale)


def _random_form(rng: np.random.Generator, n: int, degree: int) -> fc.PolyOneForm:
    """Up to 5 random terms per coefficient, exponents up to `degree` per
    variable; some coefficients are the zero polynomial, some have constants."""
    coeffs = []
    for _ in range(n):
        terms = [
            (complex(*rng.standard_normal(2)), rng.integers(0, degree + 1, size=n))
            for _ in range(int(rng.integers(0, 6)))
        ]
        if rng.random() < 0.3:
            terms.append((complex(*rng.standard_normal(2)), [0] * n))
        coeffs.append(fc.Polynomial(n, terms))
    return fc.PolyOneForm(coeffs)


@pytest.mark.parametrize("n", range(2, 9))
def test_batched_form_matches_per_coefficient_oracle(n):
    rng = np.random.default_rng(100 + n)
    for degree in range(6):
        form = _random_form(rng, n, degree)
        Z = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        Z[1, 0] = 0.0
        Z[2, :] = 0.0
        Z[3, n - 1] = 0.0
        F = form.evaluate(Z)
        J = fc.jacobian_form(form, Z)
        assert F.shape == (6, n) and J.shape == (6, n, n)
        want_F = np.stack([f.evaluate(Z) for f in form.coeffs], axis=-1)
        want_J = np.stack(
            [np.stack([f.partial(k).evaluate(Z) for k in range(n)], axis=-1) for f in form.coeffs],
            axis=-2,
        )
        assert np.all(np.abs(F - want_F) <= 1e-12 * np.maximum(np.abs(want_F), 1.0))
        assert np.all(np.abs(J - want_J) <= 1e-12 * np.maximum(np.abs(want_J), 1.0))
        # one point gives the row of the stack
        assert np.allclose(form.evaluate(Z[4]), F[4], rtol=1e-12, atol=0)
        assert np.allclose(fc.jacobian_form(form, Z[4]), J[4], rtol=1e-12, atol=0)


def test_zero_form_evaluates_to_zero():
    zero = fc.PolyOneForm([fc.Polynomial(3, []) for _ in range(3)])
    Z = np.ones((4, 3), dtype=complex)
    assert np.array_equal(zero.evaluate(Z), np.zeros((4, 3)))
    assert np.array_equal(fc.jacobian_form(zero, Z), np.zeros((4, 3, 3)))
    assert np.array_equal(zero.rounding_scale(Z), np.zeros(4))


def test_batched_evaluate_never_builds_a_power_tensor():
    # the monomials are built one factor at a time: the peak stays below the
    # (S, m, n) complex tensor of all variable powers of every monomial
    n = 8
    cubic = fc.Polynomial(
        n,
        [(1.0 + 0.5j, e) for e in itertools.product(range(4), repeat=n) if sum(e) == 3],
    )
    form = cubic.differential()
    m = form._coeffs_t.shape[0]  # the monomials of the form's table
    Z = np.random.default_rng(1).standard_normal((10_000, n)) + 0j
    tracemalloc.start()
    try:
        form.evaluate(Z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m == 36  # the degree-2 monomials in 8 variables
    assert peak < Z.shape[0] * m * n * 16


def test_integrate_exact_form_roundtrip(diag321, cubic3):
    for integral in (fc.quadratic_first_integral(diag321), cubic3):
        form = integral.differential()
        rebuilt = fc.integrate_exact_form(form)
        z = np.array([0.3, -0.8 + 0.2j, 1.4j])
        assert rebuilt.evaluate(z) == pytest.approx(integral.evaluate(z))


def test_integrate_rejects_non_exact():
    # z2 dz1 alone is not closed: d(f_1)/dz2 = 1 but d(f_2)/dz1 = 0
    form = fc.PolyOneForm(
        [fc.Polynomial(2, [(1.0, (0, 1))]), fc.Polynomial(2, [])]
    )
    with pytest.raises(ValueError):
        fc.integrate_exact_form(form)


def test_homogeneous_degree_of_forms(form321, symplectic4, cubic3):
    assert form321.homogeneous_degree() == 1
    assert symplectic4.homogeneous_degree() == 1
    assert cubic3.differential().homogeneous_degree() == 2
    mixed = fc.PolyOneForm(
        [fc.Polynomial(2, [(1.0, (1, 0))]), fc.Polynomial(2, [(1.0, (0, 2))])]
    )
    assert mixed.homogeneous_degree() is None


# -----------------------------------------------------------------------------
# matrices
# -----------------------------------------------------------------------------


def test_symmetric_canonicalization():
    A = fc.SymMatrix([[1.0, 2.0 + 1e-14j], [2.0, 3.0]])
    assert np.array_equal(A.array, A.array.T)
    with pytest.raises(ValueError):
        fc.SymMatrix([[1.0, 2.0], [5.0, 3.0]])


def test_hermitian_canonicalization():
    H = fc.HermMatrix([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    assert np.array_equal(H.array, H.array.conj().T)
    with pytest.raises(ValueError):
        fc.HermMatrix([[1.0, 1j], [1j, 2.0]])


def test_gram_inverse_examples():
    B = fc.gram_inverse(fc.SymMatrix(np.diag([1.0, 2.0]).astype(complex)))
    assert np.allclose(B.array, np.diag([1.0, 0.25]))
    B = fc.gram_inverse(fc.SymMatrix(np.eye(4, dtype=complex)))
    assert np.allclose(B.array, np.eye(4))
    # |1+i|^2 = 2; oracle is the direct product A^{-1} conj(A^{-1})
    A = fc.SymMatrix(np.diag([1.0 + 1j, 2.0]))
    B = fc.gram_inverse(A)
    assert np.allclose(B.array, np.diag([0.5, 0.25]))
    Ainv = np.linalg.inv(A.array)
    assert np.allclose(B.array, Ainv @ Ainv.conj(), atol=1e-12)


def test_gram_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        fc.gram_inverse(fc.SymMatrix([[1.0, 0.0], [0.0, 0.0]]))


def test_gram_inverse_positivity_property():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = random_symmetric(rng, n, max_cond=1e3)
        B = fc.gram_inverse(A)
        evals = B.eigenvalues()
        norm = float(np.max(np.abs(evals)))
        assert evals.min() > 1e-10 * norm
        # eigenvalues are 1/sigma^2 of the Takagi values
        sigma = fc.takagi(A).sigma
        assert np.allclose(np.sort(evals), np.sort(1.0 / sigma**2), rtol=1e-8)


# -----------------------------------------------------------------------------
# takagi
# -----------------------------------------------------------------------------


def test_takagi_diagonal():
    tk = fc.takagi(fc.SymMatrix(np.diag([3.0, 2.0, 1.0]).astype(complex)))
    assert np.allclose(tk.U, np.eye(3))
    assert np.allclose(tk.sigma, [3.0, 2.0, 1.0])


def test_takagi_degenerate_offdiagonal():
    A = fc.SymMatrix([[0.0, 1.0], [1.0, 0.0]])
    tk = fc.takagi(A)
    assert np.allclose(tk.sigma, [1.0, 1.0])
    assert np.abs(tk.reconstruct() - A.array).max() <= 1e-12


def test_takagi_random_property():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        A = random_symmetric(rng, n)
        tk = fc.takagi(A)
        sv = np.linalg.svd(A.array, compute_uv=False)
        assert np.allclose(tk.sigma, sv, rtol=1e-10, atol=1e-12)
        scale = max(1.0, np.abs(A.array).max())
        assert np.abs(tk.reconstruct() - A.array).max() <= 1e-10 * scale
        assert np.abs(tk.U.conj().T @ tk.U - np.eye(n)).max() <= 1e-10
        assert np.all(np.diff(tk.sigma) <= 1e-15)


def test_takagi_column_phase_convention():
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = random_symmetric(rng, 4)
        tk = fc.takagi(A)
        for j in range(4):
            k = int(np.argmax(np.abs(tk.U[:, j])))
            a = np.angle(tk.U[k, j])
            assert -1e-10 <= a < np.pi


def test_takagi_identity_block():
    tk = fc.takagi(fc.SymMatrix(np.eye(5, dtype=complex)))
    assert np.allclose(tk.sigma, np.ones(5))
    assert np.abs(tk.reconstruct() - np.eye(5)).max() <= 1e-12


def test_takagi_repeated_sigma_random_congruence():
    # unitary congruence of diag(2, 2, 1): a genuinely repeated sigma block
    rng = np.random.default_rng(23)
    for _ in range(10):
        Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        A = fc.SymMatrix(Q @ np.diag([2.0, 2.0, 1.0]).astype(complex) @ Q.T)
        tk = fc.takagi(A)
        assert np.allclose(tk.sigma, [2.0, 2.0, 1.0], atol=1e-10)
        assert np.abs(tk.reconstruct() - A.array).max() <= 1e-10 * 2.0
