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


@pytest.mark.parametrize(
    "exp",
    [(1.5, 0), (1.0, 0), (True, 0), (0, np.True_), ("1", 0)],
    ids=["float", "integral-float", "bool", "numpy-bool", "str"],
)
def test_polynomial_refuses_exponents_that_are_not_integers(exp):
    # int() would turn each of these into an integer exponent and merge terms
    with pytest.raises(ValueError, match="exponents must be integers"):
        fc.Polynomial(2, [(1.0, exp), (2.0, (1, 0))])


def test_polynomial_accepts_numpy_integer_exponents():
    p = fc.Polynomial(2, [(1.0, np.array([1, 0])), (2.0, (np.int32(1), np.uint8(0)))])
    assert p.terms == [(3.0 + 0j, (1, 0))]


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


def _random_terms(rng: np.random.Generator, n: int, degree: int) -> list[list]:
    """Term lists of n coefficients: up to 5 random terms each, exponents up
    to `degree` per variable, repeats possible; some coefficients are the
    zero polynomial, some have constants."""
    coeffs = []
    for _ in range(n):
        terms = [
            (complex(*rng.standard_normal(2)), rng.integers(0, degree + 1, size=n))
            for _ in range(int(rng.integers(0, 6)))
        ]
        if rng.random() < 0.3:
            terms.append((complex(*rng.standard_normal(2)), [0] * n))
        coeffs.append(terms)
    return coeffs


def _term_by_term(terms, Z: np.ndarray, k: int | None = None):
    """(sum of c z^e, sum of |c z^e|) over the terms at each row of Z, or
    the same for the partials e_k c z^(e - e_k) when k is given."""
    value = np.zeros(len(Z), dtype=complex)
    size = np.zeros(len(Z))
    for c, e in terms:
        e = [int(x) for x in e]
        if k is not None:
            if e[k] == 0:
                continue
            c, e = c * e[k], e[:k] + [e[k] - 1] + e[k + 1 :]
        term = c * np.prod([Z[:, i] ** ei for i, ei in enumerate(e)], axis=0)
        value += term
        size += np.abs(term)
    return value, size


@pytest.mark.parametrize("n", range(2, 9))
def test_batched_form_matches_per_coefficient_oracle(n):
    # the oracle sums the input terms one by one, repeats included, so it
    # shares no code with the compiled tables it checks
    rng = np.random.default_rng(100 + n)
    for degree in range(6):
        raw = _random_terms(rng, n, degree)
        form = fc.PolyOneForm([fc.Polynomial(n, terms) for terms in raw])
        Z = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        Z[1, 0] = 0.0
        Z[2, :] = 0.0
        Z[3, n - 1] = 0.0
        F = form.evaluate(Z)
        J = fc.jacobian_form(form, Z)
        assert F.shape == (6, n) and J.shape == (6, n, n)
        for j, terms in enumerate(raw):
            want, size = _term_by_term(terms, Z)
            assert np.all(np.abs(F[:, j] - want) <= 1e-12 * size)
            assert np.all(np.abs(form.coeffs[j].evaluate(Z) - want) <= 1e-12 * size)
            for k in range(n):
                want, size = _term_by_term(terms, Z, k)
                assert np.all(np.abs(J[:, j, k] - want) <= 1e-12 * size)
                assert np.all(np.abs(form.coeffs[j].partial(k).evaluate(Z) - want) <= 1e-12 * size)
        # one point gives the row of the stack
        assert np.allclose(form.evaluate(Z[4]), F[4], rtol=1e-12, atol=0)
        assert np.allclose(fc.jacobian_form(form, Z[4]), J[4], rtol=1e-12, atol=0)
        assert form.coeffs[0].evaluate(Z[4]) == pytest.approx(F[4, 0], rel=1e-12, abs=0)


def test_zero_form_evaluates_to_zero():
    zero = fc.PolyOneForm([fc.Polynomial(3, []) for _ in range(3)])
    Z = np.ones((4, 3), dtype=complex)
    assert np.array_equal(zero.evaluate(Z), np.zeros((4, 3)))
    assert np.array_equal(fc.jacobian_form(zero, Z), np.zeros((4, 3, 3)))
    assert np.array_equal(zero.rounding_scale(Z), np.zeros(4))


def test_batched_evaluate_never_builds_a_power_tensor():
    # the monomials of a polynomial and of a form are built one factor at a
    # time: the peak stays below the (S, m, n) complex tensor of all
    # variable powers of every monomial (about 150 MB for the polynomial)
    n = 8
    cubic = fc.Polynomial(
        n,
        [(1.0 + 0.5j, e) for e in itertools.product(range(4), repeat=n) if sum(e) == 3],
    )
    Z = np.random.default_rng(1).standard_normal((10_000, n)) + 0j
    for table, m in ((cubic, 120), (cubic.differential(), 36)):  # degree 3 and 2 monomials
        assert table._exps.shape[0] == m
        tracemalloc.start()
        try:
            table.evaluate(Z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
