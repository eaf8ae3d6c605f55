"""Polynomial kernel, matrices, gram inverse, Takagi factorization."""

from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
import pytest

import folcontact as fc
from folcontact import algebra, leaf
from folcontact.algebra import _side_by_side
from folcontact.contact import form_id
from folcontact.errors import ConvergenceError, DimensionMismatchError, SingularMatrixError
from folcontact.jsonio import to_json

from conftest import form_to_json, random_symmetric, run_cli


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


@pytest.mark.parametrize("exponent", [10**30, 2**63 - 1, 2**62 - 1], ids=["1e30", "2^63-1", "2^62-1"])
def test_polynomial_refuses_exponents_beyond_the_table(exponent):
    # ValueError, never OverflowError: the int64 table and its power plan
    # cannot index such a power (the largest exponent at n = 2 is 2^62 - 3)
    with pytest.raises(ValueError, match="exceeds"):
        fc.Polynomial(2, [(1.0, (exponent, 0))])


def test_polynomial_accepts_the_largest_exponent_and_integrates_it():
    bound = np.iinfo(np.int64).max // 3 - 2
    p = fc.Polynomial(3, [(1.0, (bound, bound, bound))])
    assert p.total_degree == 3 * bound
    g = fc.integrate_exact_form(fc.Polynomial(3, [(1.0, (bound, 0, 0))]).differential())
    assert g.terms == [(1.0 + 0j, (bound, 0, 0))]


def test_polynomial_accepts_numpy_integer_exponents():
    p = fc.Polynomial(2, [(1.0, np.array([1, 0])), (2.0, (np.int32(1), np.uint8(0)))])
    assert p.terms == [(3.0 + 0j, (1, 0))]


def test_polynomial_partial_and_differential():
    f = fc.Polynomial(3, [(1.0, (3, 0, 0)), (2.0, (1, 1, 1))])
    form = f.differential()
    assert form.n == 3
    fx = form.coeffs[0]  # the partial with respect to z_1
    z = np.array([1.0 + 1j, 2.0, -1.0], dtype=complex)
    assert fx.evaluate(z) == pytest.approx(3 * (1 + 1j) ** 2 + 2 * 2 * (-1))
    assert fx == fc.Polynomial(3, [(3.0, (2, 0, 0)), (2.0, (0, 1, 1))])
    assert np.allclose(form.evaluate(z)[0], fx.evaluate(z))


def test_eval_form_examples(diag321, form321, cubic3):
    # linear diagonal form at (1,1,1): coefficients are the diagonal
    assert np.allclose(form321.evaluate([1, 1, 1]), [3, 2, 1])
    # differential of a cubic power sum at a basis point
    assert np.allclose(cubic3.differential().evaluate([1, 0, 0]), [3, 0, 0])
    # pairwise-rotation form by direct substitution
    assert np.allclose(fc.symplectic_form(4).evaluate([1, 2, 3, 4]), [2, -1, 4, -3])


def test_eval_form_dimension_mismatch(form321):
    with pytest.raises(DimensionMismatchError):
        form321.evaluate([1, 2])


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
            fd = (form.evaluate(z + e) - form.evaluate(z - e)) / (2 * h)
            scale = np.abs(J[:, k]) + 1.0
            assert np.all(np.abs(fd - J[:, k]) <= 1e-5 * scale)


def test_jacobian_of_a_stack_beyond_row_block_is_built_block_by_block(cubic3):
    # no caller stacks more than 64 rows today: the blocked path is pinned
    # here. It gives the bits of its ROW_BLOCK-row blocks evaluated alone;
    # a single row takes BLAS's matrix-vector path, so it agrees to rounding
    form = fc.Polynomial(3, cubic3.terms + [(0.5 - 2j, (1, 1, 1)), (3j, (0, 2, 2))]).differential()
    rng = np.random.default_rng(21)
    Z = rng.standard_normal((1500, 3)) + 1j * rng.standard_normal((1500, 3))
    J = fc.jacobian_form(form, Z)
    assert J.shape == (1500, 3, 3) and len(Z) > algebra.ROW_BLOCK
    blocks = [fc.jacobian_form(form, Z[s : s + algebra.ROW_BLOCK]) for s in range(0, len(Z), algebra.ROW_BLOCK)]
    assert np.array_equal(J, np.concatenate(blocks))
    assert np.array_equal(J.reshape(30, 50, 3, 3), fc.jacobian_form(form, Z.reshape(30, 50, 3)))
    for z, Jz in zip(Z, J):
        one = fc.jacobian_form(form, z)
        assert np.abs(one - Jz).max() <= 1e-15 * (1.0 + np.abs(Jz).max())


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
                partial = form.coeffs[j].differential().coeffs[k]
                assert np.all(np.abs(partial.evaluate(Z) - want) <= 1e-12 * size)
        # one point gives the row of the stack
        assert np.allclose(form.evaluate(Z[4]), F[4], rtol=1e-12, atol=0)
        assert np.allclose(fc.jacobian_form(form, Z[4]), J[4], rtol=1e-12, atol=0)
        assert form.coeffs[0].evaluate(Z[4]) == pytest.approx(F[4, 0], rel=1e-12, abs=0)


def test_zero_form_evaluates_to_zero():
    zero = fc.PolyOneForm([fc.Polynomial(3, []) for _ in range(3)])
    Z = np.ones((4, 3), dtype=complex)
    assert np.array_equal(zero.evaluate(Z), np.zeros((4, 3)))
    assert np.array_equal(fc.jacobian_form(zero, Z), np.zeros((4, 3, 3)))
    assert np.array_equal(zero.evaluate_scaled(Z)[1], np.zeros(4))


@pytest.mark.parametrize("n", range(2, 9))
def test_fused_evaluation_agrees_with_separate_passes(n):
    # one build of the stacked plan of g and f gives, block by block, the
    # monomials of each table's own build, and the leaf's evaluation of a
    # point contracts them to g.evaluate, f and f's rounding scale of
    # evaluate_scaled, and each table's _build values, bit for bit. f is
    # g's differential, or an unrelated form, whose monomials may have more
    # variables than g's; 3 to 200 terms a table, |z| from 1e-3 to 1e3
    rng = np.random.default_rng(300 + n)

    def polynomial(count: int, degree: int):
        return fc.Polynomial(n, [(complex(*rng.standard_normal(2)), rng.multinomial(degree, np.ones(n) / n)) for _ in range(count)])

    for trial in range(20):
        g = polynomial(int(rng.integers(3, 201)), int(rng.integers(1, 6)))
        count = max(1, int(rng.integers(3, 201)) // n)
        form = g.differential() if trial % 2 else fc.PolyOneForm([polynomial(count, 6) for _ in range(n)])
        plan, m = _side_by_side(g, form), len(g._exps)
        chart = fc.LeafChart(g, form, 1.0)
        assert chart._plan is plan
        Z = rng.standard_normal((30, n)) + 1j * rng.standard_normal((30, n))
        Z *= (10.0 ** rng.uniform(-3, 3, 30) / np.linalg.norm(Z, axis=1))[:, None]
        for z in Z:
            monomials = algebra._monomials(z[None], plan)
            (g_values, g_monomials), (f_values, f_monomials) = g._build(z[None]), form._build(z[None])
            assert np.array_equal(monomials[:m], g_monomials) and np.array_equal(monomials[m:], f_monomials)
            value, _, f, scale = leaf._evaluate(chart, z)
            want_f, want_scale = form.evaluate_scaled(z)
            assert value == g.evaluate(z) == g_values[0, 0]
            assert np.array_equal(f, want_f) and np.array_equal(f, f_values[0]) and scale == want_scale


def test_side_by_side_refuses_different_variable_counts(form321):
    with pytest.raises(DimensionMismatchError):
        _side_by_side(fc.Polynomial(2, [(1.0, (1, 1))]), form321)


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


def test_power_plans_are_compiled_at_first_evaluation(monkeypatch, cubic3):
    # form_id reads the coefficient polynomials and integrate_exact_form the
    # table of d of its result: neither evaluates, so neither compiles a plan,
    # nor does building a coefficient polynomial, here the partial d mixed/dz_2.
    # Plans are shared per distinct exponent table, so none is left from before
    algebra._compiled.cache_clear()
    compiled = []
    power_plan = algebra._power_plan
    monkeypatch.setattr(algebra, "_power_plan", lambda exps: compiled.append(exps) or power_plan(exps))
    mixed = fc.Polynomial(3, cubic3.terms + [(0.5 - 2j, (1, 1, 1)), (3j, (0, 2, 1))])
    form = mixed.differential()
    z = np.array([0.3, -0.8 + 0.2j, 1.4j])
    form_id(form)
    rebuilt = fc.integrate_exact_form(form)
    partial = form.coeffs[1]
    assert compiled == []
    f = form.evaluate(z)
    assert len(compiled) == 1 and np.array_equal(compiled[0], form._exps)
    form.evaluate(z)
    assert len(compiled) == 1  # one plan per table
    # the same values as from a plan compiled up front
    assert np.array_equal(f, (algebra._monomials(z[None], power_plan(form._exps)).T @ form._coeffs)[0])
    assert partial.evaluate(z) == pytest.approx(f[1], rel=1e-15)
    assert rebuilt.evaluate(z) == pytest.approx(mixed.evaluate(z), rel=1e-15)
    # one plan per distinct exponent table: the form's, the partial's, and
    # the one rebuilt and mixed share, as their exponents are equal
    assert len(compiled) == 3 and rebuilt._plan is mixed._plan


def _cache_independent_results(tmp_path) -> list[str]:
    # a flow, a leaf Hessian, a sphere search and a CLI report, each built
    # from scratch, written as report JSON (zero signs kept)
    A = fc.SymMatrix(np.diag([3.0, 2.0, 1.0]).astype(complex))
    form, integral = fc.linear_form(A), fc.quadratic_first_integral(A)
    cubic = fc.Polynomial(3, [(1.0, (3, 0, 0)), (2.0, (0, 3, 0)), (-1j, (1, 1, 1)), (0.5, (0, 0, 2))])
    seed = np.array([0.4 + 0.1j, 0.5 - 0.2j, 0.6 + 0.3j])
    p = np.array([0, 1j, 0])
    path = tmp_path / "hess.json"
    path.write_text(json.dumps({"form": form_to_json(form), "point": to_json(p)}))
    results = [
        fc.flow_to_critical(fc.make_chart(integral, seed, form=form), seed),
        fc.leaf_hessian(fc.make_chart(integral, p, form=form), p),
        fc.sphere_search(cubic.differential(), 1.5, 8, 3),
    ]
    return [json.dumps(to_json(r)) for r in results] + [run_cli(["leaf-hessian", "--input", str(path)])[1]]


def test_results_do_not_depend_on_the_compiled_tables_kept(tmp_path):
    algebra._compiled.cache_clear()
    cold = _cache_independent_results(tmp_path)
    assert algebra._compiled.cache_info().currsize > 0
    assert _cache_independent_results(tmp_path) == cold


def test_compiled_tables_are_read_only_and_bounded():
    compiled = algebra._exponents(np.array([[2, 0, 1], [0, 1, 0], [2, 0, 1]]))
    variables, exponents, columns = compiled.plan
    for a in (compiled.exps, variables, exponents, *columns, *compiled.unique, *compiled.pairs):
        with pytest.raises(ValueError):
            a[0] = 0
    assert algebra._compiled.cache_info().maxsize == algebra._COMPILED_TABLES > 0
    # one power row per distinct (k, e > 0) after z1^0 = 1: z1^2, z2, z3
    assert variables.tolist() == [0, 0, 1, 2] and exponents.tolist() == [0, 2, 1, 1]
    assert [column.tolist() for column in columns] == [[1, 2, 1], [3, 0, 3]]
    # the largest exponent does not size the plan
    variables, exponents, columns = algebra._power_plan(np.array([[10**12, 0], [0, 0]]))
    assert variables.tolist() == [0, 0] and exponents.tolist() == [0, 10**12]
    assert [column.tolist() for column in columns] == [[1, 0]]


def test_equal_bytes_of_another_shape_compile_another_plan():
    a = np.array([[1, 0, 2], [0, 3, 1]])
    b = a.reshape(3, 2)
    assert a.tobytes() == b.tobytes()
    assert algebra._exponents(a) is not algebra._exponents(b)
    assert algebra._exponents(a) is algebra._exponents(a.copy())
    for E in (a, b):
        n = E.shape[1]
        C = np.arange(1, len(E) + 1, dtype=complex)[:, None]
        z = np.array([0.7 - 0.2j, 1.3j, -0.4][:n])
        table = algebra._MonomialTable(n, E.copy(), C)
        assert table._dot(z)[0] == pytest.approx(sum(c * np.prod(z**e) for (c,), e in zip(C, E)), rel=1e-15)


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


@pytest.mark.parametrize("scale", [1e-12, 1.0])
def test_takagi_refuses_a_wrong_factor_at_any_scale(monkeypatch, scale):
    # column 0 times i: U stays unitary, but U diag(sigma) U^T is not A, at
    # every scale of A (the bound is relative to max |a_ij|)
    fix = algebra._fix_column_signs

    def turned(U):
        U = fix(U)
        U[:, 0] *= 1j
        return U

    monkeypatch.setattr(algebra, "_fix_column_signs", turned)
    with pytest.raises(ConvergenceError, match="reconstruction error"):
        fc.takagi(fc.SymMatrix(scale * np.diag([3.0, 2.0, 1.0])))


def test_symmetry_and_hermitian_bounds_are_relative_below_scale_one():
    # 50% asymmetric at 1e-13 is refused as at 1; the zero matrix still passes
    with pytest.raises(ValueError, match="not symmetric"):
        fc.SymMatrix(1e-13 * np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(ValueError, match="not hermitian"):
        fc.HermMatrix(1e-13 * np.array([[1.0, 1j], [1j, 2.0]]))
    assert np.array_equal(fc.SymMatrix(np.zeros((2, 2))).array, np.zeros((2, 2)))
    assert np.array_equal(fc.HermMatrix(np.zeros((2, 2))).array, np.zeros((2, 2)))


def test_takagi_identity_block():
    tk = fc.takagi(fc.SymMatrix(np.eye(5, dtype=complex)))
    assert np.allclose(tk.sigma, np.ones(5))
    assert np.abs(tk.reconstruct() - np.eye(5)).max() <= 1e-12


@pytest.mark.parametrize("n, k", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_takagi_zero_sigma_block(n, k):
    # unitary congruence of diag(k + 1, ..., 2, 0, ..., 0): the n - k zero
    # sigma take the smallest singular values and the conjugated null
    # vectors of an SVD of A
    rng = np.random.default_rng(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    d = np.concatenate([np.arange(k + 1.0, 1.0, -1.0), np.zeros(n - k)])
    A = fc.SymMatrix(Q @ np.diag(d) @ Q.T)
    tk = fc.takagi(A)
    scale = np.abs(A.array).max()
    assert np.abs(tk.reconstruct() - A.array).max() <= 1e-10 * scale
    assert np.abs(tk.U.conj().T @ tk.U - np.eye(n)).max() <= 1e-10
    assert np.allclose(tk.sigma[:k], d[:k], rtol=1e-12, atol=0)
    assert np.array_equal(tk.sigma[k:], np.linalg.svd(A.array)[1][k:])
    assert np.all(tk.sigma[k:] <= 1e-14 * scale)


def test_takagi_repeated_sigma_random_congruence():
    # unitary congruence of diag(2, 2, 1): a genuinely repeated sigma block
    rng = np.random.default_rng(23)
    for _ in range(10):
        Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        A = fc.SymMatrix(Q @ np.diag([2.0, 2.0, 1.0]).astype(complex) @ Q.T)
        tk = fc.takagi(A)
        assert np.allclose(tk.sigma, [2.0, 2.0, 1.0], atol=1e-10)
        assert np.abs(tk.reconstruct() - A.array).max() <= 1e-10 * 2.0


_FORM2 = fc.linear_form(fc.SymMatrix(np.diag([1.0, 2.0])))


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: fc.point_at(_FORM2, [[1.0, 0.0]]), DimensionMismatchError, "vector of dimension >= 2"),
        (lambda: fc.point_at(_FORM2, [1.0, 0.0, 0.0]), DimensionMismatchError, "expected dimension 2, got 3"),
        (lambda: fc.point_at(_FORM2, [np.nan, 1.0]), ValueError, "non-finite components"),
        (lambda: fc.Polynomial(0, []), DimensionMismatchError, "n >= 1 variables"),
        (lambda: fc.PolyOneForm([fc.Polynomial(2, [])]), DimensionMismatchError, "n >= 2 coefficients"),
        (
            lambda: fc.PolyOneForm([fc.Polynomial(2, []), fc.Polynomial(3, [])]),
            DimensionMismatchError,
            "wrong variable count",
        ),
        (lambda: fc.SymMatrix(np.ones((2, 3))), DimensionMismatchError, "square matrix"),
        (lambda: fc.SymMatrix([[np.inf, 0.0], [0.0, 1.0]]), ValueError, "non-finite entries"),
        (lambda: fc.symplectic_form(3), DimensionMismatchError, "even n"),
    ],
    ids=[
        "2-d vector",
        "wrong length",
        "nan vector",
        "no variables",
        "one coefficient",
        "mismatched coefficients",
        "non-square",
        "non-finite matrix",
        "odd symplectic",
    ],
)
def test_algebra_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment) as exc:
        call()
    assert type(exc.value) is error
