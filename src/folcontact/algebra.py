"""Complex linear-algebra and polynomial kernel.

Provides the value types the rest of the library is built on:

* sparse polynomials in n complex variables and polynomial one-forms
  ``sum_j f_j(z) dz_j`` with exact integer exponents,
* complex symmetric / hermitian matrices with canonical storage,
* the Takagi factorization ``A = U diag(sigma) U^T`` of a complex symmetric
  matrix, computed from one hermitian eigendecomposition of ``conj(A) A``
  plus a per-block phase correction,
* ``gram_inverse``, the hermitian positive matrix ``(conj(A) A)^{-1}`` whose
  eigenvalues are ``1/sigma_j^2``.

A polynomial, a one-form and a one-form's Jacobian are views of one
compiled monomial table (``_MonomialTable``): the distinct exponents E
(m x n), in lexicographic order, and coefficients C (m x q), so that the
value at z is z^E C, with q = 1 for a polynomial, q = n for a one-form's
coefficient vector and q = n^2 for its Jacobian. One canonicalising
function (``_canonical``) builds the table of every polynomial and
one-form: it sorts the rows, sums duplicate rows in input order and drops
all-zero rows, so equal objects have equal tables. One derivative rule,
d(c z^e)/dz_k = c e_k z^(e - e_k), maps (E, C) to the table of the
partials; it gives ``differential`` and the one-form's Jacobian table.

Every evaluation is a method of the table. ``_build`` builds the
monomials of at most ROW_BLOCK points, from a table of the powers z_k^e
that its monomials use, one row per distinct (k, e), one factor at a
time: each monomial's first variable's power is gathered, then its
second's is gathered and multiplied in, and so on, so a linear table
takes one gather whatever n is. It returns the values and the
monomials. ``_dot`` evaluates one point (n,) or a stack (..., n),
ROW_BLOCK points per build, so no intermediate exceeds ROW_BLOCK x m or
the power table, which has one row more than the table has distinct
(k, e), whatever the largest exponent; the (S, m, n) tensor of every
variable's power in every monomial is never built.

The same build gives a table's rounding scale ||(|z^E| |C|)|| per point
(``_scale``), the size its values would have if no terms cancelled: the
abs of the monomials already built, times |C|, so the scale costs no
second pass over the points. ``_dot(z, scaled=True)``, which
``PolyOneForm.evaluate_scaled`` is, returns the values and their scale
together. The leaf code builds a first integral g and its form f = dg
from one power plan, g's exponent rows stacked on f's
(``_side_by_side``): one ``_monomials`` call at a point gives the
monomials of both tables, and each block is contracted with its own
table's coefficients and scaled by its own ``_scale``, so g, f and f's
scale are those of ``Polynomial.evaluate`` and
``PolyOneForm.evaluate_scaled``, bit for bit up to the sign of a zero.

What is compiled from exponents alone is compiled once per distinct
exponent table (``_exponents``): its power plan, its sorted distinct rows,
which ``_canonical`` and ``_derivative`` use, and the exponents of the
products of two rows, which give ``quadratic_first_integral`` its
monomials. One bounded module-level memo keyed on the table's dtype, shape
and bytes keeps at most _COMPILED_TABLES of them, each part built at its
first use, so every linear form of size n shares the plan of E = I_n and
its integral the plan of the pairs z_i z_j.

Everything here is a pure function of immutable values; arrays handed out,
the compiled ones shared between tables included, are set read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ConvergenceError, SingularMatrixError

# Relative gap below which two Takagi values count as repeated.
GAP_TOL = 1e-9
# Condition-number cap for matrix inversion.
COND_CAP = 1e12
# Points of a batch whose monomials are built at once: the intermediates of
# a form evaluation stay within ROW_BLOCK x (number of monomials).
ROW_BLOCK = 1024
# Distinct exponent tables whose compiled parts _exponents keeps.
_COMPILED_TABLES = 256


def as_cvec(values, n: int) -> np.ndarray:
    """Validate and convert to a complex point of C^n (n >= 2, finite)."""
    z = np.asarray(values, dtype=complex)
    if z.ndim != 1 or z.size < 2:
        raise DimensionMismatchError(f"expected a vector of dimension >= 2, got shape {z.shape}")
    if z.size != n:
        raise DimensionMismatchError(f"expected dimension {n}, got {z.size}")
    if not np.all(np.isfinite(z.view(float))):
        raise ValueError("vector has non-finite components")
    return z


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer array in lexicographic order, and the
    index of each row of a among them."""
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    index = np.empty(len(rows), dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    return _readonly(rows[first]), _readonly(index)


class _Exponents:
    """What is compiled from one exponent table, each part at its first use:
    the power plan (_power_plan), the distinct rows (_unique_rows) and the
    exponents of the products of two rows (pairs).

    One instance per distinct table, from _exponents; every array it hands
    out is read-only, as tables with equal exponents share it.
    """

    def __init__(self, exps: np.ndarray):
        self.exps = exps

    @cached_property
    def plan(self) -> tuple:
        return _power_plan(self.exps)

    @cached_property
    def unique(self) -> tuple[np.ndarray, np.ndarray]:
        return _unique_rows(self.exps)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, E[i] + E[j]) over the pairs of rows i <= j, in row-major
        order: the exponents of the products of two monomials of the table."""
        i, j = np.triu_indices(len(self.exps))
        return _readonly(i), _readonly(j), _readonly(self.exps[i] + self.exps[j])


@lru_cache(maxsize=_COMPILED_TABLES)
def _compiled(dtype: str, shape: tuple, data: bytes) -> _Exponents:
    return _Exponents(_readonly(np.frombuffer(data, dtype).reshape(shape)))


def _exponents(exps: np.ndarray) -> _Exponents:
    """The compiled structure of the exponent table exps, shared by every
    table with the same dtype, shape and bytes."""
    return _compiled(exps.dtype.str, exps.shape, exps.tobytes())


def _canonical(exps: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical form of a table: its distinct rows in lexicographic
    order, duplicate rows summed in input order, all-zero rows dropped."""
    rows, index = _exponents(exps).unique
    C = np.zeros((len(rows), coeffs.shape[1]), dtype=complex)
    np.add.at(C, index, coeffs)
    keep = np.any(C != 0, axis=1)
    return rows[keep], C[keep]


def _power_plan(exps: np.ndarray) -> tuple:
    """How _MonomialTable._build builds the monomials of a table exps (m x n).

    (variables, exponents, factor columns): row i of the power table is
    z_k^e for the i-th (k, e) of variables and exponents, which list
    z_1^0 = 1 first and then each distinct (k, e), e > 0, that the table
    uses, in lexicographic order. Factor column t holds, for each monomial,
    the row of the power of its t-th variable (in increasing k), or row 0
    when the monomial has fewer than t + 1 variables. There is at least one
    column, so a constant monomial gathers a 1. The exponents are complex,
    as complex ** complex skips a cast.
    """
    m = exps.shape[0]
    rows, ks = np.nonzero(exps)
    # (0, 0) sorts before every used (k, e): it is row 0
    powers, index = _unique_rows(np.stack([np.append(0, ks), np.append(0, exps[rows, ks])], axis=1))
    counts = np.count_nonzero(exps, axis=1)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    columns = np.zeros((max(1, int(counts.max(initial=0))), m), dtype=np.int64)
    columns[slot, rows] = index[1:]
    return _readonly(powers[:, 0]), _readonly(powers[:, 1].astype(complex)), tuple(_readonly(columns))


def _monomials(flat: np.ndarray, plan: tuple) -> np.ndarray:
    """The monomials z^E (m x S) of a plan's table at the points of flat (S x n).

    Built one factor at a time (see _power_plan): the powers z_k^e that the
    table uses are taken once, one row of the power table per (k, e) of the
    plan and one column per point, and each factor column gathers one
    variable's power for every monomial and multiplies it in.
    """
    variables, exponents, columns = plan
    table = np.power(flat.T[variables], exponents[:, None])
    monomials = table[columns[0]]
    for column in columns[1:]:
        monomials *= table[column]
    return monomials


def _check_points(z, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != n:
        raise DimensionMismatchError(f"point dimension {z.shape[-1]} != {n}")
    return z


class _MonomialTable:
    """The compiled monomial table of a polynomial, a one-form or a Jacobian.

    The exponents E (m x n) and coefficients C (m x q) described in the
    module docstring, with the power plan that evaluates them, looked up at
    the first evaluation: tables with equal exponents share one read-only
    plan, compiled once while the bounded memo of _exponents keeps it. The
    rows are kept as given: every polynomial and one-form passes them
    through _canonical first; the one table that is only evaluated does
    not: a one-form's Jacobian, whose rows the derivative rule already
    gives distinct and sorted.
    """

    def __init__(self, n: int, exps: np.ndarray, coeffs: np.ndarray):
        self.n = n
        self._exps = _readonly(exps)
        self._coeffs = _readonly(coeffs)

    @cached_property
    def _plan(self) -> tuple:
        """The power plan of the table, looked up at its first evaluation:
        tables that are only read (a form's coefficient polynomials, the
        differential integrate_exact_form checks) never build one. Tables
        with equal exponents share one read-only plan (_exponents)."""
        return _exponents(self._exps).plan

    @cached_property
    def _abs_coeffs(self) -> np.ndarray:
        return _readonly(np.abs(self._coeffs))

    def _build(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values flat^E C (S x q), monomials flat^E (m x S)) at S <= ROW_BLOCK
        points flat (S x n): one build, whose monomials _scale can reuse."""
        monomials = _monomials(flat, self._plan)
        return monomials.T @ self._coeffs, monomials

    def _scale(self, monomials: np.ndarray) -> np.ndarray:
        """||(|z^E| |C|)|| per point, the rounding scale of the table's
        columns, from the monomials (m x S) of a _build."""
        sizes = np.abs(monomials).T @ self._abs_coeffs
        return np.sqrt(np.add.reduce(sizes * sizes, axis=-1))

    def _dot(self, z, scaled: bool = False):
        """z^E C at one point (n,), giving (q,), or a stack (..., n), giving (..., q).

        A stack is built ROW_BLOCK points at a time; one of at most
        ROW_BLOCK points is one _build, with no copy. scaled=True returns
        (values, scale), the scale of every column per point ((...) or a
        scalar) from the same monomials.
        """
        z = _check_points(z, self.n)
        flat = z.reshape(-1, self.n)
        if len(flat) <= ROW_BLOCK:
            values, monomials = self._build(flat)
            scale = self._scale(monomials) if scaled else None
        else:
            values = np.empty((len(flat), self._coeffs.shape[1]), dtype=complex)
            scale = np.empty(len(flat))
            for s in range(0, len(flat), ROW_BLOCK):
                values[s : s + ROW_BLOCK], monomials = self._build(flat[s : s + ROW_BLOCK])
                if scaled:
                    scale[s : s + ROW_BLOCK] = self._scale(monomials)
        values = values.reshape(z.shape[:-1] + values.shape[-1:])
        return (values, scale.reshape(z.shape[:-1])[()]) if scaled else values

    @classmethod
    def _from_table(cls, n: int, exps: np.ndarray, coeffs: np.ndarray):
        """An instance of cls whose table is the canonical form of (exps, coeffs)."""
        table = cls.__new__(cls)
        _MonomialTable.__init__(table, n, *_canonical(exps, coeffs))
        return table

    @property
    def is_zero(self) -> bool:
        return self._exps.shape[0] == 0

    def homogeneous_degree(self) -> int | None:
        """Common total degree of every monomial of the table, or None if
        mixed / zero. For a one-form: the common degree of its nonzero
        coefficients."""
        degs = self._exps.sum(axis=1)
        return int(degs[0]) if degs.size and np.all(degs == degs[0]) else None

    def _derivative(self) -> tuple[np.ndarray, np.ndarray]:
        """The table of the partials: (D, C') with C'[:, :, k] = d/dz_k of C.

        d(c z^e)/dz_k = c e_k z^(e - e_k): one derivative monomial per
        (term, variable) pair with e_k > 0. Distinct pairs with one k never
        share a monomial, so nothing is summed; D is in lexicographic order.
        """
        E, C = self._exps, self._coeffs
        i, k = np.nonzero(E)
        D, slot = _exponents(E[i] - np.eye(self.n, dtype=np.int64)[k]).unique
        dC = np.zeros((len(D), C.shape[1], self.n), dtype=complex)
        dC[slot, :, k] = C[i] * E[i, k][:, None]
        return D, dC

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and np.array_equal(self._exps, other._exps)
            and np.array_equal(self._coeffs, other._coeffs)
        )


def _exponent(e, n: int) -> tuple[int, ...]:
    """A term's exponent multi-index as n ints, checked (ValueError).

    Each entry is an integer (not a bool), non-negative and at most
    max(int64) // n - 2, so that the table's int64 arithmetic cannot
    overflow: no total degree, even of a first integral one degree higher,
    exceeds it.
    """
    e = tuple(e)
    if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in e):
        raise ValueError(f"exponents must be integers, got {e!r}")
    e = tuple(int(k) for k in e)
    if len(e) != n:
        raise DimensionMismatchError(f"exponent multi-index {e} has wrong length")
    if any(k < 0 for k in e):
        raise ValueError(f"negative exponent in {e}")
    bound = np.iinfo(np.int64).max // n - 2
    if any(k > bound for k in e):
        raise ValueError(f"exponent in {e} exceeds {bound}, the largest an int64 table holds at n = {n}")
    return e


class Polynomial(_MonomialTable):
    """Sparse polynomial in n complex variables.

    Terms are (complex coefficient, exponent multi-index of integers, not
    bools); duplicates are merged and zero coefficients pruned at
    construction.
    """

    def __init__(self, n: int, terms: Iterable[tuple[complex, Sequence[int]]]):
        if n < 1:
            raise DimensionMismatchError("polynomial needs n >= 1 variables")
        n = int(n)
        coeffs, exps = [], []
        for coeff, e in terms:
            exps.append(_exponent(e, n))
            coeffs.append(complex(coeff))
        exps = np.array(exps, dtype=np.int64).reshape(-1, n)
        super().__init__(n, *_canonical(exps, np.array(coeffs, dtype=complex)[:, None]))

    @property
    def terms(self) -> list[tuple[complex, tuple[int, ...]]]:
        return [(complex(c), tuple(int(k) for k in e)) for (c,), e in zip(self._coeffs, self._exps)]

    @property
    def total_degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        return int(self._exps.sum(axis=1).max(initial=0))

    def evaluate(self, z: np.ndarray) -> complex | np.ndarray:
        """Evaluate at one point (shape (n,)) or a batch (shape (..., n))."""
        out = self._dot(z)[..., 0]
        return complex(out) if out.ndim == 0 else out

    def differential(self) -> "PolyOneForm":
        """The exact one-form d(self) with coefficients dself/dz_j."""
        D, dC = self._derivative()
        return PolyOneForm._from_table(self.n, D, dC[:, 0])

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, terms={self.terms!r})"


class PolyOneForm(_MonomialTable):
    """Polynomial one-form sum_j f_j(z) dz_j given by n coefficient polynomials.

    Its table is built at construction (see the module docstring): f(z) =
    z^E C with column j of C the coefficients of f_j. The power plan, the
    Jacobian's table, from the derivative rule, and the coefficient
    polynomials are built at first use.
    """

    def __init__(self, coeffs: Sequence[Polynomial]):
        coeffs = list(coeffs)
        if len(coeffs) < 2:
            raise DimensionMismatchError("one-form needs n >= 2 coefficients")
        n = len(coeffs)
        for f in coeffs:
            if f.n != n:
                raise DimensionMismatchError("coefficient polynomial has wrong variable count")
        exps = np.concatenate([f._exps for f in coeffs])
        # the terms of f_j go to column j
        C = np.concatenate([f._coeffs * (np.arange(n) == j) for j, f in enumerate(coeffs)])
        super().__init__(n, *_canonical(exps, C))

    @cached_property
    def coeffs(self) -> tuple[Polynomial, ...]:
        """The coefficient polynomials f_1, ..., f_n: the columns of the table."""
        E, C = self._exps, self._coeffs
        return tuple(Polynomial._from_table(self.n, E, C[:, [j]]) for j in range(self.n))

    @cached_property
    def _jacobian(self) -> _MonomialTable:
        """The Jacobian's table, from the derivative rule: n^2 columns,
        column j n + k the coefficients of df_j/dz_k."""
        D, dC = self._derivative()
        return _MonomialTable(self.n, D, dC.reshape(len(D), self.n * self.n))

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """(f_1(z), ..., f_n(z)); batched input (..., n) gives (..., n)."""
        return self._dot(z)

    def evaluate_scaled(self, z: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """(f(z), ||(|z^E| |C|)||) at one point or per point of a batch (..., n).

        The scale is the size f(z) would have if no terms cancelled: f(z) is
        exact to a few rounding units of it. It is 0 for the zero form and
        wherever every term vanishes. Both come from one monomial build. A
        point past the doubles gives a non-finite scale, with no warning:
        callers test the scale.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return self._dot(z, scaled=True)

    def __repr__(self) -> str:
        return f"PolyOneForm(n={self.n}, degrees={tuple(f.total_degree for f in self.coeffs)})"


def _side_by_side(g: Polynomial, form: PolyOneForm) -> tuple:
    """The power plan of a polynomial g's exponent rows stacked on a one-form f's.

    One _monomials build of it at points gives g's monomials, its first
    len(g._exps) rows, and f's, the rest, each with the bits of the table's
    own build up to the sign of a zero part: where the plan has more
    factor columns than a table's own, its monomials are multiplied by
    z_1^0 = 1 once more. Contracting each block with its table's
    coefficients, as _build does, gives g and f, and f's block gives its
    _scale. The rows are stacked, not merged, so a monomial that both
    share is built twice.
    """
    if g.n != form.n:
        raise DimensionMismatchError(f"polynomial in {g.n} variables, one-form in {form.n}")
    return _exponents(np.concatenate([g._exps, form._exps])).plan


def jacobian_form(form: PolyOneForm, z) -> np.ndarray:
    """Matrix of holomorphic partials, entry (j,k) = df_j/dz_k at z.

    z is one point (n,), giving (n, n), or a stack (S, n), giving (S, n, n).
    """
    n = form.n
    values = form._jacobian._dot(as_cvec(z, n) if np.ndim(z) == 1 else z)
    return values.reshape(values.shape[:-1] + (n, n))


# -----------------------------------------------------------------------------
# Matrices
# -----------------------------------------------------------------------------


def _check_square(entries) -> np.ndarray:
    A = np.asarray(entries, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 2:
        raise DimensionMismatchError(f"expected a square matrix of size >= 2, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(float))):
        raise ValueError("matrix has non-finite entries")
    return A


class SymMatrix:
    """Complex symmetric matrix, stored exactly symmetric.

    Input asymmetric beyond 1e-12 max |a_ij| is rejected, at every scale;
    smaller asymmetry is canonicalized away by averaging, (a_ij + a_ji)/2,
    or a_ij/2 + a_ji/2 where the sum leaves the doubles (then both halves
    are exact), so entries up to the largest double are averaged and a
    subnormal one keeps its last bit.
    """

    def __init__(self, entries):
        A = _check_square(entries)
        H = 0.5 * A  # |H| and each h_ij - h_ji stay in the doubles
        with np.errstate(over="ignore", invalid="ignore"):  # a sum past the doubles is redone below
            asymmetric = np.abs(H - H.T).max() > 1e-12 * np.abs(H).max()
            S = 0.5 * (A + A.T)
        if asymmetric:
            raise ValueError("matrix is not symmetric")
        self.array = _readonly(np.where(np.isfinite(S), S, H + H.T))
        self.n = A.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


class HermMatrix:
    """Complex hermitian matrix, stored exactly hermitian.

    Input non-hermitian beyond 1e-10 max |a_ij| is rejected, at every
    scale; smaller deviation is canonicalized away by averaging.
    """

    def __init__(self, entries):
        A = _check_square(entries)
        if np.abs(A - A.conj().T).max() > 1e-10 * np.abs(A).max():
            raise ValueError("matrix is not hermitian")
        H = 0.5 * (A + A.conj().T)
        np.fill_diagonal(H, H.diagonal().real)
        self.array = _readonly(H)
        self.n = A.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, ascending."""
        return np.linalg.eigvalsh(self.array)

    def __repr__(self) -> str:
        return f"HermMatrix(n={self.n})"


@dataclass(frozen=True)
class TakagiFactors:
    """Unitary congruence diagonalization A = U diag(sigma) U^T.

    sigma is real, non-negative, sorted descending (these are the singular
    values of A). Column phases within a repeated-sigma block (relative gap
    below GAP_TOL) are an arbitrary choice of the algorithm; callers must not
    rely on them.
    """

    U: np.ndarray
    sigma: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.U @ np.diag(self.sigma) @ self.U.T


def _require_invertible(A: SymMatrix) -> None:
    svals = np.linalg.svd(A.array, compute_uv=False)
    smin, smax = svals[-1], svals[0]
    if smin == 0.0 or smin < smax / COND_CAP:  # smax / smin overflows for a subnormal smin
        raise SingularMatrixError(
            f"matrix is singular or too ill-conditioned (sigma_min = {smin:.3e}, sigma_max = {smax:.3e})"
        )


def gram_inverse(A: SymMatrix) -> HermMatrix:
    """Hermitian positive matrix (conj(A) A)^{-1}.

    By symmetry of A this equals A^{-1} conj(A^{-1}); its eigenvalues are
    1/sigma_j^2 for the Takagi values sigma_j of A, hence all positive.
    """
    _require_invertible(A)
    M = A.array.conj() @ A.array
    B = np.linalg.inv(0.5 * (M + M.conj().T))
    return HermMatrix(0.5 * (B + B.conj().T))


def _fix_column_signs(U: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-modulus entry has argument in [0, pi).

    Sign flips are the only phase freedom compatible with the Takagi relation
    A conj(u) = sigma u. The first largest-modulus entry of every column is
    gathered at once and the columns flipped by one np.where. Arguments
    within 1e-12 of the boundary are treated as 0 so rounding cannot make
    the choice flap.
    """
    a = np.angle(U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])])
    return np.where((-1e-12 <= a) & (a < np.pi - 1e-12), U, -U)


def takagi(A: SymMatrix) -> TakagiFactors:
    """Takagi factorization of a complex symmetric matrix.

    Route: one real symmetric eigendecomposition of the 2n x 2n realification
    of the antilinear map z -> A conj(z),

        T = [[Re A, Im A], [Im A, -Re A]],

    whose spectrum is {+-sigma_j} with the +sigma eigenvectors (x; y) giving
    Takagi columns u = x + i y satisfying A conj(u) = sigma u directly. Real
    mixing inside a degenerate sigma eigenspace stays a valid Takagi basis,
    so accuracy does not degrade for close sigma values (unlike the
    conj(A) A route, where eigenvector mixing between near-equal sigma
    destroys the per-column phase relation). Columns for sigma at most
    GAP_TOL sigma_max count as sigma = 0 and are conjugated null vectors
    of A from an SVD. The factors are verified: a reconstruction error
    above 1e-10 max |a_ij|, at every scale, or a unitarity error above
    1e-10 raises ConvergenceError.
    """
    M0 = A.array
    n = A.n
    T = np.block([[M0.real, M0.imag], [M0.imag, -M0.real]])
    d, V = np.linalg.eigh(T)  # exactly symmetric, as A is
    idx = np.arange(2 * n - 1, n - 1, -1)  # top half, descending
    sigma = np.clip(d[idx], 0.0, None)
    U = V[:n, idx] + 1j * V[n:, idx]

    smax = sigma[0] if sigma[0] > 0 else 1.0
    zero = sigma <= GAP_TOL * smax
    if np.any(zero):
        # zero block: top-half eigenvectors of T may be complex-dependent
        # there (the kernel is closed under multiplication by i); take
        # conjugated right null vectors of A instead
        _, svals, Vh = np.linalg.svd(M0)
        m0 = int(np.sum(zero))
        U[:, zero] = Vh[n - m0 :, :].T  # u = conj(v) for right null vectors v
        sigma = sigma.copy()
        sigma[zero] = svals[n - m0 :]

    U = _fix_column_signs(U)
    recon_err = np.abs(U @ np.diag(sigma) @ U.T - M0).max()
    unit_err = np.abs(U.conj().T @ U - np.eye(n)).max()
    if recon_err > 1e-10 * np.abs(M0).max() or unit_err > 1e-10:
        raise ConvergenceError(
            f"takagi factorization failed (reconstruction error {recon_err:.3e}, "
            f"unitarity error {unit_err:.3e}); matrix is likely ill-conditioned"
        )
    return TakagiFactors(U=_readonly(U), sigma=_readonly(sigma))


# -----------------------------------------------------------------------------
# Form builders
# -----------------------------------------------------------------------------


def linear_form(A: SymMatrix) -> PolyOneForm:
    """One-form with f_j(z) = sum_i a_ij z_i, the differential of z^T A z / 2."""
    return PolyOneForm._from_table(A.n, np.eye(A.n, dtype=np.int64), A.array)


def quadratic_first_integral(A: SymMatrix) -> Polynomial:
    """f(z) = z^T A z / 2, the first integral of linear_form(A)."""
    i, j, exps = _exponents(np.eye(A.n, dtype=np.int64)).pairs  # z_i z_j, i <= j
    coeffs = A.array[i, j] * np.where(i == j, 0.5, 1.0)
    return Polynomial._from_table(A.n, exps, coeffs[:, None])


def symplectic_form(n: int) -> PolyOneForm:
    """The pairwise-rotation form sum_j (z_{2j} dz_{2j-1} - z_{2j-1} dz_{2j}).

    Defined for even n; nowhere tangent to spheres away from the origin.
    """
    if n < 2 or n % 2 != 0:
        raise DimensionMismatchError("symplectic-type form needs even n >= 2")
    j = np.arange(n)
    C = np.zeros((n, n), dtype=complex)
    C[j ^ 1, j] = np.where(j % 2 == 0, 1.0, -1.0)  # f_j = +-z_partner, partner = j xor 1
    return PolyOneForm._from_table(n, np.eye(n, dtype=np.int64), C)


def integrate_exact_form(form: PolyOneForm) -> Polynomial:
    """First integral f with df = form and f(0) = 0, via radial integration.

    Each term c z^alpha of f_j contributes c z^{alpha+e_j} / (|alpha|+1).
    Raises ValueError if the form is not exact: the table of d of the
    result minus the form's must vanish to 1e-12 times the largest
    coefficient (at least 1).
    """
    n, E, C = form.n, form._exps, form._coeffs
    j, i = np.nonzero(C.T)  # f_1's terms first, as in form.coeffs
    # c / (|alpha| + 1) part by part, as a complex divided by a real
    c = (C[i, j, None].view(float) / (E[i].sum(axis=1) + 1)[:, None]).view(complex)
    f = Polynomial._from_table(n, E[i] + np.eye(n, dtype=np.int64)[j], c)
    df = f.differential()
    _, diff = _canonical(np.concatenate([df._exps, E]), np.concatenate([df._coeffs, -C]))
    if np.abs(diff).max(initial=0.0) > 1e-12 * max(np.abs(C).max(initial=0.0), 1.0):
        raise ValueError("one-form is not exact; no polynomial first integral")
    return f
