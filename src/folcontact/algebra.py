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

A polynomial and a one-form are two views of one compiled monomial table:
the distinct exponents E (m x n), in lexicographic order, and coefficients
C (m x q), so that the value at z is z^E C, with q = 1 for a polynomial and
q = n for a one-form's coefficient vector. One canonicalising constructor
builds every table: it sorts the rows, sums duplicate rows in input order
and drops all-zero rows, so equal objects have equal tables. One
derivative rule, d(c z^e)/dz_k = c e_k z^(e - e_k), maps (E, C) to the
table of the partials; it gives ``partial``, ``differential`` and the
one-form's Jacobian table.

Both views evaluate through ``_monomial_dot`` at one point (n,) or a stack
(S, n). The monomials are built from a table of the powers z_k^0..z_k^d of
every variable, one factor at a time: each monomial's first variable's
power is gathered, then its second's is gathered and multiplied in, and so
on, so a linear table takes one gather whatever n is. A stack is taken
ROW_BLOCK points at a time, so no intermediate exceeds ROW_BLOCK x m or
the power table; the (S, m, n) tensor of every variable's power in every
monomial is never built.

Everything here is a pure function of immutable values; arrays handed out
are set read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def as_cvec(values, n: int | None = None) -> np.ndarray:
    """Validate and convert to a complex point of C^n (n >= 2, finite)."""
    z = np.asarray(values, dtype=complex)
    if z.ndim != 1 or z.size < 2:
        raise DimensionMismatchError(f"expected a vector of dimension >= 2, got shape {z.shape}")
    if n is not None and z.size != n:
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
    return rows[first], index


def _power_plan(exps: np.ndarray) -> tuple:
    """How _monomial_dot builds the monomials of a table exps (m x n).

    (0..d, factor columns): d is the largest exponent, and factor column t
    holds, for each monomial, the index k (d + 1) + e of the power z_k^e of
    its t-th variable (in increasing k) in the flattened power table, or
    index 0 (z_1^0 = 1) when the monomial has fewer than t + 1 variables.
    There is at least one column, so a constant monomial gathers a 1. The
    exponents 0..d are complex, as complex ** complex skips a cast.
    """
    m = exps.shape[0]
    d = int(exps.max(initial=0))
    rows, ks = np.nonzero(exps)
    counts = np.count_nonzero(exps, axis=1)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    columns = np.zeros((max(1, int(counts.max(initial=0))), m), dtype=np.int64)
    columns[slot, rows] = ks * (d + 1) + exps[rows, ks]
    return np.arange(d + 1, dtype=complex), tuple(columns)


def _monomial_dot(z: np.ndarray, plan: tuple, coeffs: np.ndarray) -> np.ndarray:
    """z^E @ coeffs for the monomial table E of a plan and coeffs (m x q) or (m,).

    A batch (..., n) gives (..., q), and one point (n,) gives (q,); 1-D
    coeffs drop the q axis. The monomials are built ROW_BLOCK points at a
    time, one factor at a time (see _power_plan): the powers z_k^0..z_k^d
    of every variable are taken once, one row of the power table per
    (k, e) and one column per point, and each factor column gathers one
    variable's power for every monomial and multiplies it in.
    """
    powers, columns = plan
    flat = z.reshape(-1, z.shape[-1])
    shape = z.shape[:-1] + coeffs.shape[1:]
    if len(flat) > ROW_BLOCK:
        blocks = [flat[s : s + ROW_BLOCK] for s in range(0, len(flat), ROW_BLOCK)]
        return np.concatenate([_monomial_dot(b, plan, coeffs) for b in blocks]).reshape(shape)
    table = np.power(flat.T[:, None, :], powers[:, None]).reshape(flat.shape[1] * len(powers), -1)
    monomials = table[columns[0]]
    for column in columns[1:]:
        monomials *= table[column]
    return (monomials.T @ coeffs).reshape(shape)


def _check_points(z, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != n:
        raise DimensionMismatchError(f"point dimension {z.shape[-1]} != {n}")
    return z


class _MonomialTable:
    """The compiled monomial table shared by Polynomial and PolyOneForm.

    The canonical exponents E (m x n) and coefficients C (m x q) described
    in the module docstring, with the power plan that evaluates them.
    """

    def __init__(self, n: int, exps: np.ndarray, coeffs: np.ndarray):
        rows, index = _unique_rows(exps)
        C = np.zeros((len(rows), coeffs.shape[1]), dtype=complex)
        np.add.at(C, index, coeffs)  # duplicate rows summed in input order
        keep = np.any(C != 0, axis=1)
        self.n = n
        self._exps = _readonly(rows[keep])
        self._coeffs = _readonly(C[keep])
        self._plan = _power_plan(self._exps)

    @classmethod
    def _from_table(cls, n: int, exps: np.ndarray, coeffs: np.ndarray):
        """An instance of cls whose table is the canonical form of (exps, coeffs)."""
        table = cls.__new__(cls)
        _MonomialTable.__init__(table, n, exps, coeffs)
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
        D, slot = _unique_rows(E[i] - np.eye(self.n, dtype=np.int64)[k])
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
            e = tuple(e)
            if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in e):
                raise ValueError(f"exponents must be integers, got {e!r}")
            e = tuple(int(k) for k in e)
            if len(e) != n:
                raise DimensionMismatchError(f"exponent multi-index {e} has wrong length")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            coeffs.append(complex(coeff))
            exps.append(e)
        exps = np.array(exps, dtype=np.int64).reshape(-1, n)
        super().__init__(n, exps, np.array(coeffs, dtype=complex)[:, None])

    @property
    def terms(self) -> list[tuple[complex, tuple[int, ...]]]:
        return [(complex(c), tuple(int(k) for k in e)) for (c,), e in zip(self._coeffs, self._exps)]

    @property
    def total_degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        return int(self._exps.sum(axis=1).max(initial=0))

    def evaluate(self, z: np.ndarray) -> complex | np.ndarray:
        """Evaluate at one point (shape (n,)) or a batch (shape (..., n))."""
        z = _check_points(z, self.n)
        out = _monomial_dot(z, self._plan, self._coeffs[:, 0])
        return complex(out) if z.ndim == 1 else out

    def partial(self, j: int) -> "Polynomial":
        """Partial derivative with respect to z_j."""
        D, dC = self._derivative()
        return Polynomial._from_table(self.n, D, dC[:, :, j])

    def differential(self) -> "PolyOneForm":
        """The exact one-form d(self) with coefficients dself/dz_j."""
        D, dC = self._derivative()
        return PolyOneForm._from_table(self.n, D, dC[:, 0])

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, terms={self.terms!r})"


class PolyOneForm(_MonomialTable):
    """Polynomial one-form sum_j f_j(z) dz_j given by n coefficient polynomials.

    Compiled at construction (see the module docstring): f(z) = z^E C with
    column j of C the coefficients of f_j. The Jacobian's table, from the
    derivative rule, and the coefficient polynomials are built at first use.
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
        super().__init__(n, exps, C)

    @cached_property
    def coeffs(self) -> tuple[Polynomial, ...]:
        """The coefficient polynomials f_1, ..., f_n: the columns of the table."""
        E, C = self._exps, self._coeffs
        return tuple(Polynomial._from_table(self.n, E, C[:, [j]]) for j in range(self.n))

    @cached_property
    def _jacobian_table(self) -> tuple[tuple, np.ndarray]:
        """(plan, coefficients (p x n^2)) of the Jacobian, entry (j, k) = df_j/dz_k."""
        D, dC = self._derivative()
        return _power_plan(D), _readonly(dC.reshape(len(D), self.n * self.n))

    @property
    def degree_info(self) -> tuple[int, ...]:
        """Total degree of each coefficient polynomial."""
        return tuple(f.total_degree for f in self.coeffs)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """(f_1(z), ..., f_n(z)); batched input (..., n) gives (..., n)."""
        z = _check_points(z, self.n)
        return _monomial_dot(z, self._plan, self._coeffs)

    def rounding_scale(self, z: np.ndarray) -> float | np.ndarray:
        """||(|z|^E |C|)||, per point of a batch (..., n).

        The size f(z) would have if no terms cancelled: f(z) is exact to a
        few rounding units of it. It is 0 for the zero form and wherever
        every term vanishes.
        """
        a = np.abs(_check_points(z, self.n))
        powers, columns = self._plan  # real powers for the real |z|
        return np.linalg.norm(_monomial_dot(a, (powers.real, columns), np.abs(self._coeffs)), axis=-1)

    def __repr__(self) -> str:
        return f"PolyOneForm(n={self.n}, degrees={self.degree_info})"


def eval_form(form: PolyOneForm, z) -> np.ndarray:
    """Coefficient vector (f_1(z),...,f_n(z)); conjugate it for the gradient field."""
    return form.evaluate(as_cvec(z, form.n))


def jacobian_form(form: PolyOneForm, z) -> np.ndarray:
    """Matrix of holomorphic partials, entry (j,k) = df_j/dz_k at z.

    z is one point (n,), giving (n, n), or a stack (S, n), giving (S, n, n).
    """
    n = form.n
    z = as_cvec(z, n) if np.ndim(z) == 1 else _check_points(z, n)
    plan, coeffs = form._jacobian_table
    return _monomial_dot(z, plan, coeffs).reshape(z.shape[:-1] + (n, n))


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

    Input asymmetric beyond 1e-12 (relative) is rejected; smaller asymmetry
    is canonicalized away by averaging.
    """

    def __init__(self, entries):
        A = _check_square(entries)
        scale = max(np.abs(A).max(), 1.0)
        if np.abs(A - A.T).max() > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        self.array = _readonly(0.5 * (A + A.T))
        self.n = A.shape[0]

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


class HermMatrix:
    """Complex hermitian matrix, stored exactly hermitian."""

    def __init__(self, entries):
        A = _check_square(entries)
        scale = max(np.abs(A).max(), 1.0)
        if np.abs(A - A.conj().T).max() > 1e-10 * scale:
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
    if smin == 0.0 or smax / smin > COND_CAP:
        detmod = float(np.prod(svals))
        raise SingularMatrixError(
            f"matrix is singular or too ill-conditioned (|det| ~ {detmod:.3e}, "
            f"sigma_min = {smin:.3e}, sigma_max = {smax:.3e})"
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
    A conj(u) = sigma u. Arguments within 1e-12 of the boundary are treated
    as 0 so rounding cannot make the choice flap.
    """
    U = U.copy()
    tol = 1e-12
    for j in range(U.shape[1]):
        a = np.angle(U[int(np.argmax(np.abs(U[:, j]))), j])
        if not (-tol <= a < np.pi - tol):
            U[:, j] = -U[:, j]
    return U


def takagi(A: SymMatrix, gap_tol: float = GAP_TOL) -> TakagiFactors:
    """Takagi factorization of a complex symmetric matrix.

    Route: one real symmetric eigendecomposition of the 2n x 2n realification
    of the antilinear map z -> A conj(z),

        T = [[Re A, Im A], [Im A, -Re A]],

    whose spectrum is {+-sigma_j} with the +sigma eigenvectors (x; y) giving
    Takagi columns u = x + i y satisfying A conj(u) = sigma u directly. Real
    mixing inside a degenerate sigma eigenspace stays a valid Takagi basis,
    so accuracy does not degrade for close sigma values (unlike the
    conj(A) A route, where eigenvector mixing between near-equal sigma
    destroys the per-column phase relation). Columns for sigma = 0 are
    conjugated null vectors of A from an SVD.
    """
    M0 = A.array
    n = A.n
    T = np.block([[M0.real, M0.imag], [M0.imag, -M0.real]])
    d, V = np.linalg.eigh(0.5 * (T + T.T))
    idx = np.arange(2 * n - 1, n - 1, -1)  # top half, descending
    sigma = np.clip(d[idx], 0.0, None)
    U = V[:n, idx] + 1j * V[n:, idx]

    smax = sigma[0] if sigma[0] > 0 else 1.0
    zero = sigma <= gap_tol * smax
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
    scale = max(np.abs(M0).max(), 1.0)
    recon_err = np.abs(U @ np.diag(sigma) @ U.T - M0).max()
    unit_err = np.abs(U.conj().T @ U - np.eye(n)).max()
    if recon_err > 1e-10 * scale or unit_err > 1e-10:
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
    i, j = np.triu_indices(A.n)
    eye = np.eye(A.n, dtype=np.int64)
    coeffs = A.array[i, j] * np.where(i == j, 0.5, 1.0)
    return Polynomial._from_table(A.n, eye[i] + eye[j], coeffs[:, None])


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


def integrate_exact_form(form: PolyOneForm, tol: float = 1e-12) -> Polynomial:
    """First integral f with df = form and f(0) = 0, via radial integration.

    Each term c z^alpha of f_j contributes c z^{alpha+e_j} / (|alpha|+1).
    Raises ValueError if the form is not exact: the table of d of the
    result minus the form's must vanish to tol times the largest
    coefficient (at least 1).
    """
    n, E, C = form.n, form._exps, form._coeffs
    j, i = np.nonzero(C.T)  # f_1's terms first, as in form.coeffs
    # c / (|alpha| + 1) part by part, as a complex divided by a real
    c = (C[i, j, None].view(float) / (E[i].sum(axis=1) + 1)[:, None]).view(complex)
    f = Polynomial._from_table(n, E[i] + np.eye(n, dtype=np.int64)[j], c)
    df = f.differential()
    diff = _MonomialTable(n, np.concatenate([df._exps, E]), np.concatenate([df._coeffs, -C]))
    if np.abs(diff._coeffs).max(initial=0.0) > tol * max(np.abs(C).max(initial=0.0), 1.0):
        raise ValueError("one-form is not exact; no polynomial first integral")
    return f
