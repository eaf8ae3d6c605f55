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

A one-form is compiled once, at construction, into a monomial table shared
by its n coefficients: the distinct exponents E (m x n) and the coefficient
matrix C (n x m), so that f(z) = C z^E, and a derivative table of the same
kind for the Jacobian. ``PolyOneForm.evaluate`` and ``jacobian_form`` take
one point (n,) or a stack (S, n) in a few numpy operations. The monomials
are built from a table of the powers z_k^0..z_k^d of every variable, one
factor at a time: each monomial's first variable's power is gathered, then
its second's is gathered and multiplied in, and so on, so a linear form
takes one gather whatever n is. A stack is taken ROW_BLOCK points at a
time, so no intermediate exceeds ROW_BLOCK x m or the power table; the
(S, m, n) tensor of every variable's power in every monomial is never
built.

Everything here is a pure function of immutable values; arrays handed out
are set read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class Polynomial:
    """Sparse polynomial in n complex variables.

    Terms are (complex coefficient, exponent multi-index); duplicates are
    merged and zero coefficients pruned at construction.
    """

    def __init__(self, n: int, terms: Iterable[tuple[complex, Sequence[int]]]):
        if n < 1:
            raise DimensionMismatchError("polynomial needs n >= 1 variables")
        self.n = int(n)
        merged: dict[tuple[int, ...], complex] = {}
        for coeff, exps in terms:
            e = tuple(int(k) for k in exps)
            if len(e) != self.n:
                raise DimensionMismatchError(f"exponent multi-index {e} has wrong length")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            merged[e] = merged.get(e, 0.0 + 0.0j) + complex(coeff)
        items = sorted((e, c) for e, c in merged.items() if c != 0)
        self._exps = _readonly(np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), self.n))
        self._coeffs = _readonly(np.array([c for _, c in items], dtype=complex))

    @property
    def terms(self) -> list[tuple[complex, tuple[int, ...]]]:
        return [(complex(c), tuple(int(k) for k in e)) for c, e in zip(self._coeffs, self._exps)]

    @property
    def is_zero(self) -> bool:
        return self._coeffs.size == 0

    @property
    def total_degree(self) -> int:
        """Max total degree over terms; 0 for the zero polynomial."""
        if self.is_zero:
            return 0
        return int(self._exps.sum(axis=1).max())

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if mixed / zero."""
        if self.is_zero:
            return None
        degs = self._exps.sum(axis=1)
        return int(degs[0]) if np.all(degs == degs[0]) else None

    def evaluate(self, z: np.ndarray) -> complex | np.ndarray:
        """Evaluate at one point (shape (n,)) or a batch (shape (..., n))."""
        z = np.asarray(z, dtype=complex)
        if z.shape[-1] != self.n:
            raise DimensionMismatchError(f"point dimension {z.shape[-1]} != {self.n}")
        if self.is_zero:
            return np.zeros(z.shape[:-1], dtype=complex) if z.ndim > 1 else 0j
        monomials = np.prod(z[..., None, :] ** self._exps, axis=-1)
        out = monomials @ self._coeffs
        return complex(out) if z.ndim == 1 else out

    def partial(self, j: int) -> "Polynomial":
        """Partial derivative with respect to z_j."""
        terms = []
        for c, e in zip(self._coeffs, self._exps):
            if e[j] > 0:
                ne = e.copy()
                ne[j] -= 1
                terms.append((c * e[j], tuple(ne)))
        return Polynomial(self.n, terms)

    def differential(self) -> "PolyOneForm":
        """The exact one-form d(self) with coefficients dself/dz_j."""
        return PolyOneForm([self.partial(j) for j in range(self.n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._exps.shape == other._exps.shape
            and np.array_equal(self._exps, other._exps)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def __repr__(self) -> str:
        return f"Polynomial(n={self.n}, terms={self.terms!r})"


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
    There is at least one column, so a constant monomial gathers a 1.
    """
    m = exps.shape[0]
    d = int(exps.max(initial=0))
    rows, ks = np.nonzero(exps)
    counts = np.count_nonzero(exps, axis=1)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    columns = np.zeros((max(1, int(counts.max(initial=0))), m), dtype=np.int64)
    columns[slot, rows] = ks * (d + 1) + exps[rows, ks]
    return np.arange(d + 1), tuple(columns)


def _monomial_dot(z: np.ndarray, plan: tuple, coeffs: np.ndarray) -> np.ndarray:
    """z^E @ coeffs for the monomial table E of a plan and coeffs (m x q).

    One point (n,) gives (q,) and a batch (..., n) gives (..., q). The
    monomials are built ROW_BLOCK points at a time, one factor at a time
    (see _power_plan): the powers z_k^0..z_k^d of every variable are taken
    once, and each factor column gathers one variable's power for every
    monomial and multiplies it in.
    """
    powers, columns = plan
    flat = z.reshape(-1, z.shape[-1])
    out = np.empty((len(flat), coeffs.shape[1]), dtype=np.result_type(z, coeffs))
    for start in range(0, len(flat), ROW_BLOCK):
        block = flat[start : start + ROW_BLOCK]
        table = (block[:, :, None] ** powers).reshape(len(block), -1)
        monomials = table[:, columns[0]]
        for column in columns[1:]:
            monomials *= table[:, column]
        out[start : start + ROW_BLOCK] = monomials @ coeffs
    return out.reshape(z.shape[:-1] + (coeffs.shape[1],))


def _check_points(z, n: int) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != n:
        raise DimensionMismatchError(f"point dimension {z.shape[-1]} != {n}")
    return z


class PolyOneForm:
    """Polynomial one-form sum_j f_j(z) dz_j given by n coefficient polynomials.

    Compiled at construction (see the module docstring): f(z) = C z^E from
    the monomial table E (m x n) and coefficient matrix C (n x m), and the
    Jacobian from the derivative table D (p x n) and its coefficients
    (p x n x n).
    """

    def __init__(self, coeffs: Sequence[Polynomial]):
        coeffs = list(coeffs)
        if len(coeffs) < 2:
            raise DimensionMismatchError("one-form needs n >= 2 coefficients")
        n = len(coeffs)
        for f in coeffs:
            if f.n != n:
                raise DimensionMismatchError("coefficient polynomial has wrong variable count")
        self.n = n
        self.coeffs = tuple(coeffs)

        exps, term = _unique_rows(np.concatenate([f._exps for f in coeffs]))
        owner = np.repeat(np.arange(n), [f._coeffs.size for f in coeffs])
        C = np.zeros((n, len(exps)), dtype=complex)
        C[owner, term] = np.concatenate([f._coeffs for f in coeffs])
        self._plan = _power_plan(exps)
        self._coeffs_t = _readonly(C.T.copy())  # f(z) = z^E @ C^T
        self._abs_coeffs_t = _readonly(np.abs(self._coeffs_t))

        # d(c z^e)/dz_k = c e_k z^(e - e_k): one derivative monomial per
        # (term, variable) pair with e_k > 0, each carrying a column of C
        i, k = np.nonzero(exps)
        dexps, slot = _unique_rows(exps[i] - np.eye(n, dtype=np.int64)[k])
        D = np.zeros((len(dexps), n, n), dtype=complex)
        D[slot, :, k] = (C[:, i] * exps[i, k]).T
        self._dplan = _power_plan(dexps)
        self._dcoeffs = _readonly(D.reshape(len(dexps), n * n))

    @property
    def degree_info(self) -> tuple[int, ...]:
        """Total degree of each coefficient polynomial."""
        return tuple(f.total_degree for f in self.coeffs)

    def homogeneous_degree(self) -> int | None:
        """Common coefficient degree k if every f_j is homogeneous of the same
        degree (zero coefficients allowed); None otherwise."""
        k = None
        for f in self.coeffs:
            if f.is_zero:
                continue
            kf = f.homogeneous_degree()
            if kf is None or (k is not None and kf != k):
                return None
            k = kf
        return k

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """(f_1(z), ..., f_n(z)); batched input (..., n) gives (..., n)."""
        z = _check_points(z, self.n)
        return _monomial_dot(z, self._plan, self._coeffs_t)

    def rounding_scale(self, z: np.ndarray) -> float | np.ndarray:
        """||(|C| |z|^E)||, per point of a batch (..., n).

        The size f(z) would have if no terms cancelled: f(z) is exact to a
        few rounding units of it. It is 0 for the zero form and wherever
        every term vanishes.
        """
        a = np.abs(_check_points(z, self.n))
        return np.linalg.norm(_monomial_dot(a, self._plan, self._abs_coeffs_t), axis=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyOneForm) and self.coeffs == other.coeffs

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
    return _monomial_dot(z, form._dplan, form._dcoeffs).reshape(z.shape[:-1] + (n, n))


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
    n = A.n
    coeffs = []
    for j in range(n):
        terms = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            terms.append((A.array[i, j], e))
        coeffs.append(Polynomial(n, terms))
    return PolyOneForm(coeffs)


def quadratic_first_integral(A: SymMatrix) -> Polynomial:
    """f(z) = z^T A z / 2, the first integral of linear_form(A)."""
    n = A.n
    terms = []
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            c = A.array[i, j] * (0.5 if i == j else 1.0)
            terms.append((c, e))
    return Polynomial(n, terms)


def symplectic_form(n: int) -> PolyOneForm:
    """The pairwise-rotation form sum_j (z_{2j} dz_{2j-1} - z_{2j-1} dz_{2j}).

    Defined for even n; nowhere tangent to spheres away from the origin.
    """
    if n < 2 or n % 2 != 0:
        raise DimensionMismatchError("symplectic-type form needs even n >= 2")
    coeffs = []
    for j in range(n):
        partner = j + 1 if j % 2 == 0 else j - 1
        sign = 1.0 if j % 2 == 0 else -1.0
        e = [0] * n
        e[partner] = 1
        coeffs.append(Polynomial(n, [(sign, e)]))
    return PolyOneForm(coeffs)


def integrate_exact_form(form: PolyOneForm, tol: float = 1e-12) -> Polynomial:
    """First integral f with df = form and f(0) = 0, via radial integration.

    Each term c z^alpha of f_j contributes c z^{alpha+e_j} / (|alpha|+1).
    Raises ValueError if the form is not exact (d of the result is compared
    against the input coefficient-wise).
    """
    n = form.n
    terms = []
    for j, fj in enumerate(form.coeffs):
        for c, e in fj.terms:
            ne = list(e)
            ne[j] += 1
            terms.append((c / (sum(e) + 1), ne))
    f = Polynomial(n, terms)
    scale = max(
        (abs(c) for fj in form.coeffs for c, _ in fj.terms),
        default=1.0,
    )
    for j in range(n):
        got = dict((e, c) for c, e in f.partial(j).terms)
        want = dict((e, c) for c, e in form.coeffs[j].terms)
        for e in set(got) | set(want):
            if abs(got.get(e, 0j) - want.get(e, 0j)) > tol * max(scale, 1.0):
                raise ValueError("one-form is not exact; no polynomial first integral")
    return f
