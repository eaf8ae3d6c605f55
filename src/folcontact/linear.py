"""Exact contact theory of linear one-forms.

For an invertible complex symmetric A the contact equation on the sphere,
A z = conj(z) / conj(mu), forces z to be an eigenvector of the hermitian
positive matrix B = (conj(A) A)^{-1} with eigenvalue |mu|^2. The eigenvector
directions are conjugated Takagi columns of A: each w satisfies
A w = sigma conj(w), so the whole complex line C w lies in the contact
variety with |mu| = 1/sigma along it.

A is of Morse type exactly when the Takagi values are pairwise distinct;
then the contact variety is the union of the n lines and the line with the
j-th largest sigma carries critical points of Morse index j-1 (closed-form
leaf-Hessian eigenvalues 1 +- sigma_i/sigma_j, i != j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    GAP_TOL,
    PolyOneForm,
    SymMatrix,
    TakagiFactors,
    _require_invertible,
    linear_form,
    takagi,
)
from .contact import ACCEPT_TOL, contact_residual


@dataclass
class ContactLine:
    """One complex contact line through the origin."""

    direction: np.ndarray  # unit vector, largest-modulus entry real positive
    sigma: float
    mu_modulus: float
    morse_index: int | None
    residual: float


@dataclass
class ContactLineSet:
    """The validated contact lines of a symmetric matrix.

    Candidates that fail residual validation are kept in `rejected` as
    diagnostics and never silently retained among the lines.
    """

    lines: list[ContactLine]
    rejected: list[ContactLine]


@dataclass
class MorseVerdict:
    is_morse: bool
    sigma: list[float]  # descending
    min_gap: float


@dataclass
class MorseifyResult:
    """A Morse-type matrix near A, its Frobenius distance from A, and whether it moved."""

    matrix: SymMatrix
    frobenius_distance: float
    changed: bool


def _canonical_direction(w: np.ndarray) -> np.ndarray:
    """Scale to unit norm with the largest-modulus entry real positive."""
    w = w / np.linalg.norm(w)
    k = int(np.argmax(np.abs(w)))
    phase = np.angle(w[k])
    return w * np.exp(-1j * phase)


def hessian_eigenvalues_closed_form(sigma, line_index: int) -> np.ndarray:
    """Leaf-Hessian eigenvalues {1 +- sigma_i/sigma_j : i != j} at line j.

    sigma is the descending Takagi value list; line_index is 0-based. The
    scale convention is half the squared-distance Hessian, which makes the
    values dimensionless. Sorted ascending; 2(n-1) values.
    """
    sigma = np.asarray(sigma, dtype=float)
    sj = sigma[line_index]
    if sj <= 0:
        raise ValueError("closed form requires a positive sigma")
    ratios = np.delete(sigma, line_index) / sj
    return np.sort(np.concatenate([1.0 + ratios, 1.0 - ratios]))


def verdict_from_takagi(tk: TakagiFactors) -> MorseVerdict:
    """Morse iff every two Takagi values differ by more than GAP_TOL sigma_max."""
    sigma = np.asarray(tk.sigma, dtype=float)
    gaps = np.abs(sigma[:, None] - sigma[None, :])
    min_gap = float(np.min(gaps[~np.eye(len(sigma), dtype=bool)]))
    smax = float(sigma[0]) if sigma[0] > 0 else 1.0
    return MorseVerdict(
        is_morse=bool(min_gap > GAP_TOL * smax),
        sigma=[float(s) for s in sigma],
        min_gap=min_gap,
    )


def _unit_form(A: SymMatrix) -> PolyOneForm:
    """linear_form(A 2^-e), with e the binary exponent of max |a_ij|.

    The contact residual and the lines do not change under f -> c f, and
    scaling by a power of two is exact, so the lines are checked on a form
    whose largest entry lies in [1/2, 1): at the scale of A itself, ||f||^2
    and the rounding scale leave the doubles for |f| below about 1e-154
    or above 1e154.
    """
    e = int(np.frexp(np.abs(A.array).max())[1])
    return linear_form(SymMatrix(np.ldexp(A.array.view(float), -e).view(complex)))


def _frobenius(D: np.ndarray) -> float:
    """||D||_F taken on D 2^-e, e the binary exponent of max |d_ij|, and scaled back.

    Scaling by a power of two is exact, so in range this is the plain norm
    bit for bit; at the scale of D itself the squares of its entries leave
    the doubles for |d_ij| below about 1e-154 or above 1e154.
    """
    e = int(np.frexp(np.abs(D).max())[1])
    return float(np.ldexp(np.linalg.norm(np.ldexp(D.view(float), -e).view(complex)), e))


def analyze(A: SymMatrix) -> tuple[MorseVerdict, ContactLineSet]:
    """Morse verdict and validated contact-line candidates of A.

    Every reported direction is checked against the contact residual at
    radius 1, and line j (descending sigma) is kept when its residual is at
    most ACCEPT_TOL sigma_max/sigma_j: a verified Takagi factorization
    leaves column j a residual of about eps sigma_max/sigma_j. The eigen
    route supplies candidates only. When A is of Morse type the kept lines
    also carry their Morse indices: line j has index j, the negative count
    of its closed-form leaf-Hessian eigenvalues (the sigma_i > sigma_j).
    The residuals are those of A scaled by a power of two to entries of
    size about 1 (exact, and the residual does not depend on the scale),
    so A at any scale the doubles hold gives its lines.
    Raises SingularMatrixError for singular A.
    """
    _require_invertible(A)
    tk = takagi(A)
    verdict = verdict_from_takagi(tk)
    form = _unit_form(A)
    lines: list[ContactLine] = []
    rejected: list[ContactLine] = []
    for j, s in enumerate(tk.sigma):
        w = _canonical_direction(tk.U[:, j].conj())
        res = contact_residual(form, w)
        ok = res <= ACCEPT_TOL * (tk.sigma[0] / s)
        line = ContactLine(
            direction=w, sigma=float(s), mu_modulus=float(1.0 / s), residual=res,
            morse_index=j if ok and verdict.is_morse else None,
        )
        (lines if ok else rejected).append(line)
    return verdict, ContactLineSet(lines=lines, rejected=rejected)


def morseify(A: SymMatrix, eps: float) -> MorseifyResult:
    """A Morse-type matrix within eps of A in Frobenius norm, with its distance.

    Already-Morse input comes back as it is, (A, 0.0, False). Otherwise the
    Takagi values are spread by a staircase delta = eps/(2n) (shrunk if
    needed to respect the Frobenius budget 0.99 eps, which the plain
    staircase exceeds for n >= 14) and the matrix reassembled as
    U diag(sigma') U^T, which SymMatrix averages to exact symmetry. The
    Frobenius distance is taken once, at unit scale, so the budget holds
    and the distance is reported for A at any scale the doubles hold.
    Raises ValueError when eps is too small for the perturbed gaps to clear
    the Morse gap tolerance.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    tk = takagi(A)
    if verdict_from_takagi(tk).is_morse:
        return MorseifyResult(A, 0.0, False)
    n = A.n
    sigma = np.asarray(tk.sigma, dtype=float)
    delta = eps / (2.0 * n)
    stair = np.arange(n - 1, -1, -1, dtype=float)  # descending order keeps gaps >= delta
    budget = 0.99 * eps
    if delta * np.linalg.norm(stair) > budget:
        delta = budget / np.linalg.norm(stair)
    smax_new = sigma[0] + delta * (n - 1)
    if delta <= GAP_TOL * smax_new:
        raise ValueError(
            f"eps={eps:.3e} is below the Morse gap tolerance at this matrix scale"
        )
    sigma_new = sigma + delta * stair
    M = tk.U @ np.diag(sigma_new) @ tk.U.T
    out = SymMatrix(M)
    if not verdict_from_takagi(takagi(out)).is_morse:
        raise AssertionError("morseify produced a non-Morse matrix")
    distance = _frobenius(out.array - A.array)
    if distance > eps * (1.0 + 1e-12):
        raise AssertionError("morseify exceeded the Frobenius budget")
    return MorseifyResult(out, distance, distance > 0.0)
