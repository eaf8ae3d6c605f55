"""Independent reference answers and output checks.

Nothing here calls folcontact: every expected value is computed from the raw
inputs with numpy alone, so a defect in the program cannot also hide in its
own oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with the reference answer."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -----------------------------------------------------------------------------
# Linear forms: contact lines from the hermitian matrix conj(A) A
# -----------------------------------------------------------------------------


def takagi_lines(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma descending, unit line directions as columns) of complex symmetric A.

    A line direction w satisfies A w = sigma conj(w), so conj(A) A w =
    sigma^2 w: the lines are the eigenvectors of the hermitian matrix
    conj(A) A. This route is independent of the realified eigenproblem the
    program uses, and unique up to phase when the sigma are distinct.
    """
    evals, vecs = np.linalg.eigh(A.conj() @ A)
    order = np.argsort(evals)[::-1]
    sigma = np.sqrt(np.clip(evals[order], 0.0, None))
    return sigma, vecs[:, order]


def line_distance(z: np.ndarray, w: np.ndarray) -> float:
    """Distance of z from the complex line through the unit vector w, over |z|."""
    z = np.asarray(z, dtype=complex)
    proj = np.vdot(w, z) * w
    return float(np.linalg.norm(z - proj) / np.linalg.norm(z))


def match_line(z: np.ndarray, W: np.ndarray, tol: float) -> int:
    """Index of the line (column of W) that z lies on, or -1 if none is within tol."""
    dists = [line_distance(z, W[:, j]) for j in range(W.shape[1])]
    j = int(np.argmin(dists))
    return j if dists[j] <= tol else -1


def closed_form_hessian(sigma: np.ndarray, j: int) -> np.ndarray:
    """Leaf-Hessian eigenvalues {1 +- sigma_i/sigma_j : i != j}, ascending."""
    ratios = np.delete(sigma, j) / sigma[j]
    return np.sort(np.concatenate([1.0 + ratios, 1.0 - ratios]))


def random_morse(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random complex symmetric matrix, condition <= 1e3, sigma gaps > 1e-3 sigma_max."""
    while True:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = 0.5 * (M + M.T)
        sv = np.linalg.svd(M, compute_uv=False)  # Takagi values = singular values
        if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e3:
            continue
        if np.min(-np.diff(sv)) > 1e-3 * sv[0]:
            return M


# -----------------------------------------------------------------------------
# Polynomials as monomial tables
# -----------------------------------------------------------------------------


def poly_eval(coeffs: np.ndarray, exps: np.ndarray, z: np.ndarray) -> complex:
    """sum_k c_k z^alpha_k for exponent rows alpha_k."""
    return complex(np.sum(coeffs * np.prod(z[None, :] ** exps, axis=1)))


def poly_gradient(coeffs: np.ndarray, exps: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Holomorphic gradient (dP/dz_1, ..., dP/dz_n)."""
    n = exps.shape[1]
    out = np.empty(n, dtype=complex)
    for j in range(n):
        e = exps.copy()
        c = coeffs * e[:, j]
        e[:, j] = np.maximum(e[:, j] - 1, 0)
        out[j] = np.sum(c * np.prod(z[None, :] ** e, axis=1))
    return out


def contact_residual(grad: np.ndarray, z: np.ndarray) -> float:
    """||z - mu conj(f)|| / |z| with the least-squares multiplier mu."""
    mu = np.sum(z * grad) / np.sum(np.abs(grad) ** 2)
    return float(np.linalg.norm(z - mu * grad.conj()) / np.linalg.norm(z))


def random_exact_poly(rng: np.random.Generator, n: int, degree: int):
    """Integral P = sum_j c_j z_j^d + n random monomials of total degree d.

    The diagonal power sum keeps the gradient away from zero on the sphere;
    the extra monomials make the coefficients of dP couple the variables, so
    its Jacobian is neither constant nor diagonal.
    """
    exps = [np.eye(n, dtype=np.int64)[j] * degree for j in range(n)]
    for _ in range(n):
        cut = np.sort(rng.integers(0, degree + 1, size=n - 1))
        parts = np.diff(np.concatenate([[0], cut, [degree]]))
        exps.append(rng.permutation(parts).astype(np.int64))
    coeffs = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    coeffs[:n] += 2.0 * np.exp(2j * np.pi * rng.random(n))
    return coeffs, np.array(exps)


# -----------------------------------------------------------------------------
# The cubic z1^3 + z2^3 + z3^3
# -----------------------------------------------------------------------------


def cubic_directions() -> np.ndarray:
    """The 21 unit contact directions of d(z1^3 + z2^3 + z3^3), up to phase.

    z = mu conj(3 z^2) componentwise forces equal moduli on the support and
    3 arg z_j = arg mu there: for each non-empty support, fix the first
    phase at 0 and give the others a cube root of unity.
    """
    out = []
    for size in (1, 2, 3):
        for support in itertools.combinations(range(3), size):
            for phases in itertools.product(range(3), repeat=size - 1):
                z = np.zeros(3, dtype=complex)
                z[support[0]] = 1.0
                for k, p in zip(support[1:], phases):
                    z[k] = np.exp(2j * np.pi * p / 3)
                out.append(z / np.linalg.norm(z))
    return np.array(out)


def aligned_distance(z: np.ndarray, w: np.ndarray) -> float:
    """Distance between unit vectors after the best global phase rotation."""
    d2 = 2.0 - 2.0 * abs(np.vdot(w, z))
    return math.sqrt(max(d2, 0.0))


def match_direction(z: np.ndarray, dirs: np.ndarray, tol: float) -> int:
    u = z / np.linalg.norm(z)
    dists = [aligned_distance(u, d) for d in dirs]
    j = int(np.argmin(dists))
    return j if dists[j] <= tol else -1


@dataclass
class Quality:
    """Solver-quality tallies; each ratio is reported with its base."""

    lines_hit: int = 0
    lines_total: int = 0
    points_found: int = 0
    seeds_converged: int = 0
    seeds_tried: int = 0
    index_match: int = 0
    index_total: int = 0
    eig_err_max: float = 0.0

    def add_hessian(self, eigenvalues, negative_count: int, sigma, j: int) -> None:
        self.index_total += 1
        self.index_match += int(negative_count == j)
        err = np.max(np.abs(np.sort(eigenvalues) - closed_form_hessian(sigma, j)))
        self.eig_err_max = max(self.eig_err_max, float(err))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """name -> (value, unit) of each quality number that has a non-zero base."""
        out: dict[str, tuple[float, str]] = {}
        if self.lines_total:
            out["lines_recovered_frac"] = (self.lines_hit / self.lines_total, "ratio")
        if self.seeds_tried:
            out["points_found"] = (self.points_found, "count")
            out["seeds_converged_frac"] = (self.seeds_converged / self.seeds_tried, "ratio")
        if self.index_total:
            out["index_match_frac"] = (self.index_match / self.index_total, "ratio")
            out["hessian_eig_err_max"] = (self.eig_err_max, "1")
        return out


# -----------------------------------------------------------------------------
# CLI reports
# -----------------------------------------------------------------------------


def _reject_constant(token: str):
    raise CheckFailed(f"report contains the non-JSON literal {token}")


def parse_report(text: str) -> dict:
    """Parse a CLI report as RFC 8259 JSON: NaN and Infinity are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from exc


def cvec(obj) -> np.ndarray:
    return np.array([complex(v["re"], v["im"]) for v in obj])
