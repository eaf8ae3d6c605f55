"""Exact index bookkeeping for vector fields on discs and spheres.

Integer-only identities:

* the alternating sum of Morse-index counts,
* the boundary-tangency index formula I = 1 + (i - e)/2 for plane discs,
* the even-dimensional sphere identity
  (-1)^i = 1 + chi(S^{n-i-1}) - chi(S^{i-1}) chi(S^{n-i-1}),
  with the minimum (empty exit region) and maximum (full boundary sphere)
  conventions at i = 0 and i = n.

The disc auditor takes sampled boundary data (point, field value, outward
normal), counts tangencies as sign changes of <field, normal>, classifies
them interior/exterior from the tangential motion against the slope of the
normal component, applies the index formula, and cross-checks the result
against the winding number of the field along the boundary. Ambiguity or a
mismatch sets the under-sampled flag instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# require this many boundary samples per detected tangency pair
SAMPLES_PER_TANGENCY_PAIR = 90
MIN_SAMPLES = 16


def euler_sphere(m: int) -> int:
    """Euler characteristic of S^m; m = -1 is the empty sphere."""
    if m < -1:
        raise ValueError("sphere dimension must be >= -1")
    if m == -1:
        return 0
    return 1 + (-1) ** m


def pugh_sum(counts) -> int:
    """Alternating sum over Morse-index counts, sum_i (-1)^i n_i."""
    total = 0
    for i, n_i in enumerate(counts):
        n_i = int(n_i)
        if n_i < 0:
            raise ValueError("index counts must be non-negative")
        total += (-1) ** i * n_i
    return total


def poincare_index(i: int, e: int) -> int:
    """Disc index from interior/exterior boundary tangency counts."""
    i, e = int(i), int(e)
    if i < 0 or e < 0:
        raise ValueError("tangency counts must be non-negative")
    if (i - e) % 2 != 0:
        raise ValueError(f"parity violation: i - e = {i - e} must be even")
    return 1 + (i - e) // 2


def morse_sphere_identity(n: int, i: int) -> tuple[int, int, bool]:
    """Check the boundary-index identity of a Morse singularity of index i.

    For even n and 0 <= i <= n returns (lhs, rhs, lhs == rhs) with
    lhs = (-1)^i and rhs assembled from sphere Euler characteristics of the
    exit region and its boundary on S^{n-1}.
    """
    n, i = int(n), int(i)
    if n < 2 or n % 2 != 0:
        raise ValueError("identity applies to even dimensions n >= 2")
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    lhs = (-1) ** i
    if i == 0:
        rhs = 1  # exit region empty
    elif i == n:
        rhs = 1 + euler_sphere(n - 1)  # exit boundary empty
    else:
        rhs = 1 + euler_sphere(n - i - 1) - euler_sphere(i - 1) * euler_sphere(n - i - 1)
    return lhs, rhs, lhs == rhs


@dataclass
class IndexReport:
    """Boundary-tangency audit of a plane field on a disc."""

    interior_tangencies: int
    exterior_tangencies: int
    index: int
    chi_terms: list[tuple[str, int]]
    winding: int | None = None
    consistent: bool = True
    under_sampled: bool = False


def _as_samples(boundary_samples) -> np.ndarray:
    """The points, fields and normals (3, m, 2) of (point, field, normal) triples."""
    S = np.asarray(list(boundary_samples), dtype=float)
    if S.ndim != 3 or S.shape[1:] != (3, 2):
        raise ValueError("samples must be planar (point, field, normal) triples")
    return S.transpose(1, 0, 2)


def disc_tangency_audit(boundary_samples) -> IndexReport:
    """Audit a sampled plane field along a closed boundary curve.

    Samples must be ordered around the curve; the field must not vanish on
    it. Tangency classification: at a sign change of d = <X, n>, the contact
    is exterior when the tangential motion carries the field toward larger d
    (tau * slope > 0, exterior second-order touch) and interior otherwise.
    """
    P, X, N = _as_samples(boundary_samples)
    m = len(P)
    if m < 3:
        raise ValueError("need at least three boundary samples")
    speeds = np.linalg.norm(X, axis=1)
    if np.any(speeds == 0.0):
        raise ValueError("field vanishes at a boundary sample")

    d = np.einsum("ij,ij->i", X, N)
    scale = np.abs(d).max() if np.abs(d).max() > 0 else 1.0
    under_sampled = False

    interior = exterior = 0
    if np.any(np.abs(d) <= 1e-12 * scale):
        under_sampled = True  # a sample sits on a tangency; counts untrustworthy
    for k in range(m):
        k2 = (k + 1) % m
        if d[k] == 0.0 or d[k] * d[k2] >= 0.0:
            continue
        lam = d[k] / (d[k] - d[k2])
        tangent = P[k2] - P[k]
        nt = np.linalg.norm(tangent)
        if nt == 0.0:
            raise ValueError("duplicate consecutive boundary samples")
        tangent /= nt
        x_star = (1.0 - lam) * X[k] + lam * X[k2]
        tau = float(x_star @ tangent)
        slope = d[k2] - d[k]
        if abs(tau) <= 1e-9 * np.linalg.norm(x_star):
            under_sampled = True  # tangential component ambiguous; flagged, not dropped
        if tau * slope >= 0.0:
            exterior += 1
        else:
            interior += 1

    tangencies = interior + exterior
    index = poincare_index(interior, exterior)

    angles = np.arctan2(X[:, 1], X[:, 0])
    dtheta = np.diff(np.concatenate([angles, angles[:1]]))
    dtheta = (dtheta + np.pi) % (2.0 * np.pi) - np.pi
    if np.any(np.abs(dtheta) > 0.5 * np.pi):
        under_sampled = True
    total = float(np.sum(dtheta))
    winding = int(np.round(total / (2.0 * np.pi)))
    if abs(total / (2.0 * np.pi) - winding) > 0.1:
        under_sampled = True

    if tangencies > 0 and m < SAMPLES_PER_TANGENCY_PAIR * (tangencies // 2):
        under_sampled = True
    if m < MIN_SAMPLES:
        under_sampled = True

    consistent = index == winding
    if not consistent:
        under_sampled = True

    chi_terms = [
        ("chi(M,boundary)", 1),
        ("chi(R1_minus,Gamma1)", -(tangencies // 2)),
        ("chi(R2_minus,empty)", interior),
    ]
    return IndexReport(
        interior_tangencies=interior,
        exterior_tangencies=exterior,
        index=index,
        chi_terms=chi_terms,
        winding=winding,
        consistent=consistent,
        under_sampled=under_sampled,
    )

