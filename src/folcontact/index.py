"""Exact index bookkeeping for vector fields on discs and spheres.

Integer-only identities:

* the alternating sum of Morse-index counts,
* the boundary-tangency index formula I = 1 + (i - e)/2 for plane discs,
* the even-dimensional sphere identity
  (-1)^i = 1 + chi(S^{n-i-1}) - chi(S^{i-1}) chi(S^{n-i-1}),
  with the minimum (empty exit region) and maximum (full boundary sphere)
  conventions at i = 0 and i = n.

The disc auditor takes sampled boundary data (point, field value, outward
normal), counts tangencies as the sign changes of <field, normal> between
cyclically consecutive samples where it is not zero, classifies them all at
once as interior/exterior from the tangential motion against the slope of
the normal component, applies the index formula, and cross-checks the
result against the winding number of the field along the boundary.
Ambiguity or a mismatch sets the under-sampled flag instead of guessing.
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
    """Alternating sum over Morse-index counts, sum_i (-1)^i n_i (an exact int)."""
    n = list(map(int, counts))
    if min(n, default=0) < 0:
        raise ValueError("index counts must be non-negative")
    return sum(n[::2]) - sum(n[1::2])


def poincare_index(i: int, e: int) -> int:
    """Disc index from interior/exterior boundary tangency counts."""
    i, e = int(i), int(e)
    if i < 0 or e < 0:
        raise ValueError("tangency counts must be non-negative")
    if (i - e) % 2 != 0:
        raise ValueError(f"parity violation: i - e = {i - e} must be even")
    return 1 + (i - e) // 2


@dataclass
class SphereIdentity:
    """Both sides of the even-sphere boundary-index identity, and whether they agree."""

    lhs: int
    rhs: int
    holds: bool


def morse_sphere_identity(n: int, i: int) -> SphereIdentity:
    """Check the boundary-index identity of a Morse singularity of index i.

    For even n and 0 <= i <= n returns SphereIdentity(lhs, rhs, lhs == rhs)
    with lhs = (-1)^i and rhs assembled from sphere Euler characteristics of
    the exit region and its boundary on S^{n-1},

        rhs = 1 + chi(S^{n-i-1}) - chi(S^{i-1}) chi(S^{n-i-1}).

    The exit region is empty at i = 0 and its boundary at i = n; S^{-1} is
    the empty sphere, chi(S^{-1}) = 0, so the one formula covers both ends.
    """
    n, i = int(n), int(i)
    if n < 2 or n % 2 != 0:
        raise ValueError("identity applies to even dimensions n >= 2")
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    lhs = (-1) ** i
    rhs = 1 + euler_sphere(n - i - 1) - euler_sphere(i - 1) * euler_sphere(n - i - 1)
    return SphereIdentity(lhs, rhs, lhs == rhs)


@dataclass
class IndexReport:
    """Boundary-tangency audit of a plane field on a disc."""

    interior_tangencies: int
    exterior_tangencies: int
    index: int
    chi_terms: list[tuple[str, int]]
    winding: int
    consistent: bool
    under_sampled: bool


def _as_samples(boundary_samples) -> np.ndarray:
    """The points, fields and normals (3, m, 2) of (point, field, normal) triples."""
    S = np.asarray(list(boundary_samples), dtype=float)
    if S.ndim != 3 or S.shape[1:] != (3, 2):
        raise ValueError("samples must be planar (point, field, normal) triples")
    return S.transpose(1, 0, 2)


def disc_tangency_audit(boundary_samples) -> IndexReport:
    """Audit a sampled plane field along a closed boundary curve.

    Samples must be ordered around the curve; the field must not vanish on
    it. A tangency is a sign change of d = <X, n> from one sample with
    d != 0 to the next such sample, cyclically, so a sample with d = 0
    lies inside its crossing segment instead of hiding it (it still flags
    under-sampling). Tangency classification: the contact is exterior when
    the tangential motion carries the field toward larger d (tau * slope
    >= 0, exterior second-order touch) and interior otherwise.
    """
    P, X, N = _as_samples(boundary_samples)
    m = len(P)
    if m < 3:
        raise ValueError("need at least three boundary samples")
    if np.any(np.linalg.norm(X, axis=1) == 0.0):
        raise ValueError("field vanishes at a boundary sample")

    d = np.einsum("ij,ij->i", X, N)
    scale = np.abs(d).max() if np.abs(d).max() > 0 else 1.0
    a = np.flatnonzero(d)
    b = np.roll(a, -1)  # the next sample with d != 0
    crossing = np.signbit(d[a]) != np.signbit(d[b])
    a, b = a[crossing], b[crossing]
    tangent = P[b] - P[a]
    nt = np.linalg.norm(tangent, axis=1)
    if np.any(nt == 0.0):
        raise ValueError("duplicate consecutive boundary samples")
    lam = (d[a] / (d[a] - d[b]))[:, None]
    x_star = (1.0 - lam) * X[a] + lam * X[b]
    tau = np.einsum("ij,ij->i", x_star, tangent / nt[:, None])
    exterior = int(np.count_nonzero(tau * (d[b] - d[a]) >= 0.0))
    interior = len(a) - exterior
    index = poincare_index(interior, exterior)

    angles = np.arctan2(X[:, 1], X[:, 0])
    dtheta = np.diff(np.concatenate([angles, angles[:1]]))
    dtheta = (dtheta + np.pi) % (2.0 * np.pi) - np.pi
    total = float(np.sum(dtheta))
    winding = int(np.round(total / (2.0 * np.pi)))
    consistent = index == winding
    # a sample on a tangency, an ambiguous tangential component, a coarse or
    # inconsistent winding, or too few samples: the counts are untrustworthy
    under_sampled = bool(
        np.any(np.abs(d) <= 1e-12 * scale)
        or np.any(np.abs(tau) <= 1e-9 * np.linalg.norm(x_star, axis=1))
        or np.any(np.abs(dtheta) > 0.5 * np.pi)
        or abs(total / (2.0 * np.pi) - winding) > 0.1
        or m < max(MIN_SAMPLES, SAMPLES_PER_TANGENCY_PAIR * (len(a) // 2))
        or not consistent
    )

    chi_terms = [
        ("chi(M,boundary)", 1),
        ("chi(R1_minus,Gamma1)", -(len(a) // 2)),
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
