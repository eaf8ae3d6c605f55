"""Property tests: JSON round trip, residual invariances, merge order.

Hypothesis runs derandomized with few examples, so these tests are as
deterministic and fast as the rest of the suite.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import folcontact as fc
from folcontact.contact import _merge_points
from folcontact.jsonio import form_from_json, form_to_json

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)

coefficient = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def forms(draw) -> fc.PolyOneForm:
    """Polynomial one-forms with n = 2..4 and exponents up to 3."""
    n = draw(st.integers(2, 4))
    term = st.tuples(coefficient, coefficient, st.lists(st.integers(0, 3), min_size=n, max_size=n))
    coeffs = draw(st.lists(st.lists(term, max_size=4), min_size=n, max_size=n))
    return fc.PolyOneForm(
        [fc.Polynomial(n, [(complex(re, im), exp) for re, im, exp in terms]) for terms in coeffs]
    )


def _homogeneous_form(rng: np.random.Generator, n: int, k: int) -> fc.PolyOneForm:
    """Random one-form whose coefficients are all homogeneous of degree k."""
    exps = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
    return fc.PolyOneForm(
        [
            fc.Polynomial(n, [(complex(*rng.standard_normal(2)), e) for e in exps])
            for _ in range(n)
        ]
    )


def _point(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@PROPERTY
@given(forms())
def test_form_json_round_trip(form):
    text = json.dumps(form_to_json(form), allow_nan=False)
    assert form_from_json(json.loads(text)) == form


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    k=st.integers(1, 3),
    theta=st.floats(-np.pi, np.pi),
)
def test_residual_is_phase_invariant_for_homogeneous_forms(seed, n, k, theta):
    # f(e^{i theta} z) = e^{i k theta} f(z) spans the same complex line, so
    # the distance of z from it keeps its ratio to |z|
    rng = np.random.default_rng(seed)
    form = _homogeneous_form(rng, n, k)
    z = _point(rng, n)
    res = fc.contact_residual(form, z)
    assert abs(fc.contact_residual(form, np.exp(1j * theta) * z) - res) <= 1e-9 * (1.0 + res)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    log_modulus=st.floats(-3.0, 3.0),
    arg=st.floats(-np.pi, np.pi),
)
def test_residual_is_scale_invariant_for_linear_forms(seed, n, log_modulus, arg):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    form = fc.linear_form(fc.SymMatrix(0.5 * (M + M.T)))
    z = _point(rng, n)
    t = 10.0**log_modulus * np.exp(1j * arg)
    res = fc.contact_residual(form, z)
    assert abs(fc.contact_residual(form, t * z) - res) <= 1e-9 * (1.0 + res)


@st.composite
def point_clouds(draw) -> list[fc.ContactPoint]:
    """Unit points with phase-rotated near-copies (closer than the merge
    tolerance) and distinct residuals."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    points = []
    for _ in range(draw(st.integers(1, 5))):
        z = _point(rng, n)
        z /= np.linalg.norm(z)
        for _ in range(draw(st.integers(1, 4))):
            w = np.exp(1j * rng.uniform(-np.pi, np.pi)) * z + 1e-9 * _point(rng, n)
            points.append(
                fc.ContactPoint(z=w, mu=1.0, radius=1.0, residual=float(rng.uniform(0, 1e-10)))
            )
    return points


@PROPERTY
@given(point_clouds(), st.data())
def test_merge_points_is_permutation_invariant(points, data):
    order = data.draw(st.permutations(range(len(points))))
    a = _merge_points(points, dedup_tol=1e-6)
    b = _merge_points([points[i] for i in order], dedup_tol=1e-6)
    assert len(a) == len(b)
    assert all(p is q for p, q in zip(a, b))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    log_gap=st.floats(-12.0, -6.0),
)
def test_takagi_reconstructs_near_degenerate_matrices(seed, n, log_gap):
    # A = U diag(sigma) U^T with one pair of sigma values split by a relative
    # gap of 1e-12 to 1e-6: the eigenvectors of the pair mix freely, and the
    # factors must still reconstruct A and stay unitary
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    sigma = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
    j = int(rng.integers(n - 1))
    sigma[j + 1] = sigma[j] * (1.0 - 10.0**log_gap)
    A = U @ np.diag(sigma) @ U.T
    tk = fc.takagi(fc.SymMatrix(0.5 * (A + A.T)))
    scale = max(1.0, np.abs(A).max())
    assert np.abs(tk.reconstruct() - A).max() <= 1e-10 * scale
    assert np.abs(tk.U.conj().T @ tk.U - np.eye(n)).max() <= 1e-10
