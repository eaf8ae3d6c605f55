"""Exact index identities and the disc boundary-tangency auditor."""

from __future__ import annotations

import numpy as np
import pytest

import folcontact as fc

from conftest import circle_samples


def test_euler_sphere():
    assert fc.euler_sphere(0) == 2
    assert fc.euler_sphere(1) == 0
    assert fc.euler_sphere(-1) == 0
    assert fc.euler_sphere(4) == 2
    with pytest.raises(ValueError):
        fc.euler_sphere(-2)


def test_pugh_sum():
    assert fc.pugh_sum([1, 0, 0]) == 1
    assert fc.pugh_sum([1, 1, 0]) == 0
    assert fc.pugh_sum([1, 2, 1]) == 0
    assert fc.pugh_sum([]) == 0
    with pytest.raises(ValueError):
        fc.pugh_sum([1, -1])


def test_poincare_index():
    assert fc.poincare_index(0, 0) == 1
    assert fc.poincare_index(0, 2) == 0
    assert fc.poincare_index(2, 0) == 2
    with pytest.raises(ValueError):
        fc.poincare_index(1, 0)
    with pytest.raises(ValueError):
        fc.poincare_index(-1, 1)


def test_morse_sphere_identity_examples():
    assert fc.morse_sphere_identity(4, 1) == fc.SphereIdentity(-1, -1, True)
    assert fc.morse_sphere_identity(4, 2) == fc.SphereIdentity(1, 1, True)
    assert fc.morse_sphere_identity(4, 0) == fc.SphereIdentity(1, 1, True)
    with pytest.raises(ValueError):
        fc.morse_sphere_identity(5, 1)
    with pytest.raises(ValueError):
        fc.morse_sphere_identity(4, 5)


def test_morse_sphere_identity_exhaustive():
    for n in range(2, 13, 2):
        for i in range(n + 1):
            identity = fc.morse_sphere_identity(n, i)
            assert identity.holds, (n, i, identity)
            assert isinstance(identity.lhs, int) and isinstance(identity.rhs, int)


def test_integer_exactness():
    assert isinstance(fc.euler_sphere(3), int)
    assert isinstance(fc.pugh_sum([2, 5, 1]), int)
    assert isinstance(fc.poincare_index(4, 2), int)
    identity = fc.morse_sphere_identity(6, 3)
    assert isinstance(identity.lhs, int) and isinstance(identity.rhs, int)


# -----------------------------------------------------------------------------
# disc audits
# -----------------------------------------------------------------------------


def test_audit_radial_field():
    report = fc.disc_tangency_audit(circle_samples(lambda p: p, 360))
    assert (report.interior_tangencies, report.exterior_tangencies) == (0, 0)
    assert report.index == 1
    assert report.winding == 1
    assert report.consistent and not report.under_sampled
    assert ("chi(M,boundary)", 1) in report.chi_terms


def test_audit_saddle_field():
    # sample count avoids hitting the four tangencies exactly
    saddle = lambda p: np.array([p[0], -p[1]])
    report = fc.disc_tangency_audit(circle_samples(saddle, 719))
    assert (report.interior_tangencies, report.exterior_tangencies) == (0, 4)
    assert report.index == -1
    assert report.winding == -1
    assert report.consistent and not report.under_sampled
    assert ("chi(R1_minus,Gamma1)", -2) in report.chi_terms
    assert ("chi(R2_minus,empty)", 0) in report.chi_terms


def test_audit_z_squared_field():
    zsq = lambda p: np.array([p[0] ** 2 - p[1] ** 2, 2 * p[0] * p[1]])
    report = fc.disc_tangency_audit(circle_samples(zsq, 719))
    assert (report.interior_tangencies, report.exterior_tangencies) == (2, 0)
    assert report.index == 2
    assert report.winding == 2
    assert report.consistent and not report.under_sampled


def test_audit_flags_undersampling():
    saddle = lambda p: np.array([p[0], -p[1]])
    report = fc.disc_tangency_audit(circle_samples(saddle, 101))
    # four tangencies need >= 180 samples before the counts are trusted
    assert report.under_sampled


def test_audit_rejects_vanishing_field():
    samples = circle_samples(lambda p: p, 32)
    p, _, nrm = samples[3]
    samples[3] = (p, np.zeros(2), nrm)
    with pytest.raises(ValueError):
        fc.disc_tangency_audit(samples)


def _rational_field(zeros_in, zeros_out, conj_zeros_in, conj_zeros_out):
    """Plane field from complex factors; winding = #zeros_in - #conj_zeros_in."""

    def field(p):
        z = complex(p[0], p[1])
        val = 1.0 + 0.0j
        for a in zeros_in + zeros_out:
            val *= z - a
        for b in conj_zeros_in + conj_zeros_out:
            val *= np.conj(z - b)
        return np.array([val.real, val.imag])

    return field


def test_audit_matches_winding_oracle_on_random_fields():
    rng = np.random.default_rng(2026)
    agreements = 0
    for _ in range(12):
        def draw(inside: bool, count: int):
            out = []
            for _ in range(count):
                r = rng.uniform(0.15, 0.75) if inside else rng.uniform(1.35, 2.5)
                t = rng.uniform(0, 2 * np.pi)
                out.append(r * np.exp(1j * t))
            return out

        zi = draw(True, int(rng.integers(0, 3)))
        zo = draw(False, int(rng.integers(0, 2)))
        ci = draw(True, int(rng.integers(0, 3)))
        co = draw(False, int(rng.integers(0, 2)))
        expected = len(zi) - len(ci)
        report = fc.disc_tangency_audit(
            circle_samples(_rational_field(zi, zo, ci, co), 1441)
        )
        assert report.winding == expected
        assert report.index == expected
        agreements += 1
    assert agreements == 12


def test_pugh_sum_stays_an_exact_int():
    assert fc.pugh_sum([1, 10**30]) == 1 - 10**30
    assert fc.pugh_sum(np.array([3, 1, 4, 1, 5])) == 10


def _constant_field_with_exact_tangencies(indices):
    """360 unit-circle samples of the field (1, 0) with <X, n> exactly 0 at indices."""
    samples = circle_samples(lambda p: np.array([1.0, 0.0]), 360)
    for k in indices:
        p, x, _ = samples[k]
        samples[k] = (p, x, np.array([0.0, np.sign(p[1])]))
    return samples


@pytest.mark.parametrize("indices", [(90,), (90, 270)])
def test_audit_counts_a_tangency_that_falls_on_a_sample(indices):
    # (1, 0) is tangent to the circle at +-i: two exterior tangencies, index 0;
    # a crossing runs between the samples either side of an exact zero
    report = fc.disc_tangency_audit(_constant_field_with_exact_tangencies(indices))
    assert (report.interior_tangencies, report.exterior_tangencies) == (0, 2)
    assert (report.index, report.winding) == (0, 0)
    assert report.consistent is True
    assert report.under_sampled is True  # a sample on a tangency is still flagged


@pytest.mark.parametrize(
    "samples",
    [
        circle_samples(lambda p: np.array([p[0], -p[1]]), 719),
        circle_samples(lambda p: np.array([p[0] ** 2 - p[1] ** 2, 2 * p[0] * p[1]]), 719),
        circle_samples(lambda p: np.array([p[0], -p[1]]), 101),
        _constant_field_with_exact_tangencies((90,)),
    ],
    ids=["saddle", "z-squared", "saddle-coarse", "exact-tangency"],
)
def test_audit_report_does_not_depend_on_the_first_sample(samples):
    report = fc.disc_tangency_audit(samples)
    for shift in (1, 37, len(samples) // 2, len(samples) - 1):
        assert fc.disc_tangency_audit(samples[shift:] + samples[:shift]) == report


def _duplicate_crossing():
    # two consecutive samples at one point whose <X, n> have opposite signs
    samples = circle_samples(lambda p: p, 8)
    p, field, normal = samples[3]
    samples[4] = (p, -field, normal)
    return samples


@pytest.mark.parametrize(
    "samples, fragment",
    [
        ([([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])] * 3, "must be planar"),
        (circle_samples(lambda p: p, 2), "at least three boundary samples"),
        (_duplicate_crossing(), "duplicate consecutive boundary samples"),
    ],
    ids=["non-planar", "two samples", "crossing at one point"],
)
def test_audit_refusals(samples, fragment):
    with pytest.raises(ValueError, match=fragment) as exc:
        fc.disc_tangency_audit(samples)
    assert type(exc.value) is ValueError
