"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

import folcontact as fc
from folcontact.contact import sphere_seeds, sphere_search
from folcontact.jsonio import to_json

from conftest import (
    axis_distance,
    circle_samples,
    form_to_json,
    homogeneous_leaf_scale,
    line_distance,
    radially_invariant,
    random_morse,
    random_symmetric,
    run_cli,
)


@contextmanager
def criterion(num: int, desc: str):
    state = {"ok": False}
    try:
        yield state
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {desc}")
        raise
    verdict = "PASS" if state["ok"] else "FAIL"
    print(f"[criterion {num:02d}] {verdict} - {desc}")
    assert state["ok"], f"criterion {num:02d} failed: {desc}"


def _diag321():
    return fc.SymMatrix(np.diag([3.0, 2.0, 1.0]).astype(complex))


def test_criterion_01_linear_fixture_diag321():
    with criterion(1, "diag(3,2,1): Morse, axes, indices (0,1,2), Hessians, <1s") as st:
        t0 = time.perf_counter()
        A = _diag321()
        verdict, lineset = fc.analyze(A)
        assert verdict.is_morse
        assert [line.morse_index for line in lineset.lines] == [0, 1, 2]
        for j, line in enumerate(lineset.lines):
            axis = np.zeros(3, dtype=complex)
            axis[j] = 1.0
            assert np.linalg.norm(line.direction - axis) <= 1e-6

        integral = fc.quadratic_first_integral(A)
        form = fc.linear_form(A)
        sigma = [line.sigma for line in lineset.lines]
        for j, line in enumerate(lineset.lines):
            closed = fc.hessian_eigenvalues_closed_form(sigma, j)
            chart = fc.make_chart(integral, line.direction, form=form)
            numeric = np.sort(fc.leaf_hessian(chart, line.direction).eigenvalues)
            assert np.all(np.abs(numeric - closed) <= 1e-6 * np.abs(closed))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        st["ok"] = True


def test_criterion_02_degeneracy_detection():
    with criterion(2, "identity degenerate (gap 0, zero Hessian eigenvalue); perturbation Morse") as st:
        I3 = fc.SymMatrix(np.eye(3, dtype=complex))
        verdict, _ = fc.analyze(I3)
        assert not verdict.is_morse
        assert verdict.min_gap == 0.0

        form = fc.linear_form(I3)
        integral = fc.quadratic_first_integral(I3)
        p = np.array([np.sqrt(2.0), 0.0, 0.0], dtype=complex)  # f = 1
        chart = fc.LeafChart(integral, form, 1.0)
        report = fc.leaf_hessian(chart, p)
        assert np.min(np.abs(report.eigenvalues)) <= 1e-6

        eps = [1e-2, 2e-2 * 1j, -3e-2]
        moduli = [abs(1 + e) for e in eps]
        assert len(set(np.round(moduli, 12))) == 3
        perturbed = fc.SymMatrix(np.diag([1 + e for e in eps]))
        assert fc.analyze(perturbed)[0].is_morse
        st["ok"] = True


def test_criterion_03_positivity_suite():
    with criterion(3, "200 random symmetric: B hermitian positive, equals gram route, <10s") as st:
        t0 = time.perf_counter()
        rng = np.random.default_rng(314159)
        for k in range(200):
            n = 2 + k % 5  # cycles through 2..6
            A = random_symmetric(rng, n, max_cond=1e3)
            B = fc.gram_inverse(A)  # (conj(A) A)^{-1} route
            evals = B.eigenvalues()
            norm = float(np.max(np.abs(evals)))
            assert evals.min() > 1e-10 * norm
            # independent oracle: the direct product A^{-1} conj(A^{-1})
            Ainv = np.linalg.inv(A.array)
            oracle = Ainv @ Ainv.conj()
            assert np.abs(B.array - oracle).max() <= 1e-10 * max(1.0, norm)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        st["ok"] = True


def test_criterion_04_oracle_equivalence():
    with criterion(4, "50 random Morse: solver points on lines, >=90% full recovery, witnesses") as st:
        rng = np.random.default_rng(271828)
        full_recoveries = 0
        total = 50
        for k in range(total):
            n = 3 if k % 2 == 0 else 4
            A = random_morse(rng, n)
            _, lineset = fc.analyze(A)
            form = fc.linear_form(A)
            points = sphere_search(form, 1.0, 50, int(rng.integers(2**31))).points
            recovered = set()
            for p in points:
                dists = [line_distance(p.z, line.direction) for line in lineset.lines]
                j = int(np.argmin(dists))
                assert dists[j] <= 1e-6  # every output lies on a reported line
                recovered.add(j)
            if len(recovered) == n:
                full_recoveries += 1

            witnesses = [fc.point_at(form, line.direction) for line in lineset.lines]
            assert len(witnesses) == n
            assert all(w.residual <= 1e-9 for w in witnesses)
        assert full_recoveries >= 0.9 * total, f"{full_recoveries}/{total}"
        st["ok"] = True


def test_criterion_05_transversality_positive_control():
    with criterion(5, "symplectic C^4: residual == 1 at 1e4 sphere points, empty solve") as st:
        form = fc.symplectic_form(4)
        z = sphere_seeds(4, 10_000, 424242, 1.0)
        for row in z:
            assert abs(fc.contact_residual(form, row) - 1.0) <= 1e-12
        search = sphere_search(form, 1.0, 50, 31415)
        assert search.points == []
        st["ok"] = True


def test_criterion_06_flow_convergence():
    with criterion(6, "20 seeds descend on {f=1} to |z|=sqrt(2/3) on axis 1, <5s") as st:
        t0 = time.perf_counter()
        A = _diag321()
        form = fc.linear_form(A)
        integral = fc.quadratic_first_integral(A)
        raw_seeds = sphere_seeds(3, 20, 161803, 1.0)
        for raw in raw_seeds:
            z0 = homogeneous_leaf_scale(integral, raw, 1.0)
            chart = fc.LeafChart(integral, form, 1.0)
            z0 = fc.project_to_leaf(chart, z0)
            res = fc.flow_to_critical(chart, z0, "descend", tol=1e-8)
            assert abs(np.linalg.norm(res.point.z) - np.sqrt(2.0 / 3.0)) <= 1e-6
            assert axis_distance(res.point.z, 0) <= 1e-6
            assert fc.sample_field(form, res.point.z).t_norm <= 1e-8
            assert res.steps > 0 and res.phi_final < res.phi_initial
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        st["ok"] = True


def test_criterion_07_index_persistence():
    with criterion(7, "Sigma_1/Sigma_2 on c=1 persist to c=1.01 and c=1+0.01i, same index") as st:
        A = _diag321()
        form = fc.linear_form(A)
        integral = fc.quadratic_first_integral(A)
        fixtures = [
            (np.array([np.sqrt(2.0 / 3.0), 0, 0], dtype=complex), 0),
            (np.array([0, 1.0, 0], dtype=complex), 1),
        ]
        for p, want_index in fixtures:
            chart = fc.LeafChart(integral, form, 1.0)
            report = fc.leaf_hessian(chart, p)
            assert report.negative_count == want_index
            for dc in (0.01, 0.01j):
                assert fc.index_persistence(chart, report.point, dc)
        st["ok"] = True


def test_criterion_08_homogeneous_radial_invariance():
    with criterion(8, "cubic d(z1^3+z2^3+z3^3): all solved points radial-invariant at 1e-9") as st:
        cubic = fc.Polynomial(3, [(1.0, (3, 0, 0)), (1.0, (0, 3, 0)), (1.0, (0, 0, 3))])
        form = cubic.differential()
        points = sphere_search(form, 1.0, 50, 577215).points
        assert len(points) >= 1
        grid = [0.5, 1j, 1 + 1j, 1j * np.pi / 4]
        for p in points:
            assert radially_invariant(form, p, grid, 1e-9)
        st["ok"] = True


def test_criterion_09_exact_index_identities():
    with criterion(9, "sphere identity exhaustive n<=12; audit index == winding on 50 fields") as st:
        for n in range(2, 13, 2):
            for i in range(n + 1):
                identity = fc.morse_sphere_identity(n, i)
                assert identity.holds and isinstance(identity.lhs, int) and isinstance(identity.rhs, int)

        rng = np.random.default_rng(141421)

        def rational_field(zeros, conj_zeros):
            def field(p):
                v = complex(p[0], p[1])
                val = 1.0 + 0.0j
                for a in zeros:
                    val *= v - a
                for b in conj_zeros:
                    val *= np.conj(v - b)
                return np.array([val.real, val.imag])

            return field

        for _ in range(50):
            def draw(inside: bool, count: int):
                pts = []
                for _ in range(count):
                    r = rng.uniform(0.15, 0.75) if inside else rng.uniform(1.35, 2.5)
                    pts.append(r * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                return pts

            zi, zo = draw(True, int(rng.integers(0, 3))), draw(False, int(rng.integers(0, 2)))
            ci, co = draw(True, int(rng.integers(0, 3))), draw(False, int(rng.integers(0, 2)))
            expected = len(zi) - len(ci)
            report = fc.disc_tangency_audit(
                circle_samples(rational_field(zi + zo, ci + co), 1441)
            )
            assert report.winding == expected
            assert report.index == expected  # Poincare formula vs winding oracle
        st["ok"] = True


def test_criterion_10_morseify():
    with criterion(10, "morseify: 50 random matrices within eps and Morse; identity on Morse") as st:
        rng = np.random.default_rng(662607)
        for k in range(50):
            n = 2 + k % 4
            A = random_symmetric(rng, n, max_cond=1e3)
            if k % 2 == 1:
                tk = fc.takagi(A)
                sigma = tk.sigma.copy()
                sigma[-1] = sigma[0]  # force a degenerate pair
                M = tk.U @ np.diag(sigma) @ tk.U.T
                A = fc.SymMatrix(0.5 * (M + M.T))
            for eps in (1e-2, 1e-4):
                out = fc.morseify(A, eps).matrix
                assert fc.analyze(out)[0].is_morse
                assert np.linalg.norm(out.array - A.array) <= eps
                if fc.analyze(A)[0].is_morse:
                    assert out is A  # identity map on Morse inputs
        st["ok"] = True


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "repeated CLI runs with fixed rng_seed are byte-identical") as st:
        A = _diag321()
        m_path = tmp_path / "m.json"
        m_path.write_text(json.dumps({"n": A.n, "entries": to_json(A.array)}))
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(form_to_json(fc.linear_form(A))))
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(
            json.dumps(
                {
                    "form": form_to_json(fc.linear_form(A)),
                    "seed": to_json(np.array([0.4 + 0.1j, 0.5, 0.6 - 0.3j])),
                }
            )
        )
        commands = [
            ["linear-analyze", "--input", str(m_path)],
            ["contact-solve", "--input", str(f_path), "--seeds", "40", "--rng-seed", "8"],
            ["scan", "--input", str(f_path), "--samples", "2000", "--rng-seed", "8"],
            ["leaf-flow", "--input", str(flow_path), "--c-re", "1"],
        ]
        for argv in commands:
            outs = set()
            for _ in range(3):
                code, out, err = run_cli(argv)
                assert code == 0, err
                outs.add(out.encode())
            assert len(outs) == 1
        st["ok"] = True
