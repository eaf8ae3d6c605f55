"""The three workloads: their inputs, their units of work and their checks.

A workload is a stream of cycles. Cycle k of a run with workload seed s is
generated from (s, k) alone, as raw numpy arrays or JSON files, so a cycle
can be replayed exactly. A unit's timed `run` builds every folcontact object
it needs from those raw inputs and calls the program; its untimed `check`
compares the output with the independent oracles and adds to the quality
tallies. Every call into folcontact happens inside a `run`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import folcontact as fc
from folcontact import cli as fc_cli

from oracles import (
    CheckFailed,
    Quality,
    contact_residual,
    cubic_directions,
    cvec,
    match_direction,
    match_line,
    parse_report,
    poly_eval,
    poly_gradient,
    random_exact_poly,
    random_morse,
    require,
    takagi_lines,
)

SOLVE_SEEDS = 8  # Newton seeds per sphere_search: the fixed seed budget
CATALOGUE_SEED = 0  # the solve forms; see Solve
LINE_TOL = 1e-6  # distance of a solved point from its Takagi line, over |z|
FLOW_LINE_TOL = 1e-5  # flows stop at t_norm <= 1e-8, so their points are looser
RESIDUAL_TOL = 1e-8  # contact residual recomputed by the oracle
CUBIC = np.eye(3, dtype=np.int64) * 3
CUBIC_COEFFS = np.ones(3, dtype=complex)


@dataclass
class Unit:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Quality], None]


def _rng(seed: int, k: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, i])


def _sphere_point(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _terms(coeffs, exps) -> list:
    return [(complex(c), tuple(int(e) for e in row)) for c, row in zip(coeffs, exps)]


def _check_hessian_shape(report, n: int) -> None:
    ev = np.asarray(report.eigenvalues)
    require(ev.shape == (2 * (n - 1),), f"leaf_hessian gave {ev.shape} eigenvalues")
    require(bool(np.all(np.isfinite(ev))), "leaf_hessian eigenvalues are not finite")
    require(report.negative_count == int(np.sum(ev < -fc.leaf.EIG_TOL)), "negative count disagrees with eigenvalues")


# -----------------------------------------------------------------------------
# solve: sphere_search on linear Morse forms and non-linear exact forms
# -----------------------------------------------------------------------------


def _linear_solve(A: np.ndarray, rng_seed: int) -> Unit:
    n = A.shape[0]

    def run():
        form = fc.linear_form(fc.SymMatrix(A))
        return fc.sphere_search(form, 1.0, SOLVE_SEEDS, rng_seed)

    def check(search, q: Quality) -> None:
        _, W = takagi_lines(A)
        require(search.seeds_tried == SOLVE_SEEDS, "seeds_tried is not the seed budget")
        require(len(search.points) <= search.seeds_converged <= SOLVE_SEEDS, "seed counts inconsistent")
        hit = set()
        for p in search.points:
            require(abs(np.linalg.norm(p.z) - 1.0) <= 1e-9, "solved point is off the sphere")
            j = match_line(p.z, W, LINE_TOL)
            require(j >= 0, "solved point lies on no Takagi line")
            require(j not in hit, "two solved points on one contact line")
            hit.add(j)
        q.lines_hit += len(hit)
        q.lines_total += n
        q.points_found += len(search.points)
        q.seeds_converged += search.seeds_converged
        q.seeds_tried += search.seeds_tried

    return Unit(f"solve-linear-n{n}", run, check)


def _poly_solve(coeffs, exps, rng_seed: int) -> Unit:
    n = exps.shape[1]
    terms = _terms(coeffs, exps)

    def run():
        form = fc.Polynomial(n, terms).differential()
        return fc.sphere_search(form, 1.0, SOLVE_SEEDS, rng_seed)

    def check(search, q: Quality) -> None:
        require(search.seeds_tried == SOLVE_SEEDS, "seeds_tried is not the seed budget")
        require(len(search.points) <= search.seeds_converged <= SOLVE_SEEDS, "seed counts inconsistent")
        units = []
        for p in search.points:
            require(abs(np.linalg.norm(p.z) - 1.0) <= 1e-9, "solved point is off the sphere")
            res = contact_residual(poly_gradient(coeffs, exps, p.z), p.z)
            require(res <= RESIDUAL_TOL, f"solved point has contact residual {res:.2e}")
            units.append(p.z)
        for a in range(len(units)):
            for b in range(a + 1, len(units)):
                require(abs(abs(np.vdot(units[a], units[b])) - 1.0) > 1e-12, "duplicate phase orbit")
        q.points_found += len(search.points)
        q.seeds_converged += search.seeds_converged
        q.seeds_tried += search.seeds_tried

    return Unit(f"solve-poly-n{n}-d{exps.sum(axis=1).max()}", run, check)


class Solve:
    """A fixed catalogue of 30 forms per cycle, visited in a seed-rotated order.

    Each group of six is linear Morse at n = 4, 8, 16 and exact polynomial
    at n = 4, 6, 8. The catalogue does not change with the workload seed:
    a sphere_search spends most of its time in the few Newton seeds that
    stagnate for the full iteration cap, so the time of a run over freshly
    drawn forms is a lottery on how many such seeds it meets (simulated
    IQR/median of units_per_s over ten 30 s runs: 0.29). Fixed forms make
    every run do the same work; the seed only changes the order.
    """

    name = "solve"
    groups = 5

    def cycle(self, seed: int, k: int) -> list[Unit]:
        units = []
        for g in range(self.groups):
            g = (g + seed) % self.groups
            degree = 3 + g % 3  # integral degree 3..5: form coefficients of degree 2..4
            for i, (n_lin, n_poly) in enumerate(((4, 4), (8, 6), (16, 8))):
                rng = _rng(CATALOGUE_SEED, g, i)
                units.append(_linear_solve(random_morse(rng, n_lin), int(rng.integers(2**31))))
                coeffs, exps = random_exact_poly(rng, n_poly, degree)
                units.append(_poly_solve(coeffs, exps, int(rng.integers(2**31))))
        return units

    def warmup(self) -> None:
        fc.sphere_search(fc.linear_form(fc.SymMatrix(np.diag([3.0, 2.0, 1.0]))), 1.0, 2, 0)


# -----------------------------------------------------------------------------
# paths: flows, leaf Hessians, persistence and radial continuation
# -----------------------------------------------------------------------------


def _linear_objects(A: np.ndarray):
    S = fc.SymMatrix(A)
    return fc.linear_form(S), fc.quadratic_first_integral(S)


def _cubic_integral():
    return fc.Polynomial(3, _terms(CUBIC_COEFFS, CUBIC))


def _flow_linear(A: np.ndarray, W: np.ndarray, seed_pt: np.ndarray) -> Unit:
    c_own = complex(seed_pt @ A @ seed_pt / 2)

    def run():
        form, integral = _linear_objects(A)
        chart = fc.make_chart(integral, seed_pt, form=form)
        return fc.flow_to_critical(chart, seed_pt, "descend")

    def check(res, q: Quality) -> None:
        z = res.point.z
        require(match_line(z, W, FLOW_LINE_TOL) >= 0, "flow ended off every contact line")
        require(abs(z @ A @ z / 2 - c_own) <= 1e-8 * (1 + abs(c_own)), "flow left its leaf")
        require(contact_residual(A @ z, z) <= 1e-7, "flow ended at a non-critical point")

    return Unit(f"flow-linear-n{A.shape[0]}", run, check)


def _flow_cubic(seed_pt: np.ndarray) -> Unit:
    c_own = poly_eval(CUBIC_COEFFS, CUBIC, seed_pt)
    dirs = cubic_directions()

    def run():
        integral = _cubic_integral()
        form = integral.differential()
        chart = fc.make_chart(integral, seed_pt, form=form)
        return fc.flow_to_critical(chart, seed_pt, "descend")

    def check(res, q: Quality) -> None:
        z = res.point.z
        require(match_direction(z, dirs, FLOW_LINE_TOL) >= 0, "flow ended off every cubic contact line")
        require(abs(poly_eval(CUBIC_COEFFS, CUBIC, z) - c_own) <= 1e-8 * (1 + abs(c_own)), "flow left its leaf")
        require(contact_residual(3 * z**2, z) <= 1e-7, "flow ended at a non-critical point")

    return Unit("flow-cubic", run, check)


def _hessian_linear(A: np.ndarray, sigma: np.ndarray, W: np.ndarray, j: int) -> Unit:
    w = W[:, j]

    def run():
        form, integral = _linear_objects(A)
        return fc.leaf_hessian(fc.make_chart(integral, w, form=form), w)

    def check(report, q: Quality) -> None:
        _check_hessian_shape(report, A.shape[0])
        q.add_hessian(report.eigenvalues, report.negative_count, sigma, j)

    return Unit(f"hessian-linear-n{A.shape[0]}", run, check)


def _hessian_cubic(d: np.ndarray) -> Unit:
    def run():
        integral = _cubic_integral()
        form = integral.differential()
        return fc.leaf_hessian(fc.make_chart(integral, d, form=form), d)

    def check(report, q: Quality) -> None:
        _check_hessian_shape(report, 3)

    return Unit("hessian-cubic", run, check)


def _persistence_linear(A: np.ndarray, W: np.ndarray, j: int) -> Unit:
    w = W[:, j]

    def run():
        form, integral = _linear_objects(A)
        chart = fc.make_chart(integral, w, form=form)
        return fc.index_persistence(chart, fc.point_at(form, w, morse_index=j), 0.01 * chart.c)

    def check(persists, q: Quality) -> None:
        require(isinstance(persists, bool), "index_persistence did not return a bool")

    return Unit(f"persistence-linear-n{A.shape[0]}", run, check)


def _continuation(label: str, build_form, start: np.ndarray, on_line) -> Unit:
    def run():
        form = build_form()
        return fc.continue_radially(form, fc.point_at(form, start), 0.5, 2.0, 20)

    def check(path, q: Quality) -> None:
        require(not path.truncated, "continuation truncated on a Morse contact line")
        radii = [p.radius for p in path.points]
        require(len(radii) == 21 and all(b > a for a, b in zip(radii, radii[1:])), "continuation radii not a monotone 20-step grid")
        for p in path.points:
            require(on_line(p.z), "continuation left its contact line")

    return Unit(label, run, check)


class Paths:
    """One linear Morse form (n = 3..6) and the cubic leaf per cycle."""

    name = "paths"

    def cycle(self, seed: int, k: int) -> list[Unit]:
        rng = _rng(seed, k, 0)
        n = 3 + k % 4
        A = random_morse(rng, n)
        sigma, W = takagi_lines(A)
        dirs = cubic_directions()
        j_cont = k % n
        d = dirs[int(rng.integers(len(dirs)))]
        units = [_flow_linear(A, W, _sphere_point(rng, n)) for _ in range(2)]
        for j in range(n):
            units += [_hessian_linear(A, sigma, W, j), _persistence_linear(A, W, j)]
        units.append(
            _continuation(
                f"continue-linear-n{n}",
                lambda: fc.linear_form(fc.SymMatrix(A)),
                W[:, j_cont],
                lambda z: match_line(z, W, LINE_TOL) == j_cont,
            )
        )
        units += [_flow_cubic(_sphere_point(rng, 3)) for _ in range(2)]
        units.append(_hessian_cubic(d))
        units.append(
            _continuation(
                "continue-cubic",
                lambda: _cubic_integral().differential(),
                d,
                lambda z: match_direction(z, d[None, :], LINE_TOL) == 0,
            )
        )
        return units

    def warmup(self) -> None:
        A = np.diag([3.0, 2.0, 1.0]).astype(complex)
        form, integral = _linear_objects(A)
        p = np.array([0.0, 1.0, 0.0], dtype=complex)
        fc.leaf_hessian(fc.make_chart(integral, p, form=form), p)


# -----------------------------------------------------------------------------
# cli: the folcontact command on JSON files, one process at a time
# -----------------------------------------------------------------------------


def _cjson(v) -> dict:
    v = complex(v)
    return {"re": v.real, "im": v.imag}


def _form_json(coeff_lists) -> dict:
    """coeff_lists[j] = (coeffs, exps) of f_j."""
    n = len(coeff_lists)
    return {
        "n": n,
        "coeffs": [
            [{"re": float(c.real), "im": float(c.imag), "exp": [int(e) for e in row]} for c, row in zip(cs, es)]
            for cs, es in coeff_lists
        ],
    }


def _linear_form_json(A: np.ndarray) -> dict:
    n = A.shape[0]
    eye = np.eye(n, dtype=np.int64)
    return _form_json([(A[:, j], eye) for j in range(n)])


def _poly_form_json(coeffs, exps) -> dict:
    n = exps.shape[1]
    out = []
    for j in range(n):
        keep = exps[:, j] > 0
        e = exps[keep].copy()
        c = coeffs[keep] * e[:, j]
        e[:, j] -= 1
        out.append((c, e))
    return _form_json(out)


def _matrix_json(A: np.ndarray) -> dict:
    return {"n": A.shape[0], "entries": [[_cjson(v) for v in row] for row in A]}


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs `folcontact` as a child process, or `cli.main` in-process."""

    def __init__(self, root: Path, in_process: bool) -> None:
        self.root = root
        self.in_process = in_process
        self.env = child_env(root)

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = fc_cli.main(argv)
                except SystemExit as exc:  # argparse rejects arguments this way
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "folcontact.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr


class Cli:
    """Ten commands per cycle, each on freshly generated input files."""

    name = "cli"

    def __init__(self, runner: CliRunner, workdir: Path, validator) -> None:
        self.runner = runner
        self.workdir = workdir
        self.validator = validator

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj), encoding="utf-8")
        return str(path)

    def _unit(self, label: str, argv: list[str], check_result, expect: int = 0) -> Unit:
        def run():
            return self.runner(argv)

        def check(out, q: Quality) -> None:
            code, stdout, stderr = out
            require(code == expect, f"{label}: exit {code}, expected {expect}: {stderr.strip()[-300:]}")
            if expect != 0:
                require(stdout == "", f"{label}: printed a report on bad input")
                return
            report = parse_report(stdout)
            errors = sorted(self.validator.iter_errors(report), key=str)
            require(not errors, f"{label}: report violates schemas/report.json: {errors[:1]}")
            require(report["command"] == argv[0], f"{label}: report names the wrong command")
            check_result(report["result"], q)

        return Unit(label, run, check)

    def cycle(self, seed: int, k: int) -> list[Unit]:
        rng = _rng(seed, k, 0)
        units = [self._analyze(rng, 16), self._analyze(rng, 32)]

        coeffs, exps = random_exact_poly(rng, 8, 3)
        path = self._write("scan.json", _poly_form_json(coeffs, exps))

        def check_scan(result, q: Quality) -> None:
            worst = result["worst"]
            scores = [w["score"] for w in worst]
            require(len(worst) == 10 and scores == sorted(scores), "scan worst list malformed")
            require(result["min_score"] == scores[0], "min_score is not the best worst score")
            z = cvec(worst[0]["z"])
            require(abs(np.linalg.norm(z) - 1.0) <= 1e-9, "scan sample off the sphere")
            g = poly_gradient(coeffs, exps, z)
            require(abs(contact_residual(g, z) - scores[0]) <= 1e-9, "scan score disagrees with the oracle")

        units.append(self._unit("cli-scan-n8", ["scan", "--input", path, "--rng-seed", str(int(rng.integers(2**31)))], check_scan))

        A3 = random_morse(rng, 3)
        sigma3, W3 = takagi_lines(A3)
        path = self._write("solve.json", _linear_form_json(A3))

        def check_solve(result, q: Quality) -> None:
            hit = set()
            for p in result["points"]:
                j = match_line(cvec(p["z"]), W3, LINE_TOL)
                require(j >= 0 and j not in hit, "contact-solve point off the lines or duplicated")
                hit.add(j)
            q.lines_hit += len(hit)
            q.lines_total += 3
            q.points_found += len(hit)
            q.seeds_converged += result["seeds_converged"]
            q.seeds_tried += result["seeds_tried"]

        units.append(self._unit("cli-contact-solve-n3", ["contact-solve", "--input", path, "--rng-seed", str(int(rng.integers(2**31)))], check_solve))

        seed_pt = _sphere_point(rng, 3) * rng.uniform(0.5, 2.0)
        c_own = complex(seed_pt @ A3 @ seed_pt / 2)
        path = self._write("flow.json", {"form": _linear_form_json(A3), "seed": [_cjson(v) for v in seed_pt]})

        def check_flow(result, q: Quality) -> None:
            z = cvec(result["point"]["z"])
            require(match_line(z, W3, FLOW_LINE_TOL) >= 0, "leaf-flow ended off every contact line")
            require(abs(z @ A3 @ z / 2 - c_own) <= 1e-8 * (1 + abs(c_own)), "leaf-flow left its leaf")
            require(result["phi_final"] < result["phi_initial"], "descending flow did not descend")

        units.append(self._unit("cli-leaf-flow", ["leaf-flow", "--input", path], check_flow))

        j = int(rng.integers(3))
        path = self._write("hessian.json", {"form": _linear_form_json(A3), "point": [_cjson(v) for v in W3[:, j]]})

        def check_hessian(result, q: Quality) -> None:
            ev = result["eigenvalues"]
            require(len(ev) == 4 and result["negative_count"] == sum(v < -fc.leaf.EIG_TOL for v in ev), "leaf-hessian report inconsistent")
            q.add_hessian(ev, result["negative_count"], sigma3, j)

        units.append(self._unit("cli-leaf-hessian", ["leaf-hessian", "--input", path], check_hessian))

        m = int(rng.integers(1, 7))
        i = int(rng.integers(0, 2 * m + 1))

        def check_pugh(result, q: Quality) -> None:
            require(result["holds"] is True and result["lhs"] == (-1) ** i, "index-pugh identity failed")

        units.append(self._unit("cli-index-pugh", ["index-pugh", "--n", str(2 * m), "--i", str(i)], check_pugh))
        units.append(self._audit(rng))
        units += self._malformed(k)
        return units

    def _analyze(self, rng, n: int) -> Unit:
        A = random_morse(rng, n)
        sigma, W = takagi_lines(A)
        path = self._write(f"matrix{n}.json", _matrix_json(A))

        def check(result, q: Quality) -> None:
            require(result["is_morse"] is True, "random Morse matrix reported non-Morse")
            require(len(result["lines"]) == n, "linear-analyze lost a contact line")
            require(np.allclose(result["sigma"], sigma, rtol=1e-9, atol=0), "sigma disagrees with the oracle")
            for j, line in enumerate(result["lines"]):
                require(match_line(cvec(line["direction"]), W, LINE_TOL) == j, "line direction off its Takagi line")
                require(line["morse_index"] == j, "line Morse index is not its sigma rank")

        return self._unit(f"cli-linear-analyze-n{n}", ["linear-analyze", "--input", path], check)

    def _audit(self, rng) -> Unit:
        zeros_in = [r * np.exp(2j * np.pi * rng.random()) for r in rng.uniform(0.15, 0.75, int(rng.integers(0, 3)))]
        conj_in = [r * np.exp(2j * np.pi * rng.random()) for r in rng.uniform(0.15, 0.75, int(rng.integers(0, 3)))]
        zeros_out = [r * np.exp(2j * np.pi * rng.random()) for r in rng.uniform(1.35, 2.5, int(rng.integers(0, 2)))]
        expected = len(zeros_in) - len(conj_in)
        t = 2 * np.pi * np.arange(360) / 360
        v = np.exp(1j * t)
        val = np.ones(360, dtype=complex)
        for a in zeros_in + zeros_out:
            val *= v - a
        for b in conj_in:
            val *= np.conj(v - b)
        samples = [
            {"point": [float(p.real), float(p.imag)], "field": [float(f.real), float(f.imag)], "normal": [float(p.real), float(p.imag)]}
            for p, f in zip(v, val)
        ]
        path = self._write("audit.json", samples)

        def check(result, q: Quality) -> None:
            require(result["winding"] == expected, "audit winding disagrees with the zero count")
            require(result["consistent"] or result["under_sampled"], "audit inconsistent but not flagged")

        return self._unit("cli-index-audit", ["index-audit", "--input", path], check)

    def _malformed(self, k: int) -> list[Unit]:
        cases = [
            ("linear-analyze", "bad-truncated.json", '{"n": 2, "entries": [[{"re": 1'),
            ("linear-analyze", "bad-asymmetric.json", _matrix_json(np.array([[1.0, 2.0], [3.0, 1.0]]))),
            ("contact-solve", "bad-exponent.json", {"n": 2, "coeffs": [[{"re": 1, "im": 0, "exp": [1.5, 0]}], []]}),
            ("leaf-flow", "bad-seed.json", {"form": _linear_form_json(np.eye(3, dtype=complex)), "seed": [_cjson(1.0)] * 2}),
        ]
        units = []
        for command, name, content in (cases[(2 * k) % 4], cases[(2 * k + 1) % 4]):
            path = self._write(name, content)
            units.append(self._unit(f"cli-malformed-{name[4:-5]}", [command, "--input", path], None, expect=2))
        return units

    def warmup(self) -> None:
        code, _, err = self.runner(["index-pugh", "--n", "2", "--i", "0"])
        if code != 0:
            raise RuntimeError(f"folcontact index-pugh failed during warm-up: {err}")


def make(name: str, root: Path, workdir: Path, in_process: bool):
    if name == "solve":
        return Solve()
    if name == "paths":
        return Paths()
    import jsonschema

    with open(root / "schemas" / "report.json", encoding="utf-8") as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    return Cli(CliRunner(root, in_process), workdir, validator)

