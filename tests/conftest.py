"""Shared fixtures and small numeric helpers for the test suite."""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import folcontact as fc
from folcontact import contact
from folcontact.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "schemas"


def run_cli(argv) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def diag321() -> fc.SymMatrix:
    return fc.SymMatrix(np.diag([3.0, 2.0, 1.0]).astype(complex))


@pytest.fixture
def form321(diag321) -> fc.PolyOneForm:
    return fc.linear_form(diag321)


@pytest.fixture
def integral321(diag321) -> fc.Polynomial:
    return fc.quadratic_first_integral(diag321)


@pytest.fixture
def identity3() -> fc.SymMatrix:
    return fc.SymMatrix(np.eye(3, dtype=complex))


@pytest.fixture
def symplectic4() -> fc.PolyOneForm:
    return fc.symplectic_form(4)


@pytest.fixture
def cubic3() -> fc.Polynomial:
    """First integral z1^3 + z2^3 + z3^3."""
    return fc.Polynomial(3, [(1.0, (3, 0, 0)), (1.0, (0, 3, 0)), (1.0, (0, 0, 3))])


def form_to_json(form: fc.PolyOneForm) -> dict:
    """The input JSON of a one-form, in the shape of schemas/form.json."""
    return {
        "n": form.n,
        "coeffs": [
            [{"re": c.real, "im": c.imag, "exp": list(e)} for c, e in f.terms]
            for f in form.coeffs
        ],
    }


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def random_symmetric(rng: np.random.Generator, n: int, max_cond: float | None = None) -> fc.SymMatrix:
    """Random complex symmetric matrix, optionally capped in condition number."""
    while True:
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = 0.5 * (M + M.T)
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] == 0.0:
            continue
        if max_cond is not None and sv[0] / sv[-1] > max_cond:
            continue
        return fc.SymMatrix(M)


def random_morse(
    rng: np.random.Generator, n: int, min_rel_gap: float = 1e-3
) -> fc.SymMatrix:
    """Random Morse-type symmetric matrix with a comfortable sigma gap."""
    while True:
        A = random_symmetric(rng, n, max_cond=1e3)
        tk = fc.takagi(A)
        gaps = np.diff(tk.sigma[::-1])
        if np.min(np.abs(gaps)) > min_rel_gap * tk.sigma[0]:
            return A


def axis_distance(z: np.ndarray, j: int) -> float:
    """Distance of z from the j-th complex coordinate axis."""
    rest = np.delete(np.asarray(z, dtype=complex), j)
    return float(np.linalg.norm(rest))


def line_distance(z: np.ndarray, direction: np.ndarray) -> float:
    """Distance of z from the complex line spanned by a unit direction."""
    proj = np.sum(z * direction.conj()) * direction
    return float(np.linalg.norm(z - proj))


def aligned_distance(z: np.ndarray, w: np.ndarray) -> float:
    """Euclidean distance after the optimal global phase rotation of w.

    Taken as ||z - e^{i theta} w|| with e^{i theta} = s/|s|, s = <w, z> (1
    when s = 0), not from |z|^2 + |w|^2 - 2|<z, w>|, which cancels to a
    floor of about 1.5e-8 |z|. The phase is taken from s 2^k, the exact
    scaling whose larger part lies in [0.5, 1): s/|s| itself is not finite
    where |s| is subnormal or overflows.
    """
    s = complex(np.vdot(w, z))
    if s == 0:
        return float(np.linalg.norm(z - w))
    k = -math.frexp(max(abs(s.real), abs(s.imag)))[1]
    s = complex(math.ldexp(s.real, k), math.ldexp(s.imag, k))
    return float(np.linalg.norm(z - s / abs(s) * w))


def radially_invariant(form: fc.PolyOneForm, p: fc.ContactPoint, T_samples, tol: float) -> bool:
    """Does every scaled point p e^T, T complex, stay on the contact variety to tol?

    For a homogeneous form the contact variety is invariant under z -> z e^T.
    """
    return all(fc.point_at(form, p.z * np.exp(T)).residual <= tol for T in T_samples)


def homogeneous_leaf_scale(integral: fc.Polynomial, z, c: complex) -> np.ndarray:
    """z scaled onto the leaf {g = c} of a homogeneous g of degree k: z (c / g(z))^(1/k)."""
    z = np.asarray(z, dtype=complex)
    return z * (c / integral.evaluate(z)) ** (1.0 / integral.homogeneous_degree())


def circle_samples(field, m: int):
    """Sampled (point, field value, outward normal) triples on the unit circle.

    `field` maps an (x, y) array to an (Fx, Fy) array; counterclockwise
    order. On the unit circle each point is its own outward normal.
    """
    out = []
    for k in range(m):
        t = 2.0 * np.pi * k / m
        p = np.array([np.cos(t), np.sin(t)])
        out.append((p, np.asarray(field(p), dtype=float), p.copy()))
    return out


def degree_five_form() -> fc.PolyOneForm:
    """d(z1^6 + z2^6 + z1^3 z2^3 / 2): homogeneous of degree k = 5, so mu
    scales by r^-4 along its contact cone, which holds both axes."""
    return fc.Polynomial(2, [(1.0, (6, 0)), (1.0, (0, 6)), (0.5, (3, 3))]).differential()


def mixed_degree_five_form() -> fc.PolyOneForm:
    """d(z1^6 + z2^6 + z1^3 z2^3 / 2 + z1^2 / 2 + z2^2): not homogeneous, so
    solved and sampled at the radius itself; both axes are contact on every
    sphere (f2 = 0 on the z1 axis, f1 = 0 on the z2 axis)."""
    integral = [(1.0, (6, 0)), (1.0, (0, 6)), (0.5, (3, 3)), (0.5, (2, 0)), (1.0, (0, 2))]
    return fc.Polynomial(2, integral).differential()


def random_exact_form(rng: np.random.Generator, n: int, degree: int) -> fc.PolyOneForm:
    """d of a power sum of z_j^degree plus n random monomials of that degree."""
    terms = [(complex(*rng.standard_normal(2)), rng.multinomial(degree, np.ones(n) / n)) for _ in range(n)]
    terms += [(2.0, degree * np.eye(n, dtype=np.int64)[j]) for j in range(n)]
    return fc.Polynomial(n, terms).differential()


def one_halving_newton(residual, jacobian, U0: np.ndarray, target: float, max_iter: int):
    """contact._damped_newton with a line search that tries one halving per residual call.

    Each step builds the Jacobians of the rows still iterating in one call,
    as the kernel does, and from h = 0 on, each call tries one h on the
    rows still searching, each given twice, so the stack has at least two
    rows and rounds as the kernel's calls do (a stack of one row is
    contracted by a matrix-vector product, which rounds otherwise). Each
    row takes its first h with ||F(u + 2^-h du)|| < (1 - 1e-4 2^-h) ||F(u)||.
    """
    U = np.array(U0, dtype=float)
    F = residual(U, np.arange(len(U)))
    norm = np.sqrt(np.add.reduce(F * F, axis=1))
    live = np.ones(len(U), dtype=bool)
    for _ in range(max_iter):
        live &= ~(norm <= target)
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        dU = contact._newton_steps(jacobian(U[rows], rows), F[rows])
        bad = ~np.isfinite(dU).all(axis=1)
        norm[rows[bad]], live[rows[bad]] = np.inf, False
        rows, U_rows, dU, norm_rows = rows[~bad], U[rows][~bad], dU[~bad], norm[rows][~bad]
        for h in range(contact.NEWTON_MAX_HALVINGS + 1):
            if rows.size == 0:
                break
            t = 0.5**h
            trial = U_rows + t * dU
            F_trial = residual(np.repeat(trial, 2, axis=0), np.repeat(rows, 2))[::2]
            norm_trial = np.sqrt(np.add.reduce(F_trial * F_trial, axis=1))
            ok = norm_trial < (1.0 - 1e-4 * t) * norm_rows
            U[rows[ok]], F[rows[ok]], norm[rows[ok]] = trial[ok], F_trial[ok], norm_trial[ok]
            rows, U_rows, dU, norm_rows = rows[~ok], U_rows[~ok], dU[~ok], norm_rows[~ok]
        norm[rows], live[rows] = np.inf, False
    return U, norm
