"""Command-line front end.

Subcommands consume the canonical JSON inputs (see schemas/ in the repo
root) and emit a machine-readable report on stdout:

    {"tool": ..., "version": ..., "command": ..., "config": {...}, "result": {...}}

The config block echoes every resolved setting, defaults included, so a
report identifies its run exactly. Exit codes: 0 success, 2 input error
(non-finite numbers included), 3 numerical failure, which covers a result
that is not finite: reports are strict JSON, without NaN or Infinity. All
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from . import __version__
from .algebra import integrate_exact_form
from .contact import (
    ACCEPT_TOL,
    continue_radially,
    form_id,
    point_at,
    sphere_search,
)
from .errors import FolContactError
from .index import disc_tangency_audit, morse_sphere_identity
from .jsonio import (
    InputFormatError,
    boundary_samples_from_json,
    complex_to_json,
    cvec_from_json,
    cvec_to_json,
    form_from_json,
    matrix_from_json,
    matrix_to_json,
    point_to_json,
)
from .leaf import (
    DEFAULT_FLOW_TOL,
    flow_to_critical,
    leaf_hessian,
    make_chart,
    project_to_leaf,
    transversality_scan,
)
from .linear import analyze, morseify

TOOL = "folcontact"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Contact varieties of one-form foliations with spheres.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, needs_input: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if needs_input:
            p.add_argument("--input", required=True, help="path to the input JSON file")
        p.add_argument("--radius", type=_finite, default=1.0, help="sphere radius (default 1)")
        p.add_argument("--seeds", type=int, default=50, help="random solver seeds (default 50)")
        p.add_argument(
            "--samples", type=int, default=10000, help="scan sample count (default 10000)"
        )
        p.add_argument(
            "--tol", type=_positive, default=None, help="acceptance tolerance, > 0 (module default)"
        )
        p.add_argument("--rng-seed", type=int, default=0, help="random generator key (default 0)")
        p.add_argument("--c-re", type=_finite, default=None, help="leaf value, real part")
        p.add_argument("--c-im", type=_finite, default=None, help="leaf value, imaginary part")
        p.add_argument(
            "--output", choices=("json", "pretty"), default="json", help="report format"
        )
        return p

    add("linear-analyze", "Morse verdict and contact lines of a symmetric matrix")
    p = add("linear-morseify", "nearest Morse-type perturbation of a symmetric matrix")
    p.add_argument("--eps", type=_finite, default=1e-6, help="Frobenius budget (default 1e-6)")
    add("contact-solve", "contact points of a one-form on a sphere")
    p = add("contact-trace", "radial continuation of a contact point (input: {form, start})")
    p.add_argument("--r-min", type=_finite, default=0.1)
    p.add_argument("--r-max", type=_finite, default=2.0)
    p.add_argument("--steps", type=int, default=20)
    p = add("leaf-flow", "distance flow on a leaf to a critical point (input: {form, seed})")
    p.add_argument("--direction", choices=("descend", "ascend"), default="descend")
    p.add_argument("--max-steps", type=_non_negative, default=2000)
    add("leaf-hessian", "restricted Hessian at a critical point (input: {form, point})")
    add("scan", "transversality scan of a one-form over a sphere")
    p = add("index-pugh", "even-sphere Morse boundary-index identity", needs_input=False)
    p.add_argument("--n", type=int, required=True, help="even leaf dimension")
    p.add_argument("--i", type=int, required=True, help="Morse index")
    add("index-audit", "boundary tangency audit of a planar field (input: sample list)")
    return parser


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: malformed JSON ({exc})") from exc


def _resolve_c(args) -> complex | None:
    if args.c_re is None and args.c_im is None:
        return None
    return complex(args.c_re or 0.0, args.c_im or 0.0)


def _wrapped_input(obj: Any, key: str, where: str):
    if not isinstance(obj, dict) or "form" not in obj or key not in obj:
        raise InputFormatError(f"{where}: expected an object with keys 'form' and '{key}'")
    form = form_from_json(obj["form"], f"{where}.form")
    vec = cvec_from_json(obj[key], f"{where}.{key}", n=form.n)
    return form, vec


def _leaf_setup(args, key: str):
    form, vec = _wrapped_input(_load_json(args.input), key, args.input)
    try:
        integral = integrate_exact_form(form)
    except ValueError as exc:
        raise InputFormatError(f"{args.input}: {exc}") from exc
    c = _resolve_c(args)
    if c is None:
        c = complex(integral.evaluate(vec))
    vec = project_to_leaf(integral, form, vec, c)
    chart = make_chart(integral, vec, c, form=form)
    return form, integral, chart, vec, c


def _dispatch(args) -> tuple[dict[str, Any], dict[str, Any]]:
    """Returns (result, extra_config) for the subcommand."""
    tol = args.tol if args.tol is not None else ACCEPT_TOL

    if args.command == "linear-analyze":
        A = matrix_from_json(_load_json(args.input), args.input)
        verdict, lineset = analyze(A)
        result = {
            "is_morse": verdict.is_morse,
            "sigma": verdict.sigma,
            "min_gap": verdict.min_gap,
            "lines": [
                {
                    "direction": cvec_to_json(line.direction),
                    "sigma": line.sigma,
                    "mu_modulus": line.mu_modulus,
                    "morse_index": line.morse_index,
                    "residual": line.residual,
                }
                for line in lineset.lines
            ],
        }
        return result, {}

    if args.command == "linear-morseify":
        A = matrix_from_json(_load_json(args.input), args.input)
        out = morseify(A, args.eps)
        dist = float(np.linalg.norm(out.array - A.array))
        return (
            {
                "matrix": matrix_to_json(out),
                "frobenius_distance": dist,
                "changed": dist > 0.0,
            },
            {"eps": args.eps},
        )

    if args.command == "contact-solve":
        form = form_from_json(_load_json(args.input), args.input)
        search = sphere_search(form, args.radius, args.seeds, args.rng_seed, tol)
        result = {
            "points": [point_to_json(p) for p in search.points],
            "seeds_tried": search.seeds_tried,
            "seeds_converged": search.seeds_converged,
        }
        return result, {}

    if args.command == "contact-trace":
        form, start_vec = _wrapped_input(_load_json(args.input), "start", args.input)
        try:
            start = point_at(form, start_vec)
        except ValueError as exc:  # the origin
            raise InputFormatError(f"{args.input}.start: {exc}") from exc
        if start.residual > tol:
            raise InputFormatError(
                f"{args.input}: start is not a contact point (residual {start.residual:.3e})"
            )
        path = continue_radially(form, start, args.r_min, args.r_max, args.steps, tol)
        result = {
            "form_id": path.form_id,
            "points": [point_to_json(p) for p in path.points],
            "truncated": path.truncated,
            "truncation_radius": path.truncation_radius,
        }
        return result, {"r_min": args.r_min, "r_max": args.r_max, "steps": args.steps}

    if args.command == "leaf-flow":
        _, _, chart, seed, c_used = _leaf_setup(args, "seed")
        flow_tol = args.tol if args.tol is not None else DEFAULT_FLOW_TOL
        flow = flow_to_critical(
            chart, seed, args.direction, tol=flow_tol, max_steps=args.max_steps
        )
        result = {
            "point": point_to_json(flow.point),
            "steps": flow.steps,
            "polished": flow.polished,
            "phi_initial": flow.phi_trace[0],
            "phi_final": float(np.sum(np.abs(flow.point.z) ** 2)),
        }
        return result, {
            "c": complex_to_json(c_used),
            "direction": args.direction,
            "max_steps": args.max_steps,
            "tol": flow_tol,
        }

    if args.command == "leaf-hessian":
        _, _, chart, point_vec, c_used = _leaf_setup(args, "point")
        report = leaf_hessian(chart, point_vec)
        result = {
            "matrix": [[float(v) for v in row] for row in report.matrix],
            "eigenvalues": [float(v) for v in report.eigenvalues],
            "negative_count": report.negative_count,
            "point": point_to_json(report.point),
        }
        return result, {"c": complex_to_json(c_used)}

    if args.command == "scan":
        form = form_from_json(_load_json(args.input), args.input)
        min_score, worst = transversality_scan(form, args.radius, args.samples, args.rng_seed)
        result = {
            "min_score": min_score,
            "worst": [{"score": s, "z": cvec_to_json(z)} for s, z in worst],
        }
        return result, {}

    if args.command == "index-pugh":
        lhs, rhs, holds = morse_sphere_identity(args.n, args.i)
        return {"lhs": lhs, "rhs": rhs, "holds": holds}, {"n": args.n, "i": args.i}

    if args.command == "index-audit":
        samples = boundary_samples_from_json(_load_json(args.input), args.input)
        report = disc_tangency_audit(samples)
        result = {
            "interior_tangencies": report.interior_tangencies,
            "exterior_tangencies": report.exterior_tangencies,
            "index": report.index,
            "winding": report.winding,
            "consistent": report.consistent,
            "under_sampled": report.under_sampled,
            "chi_terms": [[name, value] for name, value in report.chi_terms],
        }
        return result, {}

    raise InputFormatError(f"unknown command {args.command}")


def _pretty(report: dict[str, Any]) -> str:
    lines = [f"{TOOL} {report['version']} — {report['command']}"]

    def walk(obj, indent: int):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {val}")
        elif isinstance(obj, list):
            for k, val in enumerate(obj):
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}[{k}]")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}[{k}] {val}")

    walk(report["result"], 1)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, extra = _dispatch(args)
    except (InputFormatError, ValueError) as exc:
        print(f"{TOOL}: input error: {exc}", file=sys.stderr)
        return 2
    except FolContactError as exc:
        print(f"{TOOL}: numerical failure: {exc}", file=sys.stderr)
        return 3

    config: dict[str, Any] = {
        "command": args.command,
        "input": getattr(args, "input", None),
        "radius": args.radius,
        "seeds": args.seeds,
        "samples": args.samples,
        "tol": args.tol if args.tol is not None else ACCEPT_TOL,
        "rng_seed": args.rng_seed,
        "c": complex_to_json(_resolve_c(args)) if _resolve_c(args) is not None else None,
        "output": args.output,
    }
    config.update(extra)
    report = {
        "tool": TOOL,
        "version": __version__,
        "command": args.command,
        "config": config,
        "result": result,
    }
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        print(f"{TOOL}: numerical failure: non-finite report value ({exc})", file=sys.stderr)
        return 3
    sys.stdout.write(text if args.output == "json" else _pretty(report))
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
