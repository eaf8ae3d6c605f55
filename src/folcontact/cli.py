"""Command-line front end.

Subcommands consume the canonical JSON inputs (see schemas/ in the repo
root) and write one report format, JSON, on stdout:

    {"tool": ..., "version": ..., "command": ..., "config": {...}, "result": {...}}

Each subcommand takes only the options it reads, and the config block
echoes each of those, defaults included, so a report identifies its run
exactly. A leaf command builds one chart, of the leaf through its input
vector or of the leaf value given, projects the vector onto it once, and
echoes the chart's c in place of --c-re and --c-im. Each subcommand
returns one library result (linear-analyze its verdict merged with its
lines), and main writes the whole report with one jsonio.to_json call, so
each result key is a field name and a field that is None is absent. Exit
codes:
0 success, 2 input error (non-finite numbers, input that is not UTF-8 and
JSON nested too deeply to parse included), 3 numerical failure, which
covers a result that is not finite (reports are strict JSON, without NaN
or Infinity) and a LAPACK failure (np.linalg.LinAlgError, though a
ValueError). Every input object is read by one key rule (jsonio._fields):
it must have exactly its keys, and an unknown, a missing or a repeated
key is an input error. All diagnostics go to stderr.
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
    point_at,
    sphere_search,
)
from .errors import FolContactError
from .index import disc_tangency_audit, morse_sphere_identity
from .jsonio import (
    InputFormatError,
    _fields,
    boundary_samples_from_json,
    cvec_from_json,
    form_from_json,
    matrix_from_json,
    to_json,
)
from .leaf import (
    DEFAULT_FLOW_TOL,
    LeafChart,
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

    # each option shared by several subcommands is declared once, in a parent
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True, help="path to the input JSON file")
    sphere = argparse.ArgumentParser(add_help=False)
    sphere.add_argument("--radius", type=_finite, default=1.0, help="sphere radius (default 1)")
    sphere.add_argument("--rng-seed", type=int, default=0, help="random generator key (default 0)")
    leaf = argparse.ArgumentParser(add_help=False)
    leaf.add_argument("--c-re", type=_finite, default=None, help="leaf value, real part")
    leaf.add_argument("--c-im", type=_finite, default=None, help="leaf value, imaginary part")

    def add(name: str, run, *parents, tol: float | None = None):
        """The subcommand `name`, run by `run` (its docstring is the help)."""
        p = sub.add_parser(name, help=run.__doc__, parents=parents)
        p.set_defaults(run=run, parser=p)
        if tol is not None:
            p.add_argument(
                "--tol", type=_positive, default=tol, help=f"tolerance, > 0 (default {tol:g})"
            )
        return p

    add("linear-analyze", _linear_analyze, source)
    p = add("linear-morseify", _linear_morseify, source)
    p.add_argument("--eps", type=_finite, default=1e-6, help="Frobenius budget (default 1e-6)")
    p = add("contact-solve", _contact_solve, source, sphere, tol=ACCEPT_TOL)
    p.add_argument("--seeds", type=int, default=50, help="random solver seeds (default 50)")
    p = add("contact-trace", _contact_trace, source, tol=ACCEPT_TOL)
    p.add_argument("--r-min", type=_finite, default=0.1)
    p.add_argument("--r-max", type=_finite, default=2.0)
    p.add_argument("--steps", type=int, default=20)
    p = add("leaf-flow", _leaf_flow, source, leaf, tol=DEFAULT_FLOW_TOL)
    p.add_argument("--max-steps", type=_non_negative, default=2000)
    add("leaf-hessian", _leaf_hessian, source, leaf)
    p = add("scan", _scan, source, sphere)
    p.add_argument("--samples", type=int, default=10000, help="scan sample count (default 10000)")
    p = add("index-pugh", _index_pugh)
    p.add_argument("--n", type=int, required=True, help="even leaf dimension")
    p.add_argument("--i", type=int, required=True, help="Morse index")
    add("index-audit", _index_audit, source)
    return parser


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The object of pairs; a key given twice is ambiguous input (ValueError)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(key for key in obj if keys.count(key) > 1)!r}")
    return obj


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise InputFormatError(f"{path}: malformed JSON ({exc})") from exc


def _wrapped_input(obj: Any, key: str, where: str):
    """The form and the vector `key` of {form, key}.

    The origin, which is on no sphere, is bad input naming the vector's
    JSON path. It is tested as contact._point_field tests it (|z|^2 is 0,
    so a vector whose square underflows counts too), so no point the
    library would refuse as the origin gets past this test.
    """
    form, vec = _fields(obj, where, ("form", key))
    form = form_from_json(form, f"{where}.form")
    vec = cvec_from_json(vec, f"{where}.{key}", n=form.n)
    if np.vdot(vec, vec).real == 0.0:
        raise InputFormatError(f"{where}.{key}: the {key} is the origin, on no sphere")
    return form, vec


def _leaf_setup(args, key: str):
    """The leaf chart and the input's vector projected onto its leaf g = c.

    One chart: the leaf through the vector (make_chart) when no leaf value
    is given, else the leaf of the value given. A vector past the doubles
    gives a non-finite c, which the projection refuses (exit 3). The config
    echoes the chart's c in place of --c-re and --c-im.
    """
    form, vec = _wrapped_input(_load_json(args.input), key, args.input)
    try:
        integral = integrate_exact_form(form)
    except ValueError as exc:
        raise InputFormatError(f"{args.input}: {exc}") from exc
    if args.c_re is None and args.c_im is None:
        chart = make_chart(integral, vec, form=form)
    else:
        chart = LeafChart(integral, form, complex(args.c_re or 0.0, args.c_im or 0.0))
    del args.c_re, args.c_im
    args.c = chart.c
    return chart, project_to_leaf(chart, vec)


# One function per subcommand, returning its library result. Each looks up
# the library functions it calls in this module's globals at call time, so
# that patching a name here (as a tracer does) reaches every command.


def _linear_analyze(args):
    """Morse verdict and contact lines of a symmetric matrix."""
    verdict, lineset = analyze(matrix_from_json(_load_json(args.input), args.input))
    return {**vars(verdict), "lines": lineset.lines}


def _linear_morseify(args):
    """Nearest Morse-type perturbation of a symmetric matrix."""
    return morseify(matrix_from_json(_load_json(args.input), args.input), args.eps)


def _contact_solve(args):
    """Contact points of a one-form on a sphere."""
    form = form_from_json(_load_json(args.input), args.input)
    return sphere_search(form, args.radius, args.seeds, args.rng_seed, args.tol)


def _contact_trace(args):
    """Radial continuation of a contact point (input: {form, start})."""
    form, start_vec = _wrapped_input(_load_json(args.input), "start", args.input)
    start = point_at(form, start_vec)
    if start.residual > args.tol:
        raise InputFormatError(
            f"{args.input}: start is not a contact point (residual {start.residual:.3e})"
        )
    return continue_radially(form, start, args.r_min, args.r_max, args.steps, args.tol)


def _leaf_flow(args):
    """Distance flow on a leaf to a critical point (input: {form, seed})."""
    chart, seed = _leaf_setup(args, "seed")
    return flow_to_critical(chart, seed, tol=args.tol, max_steps=args.max_steps)


def _leaf_hessian(args):
    """Restricted Hessian at a critical point (input: {form, point})."""
    return leaf_hessian(*_leaf_setup(args, "point"))


def _scan(args):
    """Transversality scan of a one-form over a sphere."""
    form = form_from_json(_load_json(args.input), args.input)
    return transversality_scan(form, args.radius, args.samples, args.rng_seed)


def _index_pugh(args):
    """Even-sphere Morse boundary-index identity."""
    return morse_sphere_identity(args.n, args.i)


def _index_audit(args):
    """Boundary tangency audit of a planar field (input: sample list)."""
    return disc_tangency_audit(boundary_samples_from_json(_load_json(args.input), args.input))


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    run, parser = args.run, args.parser
    del args.run, args.parser  # the rest of the namespace is the report's config
    if extra:  # an option the subcommand does not take: show the subcommand's usage
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        result = run(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but numerical failure on valid input
        print(f"{TOOL}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InputFormatError, ValueError) as exc:
        print(f"{TOOL}: input error: {exc}", file=sys.stderr)
        return 2
    except FolContactError as exc:
        print(f"{TOOL}: numerical failure: {exc}", file=sys.stderr)
        return 3

    report = {
        "tool": TOOL,
        "version": __version__,
        "command": args.command,
        "config": vars(args),
        "result": result,
    }
    try:
        text = json.dumps(to_json(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        print(f"{TOOL}: numerical failure: non-finite report value ({exc})", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
