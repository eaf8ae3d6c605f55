"""The library's knobs: every defaulted parameter of its public functions."""

from __future__ import annotations

import ast
from pathlib import Path

import folcontact

SRC = Path(folcontact.__file__).resolve().parent

# Each entry is a default that some caller sets. A new knob is an edit of
# this list, made where it is reviewed; a knob no caller sets is a constant.
PUBLIC_DEFAULTS = {
    "cli.main(argv)",
    "contact.sphere_search(tol)",
    "contact.point_at(morse_index)",
    "contact.continue_radially(tol)",
    "leaf.make_chart(c)",
    "leaf.flow_to_critical(direction)",
    "leaf.flow_to_critical(tol)",
    "leaf.flow_to_critical(max_steps)",
}


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    positional = a.posonlyargs + a.args
    names = [arg.arg for arg in positional[len(positional) - len(a.defaults) :]]
    return names + [arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _public_defaults(path: Path) -> set[str]:
    """module.[Class.]function(parameter) for every defaulted parameter of a
    public top-level function or a public method of a public class."""
    found = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fns = [(f"{node.name}.", fn) for fn in node.body if isinstance(fn, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            fns = [("", node)]
        else:
            continue
        for prefix, fn in fns:
            if not fn.name.startswith("_"):
                found |= {f"{path.stem}.{prefix}{fn.name}({p})" for p in _defaulted(fn)}
    return found


def test_public_defaulted_parameters_are_the_reviewed_list():
    found = set().union(*(_public_defaults(path) for path in sorted(SRC.glob("*.py"))))
    assert found == PUBLIC_DEFAULTS
