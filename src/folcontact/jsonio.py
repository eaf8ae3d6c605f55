"""JSON wire formats: the readers of the CLI's inputs, and to_json.

Complex numbers are {"re": .., "im": ..} objects everywhere; matrices and
one-forms follow the canonical on-disk shapes consumed by the CLI (see
schemas/ in the repository root), and a SymMatrix is written in the shape
matrix_from_json reads. Every value in a report is written by one rule,
to_json: a dataclass is an object of its fields with the None ones left
out, so a field reaches a report by being a field and an unset one stays
absent. Each reader takes the JSON path of its input, and a
parse error raises InputFormatError naming that path, for exit-code-2
handling; that includes non-finite numbers (the NaN and Infinity
literals Python's json module accepts, and literals too large for a
float). One key rule reads every input object, _fields: it must have
exactly its keys, so an unknown key is an error as a missing one is.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from .algebra import PolyOneForm, SymMatrix, _exponent


class InputFormatError(ValueError):
    """Input JSON does not match the expected schema."""


def _expect(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise InputFormatError(f"{where}: {msg}")


def _is_finite_number(v: Any) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer literal beyond the float range
        return False


def to_json(obj: Any) -> Any:
    """Report JSON of a library result.

    A dataclass becomes an object of its fields, a field that is None left
    out, and a dict an object of its values; a SymMatrix becomes
    {"n", "entries"}, the shape matrix_from_json reads; a complex number,
    Python or numpy, becomes {"re", "im"}; an array, list or tuple becomes
    a list, element by element; a numpy scalar becomes its Python value;
    anything else is kept as it is.
    """
    if dataclasses.is_dataclass(obj):
        fields = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return {name: to_json(v) for name, v in fields if v is not None}
    if isinstance(obj, dict):
        return {key: to_json(v) for key, v in obj.items()}
    if isinstance(obj, SymMatrix):
        return {"n": obj.n, "entries": to_json(obj.array)}
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.ndarray, list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _fields(obj: Any, where: str, keys: tuple[str, ...]) -> list[Any]:
    """The values of keys, in that order, of an object with exactly those keys.

    The one key rule of every input object: a missing or an unknown key is
    an InputFormatError naming where, the keys expected and the keys given.
    """
    if isinstance(obj, dict) and set(obj) == set(keys):
        return [obj[key] for key in keys]
    given = f"keys {sorted(obj)}" if isinstance(obj, dict) else f"a {type(obj).__name__}"
    raise InputFormatError(f"{where}: expected an object with keys {', '.join(keys)}, got {given}")


def _complex(re: Any, im: Any, where: str) -> complex:
    _expect(_is_finite_number(re), where, "re must be a finite number")
    _expect(_is_finite_number(im), where, "im must be a finite number")
    return complex(re, im)


def complex_from_json(obj: Any, where: str) -> complex:
    return _complex(*_fields(obj, where, ("re", "im")), where)


def cvec_from_json(obj: Any, where: str, n: int) -> np.ndarray:
    _expect(isinstance(obj, list), where, "expected a list of complex entries")
    _expect(len(obj) == n, where, f"expected {n} components, got {len(obj)}")
    return np.array(
        [complex_from_json(v, f"{where}[{k}]") for k, v in enumerate(obj)], dtype=complex
    )


def matrix_from_json(obj: Any, where: str) -> SymMatrix:
    n, entries = _fields(obj, where, ("n", "entries"))
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 2, where, "n must be an integer >= 2")
    _expect(isinstance(entries, list) and len(entries) == n, where, f"entries must be {n} rows")
    rows = [cvec_from_json(row, f"{where}.entries[{i}]", n) for i, row in enumerate(entries)]
    try:
        return SymMatrix(rows)
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def form_from_json(obj: Any, where: str) -> PolyOneForm:
    """The one-form of obj, its table built once from every term's exponent,
    column and coefficient (duplicates summed, zeros dropped)."""
    n, coeffs = _fields(obj, where, ("n", "coeffs"))
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 2, where, "n must be an integer >= 2")
    _expect(isinstance(coeffs, list) and len(coeffs) == n, where, f"coeffs must be {n} term lists")
    exps, columns, values = [], [], []
    for j, terms in enumerate(coeffs):
        _expect(isinstance(terms, list), f"{where}.coeffs[{j}]", "must be a list of terms")
        for k, term in enumerate(terms):
            tw = f"{where}.coeffs[{j}][{k}]"
            re, im, exp = _fields(term, tw, ("re", "im", "exp"))
            values.append(_complex(re, im, tw))
            _expect(isinstance(exp, list), tw, f"exp must be a list of {n} integers")
            try:
                exps.append(_exponent(exp, n))
            except ValueError as exc:
                raise InputFormatError(f"{tw}: {exc}") from exc
            columns.append(j)
    C = np.zeros((len(values), n), dtype=complex)
    C[np.arange(len(values)), columns] = values
    return PolyOneForm._from_table(n, np.array(exps, dtype=np.int64).reshape(-1, n), C)


def boundary_samples_from_json(obj: Any, where: str) -> np.ndarray:
    """The samples as one (m, 3, 2) array of (point, field, normal) rows."""
    _expect(isinstance(obj, list) and len(obj) >= 3, where, "expected a list of >= 3 samples")
    keys = ("point", "field", "normal")
    samples = []
    for k, item in enumerate(obj):
        iw = f"{where}[{k}]"
        triple = _fields(item, iw, keys)
        for key, v in zip(keys, triple):
            planar = isinstance(v, list) and len(v) == 2 and all(_is_finite_number(x) for x in v)
            _expect(planar, f"{iw}.{key}", "must be [x, y] finite numbers")
        samples.append(triple)
    return np.array(samples, dtype=float)
