"""JSON wire formats: the readers of the CLI's inputs, and to_json.

Complex numbers are {"re": .., "im": ..} objects everywhere; matrices and
one-forms follow the canonical on-disk shapes consumed by the CLI (see
schemas/ in the repository root). Every value in a report is written by
one rule, to_json: a dataclass is an object of its fields with the None
ones left out, so a field reaches a report by being a field and an unset
one stays absent. Each reader takes the JSON path of its input, and a
parse error raises InputFormatError naming that path, for exit-code-2
handling; that includes non-finite numbers (the NaN and Infinity
literals Python's json module accepts, and literals too large for a
float).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

import numpy as np

from .algebra import Polynomial, PolyOneForm, SymMatrix, _exponent


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
    out; a complex number, Python or numpy, becomes {"re", "im"}; an array,
    list or tuple becomes a list, element by element; a numpy scalar
    becomes its Python value; anything else is kept as it is.
    """
    if dataclasses.is_dataclass(obj):
        fields = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
        return {name: to_json(v) for name, v in fields if v is not None}
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.ndarray, list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def complex_from_json(obj: Any, where: str) -> complex:
    _expect(isinstance(obj, dict), where, f"expected {{re, im}} object, got {type(obj).__name__}")
    _expect(set(obj) == {"re", "im"}, where, f"expected keys re/im, got {sorted(obj)}")
    re, im = obj["re"], obj["im"]
    _expect(_is_finite_number(re), where, "re must be a finite number")
    _expect(_is_finite_number(im), where, "im must be a finite number")
    return complex(re, im)


def cvec_from_json(obj: Any, where: str, n: int) -> np.ndarray:
    _expect(isinstance(obj, list), where, "expected a list of complex entries")
    _expect(len(obj) == n, where, f"expected {n} components, got {len(obj)}")
    return np.array(
        [complex_from_json(v, f"{where}[{k}]") for k, v in enumerate(obj)], dtype=complex
    )


def matrix_from_json(obj: Any, where: str) -> SymMatrix:
    _expect(isinstance(obj, dict), where, "expected an object")
    _expect("n" in obj and "entries" in obj, where, "required keys: n, entries")
    n = obj["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 2, where, "n must be an integer >= 2")
    entries = obj["entries"]
    _expect(isinstance(entries, list) and len(entries) == n, where, f"entries must be {n} rows")
    rows = []
    for i, row in enumerate(entries):
        _expect(
            isinstance(row, list) and len(row) == n, f"{where}.entries[{i}]", f"must have {n} entries"
        )
        rows.append([complex_from_json(v, f"{where}.entries[{i}][{j}]") for j, v in enumerate(row)])
    try:
        return SymMatrix(rows)
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def form_from_json(obj: Any, where: str) -> PolyOneForm:
    _expect(isinstance(obj, dict), where, "expected an object")
    _expect("n" in obj and "coeffs" in obj, where, "required keys: n, coeffs")
    n = obj["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 2, where, "n must be an integer >= 2")
    coeffs = obj["coeffs"]
    _expect(isinstance(coeffs, list) and len(coeffs) == n, where, f"coeffs must be {n} term lists")
    polys = []
    for j, terms in enumerate(coeffs):
        _expect(isinstance(terms, list), f"{where}.coeffs[{j}]", "must be a list of terms")
        parsed = []
        for k, term in enumerate(terms):
            tw = f"{where}.coeffs[{j}][{k}]"
            _expect(isinstance(term, dict), tw, "expected a term object")
            _expect(set(term) == {"re", "im", "exp"}, tw, "required keys: re, im, exp")
            c = complex_from_json({"re": term["re"], "im": term["im"]}, tw)
            _expect(isinstance(term["exp"], list), tw, f"exp must be a list of {n} integers")
            try:
                parsed.append((c, _exponent(term["exp"], n)))
            except ValueError as exc:
                raise InputFormatError(f"{tw}: {exc}") from exc
        try:
            polys.append(Polynomial(n, parsed))
        except ValueError as exc:
            raise InputFormatError(f"{where}.coeffs[{j}]: {exc}") from exc
    return PolyOneForm(polys)


def boundary_samples_from_json(obj: Any, where: str):
    _expect(isinstance(obj, list) and len(obj) >= 3, where, "expected a list of >= 3 samples")
    out = []
    for k, item in enumerate(obj):
        iw = f"{where}[{k}]"
        _expect(isinstance(item, dict), iw, "expected an object")
        _expect(
            set(item) == {"point", "field", "normal"}, iw, "required keys: point, field, normal"
        )
        vals = []
        for key in ("point", "field", "normal"):
            v = item[key]
            _expect(
                isinstance(v, list)
                and len(v) == 2
                and all(_is_finite_number(x) for x in v),
                f"{iw}.{key}",
                "must be [x, y] finite numbers",
            )
            vals.append([float(v[0]), float(v[1])])
        out.append(tuple(np.array(v) for v in vals))
    return out
