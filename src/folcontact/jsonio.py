"""JSON wire formats.

Complex numbers are {"re": .., "im": ..} objects everywhere; matrices and
one-forms follow the canonical on-disk shapes consumed by the CLI (see
schemas/ in the repository root). Parse errors raise InputFormatError with
the offending path for exit-code-2 handling; that includes non-finite
numbers (the NaN and Infinity literals Python's json module accepts, and
literals too large for a float).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .algebra import Polynomial, PolyOneForm, SymMatrix
from .contact import ContactPoint


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


def complex_to_json(v: complex) -> dict[str, float]:
    v = complex(v)
    return {"re": v.real, "im": v.imag}


def complex_from_json(obj: Any, where: str = "value") -> complex:
    _expect(isinstance(obj, dict), where, f"expected {{re, im}} object, got {type(obj).__name__}")
    _expect(set(obj) == {"re", "im"}, where, f"expected keys re/im, got {sorted(obj)}")
    re, im = obj["re"], obj["im"]
    _expect(_is_finite_number(re), where, "re must be a finite number")
    _expect(_is_finite_number(im), where, "im must be a finite number")
    return complex(re, im)


def cvec_to_json(z: np.ndarray) -> list[dict[str, float]]:
    return [complex_to_json(v) for v in np.asarray(z, dtype=complex)]


def cvec_from_json(obj: Any, where: str = "vector", n: int | None = None) -> np.ndarray:
    _expect(isinstance(obj, list), where, "expected a list of complex entries")
    _expect(len(obj) >= 2, where, "need at least two components")
    if n is not None:
        _expect(len(obj) == n, where, f"expected {n} components, got {len(obj)}")
    return np.array(
        [complex_from_json(v, f"{where}[{k}]") for k, v in enumerate(obj)], dtype=complex
    )


def matrix_to_json(A: SymMatrix) -> dict[str, Any]:
    return {
        "n": A.n,
        "entries": [[complex_to_json(v) for v in row] for row in A.array],
    }


def matrix_from_json(obj: Any, where: str = "matrix") -> SymMatrix:
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


def form_to_json(form: PolyOneForm) -> dict[str, Any]:
    return {
        "n": form.n,
        "coeffs": [
            [{"re": c.real, "im": c.imag, "exp": list(e)} for c, e in f.terms]
            for f in form.coeffs
        ],
    }


def form_from_json(obj: Any, where: str = "form") -> PolyOneForm:
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
            exp = term["exp"]
            _expect(
                isinstance(exp, list)
                and len(exp) == n
                and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exp),
                tw,
                f"exp must be {n} non-negative integers",
            )
            parsed.append((c, exp))
        try:
            polys.append(Polynomial(n, parsed))
        except ValueError as exc:
            raise InputFormatError(f"{where}.coeffs[{j}]: {exc}") from exc
    return PolyOneForm(polys)


def point_to_json(p: ContactPoint) -> dict[str, Any]:
    out: dict[str, Any] = {
        "z": cvec_to_json(p.z),
        "mu": complex_to_json(p.mu),
        "radius": p.radius,
        "residual": p.residual,
    }
    if p.leaf_value is not None:
        out["leaf_value"] = complex_to_json(p.leaf_value)
    if p.morse_index is not None:
        out["morse_index"] = p.morse_index
    return out


def boundary_samples_from_json(obj: Any, where: str = "samples"):
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
