"""The package's public names: what `from folcontact import *` binds."""

from __future__ import annotations

import folcontact

# Each name is re-exported from a submodule. A new public name is an edit of
# this list, made where it is reviewed.
EXPORTS = [
    # algebra
    "GAP_TOL",
    "HermMatrix",
    "Polynomial",
    "PolyOneForm",
    "SymMatrix",
    "TakagiFactors",
    "gram_inverse",
    "integrate_exact_form",
    "jacobian_form",
    "linear_form",
    "quadratic_first_integral",
    "symplectic_form",
    "takagi",
    # contact
    "ACCEPT_TOL",
    "ContactPath",
    "ContactPoint",
    "SphereSearch",
    "contact_residual",
    "continue_radially",
    "point_at",
    "sphere_search",
    # errors
    "ConvergenceError",
    "DimensionMismatchError",
    "FlowError",
    "FolContactError",
    "LeafCorrectionError",
    "RadiusRangeError",
    "SingularGradientError",
    "SingularMatrixError",
    # index
    "IndexReport",
    "SphereIdentity",
    "disc_tangency_audit",
    "euler_sphere",
    "morse_sphere_identity",
    "poincare_index",
    "pugh_sum",
    # leaf
    "FieldSample",
    "FlowResult",
    "HessianReport",
    "LeafChart",
    "ScanResult",
    "ScanSample",
    "flow_to_critical",
    "index_persistence",
    "leaf_hessian",
    "make_chart",
    "project_to_leaf",
    "sample_field",
    "transversality_scan",
    # linear
    "ContactLine",
    "ContactLineSet",
    "MorseifyResult",
    "MorseVerdict",
    "analyze",
    "hessian_eigenvalues_closed_form",
    "morseify",
]


def test_all_is_the_reviewed_list():
    assert folcontact.__all__ == EXPORTS


def test_star_import_binds_exactly_the_reviewed_names():
    namespace: dict = {}
    exec("from folcontact import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)
