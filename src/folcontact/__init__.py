"""Contact varieties of holomorphic one-form foliations with spheres.

Core surfaces:

* :mod:`folcontact.algebra` — polynomials, one-forms, symmetric/hermitian
  matrices, Takagi factorization, ``gram_inverse``.
* :mod:`folcontact.contact` — contact residuals, sphere-constrained Newton
  search, radial continuation, homogeneous radial invariance.
* :mod:`folcontact.linear` — Morse verdicts, contact lines, Morse indices,
  Morse-ifying perturbations, unit-sphere tangency witnesses.
* :mod:`folcontact.leaf` — projected gradient field, leaf-restricted
  distance flows, restricted Hessians, transversality scans, persistence.
* :mod:`folcontact.index` — exact Euler/index identities and the disc
  boundary-tangency auditor.
* :mod:`folcontact.cli` — the ``folcontact`` command.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .algebra import (
    GAP_TOL,
    HermMatrix,
    Polynomial,
    PolyOneForm,
    SymMatrix,
    TakagiFactors,
    eval_form,
    gram_inverse,
    integrate_exact_form,
    jacobian_form,
    linear_form,
    quadratic_first_integral,
    symplectic_form,
    takagi,
)
from .contact import (
    ACCEPT_TOL,
    ContactPath,
    ContactPoint,
    SphereSearch,
    contact_residual,
    continue_radially,
    mu_of,
    point_at,
    radial_invariance_check,
    solve_on_sphere,
    sphere_search,
)
from .errors import (
    ChartError,
    ConvergenceError,
    DimensionMismatchError,
    FlowError,
    FolContactError,
    LeafCorrectionError,
    NonHomogeneousFormError,
    NotMorseError,
    RadiusRangeError,
    SingularGradientError,
    SingularMatrixError,
)
from .index import (
    IndexReport,
    disc_tangency_audit,
    euler_sphere,
    morse_sphere_identity,
    poincare_index,
    pugh_sum,
)
from .leaf import (
    FieldSample,
    FlowResult,
    HessianReport,
    LeafChart,
    flow_to_critical,
    index_persistence,
    leaf_hessian,
    make_chart,
    project_to_leaf,
    sample_field,
    transversality_scan,
)
from .linear import (
    ContactLine,
    ContactLineSet,
    MorseVerdict,
    analyze,
    hessian_eigenvalues_closed_form,
    morse_indices,
    morseify,
    unit_sphere_tangencies,
)

__all__ = [name for name in dir() if not name.startswith("_")]
