"""Contact varieties of holomorphic one-form foliations with spheres.

Core surfaces:

* :mod:`folcontact.algebra` — polynomials, one-forms, symmetric/hermitian
  matrices, Takagi factorization, ``gram_inverse``.
* :mod:`folcontact.contact` — contact points and residuals
  (``point_at``), the sphere-constrained Newton search
  (``sphere_search``), radial continuation.
* :mod:`folcontact.linear` — ``analyze``: the Morse verdict and the
  contact lines, with their Morse indices when the matrix is Morse;
  Morse-ifying perturbations.
* :mod:`folcontact.leaf` — projected gradient field, leaf-restricted
  distance flows, restricted Hessians, transversality scans, persistence.
* :mod:`folcontact.index` — exact Euler/index identities and the disc
  boundary-tangency auditor.
* :mod:`folcontact.errors` — the exception hierarchy.
* :mod:`folcontact.jsonio` — JSON readers of the CLI's inputs, and
  ``to_json``, which writes every value of its reports.
* :mod:`folcontact.cli` — the ``folcontact`` command: each subcommand
  returns one library result, written by ``to_json``.

The package re-exports, in ``__all__``, the public names of all but
``jsonio`` and ``cli``.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .algebra import (
    GAP_TOL,
    HermMatrix,
    Polynomial,
    PolyOneForm,
    SymMatrix,
    TakagiFactors,
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
    point_at,
    sphere_search,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    FlowError,
    FolContactError,
    LeafCorrectionError,
    RadiusRangeError,
    SingularGradientError,
    SingularMatrixError,
)
from .index import (
    IndexReport,
    SphereIdentity,
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
    ScanResult,
    ScanSample,
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
    MorseifyResult,
    MorseVerdict,
    analyze,
    hessian_eigenvalues_closed_form,
    morseify,
)

# the names imported above, not the submodules the imports bind
__all__ = [k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType))]
