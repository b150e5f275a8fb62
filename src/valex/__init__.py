"""valex: the Silver-Williams Alexander polynomial for virtual knots.

Computes the zeroth Alexander polynomial Delta_0(u, v) of virtual knots and
links from signed Gauss codes, generates virtual twist-knot diagrams, runs the
closed-form/recursive evaluation for twist knots, and checks it over grids of
twist specs against the determinant: the same Delta-bar term by term,
divisibility, the signed odd-writhe identity and the odd-writhe conjecture.
"""

from ._backend import BACKEND
from .alexander import (
    InvariantReport,
    KNOT_FACTOR,
    LINK_FACTOR,
    build_matrix,
    delta0_diagram,
    delta_bar,
    determinant,
    invariant_report,
)
from .diagram import (
    Diagram,
    Passage,
    derive_incidence,
    format_gauss,
    mirror_all,
    odd_writhe,
    parse_gauss,
)
from .laurent import (
    LaurentPoly,
    ONE,
    U,
    V,
    ZERO,
    exact_div,
    format_poly,
    normalize,
)
from .twist import (
    TwistSpec,
    clasp_identity,
    evaluate_recursive,
    generate_twist,
    ow_closed_form,
    parse_spec,
    spec_report,
)
from .verify import (
    batch_check,
    run_grid,
)

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "__version__",
    # laurent
    "LaurentPoly", "ZERO", "ONE", "U", "V",
    "exact_div", "normalize", "format_poly",
    # diagram
    "Diagram", "Passage", "parse_gauss", "format_gauss", "derive_incidence",
    "mirror_all", "odd_writhe",
    # alexander
    "InvariantReport", "KNOT_FACTOR", "LINK_FACTOR", "build_matrix",
    "determinant", "delta0_diagram", "delta_bar",
    "invariant_report",
    # twist
    "TwistSpec", "parse_spec", "generate_twist", "evaluate_recursive",
    "clasp_identity", "ow_closed_form", "spec_report",
    # verify
    "run_grid", "batch_check",
]
