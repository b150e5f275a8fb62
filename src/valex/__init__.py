"""valex: the Silver-Williams Alexander polynomial for virtual knots.

Computes the zeroth Alexander polynomial Delta_0(u, v) of virtual knots and
links from signed Gauss codes, generates virtual twist-knot diagrams, runs the
closed-form/recursive evaluation for twist knots, and verifies the invariant's
structural laws (Reidemeister factors, skein relation, divisibility, odd
writhe) by independent-oracle comparison.
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
    determinant_cofactor,
    invariant_report,
)
from .diagram import (
    Diagram,
    Passage,
    add_kink,
    add_r2,
    derive_incidence,
    format_gauss,
    mirror_all,
    odd_writhe,
    parse_gauss,
    reverse_orientation,
    smooth_crossing,
    switch_crossing,
)
from .laurent import (
    LaurentPoly,
    ONE,
    U,
    V,
    ZERO,
    exact_div,
    format_poly,
    monomial_pow,
    normalize,
    parse_poly,
)
from .twist import (
    TwistSpec,
    base_closed_form,
    base_delta_bar,
    clasp_identity,
    contract,
    evaluate_recursive,
    format_spec,
    generate_twist,
    negative_flip,
    ow_closed_form,
    parity_context,
    parse_spec,
    recursion_step,
    smoothed_closed_form,
    spec_report,
    vtab_closed_form,
    vtab_delta_bar,
)
from .verify import (
    batch_check,
    run_grid,
    run_law_suite,
)

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "__version__",
    # laurent
    "LaurentPoly", "ZERO", "ONE", "U", "V",
    "monomial_pow", "exact_div", "normalize", "parse_poly", "format_poly",
    # diagram
    "Diagram", "Passage", "parse_gauss", "format_gauss", "derive_incidence",
    "switch_crossing", "smooth_crossing", "add_kink", "add_r2",
    "mirror_all", "reverse_orientation", "odd_writhe",
    # alexander
    "InvariantReport", "KNOT_FACTOR", "LINK_FACTOR", "build_matrix",
    "determinant", "determinant_cofactor", "delta0_diagram", "delta_bar",
    "invariant_report",
    # twist
    "TwistSpec", "parse_spec", "format_spec", "parity_context",
    "generate_twist", "base_closed_form", "base_delta_bar",
    "vtab_closed_form", "vtab_delta_bar", "smoothed_closed_form",
    "recursion_step", "contract", "negative_flip", "evaluate_recursive",
    "clasp_identity", "ow_closed_form", "spec_report",
    # verify
    "run_grid", "run_law_suite", "batch_check",
]
