"""Transfer calculus for degree-4 similitude parameters.

Subpackages:

- satake: exact/float Satake scalars, dual-group parameter containers,
  the lifting maps between them, Weyl orbits, exponent classification.
- isobaric: formal cuspidal symbols with columnar local data, isobaric
  sums, Rankin-Selberg factorization and exact pole orders, transfer-shape
  validation, descriptor case analysis, association matching.
- simgroups: GO/GSO(4, F_q) laboratory on integer-coded matrices, with
  exhaustive verification of the pair-map presentation.
- lseries: truncated Euler products over symbol columns, numerical
  pole-order estimates, synthetic angle data, weight-12 eigenvalue fixture.
- cli: command-line surface over all of the above.
"""

from .satake import (
    CentralCharMismatch,
    ExactForm,
    ExponentVector,
    GL2Param,
    GL4Param,
    GSp4Param,
    PlaceData,
    RodierVerdict,
    UnramChar,
    as_char,
    chars_equal,
    check_selfdual_twist,
    exponents,
    gsp4_to_gl4_embed,
    langlands_param_from_induction,
    match_multisets,
    param_from_json,
    param_to_json,
    rodier_class,
    theta_lift_params,
    transfer_gsp4_to_gl4,
    weyl_orbit,
)
from .isobaric import (
    CaseAnalysis,
    ConstituentsNotDistinct,
    CuspidalSymbol,
    GSp4Descriptor,
    InsufficientLocalData,
    IsobaricRep,
    NotUnitaryNormalized,
    PoleReport,
    ShapeVerdict,
    SymbolRegistry,
    associate_match,
    dual,
    equivalent,
    isobaric,
    jiang_case_analysis,
    load_document,
    pole_order_at_one,
    rs_factorization,
    transfer,
    transfer_conditions,
    validate_transfer_shape,
)
from .simgroups import (
    GsoPresentationReport,
    UnsupportedField,
    verify_gso_presentation,
)
from .lseries import (
    EigenvalueTable,
    EstimationError,
    EulerProductSweep,
    LocalPole,
    delta_eigenvalues,
    estimate_pole_order,
    partial_L,
    sample_sato_tate,
)

__version__ = "0.1.0"
