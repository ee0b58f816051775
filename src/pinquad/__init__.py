"""Exact arithmetic for Z/4 quadratic enhancements of surface forms.

The package computes with quadratic refinements of the mod-2 intersection
form of a closed surface (equivalently, Pin^- structures), their Brown
invariants in Z/8, q-null subspace searches, and the Guillou-Marin
congruence for characteristic surfaces in closed oriented 4-manifolds.
"""
from .brown import GaussSumResult, arf_from_brown, brown_invariant, gauss_sum
from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    InternalError,
    LimitError,
    NotCharacteristicError,
    PinquadError,
    SurgeryObstructionError,
    UnsupportedInputError,
)
from .f2 import (
    F2Matrix,
    F2Vector,
    Subspace,
    kernel_basis,
    rank,
    solve,
)
from .forms import (
    BilinearForm,
    Covector,
    Enhancement,
    crosscap_form,
    enumerate_enhancements,
    eval_q,
    hyperbolic_form,
    isotropic_reduction,
    poincare_dual,
    torsor_act,
    value_table,
)
from .fourmanifold import (
    FORM_LIBRARY,
    UnimodularForm,
    gm_check,
    gm_required_beta,
    is_characteristic,
    parse_form_name,
    signature,
    unimodular_direct_sum,
)
from .vanishing import has_null_lagrangian, max_vanishing_dim

__version__ = "0.1.0"
