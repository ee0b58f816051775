"""Exact arithmetic for Z/4 quadratic enhancements of surface forms.

The package computes with quadratic refinements of the mod-2 intersection
form of a closed surface (equivalently, Pin^- structures), their Brown
invariants in Z/8, q-null subspace searches, and the Guillou-Marin
congruence for characteristic surfaces in closed oriented 4-manifolds.

``import pinquad`` loads no submodule (PEP 562): the first use of a public
name imports the submodules and binds every public name here.  The CLI imports
from the submodules, so a command loads only the ones it calls.
"""

# each submodule and the public names it defines
_EXPORTS = (
    ("brown", "GaussSumResult arf_from_brown brown_invariant gauss_sum"),
    ("errors", "DegenerateFormError DimensionMismatchError InternalError LimitError "
     "NotCharacteristicError PinquadError SurgeryObstructionError UnsupportedInputError"),
    ("f2", "F2Matrix Subspace kernel_basis rank solve"),
    ("forms", "BilinearForm Covector Enhancement F2Vector crosscap_form enumerate_enhancements "
     "eval_q hyperbolic_form isotropic_reduction poincare_dual torsor_act value_table"),
    ("fourmanifold", "FORM_LIBRARY UnimodularForm gm_check gm_required_beta is_characteristic "
     "parse_form_name signature unimodular_direct_sum"),
    ("vanishing", "has_null_lagrangian max_vanishing_dim"),
)
__all__ = [name for _home, names in _EXPORTS for name in names.split()]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for home, names in _EXPORTS:
        # from .<home> import <names>, on the import statement's path, which -X importtime reports
        module = __import__(home, globals(), None, names.split(), 1)
        globals().update((public, getattr(module, public)) for public in names.split())
    # CPython specialises no attribute load on a module that defines __getattr__
    globals().pop("__getattr__", None)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
