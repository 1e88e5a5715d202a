"""Exact LCLM-decomposition of linear differential operators over GF(p^n)(t).

The package computes, for an operator L in GF(q)(t)<D> whose p-curvature
characteristic polynomial has no inseparable irreducible factor, a list of
indecomposable operators L_1, ..., L_k with L = LCLM(L_i) and
ord L = sum ord L_i, plus the p-curvature invariants that classify L up to
module isomorphism.  Everything is exact; no floating point anywhere.
"""

from .fieldkit import (
    FqElem,
    FqField,
    Poly,
    RatFunc,
    RatFuncField,
    fq_frobenius_inverse,
    fq_inv,
    fq_make,
    poly_factor_fq,
    ratfunc_derivative,
    ratfunc_pth_root,
)
from .linalg import Matrix, char_poly, invariant_factors, kernel_basis, solve
from .yfactor import factor_monic_in_y, is_separable_irreducible
from .algext import ExtElem, ExtField, ext_arith, ext_derivative, ext_pth_power, make_extension
from .ore import (
    OrePoly,
    apply_to,
    exact_right_quotient_central,
    gcrd,
    lclm,
    operator_degree,
    ore_divrem_right,
    ore_mul,
    ore_pow,
    shift_partial,
)
from .pcurv import (
    PCurvData,
    frobenius_invariants,
    invariants_pth_root,
    operators_equivalent,
    pcurv_charpoly,
    pcurv_data,
    pcurvature_matrix,
)
from .asd import ASDSolution, NoSolution, asd_pole_bound, asd_solve, central_operator_reducible
from .decomp import (
    DecompositionReport,
    HomBasis,
    InvariantRequest,
    check_hypothesis,
    first_decomposition,
    hom_space,
    is_indecomposable,
    lclm_decompose,
    minimal_rational_multiple,
    nice_repr,
    pick_iso,
    propagate,
    verify_decomposition,
)


def __getattr__(name):
    # cli (the parsers, the serializer and the subcommands) is imported on
    # first use of its two re-exports, so the library alone does not load it
    if name in ("parse_operator", "parse_ypoly"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
