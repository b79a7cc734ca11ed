"""Finite-order variational calculus on jet spaces: Euler-Lagrange and
Helmholtz morphisms, adjoints, Jacobi morphisms, iterated quotient
variations, and a finite-difference/quadrature oracle along sections."""

from .expr import JetContext, JetExpr, jet_order, partial, substitute, to_plain
from .jetcalc import (VerticalField, d_v, total_derivative,
                      total_derivative_multi)
from .multiindex import MultiIndex, enumerate_up_to
from .textio import parse_expr, parse_problem_file, parse_structured, print_object
from .variational import (BilinearForm, Lagrangian, SourceForm, adjoint,
                          contract, contract_source, euler_lagrange, helmholtz,
                          hessian, jacobi, quotient_variation,
                          second_variation_decomposition,
                          vertical_differential)

__version__ = "0.1.0"

# resolved on first use (PEP 562), so that importing jetvar loads no numpy
_NUMERIC = ("NumericSection", "action", "check_critical",
            "check_onshell_symmetry", "finite_diff_variation",
            "second_variation_check")


def __getattr__(name: str):
    if name in _NUMERIC:
        from . import numeric
        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "JetContext", "JetExpr", "MultiIndex", "VerticalField",
    "Lagrangian", "SourceForm", "BilinearForm", "NumericSection",
    "enumerate_up_to", "jet_order", "partial", "substitute",
    "to_plain", "total_derivative", "total_derivative_multi", "d_v",
    "euler_lagrange", "helmholtz", "adjoint",
    "vertical_differential", "jacobi", "contract", "contract_source",
    "quotient_variation", "hessian", "second_variation_decomposition",
    "action", "finite_diff_variation", "check_critical",
    "check_onshell_symmetry", "second_variation_check", "parse_expr",
    "parse_problem_file", "parse_structured", "print_object",
]
