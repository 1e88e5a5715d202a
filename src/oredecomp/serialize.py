"""Deterministic text form for field elements, polynomials and operators.

The output stays within the CLI expression grammar (and re-parses to an
equal object): descending powers, explicit "*", parenthesized coefficients,
GF(q) elements as polynomials in the generator g with nonnegative residues.
Values read in the constant subfield are printed with s substituted back as
t^p, so no second variable ever appears.
"""

from __future__ import annotations

from .fieldkit import FqElem, Poly, RatFunc


def fq_str(c: FqElem) -> str:
    """A GF(q) element as a polynomial in g (FqElem's repr)."""
    return repr(c)


def poly_str(p: Poly, var: str = "t") -> str:
    """A polynomial over GF(q), printed with descending exponents."""
    if not p:
        return "0"
    terms = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if not c:
            continue
        cs = fq_str(c)
        if "+" in cs or "*" in cs:
            cs = "(%s)" % cs
        if i == 0:
            terms.append(cs)
        else:
            vp = var if i == 1 else "%s^%d" % (var, i)
            terms.append(vp if cs == "1" else "%s*%s" % (cs, vp))
    return "+".join(terms)


def ratfunc_str(f: RatFunc) -> str:
    if not f:
        return "0"
    if f.den.degree == 0:
        return poly_str(f.num)
    return "(%s)/(%s)" % (poly_str(f.num), poly_str(f.den))


def _coeff_term(c: RatFunc, power_str: str | None) -> str:
    """One serialized term coeff * var^i, coefficient parenthesized."""
    if power_str is None:
        if c.den.degree == 0:
            return poly_str(c.num)
        return "(%s)/(%s)" % (poly_str(c.num), poly_str(c.den))
    if c == c.field.one:
        return power_str
    if c.den.degree == 0:
        return "(%s)*%s" % (poly_str(c.num), power_str)
    return "(%s)/(%s)*%s" % (poly_str(c.num), poly_str(c.den), power_str)


def operator_str(A, var: str = "D") -> str:
    """Deterministic serialization of an operator, descending in D; a
    polynomial over GF(q)(t) prints the same way in Y."""
    if not A:
        return "0"
    terms = []
    for i in range(len(A.coeffs) - 1, -1, -1):
        c = A.coeffs[i]
        if not c:
            continue
        power = None if i == 0 else (var if i == 1 else "%s^%d" % (var, i))
        terms.append(_coeff_term(c, power))
    return " + ".join(terms)


def ypoly_str(P: Poly, var: str = "Y") -> str:
    """A polynomial over GF(q)(t), same shape as operators but commutative."""
    return operator_str(P, var)


def spoly_str(P: Poly, var: str = "Y") -> str:
    """A polynomial over GF(q)(s), printed with s substituted back as t^p."""
    return ypoly_str(P.map_coeffs(lambda c: c.inflate(c.field.base.p)), var)
