"""Command-line front end: an expression parser for differential operators
over GF(q)(t), one subcommand per pipeline stage, and deterministic JSON
reports.

Grammar (EBNF), evaluated left-to-right in the Ore ring so that "D*t"
reduces through the commutation rule:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := base ("^" uint)?
    base   := "D" | "t" | "g" | uint | "(" expr ")"

"/" requires an order-0 right operand; "^" takes a nonnegative integer.
A power, product or quotient whose result would have degree in D (or Y)
above _MAX_POWER_DEGREE or a coefficient of t-degree above
_MAX_POWER_T_DEGREE is refused at its operator, by an estimate read off
the text before anything is evaluated and again on the built operands;
juxtaposition is not multiplication; parentheses nest at most _MAX_NESTING
deep.  Invariant chains use the same grammar with "Y" in place of "D" (and
commutative multiplication).

Serialized values (operators, polynomials in Y, rational functions) re-parse
to equal objects; constants of GF(q)(t^p) are printed in t^p form, never
through an explicit second variable.

A report that cannot be written to stdout (a full device, a closed pipe) ends
like every other error: one JSON line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .decomp import DecompositionReport, lclm_decompose, nice_repr
from .errors import (
    ConstantFieldViolation,
    DegreeMismatch,
    DivisionByOperator,
    DivisionByZero,
    ExprSyntaxError,
    InseparableFactor,
    NotPrime,
    OredecompError,
    ReducibleModulus,
    RetryExhausted,
    VerificationFailed,
)
from .fieldkit import FqField, Poly, RatFuncField, binary_power, fq_make
from .ore import OrePoly, gcrd, lclm, apply_to, operator_degree
from .pcurv import (
    checked_invariants,
    frobenius_invariants,
    pcurv_data,
    ypoly_pth_power,
)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_SYMBOLS = ("D", "t", "g", "Y")

# each "(" costs the recursive-descent parser four stack frames, so this bound
# keeps a parse well inside Python's default recursion limit of 1000
_MAX_NESTING = 100

# a^e, a*b and a/b are refused when their result would exceed these sizes
# (degree in D or Y, and t-degree of a coefficient's numerator or
# denominator), estimated as e times the size of a, or as the sum of the
# sizes of a and b, except that an operator product A*B has t-degree
# t(A) + t(B) + ord A * tden(B), tden(B) the largest t-degree of a
# denominator of B; they refuse absurd inputs, not slow ones
_MAX_POWER_DEGREE = 1024
_MAX_POWER_T_DEGREE = 65536


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("uint", int(text[i:j]), i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


def _size(value):
    """The degree of an operator or Y-polynomial in its variable, the
    largest t-degree of a coefficient's numerator or denominator, and the
    largest t-degree of a denominator."""
    if isinstance(value, _Size):
        return value
    return (len(value.coeffs) - 1,
            max((max(c.num.degree, c.den.degree) for c in value.coeffs), default=0),
            max((c.den.degree for c in value.coeffs), default=0))


class _Parser:
    """Recursive-descent parser over an evaluation algebra.

    The algebra supplies the symbol values and the ring operations; the same
    parser therefore serves noncommutative operators (D) and commutative
    polynomials in Y."""

    def __init__(self, text, algebra):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.algebra = algebra
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError("expected %r, found %r" % (kind, tok[1]), tok[2])
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError("trailing input %r" % tok[1], tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.factor()
            (da, ta, sa), (db, tb, sb) = _size(value), _size(rhs)
            if op == "/":
                size = _Size((da + db, ta + tb, sa + tb))
            elif self.algebra.var == "D":
                # D^i B holds up to i derivatives of B's coefficients; each
                # raises a denominator's power by one and a numerator's
                # degree by at most tden(B)
                size = _Size((da + db, ta + tb + da * sb, sa + (da + 1) * sb))
            else:
                size = _Size((da + db, ta + tb, sa + sb))
            self.refuse_oversized(size[0], size[1], pos,
                                  "product" if op == "*" else "quotient")
            if isinstance(value, _Size):
                value = size
            elif op == "*":
                value = value * rhs
            else:
                value = self.algebra.div(value, rhs, pos)
        return value

    def factor(self):
        value = self.base()
        if self.peek()[0] == "^":
            pos = self.next()[2]
            tok = self.next()
            if tok[0] != "uint":
                raise ExprSyntaxError("exponent must be a nonnegative integer", tok[2])
            e = tok[1]
            degree, t_degree, _ = _size(value)
            self.refuse_oversized(e * degree, e * t_degree, pos, "power")
            value = self.algebra.pow(value, e)
        return value

    def refuse_oversized(self, degree, t_degree, pos, what):
        if degree > _MAX_POWER_DEGREE or t_degree > _MAX_POWER_T_DEGREE:
            raise ExprSyntaxError(
                "%s too large: the result would exceed degree %d in %s "
                "or %d in t" % (what, _MAX_POWER_DEGREE, self.algebra.var,
                                _MAX_POWER_T_DEGREE), pos)

    def base(self):
        tok = self.next()
        kind, val, pos = tok
        if kind == "uint":
            return self.algebra.from_int(val)
        if kind == "sym":
            return self.algebra.symbol(val, pos)
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ExprSyntaxError(
                    "parentheses nested deeper than %d" % _MAX_NESTING, pos)
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ExprSyntaxError("unexpected token %r" % val, pos)


class _Algebra:
    """Evaluation into GF(q)(t)<D> (ring OrePoly, variable D) or into the
    commutative polynomial ring GF(q)(t)[Y] (ring Poly, variable Y)."""

    def __init__(self, ring, var: str, ratfield: RatFuncField):
        self.ring = ring
        self.var = var
        self.ratfield = ratfield

    def const(self, c):
        return self.ring.const(self.ratfield, c)

    def from_int(self, k):
        return self.const(self.ratfield.from_int(k))

    def symbol(self, name, pos):
        if name == self.var:
            return self.ring(self.ratfield, (self.ratfield.zero, self.ratfield.one))
        if name == "t":
            return self.const(self.ratfield.t)
        if name == "g":
            base = self.ratfield.base
            if base.n == 1:
                raise ExprSyntaxError("symbol g is undefined over a prime field", pos)
            return self.const(self.ratfield.from_base(base.gen()))
        raise ExprSyntaxError("symbol %r not allowed here" % name, pos)

    def div(self, a, b, pos):
        if len(b.coeffs) > 1:
            raise DivisionByOperator(
                "division by a term of degree %d in %s" % (len(b.coeffs) - 1, self.var))
        if not b:
            raise DivisionByZero("division by zero")
        return a.scale(b.coeff(0).inv())

    def pow(self, a, e):
        return binary_power(a, e, self.ring.one(self.ratfield))


class _Size(tuple):
    """A size estimate (degree in D or Y, t-degree, denominator t-degree) in
    place of a value: sums and differences take the larger size; the parser
    sizes products and quotients itself."""

    def __add__(self, other):
        return _Size(map(max, self, other))

    __sub__ = __add__


class _SizeAlgebra:
    """Evaluation into size estimates read off the text: D or Y counts
    (1, 0, 0), t (0, 1, 0), integers and g (0, 0, 0).  A first parse on these
    refuses an oversized power, product or quotient before any value is
    built; the parse on values checks each bound again on the built
    operands, which can outgrow the estimate (1/t + 1/(t+1) has t-degree
    2)."""

    def __init__(self, var: str):
        self.var = var

    def from_int(self, k):
        return _Size((0, 0, 0))

    def symbol(self, name, pos):
        return _Size((1, 0, 0) if name == self.var
                     else (0, 1, 0) if name == "t" else (0, 0, 0))

    def pow(self, a, e):
        return _Size(e * x for x in a)


def parse_operator(text: str, field: FqField) -> OrePoly:
    """Parse an operator expression over GF(q)(t)."""
    _Parser(text, _SizeAlgebra("D")).parse()
    return _Parser(text, _Algebra(OrePoly, "D", RatFuncField(field))).parse()


def parse_ypoly(text: str, field: FqField) -> Poly:
    """Parse a commutative polynomial in Y over GF(q)(t)."""
    _Parser(text, _SizeAlgebra("Y")).parse()
    return _Parser(text, _Algebra(Poly, "Y", RatFuncField(field))).parse()


# deterministic serialization (inverse of the grammar above) lives in
# serialize.py; re-exported here as part of the CLI surface
from .serialize import (  # noqa: E402
    fq_str,
    operator_str,
    poly_str,
    ratfunc_str,
    spoly_str,
    ypoly_str,
)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _build_field(args) -> FqField:
    modulus = None
    if args.modulus:
        modulus = [int(x) for x in args.modulus.split(",")]
    return fq_make(args.p, args.n, modulus)


def _field_json(field: FqField) -> dict:
    return {"p": field.p, "n": field.n, "modulus": list(field.modulus)}


def _read_expr(raw: str) -> str:
    if raw == "-":
        return sys.stdin.read()
    return raw


def _factor_entry(op, degree, label=None, indecomposable=None):
    entry = {
        "expr": operator_str(op),
        "order": op.order,
        "degree": degree,
    }
    if label is not None:
        entry["invariant"] = label
    if indecomposable is not None:
        entry["indecomposable"] = indecomposable
    return entry


def _report_json(report: DecompositionReport, field: FqField, args, elapsed_ms):
    factors = []
    for i, op in enumerate(report.factors):
        label = report.labels[i]
        indec = None
        if report.flags is not None:
            indec = report.flags.indecomposable_ok[i]
        factors.append(_factor_entry(
            op,
            report.degrees[i],
            label=ypoly_str(label.n_star ** label.nu),
            indecomposable=indec,
        ))
    doc = {
        "input": operator_str(report.input),
        "field": _field_json(field),
        "monic_input": operator_str(report.monic_input),
        "char_poly": spoly_str(report.charpoly),
        "invariants": [spoly_str(P) for P in report.invariants],
        "invariant_roots": [ypoly_str(Q) for Q in report.invariant_roots],
        "factors": factors,
        "iso_witness": operator_str(report.iso_witness) if report.iso_witness else None,
        "verified": report.verified,
        "seed": report.seed,
    }
    if not args.no_timings:
        doc["timings_ms"] = elapsed_ms
    return doc


def _cmd_decompose(args, field):
    L = parse_operator(_read_expr(args.expr[0]), field)
    start = time.perf_counter()
    report = lclm_decompose(L, seed=args.seed, verify=not args.no_verify)
    elapsed = round((time.perf_counter() - start) * 1000.0, 3)
    return _report_json(report, field, args, elapsed)


def _cmd_pcurvature(args, field):
    L = parse_operator(_read_expr(args.expr[0]), field)
    start = time.perf_counter()
    data = pcurv_data(L.monic())
    # the record reduces its matrix when first read: time that too
    in_constants = data.matrix_constants is not None
    elapsed = round((time.perf_counter() - start) * 1000.0, 3)
    doc = {
        "input": operator_str(L),
        "field": _field_json(field),
        "monic_input": operator_str(L.monic()),
        "matrix": [[ratfunc_str(e) for e in row] for row in data.matrix.rows],
        "matrix_in_constant_field": in_constants,
        "char_poly": spoly_str(data.charpoly),
        "invariants": [spoly_str(P) for P in data.invariants],
        "invariant_roots": [ypoly_str(Q) for Q in data.invariant_roots],
        "seed": args.seed,
    }
    if not args.no_timings:
        doc["timings_ms"] = elapsed
    return doc


def _cmd_gcrd(args, field):
    ops = [parse_operator(_read_expr(e), field) for e in args.expr]
    acc = ops[0]
    for op in ops[1:]:
        acc = gcrd(acc, op)
    return {
        "inputs": [operator_str(op) for op in ops],
        "field": _field_json(field),
        "result": operator_str(acc),
        "order": acc.order,
    }


def _cmd_lclm(args, field):
    ops = [parse_operator(_read_expr(e), field) for e in args.expr]
    acc = lclm(ops)
    return {
        "inputs": [operator_str(op) for op in ops],
        "field": _field_json(field),
        "result": operator_str(acc),
        "order": acc.order,
    }


def _cmd_apply(args, field):
    L = parse_operator(_read_expr(args.expr[0]), field)
    fop = parse_operator(_read_expr(args.expr[1]), field)
    if fop.order > 0:
        raise DivisionByOperator("the second operand must have order 0")
    f = fop.coeff(0)
    return {
        "operator": operator_str(L),
        "argument": ratfunc_str(f),
        "field": _field_json(field),
        "result": ratfunc_str(apply_to(L, f)),
    }


def _cmd_equivalent(args, field):
    L1 = parse_operator(_read_expr(args.expr[0]), field)
    L2 = parse_operator(_read_expr(args.expr[1]), field)
    inv1 = checked_invariants(L1.monic())
    inv2 = checked_invariants(L2.monic())
    return {
        "inputs": [operator_str(L1), operator_str(L2)],
        "field": _field_json(field),
        "invariants": [[spoly_str(P) for P in inv1], [spoly_str(P) for P in inv2]],
        "equivalent": inv1 == inv2,
    }


def _cmd_repr(args, field):
    if not args.invariants:
        raise ExprSyntaxError("repr needs --invariants \"Q1;Q2;...\"", 0)
    chain = [parse_ypoly(part, field) for part in args.invariants.split(";")]
    start = time.perf_counter()
    rep = nice_repr(chain)
    roundtrip = frobenius_invariants(rep.l_star)
    expected = [ypoly_pth_power(q) for q in chain if q.degree > 0]
    elapsed = round((time.perf_counter() - start) * 1000.0, 3)
    doc = {
        "invariants_requested": [ypoly_str(q) for q in chain],
        "field": _field_json(field),
        "l_star": operator_str(rep.l_star),
        "factors": [
            _factor_entry(op, operator_degree(op),
                          label=ypoly_str(lab.n_star ** lab.nu))
            for op, lab in zip(rep.pieces, rep.labels)
        ],
        "roundtrip_invariants": [spoly_str(P) for P in roundtrip],
        "verified": roundtrip == expected,
        "seed": args.seed,
    }
    if not args.no_timings:
        doc["timings_ms"] = elapsed
    return doc


# subcommand -> (handler, number of --expr operands, True if that number is
# only the least)
_COMMANDS = {
    "decompose": (_cmd_decompose, 1, False),
    "pcurvature": (_cmd_pcurvature, 1, False),
    "gcrd": (_cmd_gcrd, 2, True),
    "lclm": (_cmd_lclm, 2, True),
    "apply": (_cmd_apply, 2, False),
    "equivalent": (_cmd_equivalent, 2, False),
    "repr": (_cmd_repr, 0, False),
}


def _check_operands(command: str, exprs) -> None:
    _, want, at_least = _COMMANDS[command]
    if len(exprs) == want or (at_least and len(exprs) > want):
        return
    raise ExprSyntaxError("%s takes %s %d --expr operand%s, got %d" % (
        command, "at least" if at_least else "exactly", want,
        "" if want == 1 else "s", len(exprs)), 0)


def _make_argparser():
    parser = argparse.ArgumentParser(
        prog="oredecomp",
        description="LCLM-decomposition of linear differential operators "
                    "over GF(p^n)(t) in characteristic p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--p", type=int, required=True, help="characteristic")
        sp.add_argument("--n", type=int, default=1, help="extension degree")
        sp.add_argument("--modulus", type=str, default=None,
                        help="defining polynomial c0,c1,...,1")
        sp.add_argument("--expr", action="append", default=[],
                        help="operator expression ('-' reads stdin)")
        sp.add_argument("--invariants", type=str, default=None,
                        help="semicolon-separated chain Q1;Q2;...")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json-out", type=str, default=None)
        sp.add_argument("--no-timings", action="store_true")
        sp.add_argument("--no-verify", action="store_true")
    return parser


# Exit code per error class; the first matching row wins, and the last row
# catches every other domain error.
_EXIT_CODES = (
    ((ExprSyntaxError, DivisionByOperator, DivisionByZero,
      NotPrime, ReducibleModulus, DegreeMismatch, ValueError, OSError), 2),
    ((InseparableFactor,), 3),
    ((VerificationFailed, ConstantFieldViolation), 4),
    ((RetryExhausted,), 5),
    ((OredecompError,), 6),
)


def _error_exit(exc) -> int:
    print(json.dumps({"error": str(exc), "class": type(exc).__name__}),
          file=sys.stderr)
    return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


def run(argv) -> int:
    parser = _make_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _check_operands(args.command, args.expr)
        field = _build_field(args)
        doc = _COMMANDS[args.command][0](args, field)
    except (OredecompError, ValueError) as exc:
        return _error_exit(exc)
    text = json.dumps(doc, indent=2)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _error_exit(exc)
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit, which must not raise
        sys.stdout = open(os.devnull, "w")
        return _error_exit(exc)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
