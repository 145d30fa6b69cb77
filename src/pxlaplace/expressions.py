"""Tiny scalar-expression language for coefficient fields.

One table, ``_BINARY``, gives each binary operator a binding power
(higher binds tighter) and the function that applies it:

    +  -   power 1       *  /   power 2       ^   power 3

The parser, the evaluator and the printer all read it.
Operands are unary expressions (whitespace-insensitive):

    unary := '-'? base
    base  := number | 'x' | 'y' | ident '(' expr (',' expr)* ')' | '(' expr ')'

where expr is any binary expression.  '+', '-', '*' and '/' are
left-associative, so 1-2-3 is (1-2)-3; '^' is right-associative, so
2^3^2 is 2^(3^2).  A unary minus binds tighter than every operator:
-2^2 is (-2)^2 = 4.

Known functions: sin, cos, exp, log, abs, sqrt, min, max (min/max binary).
Evaluation has no short-circuit: every operand and argument is evaluated,
so an expression that names y raises ``ValueError`` when evaluated
without y (as on a 1D mesh), wherever the y sits in the tree.
Parse errors carry the byte offset of the offending token.  Printing a
parsed expression and reparsing it reproduces the same tree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["ScalarExpr", "parse_expr", "ExprError"]

_FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "exp": (1, np.exp),
    "log": (1, np.log),
    "abs": (1, np.abs),
    "sqrt": (1, np.sqrt),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}

# operator: (binding power, function); '^' alone is right-associative
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub),
           "*": (2, operator.mul), "/": (2, operator.truediv),
           "^": (3, operator.pow)}


class ExprError(ValueError):
    """Parse or evaluation error, with the source byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ScalarExpr:
    """Parsed expression tree over the variables x and y."""

    node: tuple  # ("num", v) | ("var", name) | ("neg", e) | (op, a, b) | ("call", name, args)

    def evaluate(self, x, y=None):
        env = {"x": np.asarray(x, dtype=float)}
        if y is not None:
            env["y"] = np.asarray(y, dtype=float)

        def ev(n):
            tag = n[0]
            if tag == "num":
                return n[1]
            if tag == "var":
                if n[1] not in env:
                    raise ValueError(f"variable '{n[1]}' not available here")
                return env[n[1]]
            if tag == "neg":
                return -ev(n[1])
            if tag in _BINARY:
                return _BINARY[tag][1](ev(n[1]), ev(n[2]))
            if tag == "call":
                _, fn = _FUNCTIONS[n[1]]
                return fn(*[ev(a) for a in n[2]])
            raise AssertionError(f"unknown node {tag}")

        return ev(self.node)

    def __str__(self):
        def s(n):
            tag = n[0]
            if tag == "num":
                return repr(n[1])
            if tag == "var":
                return n[1]
            if tag == "neg":
                return f"(-{s(n[1])})"
            if tag in _BINARY:
                return f"({s(n[1])}{tag}{s(n[2])})"
            if tag == "call":
                return f"{n[1]}({','.join(s(a) for a in n[2])})"
            raise AssertionError

        return s(self.node)


def _tokenize(src: str):
    tokens = []  # (kind, text_or_value, offset)
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] in ".eE" or
                             (src[j] in "+-" and j > i and src[j - 1] in "eE")):
                j += 1
            try:
                val = float(src[i:j])
            except ValueError:
                raise ExprError(f"bad number {src[i:j]!r}", i) from None
            tokens.append(("num", val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def parse_expr(source: str) -> ScalarExpr:
    """Parse ``source`` into a ScalarExpr; raises ExprError with offsets."""
    if not isinstance(source, str) or not source.strip():
        raise ExprError("empty expression", 0)
    toks = _tokenize(source)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(kind=None):
        t = toks[pos[0]]
        if kind is not None and t[0] != kind:
            raise ExprError(f"expected {kind!r}, found {t[1]!r}", t[2])
        pos[0] += 1
        return t

    def binary(min_power):
        """Operands joined by operators of at least ``min_power``."""
        node = unary()
        while _BINARY.get(peek()[0], (0,))[0] >= min_power:
            op = take()[0]
            power = _BINARY[op][0]
            node = (op, node, binary(power if op == "^" else power + 1))
        return node

    def unary():
        if peek()[0] == "-":
            take()
            return ("neg", base())
        return base()

    def base():
        t = peek()
        if t[0] == "num":
            take()
            return ("num", t[1])
        if t[0] == "(":
            take()
            node = binary(1)
            take(")")
            return node
        if t[0] == "ident":
            take()
            name = t[1]
            if peek()[0] == "(":
                if name not in _FUNCTIONS:
                    raise ExprError(f"unknown function {name!r}", t[2])
                take("(")
                args = [binary(1)]
                while peek()[0] == ",":
                    take()
                    args.append(binary(1))
                take(")")
                arity = _FUNCTIONS[name][0]
                if len(args) != arity:
                    raise ExprError(
                        f"{name} takes {arity} argument(s), got {len(args)}", t[2])
                return ("call", name, tuple(args))
            if name in ("x", "y"):
                return ("var", name)
            raise ExprError(f"unknown identifier {name!r}", t[2])
        raise ExprError(f"unexpected token {t[1]!r}", t[2])

    node = binary(1)
    t = peek()
    if t[0] != "end":
        raise ExprError(f"trailing input {t[1]!r}", t[2])
    return ScalarExpr(node)
