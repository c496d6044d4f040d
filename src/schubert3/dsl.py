"""Tiny expression language for Schubert class arithmetic.

Grammar, with insignificant whitespace:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := int | ident | '-' base | '(' expr ')'

Multiplication is always spelled '*'; juxtaposition is a syntax error.
Exponents are literal non-negative integers up to MAX_EXPONENT, integer
literals have at most MAX_LITERAL_DIGITS digits, expressions nest at most
MAX_DEPTH levels deep, and evaluation refuses any product whose coefficients
could pass MAX_COEFFICIENT_BITS.  Note that '-' lives at the base level, so
"-g^2" parses as (-g)^2 and squaring-then-negating must be written "-(g^2)".
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Union

from .graded_ring import power

__all__ = [
    "Add",
    "EvaluationError",
    "Expr",
    "IntLit",
    "MAX_COEFFICIENT_BITS",
    "MAX_DEPTH",
    "MAX_EXPONENT",
    "MAX_LITERAL_DIGITS",
    "Mul",
    "Neg",
    "ParseError",
    "Pow",
    "Sub",
    "Sym",
    "evaluate",
    "parse",
    "to_source",
]


class ParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ValueError):
    pass


class _Node:
    """Expression nodes are immutable tuples of their fields.

    Add, Sub and Mul have the same fields, so a node equals only a node of
    its own type; equal nodes hash alike.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class IntLit(_Node, namedtuple("IntLit", "value")):
    __slots__ = ()

    def __new__(cls, value: int) -> "IntLit":
        if value < 0:
            raise ValueError("literals are non-negative; wrap Neg around IntLit")
        return tuple.__new__(cls, (value,))


class Sym(_Node, namedtuple("Sym", "name")):
    __slots__ = ()


class Neg(_Node, namedtuple("Neg", "op")):
    __slots__ = ()


class Add(_Node, namedtuple("Add", "left right")):
    __slots__ = ()


class Sub(_Node, namedtuple("Sub", "left right")):
    __slots__ = ()


class Mul(_Node, namedtuple("Mul", "left right")):
    __slots__ = ()


class Pow(_Node, namedtuple("Pow", "base exp")):
    __slots__ = ()

    def __new__(cls, base: "Expr", exp: int) -> "Pow":
        if exp < 0:
            raise ValueError("exponent must be a non-negative integer")
        return tuple.__new__(cls, (base, exp))


Expr = Union[IntLit, Sym, Neg, Add, Sub, Mul, Pow]

_OPS = set("+-*^()")

# Deepest expression `parse` accepts.  A number or a name has depth 1, and
# every unary minus, binary operator, power and pair of parentheses adds one
# level above its deepest operand, so a flat chain g+g+...+g of k terms has
# depth k.  The parser, `evaluate` and `to_source` recurse a few frames per
# level, and this bound keeps them well inside Python's recursion limit.
MAX_DEPTH = 100

# Largest exponent `parse` accepts.  A power is evaluated by square-and-multiply,
# at most 2*log2(exponent) ring products, each held to MAX_COEFFICIENT_BITS.
MAX_EXPONENT = 1000

# Most digits of an integer literal or exponent, leading zeros not counted: well
# below the 4300 digits past which int() fails without naming stage or input.
MAX_LITERAL_DIGITS = 1000

# Most bits a coefficient may reach in `evaluate`.  Each product, every step of
# a power included, is refused before it is computed when the bit lengths of its
# factors' largest coefficients add up past this limit, so no integer much longer
# is ever built: a product adds a few bits for its number of terms, and sums add
# at most a bit per level of MAX_DEPTH.  Every value stays far below the 4300
# digits, about 14,284 bits, past which it could not be printed.
MAX_COEFFICIENT_BITS = 10_000


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
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
            yield ("int", text[i:j], i)
            i = j
            continue
        if ch.isalpha():
            # idents start with a letter; underscores only continue them
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("ident", text[i:j], i)
            i = j
            continue
        if ch in _OPS:
            yield ("op", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.groups = 0  # parentheses and unary minus signs open at the cursor

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            shown = value if kind != "end" else "end of input"
            raise ParseError(f"expected {op!r}, found {shown!r}", at)
        self.advance()

    def literal(self, value: str, at: int) -> int:
        digits = value.lstrip("0") or "0"
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ParseError(f"literal of {len(digits)} digits exceeds the limit {MAX_LITERAL_DIGITS}", at)
        return int(digits)

    def too_deep(self, at: int) -> ParseError:
        return ParseError(f"expression nested more than {MAX_DEPTH} levels deep", at)

    # Each method returns (node, depth of the node's subtree); a subtree inside
    # `groups` open groups sits that many levels deeper in the whole tree.
    def expr(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while True:
            kind, value, at = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs, rdepth = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
                depth = (depth if depth > rdepth else rdepth) + 1
                if self.groups + depth > MAX_DEPTH:
                    raise self.too_deep(at)
            else:
                return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.factor()
        while True:
            kind, value, at = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                rhs, rdepth = self.factor()
                node = Mul(node, rhs)
                depth = (depth if depth > rdepth else rdepth) + 1
                if self.groups + depth > MAX_DEPTH:
                    raise self.too_deep(at)
            else:
                return node, depth

    def factor(self) -> tuple[Expr, int]:
        node, depth = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, at = self.peek()
            if kind != "int":
                shown = value if kind != "end" else "end of input"
                raise ParseError(
                    f"exponent must be a non-negative integer literal, found {shown!r}",
                    at,
                )
            exp = self.literal(value, at)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {value} exceeds the limit {MAX_EXPONENT}", at)
            self.advance()
            node = Pow(node, exp)
            depth += 1
            if self.groups + depth > MAX_DEPTH:
                raise self.too_deep(at)
        return node, depth

    def base(self) -> tuple[Expr, int]:
        kind, value, at = self.advance()
        if kind == "int":
            return IntLit(self.literal(value, at)), 1
        if kind == "ident":
            return Sym(value), 1
        if kind == "op" and value in "-(":
            self.groups += 1
            if self.groups >= MAX_DEPTH:
                raise self.too_deep(at)
            if value == "-":
                node, depth = self.base()
                node = Neg(node)
            else:
                node, depth = self.expr()
                self.expect_op(")")
            self.groups -= 1
            return node, depth + 1
        shown = value if kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", at)


def parse(text: str) -> Expr:
    parser = _Parser(text)
    node, _ = parser.expr()
    kind, value, at = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r} after complete expression", at)
    return node


def _base_source(node: Expr) -> str:
    # anything that is not already a grammar `base` needs parentheses
    if isinstance(node, (IntLit, Sym, Neg)):
        return to_source(node)
    return f"({to_source(node)})"


def to_source(node: Expr) -> str:
    """Render an expression; parse(to_source(e)) reproduces e exactly."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return "-" + _base_source(node.op)
    if isinstance(node, Pow):
        return f"{_base_source(node.base)}^{node.exp}"
    if isinstance(node, Mul):
        left = f"({to_source(node.left)})" if isinstance(node.left, (Add, Sub)) else to_source(node.left)
        right = (
            f"({to_source(node.right)})"
            if isinstance(node.right, (Add, Sub, Mul))
            else to_source(node.right)
        )
        return f"{left}*{right}"
    if isinstance(node, (Add, Sub)):
        op = " + " if isinstance(node, Add) else " - "
        right = (
            f"({to_source(node.right)})"
            if isinstance(node.right, (Add, Sub))
            else to_source(node.right)
        )
        return f"{to_source(node.left)}{op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Expr, space):
    """Evaluate an expression to a ring element of `space`.

    The space must expose `ring` and a `symbols` mapping from names to ring
    elements; unknown names report the available vocabulary, and a product
    or power past MAX_COEFFICIENT_BITS raises EvaluationError.
    """
    symbols = space.symbols
    if isinstance(node, IntLit):
        return node.value * space.ring.one()
    if isinstance(node, Sym):
        if node.name not in symbols:
            raise EvaluationError(
                f"unknown symbol {node.name!r} in {space.name}; "
                f"available: {', '.join(sorted(symbols))}"
            )
        return symbols[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.op, space)
    if isinstance(node, Add):
        return evaluate(node.left, space) + evaluate(node.right, space)
    if isinstance(node, Sub):
        return evaluate(node.left, space) - evaluate(node.right, space)
    if isinstance(node, Mul):
        return _checked_product(node)(evaluate(node.left, space), evaluate(node.right, space))
    if isinstance(node, Pow):
        return power(evaluate(node.base, space), node.exp, _checked_product(node))
    raise TypeError(f"not an expression node: {node!r}")


def _coefficient_bits(e) -> int:
    return max(map(int.bit_length, e.terms.values()), default=0)


def _checked_product(node: Expr):
    """Multiplication for `node` that refuses factors past MAX_COEFFICIENT_BITS."""

    def product(a, b):
        a_bits, b_bits = _coefficient_bits(a), _coefficient_bits(b)
        if a_bits + b_bits > MAX_COEFFICIENT_BITS:
            raise EvaluationError(
                f"evaluation of {to_source(node)} stopped: factors with {a_bits}- and "
                f"{b_bits}-bit coefficients pass the limit of {MAX_COEFFICIENT_BITS} bits"
            )
        return a * b

    return product
