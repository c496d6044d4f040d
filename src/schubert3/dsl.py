"""Tiny expression language for Schubert class arithmetic.

Grammar, with insignificant whitespace:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := int | ident | '-' base | '(' expr ')'

One table, `_BINARY`, gives each binary operator its node, binding power and
printed form.  The parser climbs precedence over it (Pratt, POPL 1973), and the
printer parenthesises an operand only when it binds less tightly than its slot.
Evaluation goes through one table keyed by node type, `_EVALUATE`.

Multiplication is always spelled '*'; juxtaposition is a syntax error.
Exponents are literal non-negative integers up to MAX_EXPONENT, integer
literals have at most MAX_LITERAL_DIGITS digits, expressions nest at most
MAX_DEPTH levels deep, and evaluation refuses any product whose coefficients
could pass MAX_COEFFICIENT_BITS.  That limit bounds bits, not terms: evaluation
stays small because each of the four spaces has finite rank, while a free ring
(such as a test's fake space) can still grow in terms.  Note that '-' lives at
the base level, so "-g^2" parses as (-g)^2 and squaring-then-negating must be
written "-(g^2)".
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
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

# Each binary operator once: its node, its binding power and its printed form.
# A power binds at 3, and a number, a name or a negation at 4.
_BINARY = {"+": (Add, 1, " + "), "-": (Sub, 1, " - "), "*": (Mul, 2, "*")}
_INFIX = {cls: (bind, shown) for cls, bind, shown in _BINARY.values()}
_OPS = {*_BINARY, *"^()"}

# Deepest expression `parse` accepts.  A number or a name has depth 1, and
# every unary minus, binary operator, power and pair of parentheses adds one
# level above its deepest operand, so a flat chain g+g+...+g of k terms has
# depth k.  Per level the parser recurses about 3 frames for parentheses, and
# `to_source` and `evaluate` (a node's rule, then `evaluate` of its operand) 2,
# so a recursion limit of 3*MAX_DEPTH + 50 holds every accepted expression,
# far inside Python's default of 1000.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested more than {MAX_DEPTH} levels deep"

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
# digits, about 14,284 bits, past which it could not be printed.  The limit bounds
# bits, not terms: the four spaces have finite rank, so an element there has few
# terms, but a free ring can still grow in terms below it.
MAX_COEFFICIENT_BITS = 10_000


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # ASCII digits only: str.isdigit() also takes superscripts, which
        # int() rejects, and other scripts' digits, which int() reads as 0-9
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
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
    yield ("end", "end of input", n)  # its text is what error messages show


# Nodes are built with `tuple.__new__`, past the IntLit and Pow checks: the
# parser makes only the literals and exponents that `literal` has read.
class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.groups = 0  # parentheses and unary minus signs open at the cursor

    def literal(self, value: str, at: int) -> int:
        digits = value.lstrip("0") or "0"
        if len(digits) > MAX_LITERAL_DIGITS:
            raise ParseError(f"literal of {len(digits)} digits exceeds the limit {MAX_LITERAL_DIGITS}", at)
        return int(digits)

    # Each method returns (node, depth of the node's subtree); a subtree inside
    # `groups` open groups sits that many levels deeper in the whole tree.
    def expr(self, tighter: int = 1) -> tuple[Expr, int]:
        """Precedence climbing: take each operator that binds at least `tighter`."""
        node, depth = self.factor()
        while True:
            _, value, at = self.tokens[self.pos]
            op = _BINARY.get(value)  # only operator tokens spell an operator
            if op is None or op[1] < tighter:
                return node, depth
            cls, bind, _ = op
            self.pos += 1
            rhs, rdepth = self.expr(bind + 1)  # bind + 1: every operator is left-associative
            node = tuple.__new__(cls, (node, rhs))
            depth = (depth if depth > rdepth else rdepth) + 1
            if self.groups + depth > MAX_DEPTH:
                raise ParseError(_TOO_DEEP, at)

    def factor(self) -> tuple[Expr, int]:
        node, depth = self.base()
        if self.tokens[self.pos][1] == "^":  # only an operator token reads "^"
            kind, value, at = self.tokens[self.pos + 1]
            self.pos += 2
            if kind != "int":
                raise ParseError(f"exponent must be a non-negative integer literal, found {value!r}", at)
            exp = self.literal(value, at)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {value} exceeds the limit {MAX_EXPONENT}", at)
            node = tuple.__new__(Pow, (node, exp))
            depth += 1
            if self.groups + depth > MAX_DEPTH:
                raise ParseError(_TOO_DEEP, at)
        return node, depth

    def base(self) -> tuple[Expr, int]:
        kind, value, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "int":
            return tuple.__new__(IntLit, (self.literal(value, at),)), 1
        if kind == "ident":
            return tuple.__new__(Sym, (value,)), 1
        if value == "-" or value == "(":  # the end token reads "end of input"
            self.groups += 1
            if self.groups >= MAX_DEPTH:  # the group is a level above its operand
                raise ParseError(_TOO_DEEP, at)
            if value == "-":
                node, depth = self.base()
                node = tuple.__new__(Neg, (node,))
            else:
                node, depth = self.expr()
                _, value, at = self.tokens[self.pos]
                self.pos += 1
                if value != ")":
                    raise ParseError(f"expected ')', found {value!r}", at)
            self.groups -= 1
            return node, depth + 1
        raise ParseError(f"expected a value, found {value!r}", at)


def parse(text: str) -> Expr:
    parser = _Parser(text)
    node, _ = parser.expr()
    kind, value, at = parser.tokens[parser.pos]
    if kind != "end":
        raise ParseError(f"unexpected {value!r} after complete expression", at)
    return node


def _operand(node: Expr, needs: int) -> str:
    # parenthesised exactly when the operand binds less tightly than its slot needs
    text = to_source(node)
    infix = _INFIX.get(type(node))
    binds = infix[0] if infix else 3 if isinstance(node, Pow) else 4
    return text if binds >= needs else f"({text})"


def to_source(node: Expr) -> str:
    """Render an expression; parse(to_source(e)) reproduces e exactly."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return "-" + _operand(node.op, 4)
    if isinstance(node, Pow):
        return f"{_operand(node.base, 4)}^{node.exp}"
    infix = _INFIX.get(type(node))
    if infix is None:
        raise TypeError(f"not an expression node: {node!r}")
    bind, shown = infix
    return _operand(node.left, bind) + shown + _operand(node.right, bind + 1)


def evaluate(node: Expr, space):
    """Evaluate an expression to a ring element of `space`.

    The space must expose `ring` and a `symbols` mapping from names to ring
    elements; unknown names report the available vocabulary, and a product
    or power past MAX_COEFFICIENT_BITS raises EvaluationError.
    """
    rule = _EVALUATE.get(type(node))
    if rule is None:
        raise TypeError(f"not an expression node: {node!r}")
    return rule(node, space)


def _symbol(node: Sym, space):
    try:
        return space.symbols[node.name]
    except KeyError:
        raise EvaluationError(
            f"unknown symbol {node.name!r} in {space.name}; "
            f"available: {', '.join(sorted(space.symbols))}"
        ) from None


def _checked(node: Expr, a, b):
    """a*b for `node`, refused when its factors' coefficients could pass MAX_COEFFICIENT_BITS."""
    # a zero factor counts as 0 bits; `or (0,)` is about twice as fast as max's default=0
    a_bits = max(map(int.bit_length, a.terms.values() or (0,)))
    b_bits = max(map(int.bit_length, b.terms.values() or (0,)))
    if a_bits + b_bits > MAX_COEFFICIENT_BITS:
        raise EvaluationError(
            f"evaluation of {to_source(node)} stopped: factors with {a_bits}- and "
            f"{b_bits}-bit coefficients pass the limit of {MAX_COEFFICIENT_BITS} bits"
        )
    return a * b


_EVALUATE = {
    IntLit: lambda node, space: space.ring._constant(node.value),
    Sym: _symbol,
    Neg: lambda node, space: -evaluate(node.op, space),
    Add: lambda node, space: evaluate(node.left, space) + evaluate(node.right, space),
    Sub: lambda node, space: evaluate(node.left, space) - evaluate(node.right, space),
    Mul: lambda node, space: _checked(node, evaluate(node.left, space), evaluate(node.right, space)),
    Pow: lambda node, space: power(evaluate(node.base, space), node.exp, partial(_checked, node)),
}
