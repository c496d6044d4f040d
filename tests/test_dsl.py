"""Parser, printer and evaluator for the expression language."""

from collections import namedtuple
import os
from pathlib import Path
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

import schubert3
from schubert3.dsl import (
    MAX_COEFFICIENT_BITS,
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    Add,
    EvaluationError,
    IntLit,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Sym,
    evaluate,
    parse,
    to_source,
)
from schubert3.graded_ring import PolyRing
from schubert3.spaces import SPACE_NAMES, space


def test_parse_shapes_frozen():
    assert parse("g^2 + 2*g_e - 1") == Sub(
        Add(Pow(Sym("g"), 2), Mul(IntLit(2), Sym("g_e"))), IntLit(1)
    )
    assert parse("-g^2") == Pow(Neg(Sym("g")), 2)
    assert parse("-(g^2)") == Neg(Pow(Sym("g"), 2))
    assert parse("g*(p + 1)") == Mul(Sym("g"), Add(Sym("p"), IntLit(1)))
    assert parse("a - b - c") == Sub(Sub(Sym("a"), Sym("b")), Sym("c"))
    assert parse("a*b*c") == Mul(Mul(Sym("a"), Sym("b")), Sym("c"))
    assert parse("2^3") == Pow(IntLit(2), 3)
    assert parse("--x") == Neg(Neg(Sym("x")))
    assert parse(" g ^ 2 ") == parse("g^2")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("g^-1")
    assert err.value.position == 2
    assert "non-negative" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse("2 g")
    assert err.value.position == 2

    with pytest.raises(ParseError) as err:
        parse("g**2")
    assert err.value.position == 2

    with pytest.raises(ParseError) as err:
        parse("(g + 1")
    assert "expected ')'" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse("g $ 2")
    assert err.value.position == 2

    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("g^2^3")
    with pytest.raises(ParseError):
        parse("g +")


# the deepest accepted input of each shape
AT_LIMIT = [
    "(" * (MAX_DEPTH - 1) + "g" + ")" * (MAX_DEPTH - 1),
    "-" * (MAX_DEPTH - 1) + "g",
    "+".join(["g"] * MAX_DEPTH),
    "*".join(["g"] * MAX_DEPTH),
    "(" * (MAX_DEPTH - 3) + "g^2+g" + ")" * (MAX_DEPTH - 3),
]


def test_parse_depth_limit():
    """Parentheses, unary minus and binary operators each add one level."""
    for text in AT_LIMIT:
        parse(text)
    for text in AT_LIMIT:
        deeper = text.replace("g", "(g)", 1)
        with pytest.raises(ParseError, match="nested more than"):
            parse(deeper)
    with pytest.raises(ParseError) as err:
        parse("+".join(["g"] * (MAX_DEPTH + 1)))
    assert err.value.position == 2 * MAX_DEPTH - 1


def test_max_depth_fits_its_recursion_budget():
    # MAX_DEPTH promises about 3 frames per level to the parser, 2 to the
    # printer and 1 to evaluate; a fresh interpreter holds them to that budget
    code = f"""
import sys
from schubert3.dsl import evaluate, parse, to_source
from schubert3.spaces import space
G = space("G")
sys.setrecursionlimit({3 * MAX_DEPTH + 50})
for text in {AT_LIMIT!r}:
    tree = parse(text)
    assert parse(to_source(tree)) == tree
    evaluate(tree, G)
print("ok")
"""
    src = str(Path(schubert3.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_parse_exponent_limit():
    assert parse(f"g^{MAX_EXPONENT}") == Pow(Sym("g"), MAX_EXPONENT)
    with pytest.raises(ParseError, match="exceeds the limit") as err:
        parse(f"g^{MAX_EXPONENT + 1}")
    assert err.value.position == 2
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse("g^" + "9" * 5000)


def test_parse_literal_limit():
    at_limit = "9" * MAX_LITERAL_DIGITS
    assert parse(at_limit) == IntLit(int(at_limit))
    assert parse("000" + at_limit) == IntLit(int(at_limit))
    with pytest.raises(ParseError, match="exceeds the limit") as err:
        parse("g + " + at_limit + "9")
    assert err.value.position == 4
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse("9" * 5000)


def test_printer_frozen():
    assert to_source(parse("g^2 + 2*g_e - 1")) == "g^2 + 2*g_e - 1"
    assert to_source(Neg(Pow(Sym("g"), 2))) == "-(g^2)"
    assert to_source(Pow(Neg(Sym("g")), 2)) == "-g^2"
    assert to_source(Mul(Add(Sym("a"), Sym("b")), Sym("c"))) == "(a + b)*c"
    assert to_source(Mul(Sym("a"), Mul(Sym("b"), Sym("c")))) == "a*(b*c)"
    assert to_source(Sub(Sym("a"), Sub(Sym("b"), Sym("c")))) == "a - (b - c)"
    assert to_source(Pow(Pow(Sym("g"), 2), 3)) == "(g^2)^3"
    assert to_source(parse("g*(p + 1)")) == "g*(p + 1)"


def test_printer_prints_the_fewest_parentheses():
    # every tree with one or two levels of operators over the leaves a and b
    def grow(kids):
        return (
            [Neg(k) for k in kids]
            + [Pow(k, 2) for k in kids]
            + [cls(x, y) for cls in (Add, Sub, Mul) for x in kids for y in kids]
        )

    trees = grow([Sym("a"), Sym("b"), *grow([Sym("a"), Sym("b")])])
    assert len(set(trees)) == 1008
    for tree in trees:
        text = to_source(tree)
        assert parse(text) == tree
        opened = []
        for j, ch in enumerate(text):
            if ch == "(":
                opened.append(j)
            elif ch == ")":
                i = opened.pop()
                fewer = text[:i] + text[i + 1 : j] + text[j + 1 :]
                try:
                    assert parse(fewer) != tree, f"{text} needs no parentheses at {i}"
                except ParseError:
                    pass


NAMES = ["g", "g_e", "g_p", "g_s", "G", "p", "e", "t", "c1", "x_0"]
_atoms = st.one_of(
    st.integers(0, 99).map(IntLit),
    st.sampled_from(NAMES).map(Sym),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(children, children).map(lambda t: Add(*t)),
        st.tuples(children, children).map(lambda t: Sub(*t)),
        st.tuples(children, children).map(lambda t: Mul(*t)),
        st.tuples(children, st.integers(0, 9)).map(lambda t: Pow(*t)),
    )


expressions = st.recursive(_atoms, _extend, max_leaves=25)


@given(expressions)
def test_print_parse_round_trip(expr):
    assert parse(to_source(expr)) == expr


class _FakeSpace:
    name = "F"

    def __init__(self):
        self.ring = PolyRing([("x", 1), ("y", 2)])
        self.symbols = {"x": self.ring.gen("x"), "y": self.ring.gen("y")}


def test_evaluate_basics():
    sp = _FakeSpace()
    x, y = sp.ring.gens()
    assert evaluate(parse("x^2 - 2*y"), sp) == x**2 - 2 * y
    assert evaluate(parse("-x*(x + 3)"), sp) == -(x**2) - 3 * x
    assert evaluate(parse("7"), sp) == 7 * sp.ring.one()
    assert evaluate(parse("-x^2"), sp) == x**2


def _direct(node, symbols, one):
    """The value of an expression by +, -, *, ** and the symbols map, with no limit."""
    if isinstance(node, IntLit):
        return node.value * one
    if isinstance(node, Sym):
        return symbols[node.name]
    if isinstance(node, Neg):
        return -_direct(node.op, symbols, one)
    if isinstance(node, Pow):
        return _direct(node.base, symbols, one) ** node.exp
    left, right = _direct(node.left, symbols, one), _direct(node.right, symbols, one)
    return {Add: left + right, Sub: left - right, Mul: left * right}[type(node)]


def _degree(node) -> int:
    """A bound on the degree of an expression in its names and numbers."""
    if isinstance(node, (IntLit, Sym)):
        return 1
    if isinstance(node, Neg):
        return _degree(node.op)
    if isinstance(node, Pow):
        return node.exp * _degree(node.base)
    if isinstance(node, Mul):
        return _degree(node.left) + _degree(node.right)
    return max(_degree(node.left), _degree(node.right))


@pytest.mark.parametrize("name", ["F", *SPACE_NAMES])
@given(expressions)
def test_evaluate_agrees_with_direct_arithmetic(name, expr):
    # up to degree 16 no coefficient comes near MAX_COEFFICIENT_BITS, and the
    # free ring of the fake space stays small
    assume(_degree(expr) <= 16)
    sp = _FakeSpace() if name == "F" else space(name)
    vocabulary = sorted(sp.symbols)
    # every name of the strategy stands for one of the space's classes
    renamed = SimpleNamespace(
        name=sp.name,
        ring=sp.ring,
        symbols={n: sp.symbols[vocabulary[i % len(vocabulary)]] for i, n in enumerate(NAMES)},
    )
    assert evaluate(expr, renamed) == _direct(expr, renamed.symbols, sp.ring.one())


# a plain tuple or a look-alike with a node's fields is no node either
@pytest.mark.parametrize("bad", [3, "x", None, ("x",), namedtuple("Sym", "name")("x"), Add(Sym("x"), 3)])
def test_a_non_node_is_refused_by_type(bad):
    inner = 3 if isinstance(bad, Add) else bad  # a node with a non-node operand names the operand
    message = f"^{re.escape(f'not an expression node: {inner!r}')}$"
    with pytest.raises(TypeError, match=message):
        evaluate(bad, _FakeSpace())
    with pytest.raises(TypeError, match=message):
        to_source(bad)


def test_evaluate_unknown_symbol_lists_vocabulary():
    sp = _FakeSpace()
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("x + q"), sp)
    msg = str(err.value)
    assert "'q'" in msg and "available: x, y" in msg and "F" in msg


def test_ast_validation():
    with pytest.raises(ValueError):
        IntLit(-1)
    with pytest.raises(ValueError):
        Pow(Sym("g"), -2)


def power_of_two(k):
    """Source of 2^k as a product of powers within MAX_EXPONENT: a (k+1)-bit integer."""
    return "(" + "*".join(["2^1000"] * (k // 1000) + [f"2^{k % 1000}"]) + ")"


def test_evaluate_coefficient_limit():
    G = space("G")
    g = G.symbols["g"]
    half = MAX_COEFFICIENT_BITS // 2
    rest = MAX_COEFFICIENT_BITS - half
    # factors of half and rest bits: the longest product allowed
    product = f"{power_of_two(half - 1)}*{power_of_two(rest - 1)}"
    assert evaluate(parse(product), G) == 2 ** (MAX_COEFFICIENT_BITS - 2) * G.ring.one()
    square = f"({power_of_two(half - 1)}*g)^2"
    assert evaluate(parse(square), G) == 2 ** (2 * half - 2) * g**2

    past = f"{power_of_two(half - 1)}*{power_of_two(rest)}"
    with pytest.raises(EvaluationError) as err:
        evaluate(parse(past), G)
    assert str(err.value) == (
        f"evaluation of {to_source(parse(past))} stopped: factors with {half}- and "
        f"{rest + 1}-bit coefficients pass the limit of {MAX_COEFFICIENT_BITS} bits"
    )
    past = f"({power_of_two(rest)}*g)^2"
    with pytest.raises(EvaluationError, match=rf"^evaluation of \(2\^1000\*.*\*g\)\^2 stopped"):
        evaluate(parse(past), G)


def test_evaluate_limit_counts_a_zero_factor():
    # X is 2^10000, 10001 bits, built by sums from the longest product allowed
    G = space("G")
    X = "(" + " + ".join([power_of_two(9998)] * 4) + ")"
    assert evaluate(parse(X), G) == 2**10000 * G.ring.one()
    for text, bits in ((f"0*{X}", (0, 10001)), (f"{X}*0", (10001, 0)), (f"(g - g)*{X}", (0, 10001))):
        with pytest.raises(EvaluationError) as err:
            evaluate(parse(text), G)
        assert str(err.value) == (
            f"evaluation of {to_source(parse(text))} stopped: factors with {bits[0]}- and "
            f"{bits[1]}-bit coefficients pass the limit of {MAX_COEFFICIENT_BITS} bits"
        )
    # a power with no product is never refused
    assert evaluate(parse(f"{X}^0"), G) == G.ring.one()
    assert evaluate(parse(f"{X}^1"), G) == 2**10000 * G.ring.one()


def test_evaluate_refuses_nested_powers_at_once():
    G = space("G")
    start = time.perf_counter()
    for text in ("(2^1000)^1000", "((2^1000)^1000)^1000", "((g + 2)^1000)^1000"):
        with pytest.raises(EvaluationError, match=r"\)\^1000 stopped: .* limit of"):
            evaluate(parse(text), G)
    assert time.perf_counter() - start < 0.5


def test_evaluate_limit_judges_the_actual_factors():
    # g^5 = 0 on G, so this power's coefficients stay near 113 bits although
    # 1000 times its base's 21 bits would be far past the limit
    G = space("G")
    value = evaluate(parse("(1 + 2^20*g)^1000"), G)
    assert value == (1 + 2**20 * G.symbols["g"]) ** 1000
    assert max(abs(c) for c in value.terms.values()).bit_length() < 120
