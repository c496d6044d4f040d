"""Parser, printer and evaluator for the expression language."""

import time

import pytest
from hypothesis import given, strategies as st

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
from schubert3.spaces import space


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


def test_parse_depth_limit():
    """Parentheses, unary minus and binary operators each add one level."""
    at_limit = [
        "(" * (MAX_DEPTH - 1) + "g" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "g",
        "+".join(["g"] * MAX_DEPTH),
        "*".join(["g"] * MAX_DEPTH),
        "(" * (MAX_DEPTH - 3) + "g^2+g" + ")" * (MAX_DEPTH - 3),
    ]
    for text in at_limit:
        parse(text)
    for text in at_limit:
        deeper = text.replace("g", "(g)", 1)
        with pytest.raises(ParseError, match="nested more than"):
            parse(deeper)
    with pytest.raises(ParseError) as err:
        parse("+".join(["g"] * (MAX_DEPTH + 1)))
    assert err.value.position == 2 * MAX_DEPTH - 1


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


_names = st.sampled_from(["g", "g_e", "g_p", "g_s", "G", "p", "e", "t", "c1", "x_0"])
_atoms = st.one_of(
    st.integers(0, 99).map(IntLit),
    _names.map(Sym),
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
