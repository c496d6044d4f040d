"""The immutable record types: construction, validation, equality and repr."""

import ast
from fractions import Fraction
import random
from pathlib import Path
import re

import pytest

import schubert3
from schubert3.coincidence import CountDerivation, bitangent_derivation
from schubert3.dsl import Add, IntLit, Mul, Neg, Pow, Sub, Sym, parse
from schubert3.graded_ring import GeneratorSpec
from schubert3.oracle import SolutionSet, lines_meeting_four, random_four_lines
from schubert3.spaces import (
    FORMULAS,
    EvalResult,
    FormulaCheck,
    SchubertCombination,
    evaluate_expression,
    space,
)

SRC = Path(schubert3.__file__).resolve().parent


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
        } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "dataclasses" not in imported, path.name


def _records():
    a, b = Sym("a"), IntLit(1)
    solved = lines_meeting_four(*random_four_lines(random.Random(3)))
    return [
        IntLit(3),
        Sym("g"),
        Neg(a),
        Add(a, b),
        Sub(a, b),
        Mul(a, b),
        Pow(a, 2),
        GeneratorSpec("g", 1),
        solved,
        SolutionSet.infinite_family(),
        space("G").express_in_schubert_basis(space("G").symbols["g"] ** 2),
        FORMULAS[0],
        FormulaCheck("1", "P3", "p^2", "p_g", True),
        evaluate_expression("G", "g^4"),
        bitangent_derivation(4),
    ]


def test_records_are_immutable():
    for record in _records():
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_compare_field_by_field():
    for record, again in zip(_records(), _records()):
        assert record == again and not record != again
        if not isinstance(record, EvalResult):  # a ring element is not hashable
            assert hash(record) == hash(again)


def test_expression_nodes_compare_their_type():
    a, b = Sym("a"), IntLit(1)
    assert Add(a, b) == Add(a, b)
    assert hash(Add(a, b)) == hash(Add(a, b))
    assert Add(a, b) != Sub(a, b)
    assert not Add(a, b) == Mul(a, b)
    assert Add(a, b) != (a, b)
    assert len({Add(a, b), Sub(a, b), Mul(a, b), Add(a, b)}) == 3
    assert parse("a + 1") == Add(a, b)


def test_record_repr_names_the_fields():
    assert repr(Add(Sym("a"), IntLit(1))) == "Add(left=Sym(name='a'), right=IntLit(value=1))"
    assert repr(Pow(Neg(Sym("g")), 2)) == "Pow(base=Neg(op=Sym(name='g')), exp=2)"
    assert repr(GeneratorSpec("g", 1)) == "GeneratorSpec(name='g', degree=1)"
    assert repr(SolutionSet(infinite=True)) == "SolutionSet(infinite=True, solutions=())"
    assert repr(FORMULAS[0]) == "Formula(label='1', space='P3', equations=(('p^2', 'p_g'),))"


def test_records_take_keywords_and_defaults():
    assert SolutionSet(infinite=True) == SolutionSet(True, ())
    assert SolutionSet(False).solutions == ()
    assert GeneratorSpec(name="g", degree=1) == GeneratorSpec("g", 1)
    assert Pow(base=Sym("g"), exp=2) == Pow(Sym("g"), 2)
    assert IntLit(value=0).value == 0
    result = evaluate_expression("G", "g^4")
    again = EvalResult(
        space=result.space,
        input=result.input,
        element=result.element,
        monomial=result.monomial,
        schubert=result.schubert,
        top=result.top,
    )
    assert again == result and again.top == 2
    derivation = bitangent_derivation(4)
    assert CountDerivation(
        n=4, count=28, steps=derivation.steps, interpretation=derivation.interpretation
    ) == derivation
    assert SchubertCombination(space="G", degree=None, entries=()).entries == ()


def test_records_validate_their_fields():
    with pytest.raises(ValueError, match=r"^literals are non-negative; wrap Neg around IntLit$"):
        IntLit(-1)
    with pytest.raises(ValueError, match=r"^exponent must be a non-negative integer$"):
        Pow(Sym("x"), -1)
    with pytest.raises(ValueError, match=r"^bad generator name ''$"):
        GeneratorSpec("", 1)
    with pytest.raises(ValueError, match=r"^bad generator name '1g'$"):
        GeneratorSpec("1g", 1)
    with pytest.raises(ValueError, match=r"^generator 'g': degree must be a positive integer$"):
        GeneratorSpec(name="g", degree=0)
    line = random_four_lines(random.Random(3))[0]
    for mult in (0, -1):
        with pytest.raises(ValueError, match=r"^multiplicities must be positive$"):
            SolutionSet(False, ((line, 1), (line, mult)))
    # True would count as 1 and 1.0 would make the total 2.0
    for mult, shown in ((True, "True"), (1.0, "1.0"), (Fraction(1), r"Fraction\(1, 1\)"), ("1", "'1'")):
        with pytest.raises(ValueError, match=rf"^a multiplicity is an int, not {shown}$"):
            SolutionSet(False, ((line, 1), (line, mult)))
    with pytest.raises(ValueError, match=r"^a multiplicity is an int, not True$"):
        SolutionSet(False, ((line, True), (line, 1.0)))
    with pytest.raises(ValueError, match=r"^an infinite family carries no solution list$"):
        SolutionSet(infinite=True, solutions=((line, 1),))


def test_solution_set_refuses_a_non_line():
    # strings, None and bare coordinates would count toward total_multiplicity
    line = random_four_lines(random.Random(3))[0]
    for bad in ("not a line", None, line.coords):
        refusal = f"^a solution is a PlueckerLine, not {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=refusal):
            SolutionSet(False, ((line, 1), (bad, 1)))
    with pytest.raises(ValueError, match=r"^a solution is a PlueckerLine, not 'not a line'$"):
        SolutionSet(False, (("not a line", 1), (None, 1)))
    with pytest.raises(ValueError, match=r"^a solution is a PlueckerLine, not None$"):
        SolutionSet.finite([(None, 2)])
