"""The shared exact references, pinned on facts that need no second elimination.

`reference.py` is what the ring, blow-up, oracle and acceptance tests
recompute against, so its rank, determinant and reduction are checked
here against each other and against matrices whose answer is known.
"""

import ast
from fractions import Fraction
from pathlib import Path
import random

import pytest

from reference import (
    bareiss_det,
    hermite_echelon,
    ideal_slice,
    in_ideal,
    rank,
    read_surd,
    read_surd_line,
    reduce_vector,
    rref,
    surd_add,
    surd_mul,
    surd_pairing,
    surd_quadric,
    surd_sub,
)

HERE = Path(__file__).parent


def random_matrix(rng, nrows, ncols):
    return [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_of_known_matrices():
    for n in range(1, 7):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert rank(identity) == n
        assert rank([[0] * n for _ in range(n + 1)]) == 0
    assert rank([]) == 0


def test_rank_of_the_transpose():
    rng = random.Random(31)
    for _ in range(200):
        matrix = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        if rng.random() < 0.4:
            matrix.append([2 * a - b for a, b in zip(matrix[0], matrix[-1])])
        assert rank(matrix) == rank([list(col) for col in zip(*matrix)])


def test_full_rank_exactly_when_the_determinant_is_nonzero():
    rng = random.Random(32)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        matrix = random_matrix(rng, n, n)
        if n > 1 and rng.random() < 0.4:
            # force one row to be a combination of the others
            i = rng.randrange(n)
            others = matrix[:i] + matrix[i + 1 :]
            weights = [rng.randint(-3, 3) for _ in others]
            matrix[i] = [sum(w * row[k] for w, row in zip(weights, others)) for k in range(n)]
        det = bareiss_det(matrix)
        singular += det == 0
        assert (rank(matrix) == n) == (det != 0), matrix
    assert singular > 80


def test_bareiss_det_of_known_matrices():
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_reduce_vector_kills_the_row_space():
    rng = random.Random(33)
    for _ in range(200):
        ncols = rng.randint(1, 7)
        rows = random_matrix(rng, rng.randint(1, 5), ncols)
        echelon, pivots = rref(rows, ncols)
        weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in rows]
        combination = [sum(w * row[k] for w, row in zip(weights, rows)) for k in range(ncols)]
        assert not any(reduce_vector(combination, echelon, pivots))
        for row in rows:
            assert not any(reduce_vector(row, echelon, pivots))


@pytest.mark.parametrize("name", ["reference.py", "localization.py"])
def test_the_references_import_nothing_from_the_package(name):
    tree = ast.parse((HERE / name).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, name
            imported.add(node.module)
    assert not {m for m in imported if m.split(".")[0] == "schubert3"}, name
    assert imported, name


def test_ideal_slice_rows_are_the_relation_multiples():
    # x^2 - y, zero and y in degrees (1, 2): at degree 3 the multiples are
    # x^3 - x*y and x*y, and the zero relation adds no row
    monos, rows = ideal_slice((1, 2), [{(2, 0): 1, (0, 1): -1}, {}, {(0, 1): 1}], 3)
    assert monos == [(3, 0), (1, 1)]
    assert rows == [[1, -1], [0, 1]]


def test_ideal_membership_basics():
    # x1 of degree 1 and x2 of degree 2; the key (i, j) is x1^i*x2^j
    degrees = (1, 2)
    assert in_ideal(degrees, {(3, 0): 1}, [{(2, 0): 1}])
    # x1^3 - 2*x1*x2 + x2*x1 = x1*(x1^2 - x2)
    assert in_ideal(degrees, {(3, 0): 1, (1, 1): -1}, [{(2, 0): 1, (0, 1): -1}])
    assert not in_ideal(degrees, {(1, 1): 1}, [{(2, 0): 1}])
    # integer exactness: 2*x1^2 is not an integer multiple of 4*x1^2
    assert not in_ideal(degrees, {(2, 0): 2}, [{(2, 0): 4}])
    assert in_ideal(degrees, {}, [{(2, 0): 1}])
    with pytest.raises(ValueError):
        in_ideal(degrees, {(1, 0): 1}, [{(1, 0): 1, (2, 0): 1}])


def test_hermite_echelon_pivots_multiply_to_the_determinant():
    # each step has determinant 1, so on a square matrix the echelon is
    # triangular with |det| as the product of its positive pivots
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(1, 5)
        matrix = random_matrix(rng, n, n)
        echelon = hermite_echelon(matrix, n)
        assert all(row[col] > 0 and not any(row[:col]) for col, row in echelon)
        product = 1
        for col, row in echelon:
            product *= row[col]
        assert (product if len(echelon) == n else 0) == abs(bareiss_det(matrix)), matrix


def norm(x, d):
    """a^2 - d*b^2, the product of a + b*sqrt(d) and its conjugate."""
    a, b = x
    return a * a - d * b * b


def test_surd_arithmetic_on_hand_worked_values():
    assert surd_mul((1, 1), (1, -1), 2) == (-1, 0)  # (1 + sqrt(2))(1 - sqrt(2))
    assert surd_mul((1, 1), (1, 1), 2) == (3, 2)  # (1 + sqrt(2))^2 = 3 + 2*sqrt(2)
    assert surd_mul((0, 1), (0, 1), -3) == (-3, 0)
    # (1/2 + 3*sqrt(5))(2 - sqrt(5)/3) = 1 - 5 + (-1/6 + 6)*sqrt(5)
    assert surd_mul((Fraction(1, 2), 3), (2, Fraction(-1, 3)), 5) == (-4, Fraction(35, 6))
    assert surd_add((1, 2), (3, -2)) == (4, 0)
    assert surd_sub((1, 2), (Fraction(1, 2), 2)) == (Fraction(1, 2), 0)


def test_surd_norm_is_multiplicative():
    rng = random.Random(3406)

    def surd():
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in "ab")

    for _ in range(200):
        d = rng.choice([-7, -3, -1, 2, 3, 5, 6, 10])
        x, y = surd(), surd()
        assert norm(surd_mul(x, y, d), d) == norm(x, d) * norm(y, d)
        assert surd_mul(x, (x[0], -x[1]), d) == (norm(x, d), 0)
        assert surd_mul(x, y, d) == surd_mul(y, x, d)


def test_surd_pairing_and_quadric_on_hand_worked_lines():
    # p01 = 1 + sqrt(2) and p23 = 1 - sqrt(2): the quadric is their product
    u = [(1, 1), (0, 0), (0, 0), (1, -1), (0, 0), (0, 0)]
    assert surd_quadric(u, 2) == (-1, 0)
    assert surd_pairing(u, u, 2) == (-2, 0)
    # against the rational line p23 = 1, only p01 pairs
    assert surd_pairing(u, [(0, 0)] * 3 + [(1, 0)] + [(0, 0)] * 2, 2) == (1, 1)
    # a wedge of two points over Q(sqrt(d)) lies on the quadric
    rng = random.Random(3407)
    wedge_pairs = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
    for _ in range(100):
        d = rng.choice([-5, 2, 3, 7])
        p, q = ([(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)] for _ in "pq")
        w = [surd_sub(surd_mul(p[i], q[j], d), surd_mul(p[j], q[i], d)) for i, j in wedge_pairs]
        assert surd_quadric(w, d) == (0, 0)
        v = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(6)]
        assert surd_pairing(v, v, d) == surd_add(surd_quadric(v, d), surd_quadric(v, d))
        assert surd_pairing(v, w, d) == surd_pairing(w, v, d)


@pytest.mark.parametrize(
    "text, value",
    [
        (7, (7, 0, 0)),
        ("-3/4", (Fraction(-3, 4), 0, 0)),
        ("0", (0, 0, 0)),
        ("sqrt(2)", (0, 1, 2)),
        ("-sqrt(-11)", (0, -1, -11)),
        ("2*sqrt(5)", (0, 2, 5)),
        ("1 + 2*sqrt(5)", (1, 2, 5)),
        ("-4 - 3*sqrt(7)", (-4, -3, 7)),
        ("7 - sqrt(-3)", (7, -1, -3)),
        ("1/2 - 1/3*sqrt(2)", (Fraction(1, 2), Fraction(-1, 3), 2)),
    ],
)
def test_read_surd_on_hand_written_values(text, value):
    assert read_surd(text) == value


def test_read_surd_refuses_what_it_cannot_read():
    for text in ("", "sqrt", "1 + sqrt(2", "1 +sqrt(2)", "sqrt(2) + 1", "1.5", "1 + sqrt(x)"):
        with pytest.raises(ValueError, match="^not a printed coordinate: "):
            read_surd(text)
    with pytest.raises(ValueError, match="^a line over two radicands: "):
        read_surd_line(["sqrt(2)", "sqrt(3)", 0, 0, 0, 0])


def test_read_surd_line_round_trips_a_plain_spelling():
    rng = random.Random(3408)
    for _ in range(200):
        d = rng.choice([-7, -3, 2, 3, 5, 6, 10])
        pairs = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)]
        text = [
            f"{a} {'-' if b < 0 else '+'} {abs(b)}*sqrt({d})" if b else str(a) for a, b in pairs
        ]
        assert read_surd_line(text) == (pairs, d if any(b for _, b in pairs) else 0)
    rational = ([(1, 0), (Fraction(2, 3), 0)] + [(0, 0)] * 4, 0)
    assert read_surd_line([1, "2/3", 0, 0, 0, 0]) == rational
