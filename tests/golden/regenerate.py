"""Regenerate the recorded CLI answers in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It writes each input file of INPUTS to inputs/, runs every argv of each
corpus in CORPORA through `run_cli` with this directory as the working
directory, and writes the corpus file: one record of argv, the SHA-256
digest of stdout, stderr and exit code per invocation.  four_lines.json
holds `oracle four-lines`, pencil.json `oracle pencil`, selftest.json
`selftest`, eval.json `eval`, `verify-formulas`, `tangent-count` and
`bitangent-count`, and readme.json the README's command lines, with
inputs/readme.json for their lines.json.  The records pin the output byte
for byte; regenerate them only when that output is meant to change, and
say why in the change that does.  COLUMNS is pinned, because argparse wraps its usage lines to
the terminal width.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
from pathlib import Path

HERE = Path(__file__).resolve().parent
README = HERE.parent.parent / "README.md"
SEEDS = range(200)
# degree 0 and 41 lie just outside `oracle pencil`'s domain of 1 to 40
PENCIL_DEGREES = (*range(9), 41)
PENCIL_SEEDS = range(4)
COLUMNS = "80"

# each space's vocabulary, restated so that the argvs do not depend on the code they test
VOCABULARY = {
    "P3": ("P", "p", "p_g", "t"),
    "P3dual": ("E", "e", "e_g"),
    "G": ("G", "c1", "c2", "g", "g_e", "g_p", "g_s"),
    "PS": ("G", "c1", "c2", "g", "g_e", "g_p", "g_s", "p", "p_g", "t"),
}
EXPRESSIONS_PER_SPACE = 40
COUNT_NS = (-1, 0, 1, 2, 3, 4, 7, 12)
# one input per refusal class of `eval`, all on G
EVAL_REFUSALS = (
    "g $ 2",  # a bad character, with its position
    "g + \u0663",  # a non-ASCII digit
    "2 g",  # a trailing token
    "(g + 1",  # a missing ')'
    "(" * 100 + "g" + ")" * 100,  # depth 101
    "+".join(["g"] * 101),  # depth 101 in a flat sum
    "g^1001",
    "1" + "0" * 1000,  # a literal of 1001 digits
    "(2^1000)^11",  # past the coefficient-bit limit
    "0*(" + " + ".join(["(2^1000)^9*2^998"] * 4) + ")",  # a zero factor and a 10001-bit one
    "g + q",
    "",
)

_TETRAHEDRON = [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0]]
_SEED_3 = [
    [35, 22, 24, -100, 134, 23],
    [24, 11, 26, 43, -4, -38],
    [33, 75, 11, 112, -44, -36],
    [10, 36, 3, 78, -10, -140],
]


def _lines(lines) -> str:
    return json.dumps({"lines": lines})


def _with_entry(line: int, entry: int, value) -> str:
    lines = json.loads(json.dumps(_TETRAHEDRON))
    lines[line][entry] = value
    return _lines(lines)


# file name -> text; refusals first, then answers of every solver branch
INPUTS = {
    "unreadable.json": '{"lines": [[1, 0, 0, 0, 0, 0]',
    "no_lines_key.json": json.dumps({"points": _TETRAHEDRON}),
    "not_an_object.json": json.dumps(_TETRAHEDRON),
    "three_lines.json": _lines(_TETRAHEDRON[:3]),
    "five_entries.json": _lines(_TETRAHEDRON[:3] + [[0, 0, 1, 0, 0]]),
    "float.json": _with_entry(2, 4, 0.5),
    "long_coordinate.json": _with_entry(1, 5, "1" + "0" * 5000),
    "zero_denominator.json": _with_entry(2, 4, "2/0"),
    "off_quadric.json": _with_entry(0, 3, 1),
    "all_zero.json": _lines(_TETRAHEDRON[:3] + [[0] * 6]),
    "equal_lines.json": _lines(_TETRAHEDRON[:3] + [[0, 0, 0, "1/3", 0, 0]]),
    # the lines.json of the README's command lines: a kernel pencil inside the quadric
    "readme.json": _lines(
        [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]
    ),
    # four lines through the point [1 : 1 : 1 : 1]: incidence rows of rank 3
    "common_point.json": _lines(
        [[1, 1, 1, 0, 0, 0], [1, 0, 0, 0, 1, -1], [0, 1, 0, -1, 0, 1], [0, 0, 1, 1, -1, 0]]
    ),
    "scaled_fractions.json": _lines(
        [["1/2", 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, "3"], [0, 0, 0, "2/3", 0, 0], [0, 0, 1, 0, 0, 0]]
    ),
    # edges of the coordinate tetrahedron: two rational transversals, the
    # first kernel vector on the quadric
    "tetrahedron.json": _lines(_TETRAHEDRON),
    "seed_3_over_7.json": _lines([[f"{x}/7" for x in line] for line in _SEED_3]),
    # three rulings of x0*x3 = x1*x2 and a tangent line: a double root
    "tangent_double.json": _lines(
        [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [1, 0, 1, 1, 0, -1], [1, -2, 0, 4, 2, -4]]
    ),
    # the same configuration moved so that the double line is the first kernel vector
    "moved_double.json": _lines(
        [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 1, 1, 0, -1, 1], [2, 1, 2, 0, -4, 2]]
    ),
    # a perfect-square discriminant: two rational solutions
    "square_discriminant.json": _lines(
        [
            [102, -72, -75, -40, -90, 32],
            [18, 29, -19, 102, -5, 89],
            [48, -1, -49, -78, -20, -76],
            [73, -8, -10, 4, -81, 94],
        ]
    ),
}


def records() -> list[list[str]]:
    """The argvs of four_lines.json."""
    argvs = [["oracle", "four-lines", "--seed", str(seed)] for seed in SEEDS]
    argvs += [["oracle", "four-lines", "--input", f"inputs/{name}"] for name in INPUTS]
    argvs.append(["oracle", "four-lines", "--input", "inputs/missing.json"])
    return argvs


def pencil_records() -> list[list[str]]:
    """The argvs of pencil.json."""
    return [
        ["oracle", "pencil", "--degree", str(degree), "--seed", str(seed)]
        for degree in PENCIL_DEGREES
        for seed in PENCIL_SEEDS
    ]


def _expression(rng: random.Random, names: tuple[str, ...], depth: int) -> tuple[str, int]:
    """Random source text and how tightly it binds: 1 a sum, 2 a product, 3 a power, 4 the rest."""
    if depth == 0 or rng.random() < 0.2:
        return (str(rng.randrange(12)) if rng.random() < 0.25 else rng.choice(names)), 4
    kind = rng.choice("+-*^n")
    if kind == "n":
        return "-" + _operand(rng, names, depth, 4), 4
    if kind == "^":
        return f"{_operand(rng, names, depth, 4)}^{rng.randrange(7)}", 3
    bind = 2 if kind == "*" else 1
    left, right = _operand(rng, names, depth, bind), _operand(rng, names, depth, bind + 1)
    space = rng.choice(("", " "))
    return f"{left}{space}{kind}{space}{right}", bind


def _operand(rng: random.Random, names: tuple[str, ...], depth: int, needs: int) -> str:
    # parenthesised when it binds less tightly than its slot needs, and now and then anyway
    text, binds = _expression(rng, names, depth - 1)
    return f"({text})" if binds < needs or rng.random() < 0.1 else text


def eval_records() -> list[list[str]]:
    """The argvs of eval.json."""
    argvs = []
    for name, names in VOCABULARY.items():
        rng = random.Random(f"eval {name}")
        for _ in range(EXPRESSIONS_PER_SPACE):
            text, _ = _expression(rng, names, 4)
            argvs.append(["eval", "--space", name, "--", text])
            argvs.append(["eval", "--space", name, "--json", "--", text])
    argvs += [["eval", "--space", "G", "--", text] for text in EVAL_REFUSALS]
    argvs += [["eval", "--space", name, "unknown"] for name in VOCABULARY]
    argvs.append(["verify-formulas"])
    argvs += [["verify-formulas", "--space", name] for name in (*VOCABULARY, "P4")]
    for command in ("tangent-count", "bitangent-count"):
        for n in COUNT_NS:
            argvs += [[command, str(n)], [command, str(n), "--trace"], [command, str(n), "--json"]]
    return argvs


def readme_records() -> list[list[str]]:
    """The argvs of readme.json: every `schubert3 ...` line of the README's ```sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("schubert3 ")
    ]
    return [["inputs/readme.json" if a == "lines.json" else a for a in argv] for argv in commands]


# corpus file name -> the argvs it records
CORPORA = {
    "four_lines.json": records,
    "pencil.json": pencil_records,
    "selftest.json": lambda: [["selftest"]],
    "eval.json": eval_records,
    "readme.json": readme_records,
}


def replay(argv: list[str]) -> dict:
    """One record: run argv in this directory and digest what it printed."""
    from schubert3.cli import run_cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        os.chdir(cwd)
    return {
        "argv": argv,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "exit": code,
    }


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    inputs = HERE / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, text in INPUTS.items():
        (inputs / name).write_text(text + "\n", encoding="utf-8")
    for name, argvs in CORPORA.items():
        recorded = [replay(argv) for argv in argvs()]
        (HERE / name).write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(recorded)} records to {HERE / name}")


if __name__ == "__main__":
    main()
