"""Exit codes, output formats and determinism of the command line interface."""

import importlib
import io
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import schubert3
from schubert3 import checks, cli, coincidence, dsl, spaces
from schubert3.cli import run_cli
from schubert3.oracle import PlueckerLine, lines_meeting_four, random_four_lines


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text_output(capsys):
    code, out, _ = run(capsys, "eval", "--space", "G", "g^4")
    assert code == 0
    assert out == "2*G = 2\n"


def test_eval_monomial_basis(capsys):
    code, out, _ = run(capsys, "eval", "--space", "G", "--basis", "monomial", "g^4")
    assert code == 0
    assert out == "2*c2^2 = 2\n"


def test_eval_without_top_value(capsys):
    code, out, _ = run(capsys, "eval", "--space", "PS", "p*g")
    assert code == 0
    assert out == "p^2 + g_e\n"


def test_eval_zero(capsys):
    code, out, _ = run(capsys, "eval", "--space", "G", "g_p*g_e")
    assert code == 0
    assert out == "0\n"


def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, "eval", "--space", "G", "--json", "g^4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "space": "G",
        "input": "g^4",
        "monomial": "2*c2^2",
        "schubert": "2*G",
        "top": 2,
    }
    assert isinstance(payload["top"], int)


def test_eval_json_omits_missing_top(capsys):
    code, out, _ = run(capsys, "eval", "--space", "G", "--json", "g^2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"space", "input", "monomial", "schubert"}
    assert payload["schubert"] == "g_p + g_e"


def test_eval_unknown_symbol_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--space", "P3", "eps")
    assert code == 2
    assert "unknown symbol" in err
    assert "available" in err


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "--space", "G", "g^-1")
    assert code == 2
    assert "parse error" in err


def test_eval_rejects_unknown_space(capsys):
    code, _, err = run(capsys, "eval", "--space", "X", "g")
    assert code == 2


def test_eval_leading_minus_needs_the_separator(capsys):
    # without `--`, argparse takes "-p^2" for an option
    code, out, err = run(capsys, "eval", "--space", "P3", "-p^2")
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: expr\n")
    assert run(capsys, "eval", "--space", "P3", "--", "-p^2") == (0, "p_g\n", "")


def test_usage_error_without_arguments(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_verify_formulas_table(capsys):
    code, out, _ = run(capsys, "verify-formulas")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 27
    assert all(line.endswith("ok") for line in lines)
    labels = {line.split()[0] for line in lines}
    assert labels == {str(k) for k in range(1, 15)} | {"I", "II", "III"}


def test_verify_formulas_single_space(capsys):
    code, out, _ = run(capsys, "verify-formulas", "--space", "G")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all(" G " in line for line in lines)


def test_tangent_count_output(capsys):
    code, out, _ = run(capsys, "tangent-count", "4")
    assert code == 0
    assert out == "12\n"
    trace = [
        "excess = -4*eps*t2 + 16*t1*t2",
        "pullback of g_s = eps^2*t2 - 3*eps*t2^2 + t1^2*t2 + t1*t2^2",
        "integrand = 12*eps^2*t2^3 + 12*t1^3*t2^2 + 12*t1^2*t2^3",
        "exceptional integral = 12",
    ]
    code, out, _ = run(capsys, "tangent-count", "4", "--trace")
    assert out.splitlines() == ["12", *trace]
    code, out, _ = run(capsys, "tangent-count", "4", "--json")
    assert json.loads(out) == {"n": 4, "count": 12, "trace": trace}


def test_bitangent_count_output(capsys):
    code, out, _ = run(capsys, "bitangent-count", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "28"
    assert lines[1:] == [
        "2*eps22 = (p1 + p2 - g)*(p3 + p4 - g)",
        "2*eps22 = 4*p1*p3 - 4*g*p1 + g_e + g_p",
        "2*eps22*g_e = 4*p1*p3*g_e - 4*p1^3*g - 3*G",
    ]


def test_bitangent_count_trace_adds_interpretation(capsys):
    code, out, _ = run(capsys, "bitangent-count", "7", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "700"
    assert "G -> n*(n-1)*(n-2)*(n-3)" in lines
    assert lines[-1] == "count = 700"


def test_bitangent_count_json(capsys):
    code, out, _ = run(capsys, "bitangent-count", "4", "--json")
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["count"] == 28
    assert len(payload["trace"]) == 8
    assert payload["trace"][-1] == "count = 28"


def test_tangent_count_prints_its_derivation_built_once(capsys, monkeypatch):
    calls = []
    excess = coincidence.surface_excess_class

    def counted(n):
        calls.append(n)
        return excess(n)

    monkeypatch.setattr(coincidence, "surface_excess_class", counted)
    assert run(capsys, "tangent-count", "4", "--trace")[0] == 0
    assert calls == [4]
    monkeypatch.undo()
    for n in range(1, 13):
        derivation = coincidence.tangent_derivation(n)
        assert derivation.count == n * (n - 1) and derivation.steps == ()
        assert run(capsys, "tangent-count", str(n), "--trace") == (
            0,
            "".join(f"{line}\n" for line in (str(derivation.count), *derivation.trace)),
            "",
        )


def test_bitangent_count_rejects_nonpositive(capsys):
    assert run(capsys, "bitangent-count", "0")[0] == 2
    assert run(capsys, "tangent-count", "0")[0] == 2
    for n in ("0", "-2"):
        for flags in ((), ("--json",)):
            assert run(capsys, "tangent-count", n, *flags) == (
                2,
                "",
                f"error: tangent-count: n = {n} is outside the domain n >= 1\n",
            )
    assert run(capsys, "bitangent-count", "1")[2] == (
        "error: bitangent-count: n = 1 is outside the domain n >= 2\n"
    )
    for command, least in (("tangent-count", 1), ("bitangent-count", 2)):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and f"surface degree, n >= {least}" in out


def test_bitangent_count_domain_starts_at_two(capsys):
    # a degree-1 plane section is a line, which has no bitangents
    assert run(capsys, "bitangent-count", "1") == (
        2,
        "",
        "error: bitangent-count: n = 1 is outside the domain n >= 2\n",
    )
    code, out, err = run(capsys, "bitangent-count", "2")
    assert (code, out.splitlines()[0], err) == (0, "0", "")


@pytest.mark.parametrize("command", ["tangent-count", "bitangent-count"])
def test_count_domain_in_the_help_is_the_library_domain(capsys, command):
    # the help states the domain; the library decides it
    code, out, _ = run(capsys, command, "--help")
    (least,) = map(int, re.findall(r"surface degree, n >= (-?\d+)", out))
    derive = getattr(coincidence, cli.build_parser().parse_args([command, "0"]).derivation)
    assert code == 0 and derive(least).n == least
    message = f"n = {least - 1} is outside the domain n >= {least}"
    with pytest.raises(ValueError) as refused:
        derive(least - 1)
    assert str(refused.value) == message
    assert run(capsys, command, str(least - 1)) == (2, "", f"error: {command}: {message}\n")


@pytest.mark.parametrize("command", ["tangent-count", "bitangent-count"])
def test_count_commands_refuse_n_past_the_digit_limit(capsys, command):
    # below 10^1000 every printed value fits Python's int-to-str conversion
    n = 10**dsl.MAX_LITERAL_DIGITS - 1
    code, out, err = run(capsys, command, str(n), "--trace", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    if command == "tangent-count":
        assert payload["count"] == n * (n - 1)
    else:
        assert payload["count"] == n * (n - 2) * (n - 3) * (n + 3) // 2
    # 10^1000, the first refused value, then two larger ones
    for text in (str(n + 1), "9" * (dsl.MAX_LITERAL_DIGITS + 1), "9" * 2200):
        code, out, err = run(capsys, command, text, "--trace", "--json")
        assert code == 2 and out == ""
        assert err == (
            f"error: {command}: n of {len(text)} digits exceeds the limit "
            f"of {dsl.MAX_LITERAL_DIGITS} digits\n"
        )


def test_oracle_four_lines_seeded(capsys):
    code, first, _ = run(capsys, "oracle", "four-lines", "--seed", "42")
    assert code == 0
    payload = json.loads(first)
    assert payload["seed"] == 42
    assert len(payload["lines"]) == 4
    assert payload["total_multiplicity"] == 2
    code, second, _ = run(capsys, "oracle", "four-lines", "--seed", "42")
    assert second == first


SEED_3_ROOT = "sqrt(10712505869649678740735904633)"
SEED_3_OUTPUT = {
    "seed": 3,
    "lines": [
        [35, 22, 24, -100, 134, 23],
        [24, 11, 26, 43, -4, -38],
        [33, 75, 11, 112, -44, -36],
        [10, 36, 3, 78, -10, -140],
    ],
    "infinite": False,
    "solutions": [
        {
            "coords": [
                f"908527281658966837959 + 14351851*{SEED_3_ROOT}",
                f"615004201222636933578 + 14229752*{SEED_3_ROOT}",
                f"79204850832945300723 + 4770471*{SEED_3_ROOT}",
                f"5260376269421886712827 - 13580221*{SEED_3_ROOT}",
                f"-2527626467975098158825 - 4818853*{SEED_3_ROOT}",
                "-5078538895892011778124",
            ],
            "multiplicity": 1,
        },
        {
            "coords": [
                f"908527281658966837959 - 14351851*{SEED_3_ROOT}",
                f"615004201222636933578 - 14229752*{SEED_3_ROOT}",
                f"79204850832945300723 - 4770471*{SEED_3_ROOT}",
                f"5260376269421886712827 + 13580221*{SEED_3_ROOT}",
                f"-2527626467975098158825 + 4818853*{SEED_3_ROOT}",
                "-5078538895892011778124",
            ],
            "multiplicity": 1,
        },
    ],
    "total_multiplicity": 2,
}


def test_oracle_four_lines_output_is_pinned(capsys):
    """Byte-exact output on an instance with long irrational coordinates."""
    code, out, _ = run(capsys, "oracle", "four-lines", "--seed", "3")
    assert code == 0
    assert out == json.dumps(SEED_3_OUTPUT) + "\n"


def test_oracle_four_lines_matches_library(capsys):
    lines = random_four_lines(random.Random(42))
    result = lines_meeting_four(*lines)
    _, out, _ = run(capsys, "oracle", "four-lines", "--seed", "42")
    payload = json.loads(out)
    assert payload["infinite"] == result.infinite
    got = [tuple(entry["coords"]) for entry in payload["solutions"]]
    want = [
        tuple(c if isinstance(c, int) else str(c) for c in line.coords)
        for line, _ in result.solutions
    ]
    assert got == want


def test_oracle_four_lines_from_file(capsys, tmp_path):
    path = tmp_path / "tetrahedron.json"
    path.write_text(
        json.dumps(
            {
                "lines": [
                    [1, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, 1],
                    [0, 0, 0, 1, 0, 0],
                    [0, 0, 1, 0, 0, 0],
                ]
            }
        )
    )
    code, out, _ = run(capsys, "oracle", "four-lines", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert "seed" not in payload
    assert not payload["infinite"]
    coords = {tuple(entry["coords"]) for entry in payload["solutions"]}
    assert coords == {(0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)}
    assert all(entry["multiplicity"] == 1 for entry in payload["solutions"])


def test_oracle_four_lines_file_errors(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"lines": [[1, 0, 0, 0, 0, 0]]}))
    assert run(capsys, "oracle", "four-lines", "--input", str(path))[0] == 2
    path.write_text(json.dumps({"lines": [[1, 0, 0, 1, 0, 0]] * 4}))
    assert run(capsys, "oracle", "four-lines", "--input", str(path))[0] == 2
    assert run(capsys, "oracle", "four-lines", "--input", str(tmp_path / "nope"))[0] == 2


def test_oracle_four_lines_rational_file_input(capsys, tmp_path):
    path = tmp_path / "scaled.json"
    path.write_text(
        json.dumps(
            {
                "lines": [
                    ["1/2", 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 0, "3"],
                    [0, 0, 0, "2/3", 0, 0],
                    [0, 0, 1, 0, 0, 0],
                ]
            }
        )
    )
    code, out, _ = run(capsys, "oracle", "four-lines", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lines"][0] == [1, 0, 0, 0, 0, 0]
    assert payload["total_multiplicity"] == 2


def test_oracle_pencil(capsys):
    code, out, _ = run(capsys, "oracle", "pencil", "--degree", "2", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["degree"] == 2 and payload["seed"] == 1
    assert len(payload["plane"]) == 4 and len(payload["vertex"]) == 4
    assert payload["surface"]
    code, again, _ = run(capsys, "oracle", "pencil", "--degree", "2", "--seed", "1")
    assert again == out


def test_oracle_pencil_surface_source(capsys):
    code, out, _ = run(capsys, "oracle", "pencil", "--degree", "2", "--seed", "0")
    assert code == 0
    assert json.loads(out)["surface"] == (
        "7*w^2 + 6*z*w + z^2 + 6*y*w - 6*y*z + 4*y^2 - 8*x*w - x*z - 5*x*y + x^2"
    )


def test_oracle_pencil_counts_a_tangent_at_infinity(capsys):
    # one tangent is the pencil's lam = infinity line, so the discriminant
    # has degree n(n-1) - 1; it is still not identically zero
    for degree, seed in ((2, 507), (3, 900)):
        argv = ("oracle", "pencil", "--degree", str(degree), "--seed", str(seed))
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["count"] == degree * (degree - 1)


def test_oracle_pencil_degree_limit(capsys):
    assert cli.MAX_PENCIL_DEGREE == 40
    code, out, err = run(capsys, "oracle", "pencil", "--degree", "40")
    assert code == 0, err
    assert json.loads(out)["count"] == 1560
    code, out, err = run(capsys, "oracle", "pencil", "--degree", "41")
    assert (code, out) == (2, "")
    assert err == "error: oracle pencil: --degree 41 is outside the domain 1 to 40\n"


def _python(*args, timeout=120):
    paths = [str(Path(schubert3.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_module_entry_point():
    done = _python("-m", "schubert3", "eval", "--space", "G", "g^4")
    assert done.returncode == 0
    assert done.stdout == "2*G = 2\n"
    assert done.stderr == ""


def test_library_import_leaves_out_the_cli():
    done = _python(
        "-c",
        "import sys, schubert3; print('argparse' in sys.modules, 'schubert3.checks' in sys.modules)",
    )
    assert done.returncode == 0
    assert done.stdout == "False False\n"


def test_package_import_loads_no_submodule():
    done = _python(
        "-c",
        "import sys, schubert3; print(sorted(m for m in sys.modules if m.startswith('schubert3.')))",
    )
    assert done.returncode == 0
    assert done.stdout == "[]\n"


def test_package_import_binds_no_public_name():
    # each public name is imported from its submodule, never from the package
    done = _python("-c", "import schubert3; print([n for n in dir(schubert3) if n[0] != '_'])")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_each_module_exports_bound_names_once():
    names = sorted(m.name for m in pkgutil.iter_modules(schubert3.__path__))
    assert "spaces" in names and "oracle" in names
    for name in names:
        if name == "__main__":
            continue
        module = importlib.import_module(f"schubert3.{name}")
        exported = module.__all__
        assert len(set(exported)) == len(exported), name
        assert [x for x in exported if not hasattr(module, x)] == [], name


RING_MODULES = [
    "schubert3",
    "schubert3.dsl",
    "schubert3.graded_ring",
    "schubert3.spaces",
]


def _modules_loaded_by(argv):
    done = _python(
        "-c",
        "import sys; from schubert3.cli import run_cli; "
        f"code = run_cli({argv!r}); "
        "print(code, *sorted(m for m in sys.modules if m.startswith('schubert3')))",
    )
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0"
    return loaded


@pytest.mark.parametrize(
    "argv", [["eval", "--space", "G", "g^4"], ["verify-formulas"]], ids=["eval", "verify-formulas"]
)
def test_symbolic_commands_load_only_the_rings(argv):
    assert _modules_loaded_by(argv) == sorted([*RING_MODULES, "schubert3.cli"])


@pytest.mark.parametrize(
    "argv",
    [["tangent-count", "4"], ["bitangent-count", "4", "--json"]],
    ids=["tangent-count", "bitangent-count"],
)
def test_count_commands_load_the_rings_and_the_blowup(argv):
    # neither the oracle nor the checks
    assert _modules_loaded_by(argv) == sorted(
        [*RING_MODULES, "schubert3.cli", "schubert3.coincidence"]
    )


SELFTEST_NAMES = [
    "formula suite (27 identities)",
    "graded ranks of G and PS",
    "duality pairing on G",
    "exceptional pushforward table",
    "tangent and bitangent counts",
    "four-lines golden configurations",
    "four-lines random conservation",
    "pencil tangency counts",
    "pushforward consistency",
    "expression round-trips",
]


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.splitlines() == [f"ok {name}" for name in SELFTEST_NAMES]


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def broken():
        raise AssertionError("pairing matrix drifted")

    entries = list(checks.CHECKS)
    entries[2] = (entries[2][0], broken)
    monkeypatch.setattr(checks, "CHECKS", tuple(entries))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    expected = [f"ok {name}" for name in SELFTEST_NAMES]
    expected[2] = "FAIL duality pairing on G: pairing matrix drifted"
    assert out.splitlines() == expected + ["1 of 10 checks failed"]


def test_verify_formulas_reports_a_false_identity(capsys, monkeypatch):
    false = spaces.Formula("F", "G", (("g^2", "g_p"),))
    monkeypatch.setattr(spaces, "FORMULAS", spaces.FORMULAS + (false,))
    code, out, _ = run(capsys, "verify-formulas", "--space", "G")
    assert code == 1
    lines = out.splitlines()
    assert lines[-2] == " F  G  g^2 = g_p  FAIL"
    assert lines[-1] == "1 of 14 identities failed"


def _cli_after(setup, *argv):
    """Run the CLI in a fresh process once `setup`, Python that can use `spaces`, has run."""
    return _python(
        "-c",
        "import sys\nfrom schubert3 import spaces\nfrom schubert3.cli import run_cli\n"
        f"{setup}\nsys.exit(run_cli(sys.argv[1:]))\n",
        *argv,
    )


FALSE_F = "spaces.FORMULAS += (spaces.Formula('F', 'G', (('g^2', 'g_p'),)),)"


@pytest.mark.parametrize(
    "argv",
    [["eval", "--space", "G", "g^4"], ["tangent-count", "3"]],
    ids=["eval", "tangent-count"],
)
def test_a_failed_construction_proof_exits_1_with_one_line(argv):
    # the false identity joins the table before any space is built, so
    # space("G") refuses to finish: one stderr line, not a traceback
    done = _cli_after(FALSE_F, *argv)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "verification failed: G: formula F failed at construction: g^2 != g_p\n"
    assert "Traceback" not in done.stderr


def test_verify_formulas_prints_its_fail_table_in_a_fresh_process(capsys):
    # verify-formulas rechecks the spaces before their construction proof,
    # so a false identity reaches its row: F follows G's rows, before PS's
    code, table, _ = run(capsys, "verify-formulas")
    assert code == 0
    rows = table.splitlines()
    done = _cli_after(FALSE_F, "verify-formulas")
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines() == [
        *rows[:21],
        "  F  G       g^2 = g_p  FAIL",
        *rows[21:],
        "1 of 28 identities failed",
    ]


def test_selftest_names_a_false_formula_in_a_fresh_process():
    false_9 = (
        "spaces.FORMULAS = tuple(spaces.Formula('9', 'G', (('g^2', 'g_p'),)) "
        "if f.label == '9' else f for f in spaces.FORMULAS)"
    )
    done = _cli_after(false_9, "selftest")
    assert done.returncode == 1
    assert done.stdout.splitlines()[0] == (
        "FAIL formula suite (27 identities): failed identities: [('9', 'g^2')]"
    )


COUNT_FORMULA_CHECKS = """\
import atexit

class Counted(spaces.FormulaCheck):
    made = 0

    def __new__(cls, *fields):
        Counted.made += 1
        return super().__new__(cls, *fields)

spaces.FormulaCheck = Counted
atexit.register(lambda: print(Counted.made, file=sys.stderr))"""


@pytest.mark.parametrize(
    "argv, made",
    [(["verify-formulas"], 27), (["eval", "--space", "G", "g^4"], 13), (["selftest"], 54)],
    ids=["verify-formulas", "eval", "selftest"],
)
def test_each_command_evaluates_each_identity_once(argv, made):
    # verify-formulas checks all 27 identities and proves no space; eval
    # proves G's 13; selftest checks the 27, then proves the spaces it uses
    done = _cli_after(COUNT_FORMULA_CHECKS, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"{made}\n"


def test_oracle_pencil_rejects_nonpositive_degree():
    for degree in (0, -1):
        done = _python("-m", "schubert3", "oracle", "pencil", "--degree", str(degree), timeout=30)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: oracle pencil: --degree {degree} is outside the domain 1 to 40\n"
        )


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 5000 + "g" + ")" * 5000,
        "-" * 3000 + "g",
        "+".join(["g"] * 3000),
    ],
    ids=["parentheses", "unary-minus", "flat-sum"],
)
def test_eval_rejects_deep_expressions(expr):
    done = _python("-m", "schubert3", "eval", "--space", "G", "--", expr, timeout=30)
    assert done.returncode == 2
    assert "nested more than" in done.stderr
    assert "Traceback" not in done.stderr


def test_eval_rejects_long_literal(capsys):
    literal = "7" * (dsl.MAX_LITERAL_DIGITS + 1)
    code, out, err = run(capsys, "eval", "--space", "G", "--", f"{literal}*g")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error:")
    assert "at position 0" in err


def test_eval_rejects_huge_exponent(capsys):
    code, out, err = run(capsys, "eval", "--space", "G", "--", f"2^{dsl.MAX_EXPONENT + 1}")
    assert code == 2
    assert out == ""
    assert "exceeds the limit" in err


def _power_of_two(k):
    """Source of 2^k as a product of powers within MAX_EXPONENT: a (k+1)-bit integer."""
    return "(" + "*".join(["2^1000"] * (k // 1000) + [f"2^{k % 1000}"]) + ")"


def test_eval_coefficient_limit(capsys):
    half = dsl.MAX_COEFFICIENT_BITS // 2
    rest = dsl.MAX_COEFFICIENT_BITS - half
    at_limit = f"{_power_of_two(half - 1)}*{_power_of_two(rest - 1)}*G"
    code, out, err = run(capsys, "eval", "--space", "G", "--", at_limit)
    assert (code, err) == (0, "")
    value = 2 ** (dsl.MAX_COEFFICIENT_BITS - 2)
    assert out == f"{value}*G = {value}\n"

    past = f"{_power_of_two(half - 1)}*{_power_of_two(rest)}*G"
    code, out, err = run(capsys, "eval", "--space", "G", "--", past)
    assert (code, out) == (2, "")
    failing = dsl.to_source(dsl.parse(f"{_power_of_two(half - 1)}*{_power_of_two(rest)}"))
    assert err.startswith(f"error: evaluation of {failing} stopped: ")
    assert err.endswith(f"pass the limit of {dsl.MAX_COEFFICIENT_BITS} bits\n")


def test_eval_refuses_nested_powers_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--space", "G", "--", "((2^1000)^1000)^1000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: evaluation of (2^1000)^1000 stopped:")
    assert "Traceback" not in err


_TOKENS = [
    *("g", "g_e", "g_p", "g_s", "G", "c1", "p", "p_g", "P", "e", "e_g", "E", "q", "x"),
    *("0", "1", "7", "1000", "2^1000", "^1000", "^2", "9" * 12),
    *("+", "-", "*", "^", "(", ")", " ", "$", "²"),
]
_eval_texts = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_TOKENS), max_size=40).map("".join),
)


def _answered_or_rejected(argv):
    """Run the CLI in-process: exit 0, or exit 2 with a message and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 2)
    assert (code == 0) == (err.getvalue() == "")
    assert "Traceback" not in err.getvalue()


@settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
@given(name=st.sampled_from(spaces.SPACE_NAMES), text=_eval_texts)
def test_eval_answers_or_rejects_any_text(name, text):
    _answered_or_rejected(["eval", "--space", name, "--", text])


@pytest.mark.parametrize("text, at", [("²", 0), ("g^²", 2), ("٣*g", 0), ("１*g", 0)])
def test_eval_rejects_non_ascii_digits(capsys, text, at):
    code, out, err = run(capsys, "eval", "--space", "G", "--", text)
    assert (code, out) == (2, "")
    assert err == f"parse error: unexpected character {text[at]!r} (at position {at})\n"


# degrees near MAX_PENCIL_DEGREE are left to test_oracle_pencil_degree_limit
_integer_argvs = st.one_of(
    st.builds(
        lambda command, n, flags: [command, str(n), *flags],
        st.sampled_from(["tangent-count", "bitangent-count"]),
        st.integers(-5, 12),
        st.sampled_from([(), ("--trace",), ("--json",)]),
    ),
    st.builds(
        lambda d, s: ["oracle", "pencil", "--degree", str(d), "--seed", str(s)],
        st.integers(-2, 6),
        st.integers(-50, 50),
    ),
    st.builds(lambda s: ["oracle", "four-lines", "--seed", str(s)], st.integers(-50, 50)),
)


@settings(max_examples=200, derandomize=True, deadline=timedelta(seconds=5))
@given(argv=_integer_argvs)
def test_integer_arguments_are_answered_or_rejected(argv):
    _answered_or_rejected(argv)


_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
_digit_strings = st.text("0123456789", min_size=1, max_size=45)
_json_leaves = st.one_of(
    st.integers(-(10**60), 10**60),
    st.floats(),
    _digit_strings,
    st.builds("-{}/{}".format, _digit_strings, _digit_strings),
    st.builds("{}e{}".format, _digit_strings, _digit_strings),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6), st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=30,
)
_points = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


def _line_entries(x, y, p, q):
    """Pluecker coordinates of the line through points x and y, scaled by p/q."""
    coords = [(x[i] * y[j] - x[j] * y[i]) * p for i, j in _PAIRS]
    return coords if q == 1 else [f"{c}/{q}" for c in coords]


_lines_on_the_quadric = st.builds(
    _line_entries, _points, _points, st.integers(-(10**41), 10**41), st.integers(0, 10**41)
)
_lines = st.one_of(_lines_on_the_quadric, st.lists(_json_leaves, min_size=6, max_size=6))
_lines_values = st.one_of(
    st.lists(_lines_on_the_quadric, min_size=4, max_size=4),
    st.lists(_lines, min_size=3, max_size=5),
    _json_values,
)
_input_texts = st.one_of(
    _lines_values.map(lambda lines: json.dumps({"lines": lines})),
    _json_values.map(json.dumps),
    st.text(max_size=40),
)


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(text=_input_texts)
def test_input_files_are_answered_or_rejected(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "four-lines-input.json"
    path.write_text(text, encoding="utf-8")
    _answered_or_rejected(["oracle", "four-lines", "--input", str(path)])


def _widest_line(rng):
    """A line whose 6 entries have 40-digit numerators and pairwise coprime denominators.

    Entry (ij) is m*q_kl/q_ij for the complementary pair (kl), so each
    quadric term p_ij*p_kl is the small integer m*m', and the products of
    (1, 1), (1, 1) and (-2, 1) cancel.  Canonical coordinates then clear all
    six denominators and reach about 240 digits, the most 40-digit parts allow.
    """
    q = []
    while len(q) < 6:
        r = rng.randrange(10**39, 4 * 10**39)
        if all(math.gcd(r, e) == 1 for e in q):
            q.append(r)
    q01, q02, q03, q23, q31, q12 = q
    factors = [(1, 1), (1, 1), (-2, 1)]
    rng.shuffle(factors)
    (a, b), (c, d), (e, f) = factors
    entries = [(a * q23, q01), (c * q31, q02), (e * q12, q03), (b * q01, q23), (d * q02, q31)]
    entries.append((f * q03, q12))
    assert all(len(str(abs(n))) == len(str(d)) == 40 for n, d in entries)
    return [f"{n}/{d}" for n, d in entries]


def _write_lines(tmp_path, lines):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"lines": lines}))
    return str(path)


def test_oracle_four_lines_input_at_the_digit_limit(capsys, tmp_path):
    assert cli.MAX_INPUT_DIGITS == 40
    rng = random.Random(0)
    path = _write_lines(tmp_path, [_widest_line(rng) for _ in range(4)])
    code, out, err = run(capsys, "oracle", "four-lines", "--input", path)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["infinite"], payload["total_multiplicity"]) == (False, 2)
    assert max(len(str(abs(c))) for line in payload["lines"] for c in line) > 230
    assert 3000 < max(map(len, re.findall(r"\d+", out))) < 4300


_TETRAHEDRON = [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0]]


@pytest.mark.parametrize("entry", [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0], [], "001000"])
def test_oracle_four_lines_input_length_refusal_is_the_commands_own(capsys, tmp_path, entry):
    # the command checks each line's length before the oracle sees it, so
    # the oracle's own length message never reaches its stderr
    path = _write_lines(tmp_path, _TETRAHEDRON[:3] + [entry])
    code, out, err = run(capsys, "oracle", "four-lines", "--input", path)
    assert (code, out) == (2, "")
    assert err == "error: each line must be a 6-entry array [p01, p02, p03, p23, p31, p12]\n"


@pytest.mark.parametrize(
    "entry, reason",
    [
        ("9" * 41, "exceeds 40 digits"),
        ("-1/" + "7" * 41, "exceeds 40 digits"),
        (10**40, "exceeds 40 digits"),
        ("2/0", "zero denominator"),
        ("1e9999999", "expected an integer"),
        ("1e99999999", "expected an integer"),
        (True, "expected an integer"),
        (None, "expected an integer"),
        (0.5, "expected an integer"),
        (" 1", "expected an integer"),
        ("１", "expected an integer"),
    ],
)
def test_oracle_four_lines_input_rejects_entry(capsys, tmp_path, entry, reason):
    lines = json.loads(json.dumps(_TETRAHEDRON))
    lines[2][4] = entry
    path = _write_lines(tmp_path, lines)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "four-lines", "--input", path)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3, entry 5: ") and reason in err


def test_oracle_four_lines_input_accepts_40_digit_integers(capsys, tmp_path):
    lines = json.loads(json.dumps(_TETRAHEDRON))
    lines[0][0] = 10**40 - 1
    lines[1][5] = "-" + "9" * 40
    code, out, err = run(capsys, "oracle", "four-lines", "--input", _write_lines(tmp_path, lines))
    assert (code, err) == (0, "")
    assert json.loads(out)["lines"][:2] == _TETRAHEDRON[:2]


def test_oracle_four_lines_input_rejects_deep_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "oracle", "four-lines", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not a readable JSON file: ")
