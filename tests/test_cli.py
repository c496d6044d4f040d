"""Exit codes, output formats and determinism of the command line interface."""

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import schubert3
from schubert3 import checks, cli, dsl, spaces
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
    code, out, _ = run(capsys, "tangent-count", "4", "--trace")
    assert out.splitlines()[0] == "12"
    assert any("excess" in line for line in out.splitlines())
    code, out, _ = run(capsys, "tangent-count", "4", "--json")
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["count"] == 12
    assert isinstance(payload["trace"], list) and payload["trace"]


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


def test_bitangent_count_rejects_nonpositive(capsys):
    assert run(capsys, "bitangent-count", "0")[0] == 2
    assert run(capsys, "tangent-count", "0")[0] == 2


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
    assert code == 2
    assert out == ""
    assert "limit of 40" in err
    assert "Traceback" not in err


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


def test_package_exports_resolve_on_demand():
    done = _python(
        "-c",
        "from schubert3 import evaluate_expression; import schubert3; "
        "print(evaluate_expression('G', 'g^4').top); "
        "print(all(getattr(schubert3, name) is not None for name in schubert3.__all__)); "
        "print(sorted(set(schubert3.__all__) - set(dir(schubert3))))",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2\nTrue\n[]\n"
    assert "evaluate_expression" in schubert3.__all__ and "SolutionSet" in schubert3.__all__
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        schubert3.missing


@pytest.mark.parametrize(
    "argv", [["eval", "--space", "G", "g^4"], ["verify-formulas"]], ids=["eval", "verify-formulas"]
)
def test_symbolic_commands_load_only_the_rings(argv):
    done = _python(
        "-c",
        "import sys; from schubert3.cli import run_cli; "
        f"code = run_cli({argv!r}); "
        "print(code, *sorted(m for m in sys.modules if m.startswith('schubert3')))",
    )
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert loaded == [
        "schubert3",
        "schubert3.chern_segre",
        "schubert3.cli",
        "schubert3.dsl",
        "schubert3.graded_ring",
        "schubert3.linalg",
        "schubert3.spaces",
    ]


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
    spaces.space("G")  # built before the false identity joins the table
    false = spaces.Formula("F", "G", (("g^2", "g_p"),))
    monkeypatch.setattr(spaces, "FORMULAS", spaces.FORMULAS + (false,))
    code, out, _ = run(capsys, "verify-formulas", "--space", "G")
    assert code == 1
    lines = out.splitlines()
    assert lines[-2] == " F  G  g^2 = g_p  FAIL"
    assert lines[-1] == "1 of 14 identities failed"


def test_oracle_pencil_rejects_nonpositive_degree():
    done = _python("-m", "schubert3", "oracle", "pencil", "--degree", "-1", timeout=30)
    assert done.returncode == 2
    assert "degree at least 1" in done.stderr
    assert "Traceback" not in done.stderr


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


@settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
@given(name=st.sampled_from(spaces.SPACE_NAMES), text=_eval_texts)
def test_eval_answers_or_rejects_any_text(name, text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(["eval", "--space", name, "--", text])
    assert code in (0, 2)
    assert (code == 0) == (err.getvalue() == "")
    assert "Traceback" not in err.getvalue()
