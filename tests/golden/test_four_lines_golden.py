"""Recorded CLI answers replay byte for byte (see regenerate.py)."""

import hashlib
import json
from pathlib import Path

from regenerate import COLUMNS, EVAL_REFUSALS, LONG_N, eval_records, readme_records
from schubert3.cli import run_cli

HERE = Path(__file__).resolve().parent


def _load(name: str) -> list[dict]:
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def _changed(records: list[dict], capsys, monkeypatch) -> list:
    """The records whose exit code, stderr or stdout digest differ on replay."""
    monkeypatch.chdir(HERE)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    changed = []
    for record in records:
        code = run_cli(record["argv"])
        out, err = capsys.readouterr()
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, err, digest) != (record["exit"], record["stderr"], record["stdout_sha256"]):
            changed.append((record["argv"], code, err, out[:200]))
    return changed


def test_four_lines_output_is_the_recorded_output(capsys, monkeypatch):
    records = _load("four_lines.json")
    argvs = [record["argv"] for record in records]
    assert [argv[3] for argv in argvs[:200]] == [str(seed) for seed in range(200)]
    files = sorted(argv[3] for argv in argvs if argv[2] == "--input")
    inputs = [f"inputs/{path.name}" for path in (HERE / "inputs").iterdir()]
    assert files == sorted(inputs + ["inputs/missing.json"])
    changed = _changed(records, capsys, monkeypatch)
    assert not changed, changed


def test_pencil_output_is_the_recorded_output(capsys, monkeypatch):
    records = _load("pencil.json")
    argvs = [record["argv"] for record in records]
    assert argvs == [
        ["oracle", "pencil", "--degree", str(degree), "--seed", str(seed)]
        for degree in (*range(9), 41)
        for seed in range(4)
    ]
    # degrees 0 and 41 are refused, every degree in the domain is answered
    assert [record["exit"] for record in records] == [2] * 4 + [0] * 32 + [2] * 4
    changed = _changed(records, capsys, monkeypatch)
    assert not changed, changed


def test_selftest_output_is_the_recorded_output(capsys, monkeypatch):
    records = _load("selftest.json")
    assert [record["argv"] for record in records] == [["selftest"]]
    assert records[0]["exit"] == 0
    changed = _changed(records, capsys, monkeypatch)
    assert not changed, changed


def test_eval_output_is_the_recorded_output(capsys, monkeypatch):
    records = _load("eval.json")
    argvs = [record["argv"] for record in records]
    assert argvs == eval_records()
    # the refusal classes, an unknown symbol on each space, the unknown space,
    # each count below the first n of its domain, plain, --trace and --json,
    # and each count at an n one digit past the limit
    first_n = {"tangent-count": 1, "bitangent-count": 2}
    refused = [
        argv
        for argv in argvs
        if argv[-1] in (*EVAL_REFUSALS, "unknown", "P4", LONG_N)
        or argv[0] in first_n and int(argv[1]) < first_n[argv[0]]
    ]
    assert len(refused) == len(EVAL_REFUSALS) + 4 + 1 + 2 * 3 + 3 * 3 + 2
    # every seeded expression and every count in its domain is answered
    assert [argv for argv, record in zip(argvs, records) if record["exit"]] == refused
    assert {record["exit"] for record in records if record["argv"] in refused} == {2}
    changed = _changed(records, capsys, monkeypatch)
    assert not changed, changed


def test_readme_output_is_the_recorded_output(capsys, monkeypatch):
    records = _load("readme.json")
    argvs = [record["argv"] for record in records]
    assert argvs == readme_records()
    assert len(argvs) == 13
    assert ["oracle", "four-lines", "--input", "inputs/readme.json"] in argvs
    assert {record["exit"] for record in records} == {0}
    changed = _changed(records, capsys, monkeypatch)
    assert not changed, changed
