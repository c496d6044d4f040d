"""Recorded `oracle four-lines` answers replay byte for byte (see regenerate.py)."""

import hashlib
import json
from pathlib import Path

from schubert3.cli import run_cli

HERE = Path(__file__).resolve().parent


def test_four_lines_output_is_the_recorded_output(capsys, monkeypatch):
    records = json.loads((HERE / "four_lines.json").read_text(encoding="utf-8"))
    argvs = [record["argv"] for record in records]
    assert [argv[3] for argv in argvs[:200]] == [str(seed) for seed in range(200)]
    files = sorted(argv[3] for argv in argvs if argv[2] == "--input")
    inputs = [f"inputs/{path.name}" for path in (HERE / "inputs").iterdir()]
    assert files == sorted(inputs + ["inputs/missing.json"])
    monkeypatch.chdir(HERE)
    changed = []
    for record in records:
        code = run_cli(record["argv"])
        out, err = capsys.readouterr()
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, err, digest) != (record["exit"], record["stderr"], record["stdout_sha256"]):
            changed.append((record["argv"], code, err, out[:200]))
    assert not changed, changed
