"""The README's Python examples and command lines run as written."""

import doctest
import re
import shlex
from pathlib import Path

from schubert3.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
LINES_JSON = ROOT / "tests" / "golden" / "inputs" / "readme.json"


def test_readme_python_examples():
    # each ```python block is a doctest on its own; the closing fence is not
    # part of it, so it is not read as expected output
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    for k, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, {}, f"README.md python block {k}", str(README), 0)
        report: list[str] = []
        failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
        assert attempted and not failed, "".join(report)


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    # every `schubert3 ...` line of the ```sh blocks, run where a lines.json exists
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("schubert3 ")
    ]
    assert len(commands) == 13
    # the golden corpus replays these lines with the same file
    (tmp_path / "lines.json").write_text(LINES_JSON.read_text())
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = run_cli(argv)
        assert code == 0, (argv, capsys.readouterr().err)


def test_readme_layout_names_every_module():
    # the src/schubert3/ part of the Layout block: its header and the indented lines under it
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```$", README.read_text(), re.M | re.S).group(1)
    package = re.search(r"^src/schubert3/\n((?:[ \t].*\n)*)", layout, re.M).group(1)
    named = set(re.findall(r"\b\w+\.py\b", package))
    modules = {path.name for path in (ROOT / "src" / "schubert3").glob("*.py")} - {"__init__.py"}
    assert named == modules
