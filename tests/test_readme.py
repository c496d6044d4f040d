"""The README's Python examples run as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
