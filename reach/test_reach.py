"""Quick tests of the arc recorder and the reach report: python -m pytest reach"""

import json
import os
import subprocess
import sys
import textwrap

from arcs import SRC, ArcRecorder
from report import ROOT, arm, missed, ranges, report


def branch(x):
    if x: y = 1  # noqa: E701 - one line, two arms
    else: y = 2  # noqa: E701
    return y


FIRST = branch.__code__.co_firstlineno


def test_the_recorder_tells_the_arms_of_one_line_apart():
    with ArcRecorder(__file__) as taken:
        branch(True)
    with ArcRecorder(__file__) as not_taken:
        branch(False)
    test, other, ret = FIRST + 1, FIRST + 2, FIRST + 3
    assert taken.arcs == {__file__: {(0, test), (test, ret), (ret, 0)}}
    assert not_taken.arcs == {__file__: {(0, test), (test, other), (other, ret), (ret, 0)}}


def test_the_recorder_skips_other_files_and_restores_the_tracer():
    before = sys.gettrace()
    with ArcRecorder(str(SRC)) as recorder:
        branch(True)
        json.dumps([1])
    assert recorder.arcs == {}
    assert sys.gettrace() is before


def test_missed_lines_and_the_arms_between_lines_the_corpus_reaches():
    # tier-1 takes both arms of line 2 and reaches line 5; the corpus takes one arm
    tier1 = {(0, 1), (1, 2), (2, 3), (2, 4), (3, 0), (4, 5), (5, 0)}
    corpus = {(0, 1), (1, 2), (2, 3), (3, 0)}
    lines, arms = missed(tier1, corpus)
    assert lines == [4, 5]
    assert arms == []
    corpus |= {(2, 4), (4, 0)}
    lines, arms = missed(tier1, corpus)
    assert lines == [5]
    assert arms == []
    corpus |= {(4, 5), (5, 0)}
    assert missed(tier1 | {(1, 3)}, corpus) == ([], [(1, 3)])
    assert missed(tier1 | {(0, 0)}, corpus) == ([], [])


def test_ranges_and_arms_print_compactly():
    assert ranges([]) == ""
    assert ranges([3, 7, 8, 9, 12]) == "3, 7-9, 12"
    assert [arm(a) for a in [(0, 4), (4, 6), (6, 0)]] == ["entry->4", "4->6", "6->exit"]
    tier1 = {"m.py": {(0, 1), (1, 2), (1, 3)}, "n.py": {(0, 1)}}
    lines = report(tier1, {"m.py": {(0, 1), (1, 2)}, "n.py": {(0, 1)}})
    assert lines == [
        "m.py: 1 lines, 0 arms",
        "  lines 3",
        "n.py: the corpus reaches every line and arm that tier-1 reaches",
    ]


def test_arcs_main_records_the_package_under_pytest(tmp_path):
    test = tmp_path / "test_probe.py"
    test.write_text(textwrap.dedent("""
        from schubert3.graded_ring import PolyRing

        def test_degree():
            assert PolyRing([("t", 1)]).monomial_degree((3,)) == 3
    """))
    out = tmp_path / "arcs.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    arcs_py = str(ROOT / "reach" / "arcs.py")
    cmd = [sys.executable, arcs_py, str(out), "-q", "-p", "no:cacheprovider", str(test)]
    done = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    arcs = json.loads(out.read_text())
    assert set(arcs) <= {str(p) for p in SRC.glob("*.py")}
    assert str(SRC / "graded_ring.py") in arcs
