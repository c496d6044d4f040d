"""Record the arcs that running code takes through the package's sources.

An arc is a pair (previous line, line) inside one frame.  A frame's first
line follows line 0, and leaving a frame is the arc (last line, 0); a
generator resumed is a new frame.  Lines show what ran.  Arcs also show
which arm of a branch ran, such as the body of an `if` that shares its
line with the test.  Python 3.11 has no `sys.monitoring`, so the recorder
uses `sys.settrace`, and it traces lines only in frames of the files under
its prefix.

    python reach/arcs.py OUT.json [PYTEST ARGS...]

runs pytest in this interpreter under the recorder and writes
{filename: [[previous, line], ...]} for the files under src/schubert3.
Tests that start a subprocess are not seen.
"""

import json
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schubert3"


class ArcRecorder:
    """Collects the arcs taken, per file, in files whose path starts with `prefix`."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.arcs: dict[str, set[tuple[int, int]]] = {}

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        arcs = self.arcs.setdefault(frame.f_code.co_filename, set())
        last = 0

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                arcs.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                arcs.add((last, 0))
            return local

        return local

    def __enter__(self) -> "ArcRecorder":
        self._previous = sys.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)


def main(argv: list[str]) -> int:
    import pytest

    out, args = argv[0], argv[1:]
    with ArcRecorder(str(SRC)) as recorder:
        code = pytest.main(args)
    arcs = {name: sorted(pairs) for name, pairs in recorder.arcs.items()}
    Path(out).write_text(json.dumps(arcs, sort_keys=True), encoding="utf-8")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
