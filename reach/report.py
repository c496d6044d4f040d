"""Lines and arms of src/schubert3 that tier-1 reaches and the golden corpus does not.

    python reach/report.py

runs tier-1 (`pytest tests`) and the golden replay (`pytest tests/golden`),
each in a fresh interpreter under `arcs.py`, so that no cache filled by one
run hides a line from the other.  For each module it prints the lines that
tier-1 runs and the replay does not, and the arms: arcs that tier-1 takes
and the replay does not, between lines that the replay runs.  The tool
fails if either run fails.  Under the recorder tier-1 runs several times
slower than without it.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = {"tier-1": ["tests"], "corpus": ["tests/golden"]}
Arcs = set[tuple[int, int]]


def record(args: list[str], out: Path) -> dict[str, Arcs]:
    """Arcs per module name (path under src/) of one pytest run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    arcs_py = str(ROOT / "reach" / "arcs.py")
    cmd = [sys.executable, arcs_py, str(out), "-q", "-p", "no:cacheprovider", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(args)} failed under the recorder:\n{done.stdout[-3000:]}")
    arcs = json.loads(out.read_text(encoding="utf-8"))
    src = str(ROOT / "src") + os.sep
    return {name.removeprefix(src): {tuple(a) for a in pairs} for name, pairs in arcs.items()}


def lines_of(arcs: Arcs) -> set[int]:
    return {line for _, line in arcs if line}


def missed(suite: Arcs, corpus: Arcs) -> tuple[list[int], list[tuple[int, int]]]:
    """Lines the suite reaches and the corpus does not, and arms between lines both reach.

    A frame that runs no line, such as a suspended generator being closed,
    leaves the arc (0, 0), which names no line and is not an arm.
    """
    corpus_lines = lines_of(corpus) | {0}
    lines = sorted(lines_of(suite) - corpus_lines)
    arms = sorted(
        (a, b) for a, b in suite - corpus if (a or b) and a in corpus_lines and b in corpus_lines
    )
    return lines, arms


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def arm(pair: tuple[int, int]) -> str:
    a, b = pair
    return f"{a or 'entry'}->{b or 'exit'}"


def report(tier1: dict, corpus: dict) -> list[str]:
    out = []
    for module in sorted(tier1):
        lines, arms = missed(tier1[module], corpus.get(module, set()))
        if not lines and not arms:
            out.append(f"{module}: the corpus reaches every line and arm that tier-1 reaches")
            continue
        out.append(f"{module}: {len(lines)} lines, {len(arms)} arms")
        if lines:
            out.append(f"  lines {ranges(lines)}")
        if arms:
            out.append(f"  arms  {', '.join(map(arm, arms))}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: record(args, Path(tmp) / f"{name}.json") for name, args in SUITES.items()}
    print("\n".join(report(runs["tier-1"], runs["corpus"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
