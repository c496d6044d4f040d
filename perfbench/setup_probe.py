"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py STEP...   (schubert3 must be importable)

Times `import schubert3` and then each warm-up step in order, and prints
one JSON object: {"import_ms": ..., "steps": {step: ms}, "total_s": ...}.
Steps: space.<name> builds one space, tangent runs the first tangent_count
(the blow-up ring and the phi certificate), cli imports the CLI entry point.
Nothing else is imported before the clock starts, so modules the package
pulls in (argparse, json) are charged to the import.
"""

import time

_T0 = time.perf_counter()

import schubert3  # noqa: E402

_T_IMPORT = time.perf_counter()


def run_step(name: str) -> None:
    if name.startswith("space."):
        from schubert3 import spaces

        spaces.space(name[len("space."):])
    elif name == "tangent":
        from schubert3 import coincidence

        coincidence.tangent_count(2)
    elif name == "cli":
        from schubert3.cli import main  # noqa: F401
    else:
        raise ValueError(f"unknown set-up step {name!r}")


def main(steps) -> None:
    times = {}
    for name in steps:
        t = time.perf_counter()
        run_step(name)
        times[name] = (time.perf_counter() - t) * 1e3
    total = time.perf_counter() - _T0

    import json

    print(
        json.dumps(
            {
                "module": schubert3.__file__,
                "import_ms": (_T_IMPORT - _T0) * 1e3,
                "steps": times,
                "total_s": total,
            }
        )
    )


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
