"""Benchmark for schubert3: four seeded workloads, one command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: symbolic, four_lines, pencil, cli (see workloads.py and
manifest.json for each one's input mix and reason).  Every operation's
answer is checked against an independent reference.

Each workload is a closed loop with one client and no threads: the next
operation starts when the previous one has returned.  The loop runs whole
rounds of the workload's mix until S seconds have passed and at least
MIN_OPS operations are done.  Set-up is measured in fresh interpreters
(setup_probe.py), spread over the run.

The host is shared, and for seconds to minutes at a time everything on
its CPU runs up to twice as slowly.  Next to every operation and set-up
probe the benchmark times a fixed pure-Python loop (machine_speed_ns) and
scales the measured time by REFERENCE_SPEED_NS / that reading.  Reported
times are therefore in milliseconds of a CPU on which the loop takes 250 us;
the raw medians and the loop's own median are printed alongside.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs every round twice, once untraced and once with spans around each call
into schubert3, and reports the per-layer metrics plus the tracing overhead.
Spans are written to .perfbench-out/ at the end of a traced run.

Human-readable lines go to stdout first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  A documented refusal
(DegeneratePencil, or exit 2 from `oracle pencil`) counts as failed but is
not a wrong answer.  The exit code is 0 when no answer was wrong, 1 when
an operation raised or answered wrongly, and 2 when the program or the
arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import NullTracer, Tracer, summarize, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_OPS = 100  # so that ten latency samples lie beyond the 90th percentile
SETUP_RUNS = 15
STARTUP_RUNS = 5
CHILD_TIMEOUT_S = 120
SPEED_EVERY_S = 0.05
REFERENCE_SPEED_NS = 250_000

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SPACE_STEPS = ("space.P3", "space.P3dual", "space.G", "space.PS")
ALL_STEPS = SPACE_STEPS + ("tangent",)

CLI_KINDS = (
    "eval",
    "verify-formulas",
    "tangent-count",
    "bitangent-count",
    "oracle-four-lines",
    "oracle-pencil",
    "selftest",
)

SPANS = (
    "op",
    "dsl.parse",
    "dsl.evaluate",
    "graded_ring.mul",
    "graded_ring.pow",
    "graded_ring.format_terms",
    "spaces.render_in_classes",
    "spaces.evaluate_top",
    "spaces.verify_formula_suite",
    "coincidence.tangent_count",
    "coincidence.bitangent_derivation",
    "oracle.plucker_from_points",
    "oracle.lines_meeting_four.general",
    "oracle.lines_meeting_four.two_transversal",
    "oracle.SurfaceForm",
    *(f"oracle.pencil_tangency_count.d{n}" for n in range(2, 9)),
    *(f"cli.{kind}" for kind in CLI_KINDS),
)

OUTCOMES = ("irrational", "rational", "double", "infinite")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of every per-layer metric, in report order."""
    metrics = [("setup.import_ms", "ms")]
    metrics += [(f"setup.spaces.{step}_ms", "ms") for step in SPACE_STEPS]
    metrics += [
        ("setup.coincidence.first_tangent_count_ms", "ms"),
        ("cli.interpreter_startup_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    for span in SPANS:
        metrics += [(f"{span}.calls", "count"), (f"{span}.p50_us", "us"), (f"{span}.self_ms", "ms")]
    metrics += [(f"oracle.lines_meeting_four.outcome.{o}", "count") for o in OUTCOMES]
    metrics += [
        ("oracle.pencil.degenerate", "count"),
        ("oracle.pencil.generic_ratio", "ratio"),
        ("tracing.overhead_pct", "%"),
    ]
    return metrics


def machine_speed_ns() -> int:
    """Best of three timings of a fixed pure-Python loop.

    The reading rises when the shared host slows this CPU down and does not
    depend on schubert3.  The loop mixes the kinds of work schubert3 does
    (Fraction arithmetic, dicts keyed by tuples, big integers): under
    contention memory-heavy code slows more than a bare integer loop, and
    this mix tracks the program's slowdown far more closely.
    """
    best = None
    for _ in range(3):
        t = time.perf_counter_ns()
        table: dict[tuple[int, int, int], int] = {}
        acc = Fraction(0)
        for i in range(1, 120):
            key = (i % 7, i % 5, i % 3)
            table[key] = table.get(key, 0) + i * i
            acc += Fraction(i, i + 1)
        big = 3**200
        for i in range(60):
            big = (big * 7 + i) % (1 << 900)
        dt = time.perf_counter_ns() - t
        best = dt if best is None else min(best, dt)
    return best


def scaled(value: float, speed_ns: float) -> float:
    """A time measured at machine speed `speed_ns`, at the reference speed."""
    return value * REFERENCE_SPEED_NS / speed_ns


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def probe_setup(steps: tuple[str, ...]) -> dict:
    """Time import plus warm-up in one fresh interpreter.

    The result carries the machine-speed reading averaged over both ends.
    """
    before = machine_speed_ns()
    result = json.loads(_run_child([str(HERE / "setup_probe.py"), *steps]).stdout)
    result["speed_ns"] = (before + machine_speed_ns()) / 2
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"probe imported schubert3 from {result['module']}")
    return result


class SetupSampler:
    """Set-up probes spread evenly over the timed loop.

    Each probe runs between two operations and is not part of any
    operation's latency.  One unmeasured probe runs first so bytecode
    caches exist, as they do for an installed package.
    """

    def __init__(self, steps: tuple[str, ...], runs: int, seconds: float) -> None:
        self.steps = steps
        self.runs = runs
        self.interval = seconds / runs
        self.samples: list[dict] = []
        probe_setup(steps)

    def tick(self, elapsed: float) -> None:
        if len(self.samples) < self.runs and elapsed >= len(self.samples) * self.interval:
            self.samples.append(probe_setup(self.steps))

    def finish(self) -> list[dict]:
        while len(self.samples) < self.runs:
            self.samples.append(probe_setup(self.steps))
        return self.samples


def probe_startup(runs: int) -> float:
    """Median wall time of a bare `python -c pass`, in reference ms."""
    times = []
    for _ in range(runs):
        before = machine_speed_ns()
        t = time.perf_counter()
        _run_child(["-c", "pass"])
        ms = (time.perf_counter() - t) * 1e3
        times.append(scaled(ms, (before + machine_speed_ns()) / 2))
    return statistics.median(times)


class Loop:
    """Closed-loop load: whole rounds, latency and machine speed of every op."""

    def __init__(self, workload, traced: bool) -> None:
        from workloads import REFUSALS, CheckFailed

        self.refusals = REFUSALS
        # a check that cannot read the output (bad JSON, missing key) also fails it
        self.check_errors = (CheckFailed, *REFUSALS, LookupError, ValueError, TypeError)
        self.workload = workload
        self.null = NullTracer()
        self.tracer = Tracer() if traced else None
        self.samples: list[tuple[str, int, float]] = []
        self.op_speed: dict[int, float] = {}
        self.busy_ns = {"plain": 0.0, "traced": 0.0}
        self.speed_ns = 0
        self.speed_at = float("-inf")
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.errors: list[str] = []

    def _speed(self) -> int:
        if time.perf_counter() - self.speed_at >= SPEED_EVERY_S:
            self.speed_ns = machine_speed_ns()
            self.speed_at = time.perf_counter()
        return self.speed_ns

    def _pass(self, ops, tr, label: str, tick) -> None:
        for op in ops:
            tick(time.perf_counter() - self.start)
            speed = self._speed()
            tr.next_op()
            error = None
            t0 = time.perf_counter_ns()
            try:
                with tr.span("op"):
                    out = self.workload.run(op, tr)
            except Exception as exc:  # any exception is a failed operation
                error = exc
            dt = time.perf_counter_ns() - t0
            if dt >= SPEED_EVERY_S * 1e9:
                # a long operation: average the readings at both ends
                self.speed_at = float("-inf")
                speed = (speed + self._speed()) / 2
            if error is None:
                try:
                    self.workload.check(op, out)
                except self.check_errors as exc:
                    error = exc
            self.busy_ns[label] += scaled(dt, speed)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.refused += isinstance(error, self.refusals)
                if len(self.errors) < 5:
                    self.errors.append(f"{op.kind} {op.args!r}: {type(error).__name__}: {error}")
            if label == "plain":
                self.samples.append((op.kind, dt, speed))
            else:
                self.op_speed[tr.op_id] = speed

    def run(self, seconds: float, tick) -> None:
        """Run whole rounds for `seconds`; tick(elapsed) is called before each op."""
        self.start = time.perf_counter()
        index = 0
        while True:
            ops = self.workload.round()
            if self.tracer is None:
                self._pass(ops, self.null, "plain", tick)
            else:
                # alternate the order so drift in machine speed hits both sides
                passes = [(self.null, "plain"), (self.tracer, "traced")]
                for tr, label in passes if index % 2 == 0 else passes[::-1]:
                    self._pass(ops, tr, label, tick)
            index += 1
            done = len(self.samples)
            if time.perf_counter() - self.start >= seconds and (self.tracer or done >= MIN_OPS):
                return


def end_to_end(loop: Loop, mix, setup: list[dict], peak_rss_mb: float):
    """Each metric as (value, sample count), times at the reference speed.

    ops_per_s is the rate of the stated mix at each kind's median latency:
    sum(count) / sum(count * median).  Medians keep one slow moment of a
    shared machine from moving the figure, as they do for the latencies.
    """
    lat_ms = sorted(scaled(dt, speed) / 1e6 for _, dt, speed in loop.samples)
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    by_kind: dict[str, list[float]] = {}
    for kind, dt, speed in loop.samples:
        by_kind.setdefault(kind, []).append(scaled(dt, speed))
    mix_ns = sum(count * statistics.median(by_kind[kind]) for kind, count in mix)
    setup_s = statistics.median(scaled(p["total_s"], p["speed_ns"]) for p in setup)
    return {
        "setup_s": (setup_s, len(setup)),
        "ops_per_s": (sum(count for _, count in mix) / (mix_ns / 1e9), len(lat_ms)),
        "latency_p50_ms": (deciles[4], len(lat_ms)),
        "latency_p90_ms": (deciles[8], len(lat_ms)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def per_layer(loop: Loop, setup: list[dict], cli_setup: list[dict], startup_ms: float):
    med = statistics.median

    def step_ms(p, step):
        return scaled(p["steps"][step], p["speed_ns"])

    values = {"setup.import_ms": med(scaled(p["import_ms"], p["speed_ns"]) for p in setup)}
    for step in SPACE_STEPS:
        values[f"setup.spaces.{step}_ms"] = med(step_ms(p, step) for p in setup)
    values["setup.coincidence.first_tangent_count_ms"] = med(step_ms(p, "tangent") for p in setup)
    values["cli.interpreter_startup_ms"] = startup_ms
    values["cli.import_ms"] = med(scaled(p["total_s"] * 1e3, p["speed_ns"]) for p in cli_setup)
    scale = {op: REFERENCE_SPEED_NS / speed for op, speed in loop.op_speed.items()}
    spans = summarize(loop.tracer.spans, scale)
    for name in SPANS:
        calls, p50_us, self_ms = spans.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.p50_us"] = p50_us
        values[f"{name}.self_ms"] = self_ms
    counters = loop.tracer.counters
    for o in OUTCOMES:
        values[f"oracle.lines_meeting_four.outcome.{o}"] = counters.get(
            f"oracle.lines_meeting_four.outcome.{o}", 0
        )
    degenerate = counters.get("oracle.pencil.degenerate", 0)
    generic = counters.get("oracle.pencil.generic", 0)
    values["oracle.pencil.degenerate"] = degenerate
    values["oracle.pencil.generic_ratio"] = generic / (generic + degenerate) if generic else 0.0
    plain, traced = loop.busy_ns["plain"], loop.busy_ns["traced"]
    values["tracing.overhead_pct"] = (traced - plain) / plain * 100
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("symbolic", "four_lines", "pencil", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schubert3" / "__init__.py").is_file():
        print(f"perfbench: no schubert3 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import random

    import schubert3
    import workloads
    from setup_probe import run_step

    if not Path(schubert3.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported schubert3 from {schubert3.__file__}", file=sys.stderr)
        return 2

    # One CPU for the benchmark and its children, so that the speed reading
    # comes from the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cls = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
        f"python {platform.python_version()} cpus {os.cpu_count()}"
    )
    print("mix " + ", ".join(f"{kind} x{count}" for kind, count in cls.mix) + " per round")

    startup_ms = probe_startup(STARTUP_RUNS)
    print(f"interpreter_startup_ms {startup_ms:.3f} ms (n={STARTUP_RUNS}, bare python -c pass)")
    if traced:
        setup = SetupSampler(ALL_STEPS, STARTUP_RUNS, 0).finish()
        cli_setup = SetupSampler(("cli",), STARTUP_RUNS, 0).finish()
        sampler = None
    else:
        sampler = SetupSampler(cls.warmup, SETUP_RUNS, args.seconds)

    for step in cls.warmup:
        run_step(step)
    rng = random.Random(f"perfbench/{args.workload}/{args.seed}")
    workload = cls(rng, env=child_env(), cwd=ROOT) if cls is workloads.Cli else cls(rng)
    loop = Loop(workload, traced)
    loop.run(args.seconds, sampler.tick if sampler else lambda elapsed: None)
    if sampler:
        setup = sampler.finish()

    who = resource.RUSAGE_CHILDREN if cls is workloads.Cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    rate = loop.failed / loop.attempted
    print(
        f"error_rate {rate:.6g} ratio (n={loop.attempted}, failed {loop.failed}, "
        f"of which refused {loop.refused})"
    )
    for message in loop.errors:
        print(f"failure: {message}", file=sys.stderr)

    if traced:
        values = per_layer(loop, setup, cli_setup, startup_ms)
        names = per_layer_metrics()
        for name, unit in names:
            print(f"{name} {values[name]:.6g} {unit}")
        path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        write_spans(path, loop.tracer.spans)
        print(f"spans {len(loop.tracer.spans)} written to {path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    else:
        values = end_to_end(loop, cls.mix, setup, peak_rss_mb)
        for name, unit in END_TO_END:
            value, samples = values[name]
            print(f"{name} {value:.6g} {unit} (n={samples})")
        speeds = [speed for _, _, speed in loop.samples]
        raw_ms = statistics.median(dt for _, dt, _ in loop.samples) / 1e6
        print(
            f"machine_speed_us {statistics.median(speeds) / 1e3:.1f} median, "
            f"{min(speeds) / 1e3:.1f} best (reference {REFERENCE_SPEED_NS / 1e3:g}); "
            f"unscaled latency median {raw_ms:.6g} ms"
        )
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}

    # a refusal counts as failed but is a documented answer, not a wrong one
    correct = loop.failed == loop.refused
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
