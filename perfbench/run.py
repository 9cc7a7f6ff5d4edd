#!/usr/bin/env python3
"""gdeq benchmark: one workload per invocation, run in this process.

    python3 perfbench/run.py --workload train-classical --seed 1 \\
        --seconds 15 --trace 0 [--out BENCH_<tag>.json]

Run from anywhere inside a checkout: gdeq is imported from the checkout's
own ``src/`` and MUTAG read from its ``data/``; the run fails with exit
status 2, printing no result, when either is missing.

With ``--trace 0`` the run sets the workload up, runs one warm-up unit,
then runs whole units for ``--seconds`` seconds (at least ``MIN_UNITS``)
with ``SETUP_REPS - 1`` more set-ups spread among them, and reports the
end-to-end metrics as medians.  With
``--trace 1`` it does the same twice for half the time each, first
untraced and then with every gdeq entry point wrapped in spans, and
reports the per-layer metrics of the traced half plus the tracing
overhead.  Correctness checks run after the timing on each half's final
state.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 1 when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPS = 11
MIN_UNITS = 3

# end-to-end metric -> (unit, better)
END_TO_END = {
    "work_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program or its data."""


def load_program(root: Path) -> None:
    """Put the checkout's ``src/`` first on the path and import gdeq from it."""
    src = root / "src"
    if not (src / "gdeq" / "__init__.py").is_file():
        raise ProgramMissing(f"no gdeq package under {src}")
    if not (root / "data" / "MUTAG").is_dir():
        raise ProgramMissing(f"no MUTAG data under {root / 'data'}")
    sys.path.insert(0, str(src))
    import gdeq

    if Path(gdeq.__file__).resolve().parent != (src / "gdeq").resolve():
        raise ProgramMissing(f"gdeq imported from {gdeq.__file__}, not {src}")


@dataclass
class Phase:
    """What one set-up + timed loop measured."""

    setup_s: list
    units: list            # per-unit figures
    setup_windows: list    # (start, end) of every set-up
    unit_windows: list     # (start, end) of every timed unit
    peak_rss_mb: float
    state: object
    counter: object


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float) -> Phase:
    """Set up, warm up, then run whole units for ``seconds``.

    The first set-up's state is the one measured.  The other set-ups are
    spread over the timed loop and their states dropped, so ``setup_s``
    samples the machine over the same stretch of time as the units do.
    """
    import tracing

    setup_s, setup_windows, unit_windows, units = [], [], [], []

    def set_up():
        t0 = perf_counter()
        state = workload.setup(seed)
        t1 = perf_counter()
        setup_s.append(t1 - t0)
        setup_windows.append((t0, t1))
        return state

    counter = tracing.SolveCounter()
    counter.install()
    try:
        state = set_up()
        workload.unit(state)          # warm-up, not reported
        start = perf_counter()
        while len(units) < MIN_UNITS or perf_counter() - start < seconds:
            t0 = perf_counter()
            units.append(workload.unit(state))
            unit_windows.append((t0, perf_counter()))
            due = SETUP_REPS * min(1.0, (perf_counter() - start) / seconds)
            while len(setup_s) < due:
                set_up()
        while len(setup_s) < SETUP_REPS:
            set_up()
    finally:
        counter.uninstall()
    return Phase(setup_s, units, setup_windows, unit_windows, peak_rss_mb(),
                 state, counter)


def end_to_end(workload, phase: Phase) -> tuple[dict, dict]:
    """(end-to-end metric -> value, workload figure -> value), as medians."""
    figures = {name: statistics.median(u[name] for u in phase.units)
               for name in workload.figures}
    return ({"work_per_s": figures[workload.primary],
             "setup_s": statistics.median(phase.setup_s),
             "peak_rss_mb": phase.peak_rss_mb}, figures)


def overhead_pct(plain: dict, traced: dict) -> dict:
    """How much worse each end-to-end metric read with tracing on, in %."""
    out = {}
    for name, (_, better) in END_TO_END.items():
        ratio = (plain[name] / traced[name] if better == "higher"
                 else traced[name] / plain[name])
        out[name] = 100.0 * (ratio - 1.0)
    return out


def blas() -> str:
    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{dep.get('name')} {dep.get('version')}"


def commit(root: Path) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    return "unknown"


def run_facts(args, workload, phases) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "unit": workload.unit_name,
        "attempts": workload.attempt_name,
        "units": [len(p.units) for p in phases],
        "setup_reps": SETUP_REPS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(ROOT),
    }


def run(args, sizes=None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    import tracing
    import workloads

    wl = workloads.make(args.workload, ROOT, sizes or workloads.FULL)
    tracer = None
    if args.trace:
        plain = measure(wl, args.seed, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(wl, args.seed, args.seconds / 2)
        finally:
            tracer.uninstall()
        phases = [plain, traced]
    else:
        phases = [measure(wl, args.seed, args.seconds)]
    last = phases[-1]
    e2e, figures = end_to_end(wl, last)

    checks, attempted, failed = [], 0, 0
    for phase in phases:
        checks += wl.checks(phase.state)
        a, f = wl.attempted_failed(phase.state, phase.counter)
        attempted, failed = attempted + a, failed + f
    solves = {f"{p}.{o}": sum(ph.counter.counts[(p, o)] for ph in phases)
              for p, o in phases[0].counter.counts}

    record = {"facts": run_facts(args, wl, phases), "solves": solves,
              "checks": [vars(c) for c in checks]}
    if tracer is None:
        metrics = {n: {"value": v, "unit": END_TO_END[n][0]} for n, v in e2e.items()}
        record["figures"] = {n: {"value": figures[n], "unit": u}
                             for n, u in wl.figures.items()}
    else:
        plain_e2e, _ = end_to_end(wl, plain)
        layers, left_out = tracing.layer_metrics(
            tracer.spans, tracer.installed, last.setup_windows,
            last.unit_windows)
        overhead = overhead_pct(plain_e2e, e2e)
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layers.items()}
        metrics["trace.overhead_pct"] = {"value": overhead["work_per_s"],
                                         "unit": "%"}
        record["facts"]["tracing_overhead_pct"] = overhead
        record["left_out"] = left_out
        record["missing_bindings"] = tracer.missing
        outdir = ROOT / ".bench_out"
        outdir.mkdir(exist_ok=True)
        tracer.write(outdir / f"spans-{args.workload}.jsonl")
    result = {"correct": all(c.ok for c in checks), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    return result, record


def report(record: dict) -> str:
    facts, result = record["facts"], record["result"]
    lines = [f"perfbench {facts['workload']} seed={facts['seed']} "
             f"seconds={facts['seconds']:g} trace={facts['trace']}: "
             f"{facts['units']} {facts['unit']}s timed, "
             f"{facts['setup_reps']} set-ups each"]
    named = dict(record.get("figures", {}))
    named.update(result["metrics"])
    for name, m in named.items():
        lines.append(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    lines.append(f"  {'fail_share':34s} {result['failed']} failed / "
                 f"{result['attempted']} attempted {facts['attempts']}")
    lines.append("  solves " + ", ".join(f"{k} {v}" for k, v in
                                         record["solves"].items()))
    for c in record["checks"]:
        lines.append(f"  check {c['name']}: {'PASS' if c['ok'] else 'FAIL'}"
                     f" - {c['detail']}")
    for name in record.get("left_out", []):
        lines.append(f"  {name}: missing, its entry point is gone")
    return "\n".join(lines)


WORKLOADS = ("train-classical", "train-sd", "certify-sweep", "experiment-id")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full record here as JSON")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program(ROOT)
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    result, record = run(args)
    print(report(record))
    print("facts " + json.dumps(record["facts"]))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
