"""Spans and solve-outcome counts, taken by wrapping gdeq's entry points.

Nothing inside ``gdeq`` changes.  Each wrapper replaces one attribute
binding, either a module global or a class attribute, and ``uninstall``
puts the original back.  A name that one module imports from another is a
separate binding (``training.clip_spectral`` is not looked up through
``operators``), so every binding a call goes through is wrapped where it
is looked up.

Spans are kept in memory as tuples and written out once the run is over.
Each span holds its name, start, end, parent span and thread.  The parent
link is per thread, so the interleaved spans of the experiment's two
worker threads stay apart, and a span's self time is its duration minus
the time its direct children took.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

OUTCOMES = ("converged", "max_iter", "diverged")

# (gdeq module, attribute path in it, span name).  ``solvers`` looks up
# ``solve_fixed_point`` as a module global; ``training`` and ``cli`` bind
# the names they import, so those bindings are wrapped too.  The circuit
# adjoint sweep has no public entry; its module-level function is wrapped.
TARGETS = (
    ("graphs", "load_tu_dataset", "graphs.load"),
    ("cli", "load_tu_dataset", "graphs.load"),
    ("graphs", "topology_descriptors", "graphs.descriptors"),
    ("graphs", "make_batches", "graphs.batch"),
    ("training", "make_batches", "graphs.batch"),
    ("solvers", "solve_fixed_point", "solvers.solve"),
    ("operators", "EquilibriumOperator.apply", "operators.apply"),
    ("operators", "clip_spectral", "operators.clip"),
    ("training", "clip_spectral", "operators.clip"),
    ("quantum", "circuit_expectations", "quantum.fwd"),
    ("quantum", "_backward", "quantum.adj"),
    ("quantum", "QuantumModule.refresh_normalization", "quantum.refresh"),
    ("autodiff", "Tape.vjp", "autodiff.vjp"),
    ("training", "encode", "training.encode"),
    ("cli", "encode", "training.encode"),
    ("training", "attention_readout", "training.readout"),
    ("training", "classify", "training.head"),
    ("training", "clip_gradients", "training.optimizer"),
    ("training", "AdamW.step", "training.optimizer"),
    ("contraction", "spectral_norm", "contraction.spectral_norm"),
    ("operators", "spectral_norm", "contraction.spectral_norm"),
    ("contraction", "analyze_operator", "contraction.analyze"),
    ("cli", "analyze_operator", "contraction.analyze"),
    ("cli", "run_training", "cli.run"),
    ("cli", "certificate_report", "cli.certificate"),
    ("cli", "save_checkpoint", "cli.checkpoint"),
    ("cli", "write_kv", "cli.artifacts"),
    ("cli", "write_table", "cli.artifacts"),
)


def outcome(report) -> str:
    if report.diverged:
        return "diverged"
    return "converged" if report.converged else "max_iter"


def _solve_attrs(args, report):
    return (report.iterations, report.fallback_steps, outcome(report))


def _circuit_attrs(args, m):
    from gdeq.quantum import build_program

    rows, n_qubits = m.data.shape
    reps = args[1].rows if len(args) > 1 else 1
    return (rows, rows * len(build_program(n_qubits, reps)))


ATTRS = {"solvers.solve": _solve_attrs, "quantum.fwd": _circuit_attrs}


class Bindings:
    """Replaces attributes of gdeq modules and restores them."""

    def __init__(self):
        self._saved: list = []

    def replace(self, module: str, path: str, make) -> bool:
        """Bind ``make(original)`` at ``gdeq.<module>.<path>``; False if absent."""
        owner = importlib.import_module(f"gdeq.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            return False
        original = vars(owner).get(attr)
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SolveCounter:
    """Counts forward and adjoint solve outcomes; records no time.

    A solve is an adjoint solve when it runs under ``Tape.vjp`` on the same
    thread, which a per-thread depth counter on ``Tape.vjp`` tells.
    """

    def __init__(self):
        self.counts = {(phase, o): 0 for phase in ("fwd", "adj") for o in OUTCOMES}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bindings = Bindings()

    def install(self) -> None:
        self._bindings.replace("autodiff", "Tape.vjp", self._count_depth)
        self._bindings.replace("solvers", "solve_fixed_point", self._count_solve)

    def uninstall(self) -> None:
        self._bindings.restore()

    def _count_depth(self, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.depth = getattr(local, "depth", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                local.depth -= 1
        return wrapper

    def _count_solve(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            phase = "adj" if getattr(self._local, "depth", 0) else "fwd"
            with self._lock:
                self.counts[(phase, outcome(report))] += 1
            return report
        return wrapper

    def total(self, outcomes=OUTCOMES) -> int:
        return sum(n for (_, o), n in self.counts.items() if o in outcomes)


class Tracer:
    """Records one span per call through every wrapped binding."""

    def __init__(self):
        # (id, name, start, end, parent id or -1, thread, attrs)
        self.spans: list = []
        self.installed: set = set()
        self.missing: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._bindings = Bindings()

    def install(self) -> None:
        for module, path, name in TARGETS:
            wrap = functools.partial(self._wrap, name=name, attrs=ATTRS.get(name))
            if self._bindings.replace(module, path, wrap):
                self.installed.add(name)
            else:
                self.missing.append(f"gdeq.{module}.{path}")

    def uninstall(self) -> None:
        self._bindings.restore()

    def _wrap(self, fn, name, attrs):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = attrs(args, out) if attrs and out is not None else None
                spans.append((sid, name, t0, t1, parent,
                              threading.get_ident(), extra))
        return wrapper

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

# (metric, unit, span names it is computed from).  Timed-phase figures are
# per workload unit; ``/setup`` figures are per set-up of the workload.
PER_LAYER = (
    ("graphs.load_s", "s/call", ("graphs.load",)),
    ("graphs.batch_ms", "ms/unit", ("graphs.batch",)),
    ("graphs.descriptors_ms", "ms/setup", ("graphs.descriptors",)),
    ("solvers.fwd_solves", "count/unit", ("solvers.solve",)),
    ("solvers.fwd_ms", "ms/unit", ("solvers.solve",)),
    ("solvers.fwd_self_ms", "ms/unit", ("solvers.solve",)),
    ("solvers.fwd_iters", "iters/solve", ("solvers.solve",)),
    ("solvers.adj_solves", "count/unit", ("solvers.solve", "autodiff.vjp")),
    ("solvers.adj_ms", "ms/unit", ("solvers.solve", "autodiff.vjp")),
    ("solvers.adj_self_ms", "ms/unit", ("solvers.solve", "autodiff.vjp")),
    ("solvers.adj_iters", "iters/solve", ("solvers.solve", "autodiff.vjp")),
    ("solvers.fallback_share", "ratio", ("solvers.solve",)),
    ("solvers.maxiter_solves", "count/unit", ("solvers.solve",)),
    ("solvers.diverged_solves", "count/unit", ("solvers.solve",)),
    ("operators.apply_calls", "calls/unit", ("operators.apply",)),
    ("operators.apply_self_ms", "ms/unit", ("operators.apply",)),
    ("operators.clip_ms", "ms/unit", ("operators.clip",)),
    ("quantum.fwd_calls", "calls/unit", ("quantum.fwd",)),
    ("quantum.fwd_ms", "ms/unit", ("quantum.fwd",)),
    ("quantum.fwd_rows", "rows/unit", ("quantum.fwd",)),
    ("quantum.gate_row_apps", "count/unit", ("quantum.fwd",)),
    ("quantum.adj_calls", "calls/unit", ("quantum.adj",)),
    ("quantum.adj_ms", "ms/unit", ("quantum.adj",)),
    ("quantum.refresh_ms", "ms/unit", ("quantum.refresh",)),
    ("quantum.refresh_setup_ms", "ms/setup", ("quantum.refresh",)),
    ("autodiff.replay_calls", "calls/unit", ("autodiff.vjp", "solvers.solve")),
    ("autodiff.replay_self_ms", "ms/unit", ("autodiff.vjp", "solvers.solve")),
    ("autodiff.param_vjp_ms", "ms/unit", ("autodiff.vjp", "solvers.solve")),
    ("autodiff.backward_self_ms", "ms/unit", ("autodiff.vjp", "solvers.solve")),
    ("training.encode_ms", "ms/unit", ("training.encode",)),
    ("training.readout_ms", "ms/unit", ("training.readout",)),
    ("training.head_ms", "ms/unit", ("training.head",)),
    ("training.optimizer_ms", "ms/unit", ("training.optimizer",)),
    ("contraction.spectral_norm_calls", "calls/unit", ("contraction.spectral_norm",)),
    ("contraction.spectral_norm_ms", "ms/unit", ("contraction.spectral_norm",)),
    ("contraction.analyze_self_ms", "ms/unit", ("contraction.analyze",)),
    ("cli.run_s", "s/call", ("cli.run",)),
    ("cli.certificate_ms", "ms/unit", ("cli.certificate",)),
    ("cli.checkpoint_ms", "ms/unit", ("cli.checkpoint",)),
    ("cli.artifacts_ms", "ms/unit", ("cli.artifacts",)),
)


def layer_metrics(spans, installed, setup_windows,
                  unit_windows) -> tuple[dict, list]:
    """(metric -> (value, unit), names left out) from recorded spans.

    Only spans that start inside a set-up or a timed unit count, toward
    that set-up or unit.  A metric whose
    spans were not installed, because the entry point no longer exists, is
    left out and named in the second value instead of reading zero.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict = defaultdict(float)
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]

    def nearest(span, names):
        parent = span[4]
        while parent >= 0:
            up = by_id[parent]
            if up[1] in names:
                return up[1]
            parent = up[4]
        return None

    def within(windows):
        starts = [lo for lo, _ in windows]
        return [s for s in spans
                if (i := bisect.bisect_right(starts, s[2]) - 1) >= 0
                and s[2] < windows[i][1]]

    n_setups, n_units = len(setup_windows), len(unit_windows)
    timed, setup = within(unit_windows), within(setup_windows)
    groups: dict = defaultdict(list)
    for s in timed:
        key = s[1]
        if key == "solvers.solve":
            key = ("solvers.adj" if nearest(s, {"autodiff.vjp"})
                   else "solvers.fwd")
        elif key == "autodiff.vjp":
            key = {None: "autodiff.outer", "solvers.solve": "autodiff.replay",
                   "autodiff.vjp": "autodiff.param"}[
                       nearest(s, {"solvers.solve", "autodiff.vjp"})]
        groups[key].append(s)
    setup_groups: dict = defaultdict(list)
    for s in setup:
        setup_groups[s[1]].append(s)

    def per_unit(x):
        return x / n_units if n_units else 0.0

    def ms(group, self_only=False):
        total = sum(s[3] - s[2] - (child_time[s[0]] if self_only else 0.0)
                    for s in groups[group])
        return per_unit(1e3 * total)

    def calls(group):
        return per_unit(len(groups[group]))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def setup_ms(name):
        total = sum(s[3] - s[2] for s in setup_groups[name])
        return 1e3 * total / n_setups if n_setups else 0.0

    for key in ("solvers.fwd", "solvers.adj", "quantum.fwd"):
        groups[key] = [s for s in groups[key] if s[6] is not None]
    solves = groups["solvers.fwd"] + groups["solvers.adj"]
    mixing = sum(max(s[6][0] - 1, 0) for s in solves)
    values = {
        "graphs.load_s": mean([s[3] - s[2] for s in spans
                               if s[1] == "graphs.load"]),
        "graphs.batch_ms": ms("graphs.batch"),
        "graphs.descriptors_ms": setup_ms("graphs.descriptors"),
        "solvers.fwd_solves": calls("solvers.fwd"),
        "solvers.fwd_ms": ms("solvers.fwd"),
        "solvers.fwd_self_ms": ms("solvers.fwd", self_only=True),
        "solvers.fwd_iters": mean([s[6][0] for s in groups["solvers.fwd"]]),
        "solvers.adj_solves": calls("solvers.adj"),
        "solvers.adj_ms": ms("solvers.adj"),
        "solvers.adj_self_ms": ms("solvers.adj", self_only=True),
        "solvers.adj_iters": mean([s[6][0] for s in groups["solvers.adj"]]),
        "solvers.fallback_share": (sum(s[6][1] for s in solves) / mixing
                                   if mixing else 0.0),
        "solvers.maxiter_solves": per_unit(
            sum(s[6][2] == "max_iter" for s in solves)),
        "solvers.diverged_solves": per_unit(
            sum(s[6][2] == "diverged" for s in solves)),
        "operators.apply_calls": calls("operators.apply"),
        "operators.apply_self_ms": ms("operators.apply", self_only=True),
        "operators.clip_ms": ms("operators.clip"),
        "quantum.fwd_calls": calls("quantum.fwd"),
        "quantum.fwd_ms": ms("quantum.fwd"),
        "quantum.fwd_rows": per_unit(sum(s[6][0] for s in groups["quantum.fwd"])),
        "quantum.gate_row_apps": per_unit(
            sum(s[6][1] for s in groups["quantum.fwd"])),
        "quantum.adj_calls": calls("quantum.adj"),
        "quantum.adj_ms": ms("quantum.adj"),
        "quantum.refresh_ms": ms("quantum.refresh"),
        "quantum.refresh_setup_ms": setup_ms("quantum.refresh"),
        "autodiff.replay_calls": calls("autodiff.replay"),
        "autodiff.replay_self_ms": ms("autodiff.replay", self_only=True),
        "autodiff.param_vjp_ms": ms("autodiff.param"),
        "autodiff.backward_self_ms": ms("autodiff.outer", self_only=True),
        "training.encode_ms": ms("training.encode"),
        "training.readout_ms": ms("training.readout"),
        "training.head_ms": ms("training.head"),
        "training.optimizer_ms": ms("training.optimizer"),
        "contraction.spectral_norm_calls": calls("contraction.spectral_norm"),
        "contraction.spectral_norm_ms": ms("contraction.spectral_norm"),
        "contraction.analyze_self_ms": ms("contraction.analyze", self_only=True),
        "cli.run_s": mean([s[3] - s[2] for s in groups["cli.run"]]),
        "cli.certificate_ms": ms("cli.certificate"),
        "cli.checkpoint_ms": ms("cli.checkpoint"),
        "cli.artifacts_ms": ms("cli.artifacts"),
    }
    out, left_out = {}, []
    for name, unit, needs in PER_LAYER:
        if all(n in installed for n in needs):
            out[name] = (float(values[name]), unit)
        else:
            left_out.append(name)
    return out, left_out
