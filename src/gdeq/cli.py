"""Experiment runner: config handling, execution, and metric emission.

One invocation trains every (seed, fold) pair of a single pathway on one
dataset and writes a per-run directory of artifacts plus pathway-level
aggregates:

    <out>/<dataset>/<pathway>/<seed>_<fold>/   metrics.txt, curves.csv,
                                               checkpoint.npz, lipschitz.txt,
                                               timing.txt
    <out>/<dataset>/<pathway>/                 summary.{txt,csv},
                                               iteration_curves.csv, config.txt

Each run trains in a worker process forked from this one (``--workers`` of
them, 1 by default) with numpy's OpenBLAS pinned to one thread, and writes
its own directory there; the parent gates, prints and aggregates the
returned metrics.  This needs POSIX ``fork`` and a numpy whose bundled
OpenBLAS can be pinned; elsewhere every run fails naming why.  Everything
except the timing values and the checkpoint archive's internal zip
timestamps is byte-deterministic in (config, seeds), whatever the worker
count or the caller's BLAS threads; numbers are
written with 17 significant digits so records re-parse to the exact values
used in aggregation.  The exit status is nonzero iff any run failed
(exception, or more than 10% of its forward solves diverged, or more than
10% of its forward or of its adjoint solves stopped at max_iter) or a trained
operator's empirical Lipschitz estimate exceeded its analytic bound.  A
config or dataset that cannot run exits with 2 before any run starts.
"""

import argparse
import csv
import hashlib
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .contraction import PathwayAnalysis, analyze_operator
from .graphs import collate, load_tu_dataset, stratified_folds
from .operators import PATHWAYS
from .solvers import SolverConfig
from .training import (ModelConfig, TrainConfig, aggregate_runs, run_jobs,
                       run_training, save_checkpoint)

FAILURE_RATE_LIMIT = 0.1   # diverged or max_iter share of solves that fails a run


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    dataset: str = "MUTAG"
    data_dir: str = "data"
    pathway: str = "classical"
    seeds: tuple = (42,)
    folds: int = 10
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-4
    lr_min: float = 0.0
    weight_decay: float = 1e-4
    grad_clip: float = 1.0
    hidden_dim: int = 64
    n_qubits: int = 4
    reps: int = 1
    alpha: float = 0.1
    kappa: float = 0.8
    heads: int = 4
    mlp_hidden: int = 64
    dropout: float = 0.4
    l_max: int = 6
    solver: str = "anderson"
    fwd_max_iter: int = 300
    fwd_tol: float = 1e-6
    bwd_max_iter: int = 150
    bwd_tol: float = 1e-5
    out: str = "runs"
    workers: int = 1

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            pathway=self.pathway, d_hidden=self.hidden_dim,
            n_qubits=self.n_qubits, reps=self.reps, alpha=self.alpha,
            kappa=self.kappa, heads=self.heads, mlp_hidden=self.mlp_hidden,
            dropout=self.dropout, l_max=self.l_max,
            fwd=SolverConfig(method=self.solver, max_iter=self.fwd_max_iter,
                             tol=self.fwd_tol),
            bwd=SolverConfig(method=self.solver, max_iter=self.bwd_max_iter,
                             tol=self.bwd_tol))

    def train_config(self) -> TrainConfig:
        return TrainConfig(lr=self.lr, lr_min=self.lr_min,
                           weight_decay=self.weight_decay,
                           epochs=self.epochs, batch_size=self.batch_size,
                           grad_clip=self.grad_clip, folds=self.folds)

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "seeds":
                v = ",".join(str(s) for s in v)
            lines.append(f"{f.name}={fmt(v)}")
        return "\n".join(lines) + "\n"


def _seeds(raw: str) -> tuple:
    return tuple(int(s) for s in raw.split(",") if s.strip())


# each key's parser is its field's type; seeds are a comma-separated list
_PARSERS = {f.name: f.type for f in fields(ExperimentConfig)}
_PARSERS["seeds"] = _seeds


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """key=value lines over a base config; unknown keys are errors."""
    cfg = base or ExperimentConfig()
    known = {f.name for f in fields(cfg)}
    updates = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
        updates[key] = _PARSERS[key](raw.strip())
    return replace(cfg, **updates)


def config_digest(cfg: ExperimentConfig) -> str:
    """Digest of the result-relevant fields; output placement and worker
    count do not change what gets computed."""
    lines = [l for l in cfg.to_text().splitlines()
             if not l.startswith(("out=", "workers="))]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# record formatting


def fmt(v) -> str:
    """17 significant digits for floats, so records re-parse exactly."""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_kv(path, record: dict) -> None:
    with open(path, "w") as fh:
        for k, v in record.items():
            fh.write(f"{k}={fmt(v)}\n")


def read_kv(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            k, _, v = line.partition("=")
            out[k] = v
    return out


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


# ---------------------------------------------------------------------------
# aggregation records


def emit_summary(runs, dataset: str = "") -> dict:
    """The pathway's record: mean/std accuracy (n-1), iterations, minutes."""
    agg = aggregate_runs(runs)
    return {"variant": runs[0].pathway, "dataset": dataset,
            "acc_mean": agg["acc_mean"], "acc_std": agg["acc_std"],
            "iter_mean": agg["iter_mean"],
            "time_minutes_mean": agg["time_minutes_mean"]}


def emit_iteration_curves(runs):
    """(header, rows): per-epoch mean/std of forward iterations over runs."""
    if not runs:
        raise ValueError("no runs to emit")
    epochs = len(runs[0].iterations)
    if any(len(r.iterations) != epochs for r in runs):
        raise ValueError("runs disagree on epoch count")
    pathway = runs[0].pathway
    rows = []
    for e in range(epochs):
        vals = np.array([r.iterations[e] for r in runs])
        rows.append([e, float(vals.mean()),
                     float(vals.std(ddof=1)) if len(vals) > 1 else 0.0])
    return ["epoch", f"{pathway}_iter_mean", f"{pathway}_iter_std"], rows


# ---------------------------------------------------------------------------
# runner


def certificate_report(model, batch, rng_seed=0) -> PathwayAnalysis:
    """Lipschitz analysis of a trained operator on a probe batch."""
    with ad.no_grad():
        ctx = model.context(batch)
    return analyze_operator(model.operator, ctx,
                            np.random.default_rng(rng_seed))


def _run_job(cfg: ExperimentConfig, dataset, seed: int, fold: int,
             split: tuple) -> tuple:
    """Train one run in a worker and write its files; returns (RunMetrics,
    whether the certificate is consistent).  ``split`` is the run's (train,
    test) indices, whose first four test graphs probe the certificate."""
    metrics, model = run_training(dataset, cfg.model_config(),
                                  cfg.train_config(), seed, fold)
    run_dir = Path(cfg.out) / cfg.dataset / cfg.pathway / f"{seed}_{fold}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_kv(run_dir / "metrics.txt", {
        "dataset": cfg.dataset, "pathway": metrics.pathway,
        "seed": metrics.seed, "fold": metrics.fold,
        "test_accuracy": metrics.test_accuracy,
        "final_iterations": metrics.final_iterations,
        "skipped_batches": metrics.skipped_batches,
        "fwd_max_iter": metrics.fwd_max_iter,
        "adj_max_iter": metrics.adj_max_iter,
    })
    write_kv(run_dir / "timing.txt", {"wall_minutes": metrics.wall_minutes})
    write_table(run_dir / "curves.csv",
                ["epoch", "train_loss", "train_accuracy", "iterations"],
                [[e, metrics.train_loss[e], metrics.train_accuracy[e],
                  metrics.iterations[e]]
                 for e in range(len(metrics.iterations))])
    save_checkpoint(run_dir / "checkpoint.npz", model,
                    config_hash=config_digest(cfg))
    probe = collate([dataset.graphs[i] for i in split[1][:4]])
    analysis = certificate_report(model, probe, rng_seed=(seed, fold, 99))
    (run_dir / "lipschitz.txt").write_text(analysis.to_text())
    return metrics, analysis.consistent


def run_experiment(cfg: ExperimentConfig) -> int:
    try:
        seeds = cfg.seeds
        if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
            raise ValueError(f"need distinct nonnegative seeds, got {seeds}")
        if cfg.workers < 1:
            raise ValueError(f"need at least 1 worker, got {cfg.workers}")
        cfg.model_config(), cfg.train_config()
        dataset = load_tu_dataset(cfg.data_dir, cfg.dataset, l_max=cfg.l_max)
        splits = {s: stratified_folds(dataset.labels, cfg.folds, s)
                  for s in seeds}
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    base = Path(cfg.out) / cfg.dataset / cfg.pathway
    base.mkdir(parents=True, exist_ok=True)
    (base / "config.txt").write_text(cfg.to_text())

    jobs = [(cfg, dataset, s, f, splits[s][f])
            for s in cfg.seeds for f in range(cfg.folds)]
    failed, violations, runs = [], [], []
    for (_, _, seed, fold, split), (ok, value) in zip(
            jobs, run_jobs(_run_job, jobs, cfg.workers)):
        tag = f"{seed}_{fold}"
        if not ok:
            print(f"run {tag} failed: {value}", file=sys.stderr)
            failed.append(tag)
            continue
        metrics, consistent = value
        attempts = cfg.epochs * -(-len(split[0]) // cfg.batch_size)
        gated = [(metrics.skipped_batches, "solves diverged"),
                 (metrics.fwd_max_iter, "forward solves stopped at max_iter"),
                 (metrics.adj_max_iter, "adjoint solves stopped at max_iter")]
        over = [f"{n}/{attempts} {what}" for n, what in gated
                if n > FAILURE_RATE_LIMIT * attempts]
        if over:
            print(f"run {tag}: " + "; ".join(over), file=sys.stderr)
            failed.append(tag)
        if not consistent:
            violations.append(tag)
            print(f"run {tag}: certificate violated for {cfg.pathway}",
                  file=sys.stderr)
        runs.append(metrics)
        print(f"run {tag}: acc {metrics.test_accuracy:.4f} "
              f"iters {metrics.final_iterations:.1f} "
              f"({metrics.wall_minutes:.2f} min)")

    if runs:
        record = emit_summary(runs, dataset=cfg.dataset)
        write_table(base / "summary.csv", list(record),
                    [list(record.values())])
        write_kv(base / "summary.txt", record)
        header, rows = emit_iteration_curves(runs)
        write_table(base / "iteration_curves.csv", header, rows)
        print(f"{cfg.pathway} on {cfg.dataset}: "
              f"acc {record['acc_mean']:.4f} +- {record['acc_std']:.4f} "
              f"over {len(runs)} runs")
    return 1 if failed or violations else 0


# ---------------------------------------------------------------------------
# entry point

_FLAGS = ("dataset", "data_dir", "seeds", "folds", "epochs", "batch_size",
          "hidden_dim", "n_qubits", "alpha", "kappa", "fwd_max_iter",
          "fwd_tol", "bwd_max_iter", "bwd_tol", "out", "workers")


def build_config(argv) -> tuple:
    p = argparse.ArgumentParser(
        prog="gdeq",
        description="equilibrium graph-network experiments on TU datasets")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--pathway", choices=PATHWAYS)
    p.add_argument("--solver", choices=("picard", "anderson"))
    for dest in _FLAGS:
        p.add_argument("--" + dest.replace("_", "-"), type=_PARSERS[dest])
    p.add_argument("--print-config", action="store_true",
                   help="dump the effective config and exit")
    args = p.parse_args(argv)

    cfg = ExperimentConfig()
    if args.config:
        cfg = parse_config(Path(args.config).read_text(), cfg)
    names = (*_FLAGS, "pathway", "solver")
    overrides = {n: getattr(args, n) for n in names
                 if getattr(args, n) is not None}
    return replace(cfg, **overrides), args.print_config


def main(argv=None) -> int:
    cfg, print_only = build_config(argv)
    if print_only:
        print(cfg.to_text(), end="")
        return 0
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
