"""The benchmark's workloads: set-up, one unit of timed work, and checks.

Every workload is a closed loop: a unit starts only after the previous one
has finished.  gdeq functions are looked up through their modules at call
time, so the wrappers in ``tracing`` see every call.

* ``train-classical`` / ``train-sd``: a ``run_training``-shaped loop on
  MUTAG fold 0 of 3 with the default ``ModelConfig``.  One unit is a round:
  one ``train_epoch`` (batches made inside the round, as ``run_training``
  does) and one ``evaluate`` of the held-out fold.
* ``certify-sweep``: criterion-3-shaped analyses of random small graphs.
  One unit is a cycle of three draws, one per qubit count 2, 3 and 4, each
  analysed on the ``id``, ``sd`` and ``bd`` pathways.
* ``experiment-id``: one whole ``gdeq`` CLI experiment per unit.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from gdeq import (autodiff as ad, cli, contraction, graphs, operators, quantum,
                  solvers, training)

DATASET = "MUTAG"
GRAD_EPS = 1e-6
GRAD_TOL = 1e-5     # criterion 1's tolerance
GRAD_GRAPHS = 4     # training graphs in the gradient-check batch
TIGHT = solvers.SolverConfig("anderson", max_iter=2000, tol=1e-12)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  ``FULL`` is measured; ``TOY`` keeps the self-test fast."""

    model: dict = field(default_factory=dict)   # ModelConfig overrides
    cycles: int = 10          # certify-sweep: draws in the pool = 3 * cycles
    pairs: int = 200          # certify-sweep: probe pairs per analysis
    exp_epochs: int = 2       # experiment-id
    exp_flags: tuple = ()     # experiment-id: extra CLI flags


FULL = Sizes()
TOY = Sizes(model=dict(d_hidden=8, heads=2, mlp_hidden=8, n_qubits=2),
            cycles=1, pairs=10, exp_epochs=1,
            exp_flags=("--hidden-dim", "8", "--n-qubits", "2"))


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class Workload:
    """Interface the harness drives; ``unit_name`` names one unit of work."""

    unit_name = "unit"
    attempt_name = "operations"   # what ``attempted`` counts
    # name of the per-unit figure reported as the end-to-end ``work_per_s``
    primary = "work_per_s"
    figures: dict = {}        # per-unit figure -> unit, printed by name

    def __init__(self, root: Path, sizes: Sizes):
        self.root = root
        self.data_dir = root / "data"
        self.sizes = sizes

    def setup(self, seed: int):
        raise NotImplementedError

    def unit(self, state) -> dict:
        raise NotImplementedError

    def checks(self, state) -> list:
        raise NotImplementedError

    def attempted_failed(self, state, counter) -> tuple[int, int]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# train-classical, train-sd


@dataclass
class _TrainState:
    seed: int
    dataset: object
    train_idx: np.ndarray
    model: object
    opt: object
    test_batches: list
    epoch: int = 0
    losses: list = field(default_factory=list)


class Train(Workload):
    unit_name = "round"
    attempt_name = "solves"
    primary = "train_graphs_per_s"
    figures = {"train_graphs_per_s": "graphs/s", "eval_graphs_per_s": "graphs/s"}
    tcfg = training.TrainConfig()

    def __init__(self, root, sizes, pathway: str):
        super().__init__(root, sizes)
        self.pathway = pathway

    def setup(self, seed):
        ds = graphs.load_tu_dataset(self.data_dir, DATASET)
        labels = [g.label for g in ds.graphs]
        train_idx, test_idx = graphs.stratified_folds(labels, 3, seed)[0]
        cfg = training.ModelConfig(pathway=self.pathway, **self.sizes.model)
        model = training.GraphClassifier(cfg, ds.feature_dim, ds.n_classes,
                                         seed=seed)
        opt = training.AdamW(model.parameters(), lr=self.tcfg.lr,
                             weight_decay=self.tcfg.weight_decay,
                             exclude=model.decay_exclusions())
        test_batches = graphs.make_batches(ds, test_idx, self.tcfg.batch_size)
        return _TrainState(seed, ds, train_idx, model, opt, test_batches)

    def unit(self, st):
        tc = self.tcfg
        epoch = st.epoch
        st.epoch += 1
        lr = training.cosine_lr(min(epoch, tc.epochs), tc.epochs, tc.lr, tc.lr_min)
        t0 = perf_counter()
        batches = training.make_batches(st.dataset, st.train_idx, tc.batch_size,
                                        rng=np.random.default_rng((st.seed, epoch)))
        stats = training.train_epoch(st.model, st.opt, batches, lr,
                                     seed=st.seed, epoch=epoch,
                                     grad_clip=tc.grad_clip)
        t1 = perf_counter()
        loss, _, _ = training.evaluate(st.model, st.test_batches)
        t2 = perf_counter()
        st.losses += [stats["loss"], loss]
        n_test = sum(len(b.labels) for b in st.test_batches)
        return {"train_graphs_per_s": len(st.train_idx) / (t1 - t0),
                "eval_graphs_per_s": n_test / (t2 - t1)}

    def checks(self, st):
        finite = all(math.isfinite(v) for v in st.losses)
        probe = graphs.collate([st.dataset.graphs[i]
                                for i in st.train_idx[:GRAD_GRAPHS]])
        ok, detail = gradient_check(st.model, probe,
                                    np.random.default_rng((st.seed, 7)))
        return [Check("finite_loss", finite and bool(st.losses),
                      f"{len(st.losses)} train/eval losses finite: {finite}"),
                Check("gradient", ok, detail)]

    def attempted_failed(self, st, counter):
        return (counter.total(),
                counter.total(outcomes=("max_iter", "diverged")))


def gradient_check(model, batch, rng) -> tuple[bool, str]:
    """Tape gradient along a random direction vs a central difference.

    Both sides solve at ``TIGHT`` tolerance with the spectral normalization
    state frozen (``refresh=False``), which is what the backward pass
    linearizes; dropout is off because ``forward_batch`` runs with
    ``train=False``.
    """
    saved = model.cfg
    model.cfg = replace(saved, fwd=TIGHT, bwd=TIGHT)
    params = [t for _, t in model.parameters()]
    base = [t.data.copy() for t in params]
    try:
        direction = [rng.normal(size=t.data.shape) for t in params]
        norm = math.sqrt(sum(float((d * d).sum()) for d in direction))
        direction = [d / norm for d in direction]
        tape = ad.Tape()
        for t in params:
            tape.watch(t)
        with tape:
            loss, _, report = model.forward_batch(batch, refresh=False)
        if loss is None:
            return False, "forward solve diverged"
        grads = tape.backward(loss)
        analytic = sum(float((grads[t] * d).sum())
                       for t, d in zip(params, direction))

        def solved(step: float) -> float:
            for t, b, d in zip(params, base, direction):
                t.data[...] = b + step * d
            with ad.no_grad():
                value, _, r = model.forward_batch(batch, refresh=False)
            if value is None or not r.converged:
                return math.nan
            return float(value.data[0, 0])

        fd = (solved(GRAD_EPS) - solved(-GRAD_EPS)) / (2.0 * GRAD_EPS)
    finally:
        for t, b in zip(params, base):
            t.data[...] = b
        model.cfg = saved
    err = abs(analytic - fd) / max(1.0, abs(fd))
    ok = (report.converged and report.backward is not None
          and report.backward.converged and err <= GRAD_TOL)
    return ok, (f"directional derivative tape {analytic:.10g} vs central "
                f"difference {fd:.10g}: rel err {err:.2e} (tol {GRAD_TOL:g})")


# ---------------------------------------------------------------------------
# certify-sweep


@dataclass
class _CertifyState:
    seed: int
    draws: list        # per draw: [(operator, context)] for id, sd, bd
    cursor: int = 0
    analyses: int = 0
    violations: list = field(default_factory=list)


def _random_adjacency(rng, n: int, p: float = 0.4) -> np.ndarray:
    a = np.triu((rng.random((n, n)) < p).astype(np.float64), 1)
    return a + a.T


class Certify(Workload):
    unit_name = "cycle"
    attempt_name = "analyses"
    primary = "cert_pairs_per_s"
    figures = {"cert_pairs_per_s": "pairs/s"}
    d_hidden = 8

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        d_h = self.d_hidden
        draws = []
        for i in range(3 * self.sizes.cycles):
            # qubit counts cycle 2, 3, 4 so every cycle holds the same mix
            n, n_q = int(rng.integers(4, 9)), 2 + i % 3
            alpha = float(10.0 ** rng.uniform(-3.0, -1.0))
            a = _random_adjacency(rng, n)
            a_norm = ad.constant(graphs.normalize_adjacency(a))
            tau = graphs.topology_descriptors(a)
            h = ad.constant(rng.normal(size=(n, d_h)))
            backbone = operators.BackboneParams.init(d_h, d_h, 0.8, rng)
            draw = []
            for kind in ("id", "sd", "bd"):
                d_in = d_h + graphs.descriptor_dim() if kind == "id" else d_h
                module = quantum.QuantumModule(
                    rng.normal(size=(n_q, d_in)) / np.sqrt(d_in),
                    rng.normal(size=(d_h, n_q)) / np.sqrt(n_q),
                    quantum.DeepXyzParams.init(n_q, 1, rng),
                    spectral_normalize=True, rng=rng)
                module.refresh_normalization(iters=40)
                op = operators.EquilibriumOperator(kind, backbone, module,
                                                   alpha=alpha)
                ctx = operators.GraphContext(a_norm=a_norm, h=h)
                if kind == "id":
                    with ad.no_grad():
                        ctx.q_id = ad.constant(
                            op.compute_id_conditioning(h, tau).data)
                draw.append((op, ctx))
            draws.append(draw)
        return _CertifyState(seed, draws)

    def unit(self, st):
        pairs = 0
        t0 = perf_counter()
        for _ in range(3):
            index = st.cursor % len(st.draws)
            for k, (op, ctx) in enumerate(st.draws[index]):
                rng = np.random.default_rng((st.seed, st.cursor, k))
                a = contraction.analyze_operator(op, ctx, rng,
                                                 n_pairs=self.sizes.pairs)
                st.analyses += 1
                pairs += a.pairs
                if not a.consistent:
                    st.violations.append(
                        f"draw {index} {a.kind}: empirical {a.empirical:.6g} "
                        f"> analytic {a.analytic:.6g}")
            st.cursor += 1
        return {"cert_pairs_per_s": pairs / (perf_counter() - t0)}

    def checks(self, st):
        return [Check("no_violations", not st.violations,
                      f"{len(st.violations)} of {st.analyses} analyses with "
                      "empirical > analytic" + "".join(
                          f"; {v}" for v in st.violations[:3]))]

    def attempted_failed(self, st, counter):
        return st.analyses, len(st.violations)


# ---------------------------------------------------------------------------
# experiment-id


@dataclass
class _ExperimentState:
    seed: int
    graph_steps: int          # training graphs stepped by one experiment
    workdir: Path
    runs: int = 0
    failed_runs: int = 0
    problems: list = field(default_factory=list)


class Experiment(Workload):
    unit_name = "experiment"
    attempt_name = "runs"
    primary = "work_per_s"
    figures = {"experiment_s": "s", "work_per_s": "graphs/s"}
    folds, workers = 2, 2

    def setup(self, seed):
        ds = graphs.load_tu_dataset(self.data_dir, DATASET)
        labels = [g.label for g in ds.graphs]
        steps = sum(len(train) for train, _ in
                    graphs.stratified_folds(labels, self.folds, seed))
        workdir = self.root / ".bench_out"
        workdir.mkdir(exist_ok=True)
        return _ExperimentState(seed, steps * self.sizes.exp_epochs, workdir)

    def unit(self, st):
        out = Path(tempfile.mkdtemp(prefix="experiment-", dir=st.workdir))
        argv = ["--data-dir", str(self.data_dir), "--dataset", DATASET,
                "--pathway", "id", "--seeds", str(st.seed),
                "--folds", str(self.folds),
                "--epochs", str(self.sizes.exp_epochs),
                "--workers", str(self.workers), "--out", str(out),
                *self.sizes.exp_flags]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                t0 = perf_counter()
                status = cli.main(argv)
                seconds = perf_counter() - t0
            self._check(st, status, out, stderr.getvalue())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        sys.stderr.write(stderr.getvalue())
        return {"experiment_s": seconds, "work_per_s": st.graph_steps / seconds}

    def _check(self, st, status, out, err_text):
        st.runs += self.folds
        reported = set(re.findall(r"^run (\S+?):? ", err_text, re.M))
        st.failed_runs += len(reported)
        if status != 0:
            st.problems.append(f"exit status {status}")
        certs = sorted(out.glob(f"{DATASET}/id/*/lipschitz.txt"))
        if len(certs) != self.folds:
            st.problems.append(f"{len(certs)} lipschitz.txt for {self.folds} runs")
        for path in certs:
            flags = re.findall(r"\.consistent=(\w+)", path.read_text())
            if not flags or any(f != "true" for f in flags):
                st.problems.append(f"{path.parent.name}: consistent={flags}")

    def checks(self, st):
        return [Check("exit_and_certificates", not st.problems,
                      f"{st.runs} runs, exit status 0 and consistent=true in "
                      "every lipschitz.txt" if not st.problems
                      else "; ".join(st.problems[:3]))]

    def attempted_failed(self, st, counter):
        return st.runs, st.failed_runs


def make(name: str, root: Path, sizes: Sizes = FULL) -> Workload:
    if name == "train-classical":
        return Train(root, sizes, "classical")
    if name == "train-sd":
        return Train(root, sizes, "sd")
    if name == "certify-sweep":
        return Certify(root, sizes)
    if name == "experiment-id":
        return Experiment(root, sizes)
    raise ValueError(f"unknown workload {name!r}")
