"""Graph classification pipeline around the equilibrium layer.

A linear encoder lifts node features to the hidden width, the equilibrium
operator drives the node states to their fixed point, a multi-head
self-attention readout pools each graph's rows into one vector, and a small
MLP head produces class logits.  Training follows AdamW with selective
weight decay, cosine-annealed learning rate, global-norm gradient clipping,
and a spectral re-clip of the state weight after every step, so the
contraction certificate stays valid throughout optimisation.

Forward solves that diverge skip their batch (with a warning) rather than
stepping on garbage gradients.  One run is single-threaded and fully
deterministic in (seed, fold, config); cross-validation schedules runs over
a thread pool.
"""

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import descriptor_dim, make_batches, stratified_folds
from .operators import (BackboneParams, EquilibriumOperator, GraphContext,
                        PATHWAYS, clip_spectral)
from .quantum import DeepXyzParams, QuantumModule
from .solvers import SolverConfig, equilibrium_solve


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ModelConfig:
    pathway: str = "classical"
    d_hidden: int = 64
    n_qubits: int = 4
    reps: int = 1
    alpha: float = 0.1
    kappa: float = 0.8
    encoder: str = "linear"
    heads: int = 4
    mlp_hidden: int = 64
    dropout: float = 0.4
    l_max: int = 6
    fwd: SolverConfig = field(default_factory=lambda: SolverConfig(
        method="anderson", max_iter=300, tol=1e-6))
    bwd: SolverConfig = field(default_factory=lambda: SolverConfig(
        method="anderson", max_iter=150, tol=1e-5))

    def __post_init__(self):
        if self.pathway not in PATHWAYS:
            raise ValueError(f"unknown pathway {self.pathway!r}")
        if self.encoder != "linear":
            raise ValueError("only the linear encoder is implemented")
        if self.d_hidden < 1 or self.n_qubits < 1 or self.reps < 1:
            raise ValueError("dimensions must be positive")
        if self.d_hidden % self.heads != 0:
            raise ValueError("head count must divide the hidden dimension")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    lr_min: float = 0.0
    weight_decay: float = 1e-4
    epochs: int = 200
    batch_size: int = 32
    grad_clip: float = 1.0
    seed: int = 42
    folds: int = 10

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.folds < 2:
            raise ValueError("epochs/batch_size/folds out of range")
        if self.lr < 0 or self.lr_min < 0 or self.weight_decay < 0:
            raise ValueError("rates must be nonnegative")


@dataclass
class RunMetrics:
    """Per-run training record; list fields are indexed by epoch."""
    pathway: str
    seed: int
    fold: int
    train_loss: list
    train_accuracy: list
    iterations: list         # mean forward-solve iterations per epoch
    test_accuracy: float
    final_iterations: float  # = iterations[-1]
    wall_minutes: float
    skipped_batches: int = 0


# ---------------------------------------------------------------------------
# model pieces


def encode(x0, e: Tensor) -> Tensor:
    """H = X0 E^T; a plain projection, no adjacency and no nonlinearity."""
    x = x0 if isinstance(x0, Tensor) else ad.constant(np.asarray(x0, float))
    if x.cols != e.cols:
        raise ValueError(f"expected {e.cols} feature columns, got {x.cols}")
    return ad.matmul(x, ad.transpose(e))


@dataclass
class AttentionParams:
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    heads: int

    @classmethod
    def init(cls, d: int, heads: int, rng: np.random.Generator):
        if d % heads != 0:
            raise ValueError("head count must divide the width")

        def w():
            return Tensor(rng.normal(size=(d, d)) / np.sqrt(d))

        def b():
            return Tensor(np.zeros((1, d)))

        return cls(w(), b(), w(), b(), w(), b(), w(), b(), heads)

    def tensors(self):
        return [("attn_wq", self.w_q), ("attn_bq", self.b_q),
                ("attn_wk", self.w_k), ("attn_bk", self.b_k),
                ("attn_wv", self.w_v), ("attn_bv", self.b_v),
                ("attn_wo", self.w_o), ("attn_bo", self.b_o)]


def attention_readout(z: Tensor, ranges, att: AttentionParams) -> Tensor:
    """Multi-head self-attention within each graph, attended rows summed.

    Every graph attends only over its own row slice, so a batched readout
    equals the stacked single-graph readouts bit for bit, and permuting
    rows inside one graph leaves its pooled vector unchanged.
    """
    d = att.w_q.rows
    width = d // att.heads
    inv_scale = 1.0 / math.sqrt(width)
    pooled = []
    for i0, i1 in ranges:
        if i1 <= i0:
            raise ValueError(f"empty graph range ({i0}, {i1})")
        rows = ad.slice_rows(z, i0, i1) if (i0, i1) != (0, z.rows) else z
        q = ad.add_row(ad.matmul(rows, ad.transpose(att.w_q)), att.b_q)
        k = ad.add_row(ad.matmul(rows, ad.transpose(att.w_k)), att.b_k)
        v = ad.add_row(ad.matmul(rows, ad.transpose(att.w_v)), att.b_v)
        attended = None
        for h in range(att.heads):
            j0, j1 = h * width, (h + 1) * width
            qh = ad.slice_cols(q, j0, j1)
            kh = ad.slice_cols(k, j0, j1)
            vh = ad.slice_cols(v, j0, j1)
            weights = ad.softmax_rows(
                ad.scale(ad.matmul(qh, ad.transpose(kh)), inv_scale))
            head = ad.matmul(weights, vh)
            attended = head if attended is None else ad.concat_cols(attended, head)
        out = ad.add_row(ad.matmul(attended, ad.transpose(att.w_o)), att.b_o)
        pooled.append(ad.sum_cols(out))
    return ad.stack_rows(pooled)


@dataclass
class ClassifierParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, d_in: int, hidden: int, n_classes: int,
             rng: np.random.Generator):
        return cls(Tensor(rng.normal(size=(hidden, d_in)) / np.sqrt(d_in)),
                   Tensor(np.zeros((1, hidden))),
                   Tensor(rng.normal(size=(n_classes, hidden)) / np.sqrt(hidden)),
                   Tensor(np.zeros((1, n_classes))))

    def tensors(self):
        return [("clf_w1", self.w1), ("clf_b1", self.b1),
                ("clf_w2", self.w2), ("clf_b2", self.b2)]


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: kept entries pre-scaled by 1/(1-rate)."""
    if rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


def classify(z_g: Tensor, clf: ClassifierParams, mask=None) -> Tensor:
    """Hidden ReLU layer, optional dropout mask, then linear logits."""
    hidden = ad.relu(ad.add_row(ad.matmul(z_g, ad.transpose(clf.w1)), clf.b1))
    if mask is not None:
        hidden = ad.mul(hidden, ad.constant(mask))
    return ad.add_row(ad.matmul(hidden, ad.transpose(clf.w2)), clf.b2)


class GraphClassifier:
    """Pathway-parameterised classifier with a named parameter registry.

    Construction order is fixed, so a seed pins every initial weight.  The
    quantum module is only instantiated for non-classical pathways: the
    input-conditioning variant reads [H, tau] rows without normalization,
    while the state/output couplings run d_h -> d_h under spectral
    normalization of their linear maps.
    """

    def __init__(self, cfg: ModelConfig, feature_dim: int, n_classes: int,
                 seed: int = 0):
        if n_classes < 2:
            raise ValueError("need at least two classes")
        rng = np.random.default_rng(seed)
        d = cfg.d_hidden
        self.cfg = cfg
        self.n_classes = n_classes
        self.encoder = Tensor(rng.normal(size=(d, feature_dim))
                              / np.sqrt(feature_dim))
        self.backbone = BackboneParams.init(d, d, cfg.kappa, rng)
        self.quantum = None
        if cfg.pathway != "classical":
            d_in = d + descriptor_dim(cfg.l_max) if cfg.pathway == "id" else d
            w_in = rng.normal(size=(cfg.n_qubits, d_in)) / np.sqrt(d_in)
            w_out = rng.normal(size=(d, cfg.n_qubits)) / np.sqrt(cfg.n_qubits)
            angles = DeepXyzParams.init(cfg.n_qubits, cfg.reps, rng)
            self.quantum = QuantumModule(
                w_in, w_out, angles,
                spectral_normalize=cfg.pathway in ("sd", "bd"), rng=rng)
        self.attention = AttentionParams.init(d, cfg.heads, rng)
        self.classifier = ClassifierParams.init(d, cfg.mlp_hidden, n_classes, rng)
        self.operator = EquilibriumOperator(cfg.pathway, self.backbone,
                                            self.quantum, alpha=cfg.alpha)

    def parameters(self) -> list:
        out = [("encoder", self.encoder)]
        out += [(f"backbone_{n}", t) for n, t in self.backbone.tensors()]
        if self.quantum is not None:
            out += [(f"quantum_{n}", t) for n, t in self.quantum.tensors()]
        out += self.attention.tensors()
        out += self.classifier.tensors()
        return out

    def decay_exclusions(self) -> frozenset:
        names = {"backbone_bias", "attn_bq", "attn_bk", "attn_bv", "attn_bo",
                 "clf_b1", "clf_b2"}
        if self.quantum is not None:
            names.add("quantum_angles")
        return frozenset(names)

    def forward_batch(self, batch, train: bool = False, dropout_rng=None,
                      refresh: bool = True):
        """(loss, logits, solve report) for one block-diagonal batch.

        Returns (None, None, report) when the forward solve diverges so the
        caller can skip the batch.  ``refresh=False`` freezes the spectral
        normalization state; finite-difference probes need that, because
        the backward pass treats the stored norm as a constant.
        """
        cfg = self.cfg
        if refresh and self.quantum is not None and cfg.pathway in ("sd", "bd"):
            self.quantum.refresh_normalization()
        h = encode(batch.features, self.encoder)
        ctx = GraphContext(a_norm=ad.constant(batch.a_norm), h=h)
        if cfg.pathway == "id":
            ctx = replace(
                ctx, q_id=self.operator.compute_id_conditioning(h, batch.tau))
        apply_fn, tensors = self.operator.solve_inputs(ctx)
        z0 = np.zeros((batch.features.shape[0], cfg.d_hidden))
        z, report = equilibrium_solve(apply_fn, tensors, z0, cfg.fwd, cfg.bwd)
        if report.diverged:
            return None, None, report
        pooled = attention_readout(z, batch.ranges, self.attention)
        mask = None
        if train and cfg.dropout > 0.0:
            if dropout_rng is None:
                raise ValueError("training with dropout needs a generator")
            mask = dropout_mask(dropout_rng,
                                (len(batch.ranges), cfg.mlp_hidden),
                                cfg.dropout)
        logits = classify(pooled, self.classifier, mask)
        loss = ad.cross_entropy_mean(logits, batch.labels)
        return loss, logits, report


# ---------------------------------------------------------------------------
# optimisation


class AdamW:
    """Adam with decoupled weight decay and a per-name exclusion set."""

    def __init__(self, params, lr: float = 1e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 1e-4, exclude=()):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.exclude = frozenset(exclude)
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.params}
        self.v = {n: np.zeros_like(t.data) for n, t in self.params}

    def step(self, grads: dict, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = self.betas
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay and name not in self.exclude:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place to a global norm <= max_norm; returns
    the pre-clip norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        s = max_norm / total
        for g in grads.values():
            g *= s
    return total


def cosine_lr(epoch: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    if not 0 <= epoch <= total:
        raise ValueError("epoch out of range")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * epoch / total))


def train_epoch(model: GraphClassifier, opt: AdamW, batches, lr: float,
                seed: int = 0, epoch: int = 0, grad_clip: float = 1.0) -> dict:
    """One optimisation pass over the batches; returns the epoch slice.

    Per batch: forward solve, readout, cross-entropy, implicit backward,
    global-norm gradient clip, AdamW step, spectral re-clip of W.  A
    diverged solve skips its batch.  The dropout stream is keyed on
    (seed, epoch, batch) so reruns are bit-identical.
    """
    params = model.parameters()
    loss_sum, hits, seen = 0.0, 0, 0
    iters: list = []
    skipped = 0
    for bi, batch in enumerate(batches):
        drop = np.random.default_rng((seed, epoch, bi))
        tape = ad.Tape()
        for _, t in params:
            tape.watch(t)
        with tape:
            loss, logits, report = model.forward_batch(
                batch, train=True, dropout_rng=drop)
        if loss is None:
            skipped += 1
            warnings.warn(f"forward solve diverged; skipping batch {bi}",
                          RuntimeWarning)
            continue
        grads = tape.backward(loss)
        gd = {name: grads[t] for name, t in params}
        clip_gradients(gd, grad_clip)
        opt.step(gd, lr=lr)
        clip_spectral(model.backbone.w, model.cfg.kappa)
        n = len(batch.labels)
        loss_sum += float(loss.data[0, 0]) * n
        hits += int((np.argmax(logits.data, axis=1) == batch.labels).sum())
        seen += n
        iters.append(report.iterations)
    return {
        "loss": loss_sum / seen if seen else float("nan"),
        "accuracy": hits / seen if seen else 0.0,
        "iterations": float(np.mean(iters)) if iters else 0.0,
        "skipped": skipped,
    }


def evaluate(model: GraphClassifier, batches) -> tuple:
    """(mean loss, accuracy, mean forward iterations) without recording.

    Leaves the model untouched, spectral normalization state included, so
    repeated evaluations agree.  Graphs in a diverged batch count as
    misclassified rather than being silently dropped.
    """
    loss_sum, hits, seen, iters = 0.0, 0, 0, []
    missed = 0
    for batch in batches:
        loss, logits, report = model.forward_batch(batch, train=False,
                                                   refresh=False)
        if loss is None:
            missed += len(batch.labels)
            continue
        n = len(batch.labels)
        loss_sum += float(loss.data[0, 0]) * n
        hits += int((np.argmax(logits.data, axis=1) == batch.labels).sum())
        seen += n
        iters.append(report.iterations)
    total = seen + missed
    return (loss_sum / seen if seen else float("nan"),
            hits / total if total else 0.0,
            float(np.mean(iters)) if iters else 0.0)


# ---------------------------------------------------------------------------
# cross-validation driver


def run_training(dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
                 seed: int, fold: int):
    """Train one (seed, fold) model; returns (RunMetrics, model).

    The stratified split is derived from the seed, so different seeds see
    different fold assignments as well as different initial weights.
    """
    t0 = time.perf_counter()
    labels = [g.label for g in dataset.graphs]
    train_idx, test_idx = stratified_folds(labels, train_cfg.folds, seed)[fold]
    model = GraphClassifier(model_cfg, dataset.feature_dim, dataset.n_classes,
                            seed=seed)
    opt = AdamW(model.parameters(), lr=train_cfg.lr,
                weight_decay=train_cfg.weight_decay,
                exclude=model.decay_exclusions())
    loss_series, acc_series, iter_series = [], [], []
    skipped = 0
    for epoch in range(train_cfg.epochs):
        lr = cosine_lr(epoch, train_cfg.epochs, train_cfg.lr, train_cfg.lr_min)
        batches = make_batches(dataset, train_idx, train_cfg.batch_size,
                               rng=np.random.default_rng((seed, epoch)))
        s = train_epoch(model, opt, batches, lr, seed=seed, epoch=epoch,
                        grad_clip=train_cfg.grad_clip)
        loss_series.append(s["loss"])
        acc_series.append(s["accuracy"])
        iter_series.append(s["iterations"])
        skipped += s["skipped"]
    _, test_acc, _ = evaluate(
        model, make_batches(dataset, test_idx, train_cfg.batch_size))
    metrics = RunMetrics(
        pathway=model_cfg.pathway, seed=seed, fold=fold,
        train_loss=loss_series, train_accuracy=acc_series,
        iterations=iter_series, test_accuracy=test_acc,
        final_iterations=iter_series[-1],
        wall_minutes=(time.perf_counter() - t0) / 60.0,
        skipped_batches=skipped)
    return metrics, model


def aggregate_runs(runs) -> dict:
    """Mean/std summary over runs; std uses the n-1 denominator."""
    if not runs:
        raise ValueError("no runs to aggregate")
    accs = np.array([r.test_accuracy for r in runs])
    return {
        "runs": len(runs),
        "acc_mean": float(accs.mean()),
        "acc_std": float(accs.std(ddof=1)) if len(runs) > 1 else 0.0,
        "iter_mean": float(np.mean([r.final_iterations for r in runs])),
        "time_minutes_mean": float(np.mean([r.wall_minutes for r in runs])),
    }


def cross_validate(dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
                   seeds, folds: int | None = None, workers: int = 1):
    """One run per (seed, fold) over a worker pool; returns (runs, summary)."""
    folds = train_cfg.folds if folds is None else folds
    if folds != train_cfg.folds:
        train_cfg = replace(train_cfg, folds=folds)
    jobs = [(seed, fold) for seed in seeds for fold in range(folds)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_training, dataset, model_cfg,
                                   train_cfg, s, f) for s, f in jobs]
            runs = [fut.result()[0] for fut in futures]
    else:
        runs = [run_training(dataset, model_cfg, train_cfg, s, f)[0]
                for s, f in jobs]
    return runs, aggregate_runs(runs)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: GraphClassifier, config_hash: str = "") -> None:
    """Dump every named parameter plus the config hash; bit-exact."""
    arrays = {name: t.data for name, t in model.parameters()}
    with open(path, "wb") as fh:
        np.savez(fh, __config_hash__=np.array(config_hash), **arrays)


def load_checkpoint(path):
    """(name -> array, config hash) from a saved checkpoint."""
    with np.load(path, allow_pickle=False) as d:
        h = str(d["__config_hash__"][()]) if "__config_hash__" in d.files else ""
        arrays = {k: d[k].copy() for k in d.files if k != "__config_hash__"}
    return arrays, h


def restore_checkpoint(model: GraphClassifier, path,
                       expect_hash: str | None = None) -> str:
    """Load arrays into the live parameter tensors; names must match."""
    arrays, h = load_checkpoint(path)
    if expect_hash is not None and h != expect_hash:
        raise ValueError("checkpoint was written under a different config")
    params = dict(model.parameters())
    if set(arrays) != set(params):
        raise ValueError("checkpoint parameter names do not match the model")
    for name, arr in arrays.items():
        t = params[name]
        if t.data.shape != arr.shape:
            raise ValueError(f"shape mismatch for {name}")
        t.data[...] = arr
    return h
