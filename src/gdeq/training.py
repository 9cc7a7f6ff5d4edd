"""Graph classification pipeline around the equilibrium layer.

A linear encoder lifts node features to the hidden width, the equilibrium
operator drives the node states to their fixed point, a multi-head
self-attention readout pools each graph's rows into one vector, and a small
MLP head produces class logits.  The readout runs on the whole batch at
once, on the zero-padded per-graph layout of the batch's adjacency
(``graphs.BlockAdjacency`` pads and unpads; the readout only masks), so
a graph's pooled vector agrees with its single-graph readout to round-off
rather than bit for bit; the same batch always reads the same bytes.
Training follows AdamW with selective weight decay, cosine-annealed
learning rate, global-norm gradient clipping, and a spectral re-clip of
the state weight after every step, so the contraction certificate stays
valid throughout optimisation.

Forward solves that diverge skip their batch (with a warning) rather than
stepping on garbage gradients.  One run is single-threaded and fully
deterministic in (seed, fold, config).  ``train_epoch``, ``evaluate`` and
``run_training`` hold numpy's OpenBLAS at one thread (``one_blas_thread``)
and give the caller back its own count on return, so a run in process
computes the bytes a run worker computes, and OpenBLAS's helper thread,
which only busy-waits beside products this small, sleeps.  The contraction
analysis is not pinned: its complex products over a few hundred rows do
use a second thread.  ``run_jobs`` runs a list of runs in worker processes
forked from the caller (POSIX ``fork``), so their results do not depend on
the worker count or on the caller's BLAS threads; ``cross_validate`` and
the CLI both drive their runs through it.  The caller's OpenBLAS is held
at one thread from before the first fork until every worker is reaped, so
each worker inherits the pin and never calls the setter itself: after a
fork, OpenBLAS's setter first rebuilds the thread pool that its fork
handler shut down, and the new helper thread busy-waits beside the run.
Without a setter to pin, no worker is forked and every run fails, while a
run in process runs at the caller's count.

``train_epoch`` also raises glibc's mmap and trim thresholds once per
process (``mallopt``; a no-op without it), so the memory one step frees
stays in the heap for the next instead of being faulted in again.
"""

import contextlib
import ctypes
import math
import os
import pickle
import signal
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import (BlockAdjacency, descriptor_dim, make_batches,
                     stratified_folds)
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
        if min(self.d_hidden, self.n_qubits, self.reps, self.heads,
               self.mlp_hidden) < 1:
            raise ValueError("dimensions and head count must be positive")
        if self.d_hidden % self.heads != 0:
            raise ValueError("head count must divide the hidden dimension")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        if not (0.0 <= self.alpha < math.inf and 0.0 < self.kappa <= 1.0):
            raise ValueError("alpha must be nonnegative and finite and kappa "
                             f"lie in (0, 1], got {self.alpha} and {self.kappa}")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    lr_min: float = 0.0
    weight_decay: float = 1e-4
    epochs: int = 200
    batch_size: int = 32
    grad_clip: float = 1.0   # global-norm bound; 0 means no clip
    seed: int = 42   # unused, runs take their own; the acceptance tests set it
    folds: int = 10

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.folds < 2:
            raise ValueError("epochs/batch_size/folds out of range")
        if not all(0.0 <= r < math.inf
                   for r in (self.lr, self.lr_min, self.weight_decay)):
            raise ValueError("rates must be nonnegative and finite")
        if not 0.0 <= self.grad_clip < math.inf:
            raise ValueError("grad_clip must be nonnegative and finite, "
                             f"got {self.grad_clip}")


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
    wall_minutes: float
    skipped_batches: int = 0
    fwd_max_iter: int = 0    # forward solves that stopped at max_iter
    adj_max_iter: int = 0    # adjoint solves that stopped at max_iter

    @property
    def final_iterations(self) -> float:
        return self.iterations[-1]


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


def _pooled_attention(qkv: Tensor, layout: BlockAdjacency,
                      heads: int) -> Tensor:
    """Per-graph multi-head attention, summed over each graph's rows.

    ``qkv`` holds the projected [Q | K | V] rows, (N, 3d), which
    ``layout.pad`` lays out as (B, n_max); padded keys get score -inf and
    padded queries are left out of the sum.  Only the sum over queries is
    kept, so each graph's pooled head is (P 1)ᵀ V, where P[j, i] is the
    softmax over keys j of k_j · q_i / √width.  Scores are stored
    key-major, so the softmax reduces over a non-contiguous axis, which
    NumPy vectorizes across the queries.  Returns (B, d).
    """
    d3 = qkv.cols
    d = d3 // 3
    width = d // heads
    valid = layout.valid                                         # (B, n_max)
    b, n_max = valid.shape

    def split_heads(padded):
        """(B, n_max, 3d) -> Q, K, V views, each (B, heads, n_max, width)."""
        return padded.reshape(b, n_max, 3, heads, width).transpose(2, 0, 3, 1, 4)

    q, k, v = split_heads(layout.pad(qkv.data))
    c = 1.0 / math.sqrt(width)
    e = k @ q.transpose(0, 1, 3, 2)                              # [j, i]
    e *= c
    np.copyto(e, -np.inf, where=~valid[:, None, :, None])
    e -= e.max(axis=2, keepdims=True)
    np.exp(e, out=e)
    colsum = np.ones((1, n_max)) @ e                             # (B, H, 1, n_max)
    r = valid[:, None, None, :] / colsum     # 1 / softmax denominator, 0 if padded
    weight = e @ r.transpose(0, 1, 3, 2)     # (B, H, n_max, 1): Σ_i P[j, i]
    pooled = (weight.transpose(0, 1, 3, 2) @ v).reshape(b, d)

    def back(g):
        gh = g.reshape(b, heads, 1, width)
        u = v @ gh.transpose(0, 1, 3, 2)                         # (B, H, n_max, 1)
        mean_u = (u.transpose(0, 1, 3, 2) @ e) / colsum          # Σ_j P[j, i] u_j
        gs = u - mean_u
        gs *= e
        gs *= r * c
        grad = np.empty((b, n_max, d3))
        gq, gk, gv = split_heads(grad)
        gq[...] = gs.transpose(0, 1, 3, 2) @ k
        gk[...] = gs @ q
        gv[...] = weight * gh
        return layout.unpad(grad)

    return ad.record_op(pooled, [(qkv, back)])


def attention_readout(z: Tensor, layout: BlockAdjacency,
                      att: AttentionParams) -> Tensor:
    """Multi-head self-attention within each graph, attended rows summed.

    ``layout`` is the batch's adjacency (``Batch.a_norm``), whose
    ``sizes`` split the rows of ``z`` into graphs, in order.  Every graph
    attends only over its own rows, so permuting rows inside one graph
    leaves its pooled vector unchanged, and a batched readout agrees with
    the stacked single-graph readouts to round-off (≤1e-12 relative): the
    projections are shared BLAS products over the whole batch, whose rows
    depend on the row count in the last bits.  The same batch read twice
    is byte-identical.

    The whole batch is computed at once: one product projects Q, K and V
    for every row, one recorded op runs the masked attention on the
    layout's padded grid and sums each graph's attended rows, and ``W_o``
    maps the pooled rows, adding ``n_b · b_o`` for a graph of ``n_b``
    nodes.
    """
    w_qkv = ad.concat_cols(ad.concat_cols(ad.transpose(att.w_q),
                                          ad.transpose(att.w_k)),
                           ad.transpose(att.w_v))
    b_qkv = ad.concat_cols(ad.concat_cols(att.b_q, att.b_k), att.b_v)
    qkv = ad.add_row(ad.matmul(z, w_qkv), b_qkv)
    pooled = _pooled_attention(qkv, layout, att.heads)
    counts = ad.constant(np.asarray(layout.sizes,
                                    dtype=np.float64).reshape(-1, 1))
    return ad.add(ad.matmul(pooled, ad.transpose(att.w_o)),
                  ad.matmul(counts, att.b_o))


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
                spectral_normalize=cfg.pathway in ("sd", "bd"))
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

    def context(self, batch) -> GraphContext:
        """The operator's per-solve constants for ``batch``: its adjacency,
        the encoded node rows, and for the id pathway their conditioning."""
        h = encode(batch.features, self.encoder)
        q_id = (self.operator.compute_id_conditioning(h, batch.tau)
                if self.cfg.pathway == "id" else None)
        return GraphContext(batch.a_norm, h, q_id)

    def forward_batch(self, batch, train: bool = False, dropout_rng=None,
                      refresh: bool = True):
        """(loss, logits, solve report) for one block-diagonal batch.

        Returns (None, None, report) when the forward solve diverges so the
        caller can skip the batch.  The model is left unchanged.  ``refresh``
        is ignored, since the spectral normalization of the circuit maps is
        exact and stateless; it stays because the acceptance tests pass it.
        """
        cfg = self.cfg
        z0 = np.zeros((batch.features.shape[0], cfg.d_hidden))
        z, report = equilibrium_solve(self.operator.plan(self.context(batch)),
                                      z0, cfg.fwd, cfg.bwd)
        if report.diverged:
            return None, None, report
        pooled = attention_readout(z, batch.a_norm, self.attention)
        mask = None
        if train and cfg.dropout > 0.0:
            if dropout_rng is None:
                raise ValueError("training with dropout needs a generator")
            mask = dropout_mask(dropout_rng, (batch.n_graphs, cfg.mlp_hidden),
                                cfg.dropout)
        logits = classify(pooled, self.classifier, mask)
        loss = ad.cross_entropy_mean(logits, batch.labels)
        return loss, logits, report


# ---------------------------------------------------------------------------
# optimisation


ADAM_BETAS = (0.9, 0.999)   # first- and second-moment decay
ADAM_EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay and a per-name exclusion set."""

    def __init__(self, params, lr: float = 1e-4, weight_decay: float = 1e-4,
                 exclude=()):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.exclude = frozenset(exclude)
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.params}
        self.v = {n: np.zeros_like(t.data) for n, t in self.params}

    def step(self, grads: dict, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params:
            g = grads[name]
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            if self.weight_decay and name not in self.exclude:
                update = update + self.weight_decay * p.data
            p.data -= lr * update


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place to a global norm <= max_norm, or leave
    them as they are when max_norm is 0; returns the pre-clip norm."""
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


M_MMAP_THRESHOLD = 32 << 20   # bytes; glibc's own 64-bit dynamic ceiling
M_TRIM_THRESHOLD = 64 << 20
_heap_kept = False


def _libc():
    return ctypes.CDLL(None)


def _keep_heap() -> None:
    """Set glibc's mmap and trim thresholds once per process.

    Then the arrays a training step frees stay in the heap for the next
    step instead of being handed back and faulted in again.  Both are set:
    either one alone turns off glibc's dynamic mmap threshold and leaves
    the other at its 128 KiB default, which faults far more than neither.
    Forked workers inherit the setting; without ``mallopt`` this does
    nothing.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(-3, M_MMAP_THRESHOLD)   # -3 is glibc's M_MMAP_THRESHOLD
        mallopt(-1, M_TRIM_THRESHOLD)   # -1 is glibc's M_TRIM_THRESHOLD


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread inside the block, then give the
    caller back its own count; yields that count, or None where numpy's
    BLAS exports no OpenBLAS setter and nothing is pinned.

    The setter is called only where the count differs, so a block entered
    in a worker that ``run_jobs`` forked under the pin never calls it.
    """
    before = _set_blas_threads(1)
    try:
        yield before
    finally:
        if before is not None:
            _set_blas_threads(before)


@one_blas_thread()
def train_epoch(model: GraphClassifier, opt: AdamW, batches, lr: float,
                seed: int = 0, epoch: int = 0, grad_clip: float = 1.0) -> dict:
    """One optimisation pass over the batches; returns the epoch slice.

    Per batch: forward solve, readout, cross-entropy, implicit backward,
    global-norm gradient clip, AdamW step, spectral re-clip of W.  A
    diverged forward or adjoint solve skips its batch with a warning, and
    counts in ``skipped``; ``fwd_max_iter`` and ``adj_max_iter`` count the
    solves that stopped at ``max_iter``.  The dropout stream is keyed on
    (seed, epoch, batch) so reruns are bit-identical.  The first call in a
    process keeps freed memory in the heap (``_keep_heap``).
    """
    _keep_heap()
    params = model.parameters()
    loss_sum, hits, seen = 0.0, 0, 0
    iters: list = []
    skipped = fwd_max_iter = adj_max_iter = 0
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
        fwd_max_iter += not report.converged
        grads = tape.backward(loss)
        back = report.backward
        if back.diverged:
            skipped += 1
            warnings.warn(f"adjoint solve diverged; skipping batch {bi}",
                          RuntimeWarning)
            continue
        adj_max_iter += not back.converged
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
        "fwd_max_iter": fwd_max_iter,
        "adj_max_iter": adj_max_iter,
    }


@one_blas_thread()
def evaluate(model: GraphClassifier, batches) -> tuple:
    """(mean loss, accuracy, mean forward iterations) without recording.

    Leaves the model untouched, so repeated evaluations agree.  Graphs in a
    diverged batch count as misclassified rather than being silently
    dropped.
    """
    loss_sum, hits, seen, iters = 0.0, 0, 0, []
    missed = 0
    for batch in batches:
        loss, logits, report = model.forward_batch(batch, train=False)
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


@one_blas_thread()
def run_training(dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
                 seed: int, fold: int):
    """Train one (seed, fold) model; returns (RunMetrics, model).

    The stratified split is derived from the seed, so different seeds see
    different fold assignments as well as different initial weights.
    """
    t0 = time.perf_counter()
    train_idx, test_idx = stratified_folds(dataset.labels, train_cfg.folds,
                                           seed)[fold]
    model = GraphClassifier(model_cfg, dataset.feature_dim, dataset.n_classes,
                            seed=seed)
    opt = AdamW(model.parameters(), lr=train_cfg.lr,
                weight_decay=train_cfg.weight_decay,
                exclude=model.decay_exclusions())
    loss_series, acc_series, iter_series = [], [], []
    counts = {"skipped": 0, "fwd_max_iter": 0, "adj_max_iter": 0}
    for epoch in range(train_cfg.epochs):
        lr = cosine_lr(epoch, train_cfg.epochs, train_cfg.lr, train_cfg.lr_min)
        batches = make_batches(dataset, train_idx, train_cfg.batch_size,
                               rng=np.random.default_rng((seed, epoch)))
        s = train_epoch(model, opt, batches, lr, seed=seed, epoch=epoch,
                        grad_clip=train_cfg.grad_clip)
        loss_series.append(s["loss"])
        acc_series.append(s["accuracy"])
        iter_series.append(s["iterations"])
        for key in counts:
            counts[key] += s[key]
    _, test_acc, _ = evaluate(
        model, make_batches(dataset, test_idx, train_cfg.batch_size))
    metrics = RunMetrics(
        pathway=model_cfg.pathway, seed=seed, fold=fold,
        train_loss=loss_series, train_accuracy=acc_series,
        iterations=iter_series, test_accuracy=test_acc,
        wall_minutes=(time.perf_counter() - t0) / 60.0,
        skipped_batches=counts["skipped"],
        fwd_max_iter=counts["fwd_max_iter"],
        adj_max_iter=counts["adj_max_iter"])
    return metrics, model


def aggregate_runs(runs, dataset: str) -> dict:
    """A pathway's record over its runs on ``dataset``: mean/std accuracy
    (std with the n-1 denominator), mean final iterations and minutes."""
    if not runs:
        raise ValueError("no runs to aggregate")
    accs = np.array([r.test_accuracy for r in runs])
    return {
        "variant": runs[0].pathway,
        "dataset": dataset,
        "acc_mean": float(accs.mean()),
        "acc_std": float(accs.std(ddof=1)) if len(runs) > 1 else 0.0,
        "iter_mean": float(np.mean([r.final_iterations for r in runs])),
        "time_minutes_mean": float(np.mean([r.wall_minutes for r in runs])),
    }


def run_jobs(fn, jobs, workers: int) -> list:
    """``fn(*job)`` for every job, in worker processes forked from this one.

    Returns one ``(True, result)`` or ``(False, error text)`` per job, in
    job order.  Every job runs in a worker, ``workers=1`` included; worker
    i of n = min(workers, len(jobs)) gets ``jobs[i::n]``.  Workers inherit
    ``fn`` and the jobs; only results are pickled.  The caller's OpenBLAS
    is held at one thread (``one_blas_thread``) from before the first fork
    until every worker has been reaped, so each worker inherits the pin; a
    worker that called the setter itself would start a helper thread that
    busy-waits beside its run, as OpenBLAS's setter rebuilds the pool its
    fork handler shut down.  Without a pinnable OpenBLAS nothing is forked
    and every job fails naming why.  Workers write each result to a file
    as its job ends, so one that dies fails only the jobs it did not
    finish; a worker leaves through ``os._exit``, never into the caller.
    Every worker is waited for before this returns or raises, and dies
    with this process.
    """
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")
    with one_blas_thread() as caller_threads:
        if caller_threads is None:
            return [(False, "RuntimeError: numpy's BLAS exports no OpenBLAS "
                            "set_num_threads symbol, so workers cannot pin it "
                            "to one thread")] * len(jobs)
        n = min(workers, len(jobs))
        launcher, pids, outs = os.getpid(), [], []
        try:
            for i in range(n):
                outs.append(tempfile.TemporaryFile())
                _flush_stdio()
                pid = os.fork()
                if pid == 0:
                    os._exit(_serve(launcher, fn, jobs[i::n], outs[i]))
                pids.append(pid)
            results = [None] * len(jobs)
            for i, out in enumerate(outs):
                status = os.waitstatus_to_exitcode(os.waitpid(pids[i], 0)[1])
                pids[i] = None
                out.seek(0)
                share, count = [], len(jobs[i::n])
                with contextlib.suppress(EOFError, pickle.UnpicklingError):
                    while len(share) < count:
                        share.append(pickle.load(out))
                lost = (False, f"worker exited with status {status} "
                               "without a result")
                results[i::n] = share + [lost] * (count - len(share))
            return results
        finally:
            if os.getpid() != launcher:   # a worker unwinding: never return
                os._exit(1)
            for pid in pids:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            for out in outs:
                out.close()


def _serve(launcher: int, fn, jobs, out) -> int:
    """Worker side of ``run_jobs``: one pickled (ok, result or error text)
    on ``out`` per job; returns the exit status, a ``SystemExit``'s code.
    The kernel kills the worker when its launcher dies (Linux's
    ``PR_SET_PDEATHSIG``); if that happened before the call, it exits."""
    try:
        prctl = getattr(_libc(), "prctl", None)
        if prctl is not None:
            prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
            prctl.restype = ctypes.c_int
            prctl(1, signal.SIGKILL, 0, 0, 0)   # 1 = PR_SET_PDEATHSIG
        if os.getppid() != launcher:
            return 1
        for job in jobs:
            try:
                item = pickle.dumps((True, fn(*job)))
            except Exception as e:  # noqa: BLE001 - a run must not kill the rest
                traceback.print_exc(file=sys.__stderr__)
                item = pickle.dumps((False, f"{type(e).__name__}: {e}"))
            out.write(item)
            out.flush()
        return 0
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else int(e.code is not None)
    finally:
        _flush_stdio()


def _set_blas_threads(count: int):
    """Set numpy's loaded OpenBLAS to ``count`` threads unless it already
    runs on that many; returns the count it ran on before, or None where
    numpy's BLAS exports no OpenBLAS setter."""
    blas = ctypes.CDLL(_umath_linalg.__file__)   # OpenBLAS is a dependency
    for prefix in ("scipy_openblas", "openblas"):   # numpy >= 2, numpy 1.x
        if hasattr(blas, prefix + "_set_num_threads64_"):
            setter = getattr(blas, prefix + "_set_num_threads64_")
            getter = getattr(blas, prefix + "_get_num_threads64_")
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            before = getter()
            if before != count:
                setter(count)
            return before
    return None


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
        with contextlib.suppress(AttributeError, OSError, ValueError):
            stream.flush()


def cross_validate(dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
                   seeds, workers: int = 1):
    """One run per (seed, fold of ``train_cfg.folds``) on ``run_jobs``;
    returns (runs, summary).

    Raises RuntimeError naming the first run that failed.
    """
    jobs = [(dataset, model_cfg, train_cfg, seed, fold)
            for seed in seeds for fold in range(train_cfg.folds)]
    runs = []
    results = run_jobs(lambda *job: run_training(*job)[0], jobs, workers)
    for job, (ok, value) in zip(jobs, results):
        if not ok:
            raise RuntimeError(f"run {job[3]}_{job[4]} failed: {value}")
        runs.append(value)
    return runs, aggregate_runs(runs, dataset.name)


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
