"""Shared numerical oracles for the test suite."""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from gdeq import autodiff as ad
from gdeq.contraction import (PathwayAnalysis, _pairs_per_call, lemma2_bound,
                              theorem_bounds)
from gdeq.graphs import GraphDataset, GraphInstance, normalize_adjacency
from gdeq.operators import BackboneParams, EquilibriumOperator
from gdeq.quantum import (DeepXyzParams, QuantumModule, _frame,
                          _rep_generators, circuit_expectations)
from gdeq.solvers import Plan, SolveReport, SolverConfig

# Tolerance of a tape gradient against central differences, relative to
# max(1, |gradient|_inf).
FD_TOL = 1e-8


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2.0 * eps)
    return g


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max-norm error relative to max(1, |exact|_inf)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(exact))) if exact.size else 0.0)
    return float(np.max(np.abs(approx - exact))) / denom


def sum_all(a: ad.Tensor) -> ad.Tensor:
    """Sum of every entry as a recorded (1, 1) op: a scalar loss for tests."""
    shape = a.data.shape
    return ad.record_op(a.data.sum().reshape(1, 1),
                        [(a, lambda g: np.full(shape, g[0, 0]))])


def tape_grad(build, *arrays):
    """Gradient of a scalar-valued tape program w.r.t. each input array."""
    tape = ad.Tape()
    tensors = [ad.Tensor(a) for a in arrays]
    for t in tensors:
        tape.watch(t)
    with tape:
        loss = build(*tensors)
    grads = tape.backward(loss)
    return [grads[t] for t in tensors]


def check_op(build, *arrays, tol=FD_TOL):
    """Tape gradients of ``build`` against central differences, per input."""
    gots = tape_grad(build, *arrays)
    for i, got in enumerate(gots):
        def scalar(x, i=i):
            args = [a.copy() for a in arrays]
            args[i] = x
            tensors = [ad.Tensor(a) for a in args]
            return build(*tensors).item()
        want = numeric_grad(scalar, arrays[i].copy())
        assert rel_err(got, want) <= tol, f"input {i}: {rel_err(got, want)}"


def tanh(a: ad.Tensor) -> ad.Tensor:
    """Elementwise tanh as a recorded op."""
    y = np.tanh(a.data)
    return ad.record_op(y, [(a, lambda g: g * (1.0 - y * y))])


def scale(a: ad.Tensor, c: float) -> ad.Tensor:
    """``a`` times the constant ``c`` as a recorded op."""
    c = float(c)
    return ad.record_op(a.data * c, [(a, lambda g: g * c)])


def tape_forward_rows(module: QuantumModule, s: ad.Tensor) -> ad.Tensor:
    """``module.forward_rows`` written op by op on the tape: each
    normalized map with its pullback, the encoding tanh, the circuit as
    ``circuit_expectations`` and the output map.  The oracle for
    ``ModulePlan.linearize``, which ``forward_rows`` records as one op."""
    w_in_eff, w_out_eff = (ad.record_op(m, [(w, back)]) for w, (m, back)
                           in zip((module.w_in, module.w_out), module.maps()))
    u = tanh(ad.matmul(s, ad.transpose(w_in_eff)))
    m = circuit_expectations(u, module.params.angles, module.n_qubits)
    return ad.matmul(m, ad.transpose(w_out_eff))


def propagate(a_norm, z: ad.Tensor) -> ad.Tensor:
    """A Z as one recorded op; A is a constant, so only Z gets a cotangent."""
    return ad.record_op(a_norm.matmul(z.data), [(z, a_norm.rmatmul)])


def backbone_apply(bb, a_norm, h: ad.Tensor, z: ad.Tensor,
                   extra: ad.Tensor | None = None) -> ad.Tensor:
    """tanh(A Z Wᵀ + H Omᵀ (+ extra) + 1 bᵀ) written as tape ops."""
    pre = ad.add(ad.matmul(propagate(a_norm, z), ad.transpose(bb.w)),
                 ad.matmul(h, ad.transpose(bb.omega)))
    if extra is not None:
        pre = ad.add(pre, extra)
    return tanh(ad.add_row(pre, bb.bias))


def tape_apply(op, z: ad.Tensor, ctx) -> ad.Tensor:
    """The operator ``op`` at ``z`` written op by op on the tape: the
    oracle for ``EquilibriumOperator.plan``."""
    if op.kind == "id":
        if ctx.q_id is None:
            raise ValueError("input-conditioning pathway needs ctx.q_id")
        return backbone_apply(op.backbone, ctx.a_norm, ctx.h, z,
                              extra=ctx.q_id)
    base = backbone_apply(op.backbone, ctx.a_norm, ctx.h, z)
    if op.kind == "classical" or op.alpha == 0.0:
        return base
    s = z if op.kind == "sd" else base
    return ad.add(base, scale(tape_forward_rows(op.quantum, s), op.alpha))


def _product(gates: np.ndarray) -> np.ndarray:
    """gates[-1] @ ... @ gates[0], multiplied pairwise in batches."""
    while len(gates) > 1:
        paired = gates[1::2] @ gates[:len(gates) - 1:2]
        if len(gates) % 2:
            paired = np.concatenate([paired, gates[-1:]])
        gates = paired
    return gates[0]


def reference_compile(angles: np.ndarray, n_qubits: int) -> list:
    """Each block's fused unitary as the product of its dense gates: the
    oracle for ``gdeq.quantum._compile``.

    Every parameter gate is the 2**n_q x 2**n_q matrix
    cos(θ/2) I - i sin(θ/2) P of its ``_rep_generators`` generator, and the
    block of each ``ANSATZ`` row in each repetition is left · (its gates)
    · W, multiplied pairwise, with left = Wᴴ before the next encoding
    layer and the identity after the last block.
    """
    paulis, rows = _rep_generators(n_qubits)
    half = 0.5 * angles[:, :, None, None]
    eye = np.eye(2 ** n_qubits)
    gates = np.cos(half) * eye - 1j * np.sin(half) * paulis
    w = _frame(n_qubits)
    blocks = [gates[r, row] for r in range(len(angles)) for row in rows]
    return [_product(np.concatenate(
        [w[None], g, (np.conj(w.T) if i < len(blocks) - 1 else eye)[None]]))
        for i, g in enumerate(blocks)]


def solve_inputs(op, ctx):
    """(apply_fn, tensors): ``apply_fn(z, tensors)`` is :func:`tape_apply`
    with the given tensor objects in place of the operator's inputs, so the
    map can be rebuilt on clones, in the order of ``op.plan(ctx).tensors``.
    """
    named = list(op.tracked_tensors())
    named.append(("h", ctx.h))
    if op.kind == "id":
        named.append(("q_id", ctx.q_id))
    names = [n for n, _ in named]
    tensors = [t for _, t in named]

    def apply_fn(z, current):
        by_name = dict(zip(names, current))
        bb = BackboneParams(by_name["w"], by_name["omega"], by_name["bias"],
                            op.backbone.kappa)
        quantum = op.quantum
        if quantum is not None and "w_in" in by_name:
            quantum = QuantumModule(
                by_name["w_in"], by_name["w_out"],
                DeepXyzParams(by_name["angles"], quantum.n_qubits),
                quantum.spectral_normalize)
        rebuilt = EquilibriumOperator(op.kind, bb, quantum, op.alpha)
        return tape_apply(rebuilt, z,
                          replace(ctx, h=by_name["h"],
                                  q_id=by_name.get("q_id")))

    return apply_fn, tensors


def replay_plan(apply_fn, tensors) -> Plan:
    """The plan of ``z <- apply_fn(z, tensors)`` read off the tape.

    ``f`` runs ``apply_fn`` without recording.  ``linearize(z)`` records it
    once at z on a sub-tape that watches the state and clones of
    ``tensors``, and returns the recorded value with two pullbacks that
    replay that sub-tape: ``jt`` reads the state's cotangent off it and
    ``vjp`` the clones'.  With :func:`solve_inputs` this is the oracle for
    ``EquilibriumOperator.plan``.
    """
    def f(z):
        with ad.no_grad():
            return apply_fn(ad.Tensor(z), tensors).data

    def linearize(z):
        clones = [ad.Tensor(t.data) for t in tensors]
        sub = ad.Tape()
        leaf = sub.watch(ad.Tensor(z))
        for c in clones:
            sub.watch(c)
        with sub:
            out = apply_fn(leaf, clones)

        def vjp(u):
            grads = sub.vjp(out, u)
            return [grads[c] for c in clones]

        return out.data, lambda u: sub.vjp(out, u)[leaf], vjp

    return Plan(f, linearize, tuple(tensors))


def reference_empirical_lipschitz(f, shape, rng: np.random.Generator,
                                  n_pairs: int = 200,
                                  scales: tuple = (0.1, 1.0, 10.0),
                                  delta: float = 1e-3) -> float:
    """One pair per call of ``f``, which maps a single probe: the oracle for
    ``gdeq.contraction.empirical_lipschitz``, which draws the same probes
    from ``rng`` in the same order and maps them in stacks.  A ratio that
    is not finite makes the result ``inf``.
    """
    best = 0.0
    for i in range(n_pairs):
        scale = scales[i % len(scales)]
        a = rng.normal(scale=scale, size=shape)
        if i % 2 == 0:
            b = rng.normal(scale=scale, size=shape)
        else:
            d = rng.normal(size=shape)
            d *= delta / max(np.linalg.norm(d), 1e-30)
            b = a + d
        denom = np.linalg.norm(a - b)
        if denom < 1e-15:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = float(np.linalg.norm(f(a) - f(b)) / denom)
        best = max(best, ratio) if math.isfinite(ratio) else math.inf
    return best


def chunked_empirical_lipschitz(f, shape, rng: np.random.Generator,
                                n_pairs: int = 200,
                                scales: tuple = (0.1, 1.0, 10.0),
                                delta: float = 1e-3) -> float:
    """The same chunks as ``gdeq.contraction.empirical_lipschitz``, drawn
    pair by pair with ``rng.normal`` and measured with ``np.linalg.norm``:
    its byte-for-byte oracle, for the float returned and the ``rng`` state
    left behind.  A ratio that is not finite makes the result ``inf``.
    """
    per_call = _pairs_per_call(shape[0])
    best = 0.0
    for start in range(0, n_pairs, per_call):
        k = min(per_call, n_pairs - start)
        stack = np.empty((2, k) + tuple(shape))
        denoms = []
        for j, i in enumerate(range(start, start + k)):
            scale = scales[i % len(scales)]
            a = rng.normal(scale=scale, size=shape)
            if i % 2 == 0:
                b = rng.normal(scale=scale, size=shape)
            else:
                d = rng.normal(size=shape)
                d *= delta / max(np.linalg.norm(d), 1e-30)
                b = a + d
            stack[0, j], stack[1, j] = a, b
            denoms.append(np.linalg.norm(a - b))
        out = f(stack.reshape(-1, shape[1])).reshape(stack.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = out[0] - out[1]
        for diff, denom in zip(diffs, denoms):
            if denom < 1e-15:
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = float(np.linalg.norm(diff) / denom)
            best = max(best, ratio) if math.isfinite(ratio) else math.inf
    return best


def apply_on_copies(op, ctx):
    """:func:`tape_apply` on as many copies of ``ctx`` as a probe stack
    holds: the map ``gdeq.contraction.analyze_operator`` stands for, on the
    tape.
    """
    def f(zd):
        copies = ctx.repeat(zd.shape[0] // ctx.h.rows)
        with ad.no_grad():
            return tape_apply(op, ad.Tensor(zd), copies).data

    return f


def reference_analyze_operator(op, ctx, rng: np.random.Generator,
                               n_pairs: int = 200) -> PathwayAnalysis:
    """``analyze_operator`` from :func:`apply_on_copies` and
    :func:`chunked_empirical_lipschitz`: its oracle."""
    kappa, alpha = op.backbone.kappa, op.alpha
    lq, analytic = None, kappa
    if op.kind in ("sd", "bd"):
        lq = lemma2_bound(op.quantum)
        analytic = getattr(theorem_bounds(kappa, alpha, lq), op.kind)
    shape = (ctx.h.rows, op.backbone.d_hidden)
    return PathwayAnalysis(
        kind=op.kind, kappa=kappa, alpha=alpha, analytic=analytic,
        empirical=chunked_empirical_lipschitz(apply_on_copies(op, ctx), shape,
                                              rng, n_pairs=n_pairs),
        pairs=n_pairs, lq=lq)


def reference_attention_readout(z: np.ndarray, sizes, att) -> np.ndarray:
    """Per-graph, per-head attention readout in plain NumPy: the oracle for
    ``gdeq.training.attention_readout``.

    Each graph's rows are projected on their own, each head takes a
    max-shifted softmax of its scaled scores, the heads are concatenated,
    mapped by ``W_o`` with ``b_o`` added per row, and the rows are summed.
    """
    w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o = (
        t.data for _, t in att.tensors())
    width = w_q.shape[0] // att.heads
    inv_scale = 1.0 / math.sqrt(width)
    pooled = []
    for rows in np.split(z, np.cumsum(sizes)[:-1]):
        q = rows @ w_q.T + b_q
        k = rows @ w_k.T + b_k
        v = rows @ w_v.T + b_v
        heads = []
        for h in range(att.heads):
            cols = slice(h * width, (h + 1) * width)
            scores = (q[:, cols] @ k[:, cols].T) * inv_scale
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights = e / e.sum(axis=1, keepdims=True)
            heads.append(weights @ v[:, cols])
        out = np.concatenate(heads, axis=1) @ w_o.T + b_o
        pooled.append(out.sum(axis=0, keepdims=True))
    return np.concatenate(pooled, axis=0)


def reference_picard_solve(f, z0: np.ndarray, cfg: SolverConfig) -> SolveReport:
    """Plain iteration z <- f(z) in its own loop: the oracle for
    ``gdeq.solvers.picard_solve``, which runs the Anderson loop with a
    one-slot window."""
    z = np.asarray(z0, dtype=np.float64)
    residual = np.inf
    with np.errstate(all="ignore"):
        for it in range(1, cfg.max_iter + 1):
            z_new = f(z)
            if not np.all(np.isfinite(z_new)):
                return SolveReport(False, it, np.inf, z_star=z, diverged=True)
            residual = float(np.linalg.norm(z_new - z))
            z = z_new
            if residual <= cfg.tol:
                return SolveReport(True, it, residual, z_star=z)
        return SolveReport(False, cfg.max_iter, residual, z_star=z)


def reference_anderson_solve(f, z0: np.ndarray, cfg: SolverConfig,
                             window: int = 5, beta: float = 1.0,
                             lam: float = 1e-4) -> SolveReport:
    """Anderson mixing that re-stacks its window and rebuilds the Gram
    matrix on every iteration: the oracle for ``gdeq.solvers``' loop.

    ``window`` iterates are mixed with damping ``beta`` (each step is
    (1 - beta) x + beta f(x)) and Tikhonov weight ``lam``; the solvers fix
    beta = 1, and run windows of 1 (Picard) and 5 (Anderson).
    """
    z0 = np.asarray(z0, dtype=np.float64)
    shape = z0.shape
    xs = [z0.ravel().copy()]
    fs = []
    fallback = 0
    residual = np.inf

    for it in range(1, cfg.max_iter + 1):
        fk = f(xs[-1].reshape(shape)).ravel()
        if not np.all(np.isfinite(fk)):
            return SolveReport(False, it, np.inf, z_star=xs[-1].reshape(shape),
                               diverged=True, fallback_steps=fallback)
        fs.append(fk)
        rs = [fv - xv for xv, fv in zip(xs[-len(fs):], fs)]
        k = len(rs)
        x_next = None
        if k > 1:
            r = np.stack(rs)
            gram = r @ r.T
            scale = np.trace(gram) / k
            h = np.zeros((k + 1, k + 1))
            h[0, 1:] = 1.0
            h[1:, 0] = 1.0
            h[1:, 1:] = gram + lam * scale * np.eye(k)
            rhs = np.zeros(k + 1)
            rhs[0] = 1.0
            try:
                alpha = np.linalg.solve(h, rhs)[1:]
            except np.linalg.LinAlgError:
                alpha = None
            if alpha is not None and np.all(np.isfinite(alpha)):
                xw = alpha @ np.stack(xs[-k:])
                fw = alpha @ np.stack(fs[-k:])
                x_next = (1.0 - beta) * xw + beta * fw
            if x_next is None:
                fallback += 1
        if x_next is None:
            x_next = (1.0 - beta) * xs[-1] + beta * fk
        if not np.all(np.isfinite(x_next)):
            return SolveReport(False, it, np.inf, z_star=xs[-1].reshape(shape),
                               diverged=True, fallback_steps=fallback)
        residual = float(np.linalg.norm(x_next - xs[-1]))
        xs.append(x_next)
        if len(xs) > window:
            xs = xs[-window:]
            fs = fs[-(window - 1):] if window > 1 else []
        if residual <= cfg.tol:
            return SolveReport(True, it, residual, z_star=xs[-1].reshape(shape),
                               fallback_steps=fallback)
    return SolveReport(False, cfg.max_iter, residual,
                       z_star=xs[-1].reshape(shape), fallback_steps=fallback)


def reference_simple_cycle_counts(a: np.ndarray, l_max: int) -> np.ndarray:
    """Per-node simple-cycle counts by a recursive canonical DFS, one graph
    at a time: the oracle for the cycle columns of
    ``gdeq.graphs.topology_descriptors``.

    A cycle is discovered exactly once, from its smallest vertex, walking
    toward its smaller second vertex.
    """
    n = a.shape[0]
    counts = np.zeros((n, l_max - 2))
    neigh = [np.flatnonzero(a[i]).tolist() for i in range(n)]

    def dfs(start: int, path: list, on_path: set):
        v = path[-1]
        for w in neigh[v]:
            if w == start and len(path) >= 3 and path[1] < path[-1]:
                for u in path:
                    counts[u, len(path) - 3] += 1.0
            elif w > start and w not in on_path and len(path) < l_max:
                path.append(w)
                on_path.add(w)
                dfs(start, path, on_path)
                path.pop()
                on_path.remove(w)

    for s in range(n):
        dfs(s, [s], {s})
    return counts


def reference_topology_descriptors(a: np.ndarray, l_max: int) -> np.ndarray:
    """Descriptors with triangles read from diag(A^3): the oracle for
    ``gdeq.graphs.topology_descriptors``."""
    cycles = reference_simple_cycle_counts(a, l_max)
    deg = a.sum(axis=1)
    max_deg = deg.max() if deg.size else 0.0
    deg_norm = deg / max_deg if max_deg > 0 else np.zeros_like(deg)
    tri = np.diag(np.linalg.matrix_power(a, 3)) / 2.0
    denom = deg * (deg - 1.0)
    cc = np.divide(2.0 * tri, denom, out=np.zeros_like(denom), where=denom > 0)
    flag = (tri > 0).astype(np.float64)
    return np.column_stack([cycles, deg_norm, cc, flag])


def _reference_numbered_lines(path: Path) -> list:
    """(line number, stripped line) of every nonblank line of ``path``."""
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    return [(n, ln.strip()) for n, ln in
            enumerate(path.read_text().splitlines(), start=1) if ln.strip()]


def _reference_lines(path: Path) -> list:
    return [ln for _, ln in _reference_numbered_lines(path)]


def reference_load_tu_dataset(data_dir, name: str, l_max: int = 6) -> GraphDataset:
    """A TU directory parsed line by line and edge by edge, one graph at a
    time: the oracle for ``gdeq.graphs.load_tu_dataset``, its values and
    its errors."""
    root = Path(data_dir) / name
    if not root.is_dir():
        root = Path(data_dir)

    def fpath(suffix: str) -> Path:
        return root / f"{name}_{suffix}.txt"

    indicator = np.array([int(x) for x in _reference_lines(fpath("graph_indicator"))])
    graph_labels_raw = [int(x) for x in _reference_lines(fpath("graph_labels"))]
    n_nodes_total = indicator.shape[0]
    n_graphs = len(graph_labels_raw)

    ids = np.unique(indicator)
    if not np.array_equal(ids, np.arange(1, n_graphs + 1)):
        raise ValueError(
            f"{fpath('graph_indicator')}: graph ids must be 1..{n_graphs} contiguous")

    local_index = np.zeros(n_nodes_total, dtype=np.int64)
    sizes = np.zeros(n_graphs, dtype=np.int64)
    for node, gid in enumerate(indicator):
        local_index[node] = sizes[gid - 1]
        sizes[gid - 1] += 1

    adjacency = [np.zeros((s, s)) for s in sizes]
    for lineno, line in _reference_numbered_lines(fpath("A")):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{fpath('A')}:{lineno}: expected 'i, j', got {line!r}")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError as err:
            raise ValueError(f"{fpath('A')}:{lineno}: {err}") from None
        if not (0 <= i < n_nodes_total and 0 <= j < n_nodes_total):
            raise ValueError(f"{fpath('A')}:{lineno}: node id out of range")
        if indicator[i] != indicator[j]:
            raise ValueError(f"{fpath('A')}:{lineno}: edge crosses graphs")
        if i == j:
            raise ValueError(f"{fpath('A')}:{lineno}: self-loop")
        g = indicator[i] - 1
        adjacency[g][local_index[i], local_index[j]] = 1.0
        adjacency[g][local_index[j], local_index[i]] = 1.0

    blocks = []
    label_path = fpath("node_labels")
    if label_path.is_file():
        raw = np.array([int(x) for x in _reference_lines(label_path)])
        if raw.shape[0] != n_nodes_total:
            raise ValueError(f"{label_path}: expected {n_nodes_total} lines")
        vocab = np.unique(raw)
        onehot = np.zeros((n_nodes_total, vocab.shape[0]))
        onehot[np.arange(n_nodes_total), np.searchsorted(vocab, raw)] = 1.0
        blocks.append(onehot)
    attr_path = fpath("node_attributes")
    if attr_path.is_file():
        rows = [[float(x) for x in ln.replace(",", " ").split()]
                for ln in _reference_lines(attr_path)]
        widths = {len(r) for r in rows}
        if len(rows) != n_nodes_total or len(widths) != 1:
            raise ValueError(f"{attr_path}: ragged or wrong-length attribute rows")
        blocks.append(np.array(rows))
    if not blocks:
        blocks.append(np.ones((n_nodes_total, 1)))
    features_all = np.concatenate(blocks, axis=1)

    classes = sorted(set(graph_labels_raw))
    class_index = {c: i for i, c in enumerate(classes)}
    graphs = []
    for g in range(n_graphs):
        a = adjacency[g]
        graphs.append(GraphInstance(
            adjacency=a,
            features=features_all[indicator == g + 1],
            label=class_index[graph_labels_raw[g]],
            a_norm=normalize_adjacency(a),
            tau=reference_topology_descriptors(a, l_max),
        ))
    return GraphDataset(name=name, graphs=graphs, n_classes=len(classes),
                        feature_dim=features_all.shape[1], l_max=l_max)


# Published NCI1 size statistics (Morris et al., TUDataset, arXiv:2007.08663):
# graphs, mean nodes, mean undirected edges, most nodes in one graph.
NCI1_SHAPE = {"graphs": 4110, "mean_nodes": 29.87, "mean_edges": 32.30,
              "max_nodes": 111}


def write_nci1_shaped(data_dir: Path, n_graphs: int, seed: int,
                      name: str = "SYNTH_NCI1") -> Path:
    """Write a SYNTHETIC TU directory ``data_dir/name`` shaped like NCI1.

    Node counts follow a gamma law clipped to [3, max_nodes] around
    NCI1's mean.  Each graph is a molecule-like tree (every node hangs off
    one of the three before it) plus a Poisson number of ring-closing
    edges, so that it has NCI1's mean edge count and short cycles.  Node
    labels (37, skewed) and the two graph labels are random: the data is
    for loader equality and load timing, and its accuracies mean nothing.
    Edge lines list both directions, about 2 % of them twice, in shuffled
    order; the middle graph has no edge at all.  Returns ``data_dir``.
    """
    rng = np.random.default_rng(seed)
    mean, top = NCI1_SHAPE["mean_nodes"], NCI1_SHAPE["max_nodes"]
    rings = NCI1_SHAPE["mean_edges"] - (mean - 1.0)   # edges beyond a tree
    sizes = np.clip(np.rint(rng.gamma(4.8, mean / 4.8, n_graphs)), 3, top)
    pairs, offset = [], 0
    for g, n in enumerate(sizes.astype(int)):
        if g != n_graphs // 2:
            child = np.arange(1, n)
            parent = child - rng.integers(1, np.minimum(child, 3) + 1)
            hub = rng.integers(4, n + 4, rng.poisson(rings * (n + 4) / mean))
            near = hub - rng.integers(4, 8, hub.size)     # never hub's parent
            keep = (near >= 0) & (hub < n)
            edges = np.concatenate([np.column_stack([child, parent]),
                                    np.column_stack([hub[keep], near[keep]])])
            pairs.append(offset + edges)
        offset += n
    pairs = np.concatenate(pairs)
    lines = np.concatenate([pairs, pairs[:, ::-1]])
    lines = np.concatenate([lines, lines[rng.random(len(lines)) < 0.02]])
    lines = lines[rng.permutation(len(lines))] + 1
    node_labels = np.minimum(rng.geometric(0.25, offset) - 1, 36)
    root = Path(data_dir) / name
    root.mkdir(parents=True)
    (root / f"{name}_A.txt").write_text(
        "".join(f"{i}, {j}\n" for i, j in lines.tolist()))
    (root / f"{name}_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in np.repeat(np.arange(1, n_graphs + 1),
                                            sizes.astype(int)).tolist()))
    (root / f"{name}_graph_labels.txt").write_text(
        "".join(f"{c}\n" for c in rng.choice([-1, 1], n_graphs).tolist()))
    (root / f"{name}_node_labels.txt").write_text(
        "".join(f"{c}\n" for c in node_labels.tolist()))
    return Path(data_dir)


def process_table() -> list[tuple[int, str, int]]:
    """(pid, state, parent pid) of every process, from ``/proc/<pid>/stat``.

    Unlike ``/proc/self/task/*/children``, this also lists zombies and
    needs no optional kernel feature.
    """
    table = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            after_name = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:     # exited while listing
            continue
        table.append((int(stat.parent.name), after_name[0],
                      int(after_name[1])))
    return table


def assert_nothing_left_running() -> None:
    """No child of this process is alive or unreaped, and no
    multiprocessing resource tracker was started."""
    me = os.getpid()
    children = [pid for pid, _, parent in process_table() if parent == me]
    assert children == [], f"child processes left: {children}"
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    assert tracker is None or tracker._resource_tracker._pid is None


def blas_bits() -> str:
    """``v @ v`` over a fixed 256 000-element vector, as a float hex.

    OpenBLAS splits a dot product this long across its threads, so the
    last bits tell one thread (``...cfbcp+17``) from two (``...cfbep+17``).
    """
    v = np.random.default_rng(2).standard_normal(256_000)
    return float(v @ v).hex()


@contextlib.contextmanager
def blas_threads(n: int):
    """Run numpy's OpenBLAS on ``n`` threads inside the block."""
    blas = ctypes.CDLL(_umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        if hasattr(blas, prefix + "_set_num_threads64_"):
            break
    else:
        raise RuntimeError("numpy's BLAS is not a pinnable OpenBLAS")
    before = getattr(blas, prefix + "_get_num_threads64_")()
    getattr(blas, prefix + "_set_num_threads64_")(n)
    try:
        yield
    finally:
        getattr(blas, prefix + "_set_num_threads64_")(before)
