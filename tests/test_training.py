import gc
import math
import operator
import os
import pickle
import resource
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path
from types import FunctionType, SimpleNamespace

import numpy as np
import pytest

import gdeq
from gdeq import autodiff as ad
from gdeq.autodiff import Tensor
from gdeq.graphs import (BlockAdjacency, GraphDataset, GraphInstance,
                         collate, normalize_adjacency, topology_descriptors)
from gdeq.solvers import SolverConfig
from gdeq import training
from gdeq.training import (AdamW, AttentionParams,
                           ClassifierParams, GraphClassifier, ModelConfig,
                           RunMetrics, TrainConfig, aggregate_runs,
                           attention_readout, classify, clip_gradients,
                           cosine_lr, cross_validate, dropout_mask, encode,
                           evaluate, load_checkpoint, restore_checkpoint,
                           run_jobs, run_training, save_checkpoint,
                           train_epoch)

from helpers import (assert_nothing_left_running, blas_bits, blas_threads,
                     check_op, numeric_grad, reference_attention_readout,
                     rel_err, sum_all)


def random_graph(rng, n, label):
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    a = a + a.T
    return GraphInstance(adjacency=a, features=rng.normal(size=(n, 3)),
                         label=label, a_norm=normalize_adjacency(a),
                         tau=topology_descriptors(a))


def toy_dataset(n_graphs=12, seed=0):
    rng = np.random.default_rng(seed)
    graphs = [random_graph(rng, int(rng.integers(3, 7)), i % 2)
              for i in range(n_graphs)]
    return GraphDataset(name="toy", graphs=graphs, n_classes=2,
                        feature_dim=3, l_max=6)


def small_config(pathway="classical", **kw):
    kw.setdefault("d_hidden", 8)
    kw.setdefault("n_qubits", 2)
    kw.setdefault("heads", 2)
    kw.setdefault("mlp_hidden", 8)
    kw.setdefault("fwd", SolverConfig(max_iter=300, tol=1e-10))
    kw.setdefault("bwd", SolverConfig(max_iter=150, tol=1e-9))
    return ModelConfig(pathway=pathway, **kw)


# ---------------------------------------------------------------------------
# encoder


def test_encode_identity_projection():
    x = np.random.default_rng(0).normal(size=(5, 4))
    h = encode(x, Tensor(np.eye(4)))
    assert np.array_equal(h.data, x)


def test_encode_zero_features():
    e = Tensor(np.random.default_rng(1).normal(size=(6, 3)))
    h = encode(np.zeros((4, 3)), e)
    assert np.array_equal(h.data, np.zeros((4, 6)))


def test_encode_rejects_feature_mismatch():
    with pytest.raises(ValueError):
        encode(np.zeros((4, 3)), Tensor(np.zeros((6, 5))))


def test_encode_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    e0 = rng.normal(size=(5, 3))
    w = rng.normal(size=(4, 5))

    def loss_of(ed):
        with ad.no_grad():
            return float(sum_all(ad.mul(encode(x, Tensor(ed)),
                                           ad.constant(w))).data[0, 0])

    tape = ad.Tape()
    e = tape.watch(Tensor(e0))
    with tape:
        loss = sum_all(ad.mul(encode(x, e), ad.constant(w)))
    got = tape.backward(loss)[e]
    want = numeric_grad(loss_of, e0)
    assert np.max(np.abs(got - want)) <= 1e-7


# ---------------------------------------------------------------------------
# attention readout


def layout(sizes):
    """The padded layout a batch of graphs with ``sizes`` rows reads out on."""
    return BlockAdjacency.stack([np.zeros((n, n)) for n in sizes])


def test_single_node_graph_reduces_to_value_projection():
    rng = np.random.default_rng(3)
    att = AttentionParams.init(8, 2, rng)
    for _, t in att.tensors():
        t.data[...] = rng.normal(size=t.data.shape)
    z = Tensor(rng.normal(size=(1, 8)))
    got = attention_readout(z, layout([1]), att).data
    v = z.data @ att.w_v.data.T + att.b_v.data
    want = v @ att.w_o.data.T + att.b_o.data
    assert np.array_equal(got, want)


def test_readout_is_invariant_to_node_order_within_a_graph():
    rng = np.random.default_rng(4)
    att = AttentionParams.init(8, 4, rng)
    z = rng.normal(size=(6, 8))
    base = attention_readout(Tensor(z), layout([6]), att).data
    perm = rng.permutation(6)
    swapped = attention_readout(Tensor(z[perm]), layout([6]), att).data
    assert np.max(np.abs(base - swapped)) <= 1e-12


def random_attention(d, heads, rng):
    """Attention parameters with every tensor, biases included, random."""
    att = AttentionParams.init(d, heads, rng)
    for _, t in att.tensors():
        t.data[...] = rng.normal(size=t.data.shape)
    return att


# a 1-node graph, and graphs of 8 rows or more, where NumPy's 8-way pairwise
# sums meet the padding of the batched layout
READOUT_SIZES = (1, 3, 9, 17, 28)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_readout_matches_per_graph_per_head_reference(heads):
    rng = np.random.default_rng(10 + heads)
    att = random_attention(8, heads, rng)
    z = rng.normal(size=(sum(READOUT_SIZES), 8))
    got = attention_readout(Tensor(z), layout(READOUT_SIZES), att).data
    want = reference_attention_readout(z, READOUT_SIZES, att)
    assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_readout_vjp_matches_finite_differences(heads):
    # weights at their init scale and a cotangent scaled by 1/n_b keep the
    # loss O(10), so central differences resolve to about 4e-9
    rng = np.random.default_rng(20 + heads)
    att = AttentionParams.init(8, heads, rng)
    for b in (att.b_q, att.b_k, att.b_v, att.b_o):
        b.data[...] = rng.normal(size=b.data.shape)
    z = rng.normal(size=(sum(READOUT_SIZES), 8))
    batch = layout(READOUT_SIZES)
    w = ad.constant(rng.normal(size=(len(READOUT_SIZES), 8))
                    / np.array(READOUT_SIZES)[:, None])

    def build(zt, *tensors):
        a = AttentionParams(*tensors, heads=heads)
        return sum_all(ad.mul(attention_readout(zt, batch, a), w))

    check_op(build, z, *(t.data for _, t in att.tensors()))


def test_batched_readout_matches_per_graph_readout():
    rng = np.random.default_rng(5)
    att = random_attention(8, 2, rng)
    z = rng.normal(size=(sum(READOUT_SIZES), 8))
    batch = attention_readout(Tensor(z), layout(READOUT_SIZES), att).data
    graphs = np.split(z, np.cumsum(READOUT_SIZES)[:-1])
    alone = np.vstack([attention_readout(Tensor(g), layout([len(g)]),
                                         att).data for g in graphs])
    assert rel_err(batch, alone) <= 1e-12


def test_readout_of_the_same_batch_is_byte_identical():
    rng = np.random.default_rng(7)
    att = random_attention(8, 4, rng)
    z = rng.normal(size=(sum(READOUT_SIZES), 8))
    first = attention_readout(Tensor(z), layout(READOUT_SIZES), att).data
    again = attention_readout(Tensor(z.copy()), layout(READOUT_SIZES),
                              att).data
    assert np.array_equal(first, again)


@pytest.mark.parametrize("sizes", [(4,), (3, 3), (1, 3), (2, 4, 1)])
def test_readout_rejects_rows_that_do_not_fill_the_layout(sizes):
    att = AttentionParams.init(8, 2, np.random.default_rng(8))
    with pytest.raises(ValueError, match="rows"):
        attention_readout(Tensor(np.zeros((5, 8))), layout(sizes), att)


# ---------------------------------------------------------------------------
# classifier head


def test_zero_weights_give_zero_logits():
    clf = ClassifierParams(Tensor(np.zeros((8, 8))), Tensor(np.zeros((1, 8))),
                           Tensor(np.zeros((3, 8))), Tensor(np.zeros((1, 3))))
    out = classify(Tensor(np.random.default_rng(7).normal(size=(5, 8))), clf)
    assert np.array_equal(out.data, np.zeros((5, 3)))


def test_dropout_rate_zero_is_identity():
    rng = np.random.default_rng(8)
    clf = ClassifierParams.init(6, 8, 2, rng)
    zg = Tensor(rng.normal(size=(4, 6)))
    mask = dropout_mask(np.random.default_rng(0), (4, 8), 0.0)
    assert np.array_equal(classify(zg, clf, mask).data, classify(zg, clf).data)


def test_dropout_mask_values_and_scaling():
    mask = dropout_mask(np.random.default_rng(9), (200, 50), 0.4)
    vals = np.unique(mask)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1.0 / 0.6, 12)}
    # keep rate concentrates near 1 - rate
    assert abs((mask > 0).mean() - 0.6) < 0.02


def test_classifier_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    clf = ClassifierParams.init(5, 6, 3, rng)
    zg = rng.normal(size=(4, 5))
    labels = np.array([0, 2, 1, 0])

    def loss_of(w1):
        with ad.no_grad():
            alt = ClassifierParams(Tensor(w1), clf.b1, clf.w2, clf.b2)
            return float(ad.cross_entropy_mean(
                classify(Tensor(zg), alt), labels).data[0, 0])

    tape = ad.Tape()
    tape.watch(clf.w1)
    with tape:
        loss = ad.cross_entropy_mean(classify(Tensor(zg), clf), labels)
    got = tape.backward(loss)[clf.w1]
    want = numeric_grad(loss_of, clf.w1.data)
    assert np.max(np.abs(got - want)) <= 1e-7


# ---------------------------------------------------------------------------
# configs and schedule


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(pathway="quantum")
    with pytest.raises(ValueError):
        ModelConfig(d_hidden=10, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)
    for bad in ({"heads": 0}, {"heads": -4}, {"mlp_hidden": 0},
                {"mlp_hidden": -1}):
        with pytest.raises(ValueError, match="must be positive"):
            ModelConfig(**bad)
    with pytest.raises(ValueError):
        TrainConfig(folds=1)
    for bad in (-1.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError, match="grad_clip"):
            TrainConfig(grad_clip=bad)
    assert TrainConfig(grad_clip=0.0).grad_clip == 0.0  # no clip


def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 200, 1e-4, 0.0) == 1e-4
    assert cosine_lr(200, 200, 1e-4, 0.0) == pytest.approx(0.0, abs=1e-20)
    assert cosine_lr(100, 200, 1e-4, 2e-5) == pytest.approx(6e-5, rel=1e-12)
    with pytest.raises(ValueError):
        cosine_lr(5, 4, 1e-4)


# ---------------------------------------------------------------------------
# optimiser


def test_clip_leaves_small_gradients_untouched():
    g = {"a": np.full((2, 2), 0.1)}
    before = g["a"].copy()
    pre = clip_gradients(g, 1.0)
    assert pre == pytest.approx(0.2)
    assert np.array_equal(g["a"], before)


def test_clip_caps_global_norm():
    rng = np.random.default_rng(11)
    g = {k: rng.normal(size=(5, 5)) * 10 for k in "abc"}
    pre = clip_gradients(g, 1.0)
    post = np.sqrt(sum((v * v).sum() for v in g.values()))
    assert pre > 1.0
    assert post <= 1.0 + 1e-12


def test_adamw_decay_is_decoupled_and_selective():
    w = Tensor(np.full((2, 2), 2.0))
    b = Tensor(np.full((1, 2), 2.0))
    opt = AdamW([("w", w), ("bias", b)], lr=0.1, weight_decay=0.01,
                exclude={"bias"})
    zero = {"w": np.zeros((2, 2)), "bias": np.zeros((1, 2))}
    opt.step(zero)
    # zero gradient: the only movement is the decoupled decay term
    assert np.allclose(w.data, 2.0 * (1.0 - 0.1 * 0.01), atol=1e-15)
    assert np.array_equal(b.data, np.full((1, 2), 2.0))


def test_adamw_first_step_size_is_learning_rate():
    w = Tensor(np.zeros((1, 1)))
    opt = AdamW([("w", w)], lr=0.05, weight_decay=0.0)
    opt.step({"w": np.array([[3.0]])})
    # bias correction makes the first step ~lr regardless of gradient scale
    assert abs(w.data[0, 0] + 0.05) < 1e-8


# ---------------------------------------------------------------------------
# model plumbing


def test_parameter_registry_names_per_pathway():
    ds = toy_dataset()
    classical = GraphClassifier(small_config(), ds.feature_dim, 2, seed=0)
    names = [n for n, _ in classical.parameters()]
    assert names[0] == "encoder"
    assert "backbone_w" in names and "clf_w2" in names
    assert not any(n.startswith("quantum") for n in names)
    sd = GraphClassifier(small_config("sd"), ds.feature_dim, 2, seed=0)
    sd_names = [n for n, _ in sd.parameters()]
    for expected in ("quantum_w_in", "quantum_w_out", "quantum_angles"):
        assert expected in sd_names


def test_decay_exclusions_cover_biases_and_angles():
    ds = toy_dataset()
    model = GraphClassifier(small_config("id"), ds.feature_dim, 2, seed=0)
    excl = model.decay_exclusions()
    assert "quantum_angles" in excl
    for name, t in model.parameters():
        if t.data.shape[0] == 1 and name != "quantum_angles":
            assert name in excl, name
    assert "backbone_w" not in excl


@pytest.mark.parametrize("pathway", ["classical", "id", "sd", "bd"])
def test_forward_batch_shapes_and_loss(pathway):
    ds = toy_dataset()
    batch = collate(ds.graphs[:4])
    model = GraphClassifier(small_config(pathway), ds.feature_dim, 2, seed=1)
    loss, logits, report = model.forward_batch(batch)
    assert logits.data.shape == (4, 2)
    assert loss.data.shape == (1, 1) and np.isfinite(loss.data[0, 0])
    assert report.converged


def test_graph_relabeling_leaves_logits_unchanged():
    ds = toy_dataset()
    g = ds.graphs[0]
    model = GraphClassifier(small_config("id"), ds.feature_dim, 2, seed=3)
    _, logits, _ = model.forward_batch(collate([g]))
    rng = np.random.default_rng(12)
    perm = rng.permutation(g.n_nodes)
    a2 = g.adjacency[np.ix_(perm, perm)]
    g2 = GraphInstance(adjacency=a2, features=g.features[perm], label=g.label,
                       a_norm=normalize_adjacency(a2),
                       tau=topology_descriptors(a2))
    _, logits2, _ = model.forward_batch(collate([g2]))
    assert np.max(np.abs(logits.data - logits2.data)) <= 1e-9


@pytest.mark.parametrize("pathway", ["classical", "id", "sd", "bd"])
def test_batched_logits_match_each_graph_solved_alone(pathway):
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, n, i % 2) for i, n in enumerate((4, 1, 6, 3))]
    tight = SolverConfig(max_iter=3000, tol=1e-13)
    model = GraphClassifier(small_config(pathway, fwd=tight),
                            feature_dim=3, n_classes=2, seed=4)
    with ad.no_grad():
        _, batched, report = model.forward_batch(collate(graphs))
        assert report.converged
        for i, g in enumerate(graphs):
            _, alone, report = model.forward_batch(collate([g]))
            assert report.converged
            assert np.max(np.abs(batched.data[i] - alone.data[0])) <= 1e-10


@pytest.mark.parametrize("pathway", ["classical", "id", "sd", "bd"])
def test_a_training_step_builds_the_operator_once(pathway, monkeypatch):
    # the parameter cotangents come from the solve's plan in closed form,
    # not from the operator rebuilt and recorded on a sub-tape at z*
    from gdeq import operators, quantum

    def rebuilt(*args, **kwargs):
        raise AssertionError("the operator was rebuilt on the tape")

    monkeypatch.setattr(operators.EquilibriumOperator, "apply", rebuilt)
    monkeypatch.setattr(quantum, "circuit_expectations", rebuilt)
    swept, entered = [], []
    vjp, enter = ad.Tape.vjp, ad.Tape.__enter__

    def counting_vjp(self, *args):
        swept.append(self)
        return vjp(self, *args)

    def counting_enter(self):
        entered.append(self)
        return enter(self)

    monkeypatch.setattr(ad.Tape, "vjp", counting_vjp)
    monkeypatch.setattr(ad.Tape, "__enter__", counting_enter)

    ds = toy_dataset()
    model = GraphClassifier(small_config(pathway), ds.feature_dim, 2, seed=1)
    tape = ad.Tape()
    for _, t in model.parameters():
        tape.watch(t)
    with tape:
        loss, _, report = model.forward_batch(collate(ds.graphs[:4]))
    grads = tape.backward(loss)
    assert swept == [tape] and entered == [tape]
    assert report.backward is not None and report.backward.converged
    for name, t in model.parameters():
        assert np.any(grads[t] != 0.0), name


@pytest.mark.parametrize("pathway", ["sd", "bd"])
def test_a_training_step_runs_the_circuit_with_a_stash_once(pathway,
                                                            monkeypatch):
    # the recorded value, the adjoint's circuit Jacobian and the parameter
    # cotangents all come from one linearization at z*
    from gdeq import quantum

    run, runs = quantum._run_program, []

    def counting_run(u_rows, program, stash=None):
        runs.append(stash is not None)
        return run(u_rows, program, stash)

    monkeypatch.setattr(quantum, "_run_program", counting_run)
    ds = toy_dataset()
    model = GraphClassifier(small_config(pathway), ds.feature_dim, 2, seed=1)
    tape = ad.Tape()
    for _, t in model.parameters():
        tape.watch(t)
    with tape:
        loss, _, report = model.forward_batch(collate(ds.graphs[:4]))
    assert runs.count(True) == 1 and len(runs) == report.iterations + 1
    tape.backward(loss)
    assert runs.count(True) == 1 and len(runs) == report.iterations + 1
    assert report.backward is not None and report.backward.converged


@pytest.mark.parametrize("pathway", ["classical", "id", "sd", "bd"])
def test_a_finished_step_frees_its_tape_without_the_cycle_collector(pathway):
    # a recorded pullback that held a tracked tensor would tie the tape into
    # a reference cycle, and every step's tape would wait for gc
    ds = toy_dataset()
    model = GraphClassifier(small_config(pathway), ds.feature_dim, 2, seed=1)
    batch = collate(ds.graphs[:4])
    enabled = gc.isenabled()
    gc.disable()
    try:
        tape = ad.Tape()
        for _, t in model.parameters():
            tape.watch(t)
        with tape:
            loss, logits, _ = model.forward_batch(batch)
        tape.backward(loss)
        freed = weakref.ref(tape)
        for _, t in model.parameters():
            ad.Tape().watch(t)
        del tape, loss, logits
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("pathway", ["classical", "sd"])
def test_the_adjoint_solve_runs_after_the_later_records_are_released(
        pathway, monkeypatch):
    # backward pops the readout, head and loss records before it reaches
    # the equilibrium op, so their pullbacks and cotangents are dead while
    # the adjoint solve runs
    from gdeq import solvers

    solve, held = solvers.solve_fixed_point, []

    def counting_solve(f, z0, cfg):
        held.append(len(tape._records))
        return solve(f, z0, cfg)

    monkeypatch.setattr(solvers, "solve_fixed_point", counting_solve)
    ds = toy_dataset()
    model = GraphClassifier(small_config(pathway), ds.feature_dim, 2, seed=1)
    tape = ad.Tape()
    for _, t in model.parameters():
        tape.watch(t)
    with tape:
        loss, _, _ = model.forward_batch(collate(ds.graphs[:4]))
    recorded = len(tape._records)
    tape.backward(loss)
    before_solve, in_adjoint = held
    assert recorded > before_solve + 10  # the op, readout, head and loss
    assert in_adjoint == before_solve and tape._records == []


def reachable_functions(records) -> list:
    """Every recorded pullback and the functions its closure cells hold."""
    found, todo = {}, [fn for _, parents in records for _, fn in parents]
    while todo:
        fn = todo.pop()
        if id(fn) not in found:
            found[id(fn)] = fn
            todo += [c.cell_contents for c in fn.__closure__ or ()
                     if isinstance(c.cell_contents, FunctionType)]
    return list(found.values())


@pytest.mark.parametrize("pathway", ["classical", "sd"])
def test_a_step_is_released_before_the_next_forward_solve(pathway,
                                                          monkeypatch):
    # train_epoch still holds the last step's loss, logits and grads, and
    # through them its tape, while the next batch solves; backward left
    # that tape empty, so no pullback of the step outlives it, gc or not
    from gdeq import solvers

    solve, vjp = solvers.solve_fixed_point, ad.Tape.vjp
    pullbacks, alive, sweeping = [], [], []

    def watching_vjp(self, *args):
        pullbacks[:] = [weakref.ref(f) for f in reachable_functions(
            self._records)]
        sweeping.append(True)
        try:
            return vjp(self, *args)
        finally:
            sweeping.pop()

    def watching_solve(f, z0, cfg):
        if pullbacks and not sweeping:
            alive.append(sum(r() is not None for r in pullbacks))
        return solve(f, z0, cfg)

    monkeypatch.setattr(ad.Tape, "vjp", watching_vjp)
    monkeypatch.setattr(solvers, "solve_fixed_point", watching_solve)
    ds = toy_dataset()
    model = GraphClassifier(small_config(pathway), ds.feature_dim, 2, seed=1)
    opt = AdamW(model.parameters(), lr=1e-3)
    batches = [collate(ds.graphs[:4]), collate(ds.graphs[4:8])]
    enabled = gc.isenabled()
    gc.disable()
    try:
        train_epoch(model, opt, batches, lr=1e-3)
    finally:
        if enabled:
            gc.enable()
    assert len(pullbacks) > 10 and alive == [0]


# ---------------------------------------------------------------------------
# training loop


def trained_epoch():
    """(epoch slice, parameters) after one epoch of a small sd model."""
    ds = toy_dataset()
    model = GraphClassifier(small_config("sd"), ds.feature_dim, 2, seed=2)
    opt = AdamW(model.parameters(), exclude=model.decay_exclusions())
    batches = [collate(ds.graphs[:6]), collate(ds.graphs[6:])]
    stats = train_epoch(model, opt, batches, lr=1e-2, seed=0, epoch=0)
    return stats, {n: t.data.copy() for n, t in model.parameters()}


def test_training_keeps_the_heap_with_both_thresholds_once_per_process(
        monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(training, "_libc",
                        lambda: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(training, "_heap_kept", False)
    with_mallopt = trained_epoch()
    trained_epoch()
    # glibc's M_MMAP_THRESHOLD is parameter -3 and M_TRIM_THRESHOLD -1
    assert calls == [(-3, training.M_MMAP_THRESHOLD),
                     (-1, training.M_TRIM_THRESHOLD)]
    assert (training.M_MMAP_THRESHOLD, training.M_TRIM_THRESHOLD) == (
        32 << 20, 64 << 20)

    monkeypatch.setattr(training, "_libc", lambda: SimpleNamespace())
    monkeypatch.setattr(training, "_heap_kept", False)
    without = trained_epoch()
    assert without[0] == with_mallopt[0]
    for name, value in with_mallopt[1].items():
        assert np.array_equal(without[1][name], value), name


def test_zero_learning_rate_leaves_parameters_unchanged():
    ds = toy_dataset()
    model = GraphClassifier(small_config("sd"), ds.feature_dim, 2, seed=2)
    before = {n: t.data.copy() for n, t in model.parameters()}
    opt = AdamW(model.parameters(), weight_decay=1e-4,
                exclude=model.decay_exclusions())
    batches = [collate(ds.graphs[:6]), collate(ds.graphs[6:])]
    train_epoch(model, opt, batches, lr=0.0, seed=0, epoch=0)
    for n, t in model.parameters():
        assert np.array_equal(t.data, before[n]), n


def test_diverged_batch_is_skipped_with_warning():
    ds = toy_dataset()
    model = GraphClassifier(small_config(), ds.feature_dim, 2, seed=4)
    batches = [collate(ds.graphs[:4]), collate(ds.graphs[4:8])]
    real_forward = model.forward_batch
    calls = []

    def flaky(batch, train=False, dropout_rng=None):
        calls.append(1)
        if len(calls) == 1:
            from gdeq.solvers import SolveReport
            return None, None, SolveReport(False, 7, np.inf, diverged=True)
        return real_forward(batch, train=train, dropout_rng=dropout_rng)

    model.forward_batch = flaky
    before = {n: t.data.copy() for n, t in model.parameters()}
    opt = AdamW(model.parameters(), exclude=model.decay_exclusions())
    with pytest.warns(RuntimeWarning):
        s = train_epoch(model, opt, batches, lr=1e-3, seed=0, epoch=0)
    assert s["skipped"] == 1
    # the surviving batch still stepped the parameters
    assert any(not np.array_equal(t.data, before[n])
               for n, t in model.parameters())


def test_diverged_adjoint_skips_the_batch_with_warning(monkeypatch):
    from gdeq import solvers
    ds = toy_dataset()
    model = GraphClassifier(small_config(), ds.feature_dim, 2, seed=4)
    batches = [collate(ds.graphs[:4]), collate(ds.graphs[4:8])]
    real_solve = solvers.solve_fixed_point
    adjoints = []

    def flaky(f, z0, cfg):
        if cfg is not model.cfg.bwd:
            return real_solve(f, z0, cfg)
        adjoints.append(1)
        if len(adjoints) == 1:
            return solvers.SolveReport(False, 3, np.inf, diverged=True,
                                       z_star=np.full_like(z0, np.nan))
        return real_solve(f, z0, cfg)

    monkeypatch.setattr(solvers, "solve_fixed_point", flaky)
    before = {n: t.data.copy() for n, t in model.parameters()}
    opt = AdamW(model.parameters(), exclude=model.decay_exclusions())
    with pytest.warns(RuntimeWarning, match="adjoint solve diverged"):
        s = train_epoch(model, opt, batches, lr=1e-3, seed=0, epoch=0)
    assert len(adjoints) == 2
    assert s["skipped"] == 1
    assert opt.t == 1
    for n, t in model.parameters():
        assert np.all(np.isfinite(t.data)), n
    assert any(not np.array_equal(t.data, before[n])
               for n, t in model.parameters())


def test_solves_stopped_at_max_iter_are_counted():
    ds = toy_dataset()
    batches = [collate(ds.graphs[:4]), collate(ds.graphs[4:8])]
    for fwd_cap, bwd_cap in ((300, 2), (2, 150)):
        cfg = small_config(fwd=SolverConfig(max_iter=fwd_cap, tol=1e-10),
                           bwd=SolverConfig(max_iter=bwd_cap, tol=1e-9))
        model = GraphClassifier(cfg, ds.feature_dim, 2, seed=4)
        opt = AdamW(model.parameters(), exclude=model.decay_exclusions())
        s = train_epoch(model, opt, batches, lr=1e-3, seed=0, epoch=0)
        assert s["skipped"] == 0
        assert s["fwd_max_iter"] == (2 if fwd_cap == 2 else 0)
        assert s["adj_max_iter"] == (2 if bwd_cap == 2 else 0)


def test_evaluate_leaves_the_model_unchanged():
    ds = toy_dataset()
    model = GraphClassifier(small_config("sd"), ds.feature_dim, 2, seed=5)
    batches = [collate(ds.graphs[:6]), collate(ds.graphs[6:])]
    first = evaluate(model, batches)
    assert evaluate(model, batches) == first


def test_training_forward_leaves_the_next_evaluation_unchanged():
    # the circuit maps' spectral normalization holds no state that a
    # training forward could advance
    ds = toy_dataset()
    model = GraphClassifier(small_config("sd"), ds.feature_dim, 2, seed=5)
    batches = [collate(ds.graphs[:6]), collate(ds.graphs[6:])]
    first = evaluate(model, batches)
    model.forward_batch(batches[0], train=True,
                        dropout_rng=np.random.default_rng(0))
    assert evaluate(model, batches) == first


def test_single_batch_overfit_reaches_full_accuracy(mutag_dir):
    from gdeq.graphs import load_tu_dataset
    ds = load_tu_dataset(mutag_dir, "MUTAG")
    copies = [ds.graphs[0]] * 10
    tiny = GraphDataset(name="MUTAG10", graphs=copies, n_classes=2,
                        feature_dim=ds.feature_dim, l_max=6)
    model = GraphClassifier(small_config(d_hidden=16, mlp_hidden=16),
                            tiny.feature_dim, 2, seed=42)
    opt = AdamW(model.parameters(), lr=1e-4,
                exclude=model.decay_exclusions())
    batch = collate(copies)
    reached = None
    for epoch in range(200):
        s = train_epoch(model, opt, [batch], lr=1e-4, seed=42, epoch=epoch)
        if s["accuracy"] == 1.0:
            reached = epoch
            break
    assert reached is not None
    _, acc, _ = evaluate(model, [batch])
    assert acc == 1.0


def test_metrics_series_lengths_match_epochs():
    ds = toy_dataset()
    tcfg = TrainConfig(lr=1e-3, epochs=3, batch_size=4, folds=2)
    metrics, model = run_training(ds, small_config(), tcfg, seed=0, fold=0)
    assert len(metrics.train_loss) == 3
    assert len(metrics.train_accuracy) == 3
    assert len(metrics.iterations) == 3
    assert metrics.final_iterations == metrics.iterations[-1]
    assert metrics.wall_minutes > 0


def test_rerun_is_bit_identical():
    ds = toy_dataset()
    tcfg = TrainConfig(lr=1e-3, epochs=2, batch_size=4, folds=2)
    a, _ = run_training(ds, small_config("sd"), tcfg, seed=7, fold=1)
    b, _ = run_training(ds, small_config("sd"), tcfg, seed=7, fold=1)
    assert a.train_loss == b.train_loss
    assert a.test_accuracy == b.test_accuracy
    assert a.iterations == b.iterations


def test_cross_validate_counts_runs_and_aggregates():
    ds = toy_dataset()
    tcfg = TrainConfig(lr=1e-3, epochs=2, batch_size=4, folds=2)
    runs, agg = cross_validate(ds, small_config(), tcfg, seeds=[0, 1],
                               workers=3)
    assert_nothing_left_running()
    assert len(runs) == 4
    assert {(r.seed, r.fold) for r in runs} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert agg["variant"] == "classical" and agg["dataset"] == ds.name
    accs = np.array([r.test_accuracy for r in runs])
    assert agg["acc_mean"] == pytest.approx(accs.mean())
    assert agg["acc_std"] == pytest.approx(accs.std(ddof=1))


def test_cross_validate_names_the_run_that_failed():
    ds = replace(toy_dataset(), feature_dim=5)    # encoder shape mismatch
    tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, folds=2)
    with pytest.raises(RuntimeError, match=r"run 0_0 failed: ValueError"):
        cross_validate(ds, small_config(), tcfg, seeds=[0], workers=2)
    assert_nothing_left_running()


def test_run_jobs_returns_results_and_errors_in_job_order():
    jobs = [(4.0,), (-1.0,), (9.0,), (16.0,)]
    assert run_jobs(math.sqrt, jobs, workers=3) == [
        (True, 2.0), (False, "ValueError: math domain error"),
        (True, 3.0), (True, 4.0)]
    assert run_jobs(math.sqrt, [], workers=2) == []
    assert_nothing_left_running()


@pytest.mark.parametrize("workers", [0, -2])
def test_run_jobs_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="at least 1 worker"):
        run_jobs(math.sqrt, [(4.0,)], workers=workers)
    assert_nothing_left_running()


def test_worker_that_exits_without_a_result_fails_its_jobs():
    # worker 0 gets jobs 0 and 3 and dies in job 0; worker 1 exits cleanly
    # in job 1 without writing its result; worker 2 is unaffected
    jobs = [(os._exit, 3), (os._exit, 0), (abs, -1), (abs, -2)]
    assert run_jobs(operator.call, jobs, workers=3) == [
        (False, "worker exited with status 3 without a result"),
        (False, "worker exited with status 0 without a result"),
        (True, 1),
        (False, "worker exited with status 3 without a result")]
    assert_nothing_left_running()


def test_a_worker_that_dies_keeps_the_results_it_finished():
    jobs = [(abs, -1), (os._exit, 3)]
    assert run_jobs(operator.call, jobs, workers=1) == [
        (True, 1), (False, "worker exited with status 3 without a result")]
    assert_nothing_left_running()


def blas_bits_and_gdeq():
    return blas_bits(), gdeq.__file__


def test_workers_compute_on_one_blas_thread_with_this_gdeq():
    # The bits are the guarantee: a worker's dot product is the one of a
    # fresh interpreter told to run OpenBLAS on one thread, and differs
    # from its caller's on two.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    reference = subprocess.run(
        [sys.executable, "-c", "import helpers; print(helpers.blas_bits())"],
        env=env, capture_output=True, text=True, check=True,
        timeout=60).stdout.strip()
    with blas_threads(2):
        parent = blas_bits()
        got = run_jobs(blas_bits_and_gdeq, [()] * 3, workers=2)
    assert parent != reference
    this_gdeq = str(tests.parent / "src" / "gdeq" / "__init__.py")
    assert got == [(True, (reference, this_gdeq))] * 3
    assert_nothing_left_running()


def task_count():
    return len(os.listdir("/proc/self/task"))


def cpu_seconds_while_sleeping(seconds):
    before = resource.getrusage(resource.RUSAGE_SELF)
    time.sleep(seconds)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_a_worker_runs_on_one_os_thread():
    with blas_threads(2):
        assert run_jobs(task_count, [()] * 2, workers=2) == [(True, 1)] * 2
    assert_nothing_left_running()


def test_an_idle_worker_does_not_spin():
    # a helper thread that OpenBLAS starts after the fork busy-waits for
    # about 0.13 s of CPU before it sleeps
    with blas_threads(2):
        [(ok, cpu)] = run_jobs(cpu_seconds_while_sleeping, [(0.3,)], workers=1)
    assert ok and cpu < 0.05
    assert_nothing_left_running()


def test_the_caller_keeps_its_blas_threads_after_run_jobs():
    with blas_threads(2):
        two = blas_bits()
        assert run_jobs(abs, [(-1,), (-2,)], workers=2) == [(True, 1),
                                                           (True, 2)]
        assert blas_bits() == two
    assert_nothing_left_running()


def test_without_a_pinnable_blas_every_job_fails_naming_it(monkeypatch):
    # the program's own symbols hold no OpenBLAS thread setter
    monkeypatch.setattr(training, "_umath_linalg",
                        SimpleNamespace(__file__=None))
    assert run_jobs(abs, [(-1,), (-2,), (-3,)], workers=2) == [
        (False, "RuntimeError: numpy's BLAS exports no OpenBLAS "
                "set_num_threads symbol, so workers cannot pin it to one "
                "thread")] * 3
    assert_nothing_left_running()


def mutag_run(dataset):
    """One default-config MUTAG run, fold 0 of 3 for 1 epoch: its metrics
    without the wall time, and its parameters' bytes."""
    metrics, model = run_training(dataset, ModelConfig(),
                                  TrainConfig(epochs=1, folds=3), 0, 0)
    return (replace(metrics, wall_minutes=0.0),
            {n: t.data.tobytes() for n, t in model.parameters()})


def mutag_evaluation(dataset):
    """A default-config MUTAG model's evaluation of every graph."""
    from gdeq.graphs import make_batches
    model = GraphClassifier(ModelConfig(), dataset.feature_dim,
                            dataset.n_classes)
    everything = np.arange(len(dataset.graphs))
    return evaluate(model, make_batches(dataset, everything, 32))


@pytest.mark.parametrize("job", [mutag_run, mutag_evaluation])
def test_in_process_computes_what_a_worker_computes(mutag_dir, job):
    # at this width a product's bytes depend on the BLAS thread count
    from gdeq.graphs import load_tu_dataset
    ds = load_tu_dataset(mutag_dir, "MUTAG")
    with blas_threads(2):
        here = job(ds)
        [(ok, there)] = run_jobs(job, [(ds,)], workers=1)
    assert ok and here == there
    assert_nothing_left_running()


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def test_training_in_process_does_not_spin_a_blas_helper(mutag_dir):
    from gdeq.graphs import load_tu_dataset, make_batches, stratified_folds
    ds = load_tu_dataset(mutag_dir, "MUTAG")
    train_idx, test_idx = stratified_folds(ds.labels, 3, 0)[0]
    with blas_threads(2):
        model = GraphClassifier(ModelConfig(), ds.feature_dim, ds.n_classes)
        opt = AdamW(model.parameters(), exclude=model.decay_exclusions())
        train = make_batches(ds, train_idx, 32, rng=np.random.default_rng(0))
        test = make_batches(ds, test_idx, 32)
        # OpenBLAS's helper busy-waits for about 0.13 s after its last job
        time.sleep(0.3)
        cpu, wall = cpu_seconds(), time.perf_counter()
        train_epoch(model, opt, train, lr=1e-4)
        evaluate(model, test)
        cpu, wall = cpu_seconds() - cpu, time.perf_counter() - wall
    assert cpu <= 1.25 * wall


def test_training_and_evaluation_give_the_caller_back_its_blas_threads():
    ds = toy_dataset()
    tcfg = TrainConfig(lr=1e-3, epochs=1, batch_size=4, folds=2)
    with blas_threads(2):
        two = blas_bits()
        _, model = run_training(ds, small_config(), tcfg, seed=0, fold=0)
        assert blas_bits() == two
        trained_epoch()
        assert blas_bits() == two
        evaluate(model, [collate(ds.graphs)])
        assert blas_bits() == two
        with pytest.raises(ValueError, match="feature columns"):
            run_training(replace(ds, feature_dim=5), small_config(), tcfg,
                         seed=0, fold=0)
        assert blas_bits() == two


def train_then_idle():
    trained_epoch()
    return task_count(), cpu_seconds_while_sleeping(0.3)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task")
def test_a_worker_that_trains_keeps_one_os_thread_and_does_not_spin():
    with blas_threads(2):
        [(ok, (tasks, cpu))] = run_jobs(train_then_idle, [()], workers=1)
    assert ok and tasks == 1 and cpu < 0.05
    assert_nothing_left_running()


def test_training_runs_at_the_caller_threads_without_a_pinnable_blas(
        monkeypatch):
    pinned = trained_epoch()
    monkeypatch.setattr(training, "_umath_linalg",
                        SimpleNamespace(__file__=None))
    with blas_threads(1):
        unpinned = trained_epoch()
    assert math.isfinite(unpinned[0]["loss"]) and unpinned[0]["skipped"] == 0
    assert unpinned[0] == pinned[0]
    for name, value in pinned[1].items():
        assert np.array_equal(unpinned[1][name], value), name


def test_workers_run_a_closure_that_cannot_be_pickled():
    offset = 10.0

    def shifted(x):
        return x + offset

    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(shifted)
    assert run_jobs(shifted, [(1.0,), (2.0,), (3.0,)], workers=2) == [
        (True, 11.0), (True, 12.0), (True, 13.0)]
    assert_nothing_left_running()


def interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("leave, status", [((sys.exit, 4), 4),
                                           ((interrupt,), 1)])
def test_a_job_that_leaves_its_worker_fails_and_the_caller_carries_on(
        leave, status):
    # worker 0 gets jobs 0 and 2 and leaves in job 0; worker 1 is unaffected
    me = os.getpid()
    lost = (False, f"worker exited with status {status} without a result")
    jobs = [leave, (abs, -1), (abs, -2)]
    assert run_jobs(operator.call, jobs, workers=2) == [lost, (True, 1), lost]
    assert os.getpid() == me
    assert_nothing_left_running()


def test_a_job_that_prints_keeps_its_result_and_its_output():
    # On a pipe stdout is block-buffered: the caller's pending text must
    # reach it once, and the worker's print must not be lost at its exit.
    code = """if True:
        import operator, os
        from gdeq.training import run_jobs
        print("caller", end=" ")
        jobs = [(print, "noise"), (os.write, 1, b"raw noise\\n"), (abs, -3)]
        print(run_jobs(operator.call, jobs, workers=1))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(gdeq.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("caller raw noise\nnoise\n"
                           "[(True, None), (True, 10), (True, 3)]\n")
    assert_nothing_left_running()


def test_aggregate_handles_single_run():
    run = RunMetrics("classical", 0, 0, [0.1], [1.0], [5.0], 0.9, 0.01)
    agg = aggregate_runs([run], "toy")
    assert agg["acc_std"] == 0.0 and agg["iter_mean"] == 5.0
    with pytest.raises(ValueError):
        aggregate_runs([], "toy")


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    ds = toy_dataset()
    model = GraphClassifier(small_config("bd"), ds.feature_dim, 2, seed=5)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, config_hash="abc123")
    arrays, h = load_checkpoint(path)
    assert h == "abc123"
    for name, t in model.parameters():
        assert np.array_equal(arrays[name], t.data), name

    other = GraphClassifier(small_config("bd"), ds.feature_dim, 2, seed=99)
    restore_checkpoint(other, path, expect_hash="abc123")
    for (n1, t1), (_, t2) in zip(model.parameters(), other.parameters()):
        assert np.array_equal(t1.data, t2.data), n1


def test_checkpoint_hash_and_name_mismatches_raise(tmp_path):
    ds = toy_dataset()
    model = GraphClassifier(small_config(), ds.feature_dim, 2, seed=6)
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, config_hash="h1")
    with pytest.raises(ValueError):
        restore_checkpoint(model, path, expect_hash="h2")
    quantum = GraphClassifier(small_config("sd"), ds.feature_dim, 2, seed=6)
    with pytest.raises(ValueError):
        restore_checkpoint(quantum, path)


def test_classical_checkpoint_has_no_quantum_arrays(tmp_path):
    ds = toy_dataset()
    model = GraphClassifier(small_config(), ds.feature_dim, 2, seed=8)
    path = tmp_path / "c.npz"
    save_checkpoint(path, model)
    arrays, _ = load_checkpoint(path)
    assert not any(k.startswith("quantum") for k in arrays)
