import numpy as np
import pytest

from gdeq import autodiff as ad
from gdeq.autodiff import Tensor
from gdeq.graphs import (GraphDataset, GraphInstance, collate,
                         normalize_adjacency, topology_descriptors)
from gdeq.solvers import SolverConfig
from gdeq.training import (AdamW, AttentionParams, ClassifierParams,
                           GraphClassifier, ModelConfig, RunMetrics,
                           TrainConfig, aggregate_runs, attention_readout,
                           classify, clip_gradients, cosine_lr,
                           cross_validate, dropout_mask, encode, evaluate,
                           load_checkpoint, restore_checkpoint, run_training,
                           save_checkpoint, train_epoch)

from helpers import numeric_grad


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
            return float(ad.sum_all(ad.mul(encode(x, Tensor(ed)),
                                           ad.constant(w))).data[0, 0])

    tape = ad.Tape()
    e = tape.watch(Tensor(e0))
    with tape:
        loss = ad.sum_all(ad.mul(encode(x, e), ad.constant(w)))
    got = tape.backward(loss)[e]
    want = numeric_grad(loss_of, e0)
    assert np.max(np.abs(got - want)) <= 1e-7


# ---------------------------------------------------------------------------
# attention readout


def test_single_node_graph_reduces_to_value_projection():
    rng = np.random.default_rng(3)
    att = AttentionParams.init(8, 2, rng)
    for _, t in att.tensors():
        t.data[...] = rng.normal(size=t.data.shape)
    z = Tensor(rng.normal(size=(1, 8)))
    got = attention_readout(z, [(0, 1)], att).data
    v = z.data @ att.w_v.data.T + att.b_v.data
    want = v @ att.w_o.data.T + att.b_o.data
    assert np.array_equal(got, want)


def test_readout_is_invariant_to_node_order_within_a_graph():
    rng = np.random.default_rng(4)
    att = AttentionParams.init(8, 4, rng)
    z = rng.normal(size=(6, 8))
    base = attention_readout(Tensor(z), [(0, 6)], att).data
    perm = rng.permutation(6)
    swapped = attention_readout(Tensor(z[perm]), [(0, 6)], att).data
    assert np.max(np.abs(base - swapped)) <= 1e-12


def test_batched_readout_matches_per_graph_readout_bitwise():
    rng = np.random.default_rng(5)
    att = AttentionParams.init(8, 2, rng)
    za, zb = rng.normal(size=(4, 8)), rng.normal(size=(3, 8))
    batch = attention_readout(Tensor(np.vstack([za, zb])),
                              [(0, 4), (4, 7)], att).data
    alone_a = attention_readout(Tensor(za), [(0, 4)], att).data
    alone_b = attention_readout(Tensor(zb), [(0, 3)], att).data
    assert np.array_equal(batch[0:1], alone_a)
    assert np.array_equal(batch[1:2], alone_b)


def test_readout_rejects_empty_range():
    att = AttentionParams.init(8, 2, np.random.default_rng(6))
    with pytest.raises(ValueError):
        attention_readout(Tensor(np.zeros((3, 8))), [(2, 2)], att)


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
    with pytest.raises(ValueError):
        ModelConfig(encoder="mlp")
    with pytest.raises(ValueError):
        TrainConfig(folds=1)


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


# ---------------------------------------------------------------------------
# training loop


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


def test_evaluate_leaves_the_model_unchanged():
    ds = toy_dataset()
    model = GraphClassifier(small_config("sd"), ds.feature_dim, 2, seed=5)
    batches = [collate(ds.graphs[:6]), collate(ds.graphs[6:])]
    first = evaluate(model, batches)
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
    runs, agg = cross_validate(ds, small_config(), tcfg,
                               seeds=[0, 1], folds=2, workers=2)
    assert len(runs) == 4
    assert {(r.seed, r.fold) for r in runs} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert agg["runs"] == 4
    accs = np.array([r.test_accuracy for r in runs])
    assert agg["acc_mean"] == pytest.approx(accs.mean())
    assert agg["acc_std"] == pytest.approx(accs.std(ddof=1))


def test_aggregate_handles_single_run():
    run = RunMetrics("classical", 0, 0, [0.1], [1.0], [5.0], 0.9, 5.0, 0.01)
    agg = aggregate_runs([run])
    assert agg["acc_std"] == 0.0
    with pytest.raises(ValueError):
        aggregate_runs([])


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
