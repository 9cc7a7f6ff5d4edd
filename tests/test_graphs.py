"""Loader, normalization, descriptors, folds, and batching contracts."""

import numpy as np
import networkx as nx
import pytest

from gdeq import graphs as gr


def nx_cycle_counts(a: np.ndarray, l_max: int) -> np.ndarray:
    """Independent per-node simple-cycle counts via networkx enumeration."""
    g = nx.from_numpy_array(a)
    counts = np.zeros((a.shape[0], l_max - 2))
    for cyc in nx.simple_cycles(g, length_bound=l_max):
        if len(cyc) >= 3:
            for u in cyc:
                counts[u, len(cyc) - 3] += 1.0
    return counts


def random_adjacency(rng, n, p=0.4) -> np.ndarray:
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    return a + a.T


# --- normalization -------------------------------------------------------------

def test_normalize_single_node():
    assert np.array_equal(gr.normalize_adjacency([[0.0]]), [[1.0]])


def test_normalize_single_edge_is_half_matrix():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(gr.normalize_adjacency(a), 0.5)


def test_normalize_triangle_is_third_matrix():
    a = np.ones((3, 3)) - np.eye(3)
    assert np.allclose(gr.normalize_adjacency(a), 1.0 / 3.0)


def test_normalized_spectral_norm_at_most_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_adjacency(rng, int(rng.integers(2, 12)))
        s = np.linalg.svd(gr.normalize_adjacency(a), compute_uv=False)[0]
        assert s <= 1.0 + 1e-12


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        gr.normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        gr.normalize_adjacency(np.array([[1.0]]))  # self-loop


# --- topology descriptors ------------------------------------------------------

def test_cycle_ring_six():
    a = np.array(nx.to_numpy_array(nx.cycle_graph(6)))
    tau = gr.topology_descriptors(a, l_max=6)
    counts = tau[:, :4]  # lengths 3, 4, 5, 6
    assert np.array_equal(counts[:, :3], np.zeros((6, 3)))
    assert np.array_equal(counts[:, 3], np.ones(6))
    assert np.allclose(tau[:, 4], 1.0)   # all degrees equal max
    assert np.allclose(tau[:, 5], 0.0)   # no triangles
    assert np.allclose(tau[:, 6], 0.0)


def test_cycle_triangle():
    a = np.ones((3, 3)) - np.eye(3)
    tau = gr.topology_descriptors(a, l_max=6)
    assert np.array_equal(tau[:, 0], np.ones(3))      # one 3-cycle each
    assert np.allclose(tau[:, 5], 1.0)                # clustering 1
    assert np.allclose(tau[:, 6], 1.0)                # triangle flag


def test_cycle_counts_match_enumeration_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        a = random_adjacency(rng, n, p=0.5)
        got = gr.simple_cycle_counts(a, l_max=6)
        want = nx_cycle_counts(a, l_max=6)
        assert np.array_equal(got, want)


def test_cycle_counts_complete_four():
    # K4: every node lies on three triangles and all three 4-cycles.
    a = np.ones((4, 4)) - np.eye(4)
    got = gr.simple_cycle_counts(a, l_max=6)
    assert np.array_equal(got, nx_cycle_counts(a, l_max=6))
    assert np.array_equal(got[:, 0], np.full(4, 3.0))
    assert np.array_equal(got[:, 1], np.full(4, 3.0))


def test_descriptors_permutation_equivariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        a = random_adjacency(rng, n, p=0.5)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        a_perm = p @ a @ p.T
        tau = gr.topology_descriptors(a, l_max=6)
        tau_perm = gr.topology_descriptors(a_perm, l_max=6)
        assert np.array_equal(tau_perm, tau[perm])
        assert np.array_equal(gr.normalize_adjacency(a_perm),
                              (p @ gr.normalize_adjacency(a) @ p.T))


def test_descriptors_recomputation_bit_identical():
    rng = np.random.default_rng(3)
    a = random_adjacency(rng, 8, p=0.5)
    assert np.array_equal(gr.topology_descriptors(a), gr.topology_descriptors(a))


def test_descriptor_dim():
    assert gr.descriptor_dim(6) == 7
    assert gr.topology_descriptors(np.zeros((3, 3)), l_max=8).shape == (3, 9)


def test_clustering_coefficient_value():
    # path 0-1-2 plus edge 0-2 and pendant 3 on node 0: cc(0) = 2*1/(3*2)
    a = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (0, 2), (0, 3)]:
        a[i, j] = a[j, i] = 1.0
    tau = gr.topology_descriptors(a)
    assert np.isclose(tau[0, 5], 1.0 / 3.0)
    assert np.isclose(tau[1, 5], 1.0)
    assert tau[3, 5] == 0.0 and tau[3, 6] == 0.0


# --- TU parsing -----------------------------------------------------------------

def test_parse_tiny_fixture(tiny_tu):
    ds = gr.load_tu_dataset(tiny_tu, "TINY")
    assert len(ds) == 2 and ds.n_classes == 2 and ds.feature_dim == 3
    tri, edge = ds.graphs
    assert np.array_equal(tri.adjacency,
                          np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float))
    assert np.array_equal(edge.adjacency, np.array([[0, 1], [1, 0]], dtype=float))
    assert (tri.label, edge.label) == (1, 0)  # labels sorted ascending: -1 -> 0
    assert np.array_equal(tri.features,
                          np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float))
    assert np.array_equal(edge.features,
                          np.array([[0, 1, 0], [0, 0, 1]], dtype=float))
    assert np.allclose(tri.a_norm, 1.0 / 3.0)
    assert tri.tau.shape == (3, 7)


def test_parse_errors(tiny_tu):
    root = tiny_tu / "TINY"
    (root / "TINY_A.txt").write_text("1, 1\n")
    with pytest.raises(ValueError, match="self-loop"):
        gr.load_tu_dataset(tiny_tu, "TINY")
    (root / "TINY_A.txt").write_text("1, 4\n4, 1\n")
    with pytest.raises(ValueError, match="crosses graphs"):
        gr.load_tu_dataset(tiny_tu, "TINY")
    (root / "TINY_A.txt").write_text("1, 2\n2, 1\n")
    (root / "TINY_graph_indicator.txt").write_text("1\n1\n1\n3\n3\n")
    with pytest.raises(ValueError, match="contiguous"):
        gr.load_tu_dataset(tiny_tu, "TINY")


def test_parse_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        gr.load_tu_dataset(tmp_path, "NOPE")


def test_constant_feature_fallback(tmp_path):
    root = tmp_path / "BARE"
    root.mkdir()
    (root / "BARE_A.txt").write_text("1, 2\n2, 1\n")
    (root / "BARE_graph_indicator.txt").write_text("1\n1\n")
    (root / "BARE_graph_labels.txt").write_text("7\n")
    ds = gr.load_tu_dataset(tmp_path, "BARE")
    assert ds.feature_dim == 1
    assert np.array_equal(ds.graphs[0].features, np.ones((2, 1)))
    assert ds.n_classes == 1


def test_mutag_statistics(mutag_dir):
    ds = gr.load_tu_dataset(mutag_dir, "MUTAG")
    assert len(ds) == 188
    assert ds.n_classes == 2
    assert ds.feature_dim == 7
    assert sum(g.n_nodes for g in ds.graphs) == 3371
    assert sum(int(g.adjacency.sum()) for g in ds.graphs) == 7442
    assert int((ds.labels == 1).sum()) == 125  # positive class
    assert all(np.array_equal(g.adjacency, g.adjacency.T) for g in ds.graphs)


def test_mutag_load_deterministic(mutag_dir):
    a = gr.load_tu_dataset(mutag_dir, "MUTAG")
    b = gr.load_tu_dataset(mutag_dir, "MUTAG")
    for ga, gb in zip(a.graphs[:10], b.graphs[:10]):
        assert np.array_equal(ga.a_norm, gb.a_norm)
        assert np.array_equal(ga.tau, gb.tau)


# --- folds ----------------------------------------------------------------------

def test_folds_exact_stratification():
    labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    folds = gr.stratified_folds(labels, k=5, seed=11)
    assert len(folds) == 5
    seen = []
    for train, test in folds:
        assert test.shape[0] == 2
        assert labels[test].tolist().count(0) == 1
        assert labels[test].tolist().count(1) == 1
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(10))
        seen.extend(test.tolist())
    assert sorted(seen) == list(range(10))  # a partition


def test_folds_deterministic_per_seed():
    labels = np.array([0, 1] * 20)
    a = gr.stratified_folds(labels, k=4, seed=42)
    b = gr.stratified_folds(labels, k=4, seed=42)
    c = gr.stratified_folds(labels, k=4, seed=43)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))


def test_folds_class_smaller_than_k_rejected():
    with pytest.raises(ValueError, match="members"):
        gr.stratified_folds(np.array([0, 0, 0, 1]), k=2, seed=0)


# --- batching -------------------------------------------------------------------

def test_batch_blocks_bit_equal_to_singles(tiny_tu):
    ds = gr.load_tu_dataset(tiny_tu, "TINY")
    batch = gr.collate(ds.graphs)
    assert batch.ranges == [(0, 3), (3, 5)]
    blocks = batch.a_norm.blocks
    assert blocks.shape == (2, 3, 3)
    assert np.array_equal(blocks[0], ds.graphs[0].a_norm)
    assert np.array_equal(blocks[1, :2, :2], ds.graphs[1].a_norm)
    assert np.all(blocks[1, 2] == 0.0) and np.all(blocks[1, :, 2] == 0.0)
    assert batch.a_norm.rows.tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(batch.labels, np.array([1, 0]))
    assert np.array_equal(batch.tau[0:3], ds.graphs[0].tau)


def test_make_batches_shuffles_deterministically(tiny_tu):
    ds = gr.load_tu_dataset(tiny_tu, "TINY")
    idx = np.array([0, 1])
    b1 = gr.make_batches(ds, idx, 1, np.random.default_rng(5))
    b2 = gr.make_batches(ds, idx, 1, np.random.default_rng(5))
    assert [b.labels.tolist() for b in b1] == [b.labels.tolist() for b in b2]
    ordered = gr.make_batches(ds, idx, 2, rng=None)
    assert len(ordered) == 1 and ordered[0].n_graphs == 2
