"""Loader, normalization, descriptors, folds, and batching contracts."""

import numpy as np
import networkx as nx
import pytest

from gdeq import graphs as gr

from helpers import (reference_load_tu_dataset, reference_simple_cycle_counts,
                     reference_topology_descriptors, write_nci1_shaped)


def cycle_columns(a: np.ndarray, l_max: int) -> np.ndarray:
    """The simple-cycle counts 3..l_max of ``topology_descriptors``."""
    return gr.topology_descriptors(a, l_max)[:, :l_max - 2]


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
        got = cycle_columns(a, l_max=6)
        want = nx_cycle_counts(a, l_max=6)
        assert np.array_equal(got, want)


def test_cycle_counts_complete_four():
    # K4: every node lies on three triangles and all three 4-cycles.
    a = np.ones((4, 4)) - np.eye(4)
    got = cycle_columns(a, l_max=6)
    assert np.array_equal(got, nx_cycle_counts(a, l_max=6))
    assert np.array_equal(got[:, 0], np.full(4, 3.0))
    assert np.array_equal(got[:, 1], np.full(4, 3.0))


def named_graphs():
    """A single node, an edgeless graph, K4-K7 and C3-C8."""
    yield "single", np.zeros((1, 1))
    yield "edgeless", np.zeros((5, 5))
    for n in range(4, 8):
        yield f"K{n}", np.ones((n, n)) - np.eye(n)
    for n in range(3, 9):
        yield f"C{n}", np.array(nx.to_numpy_array(nx.cycle_graph(n)))


@pytest.mark.parametrize("l_max", range(3, 9))
def test_cycle_kernel_matches_the_dfs_on_named_graphs(l_max):
    for name, a in named_graphs():
        got = cycle_columns(a, l_max)
        assert np.array_equal(got, reference_simple_cycle_counts(a, l_max)), name
        assert np.array_equal(gr.topology_descriptors(a, l_max),
                              reference_topology_descriptors(a, l_max)), name


def test_cycle_kernel_matches_the_dfs_on_random_graphs():
    # l_max 7 and 8 stay at n <= 9, where the DFS oracle is still quick
    rng = np.random.default_rng(17)
    for i in range(360):
        l_max = 3 + i % 6
        n = int(rng.integers(1, 13 if l_max <= 6 else 10))
        a = random_adjacency(rng, n, p=float(rng.uniform(0.1, 0.9)))
        assert np.array_equal(cycle_columns(a, l_max),
                              reference_simple_cycle_counts(a, l_max)), (i, n)
        if i % 6 == 3:
            assert np.array_equal(gr.topology_descriptors(a, l_max),
                                  reference_topology_descriptors(a, l_max))


def test_one_cycle_kernel_serves_graphs_and_datasets(monkeypatch, tiny_tu):
    calls = []
    kernel = gr._cycle_counts

    def counted(table, l_max):
        calls.append(table.shape[1])
        return kernel(table, l_max)

    monkeypatch.setattr(gr, "_cycle_counts", counted)
    gr.topology_descriptors(np.ones((3, 3)) - np.eye(3))
    gr.load_tu_dataset(tiny_tu, "TINY")
    assert calls == [3, 5]   # the loader describes all 5 nodes at once


@pytest.mark.parametrize("pass_rows", [1, 2, 3, 7, 1024])
def test_cycle_counts_do_not_depend_on_the_pass_size(monkeypatch, pass_rows):
    # a block-diagonal union of random graphs, as the loader describes a
    # dataset: passes start inside graphs, and each pass's counts must land
    # on its own rows
    rng = np.random.default_rng(40 + pass_rows)
    blocks = [random_adjacency(rng, int(rng.integers(1, 9)),
                               p=float(rng.uniform(0.2, 0.9)))
              for _ in range(6)]
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n))
    at = 0
    for b in blocks:
        a[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    table, _ = gr._neighbour_table(*np.nonzero(a), n)
    monkeypatch.setattr(gr, "_PASS_ROWS", pass_rows)
    got = gr._cycle_counts(table, 7)
    assert np.array_equal(got, reference_simple_cycle_counts(a, 7))
    assert got.sum() > 0


def test_load_is_independent_of_the_pass_size(monkeypatch, mutag_dir):
    whole = gr.load_tu_dataset(mutag_dir, "MUTAG")
    monkeypatch.setattr(gr, "_PASS_ROWS", 97)
    assert_same_dataset(gr.load_tu_dataset(mutag_dir, "MUTAG"), whole)


def test_cycle_kernel_rejects_short_l_max():
    with pytest.raises(ValueError, match="l_max"):
        gr.topology_descriptors(np.zeros((2, 2)), l_max=2)


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


# ids from 0, below 0, beyond the node count, and from 2 up
@pytest.mark.parametrize("ids", ["0 0 1 1 1", "-1 1 1 2 2",
                                 "1 1 1 2 1000000000000", "2 2 2 3 3"])
def test_graph_ids_must_be_contiguous_like_the_oracle(tiny_tu, ids):
    (tiny_tu / "TINY" / "TINY_graph_indicator.txt").write_text(
        ids.replace(" ", "\n"))
    with pytest.raises(ValueError, match="contiguous") as got:
        gr.load_tu_dataset(tiny_tu, "TINY")
    with pytest.raises(ValueError) as want:
        reference_load_tu_dataset(tiny_tu, "TINY")
    assert str(got.value) == str(want.value)


def assert_same_dataset(got, want):
    assert (got.name, got.n_classes, got.feature_dim, got.l_max, len(got)) == \
        (want.name, want.n_classes, want.feature_dim, want.l_max, len(want))
    for k, (g, w) in enumerate(zip(got.graphs, want.graphs)):
        for field in ("adjacency", "features", "a_norm", "tau"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), (k, field)
        assert g.label == w.label, k


@pytest.mark.parametrize("l_max", [3, 6, 8])
def test_mutag_matches_the_oracle_loader(mutag_dir, l_max):
    assert_same_dataset(gr.load_tu_dataset(mutag_dir, "MUTAG", l_max),
                        reference_load_tu_dataset(mutag_dir, "MUTAG", l_max))


def test_tiny_matches_the_oracle_loader(tiny_tu):
    assert_same_dataset(gr.load_tu_dataset(tiny_tu, "TINY"),
                        reference_load_tu_dataset(tiny_tu, "TINY"))


# TINY's triangle 1-2-3 and edge 4-5 written in other ways: one direction,
# repeats, mixed order, and with edges left out
EDGE_LISTS = [
    ("1, 2\n2, 3\n1, 3\n4, 5\n", 8),
    ("3, 1\n5, 4\n3, 2\n2, 1\n", 8),
    ("1, 2\n2, 1\n1, 2\n1, 2\n2, 3\n1, 3\n4, 5\n5, 4\n4, 5\n", 8),
    ("1, 2\n2, 3\n1, 3\n4, 5\n" * 3, 8),
    ("5, 4\n3, 2\n3, 1\n2, 1\n1, 2\n2, 3\n1, 3\n4, 5\n", 8),
    ("4, 5\n", 2),
    ("2, 3\n3, 2\n2, 3\n", 2),
]


@pytest.mark.parametrize("text,entries", EDGE_LISTS)
def test_repeated_and_one_way_edges_load_like_the_oracle(tiny_tu, text,
                                                         entries):
    (tiny_tu / "TINY" / "TINY_A.txt").write_text(text)
    ds = gr.load_tu_dataset(tiny_tu, "TINY")
    assert_same_dataset(ds, reference_load_tu_dataset(tiny_tu, "TINY"))
    for g in ds.graphs:
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}
    assert sum(g.adjacency.sum() for g in ds.graphs) == entries


@pytest.fixture(scope="module")
def nci1_shaped(tmp_path_factory):
    """300 synthetic NCI1-shaped graphs, one of them without edges."""
    return write_nci1_shaped(tmp_path_factory.mktemp("synthetic"), 300, seed=5)


@pytest.mark.parametrize("pass_rows", [97, gr._PASS_ROWS])
def test_nci1_shaped_set_matches_the_oracle_loader(monkeypatch, nci1_shaped,
                                                   pass_rows):
    monkeypatch.setattr(gr, "_PASS_ROWS", pass_rows)
    ds = gr.load_tu_dataset(nci1_shaped, "SYNTH_NCI1")
    assert_same_dataset(ds, reference_load_tu_dataset(nci1_shaped, "SYNTH_NCI1"))
    assert sum(g.n_nodes for g in ds.graphs) > 2 * pass_rows   # several passes
    assert min(g.adjacency.sum() for g in ds.graphs) == 0
    # the file lists every edge in both directions, some lines twice
    lines = (nci1_shaped / "SYNTH_NCI1" / "SYNTH_NCI1_A.txt").read_text().count("\n")
    assert lines > sum(g.adjacency.sum() for g in ds.graphs)


def test_cycle_kernel_matches_the_dfs_on_nci1_shaped_graphs(nci1_shaped):
    ds = gr.load_tu_dataset(nci1_shaped, "SYNTH_NCI1")
    rings = 0
    for k, g in enumerate(ds.graphs):
        table, _ = gr._neighbour_table(*np.nonzero(g.adjacency), g.n_nodes)
        got = gr._cycle_counts(table, 8)
        assert np.array_equal(got, reference_simple_cycle_counts(g.adjacency, 8)), k
        rings += got.sum() > 0
    assert rings > len(ds) // 2


def test_unsorted_indicator_keeps_file_order(tmp_path):
    # graph 1 holds nodes 1, 3, 5 and graph 2 nodes 2, 4, in that order;
    # edges listed once, one of them twice, with blank lines and spacing
    root = tmp_path / "MIX"
    root.mkdir()
    (root / "MIX_A.txt").write_text("1, 3\n\n  5,1 \n3 5\n2, 4\n1, 3\n")
    (root / "MIX_graph_indicator.txt").write_text("1\n2\n1\n2\n1\n")
    (root / "MIX_graph_labels.txt").write_text("0\n1\n")
    (root / "MIX_node_labels.txt").write_text("4\n5\n6\n4\n5\n")
    ds = gr.load_tu_dataset(tmp_path, "MIX")
    assert_same_dataset(ds, reference_load_tu_dataset(tmp_path, "MIX"))
    tri, edge = ds.graphs
    assert np.array_equal(tri.adjacency, np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(tri.features.argmax(axis=1), [0, 2, 1])
    assert np.array_equal(edge.features.argmax(axis=1), [1, 0])


@pytest.mark.parametrize("labels", [True, False])
def test_unsorted_indicator_keeps_the_file_order_of_attributes(tmp_path,
                                                               labels):
    root = tmp_path / "MIX"
    root.mkdir()
    (root / "MIX_A.txt").write_text("1, 3\n5, 1\n3, 5\n2, 4\n")
    (root / "MIX_graph_indicator.txt").write_text("1\n2\n1\n2\n1\n")
    (root / "MIX_graph_labels.txt").write_text("0\n1\n")
    (root / "MIX_node_attributes.txt").write_text(
        "1.5, -2\n2.5, -3\n3.5, -4\n4.5, -5\n5.5, -6\n")
    if labels:
        (root / "MIX_node_labels.txt").write_text("4\n5\n6\n4\n5\n")
    ds = gr.load_tu_dataset(tmp_path, "MIX")
    want = reference_load_tu_dataset(tmp_path, "MIX")
    assert_same_dataset(ds, want)
    for g, w in zip(ds.graphs, want.graphs):
        assert g.features.tobytes() == w.features.tobytes()
    assert ds.graphs[1].features[:, -2:].tolist() == [[2.5, -3], [4.5, -5]]


def test_loader_normalizes_in_one_pass_like_normalize_adjacency(
        monkeypatch, mutag_dir, tiny_tu, tmp_path):
    # graph 2 holds an isolated node and graph 3 is a single node, so some
    # rows of A + I hold only the diagonal
    root = tmp_path / "ISO"
    root.mkdir()
    (root / "ISO_A.txt").write_text("1, 2\n2, 1\n4, 5\n")
    (root / "ISO_graph_indicator.txt").write_text("1\n1\n2\n2\n2\n3\n")
    (root / "ISO_graph_labels.txt").write_text("0\n1\n0\n")
    normalize = gr.normalize_adjacency
    loaded = []
    for data_dir, name in ((mutag_dir, "MUTAG"), (tiny_tu, "TINY"),
                           (tmp_path, "ISO")):
        monkeypatch.setattr(gr, "normalize_adjacency", None)
        loaded.append(gr.load_tu_dataset(data_dir, name))
        monkeypatch.setattr(gr, "normalize_adjacency", normalize)
        assert_same_dataset(loaded[-1], reference_load_tu_dataset(data_dir, name))
    for ds in loaded:
        for g in ds.graphs:
            want = normalize(g.adjacency)
            assert g.a_norm.tobytes() == want.tobytes()
            assert g.a_norm.shape == want.shape
    iso = loaded[-1].graphs
    assert np.allclose(iso[1].a_norm, [[1, 0, 0], [0, .5, .5], [0, .5, .5]])
    assert np.array_equal(iso[2].a_norm, [[1.0]])


A_ERRORS = [
    ("1, 2\n2, 1\n1 2 3\n", r":3: expected 'i, j', got '1 2 3'"),
    ("1, 2\n\n  2\n", r":3: expected 'i, j', got '2'"),
    ("1, 2\n2, x\n", r":2: invalid literal for int\(\) with base 10: 'x'"),
    ("1, 2\n2, 1\n1, 6\n", r":3: node id out of range"),
    ("1, 2\n0, 1\n", r":2: node id out of range"),
    ("1, 2\n\n\n3, 4\n", r":4: edge crosses graphs"),
    ("1, 2\n5, 5\n", r":2: self-loop"),
    ("1, 2\n2, 1\n\n1, 1\n", r":4: self-loop"),
    # two errors: the earlier line wins, whatever its kind
    ("1, 2\n2, 2\n1, 2, 3\n", r":2: self-loop"),
    ("1, 2\n1 2 3\n2, 2\n", r":2: expected 'i, j', got '1 2 3'"),
    ("1, 9\n2, y\n", r":1: node id out of range"),
    ("3, 4\n1, 9\n", r":1: edge crosses graphs"),
    # every line one field too wide; an id beyond int64; '#' is no comment
    ("1, 2, 3\n2, 1, 3\n", r":1: expected 'i, j', got '1, 2, 3'"),
    ("1, 2\n\n99999999999999999999, 1\n", r":3: node id out of range"),
    ("1, 2\n#1, 2\n", r":2: invalid literal for int\(\) with base 10: '#1'"),
]


@pytest.mark.parametrize("text,message", A_ERRORS)
def test_edge_file_errors_name_the_first_bad_line(tiny_tu, text, message):
    (tiny_tu / "TINY" / "TINY_A.txt").write_text(text)
    with pytest.raises(ValueError, match=message) as got:
        gr.load_tu_dataset(tiny_tu, "TINY")
    with pytest.raises(ValueError) as want:
        reference_load_tu_dataset(tiny_tu, "TINY")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fname", ["TINY_graph_indicator.txt",
                                   "TINY_graph_labels.txt"])
def test_two_integer_line_in_a_per_line_file_is_rejected(tiny_tu, fname):
    path = tiny_tu / "TINY" / fname
    path.write_text(path.read_text().replace("1\n", "1 1\n", 1))
    with pytest.raises(ValueError):
        gr.load_tu_dataset(tiny_tu, "TINY")


PER_LINE_ERRORS = [
    ("TINY_graph_indicator.txt", "1\n1\nx\n2\n2\n", 3),
    ("TINY_graph_indicator.txt", "1\n1\n1\n99999999999999999999\n2\n", 4),
    ("TINY_graph_labels.txt", "1\n\n0.5\n", 3),
    ("TINY_graph_labels.txt", "1\n-99999999999999999999\n", 2),
    ("TINY_node_labels.txt", "0\n0\n1 1\n1\n2\n", 3),
    ("TINY_node_attributes.txt", "1.0\n2.0\nx\n4.0\n5.0\n", 3),
    ("TINY_node_attributes.txt", "1, 2\n3, 4\n5\n6, 7\n8, 9\n", 3),   # ragged
]


@pytest.mark.parametrize("fname,text,line", PER_LINE_ERRORS)
def test_a_bad_line_in_a_per_line_file_is_named(tiny_tu, fname, text, line):
    path = tiny_tu / "TINY" / fname
    path.write_text(text)
    with pytest.raises(ValueError) as got:
        gr.load_tu_dataset(tiny_tu, "TINY")
    assert str(got.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("fname,text", [
    ("TINY_A.txt", ""),
    ("TINY_A.txt", "\n  \n\t\n"),
    # fields int() takes and numpy's parser does not: these files go
    # through the line pass
    ("TINY_A.txt", "1\t2\n 2  1\n\n  \n1,3\n3, 1\n4 ,5\n5\t,\t4\n"),
    ("TINY_graph_indicator.txt", "1\n1\n0_1\n\u0662\n2\n"),
    ("TINY_graph_labels.txt", "1_0\n-1\n"),
    ("TINY_node_labels.txt", "0\n \n0\n1\n1_0\n\u0662\n"),
])
def test_files_numpy_rejects_load_like_the_oracle(tiny_tu, fname, text):
    (tiny_tu / "TINY" / fname).write_text(text)
    assert_same_dataset(gr.load_tu_dataset(tiny_tu, "TINY"),
                        reference_load_tu_dataset(tiny_tu, "TINY"))


@pytest.mark.parametrize("attributes", [
    "1.5, -2e-3\n-0.25,3E+2\n1e-310, -7\n4.0, 5\n-1.25e1, .1\n",
    "1.5, -2e-3\n-0.25 3E+2\n1e-310, -7\n4.0, 5\n-1.25e1, .1\n",
])
def test_node_attributes_load_like_the_oracle(tiny_tu, attributes):
    (tiny_tu / "TINY" / "TINY_node_attributes.txt").write_text(attributes)
    got = gr.load_tu_dataset(tiny_tu, "TINY")
    want = reference_load_tu_dataset(tiny_tu, "TINY")
    assert_same_dataset(got, want)
    assert got.feature_dim == 5
    for g, w in zip(got.graphs, want.graphs):
        assert g.features.tobytes() == w.features.tobytes()
    assert got.graphs[0].features[1, 3:].tolist() == [-0.25, 300.0]


@pytest.mark.parametrize("fname", ["TINY_A.txt", "TINY_graph_indicator.txt",
                                   "TINY_graph_labels.txt"])
def test_missing_required_file_is_reported(tiny_tu, fname):
    (tiny_tu / "TINY" / fname).unlink()
    with pytest.raises(FileNotFoundError, match=fname):
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
    assert batch.a_norm.sizes == (3, 2)
    blocks = batch.a_norm.blocks
    assert blocks.shape == (2, 3, 3)
    assert np.array_equal(blocks[0], ds.graphs[0].a_norm)
    assert np.array_equal(blocks[1, :2, :2], ds.graphs[1].a_norm)
    assert np.all(blocks[1, 2] == 0.0) and np.all(blocks[1, :, 2] == 0.0)
    assert batch.a_norm.rows.tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(batch.labels, np.array([1, 0]))
    assert np.array_equal(batch.tau[0:3], ds.graphs[0].tau)


def slot_rows(sizes) -> np.ndarray:
    """Each stacked row's slot in the flattened (B, n_max) grid: graph b's
    rows fill slots b * n_max onward."""
    n_max = max(sizes)
    return np.concatenate([b * n_max + np.arange(n) for b, n in enumerate(sizes)])


@pytest.mark.parametrize("sizes", [(1, 3, 9, 17, 28), (4, 4), (6,), (1,)])
def test_block_layout_pads_and_unpads_rows(sizes):
    rng = np.random.default_rng(len(sizes))
    layout = gr.BlockAdjacency.stack([rng.normal(size=(n, n)) for n in sizes])
    z = rng.normal(size=(sum(sizes), 3))
    padded = layout.pad(z)
    assert padded.shape == (len(sizes), max(sizes), 3)
    assert np.array_equal(layout.unpad(padded), z)
    assert layout.valid.sum(axis=1).tolist() == list(sizes)
    assert not padded[~layout.valid].any()
    assert (layout.rows is None) == (min(sizes) == max(sizes))
    rows = np.arange(sum(sizes)) if layout.rows is None else layout.rows
    assert np.array_equal(rows, slot_rows(sizes))

    copies = layout.repeat(3)
    assert copies.sizes == tuple(sizes) * 3
    z3 = rng.normal(size=(3 * sum(sizes), 3))
    assert np.array_equal(copies.unpad(copies.pad(z3)), z3)
    each = [layout.matmul(c) for c in np.split(z3, 3)]
    assert np.array_equal(copies.matmul(z3), np.concatenate(each))


def test_block_layout_rejects_an_empty_graph():
    with pytest.raises(ValueError, match="row"):
        gr.BlockAdjacency.stack([np.ones((1, 1)), np.zeros((0, 0))])


def test_make_batches_shuffles_deterministically(tiny_tu):
    ds = gr.load_tu_dataset(tiny_tu, "TINY")
    idx = np.array([0, 1])
    b1 = gr.make_batches(ds, idx, 1, np.random.default_rng(5))
    b2 = gr.make_batches(ds, idx, 1, np.random.default_rng(5))
    assert [b.labels.tolist() for b in b1] == [b.labels.tolist() for b in b2]
    ordered = gr.make_batches(ds, idx, 2, rng=None)
    assert len(ordered) == 1 and ordered[0].n_graphs == 2
