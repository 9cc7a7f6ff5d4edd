"""Graph loading, normalization, topology descriptors, folds, batching.

Datasets use the TU flat-file layout: ``<name>_A.txt`` (1-indexed
"i, j" pairs, both directions listed), ``<name>_graph_indicator.txt``
(node -> graph id), ``<name>_graph_labels.txt``, and optionally
``<name>_node_labels.txt`` / ``<name>_node_attributes.txt``.  All files
are read from a local directory; nothing is ever fetched.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_L_MAX = 6


@dataclass
class GraphInstance:
    """One undirected graph with everything the model consumes."""

    adjacency: np.ndarray      # (n, n) symmetric 0/1, zero diagonal
    features: np.ndarray      # (n, f) node features
    label: int                # class index in [0, n_classes)
    a_norm: np.ndarray        # D^-1/2 (A + I) D^-1/2
    tau: np.ndarray           # (n, d_tau) topology descriptors

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


@dataclass
class GraphDataset:
    name: str
    graphs: list
    n_classes: int
    feature_dim: int
    l_max: int

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=np.int64)


def padded_layout(sizes) -> tuple[int, np.ndarray | None]:
    """(n_max, rows) for per-graph blocks of ``sizes`` rows padded to the largest.

    ``rows`` maps every row of the stacked (sum(sizes), d) layout to its row
    in the padded (len(sizes) * n_max, d) layout, and is ``None`` when every
    block is full, so that the two layouts coincide.
    """
    n_max = max(sizes)
    if min(sizes) == n_max:
        return n_max, None
    return n_max, np.concatenate([b * n_max + np.arange(n)
                                  for b, n in enumerate(sizes)])


class BlockAdjacency:
    """A block-diagonal matrix kept as one zero-padded block per graph.

    ``blocks`` is (B, n_max, n_max) and ``rows`` is the row map of
    :func:`padded_layout` (``None`` when no block is padded).  Products
    never form the N x N matrix.
    """

    __slots__ = ("blocks", "rows")

    def __init__(self, blocks: np.ndarray, rows: np.ndarray | None = None):
        self.blocks = blocks
        self.rows = rows

    @classmethod
    def stack(cls, mats: list) -> "BlockAdjacency":
        """block_diag(*mats), padded to the largest block."""
        sizes = [m.shape[0] for m in mats]
        n_max, rows = padded_layout(sizes)
        blocks = np.zeros((len(mats), n_max, n_max))
        for b, (m, n) in enumerate(zip(mats, sizes)):
            blocks[b, :n, :n] = m
        return cls(blocks, rows)

    def repeat(self, k: int) -> "BlockAdjacency":
        """block_diag(M, ..., M) with k copies of this matrix M, copy-major.

        The row map is offset per copy.  The copies are contiguous, so the
        first c of them are ``head(c * N)`` for an N-row M.
        """
        blocks = np.tile(self.blocks, (k, 1, 1))
        if self.rows is None:
            return BlockAdjacency(blocks)
        stride = self.blocks.shape[0] * self.blocks.shape[1]
        return BlockAdjacency(
            blocks, (stride * np.arange(k)[:, None] + self.rows).ravel())

    def head(self, n_rows: int) -> "BlockAdjacency":
        """The leading blocks that hold the first ``n_rows`` rows; those rows
        must end where a block ends."""
        n_max = self.blocks.shape[1]
        if self.rows is None:
            return BlockAdjacency(self.blocks[:n_rows // n_max])
        rows = self.rows[:n_rows]
        return BlockAdjacency(self.blocks[:rows[-1] // n_max + 1], rows)

    def _product(self, blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
        b, n_max = blocks.shape[:2]
        if self.rows is None:
            if z.shape[0] != b * n_max:
                raise ValueError(f"expected {b * n_max} rows, got {z.shape[0]}")
            if b == 1:  # one dense matrix: skip the batched-matmul set-up
                return blocks[0] @ z
            return (blocks @ z.reshape(b, n_max, -1)).reshape(z.shape)
        padded = np.zeros((b * n_max, z.shape[1]))
        padded[self.rows] = z
        out = blocks @ padded.reshape(b, n_max, -1)
        return np.take(out.reshape(b * n_max, -1), self.rows, axis=0)

    def matmul(self, z: np.ndarray) -> np.ndarray:
        """A @ z for a stacked (N, d) array ``z``."""
        return self._product(self.blocks, z)

    def rmatmul(self, g: np.ndarray) -> np.ndarray:
        """Aᵀ @ g, block by block."""
        return self._product(self.blocks.transpose(0, 2, 1), g)


@dataclass
class Batch:
    """Several graphs stacked into one block-diagonal problem."""

    a_norm: BlockAdjacency
    features: np.ndarray
    tau: np.ndarray
    ranges: list            # [(row0, row1)] per graph
    labels: np.ndarray

    @property
    def n_graphs(self) -> int:
        return len(self.ranges)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]


def _check_adjacency(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    if np.any(np.diag(a) != 0):
        raise ValueError("self-loops are not allowed")
    return a


def normalize_adjacency(a) -> np.ndarray:
    """Symmetric normalization of A + I; spectral norm is at most 1."""
    a = _check_adjacency(a)
    ah = a + np.eye(a.shape[0])
    dinv = 1.0 / np.sqrt(ah.sum(axis=1))  # >= 1 thanks to the added identity
    return dinv[:, None] * ah * dinv[None, :]


def simple_cycle_counts(a, l_max: int = DEFAULT_L_MAX) -> np.ndarray:
    """Per-node counts of simple cycles of each length 3..l_max.

    Canonical DFS enumeration: a cycle is discovered exactly once, from
    its smallest vertex, walking toward its smaller second vertex.  The
    result is a function of the adjacency alone, so node relabeling
    permutes rows and nothing else.
    """
    a = _check_adjacency(a)
    n = a.shape[0]
    if l_max < 3:
        raise ValueError("l_max must be at least 3")
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


def topology_descriptors(a, l_max: int = DEFAULT_L_MAX) -> np.ndarray:
    """Per-node [cycle counts 3..l_max, degree / max degree,
    clustering coefficient, triangle-membership flag]."""
    a = _check_adjacency(a)
    cycles = simple_cycle_counts(a, l_max)
    deg = a.sum(axis=1)
    max_deg = deg.max() if deg.size else 0.0
    deg_norm = deg / max_deg if max_deg > 0 else np.zeros_like(deg)
    tri = np.diag(np.linalg.matrix_power(a, 3)) / 2.0
    denom = deg * (deg - 1.0)
    cc = np.divide(2.0 * tri, denom, out=np.zeros_like(denom), where=denom > 0)
    flag = (tri > 0).astype(np.float64)
    return np.column_stack([cycles, deg_norm, cc, flag])


def descriptor_dim(l_max: int = DEFAULT_L_MAX) -> int:
    return (l_max - 2) + 3


# ---------------------------------------------------------------------------
# TU flat files


def _read_lines(path: Path) -> list:
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    return [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]


def load_tu_dataset(data_dir, name: str, l_max: int = DEFAULT_L_MAX) -> GraphDataset:
    """Parse a TU-format directory into a :class:`GraphDataset`."""
    root = Path(data_dir) / name
    if not root.is_dir():
        root = Path(data_dir)

    def fpath(suffix: str) -> Path:
        return root / f"{name}_{suffix}.txt"

    indicator = np.array([int(x) for x in _read_lines(fpath("graph_indicator"))])
    graph_labels_raw = [int(x) for x in _read_lines(fpath("graph_labels"))]
    n_nodes_total = indicator.shape[0]
    n_graphs = len(graph_labels_raw)

    ids = np.unique(indicator)
    if not np.array_equal(ids, np.arange(1, n_graphs + 1)):
        raise ValueError(
            f"{fpath('graph_indicator')}: graph ids must be 1..{n_graphs} contiguous")

    # map global node id (1-indexed by line order) -> (graph, local index)
    local_index = np.zeros(n_nodes_total, dtype=np.int64)
    sizes = np.zeros(n_graphs, dtype=np.int64)
    for node, gid in enumerate(indicator):
        local_index[node] = sizes[gid - 1]
        sizes[gid - 1] += 1
    if np.any(sizes == 0):
        raise ValueError(f"{fpath('graph_indicator')}: empty graph present")

    adjacency = [np.zeros((s, s)) for s in sizes]
    for lineno, line in enumerate(_read_lines(fpath("A")), start=1):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{fpath('A')}:{lineno}: expected 'i, j', got {line!r}")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        if not (0 <= i < n_nodes_total and 0 <= j < n_nodes_total):
            raise ValueError(f"{fpath('A')}:{lineno}: node id out of range")
        if indicator[i] != indicator[j]:
            raise ValueError(f"{fpath('A')}:{lineno}: edge crosses graphs")
        if i == j:
            raise ValueError(f"{fpath('A')}:{lineno}: self-loop")
        g = indicator[i] - 1
        adjacency[g][local_index[i], local_index[j]] = 1.0
        adjacency[g][local_index[j], local_index[i]] = 1.0

    # node features: one-hot labels, then numeric attributes, else constant 1
    blocks = []
    label_path = fpath("node_labels")
    if label_path.is_file():
        raw = np.array([int(x) for x in _read_lines(label_path)])
        if raw.shape[0] != n_nodes_total:
            raise ValueError(f"{label_path}: expected {n_nodes_total} lines")
        vocab = np.unique(raw)
        onehot = np.zeros((n_nodes_total, vocab.shape[0]))
        onehot[np.arange(n_nodes_total), np.searchsorted(vocab, raw)] = 1.0
        blocks.append(onehot)
    attr_path = fpath("node_attributes")
    if attr_path.is_file():
        rows = [[float(x) for x in ln.replace(",", " ").split()]
                for ln in _read_lines(attr_path)]
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
        node_mask = indicator == g + 1
        feats = features_all[node_mask]
        a = adjacency[g]
        graphs.append(GraphInstance(
            adjacency=a,
            features=feats,
            label=class_index[graph_labels_raw[g]],
            a_norm=normalize_adjacency(a),
            tau=topology_descriptors(a, l_max),
        ))
    return GraphDataset(name=name, graphs=graphs, n_classes=len(classes),
                        feature_dim=features_all.shape[1], l_max=l_max)


# ---------------------------------------------------------------------------
# folds and batches


def stratified_folds(labels, k: int, seed: int) -> list:
    """Deterministic k test folds preserving class proportions.

    Per class, indices are shuffled by a seed-derived generator and dealt
    round-robin; folds come back as (train, test) index arrays sorted
    ascending.  Every class must have at least k members.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    members: dict[int, np.ndarray] = {}
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.shape[0] < k:
            raise ValueError(f"class {c} has {idx.shape[0]} members < {k} folds")
        members[c] = rng.permutation(idx)
    fold_sets: list[list] = [[] for _ in range(k)]
    for c in sorted(members):
        for pos, g in enumerate(members[c]):
            fold_sets[pos % k].append(int(g))
    out = []
    everything = set(range(labels.shape[0]))
    for f in range(k):
        test = np.array(sorted(fold_sets[f]), dtype=np.int64)
        train = np.array(sorted(everything - set(fold_sets[f])), dtype=np.int64)
        out.append((train, test))
    return out


def collate(graphs: list) -> Batch:
    """Stack graphs into one block-diagonal batch."""
    if not graphs:
        raise ValueError("cannot collate an empty batch")
    ranges = []
    row = 0
    for g in graphs:
        ranges.append((row, row + g.n_nodes))
        row += g.n_nodes
    return Batch(
        a_norm=BlockAdjacency.stack([g.a_norm for g in graphs]),
        features=np.concatenate([g.features for g in graphs], axis=0),
        tau=np.concatenate([g.tau for g in graphs], axis=0),
        ranges=ranges,
        labels=np.array([g.label for g in graphs], dtype=np.int64),
    )


def make_batches(dataset: GraphDataset, indices, batch_size: int,
                 rng: np.random.Generator | None = None) -> list:
    """Chunk ``indices`` into block-diagonal batches, shuffling when given a rng."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    idx = np.asarray(indices, dtype=np.int64)
    if rng is not None:
        idx = rng.permutation(idx)
    return [collate([dataset.graphs[i] for i in idx[st:st + batch_size]])
            for st in range(0, idx.shape[0], batch_size)]
