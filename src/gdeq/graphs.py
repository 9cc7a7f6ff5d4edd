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


class BlockAdjacency:
    """A block-diagonal matrix kept as one zero-padded block per graph.

    This class alone knows the padded layout of a batch: graph b's
    ``sizes[b]`` rows lead slot b of a (B, n_max) grid, with n_max the
    largest graph.  ``blocks`` is (B, n_max, n_max), ``valid`` masks the
    real slots, and ``rows`` maps each row of the stacked (sum(sizes), d)
    layout to its slot in the flattened grid; it is ``None`` when no block
    is padded, so that the two layouts coincide.  Products never form the
    N x N matrix.
    """

    __slots__ = ("blocks", "sizes", "rows", "_valid")

    def __init__(self, blocks: np.ndarray, sizes=None):
        """``sizes`` holds each block's row count; every block is full when
        it is omitted."""
        b, n_max = blocks.shape[:2]
        self.blocks = blocks
        self.sizes = (n_max,) * b if sizes is None else tuple(sizes)
        self.rows = self._valid = None
        if sizes is not None and min(self.sizes) < n_max:
            self._valid = np.arange(n_max) < np.array(self.sizes)[:, None]
            self.rows = np.flatnonzero(self._valid)

    @classmethod
    def stack(cls, mats: list) -> "BlockAdjacency":
        """block_diag(*mats), padded to the largest block."""
        sizes = [m.shape[0] for m in mats]
        if min(sizes) < 1:
            raise ValueError("every block needs at least one row")
        blocks = np.zeros((len(mats), max(sizes), max(sizes)))
        for b, (m, n) in enumerate(zip(mats, sizes)):
            blocks[b, :n, :n] = m
        return cls(blocks, sizes)

    @property
    def valid(self) -> np.ndarray:
        """(B, n_max) mask of the slots that hold a real row."""
        if self._valid is None:
            self._valid = np.ones(self.blocks.shape[:2], dtype=bool)
        return self._valid

    def repeat(self, k: int) -> "BlockAdjacency":
        """block_diag(M, ..., M) with k copies of this matrix M, copy-major."""
        return BlockAdjacency(np.tile(self.blocks, (k, 1, 1)), self.sizes * k)

    def pad(self, z: np.ndarray) -> np.ndarray:
        """The stacked (N, d) rows ``z`` as (B, n_max, d), zero where padded."""
        b, n_max = self.blocks.shape[:2]
        n = b * n_max if self.rows is None else self.rows.size
        if z.shape[0] != n:
            raise ValueError(f"expected {n} rows, got {z.shape[0]}")
        if self.rows is None:
            return z.reshape(b, n_max, -1)
        padded = np.zeros((b * n_max, z.shape[1]))
        padded[self.rows] = z
        return padded.reshape(b, n_max, -1)

    def unpad(self, p: np.ndarray) -> np.ndarray:
        """The real rows of a (B, n_max, d) array ``p``, stacked as (N, d)."""
        flat = p.reshape(-1, p.shape[-1])
        return flat if self.rows is None else np.take(flat, self.rows, axis=0)

    def _product(self, blocks: np.ndarray, z: np.ndarray) -> np.ndarray:
        padded = self.pad(z)
        if self.rows is None and padded.shape[0] == 1:
            return blocks[0] @ z   # one dense matrix: skip the batched set-up
        return self.unpad(blocks @ padded)

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
    labels: np.ndarray

    @property
    def n_graphs(self) -> int:
        return len(self.labels)


def _check_adjacency(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if not (a == a.T).all():
        raise ValueError("adjacency must be symmetric (undirected graph)")
    if a.diagonal().any():
        raise ValueError("self-loops are not allowed")
    return a


def normalize_adjacency(a) -> np.ndarray:
    """Symmetric normalization of A + I; spectral norm is at most 1."""
    a = _check_adjacency(a)
    ah = a + np.eye(a.shape[0])
    dinv = 1.0 / np.sqrt(ah.sum(axis=1))  # >= 1 thanks to the added identity
    return dinv[:, None] * ah * dinv[None, :]


def _neighbour_table(src: np.ndarray, dst: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, degrees) of the n-node graph with directed edges ``src ->
    dst``, both directions listed and sorted by ``src``: row v of the
    (n, max degree) table holds v's neighbours, padded with -1."""
    deg = np.bincount(src, minlength=n)
    table = np.full((n, deg.max(initial=0)), -1, dtype=np.intp)
    table[src, np.arange(src.size) - (np.cumsum(deg) - deg)[src]] = dst
    return table, deg


# Lines parsed, or start vertices grown, per array pass: bounds a pass's
# transient memory on large datasets.
_PASS_ROWS = 1024


def _cycle_counts(table: np.ndarray, l_max: int) -> np.ndarray:
    """Per-node counts of simple cycles of each length 3..l_max in the graph
    with neighbour table ``table`` (see :func:`_neighbour_table`).

    Exact canonical enumeration: a cycle is found once, as the path that
    starts at its smallest vertex, grows only through larger unvisited
    vertices, and closes back to the start when its second vertex is
    smaller than its last.  All such paths of one length form a frontier
    array, grown a level at a time for every start vertex at once.
    """
    if l_max < 3:
        raise ValueError("l_max must be at least 3")
    n = table.shape[0]
    counts = np.zeros((n, l_max - 2))
    for lo in range(0, n, _PASS_ROWS):
        paths = np.arange(lo, min(lo + _PASS_ROWS, n))[:, None]
        for length in range(1, l_max + 1):
            if not paths.size:
                break
            nxt = table[paths[:, -1]]
            start = paths[:, :1]
            if length >= 3:
                closes = (nxt == start).any(axis=1) & (paths[:, 1] < paths[:, -1])
                counts[:, length - 3] += np.bincount(paths[closes].ravel(),
                                                     minlength=n)
            if length == l_max:
                break
            # the padding is below every start; no row lists its own vertex
            grow = nxt > start
            for col in paths.T[1:-1]:
                grow &= nxt != col[:, None]
            paths = np.concatenate((paths[grow.nonzero()[0]], nxt[grow][:, None]),
                                   axis=1)
    return counts


def _descriptors(table: np.ndarray, deg: np.ndarray, sizes,
                 l_max: int) -> np.ndarray:
    """:func:`topology_descriptors` of graphs stored as consecutive node
    ranges of ``sizes`` rows in one neighbour table, with degrees ``deg``."""
    k = l_max - 2
    out = np.zeros((table.shape[0], k + 3))
    cycles = out[:, :k]
    cycles[:] = _cycle_counts(table, l_max)
    if not deg.size:
        return out
    deg = deg.astype(np.float64)
    max_deg = np.repeat(np.maximum.reduceat(deg, np.cumsum(sizes) - sizes), sizes)
    np.divide(deg, max_deg, out=out[:, k], where=max_deg > 0)
    tri = cycles[:, 0]      # triangles through each node
    denom = deg * (deg - 1.0)
    np.divide(2.0 * tri, denom, out=out[:, k + 1], where=denom > 0)
    out[:, k + 2] = tri > 0
    return out


def topology_descriptors(a, l_max: int = DEFAULT_L_MAX) -> np.ndarray:
    """Per-node [cycle counts 3..l_max, degree / max degree,
    clustering coefficient, triangle-membership flag] of the graph whose
    edges are the nonzero entries of ``a``."""
    a = _check_adjacency(a)
    n = a.shape[0]
    return _descriptors(*_neighbour_table(*np.nonzero(a), n), [n], l_max)


def descriptor_dim(l_max: int = DEFAULT_L_MAX) -> int:
    return (l_max - 2) + 3


# ---------------------------------------------------------------------------
# TU flat files


def _read_lines(path: Path) -> list:
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    return list(filter(None, map(str.strip, path.read_text().splitlines())))


def _file_line(path: Path, k: int) -> int:
    """Line number of the k-th nonblank line of ``path``, both from 1;
    only error messages read it, as ``_read_lines`` drops blank lines."""
    lines = path.read_text().splitlines()
    return [n for n, ln in enumerate(lines, 1) if ln.strip()][k - 1]


def _edge_lines(path: Path) -> tuple[np.ndarray, Exception | None]:
    """The "i, j" lines of ``path`` as an (m, 2) int array, up to the first
    line that is not two integers; with that line's error, else ``None``.

    Values outside [0, 2**62] are clipped into it, which keeps them out of
    range of any node id.
    """
    lines = _read_lines(path)
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, len(lines), _PASS_ROWS):
        part = lines[lo:lo + _PASS_ROWS]
        # one split of the whole block; the NUL marker between lines must
        # land on every third field, or some line is not two fields
        fields = " \0 ".join(part).replace(",", " ").split()
        if not (len(fields) == 3 * len(part) - 1 and
                fields.count("\0") == fields[2::3].count("\0") == len(part) - 1):
            break
        try:
            blocks.append(np.array([list(map(int, fields[0::3])),
                                    list(map(int, fields[1::3]))], dtype=np.int64).T)
        except (ValueError, OverflowError):
            break
    else:
        return np.concatenate(blocks), None
    # this block holds a bad line or a huge id: parse it line by line
    pairs, error = [], None
    for k, line in enumerate(lines[lo:], start=lo + 1):
        parts = line.replace(",", " ").split()
        try:
            if len(parts) != 2:
                raise ValueError(f"expected 'i, j', got {line!r}")
            pairs.append([min(max(int(p), 0), 2**62) for p in parts])
        except ValueError as err:
            error = ValueError(f"{path}:{_file_line(path, k)}: {err}")
            break
    blocks.append(np.array(pairs, dtype=np.int64).reshape(-1, 2))
    return np.concatenate(blocks), error


def _check_edges(path: Path, pairs: np.ndarray, graph: np.ndarray) -> None:
    """Raise a ValueError naming the first line of ``pairs`` (1-indexed
    node ids) with an id out of range, an edge across graphs or a
    self-loop; ``graph`` is each node's graph."""
    i, j = pairs[:, 0] - 1, pairs[:, 1] - 1
    n = graph.shape[0]
    in_range = (0 <= i) & (i < n) & (0 <= j) & (j < n)
    crosses = in_range & (graph[np.where(in_range, i, 0)]
                          != graph[np.where(in_range, j, 0)])
    bad = ~in_range | crosses | (i == j)
    if bad.any():
        k = int(np.argmax(bad))
        reason = ("node id out of range" if not in_range[k]
                  else "edge crosses graphs" if crosses[k] else "self-loop")
        raise ValueError(f"{path}:{_file_line(path, k + 1)}: {reason}")


def load_tu_dataset(data_dir, name: str, l_max: int = DEFAULT_L_MAX) -> GraphDataset:
    """Parse a TU-format directory into a :class:`GraphDataset`.

    Nodes keep their file order within each graph.  All graphs are parsed,
    built, normalized and described in whole-array passes over the dataset.
    """
    root = Path(data_dir) / name
    if not root.is_dir():
        root = Path(data_dir)

    def fpath(suffix: str) -> Path:
        return root / f"{name}_{suffix}.txt"

    indicator = np.array(list(map(int, _read_lines(fpath("graph_indicator")))))
    graph_labels_raw = list(map(int, _read_lines(fpath("graph_labels"))))
    n_nodes_total = indicator.shape[0]
    n_graphs = len(graph_labels_raw)

    ids = np.unique(indicator)
    if not np.array_equal(ids, np.arange(1, n_graphs + 1)):
        raise ValueError(
            f"{fpath('graph_indicator')}: graph ids must be 1..{n_graphs} contiguous")

    # node (0-indexed file line) -> its row in the graph-major layout, in
    # which graph g holds rows starts[g]:starts[g] + sizes[g] in file order
    graph = indicator.astype(np.intp) - 1
    sizes = np.bincount(graph, minlength=n_graphs)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(graph, kind="stable")
    row = np.empty(n_nodes_total, dtype=np.intp)
    row[order] = np.arange(n_nodes_total)

    pairs, error = _edge_lines(fpath("A"))
    _check_edges(fpath("A"), pairs, graph)
    if error is not None:
        raise error
    src, dst = row[pairs[:, 0] - 1], row[pairs[:, 1] - 1]
    edges = np.unique(np.concatenate([src * n_nodes_total + dst,
                                      dst * n_nodes_total + src]))
    src, dst = np.divmod(edges, n_nodes_total)

    # every graph's adjacency, and its normalization, is a view of one
    # buffer of its blocks; entry (i, j) of i's graph sits at offset(i, j)
    areas = sizes * sizes
    block_at = np.cumsum(areas) - areas
    node_graph = np.repeat(np.arange(n_graphs), sizes)

    def offset(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        g = node_graph[i]
        return block_at[g] + (i - starts[g]) * sizes[g] + j - starts[g]

    edge_at = offset(src, dst)
    flat = np.zeros(areas.sum())
    flat[edge_at] = 1.0
    table, deg = _neighbour_table(src, dst, n_nodes_total)
    # normalize_adjacency entrywise: A + I holds 0s and 1s and its row sums
    # deg + 1 are exact, so dinv_i (A + I)_ij dinv_j is dinv_i dinv_j or 0
    dinv = 1.0 / np.sqrt(deg + 1.0)
    norm = np.zeros(areas.sum())
    norm[edge_at] = dinv[src] * dinv[dst]
    nodes = np.arange(n_nodes_total)
    norm[offset(nodes, nodes)] = dinv * dinv

    # node features: one-hot labels, then numeric attributes, else constant 1
    blocks = []
    label_path = fpath("node_labels")
    if label_path.is_file():
        raw = np.array(list(map(int, _read_lines(label_path))))
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
    features = features_all[order]
    tau = _descriptors(table, deg, sizes, l_max)

    classes = sorted(set(graph_labels_raw))
    class_index = {c: i for i, c in enumerate(classes)}

    graphs = []
    for k, (st, n, at) in enumerate(zip(starts.tolist(), sizes.tolist(),
                                        block_at.tolist())):
        graphs.append(GraphInstance(
            adjacency=flat[at:at + n * n].reshape(n, n),
            features=features[st:st + n],
            label=class_index[graph_labels_raw[k]],
            a_norm=norm[at:at + n * n].reshape(n, n),
            tau=tau[st:st + n],
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
    return Batch(
        a_norm=BlockAdjacency.stack([g.a_norm for g in graphs]),
        features=np.concatenate([g.features for g in graphs], axis=0),
        tau=np.concatenate([g.tau for g in graphs], axis=0),
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
