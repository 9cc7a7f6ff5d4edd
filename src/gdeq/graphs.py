"""Graph loading, normalization, topology descriptors, folds, batching.

Datasets use the TU flat-file layout: ``<name>_A.txt`` (1-indexed
"i, j" pairs, both directions listed), ``<name>_graph_indicator.txt``
(node -> graph id), ``<name>_graph_labels.txt``, and optionally
``<name>_node_labels.txt`` / ``<name>_node_attributes.txt``.  All files
are read from a local directory; nothing is ever fetched.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

DEFAULT_L_MAX = 6


class GraphInstance:
    """One undirected graph with everything the model consumes.

    ``tau`` is the graph's (n, d_tau) topology descriptors, or a picklable
    zero-argument callable that returns them.  The loader passes a
    callable, so that only a run that reads τ computes it; the first read
    calls it and keeps the array.
    """

    def __init__(self, adjacency: np.ndarray, features: np.ndarray,
                 label: int, a_norm: np.ndarray, tau):
        self.adjacency = adjacency    # (n, n) symmetric 0/1, zero diagonal
        self.features = features      # (n, f) node features
        self.label = label            # class index in [0, n_classes)
        self.a_norm = a_norm          # D^-1/2 (A + I) D^-1/2
        self._tau = tau

    @property
    def tau(self) -> np.ndarray:
        if callable(self._tau):
            self._tau = self._tau()
        return self._tau

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

    def matmul(self, z: np.ndarray) -> np.ndarray:
        """A @ z for a stacked (N, d) array ``z``."""
        return self.unpad(self.blocks @ self.pad(z))

    def rmatmul(self, g: np.ndarray) -> np.ndarray:
        """Aᵀ @ g, block by block."""
        return self.unpad(self.blocks.transpose(0, 2, 1) @ self.pad(g))


@dataclass
class Batch:
    """Several graphs stacked into one block-diagonal problem."""

    a_norm: BlockAdjacency
    features: np.ndarray
    labels: np.ndarray
    graphs: list              # the stacked graphs, in row order

    @property
    def n_graphs(self) -> int:
        return len(self.labels)

    @cached_property
    def tau(self) -> np.ndarray:
        """(N, d_tau) topology descriptors of every row, stacked on first read."""
        return np.concatenate([g.tau for g in self.graphs], axis=0)


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
    dst``, both directions listed and sorted by ``src``: column v of the
    (max degree, n) table holds v's neighbours, padded with -1, so that
    one row holds every vertex's k-th neighbour."""
    deg = np.bincount(src, minlength=n)
    table = np.full((deg.max(initial=0), n), -1, dtype=np.intp)
    table[np.arange(src.size) - (np.cumsum(deg) - deg)[src], src] = dst
    return table, deg


# Start vertices grown per array pass: bounds a pass's transient memory
# on large datasets.
_PASS_ROWS = 1024


def _cycle_counts(table: np.ndarray, l_max: int) -> np.ndarray:
    """Per-node counts of simple cycles of each length 3..l_max in the graph
    with neighbour table ``table`` (see :func:`_neighbour_table`).

    Exact canonical enumeration: a cycle is found once, as the path that
    starts at its smallest vertex, grows only through larger unvisited
    vertices, and closes back to the start when its second vertex is
    smaller than its last.  All such paths of one length form a frontier,
    held as one index column per path position and grown a level at a time
    for every start vertex at once: each level gathers every column once.
    The counts are integers, so the frontier's row order does not matter.
    """
    if l_max < 3:
        raise ValueError("l_max must be at least 3")
    n = table.shape[1]
    counts = np.zeros((n, l_max - 2))
    for lo in range(0, n, _PASS_ROWS):
        path = [np.arange(lo, min(lo + _PASS_ROWS, n))]
        for length in range(1, l_max + 1):
            start, last = path[0], path[-1]
            if not start.size:
                break
            nxt = table.take(last, axis=1)
            if length >= 3:
                closes = (nxt == start).any(axis=0) & (path[1] < last)
                # a pass's paths hold only vertices from lo on
                hits = np.bincount(
                    np.concatenate([col[closes] for col in path]) - lo)
                counts[lo:lo + hits.size, length - 3] += hits
            if length == l_max:
                break
            # the padding is below every start; no column lists its own vertex
            grow = nxt > start
            for col in path[1:-1]:
                grow &= nxt != col
            # entry k * len(start) + i of grow is path i's k-th neighbour
            flat = np.flatnonzero(grow)
            rows = flat % start.size
            path = [col.take(rows) for col in path] + [nxt.take(flat)]
    return counts


def _descriptors(table: np.ndarray, deg: np.ndarray, sizes,
                 l_max: int) -> np.ndarray:
    """:func:`topology_descriptors` of graphs stored as consecutive node
    ranges of ``sizes`` rows in one neighbour table, with degrees ``deg``."""
    k = l_max - 2
    out = np.zeros((deg.size, k + 3))
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


class _Topology:
    """The edges of a loaded dataset's graphs, stored as consecutive node
    ranges of ``sizes`` rows; ``tau`` holds their descriptors once read."""

    def __init__(self, src: np.ndarray, dst: np.ndarray, sizes: np.ndarray,
                 l_max: int):
        self.src, self.dst, self.sizes, self.l_max = src, dst, sizes, l_max
        self.tau = None


def _tau_rows(topology: _Topology, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of ``topology``'s descriptors; the first call
    describes every graph in one batched pass."""
    if topology.tau is None:
        n = int(topology.sizes.sum())
        topology.tau = _descriptors(*_neighbour_table(topology.src, topology.dst, n),
                                    topology.sizes, topology.l_max)
    return topology.tau[start:stop]


# ---------------------------------------------------------------------------
# TU flat files


def _node_id(value: str) -> int:
    """An ``_A.txt`` id clipped into [0, 2**62], out of every node's range."""
    return min(max(int(value), 0), 2**62)


def _table(path: Path, parse=int, fields: str = "i", check=None) -> np.ndarray:
    """The nonblank lines of the TU file ``path`` as the rows of a 2-d int
    array, or a float one when ``parse`` is ``float``; ``fields`` names a
    row's comma-separated values, and "" lets the first row set the width.

    numpy's parser reads a clean file, ``parse`` a line at a time any other
    up to its first bad line.  ``check`` gets the rows before that line and
    returns (row, reason) of the first bad one, or None; the earlier line's
    error is raised, as ``path:line: reason``.
    """
    if not path.is_file():
        raise FileNotFoundError(f"missing dataset file: {path}")
    lines = path.read_text().splitlines()
    dtype = float if parse is float else int
    width = fields.count(",") + 1 if fields else 0
    if not any(map(str.strip, lines)):   # numpy's reader warns on no data
        return np.empty((0, width), dtype)
    table = error = None
    with contextlib.suppress(ValueError):
        table = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=2)
    if table is None or 0 < width != table.shape[1]:
        rows = []
        for n, line in enumerate(lines, 1):
            values = line.replace(",", " ").split()
            if not values:
                continue
            width = width or len(values)
            try:
                if len(values) != width:
                    raise ValueError(f"expected {fields or ', '.join('x' * width)!r}"
                                     f", got {line.strip()!r}")
                rows.append(np.array([parse(v) for v in values], dtype))
            except (ValueError, OverflowError) as err:
                error = n, err
                break
        table = np.array(rows, dtype).reshape(-1, width)
    if check is not None and (bad := check(table)) is not None:
        nonblank = [n for n, line in enumerate(lines, 1) if line.strip()]
        error = nonblank[bad[0]], bad[1]
    if error is not None:
        raise ValueError(f"{path}:{error[0]}: {error[1]}")
    return table


def _bad_edge(pairs: np.ndarray, graph: np.ndarray):
    """(row, reason) of the first row of ``pairs`` (1-indexed node ids)
    with an id out of range, an edge across graphs or a self-loop, or None;
    ``graph`` is each node's graph."""
    i, j = pairs[:, 0] - 1, pairs[:, 1] - 1
    n = graph.shape[0]
    in_range = (0 <= i) & (i < n) & (0 <= j) & (j < n)
    crosses = in_range & (graph[np.where(in_range, i, 0)]
                          != graph[np.where(in_range, j, 0)])
    bad = ~in_range | crosses | (i == j)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return k, ("node id out of range" if not in_range[k]
               else "edge crosses graphs" if crosses[k] else "self-loop")


def load_tu_dataset(data_dir, name: str, l_max: int = DEFAULT_L_MAX) -> GraphDataset:
    """Parse a TU-format directory into a :class:`GraphDataset`.

    Nodes keep their file order within each graph.  All graphs are parsed,
    built and normalized in whole-array passes over the dataset.  Their
    topology descriptors are computed on the first read of any graph's
    ``tau``, for every graph in one pass, so a run that never reads them
    never enumerates a cycle.
    """
    root = Path(data_dir) / name
    if not root.is_dir():
        root = Path(data_dir)

    def fpath(suffix: str) -> Path:
        return root / f"{name}_{suffix}.txt"

    indicator = _table(fpath("graph_indicator"))[:, 0]
    classes, graph_labels = np.unique(_table(fpath("graph_labels"))[:, 0],
                                      return_inverse=True)
    n_nodes_total = indicator.shape[0]
    n_graphs = graph_labels.shape[0]

    # contiguous ids 1..k have k <= the node count, so a larger id fails
    # before np.bincount sizes a count for it; sizes[g] counts id g + 1
    sizes = None
    if indicator.min(initial=1) >= 1 and indicator.max(initial=0) <= n_nodes_total:
        sizes = np.bincount(indicator)[1:]
    if sizes is None or not sizes.all():
        raise ValueError(
            f"{fpath('graph_indicator')}: graph ids must be 1..{n_graphs} contiguous")
    if sizes.size != n_graphs:
        raise ValueError(f"{fpath('graph_labels')}: {n_graphs} labels for the "
                         f"{sizes.size} graphs of {fpath('graph_indicator').name}")

    # node (0-indexed file line) -> its row in the graph-major layout, in
    # which graph g holds rows starts[g]:starts[g] + sizes[g] in file order
    graph = indicator.astype(np.intp) - 1
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(graph, kind="stable")
    row = np.empty(n_nodes_total, dtype=np.intp)
    row[order] = np.arange(n_nodes_total)

    pairs = _table(fpath("A"), _node_id, "i, j", lambda p: _bad_edge(p, graph))
    src, dst = row[pairs[:, 0] - 1], row[pairs[:, 1] - 1]
    # both directions of every edge line, sorted, each kept once: a key
    # differs from the one before it (the keys are >= 0)
    edges = np.concatenate([src * n_nodes_total + dst, dst * n_nodes_total + src])
    edges.sort()
    edges = edges[np.diff(edges, prepend=-1) != 0]
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
    deg = np.bincount(src, minlength=n_nodes_total)
    # normalize_adjacency entrywise: A + I holds 0s and 1s and its row sums
    # deg + 1 are exact, so dinv_i (A + I)_ij dinv_j is dinv_i dinv_j or 0
    dinv = 1.0 / np.sqrt(deg + 1.0)
    norm = np.zeros(areas.sum())
    norm[edge_at] = dinv[src] * dinv[dst]
    nodes = np.arange(n_nodes_total)
    norm[offset(nodes, nodes)] = dinv * dinv

    # node features: one-hot labels, then numeric attributes, else constant
    # 1; line i of each file is written straight to its graph-major row
    label_path, attr_path = fpath("node_labels"), fpath("node_attributes")
    raw, width = None, 0
    if label_path.is_file():
        vocab, raw = np.unique(_table(label_path)[:, 0], return_inverse=True)
        if raw.shape[0] != n_nodes_total:
            raise ValueError(f"{label_path}: expected {n_nodes_total} lines")
        width = vocab.shape[0]
    if attr_path.is_file():
        attributes = _table(attr_path, float, "")
        if attributes.shape[0] != n_nodes_total:
            raise ValueError(f"{attr_path}: expected {n_nodes_total} lines")
    elif raw is None:
        attributes = np.ones((n_nodes_total, 1))
    else:
        attributes = np.empty((n_nodes_total, 0))
    features = np.zeros((n_nodes_total, width + attributes.shape[1]))
    if raw is not None:
        features[row, raw] = 1.0
    features[row, width:] = attributes
    topology = _Topology(src, dst, sizes, l_max)

    graphs = []
    for label, st, n, at in zip(graph_labels.tolist(), starts.tolist(),
                                sizes.tolist(), block_at.tolist()):
        graphs.append(GraphInstance(
            adjacency=flat[at:at + n * n].reshape(n, n),
            features=features[st:st + n],
            label=label,
            a_norm=norm[at:at + n * n].reshape(n, n),
            tau=partial(_tau_rows, topology, st, st + n),
        ))
    return GraphDataset(name=name, graphs=graphs, n_classes=len(classes),
                        feature_dim=features.shape[1], l_max=l_max)


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
    fold = np.empty(labels.shape[0], dtype=np.int64)   # each graph's test fold
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.shape[0] < k:
            raise ValueError(f"class {c} has {idx.shape[0]} members < {k} folds")
        fold[rng.permutation(idx)] = np.arange(idx.shape[0]) % k
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f))
            for f in range(k)]


def collate(graphs: list) -> Batch:
    """Stack graphs into one block-diagonal batch."""
    if not graphs:
        raise ValueError("cannot collate an empty batch")
    return Batch(
        a_norm=BlockAdjacency.stack([g.a_norm for g in graphs]),
        features=np.concatenate([g.features for g in graphs], axis=0),
        labels=np.array([g.label for g in graphs], dtype=np.int64),
        graphs=list(graphs),
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
