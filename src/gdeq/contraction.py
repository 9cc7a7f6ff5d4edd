"""Contraction certificates for the equilibrium pathways.

The backbone with ||W||_2 <= kappa is a kappa-contraction in Z (tanh is
1-Lipschitz and the normalized adjacency has unit spectral norm).  The
paper's headline budget for the quantum readout map is

    L_q = 2 sqrt(n_q) ||W_out||_2 ||W_in||_2,

which gives per-pathway budgets on the full operator:

    input conditioning   kappa
    state coupling       kappa + alpha * L_q
    output coupling      kappa * (1 + alpha * L_q)

L_q is a budget, not a proven bound on the module: the circuit re-uploads
its input 1 + 3 * reps times, and sampled node-level ratios can exceed it
(3.35 against 2 at n_q = 1, reps = 1).  So only the kappa budgets of the
classical and input-conditioning pathways are proven.  A proven budget
below one certifies existence and uniqueness of the fixed point;
empirical pair ratios can only ever certify the opposite.

``analyze_operator`` sets the two side by side for one operator on one
graph.  It reads the circuit once per analysis: one module plan gives
both L_q (``headline_budget`` of its normalized maps) and the batched
probe applications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, exact to round-off (LAPACK SVD).

    Power iteration only approaches it from below, and this value feeds
    upper bounds (``headline_budget``, the spectral clip).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("need a matrix")
    return float(np.linalg.norm(m, 2))


def headline_budget(n_qubits: int, w_in: np.ndarray,
                    w_out: np.ndarray) -> float:
    """2 sqrt(n_q) sigma(W_out) sigma(W_in) of the maps the circuit sees;
    a budget, not a proven bound (see the module docstring)."""
    return 2.0 * np.sqrt(n_qubits) * spectral_norm(w_out) * spectral_norm(w_in)


def lemma2_bound(module) -> float:
    """:func:`headline_budget` of a module's effective maps (normalized when
    spectral normalization is on)."""
    (w_in, _), (w_out, _) = module.maps()
    return headline_budget(module.n_qubits, w_in, w_out)


class PathwayBounds(NamedTuple):
    id: float
    bd: float
    sd: float


def theorem_bounds(kappa: float, alpha: float, lq: float) -> PathwayBounds:
    """Analytic contraction factors for the three pathways.

    The arithmetic runs on exact rationals built from the decimal value of
    each input, so budgets specified as short decimals (0.8, 0.1, ...)
    produce bounds that round-trip cleanly.
    """
    kappa, alpha, lq = float(kappa), float(alpha), float(lq)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    if lq < 0.0:
        raise ValueError("the module bound must be nonnegative")
    k, a, q = (Fraction(str(x)) for x in (kappa, alpha, lq))
    return PathwayBounds(id=float(k), bd=float(k * (1 + a * q)),
                         sd=float(k + a * q))


# Most rows one operator application takes when probing a certificate.
# Larger stacks save little per-call overhead and raise peak memory.
_PROBE_ROWS = 512
PROBE_SCALES = (0.1, 1.0, 10.0)   # probe entry scales, cycled pair by pair
PROBE_DELTA = 1e-3                # offset norm of a tight pair


def _pairs_per_call(n_rows: int) -> int:
    """Probe pairs stacked into one application on an ``n_rows``-row graph."""
    return max(1, _PROBE_ROWS // (2 * n_rows))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v[j])`` for every j, bit for bit.

    A stacked (1, m) @ (m, 1) product runs the same ``ddot`` per row as
    ``np.linalg.norm``; ``einsum`` sums in another order.
    """
    k, m = len(v), math.prod(v.shape[1:])
    return np.sqrt((v.reshape(k, 1, m) @ v.reshape(k, m, 1)).reshape(k))


def empirical_lipschitz(f: Callable[[np.ndarray], np.ndarray],
                        shape: tuple[int, int],
                        rng: np.random.Generator,
                        n_pairs: int = 200) -> float:
    """Max pair ratio ||f(a) - f(b)|| / ||a - b|| over random probes.

    Alternates independent pairs at each of ``PROBE_SCALES`` with tight
    pairs offset by a random direction of Frobenius norm ``PROBE_DELTA``.
    A lower bound on the true constant, never a certificate.

    ``f`` maps a stack of ``shape[0]``-row blocks block by block: given the
    (m * shape[0], shape[1]) array of m probes on top of each other, it
    returns what each block alone would map to, stacked the same way.  The
    probes go to ``f`` in chunks of ``max(1, 512 // (2 * shape[0]))`` pairs,
    stacked as ``[a_1 .. a_k, b_1 .. b_k]``, so one call sees at most
    512 rows (or one pair, if a pair alone is larger).  Each chunk is one
    ``rng.standard_normal((k, 2, *shape))`` draw, scaled per pair: pair i's
    slots are its ``a`` and its ``b`` (even i) or its tight direction
    (odd i), the order in which one pair per call would draw them, so the
    probes and the final ``rng`` state are those of drawing pair by pair.
    Only the current chunk is held.
    """
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    shape = tuple(shape)
    per_call = _pairs_per_call(shape[0])
    scales = np.asarray(PROBE_SCALES, dtype=np.float64)
    best = 0.0
    for start in range(0, n_pairs, per_call):
        index = np.arange(start, min(start + per_call, n_pairs))
        k, tight = len(index), index % 2 == 1
        scale = scales[index % len(scales)]
        # slot 0 is a at the pair's scale; slot 1 is b at that scale, or a
        # tight pair's direction at unit scale
        slot_scales = np.stack([scale, np.where(tight, 1.0, scale)])
        stack = np.empty((2, k) + shape)
        np.multiply(rng.standard_normal((k, 2) + shape).swapaxes(0, 1),
                    slot_scales[:, :, None, None], out=stack)
        d = stack[1, tight]
        d *= (PROBE_DELTA / np.maximum(_row_norms(d), 1e-30))[:, None, None]
        stack[1, tight] = stack[0, tight] + d
        denoms = _row_norms(stack[0] - stack[1])
        out = f(stack.reshape(-1, shape[1])).reshape(stack.shape)
        keep = denoms >= 1e-15
        ratios = _row_norms(out[0] - out[1])[keep] / denoms[keep]
        best = max([best, *ratios.tolist()])
    return best


@dataclass
class PathwayAnalysis:
    """One operator's certificate: its analytic bound beside the empirical
    estimate, with the kappa and alpha the bound came from."""

    kind: str
    kappa: float
    alpha: float
    analytic: float
    empirical: float
    pairs: int
    lq: float | None = None

    @property
    def certified(self) -> bool:
        return self.analytic < 1.0

    @property
    def consistent(self) -> bool:
        # empirical estimates are lower bounds; they may never exceed analytic
        return self.empirical <= self.analytic + 1e-9

    def to_text(self) -> str:
        """key=value lines, floats to 17 significant digits so they
        re-parse exactly."""
        k = self.kind
        lines = [f"kappa={self.kappa:.17g}", f"alpha={self.alpha:.17g}",
                 f"{k}.analytic={self.analytic:.17g}",
                 f"{k}.empirical={self.empirical:.17g}",
                 f"{k}.pairs={self.pairs}"]
        if self.lq is not None:
            lines.append(f"{k}.lq={self.lq:.17g}")
        lines.append(f"{k}.certified={str(self.certified).lower()}")
        lines.append(f"{k}.consistent={str(self.consistent).lower()}")
        return "\n".join(lines) + "\n"


def analyze_operator(op, ctx, rng: np.random.Generator,
                     n_pairs: int = 200) -> PathwayAnalysis:
    """Empirical-vs-analytic check of one operator on a fixed graph context.

    The analytic bound is kappa on the classical and id pathways, and the
    :func:`theorem_bounds` entry of the pathway on sd and bd.  The weights
    are read once per analysis: on sd and bd, one
    :meth:`~gdeq.operators.EquilibriumOperator.module_plan` holds the
    circuit's normalized maps and compiled program, and both the module
    budget ``lq`` and every chunk's plan use it.  The operator acts
    row-wise within each graph's block, so a chunk of ``rows`` probe rows
    from :func:`empirical_lipschitz` is one call of
    ``op.plan(ctx.repeat(rows // n), module).f`` for an n-row ``ctx`` (see
    :meth:`GraphContext.repeat`), which equals ``op.apply`` on those copies
    bit for bit.  The copies and plan are built once per distinct chunk row
    count (full chunks and a shorter last one).  The last chunk is not
    padded: BLAS output rows can change in their last bits with the row
    count.
    """
    kappa, alpha = op.backbone.kappa, op.alpha
    module = op.module_plan()
    lq, analytic = None, kappa
    if module is not None:
        lq = headline_budget(module.n_qubits, module.w_in, module.w_out)
        analytic = getattr(theorem_bounds(kappa, alpha, lq), op.kind)

    n = ctx.h.rows
    plans = {}

    def f(zd: np.ndarray) -> np.ndarray:
        rows = zd.shape[0]
        if rows not in plans:
            plans[rows] = op.plan(ctx.repeat(rows // n), module).f
        return plans[rows](zd)

    shape = (n, op.backbone.d_hidden)
    emp = empirical_lipschitz(f, shape, rng, n_pairs=n_pairs)
    return PathwayAnalysis(kind=op.kind, kappa=kappa, alpha=alpha,
                           analytic=analytic, empirical=emp, pairs=n_pairs,
                           lq=lq)
