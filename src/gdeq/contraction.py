"""Contraction certificates for the equilibrium pathways.

The backbone with ||W||_2 <= kappa is a kappa-contraction in Z (tanh is
1-Lipschitz and the normalized adjacency has unit spectral norm).  The
quantum readout map is Lipschitz with constant at most

    L_q = 2 sqrt(n_q) ||W_out||_2 ||W_in||_2,

which gives per-pathway bounds on the full operator:

    input conditioning   kappa
    state coupling       kappa + alpha * L_q
    output coupling      kappa * (1 + alpha * L_q)

A bound below one certifies existence and uniqueness of the fixed point;
empirical pair ratios can only ever certify the opposite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, exact to round-off (LAPACK SVD).

    Power iteration only approaches it from below, and this value feeds
    upper bounds (``lemma2_bound``, the spectral clip).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("need a matrix")
    return float(np.linalg.norm(m, 2))


def lemma2_bound(module) -> float:
    """Lipschitz bound 2 sqrt(n_q) sigma(W_out) sigma(W_in) on a module.

    Uses the effective (normalized) maps when spectral normalization is on.
    """
    from . import autodiff as ad

    with ad.no_grad():
        w_in, w_out = module.effective_maps()
    return (2.0 * np.sqrt(module.n_qubits)
            * spectral_norm(w_out.data) * spectral_norm(w_in.data))


class PathwayBounds(NamedTuple):
    id: float
    bd: float
    sd: float


def theorem_bounds(kappa: float, alpha: float, lq_sd: float,
                   lq_bd: float | None = None) -> PathwayBounds:
    """Analytic contraction factors for the three pathways.

    ``lq_bd`` defaults to ``lq_sd`` when the same module bound applies to
    both coupled pathways.  The arithmetic runs on exact rationals built
    from the decimal value of each input, so budgets specified as short
    decimals (0.8, 0.1, ...) produce bounds that round-trip cleanly.
    """
    if lq_bd is None:
        lq_bd = lq_sd
    kappa, alpha = float(kappa), float(alpha)
    lq_sd, lq_bd = float(lq_sd), float(lq_bd)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("kappa must lie in [0, 1]")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    if lq_sd < 0.0 or lq_bd < 0.0:
        raise ValueError("module bounds must be nonnegative")
    k, a = Fraction(str(kappa)), Fraction(str(alpha))
    lsd, lbd = Fraction(str(lq_sd)), Fraction(str(lq_bd))
    return PathwayBounds(id=float(k),
                         bd=float(k * (1 + a * lbd)),
                         sd=float(k + a * lsd))


def pathway_bound(kind: str, kappa: float, alpha: float,
                  lq: float | None) -> float:
    if kind in ("classical", "id"):
        return kappa
    if lq is None:
        raise ValueError(f"pathway {kind!r} needs a module bound")
    bounds = theorem_bounds(kappa, alpha, lq)
    return getattr(bounds, kind)


def empirical_lipschitz(f: Callable[[np.ndarray], np.ndarray],
                        shape: tuple[int, int],
                        rng: np.random.Generator,
                        n_pairs: int = 200,
                        scales: tuple = (0.1, 1.0, 10.0),
                        delta: float = 1e-3) -> float:
    """Max pair ratio ||f(a) - f(b)|| / ||a - b|| over random probes.

    Alternates independent pairs at each scale with tight pairs offset by a
    random direction of Frobenius norm ``delta``.  A lower bound on the true
    constant, never a certificate.
    """
    if n_pairs < 1:
        raise ValueError("need at least one pair")
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
        ratio = np.linalg.norm(f(a) - f(b)) / denom
        best = max(best, float(ratio))
    return best


@dataclass
class PathwayAnalysis:
    kind: str
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


@dataclass
class LipschitzReport:
    kappa: float
    alpha: float
    entries: dict = field(default_factory=dict)

    def add(self, analysis: PathwayAnalysis):
        self.entries[analysis.kind] = analysis

    def violations(self) -> list:
        return [k for k, a in self.entries.items() if not a.consistent]

    def to_text(self) -> str:
        lines = [f"kappa={self.kappa:.17g}", f"alpha={self.alpha:.17g}"]
        for kind in sorted(self.entries):
            a = self.entries[kind]
            lines.append(f"{kind}.analytic={a.analytic:.17g}")
            lines.append(f"{kind}.empirical={a.empirical:.17g}")
            lines.append(f"{kind}.pairs={a.pairs}")
            if a.lq is not None:
                lines.append(f"{kind}.lq={a.lq:.17g}")
            lines.append(f"{kind}.certified={str(a.certified).lower()}")
            lines.append(f"{kind}.consistent={str(a.consistent).lower()}")
        return "\n".join(lines) + "\n"


def analyze_operator(op, ctx, rng: np.random.Generator,
                     n_pairs: int = 200) -> PathwayAnalysis:
    """Empirical-vs-analytic check of one operator on a fixed graph context."""
    from . import autodiff as ad

    lq = None
    if op.kind in ("sd", "bd") and op.quantum is not None:
        lq = lemma2_bound(op.quantum)
    analytic = pathway_bound(op.kind, op.backbone.kappa, op.alpha, lq)

    def f(zd: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return op.apply(ad.Tensor(zd), ctx).data

    shape = (ctx.h.rows, op.backbone.d_hidden)
    emp = empirical_lipschitz(f, shape, rng, n_pairs=n_pairs)
    return PathwayAnalysis(kind=op.kind, analytic=analytic,
                           empirical=emp, pairs=n_pairs, lq=lq)
