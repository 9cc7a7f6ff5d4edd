"""Equilibrium operators: the contractive backbone and its injection variants.

The backbone map is h(Z) = tanh(A Z W^T + H Om^T + 1 b^T) on per-node
state rows.  Quantum signals enter one of three ways:

* input conditioning: a per-node term Q computed once per solve from the
  encoder output and topology descriptors, added inside the nonlinearity;
* state coupling: h(Z) + alpha * q(Z), the module re-applied to the
  evolving state every iteration;
* output coupling: h(Z) + alpha * q(h(Z)), the module applied to the
  backbone output every iteration.

With alpha = 0 (or no module) every variant degenerates to the plain
backbone, bit for bit.

The operator is written once, as ``EquilibriumOperator.plan``: the map in
plain NumPy with every per-solve constant read once, and its linearization
at a state, which evaluates the map there once and returns the value with
its closed-form adjoint and the closed-form cotangents of its parameters.
A solve runs on the plan, and ``EquilibriumOperator.apply`` records one
linearization of it on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .contraction import spectral_norm
from .graphs import BlockAdjacency
from .quantum import ModulePlan, QuantumModule
from .solvers import Plan

PATHWAYS = ("classical", "id", "sd", "bd")


@dataclass
class BackboneParams:
    """Weights of the contractive message-passing map."""

    w: Tensor        # (d_h, d_h) state mixing
    omega: Tensor    # (d_h, f) input injection
    bias: Tensor     # (1, d_h)
    kappa: float     # spectral budget for w

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must lie in (0, 1]")
        if self.w.rows != self.w.cols:
            raise ValueError("w must be square")
        if self.bias.shape != (1, self.w.rows):
            raise ValueError("bias must be a (1, d_h) row")

    @property
    def d_hidden(self) -> int:
        return self.w.rows

    @classmethod
    def init(cls, d_hidden: int, d_input: int, kappa: float,
             rng: np.random.Generator) -> "BackboneParams":
        scale = 1.0 / np.sqrt(d_hidden)
        w = Tensor(rng.normal(scale=scale, size=(d_hidden, d_hidden)))
        omega = Tensor(rng.normal(scale=scale, size=(d_hidden, d_input)))
        bias = Tensor(np.zeros((1, d_hidden)))
        clip_spectral(w, kappa)
        return cls(w, omega, bias, kappa)

    def tensors(self) -> list:
        return [("w", self.w), ("omega", self.omega), ("bias", self.bias)]


def clip_spectral(w: Tensor, kappa: float) -> float:
    """Rescale ``w`` in place to spectral norm kappa if it exceeds it.

    Returns the spectral norm before clipping.  A relative guard keeps the
    clip idempotent: re-clipping an already-clipped weight must not rescale
    it over the few ulps of rounding that the rescale leaves.
    """
    sigma = spectral_norm(w.data)
    if sigma > kappa * (1.0 + 1e-12):
        w.data *= kappa / sigma
    return sigma


@dataclass
class GraphContext:
    """Per-solve constants and conditioning for one (batched) graph.

    ``a_norm`` is the normalized adjacency, treated as constant: a batch's
    per-graph blocks, or one dense (n, n) matrix (array or tensor), which
    is taken as a single block.
    """

    a_norm: BlockAdjacency
    h: Tensor                  # encoder output rows
    q_id: Tensor | None = None  # input-conditioning rows, computed once per solve

    def __post_init__(self):
        if isinstance(self.a_norm, Tensor):
            self.a_norm = self.a_norm.data
        if not isinstance(self.a_norm, BlockAdjacency):
            dense = np.asarray(self.a_norm, dtype=np.float64)
            self.a_norm = BlockAdjacency(dense[None])

    def repeat(self, k: int) -> "GraphContext":
        """k copies of this context, copy-major.

        The adjacency becomes block_diag(A, ..., A) (:meth:`BlockAdjacency.repeat`)
        and ``h`` and ``q_id`` are tiled to match.  Every pathway acts
        row-wise within each graph's block, so applying an operator to k
        stacked states on the copies gives each state the result it would
        get alone on this context.
        """
        def tile(t: Tensor | None) -> Tensor | None:
            return None if t is None else Tensor(np.tile(t.data, (k, 1)))

        return GraphContext(self.a_norm.repeat(k), tile(self.h), tile(self.q_id))


class EquilibriumOperator:
    """One injection pathway bound to a backbone (and maybe a module)."""

    def __init__(self, kind: str, backbone: BackboneParams,
                 quantum: QuantumModule | None = None, alpha: float = 0.0):
        if kind not in PATHWAYS:
            raise ValueError(f"unknown pathway {kind!r}")
        if alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if kind != "classical":
            if quantum is None:
                raise ValueError(f"pathway {kind!r} needs a quantum module")
            d_h = backbone.d_hidden
            if kind in ("sd", "bd") and (quantum.d_in != d_h or quantum.d_out != d_h):
                raise ValueError("state/output coupling module must map d_h -> d_h")
            if kind == "id" and quantum.d_out != d_h:
                raise ValueError("input-conditioning module must emit d_h columns")
        self.kind = kind
        self.backbone = backbone
        self.quantum = quantum
        self.alpha = float(alpha)

    def tracked_tensors(self) -> list:
        out = list(self.backbone.tensors())
        if self.quantum is not None and self.kind in ("sd", "bd") and self.alpha != 0.0:
            out.extend(self.quantum.tensors())
        return out

    def apply(self, z: Tensor, ctx: GraphContext) -> Tensor:
        """The map at ``z`` as one recorded op: the value and both
        pullbacks of ``plan(ctx).linearize(z)``."""
        plan = self.plan(ctx)
        value, jt, vjp = plan.linearize(z.data)
        return ad.record_op(value,
                            [(z, jt)] + ad.shared_pullback(plan.tensors, vjp))

    def module_plan(self) -> ModulePlan | None:
        """The sd/bd module at its live weights (its normalized maps and
        compiled program), else ``None``."""
        if self.kind in ("sd", "bd") and self.quantum is not None:
            return ModulePlan(self.quantum)
        return None

    def plan(self, ctx: GraphContext,
             module: ModulePlan | None = None) -> Plan:
        """The operator on ``ctx`` at the live weights, for one solve.

        H Omᵀ and W are read once here, and so is the circuit through
        ``module``, this operator's :meth:`module_plan`, built here unless
        a caller that plans several contexts at the same weights passes
        one.  ``linearize(z)`` evaluates the map once at z, with
        y = h(z) and one circuit run at the module's rows, and returns the
        value with two pullbacks.  ``jt(u)`` is J_f(z)ᵀ u in closed form:

        * classical, id: Aᵀ((u ⊙ (1 - y²)) W);
        * sd: that plus J_q(z)ᵀ(α u);
        * bd: Aᵀ(((u + J_q(y)ᵀ(α u)) ⊙ (1 - y²)) W);

        where J_q is the module's row-wise Jacobian
        (:meth:`ModulePlan.linearize`).  ``vjp(u)`` gives the cotangents of
        the tracked tensors, ``h`` and (id) ``q_id``: with
        g = ū ⊙ (1 - y²), ū = u (bd: plus the module's state cotangent),
        Wᵀ ← gᵀ(A z), Omᵀ ← gᵀ H, b ← Σ_rows g, H ← g Om, Q ← g, and the
        module's own from its ``vjp`` at α u.  Each product is taken as the
        op-by-op tape formulation takes it, so ``f``, the value and ``vjp``
        equal that formulation bit for bit.
        """
        if self.kind == "id" and ctx.q_id is None:
            raise ValueError("input-conditioning pathway needs ctx.q_id")
        a = ctx.a_norm
        w_t, omega = self.backbone.w.data.T, self.backbone.omega.data
        h = ctx.h.data
        h_om = h @ omega.T
        q_id = ctx.q_id.data if self.kind == "id" else None
        bias = self.backbone.bias.data
        q = None
        if self.kind in ("sd", "bd") and self.alpha != 0.0:
            q = self.module_plan() if module is None else module
        alpha, state = self.alpha, self.kind == "sd"
        tensors = [t for _, t in self.tracked_tensors()] + [ctx.h]
        if q_id is not None:
            tensors.append(ctx.q_id)

        def backbone(az: np.ndarray) -> np.ndarray:
            pre = az @ w_t
            pre += h_om
            if q_id is not None:
                pre += q_id
            pre += bias
            return np.tanh(pre, out=pre)

        def f(z: np.ndarray) -> np.ndarray:
            y = backbone(a.matmul(z))
            if q is not None:
                y += q(z if state else y) * alpha
            return y

        def linearize(z: np.ndarray) -> tuple:
            az = a.matmul(z)
            y = backbone(az)
            dy = 1.0 - y * y
            value, jq, q_vjp = y, None, None
            if q is not None:
                q_out, jq, q_vjp = q.linearize(z if state else y)
                value = y + q_out * alpha

            def jt(u: np.ndarray) -> np.ndarray:
                if jq is None:
                    return a.rmatmul((u * dy) @ w_t.T)
                if state:
                    return a.rmatmul((u * dy) @ w_t.T) + jq(u * alpha)
                return a.rmatmul(((u + jq(u * alpha)) * dy) @ w_t.T)

            def vjp(u: np.ndarray) -> list:
                module = []
                if q_vjp is not None:
                    d_s, *module = q_vjp(u * alpha)
                    if not state:
                        u = u + d_s
                g = u * dy
                grads = [(az.T @ g).T, (h.T @ g).T,
                         g.sum(axis=0, keepdims=True), *module, g @ omega]
                return grads if q_id is None else grads + [g]

            return value, jt, vjp

        return Plan(f, linearize, tuple(tensors))

    def compute_id_conditioning(self, h: Tensor, tau: np.ndarray) -> Tensor:
        """Q rows from [encoder output, topology descriptors]; once per solve."""
        if self.kind != "id":
            raise ValueError("conditioning is only defined for the id pathway")
        stacked = ad.concat_cols(h, ad.constant(tau))
        return self.quantum.forward_rows(stacked)
