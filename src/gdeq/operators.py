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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .contraction import spectral_norm
from .quantum import QuantumModule

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


def backbone_apply(bb: BackboneParams, a_norm: Tensor, h: Tensor,
                   z: Tensor, extra: Tensor | None = None) -> Tensor:
    pre = ad.add(ad.matmul(ad.matmul(a_norm, z), ad.transpose(bb.w)),
                 ad.matmul(h, ad.transpose(bb.omega)))
    if extra is not None:
        pre = ad.add(pre, extra)
    return ad.tanh(ad.add_row(pre, bb.bias))


@dataclass
class GraphContext:
    """Per-solve constants and conditioning for one (batched) graph."""

    a_norm: Tensor             # normalized adjacency, treated as constant
    h: Tensor                  # encoder output rows
    q_id: Tensor | None = None  # input-conditioning rows, computed once per solve


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
        if self.kind == "id":
            if ctx.q_id is None:
                raise ValueError("input-conditioning pathway needs ctx.q_id")
            return backbone_apply(self.backbone, ctx.a_norm, ctx.h, z,
                                  extra=ctx.q_id)
        base = backbone_apply(self.backbone, ctx.a_norm, ctx.h, z)
        if self.kind == "classical" or self.alpha == 0.0:
            return base
        if self.kind == "sd":
            return ad.add(base, ad.scale(self.quantum.forward_rows(z), self.alpha))
        return ad.add(base, ad.scale(self.quantum.forward_rows(base), self.alpha))

    def compute_id_conditioning(self, h: Tensor, tau: np.ndarray) -> Tensor:
        """Q rows from [encoder output, topology descriptors]; once per solve."""
        if self.kind != "id":
            raise ValueError("conditioning is only defined for the id pathway")
        stacked = ad.concat_cols(h, ad.constant(tau))
        return self.quantum.forward_rows(stacked)

    def solve_inputs(self, ctx: GraphContext):
        """(apply_fn, tensors) pair consumed by the equilibrium solver.

        ``apply_fn(z, tensors)`` evaluates the operator using the given
        tensor objects in place of the live parameters, so the solver can
        rebuild the map on clones for its backward sub-tape.
        """
        named = list(self.tracked_tensors())
        named.append(("h", ctx.h))
        if self.kind == "id":
            named.append(("q_id", ctx.q_id))
        names = [n for n, _ in named]
        tensors = [t for _, t in named]

        def apply_fn(z: Tensor, current: list) -> Tensor:
            by_name = dict(zip(names, current))
            bb = BackboneParams(by_name["w"], by_name["omega"], by_name["bias"],
                                self.backbone.kappa)
            quantum = self.quantum
            if quantum is not None and "w_in" in by_name:
                quantum = quantum.with_tensors(
                    by_name["w_in"], by_name["w_out"], by_name["angles"])
            op = EquilibriumOperator(self.kind, bb, quantum, self.alpha)
            ctx2 = replace(ctx, h=by_name["h"], q_id=by_name.get("q_id"))
            return op.apply(z, ctx2)

        return apply_fn, tensors
