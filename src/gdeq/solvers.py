"""Fixed-point solvers and implicit differentiation through them.

Forward: run Picard or Anderson iteration on z <- f(z) outside any tape,
with f the plain-NumPy map of a :class:`Plan` built once per solve.
Backward: at the solution z*, the gradient of a loss L through z* is
obtained from the adjoint fixed point

    u = g + J_f(z*)^T u,      g = dL/dz*,

solved with the same machinery on the plan's closed-form J_f(z*)^T,
followed by the plan's closed-form vector-Jacobian product with cotangent
u into the operator's parameters.  Both pullbacks and the recorded value
come from one linearization of the plan at z*.  Gradients never flow
through the forward iterates themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

Array = np.ndarray


@dataclass
class SolverConfig:
    method: str = "anderson"
    max_iter: int = 300
    tol: float = 1e-6
    history: int = 5      # anderson window
    beta: float = 1.0     # anderson mixing
    lam: float = 1e-4     # tikhonov weight on the residual gram

    def __post_init__(self):
        if self.method not in ("picard", "anderson"):
            raise ValueError(f"unknown solver {self.method!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.history < 1:
            raise ValueError("history must be positive")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual: float
    z_star: Array | None = field(default=None, repr=False)
    diverged: bool = False
    fallback_steps: int = 0
    backward: "SolveReport | None" = field(default=None, repr=False)


class Plan(NamedTuple):
    """A map z <- f(z) at fixed weights, in plain NumPy, for one solve.

    ``linearize(z)`` evaluates the map once at the state z and returns
    ``(f(z), jt, vjp)``: ``jt(u)`` is J_f(z)ᵀ u, and ``vjp(u)`` gives the
    cotangents of ``tensors``, the map's inputs other than the state, for
    the output cotangent u.  The functions hold arrays only: a recorded
    pullback may keep them, but not ``tensors``, whose tape would then sit
    in a reference cycle.
    """

    f: Callable[[Array], Array]
    linearize: Callable[[Array], tuple]
    tensors: tuple


def _norm(a: Array) -> float:
    return float(np.linalg.norm(a))


def picard_solve(f: Callable[[Array], Array], z0: Array,
                 cfg: SolverConfig) -> SolveReport:
    z = np.asarray(z0, dtype=np.float64)
    residual = np.inf
    with np.errstate(all="ignore"):
        for it in range(1, cfg.max_iter + 1):
            z_new = f(z)
            if not np.all(np.isfinite(z_new)):
                return SolveReport(False, it, np.inf, z_star=z, diverged=True)
            residual = _norm(z_new - z)
            z = z_new
            if residual <= cfg.tol:
                return SolveReport(True, it, residual, z_star=z)
        return SolveReport(False, cfg.max_iter, residual, z_star=z)


def anderson_solve(f: Callable[[Array], Array], z0: Array,
                   cfg: SolverConfig) -> SolveReport:
    """Anderson mixing over the last ``cfg.history`` iterates.

    Mixing weights solve the residual least-squares problem with a sum-to-one
    constraint through a bordered system.  The Tikhonov term ``cfg.lam`` is
    scaled by the mean squared residual so the damping is scale invariant and
    the acceleration survives into the small-residual tail; a degenerate
    system falls back to a plain Picard step.

    The window lives in two preallocated ``(history, n)`` buffers, filled
    as a ring: pair ``it`` goes to slot ``(it - 1) % history``, so the first
    ``k`` slots always hold the window.  One holds the residuals
    f(x_j) - x_j; the other the Picard steps (1 - beta) x_j + beta f(x_j),
    so one weighted sum over it gives the mixed iterate, and the fallback
    is the newest slot.
    The residual Gram matrix is kept across iterations, and each new
    residual refreshes one row and one column of it.  A non-finite f(x_j)
    or mixed iterate shows in its squared norm (the new Gram diagonal, or
    the step norm), so a vector is scanned for non-finite entries only when
    that norm is not finite: an overflowing norm alone is not divergence.
    Floating-point warnings are off for the whole solve, as in
    :func:`picard_solve`: the report is the only signal of a map that
    overflows or goes non-finite.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    shape = z0.shape
    m, beta = cfg.history, cfg.beta
    steps = np.empty((m, z0.size))
    rs = np.empty_like(steps)
    gram = np.empty((m, m))
    eye = np.eye(m)
    bordered = np.ones((m + 1, m + 1))
    bordered[0, 0] = 0.0
    rhs = np.zeros(m + 1)
    rhs[0] = 1.0
    diff = np.empty(z0.size)
    x = z0.ravel().copy()
    fallback = 0
    residual = np.inf

    with np.errstate(all="ignore"):
        for it in range(1, cfg.max_iter + 1):
            fk = f(x.reshape(shape)).ravel()
            slot, k = (it - 1) % m, min(it, m)
            np.subtract(fk, x, out=rs[slot])
            gram[slot, :k] = gram[:k, slot] = rs[:k] @ rs[slot]
            # a non-finite f(x) shows in its squared residual; so may overflow
            if not math.isfinite(gram[slot, slot]) and not np.isfinite(fk).all():
                return SolveReport(False, it, np.inf, z_star=x.reshape(shape),
                                   diverged=True, fallback_steps=fallback)
            picard = np.multiply(fk, beta, out=steps[slot])
            if beta != 1.0:
                picard += (1.0 - beta) * x
            x_next = None
            if k > 1:
                scale = np.trace(gram[:k, :k]) / k
                h = bordered[:k + 1, :k + 1]
                np.multiply(eye[:k, :k], cfg.lam * scale, out=h[1:, 1:])
                h[1:, 1:] += gram[:k, :k]
                try:
                    alpha = np.linalg.solve(h, rhs[:k + 1])[1:]
                except np.linalg.LinAlgError:
                    alpha = None
                if alpha is not None and np.isfinite(alpha).all():
                    x_next = alpha @ steps[:k]
                else:
                    fallback += 1
            if x_next is None:
                x_next = picard.copy()
            np.subtract(x_next, x, out=diff)
            residual = math.sqrt(diff @ diff)
            if not math.isfinite(residual) and not np.isfinite(x_next).all():
                return SolveReport(False, it, np.inf, z_star=x.reshape(shape),
                                   diverged=True, fallback_steps=fallback)
            x = x_next
            if residual <= cfg.tol:
                return SolveReport(True, it, residual, z_star=x.reshape(shape),
                                   fallback_steps=fallback)
        return SolveReport(False, cfg.max_iter, residual,
                           z_star=x.reshape(shape), fallback_steps=fallback)


def solve_fixed_point(f: Callable[[Array], Array], z0: Array,
                      cfg: SolverConfig) -> SolveReport:
    if cfg.method == "picard":
        return picard_solve(f, z0, cfg)
    return anderson_solve(f, z0, cfg)


def equilibrium_solve(plan: Plan, z0: Array, fwd: SolverConfig,
                      bwd: SolverConfig) -> tuple[Tensor, SolveReport]:
    """Differentiable fixed point of ``z <- plan.f(z)``.

    The forward solve runs on ``plan.f`` without recording.  If a tape is
    active and the solve did not diverge, ``plan.linearize(z*)`` is taken
    once and its value is recorded as one operation on ``plan.tensors``.
    Its backward pass solves the adjoint equation on ``jt`` once per loss
    cotangent and hands the solution u to ``vjp(u)``, which gives every
    input's cotangent.
    """
    report = solve_fixed_point(plan.f, np.asarray(z0, dtype=np.float64), fwd)
    if ad._active_tape() is None or report.diverged:
        return Tensor(report.z_star), report
    value, jt, vjp = plan.linearize(report.z_star)

    def pullback(g: Array) -> list:
        back = solve_fixed_point(lambda u: g + jt(u), np.zeros_like(g), bwd)
        report.backward = back
        return vjp(back.z_star)

    return (ad.record_op(value, ad.shared_pullback(plan.tensors, pullback)),
            report)
