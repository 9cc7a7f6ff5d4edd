"""Fixed-point solvers and implicit differentiation through them.

Forward: one Anderson loop on z <- f(z) outside any tape, with f the
plain-NumPy map of a :class:`Plan` built once per solve.  Picard iteration
is that loop with a one-slot window; Anderson mixes a window of
``ANDERSON_WINDOW`` = 5 iterates with Tikhonov weight ``TIKHONOV`` = 1e-4,
both module constants.
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


ANDERSON_WINDOW = 5   # iterates that Anderson mixes
TIKHONOV = 1e-4       # weight on the residual Gram, relative to its mean


@dataclass
class SolverConfig:
    method: str = "anderson"
    max_iter: int = 300
    tol: float = 1e-6

    def __post_init__(self):
        if self.method not in ("picard", "anderson"):
            raise ValueError(f"unknown solver {self.method!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


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


def _iterate(f: Callable[[Array], Array], z0: Array, cfg: SolverConfig,
             window: int) -> SolveReport:
    """Anderson mixing over the last ``window`` iterates; one slot is Picard.

    Mixing weights solve the residual least-squares problem with a sum-to-one
    constraint through a bordered system.  The Tikhonov term ``TIKHONOV`` is
    scaled by the mean squared residual so the damping is scale invariant and
    the acceleration survives into the small-residual tail; a degenerate
    system falls back to a plain Picard step, and so does every step of a
    one-slot window, which never mixes.

    The window lives in two preallocated ``(window, n)`` buffers, filled
    as a ring: pair ``it`` goes to slot ``(it - 1) % window``, so the first
    ``k`` slots always hold the window.  One holds the residuals
    f(x_j) - x_j; the other the images f(x_j), so one weighted sum over it
    gives the mixed iterate, and a step that does not mix takes f(x_j)
    itself, as the ring keeps its own copy.  So ``f`` must return an array
    it does not reuse: the next iterate, and the solution, may be that
    array.
    The residual Gram matrix is kept across iterations, and each new
    residual refreshes one row and one column of it.  A non-finite f(x_j)
    or mixed iterate shows in its squared norm (the new Gram diagonal, or
    the step norm), so a vector is scanned for non-finite entries only when
    that norm is not finite: an overflowing norm alone is not divergence.
    Floating-point warnings are off for the whole solve: the report is the
    only signal of a map that overflows or goes non-finite.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    shape = z0.shape
    steps = np.empty((window, z0.size))
    rs = np.empty_like(steps)
    gram = np.empty((window, window))
    eye = np.eye(window)
    bordered = np.ones((window + 1, window + 1))
    bordered[0, 0] = 0.0
    rhs = np.zeros(window + 1)
    rhs[0] = 1.0
    diff = np.empty(z0.size)
    x = z0.ravel().copy()
    fallback = 0
    residual = np.inf

    with np.errstate(all="ignore"):
        for it in range(1, cfg.max_iter + 1):
            fk = f(x.reshape(shape)).ravel()
            slot, k = (it - 1) % window, min(it, window)
            np.subtract(fk, x, out=rs[slot])
            gram[slot, :k] = gram[:k, slot] = rs[:k] @ rs[slot]
            # a non-finite f(x) shows in its squared residual; so may overflow
            if not math.isfinite(gram[slot, slot]) and not np.isfinite(fk).all():
                return SolveReport(False, it, np.inf, z_star=x.reshape(shape),
                                   diverged=True, fallback_steps=fallback)
            steps[slot] = fk
            x_next = None
            if k > 1:
                scale = np.trace(gram[:k, :k]) / k
                h = bordered[:k + 1, :k + 1]
                np.multiply(eye[:k, :k], TIKHONOV * scale, out=h[1:, 1:])
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
                x_next = fk
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


def picard_solve(f: Callable[[Array], Array], z0: Array,
                 cfg: SolverConfig) -> SolveReport:
    """Plain iteration z <- f(z): the loop of :func:`anderson_solve` with a
    one-slot window."""
    return _iterate(f, z0, cfg, 1)


def anderson_solve(f: Callable[[Array], Array], z0: Array,
                   cfg: SolverConfig) -> SolveReport:
    """Anderson mixing over the last ``ANDERSON_WINDOW`` = 5 iterates with
    Tikhonov weight ``TIKHONOV`` = 1e-4, both module constants.  It runs the
    solvers' one loop, which :func:`picard_solve` runs with a one-slot
    window."""
    return _iterate(f, z0, cfg, ANDERSON_WINDOW)


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
