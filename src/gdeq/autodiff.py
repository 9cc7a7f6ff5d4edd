"""Reverse-mode automatic differentiation on 2-D float64 arrays.

Values live in :class:`Tensor`; a :class:`Tape` records every operation
applied to tensors bound to it, as a list of (output id, [(input id,
vjp closure), ...]) entries in forward execution order.  Replaying the
list in reverse is a valid reverse-topological walk, so a sweep is a
single pass with a dict of cotangent accumulators keyed by node id.

Every sweep drops each op output's cotangent once it is passed on, so it
returns the leaves' cotangents.  ``Tape.backward`` also consumes its tape:
it pops each record as it pulls that record's cotangent back, so a step's
closures and intermediates die during the sweep rather than after it.  A
consumed tape cannot be swept again.  ``Tape.vjp`` is the repeatable
sweep: it leaves the records in place, for Jacobian oracles and several
seeds.

Tapes are define-by-run and nest; the stack of active tapes is one per
process, so tapes must not be used from several threads at once.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class NonFiniteError(FloatingPointError):
    """A recorded forward operation produced a NaN or Inf entry."""


# Active tapes, innermost last, and whether recording is on.  One state per
# process: runs train in separate worker processes, not threads.
_STATE = SimpleNamespace(stack=[], grad_enabled=True)


def _active_tape():
    if _STATE.stack and _STATE.grad_enabled:
        return _STATE.stack[-1]
    return None


class no_grad:
    """Context manager that suspends recording on all tapes."""

    def __enter__(self):
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


def _as_2d(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
    return arr


class Tensor:
    """A 2-D float64 value, optionally bound to a tape node."""

    __slots__ = ("data", "tape", "nid")

    def __init__(self, data):
        self.data = _as_2d(data)
        self.tape = None
        self.nid = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tracked = "" if self.nid is None else f", node={self.nid}"
        return f"Tensor(shape={self.data.shape}{tracked})"


def constant(data) -> Tensor:
    return Tensor(data)


class Gradients:
    """Cotangents returned by a backward sweep, keyed by tape node id."""

    def __init__(self, tape, by_id: dict):
        self._tape = tape
        self._by_id = by_id

    def get(self, t: Tensor):
        if t.nid is None or t.tape is not self._tape:
            return None
        return self._by_id.get(t.nid)

    def __getitem__(self, t: Tensor) -> Array:
        g = self.get(t)
        if g is None:
            return np.zeros_like(t.data)
        return g


class Tape:
    """Ordered record of operations for reverse-mode sweeps: any number of
    :meth:`vjp` sweeps, then at most one consuming :meth:`backward`."""

    def __init__(self):
        self._records: list[tuple[int, tuple]] = []
        self._next_id = 0
        self._consumed = False

    def _fresh_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def watch(self, t: Tensor) -> Tensor:
        """Mark ``t`` as a leaf whose gradient should be accumulated."""
        if t.tape is not self:
            t.tape = self
            t.nid = self._fresh_id()
        return t

    def __enter__(self):
        _STATE.stack.append(self)
        return self

    def __exit__(self, *exc):
        _STATE.stack.pop()
        return False

    def vjp(self, output: Tensor, cotangent, _consume=False) -> Gradients:
        """Pull ``cotangent`` at ``output`` back to the tape's leaves.

        Each op output's cotangent is dropped once it is passed on, so the
        result holds the leaves' cotangents.  Repeatable: the records stay,
        except when ``backward`` passes ``_consume``, which pops each record
        as it is pulled back and leaves the tape empty.
        """
        if output.tape is not self:
            raise ValueError("output tensor is not bound to this tape")
        if self._consumed:
            raise ValueError("tape was consumed by backward; record a new one")
        self._consumed = _consume
        seed = np.asarray(cotangent, dtype=np.float64).reshape(output.data.shape)
        grads: dict[int, Array] = {output.nid: seed}
        records = self._records if _consume else self._records.copy()
        while records:
            out_id, parents = records.pop()
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for in_id, vjp_fn in parents:
                contrib = vjp_fn(g)
                prev = grads.get(in_id)
                grads[in_id] = contrib if prev is None else prev + contrib
        return Gradients(self, grads)

    def backward(self, loss: Tensor) -> Gradients:
        """Consuming gradient sweep from a 1x1 loss seeded with 1.0; the
        tape holds no records afterwards and cannot be swept again."""
        if loss.data.shape != (1, 1):
            raise ValueError(f"loss must be 1x1, got {loss.data.shape}")
        return self.vjp(loss, np.ones((1, 1)), True)


def record_op(out_data, parents: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    """Create the output tensor of an operation, recording it if tracked.

    ``parents`` pairs each input tensor with a closure mapping the output
    cotangent to that input's cotangent.  Only inputs bound to the active
    tape are recorded; everything else is treated as a constant.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is None:
        return out
    tracked = [(p.nid, fn) for p, fn in parents if p.tape is tape]
    if not tracked:
        return out
    if not np.isfinite(out.data).all():
        raise NonFiniteError("non-finite entries in forward operation output")
    out.tape = tape
    out.nid = tape._fresh_id()
    tape._records.append((out.nid, tuple(tracked)))
    return out


def shared_pullback(inputs: Sequence[Tensor],
                    pullback: Callable[[Array], Sequence[Array]]) -> list:
    """``record_op`` parents for ``inputs`` whose cotangents one call of
    ``pullback(g)`` returns together, in order; it runs once per ``g``."""
    cache: dict = {}

    def grads(g):
        if cache.get("seed") is not g:
            cache["seed"], cache["grads"] = g, pullback(g)
        return cache["grads"]

    return [(t, lambda g, i=i: grads(g)[i]) for i, t in enumerate(inputs)]


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    return record_op(
        ad @ bd,
        [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)],
    )


def transpose(a: Tensor) -> Tensor:
    return record_op(a.data.T, [(a, lambda g: g.T)])


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return record_op(a.data * mask, [(a, lambda g: g * mask)])


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")
    return record_op(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return record_op(ad * bd, [(a, lambda g: g * bd), (b, lambda g: g * ad)])


def add_row(a: Tensor, row: Tensor) -> Tensor:
    """Broadcast-add a (1, m) row to every row of ``a``."""
    if row.data.shape != (1, a.cols):
        raise ValueError(f"row must be (1, {a.cols}), got {row.data.shape}")
    return record_op(
        a.data + row.data,
        [(a, lambda g: g), (row, lambda g: g.sum(axis=0, keepdims=True))],
    )


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.rows != b.rows:
        raise ValueError("concat_cols row mismatch")
    ca = a.cols
    return record_op(
        np.concatenate([a.data, b.data], axis=1),
        [(a, lambda g: g[:, :ca]), (b, lambda g: g[:, ca:])],
    )


def cross_entropy_mean(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer class labels under row-wise log-softmax."""
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, c = logits.data.shape
    if y.shape[0] != n:
        raise ValueError("one label per logit row required")
    if y.min() < 0 or y.max() >= c:
        raise ValueError("label out of range")
    x = logits.data
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    loss = -logp[np.arange(n), y].mean()

    def back(g):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        return g[0, 0] * p / n

    return record_op(np.array([[loss]]), [(logits, back)])
