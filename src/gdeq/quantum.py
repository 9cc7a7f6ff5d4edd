"""State-vector simulation of the per-node quantum feature map.

The circuit follows an encode / entangle / measure shape: input angles
u = tanh(W_in s) are written onto the qubits with R_y rotations, a
repeated ansatz with data re-uploading is applied (re-encoding u before
each block), and the per-qubit Pauli-Z expectations are read out and
mixed by W_out.  ``ANSATZ`` is the ansatz's one description: a table of
one repetition's blocks, from which each block's structure, the angle
layout and the parameter count are all read.

Simulation is vectorized across rows and runs in the encoding's
eigenbasis: an encoding layer is W diag(Φ(u)) Wᴴ, W = V^{⊗n_q} with V the
eigenvectors of Y (Schuld, Sweke & Meyer, PRA 103, 032430, 2021).
The program is one opening encoding layer, then one block per ``ANSATZ``
row per repetition (reps >= 1), each after its own encoding layer, so u
enters 1 + len(ANSATZ)·reps times.  It is compiled at the current angles
into one fused 2**n_q x 2**n_q unitary per block, with W and Wᴴ folded
in, and applied to all rows as one complex matmul; each encoding layer is
one elementwise product with the per-row phases Φ.  The compile reads a
block from its row's structure, all blocks in one batched pass: a layer
of single-qubit rotations, a Kronecker product of 2 x 2 factors, then a
chain of commuting couplers, diagonal in a fixed basis (the same
eigenbasis view), so a block is a constant basis change scaled by phases
times that Kronecker product.  States are amplitude-major, (2**n_q, N).
Gradients are exact reverse-mode through the state (the adjoint sweep of
Jones & Gacon, arXiv:2009.02823, 2020): the output state of every
encoding layer and block is stashed, the cotangent is pulled back through
each block's adjoint and each layer's conjugate phases, and every angle
gradient is read from the compile's own factors, with no per-gate matrix.
The parameter-shift rule is provided separately as an independent route
to the same angle gradients.

The module is written once, as :class:`ModulePlan`: the live weights,
read once per ``forward_rows`` call, solve or certificate analysis (under
spectral normalization W_in and W_out enter as W / sigma(W), sigma from
``contraction.spectral_norm``), and the program compiled once.  So the
module carries no normalization state.  The plan's linearization at some rows
runs the circuit once with a stash, and from that one run gives the
value, the per-row Jacobian of the expectations (n_q adjoint sweeps, on
first use) and the parameter cotangents (one sweep); ``forward_rows``
records it as one op.  ``circuit_expectations`` records the circuit
alone as a tape op; no module path calls it, but the tests build the
plan's oracle from it and the benchmark's tracer wraps it by name.

Convention: qubit ``j`` owns bit ``n_q - 1 - j`` of the basis index,
i.e. qubit 0 is the most significant axis.  All rotation and coupler
gates use exp(-i * theta * P / 2) for Pauli (product) P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .contraction import spectral_norm

NORM_GUARD = 1e-12
INIT_ANGLE = 0.1   # ansatz angles start uniform in [-INIT_ANGLE, INIT_ANGLE)


# ---------------------------------------------------------------------------
# the ansatz


# One ansatz repetition, a row per block after its own encoding layer: the
# rotation axes applied to each qubit in turn, then the coupler applied to
# each neighbouring pair.  A repetition's angle columns run in that order.
ANSATZ = (("xyz", "zz"), ("xy", "xx"), ("yz", "yy"))


def per_rep_param_count(n_qubits: int) -> int:
    return sum(len(a) * n_qubits + max(n_qubits - 1, 0) for a, _ in ANSATZ)


# ---------------------------------------------------------------------------
# vectorized kernels on amplitude-major (2**n_q, N) complex arrays


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int) -> np.ndarray:
    """(n_q, 2**n_q) matrix of Z eigenvalues per qubit and basis state."""
    shifts = np.arange(n_qubits - 1, -1, -1)[:, None]
    signs = 1.0 - 2.0 * ((np.arange(2 ** n_qubits) >> shifts) & 1)
    signs.setflags(write=False)
    return signs


_Y_EIGENBASIS = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)


@lru_cache(maxsize=None)
def _frame(n_qubits: int) -> np.ndarray:
    """W = V^{⊗n_q}; V's columns are the Y eigenvectors (1, i)/√2
    (eigenvalue +1) and (1, -i)/√2 (eigenvalue -1)."""
    w = reduce(np.kron, [_Y_EIGENBASIS] * n_qubits)
    w.setflags(write=False)
    return w


def _phases(u_rows: np.ndarray) -> np.ndarray:
    """Φ (2**n_q, N): one encoding layer in the eigenbasis of its gates.

    R_y(u) = V diag(e^{-iu/2}, e^{iu/2}) Vᴴ, so the layer ⊗_j R_y(u_j) is
    W diag(Φ) Wᴴ with Φ[b, n] = exp(-i/2 · Σ_j S[j, b] u[n, j]), built as
    the product of the per-qubit factors e^{∓iu/2}, qubit 0 outermost.
    """
    n_rows = len(u_rows)
    half = 0.5 * u_rows.T
    factors = np.empty((len(half), 2, n_rows), dtype=np.complex128)
    factors[:, 0] = np.cos(half) - 1j * np.sin(half)
    np.conj(factors[:, 0], out=factors[:, 1])
    # + 0.0 writes a zero imaginary part as +0, as the product 1 · e^{iu/2}
    # does, so that Φ keeps its bytes where an angle is 0
    phases = factors[0] + 0.0
    for pair in factors[1:]:
        phases = (phases[:, None] * pair).reshape(-1, n_rows)
    return phases


# ---------------------------------------------------------------------------
# the program compiled into encoding layers and fused parameter blocks

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

# b per Pauli P, with P = b diag(1, -1) bᴴ: the computational basis for Z,
# the Hadamard basis for X, and V (see ``_frame``) for Y
_EIGENBASIS = {
    "x": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2),
    "y": _Y_EIGENBASIS,
    "z": np.eye(2, dtype=np.complex128),
}


class _BlockTables(NamedTuple):
    """Constants of the structured build of ``reps`` repetitions at one
    qubit count.  Axis 0 of the arrays runs over the program's blocks."""

    rotation_cols: np.ndarray   # (blocks, n_q, depth) into the padded angles
    expansion: np.ndarray       # (blocks, 2**depth, 4) monomials -> bᴴ M_j V
    coupler_cols: np.ndarray    # (blocks, n_q - 1) into the padded angles
    coupler_signs: np.ndarray   # (n_q - 1, 2**n_q) -s_c / 2
    lefts: np.ndarray           # (blocks, 2**n_q, 2**n_q) left · B


def _expansion(axes: str, depth: int, b: np.ndarray) -> np.ndarray:
    """(2**depth, 4): row ``mask`` is bᴴ (∏_k F_k) V, flattened, where F_k
    is I where bit k of ``mask`` (most significant first) is 0 and iP_k
    where it is 1; zero where a set bit lies past the row's axes.

    Rotation k is cos(θ_k/2) I - i sin(θ_k/2) P_k = Re(e_k) I + Im(e_k) iP_k
    with e_k = exp(-iθ_k/2), so bᴴ M_j V is the sum over masks of that
    row times the product of Re(e_k) or Im(e_k) chosen by the mask's bits.
    """
    rows = np.zeros((2 ** depth, 4), dtype=np.complex128)
    for mask in range(2 ** depth):
        bits = [mask >> (depth - 1 - k) & 1 for k in range(depth)]
        if any(bits[len(axes):]):
            continue
        m = np.eye(2, dtype=np.complex128)
        for axis, bit in zip(axes, bits):
            if bit:
                m = 1j * _PAULI[axis] @ m
        rows[mask] = (np.conj(b.T) @ m @ _Y_EIGENBASIS).reshape(4)
    return rows


@lru_cache(maxsize=None)
def _block_tables(n_qubits: int, reps: int) -> _BlockTables:
    """Read each ``ANSATZ`` row's structure into :class:`_BlockTables`.

    A row's block is left · B diag(φ) Bᴴ · (⊗_j M_j) · W.  M_j is the
    product of qubit j's rotations in gate order, and with the row's
    coupler Pauli P = b diag(1, -1) bᴴ, B = b^{⊗n_q} and W = V^{⊗n_q},
    Bᴴ (⊗_j M_j) W = ⊗_j bᴴ M_j V.  The couplers exp(-iθ_c P P / 2) on
    neighbouring pairs are B diag(exp(-iθ_c s_c / 2)) Bᴴ each, s_c the
    pair's Z product, and commute, so φ = exp(-i/2 Σ_c θ_c s_c).  left is
    Wᴴ before the next encoding layer, else (the last block) the identity.
    Each row takes the next len(axes) · n_q rotation columns, qubit by
    qubit, then the next n_q - 1 coupler columns.  Angle columns index
    ``angles.flat`` with one 0 appended, which pads rows with fewer axes
    than ``depth`` with identity rotations.
    """
    depth = max(len(axes) for axes, _ in ANSATZ)
    pad = reps * per_rep_param_count(n_qubits)
    w_h, eye = np.conj(_frame(n_qubits).T), np.eye(2 ** n_qubits)
    rotation_cols, expansion, coupler_cols, lefts = [], [], [], []
    start = 0
    for axes, coupler in ANSATZ * reps:
        cols = np.full((n_qubits, depth), pad)
        cols[:, :len(axes)] = start + np.arange(
            n_qubits * len(axes)).reshape(n_qubits, len(axes))
        rotation_cols.append(cols)
        start += n_qubits * len(axes)
        coupler_cols.append(start + np.arange(n_qubits - 1))
        start += n_qubits - 1
        b = _EIGENBASIS[coupler[-1]]
        expansion.append(_expansion(axes, depth, b))
        left = w_h if len(lefts) < reps * len(ANSATZ) - 1 else eye
        lefts.append(left @ reduce(np.kron, [b] * n_qubits))
    signs = _z_signs(n_qubits)
    tables = _BlockTables(
        np.array(rotation_cols), np.array(expansion),
        np.array(coupler_cols), -0.5 * (signs[:-1] * signs[1:]),
        np.array(lefts))
    for table in tables:
        table.setflags(write=False)
    return tables


def _factors(turns: np.ndarray, expansion: np.ndarray) -> np.ndarray:
    """(..., 2, 2) factors from rotations' e = exp(-iθ/2), (..., depth):
    the sum over masks of ``expansion``'s row times the product of Re(e_k)
    or Im(e_k) chosen by the mask's bits (see ``_expansion``).
    ``expansion`` broadcasts against the leading axes but the last."""
    parts = turns.view(np.float64)
    monomials = parts[..., :2]
    for k in range(2, parts.shape[-1], 2):
        monomials = (monomials[..., :, None] * parts[..., None, k:k + 2]
                     ).reshape(parts.shape[:-1] + (-1,))
    return (monomials @ expansion).reshape(parts.shape[:-1] + (2, 2))


class _Program(NamedTuple):
    """The program at fixed angles: ``unitaries`` (blocks, 2**n_q, 2**n_q),
    each L diag(φ) (⊗_j F_j) with L = left · B and F_j = bᴴ M_j V (see
    ``_block_tables``), and what a pullback reads the angle gradients
    from: ``turns``, each rotation's e = exp(-iθ/2) (blocks, n_q, depth),
    and ``factors``, the F_j (blocks, n_q, 2, 2)."""

    unitaries: np.ndarray
    turns: np.ndarray
    factors: np.ndarray
    tables: _BlockTables
    shape: tuple                # the angles' (reps, per-rep count)


def _compile(angles: np.ndarray, n_qubits: int) -> _Program:
    """The program at ``angles`` (reps, per-rep count): one block per
    ``ANSATZ`` row per repetition.

    All blocks are built at once from their rows' structure (see
    ``_block_tables``): the factors F_j from the rotation angles'
    e = exp(-iθ/2), their Kronecker product over qubits (qubit 0
    outermost), and one product with L scaled by the coupler phases φ.
    Nothing in the program refers to ``angles``, so a caller may update its
    array in place.
    """
    tables = _block_tables(n_qubits, len(angles))
    flat = np.append(angles, 0.0)
    turns = np.exp(-0.5j * flat)[tables.rotation_cols]
    factors = _factors(turns, tables.expansion)
    kron = factors[:, 0]
    for j in range(1, n_qubits):
        size = 2 * kron.shape[-1]
        kron = (kron[:, :, None, :, None] * factors[:, j, None, :, None, :]
                ).reshape(-1, size, size)
    phases = np.exp(1j * (flat[tables.coupler_cols] @ tables.coupler_signs))
    return _Program((tables.lefts * phases[:, None, :]) @ kron, turns,
                    factors, tables, angles.shape)


def _run_program(u_rows: np.ndarray, program: _Program,
                 stash: list | None = None) -> np.ndarray:
    """Final amplitude-major states (2**n_q, N) of the rows of ``u_rows``.

    The run starts from Wᴴ|0⟩, the uniform vector, in the encoding
    eigenbasis, where each encoding layer is ``Φ * states``: the opening
    layer, then per block its encoding layer and its unitary.  ``stash``
    collects Φ, the opening layer's output, then per block its encoding
    layer's output and its own.
    """
    phases = _phases(u_rows)
    states = phases * np.full(phases.shape, len(phases) ** -0.5,
                              dtype=np.complex128)
    if stash is not None:
        stash += [phases, states]
    for unitary in program.unitaries:
        states = phases * states
        if stash is not None:
            stash.append(states)
        states = unitary @ states
        if stash is not None:
            stash.append(states)
    return states


def _expectations(states: np.ndarray, n_qubits: int) -> np.ndarray:
    """(N, n_q) Pauli-Z expectations of amplitude-major states (2**n_q, N)."""
    return (_z_signs(n_qubits) @ (states.real ** 2 + states.imag ** 2)).T


def _backward(program: _Program, stash: list,
              g_m: np.ndarray) -> tuple[np.ndarray, list]:
    """Adjoint sweep: cotangent on expectations -> (dU, block cotangents).

    The state cotangent lambda = dL/dpsi* starts at the final state and is
    pulled back block by block: through a block as lambda <- Uᴴ lambda,
    then through its encoding layer as lambda <- conj(Φ) * lambda.
    There its generators are the diagonals -S[j] / 2, so an encoding
    layer's u-gradient is S Im(conj(lambda) psi) at its output state psi,
    summed over layers (the opening one last) before the one product with
    S.  The second value holds the cotangent at every block's output, from
    which ``_angle_grads`` reads the angle gradients when they are asked
    for.
    """
    unphase, opening, encoded = np.conj(stash[0]), stash[1], stash[2::2]
    signs = _z_signs(g_m.shape[1])
    lam = (signs.T @ g_m.T) * stash[-1]
    reads = np.zeros(unphase.shape)
    lams = []
    for unitary, psi in zip(program.unitaries[::-1], encoded[::-1]):
        lams.append(lam)
        lam = np.conj(unitary).T @ lam
        reads += (np.conj(lam) * psi).imag
        lam = unphase * lam
    reads += (np.conj(lam) * opening).imag
    return (signs @ reads).T, lams[::-1]


def _angle_grads(program: _Program, stash: list, lams: list) -> np.ndarray:
    """Every block's angle gradients at once, from ``_backward``'s output.

    An angle of block U has gradient 2 Re tr(∂U D), D = Σ_rows psi lambdaᴴ
    at the block's input state and output cotangent.  A coupler moves only
    φ, by i · coupler_signs[c] · φ, and diag(φ) ⊗_j F_j = Lᴴ U, so its
    gradient is 2 Re(i · coupler_signs[c] · diag(Lᴴ U D L)).  A rotation k
    on qubit j moves only F_j: ∂U = U (G_jk on qubit j), G_jk = F_jᴴ ∂F_j,
    so its gradient is 2 Re tr(G_jk ρ_j) = 2 Re tr(∂F_j ρ_j F_jᴴ), ρ_j the
    partial trace of X = D U over the other qubits, and ∂F_j is
    ``_factors`` with e_k replaced by de_k/dθ_k = -(i/2) e_k.
    """
    unitaries, turns, factors, tables, shape = program
    blocks, n_qubits, depth = turns.shape
    d = np.array([psi @ np.conj(lam.T) for psi, lam in zip(stash[2::2], lams)])
    lefts = tables.lefts
    reads = (np.conj(lefts) * (unitaries @ d @ lefts)).sum(axis=1)
    grads = np.zeros(np.prod(shape) + 1)    # the last slot is the padding's
    grads[tables.coupler_cols] = -2.0 * (reads.imag @ tables.coupler_signs.T)
    # (blocks, n_q, k, depth): the turns with e_k moved to de_k/dθ_k
    moved = np.repeat(turns[:, :, None], depth, axis=2)
    k = np.arange(depth)
    moved[:, :, k, k] *= -0.5j
    x = d @ unitaries
    rho = np.stack([np.einsum("kpaqpbq->kab", x.reshape(
        blocks, 2 ** j, 2, 2 ** (n_qubits - 1 - j),
        2 ** j, 2, 2 ** (n_qubits - 1 - j))) for j in range(n_qubits)], axis=1)
    grads[tables.rotation_cols] = 2.0 * np.einsum(
        "kjqab,kjba->kjq", _factors(moved, tables.expansion[:, None]),
        rho @ np.conj(factors.swapaxes(-1, -2))).real
    return grads[:-1].reshape(shape)


def circuit_expectations(u: Tensor, angles: Tensor, n_qubits: int) -> Tensor:
    """Per-row Pauli-Z expectations of the ansatz, as a differentiable op.

    ``u``: (N, n_q) encoding angles; ``angles``: (reps, per-rep count)
    trainable circuit angles.  Output is (N, n_q) in [-1, 1].  The program
    is compiled at the angles' current values on every call, and every
    pullback of the recorded op reuses that compiled program: one adjoint
    sweep gives both cotangents.
    """
    if u.cols != n_qubits:
        raise ValueError(f"expected {n_qubits} encoding angles, got {u.cols}")
    if angles.cols != per_rep_param_count(n_qubits):
        raise ValueError("angle row width does not match qubit count")
    if angles.rows < 1:
        raise ValueError("the ansatz needs at least one repetition")
    program = _compile(angles.data, n_qubits)
    stash: list | None = [] if ad._active_tape() is not None else None
    m = _expectations(_run_program(u.data, program, stash), n_qubits)

    def pullback(g):
        d_u, lams = _backward(program, stash, g)
        return d_u, _angle_grads(program, stash, lams)

    return ad.record_op(m, ad.shared_pullback((u, angles), pullback))


# ---------------------------------------------------------------------------
# trainable module


@dataclass
class DeepXyzParams:
    """Trainable circuit angles, one row per ansatz repetition."""

    angles: Tensor
    n_qubits: int

    def __post_init__(self):
        if not isinstance(self.angles, Tensor):
            self.angles = Tensor(self.angles)
        want = per_rep_param_count(self.n_qubits)
        if self.angles.cols != want:
            raise ValueError(
                f"expected {want} angles per repetition, got {self.angles.cols}")
        if self.angles.rows < 1:
            raise ValueError("the ansatz needs at least one repetition")

    @property
    def reps(self) -> int:
        return self.angles.rows

    @property
    def count(self) -> int:
        return self.angles.rows * self.angles.cols

    @classmethod
    def init(cls, n_qubits: int, reps: int,
             rng: np.random.Generator) -> "DeepXyzParams":
        shape = (reps, per_rep_param_count(n_qubits))
        return cls(Tensor(rng.uniform(-INIT_ANGLE, INIT_ANGLE, size=shape)),
                   n_qubits)


def _unchanged(g: np.ndarray) -> np.ndarray:
    return g


def _normalized(w: np.ndarray) -> tuple:
    """(W / sigma(W), its pullback), sigma = ``contraction.spectral_norm``.

    sigma's derivative is u_1 v_1ᵀ, so the pullback of W / sigma is
    G -> (G - <G, W / sigma> u_1 v_1ᵀ) / sigma.  Only a pullback needs the
    singular vectors, so it takes them, from W / sigma, which no optimizer
    step edits.  A zero map is returned as is, with the identity pullback.
    """
    sigma = spectral_norm(w)
    if sigma < NORM_GUARD:
        return w, _unchanged
    out = w / sigma

    def back(g):
        u, _, vt = np.linalg.svd(out, full_matrices=False)
        return (g - np.vdot(g, out) * np.outer(u[:, 0], vt[0])) / sigma

    return out, back


class QuantumModule:
    """W_in / ansatz / W_out stack applied row-wise to node states.

    With ``spectral_normalize`` the maps enter the circuit as W / sigma(W),
    recomputed exactly from the live weights on every call, so the module
    holds no normalization state.  ``rng`` is unused; it stays because the
    acceptance tests pass it.
    """

    def __init__(self, w_in, w_out, params: DeepXyzParams,
                 spectral_normalize: bool = False, rng=None):
        self.w_in = w_in if isinstance(w_in, Tensor) else Tensor(w_in)
        self.w_out = w_out if isinstance(w_out, Tensor) else Tensor(w_out)
        self.params = params
        self.n_qubits = params.n_qubits
        if self.w_in.rows != self.n_qubits or self.w_out.cols != self.n_qubits:
            raise ValueError("map shapes must match the qubit count")
        self.spectral_normalize = bool(spectral_normalize)

    @property
    def d_in(self) -> int:
        return self.w_in.cols

    @property
    def d_out(self) -> int:
        return self.w_out.rows

    def refresh_normalization(self, iters: int = 1) -> None:
        """No-op: the normalization has no state to advance.  It and ``iters``
        stay because the acceptance tests call it."""

    def maps(self) -> tuple:
        """((W_in', pullback), (W_out', pullback)): the arrays the circuit
        sees, each with the pullback of its cotangent onto the weight."""
        return tuple(_normalized(w.data) if self.spectral_normalize
                     else (w.data, _unchanged) for w in (self.w_in, self.w_out))

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("w_in", self.w_in), ("w_out", self.w_out),
                ("angles", self.params.angles)]

    def forward_rows(self, s: Tensor) -> Tensor:
        """Apply the module to every row of ``s``; returns (N, d_out),
        recorded as one op: :meth:`ModulePlan.linearize` at the rows.  With
        no active tape it runs the plan alone, with no stash to pull back."""
        if s.cols != self.d_in:
            raise ValueError(f"expected {self.d_in} input columns, got {s.cols}")
        if ad._active_tape() is None:
            return Tensor(ModulePlan(self)(s.data))
        value, _, vjp = ModulePlan(self).linearize(s.data)
        return ad.record_op(value, ad.shared_pullback(
            (s, self.w_in, self.w_out, self.params.angles), vjp))


class ModulePlan:
    """The module at its live weights, as plain NumPy maps on row stacks.

    Built once per ``forward_rows`` call, once per solve, or once per
    certificate analysis and shared by its chunk plans and module budget:
    the effective maps (one spectral norm each under normalization) with
    their pullbacks, and the compiled program.  Calling the plan equals
    the value :meth:`linearize` returns, bit for bit.
    """

    def __init__(self, module: QuantumModule):
        (self.w_in, self._w_in_back), (self.w_out, self._w_out_back) = \
            module.maps()
        self.n_qubits = module.n_qubits
        self.program = _compile(module.params.angles.data, self.n_qubits)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        u = np.tanh(s @ self.w_in.T)
        m = _expectations(_run_program(u, self.program), self.n_qubits)
        return m @ self.w_out.T

    def linearize(self, s: np.ndarray) -> tuple:
        """(q(s), jt, vjp) from one stashed run at the rows s.

        ``jt(g)`` is J(s)ᵀ g for cotangent rows g, J the row-wise Jacobian:
        ((g W_out) · Jm ⊙ (1 - t²)) W_in, t = tanh(s W_inᵀ), with the
        per-row Jacobian Jm of the expectations in the encoding angles,
        (N, n_q, n_q), read on the first call from one adjoint sweep per
        output qubit.  ``vjp(g)`` gives the cotangents of
        (s, W_in, W_out, angles): one adjoint sweep gives the state and
        angle cotangents, and the map cotangents are pulled back through
        the normalization.  Value and cotangents equal the module recorded
        op by op, with the circuit as ``circuit_expectations``, bit for bit.
        """
        t = np.tanh(s @ self.w_in.T)
        dt = 1.0 - t * t
        stash: list = []
        m = _expectations(_run_program(t, self.program, stash), self.n_qubits)
        jm = None

        def jt(g: np.ndarray) -> np.ndarray:
            nonlocal jm
            if jm is None:
                jm = np.empty((len(t), self.n_qubits, self.n_qubits))
                seed = np.zeros_like(t)
                for a in range(self.n_qubits):
                    seed[:, a] = 1.0
                    jm[:, a] = _backward(self.program, stash, seed)[0]
                    seed[:, a] = 0.0
            d_u = np.einsum("ia,iab->ib", g @ self.w_out, jm)
            return (d_u * dt) @ self.w_in

        def vjp(g: np.ndarray) -> tuple:
            d_t, lams = _backward(self.program, stash, g @ self.w_out)
            d_pre = d_t * dt
            return (d_pre @ self.w_in, self._w_in_back((s.T @ d_pre).T),
                    self._w_out_back((m.T @ g).T),
                    _angle_grads(self.program, stash, lams))

        return m @ self.w_out.T, jt, vjp


def qmodule_forward(module: QuantumModule, s) -> np.ndarray:
    """Module output for a single input vector, without recording."""
    return ModulePlan(module)(np.asarray(s, dtype=np.float64).reshape(1, -1))[0]


def parameter_shift_grad(module: QuantumModule, s, index: int) -> np.ndarray:
    """d q(s) / d theta_index via the two-point shift rule.

    Exact for every gate here because each generator P / 2 has
    eigenvalues +-1/2: dm/dth = (m(th + pi/2) - m(th - pi/2)) / 2.
    """
    total = module.params.count
    if not 0 <= index < total:
        raise IndexError(f"parameter index {index} out of range [0, {total})")
    row = np.asarray(s, dtype=np.float64).reshape(1, -1)
    (w_in, _), (out_map, _) = module.maps()
    u = np.tanh(row @ w_in.T)
    n_q = module.n_qubits

    def measure(shift: float) -> np.ndarray:
        ang = module.params.angles.data.copy()
        ang.reshape(-1)[index] += shift
        return _expectations(_run_program(u, _compile(ang, n_q)), n_q)[0]

    dm = (measure(np.pi / 2) - measure(-np.pi / 2)) / 2.0
    return out_map @ dm
