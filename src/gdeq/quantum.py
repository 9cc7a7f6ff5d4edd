"""State-vector simulation of the per-node quantum feature map.

The circuit follows an encode / entangle / measure shape: input angles
u = tanh(W_in s) are written onto the qubits with R_y rotations, a
repeated three-block ansatz with data re-uploading is applied (full
XYZ rotations + ZZ couplers, then XY rotations + XX couplers, then YZ
rotations + YY couplers, re-encoding u before each block), and the
per-qubit Pauli-Z expectations are read out and mixed by W_out.

Simulation is vectorized across rows.  ``circuit_expectations`` compiles
the program at the current angles into segments: each run of consecutive
parameter gates becomes one fused 2**n_q x 2**n_q unitary, applied to
all rows as one complex matmul, and each encoding layer is a set of
per-row R_y updates on a reshaped view.  States are amplitude-major,
(2**n_q, N), so the rows are the contiguous axis of every update.
Gradients are exact reverse-mode through the state: the output state of
every segment is stashed, the cotangent is pulled back through each
segment's adjoint, and each fused block yields all of its angle
gradients from one 2**n_q x 2**n_q matrix.  The parameter-shift rule is
provided separately as an independent route to the same angle
gradients.

Convention: qubit ``j`` owns bit ``n_q - 1 - j`` of the basis index,
i.e. qubit 0 is the most significant axis.  All rotation and coupler
gates use exp(-i * theta * P / 2) for Pauli (product) P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

NORM_GUARD = 1e-12


# ---------------------------------------------------------------------------
# gate program


class Gate(NamedTuple):
    kind: str              # rx | ry | rz | zz | xx | yy
    qubits: tuple          # (j,) or (j, j+1)
    source: tuple          # ("enc", qubit) or ("param", rep, col)


def per_rep_param_count(n_qubits: int) -> int:
    return 7 * n_qubits + 3 * max(n_qubits - 1, 0)


class _Layout(NamedTuple):
    block1: slice
    zz: slice
    block2: slice
    xx: slice
    block3: slice
    yy: slice


@lru_cache(maxsize=None)
def _layout(n_qubits: int) -> _Layout:
    n, e = n_qubits, max(n_qubits - 1, 0)
    c = 0
    spans = []
    for width in (3 * n, e, 2 * n, e, 2 * n, e):
        spans.append(slice(c, c + width))
        c += width
    return _Layout(*spans)


@lru_cache(maxsize=None)
def build_program(n_qubits: int, reps: int) -> tuple:
    """Full gate list: initial encoding plus ``reps`` ansatz repetitions."""
    lay = _layout(n_qubits)
    gates: list[Gate] = []

    def encode():
        gates.extend(Gate("ry", (j,), ("enc", j)) for j in range(n_qubits))

    encode()
    for r in range(reps):
        encode()
        for j in range(n_qubits):
            base = lay.block1.start + 3 * j
            gates.append(Gate("rx", (j,), ("param", r, base)))
            gates.append(Gate("ry", (j,), ("param", r, base + 1)))
            gates.append(Gate("rz", (j,), ("param", r, base + 2)))
        for j in range(n_qubits - 1):
            gates.append(Gate("zz", (j, j + 1), ("param", r, lay.zz.start + j)))
        encode()
        for j in range(n_qubits):
            base = lay.block2.start + 2 * j
            gates.append(Gate("rx", (j,), ("param", r, base)))
            gates.append(Gate("ry", (j,), ("param", r, base + 1)))
        for j in range(n_qubits - 1):
            gates.append(Gate("xx", (j, j + 1), ("param", r, lay.xx.start + j)))
        encode()
        for j in range(n_qubits):
            base = lay.block3.start + 2 * j
            gates.append(Gate("ry", (j,), ("param", r, base)))
            gates.append(Gate("rz", (j,), ("param", r, base + 1)))
        for j in range(n_qubits - 1):
            gates.append(Gate("yy", (j, j + 1), ("param", r, lay.yy.start + j)))
    return tuple(gates)


# ---------------------------------------------------------------------------
# vectorized kernels on amplitude-major (2**n_q, N) complex arrays


def _zero_states(n_rows: int, n_qubits: int) -> np.ndarray:
    states = np.zeros((2 ** n_qubits, n_rows), dtype=np.complex128)
    states[0] = 1.0
    return states


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int) -> np.ndarray:
    """(n_q, 2**n_q) matrix of Z eigenvalues per qubit and basis state."""
    dim = 2 ** n_qubits
    signs = np.empty((n_qubits, dim))
    for j in range(n_qubits):
        bit = (np.arange(dim) >> (n_qubits - 1 - j)) & 1
        signs[j] = 1.0 - 2.0 * bit
    return signs


def _resolve_theta(gate: Gate, u_rows: np.ndarray, angles: np.ndarray):
    if gate.source[0] == "enc":
        return u_rows[:, gate.source[1]]
    _, r, c = gate.source
    return float(angles[r, c])


# ---------------------------------------------------------------------------
# the program compiled into encoding layers and fused parameter blocks

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _generator(gate: Gate, n_qubits: int) -> np.ndarray:
    """Dense Pauli (product) P of ``gate`` on the full register."""
    pauli = _PAULI[gate.kind[-1]]
    out = np.ones((1, 1), dtype=np.complex128)
    for j in range(n_qubits):
        out = np.kron(out, pauli if j in gate.qubits else np.eye(2))
    return out


class _Segments(NamedTuple):
    """The angle-free layout of a program.

    ``blocks`` has one entry per segment: ``None`` for an encoding layer,
    else the slice of the parameter gates that the block fuses.
    """

    blocks: tuple
    index: tuple           # (reps, cols) of every parameter gate's angle
    paulis: np.ndarray     # (n_param_gates, 2**n_q, 2**n_q) generators


@lru_cache(maxsize=None)
def _segments(n_qubits: int, reps: int) -> _Segments:
    """Split the program into encoding layers and parameter blocks.

    ``build_program`` writes each encoding layer as qubits 0..n_q-1 in a
    row, so a layer starts at every encoding gate on qubit 0.
    """
    blocks: list = []
    params: list[Gate] = []
    for gate in build_program(n_qubits, reps):
        if gate.source[0] == "param":
            if blocks[-1] is None:  # the program opens with an encoding layer
                blocks.append(slice(len(params), len(params)))
            params.append(gate)
            blocks[-1] = slice(blocks[-1].start, len(params))
        elif gate.qubits[0] == 0:
            blocks.append(None)
    dim = 2 ** n_qubits
    index = tuple(np.array([g.source[i] for g in params], dtype=np.intp)
                  for i in (1, 2))
    paulis = np.array([_generator(g, n_qubits) for g in params],
                      dtype=np.complex128).reshape(-1, dim, dim)
    for arr in (*index, paulis):
        arr.setflags(write=False)
    return _Segments(tuple(blocks), index, paulis)


def _product(gates: np.ndarray) -> np.ndarray:
    """gates[-1] @ ... @ gates[0], multiplied pairwise in batches."""
    while len(gates) > 1:
        paired = gates[1::2] @ gates[:len(gates) - 1:2]
        if len(gates) % 2:
            paired = np.concatenate([paired, gates[-1:]])
        gates = paired
    return gates[0]


class _FusedBlock:
    """A run of parameter gates at fixed angles, and their product U."""

    def __init__(self, gates: np.ndarray, paulis: np.ndarray, index: tuple):
        self.gates = gates
        self.paulis = paulis
        self.index = index
        self.unitary = _product(gates)

    @cached_property
    def observables(self) -> np.ndarray:
        """Rows W_k P_k W_kᴴ, flattened, with W_k the gates after gate k.

        Gate k's angle gradient is Im tr(P_k C_k), where C = sum over rows
        of psi_out lambda_outᴴ is swept back to gate k as C_k = W_kᴴ C W_k;
        by the cyclic trace that is Im tr(W_k P_k W_kᴴ C).  Built on the
        first pullback and reused by every later one.
        """
        after = np.empty_like(self.gates)
        w = np.eye(self.gates.shape[1], dtype=np.complex128)
        for k in range(len(self.gates) - 1, -1, -1):
            after[k] = w
            w = w @ self.gates[k]
        obs = after @ self.paulis @ np.conj(np.swapaxes(after, 1, 2))
        return obs.reshape(len(obs), -1)


def _compile(angles: np.ndarray, n_qubits: int) -> tuple:
    """The program at ``angles``: ``None`` per encoding layer, else a block."""
    seg = _segments(n_qubits, angles.shape[0])
    half = 0.5 * angles[seg.index][:, None, None]
    gates = (np.cos(half) * np.eye(2 ** n_qubits)
             - 1j * np.sin(half) * seg.paulis)
    return tuple(None if span is None else
                 _FusedBlock(gates[span], seg.paulis[span],
                             (seg.index[0][span], seg.index[1][span]))
                 for span in seg.blocks)


def _half_turns(u_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(u / 2) as (n_q, 2N) and (-sin, +sin)(u / 2) as (n_q, 2, 1, 2N).

    Each row's value appears twice, once for the real and once for the
    imaginary part of an amplitude in the float view of the states.
    """
    half = np.repeat(0.5 * u_rows.T, 2, axis=1)
    sin = np.sin(half)
    return np.cos(half), np.stack([-sin, sin], axis=1)[:, :, None]


def _encode(states: np.ndarray, cos: np.ndarray,
            sin_pm: np.ndarray) -> np.ndarray:
    """One encoding layer, out of place: R_y(u_j) on qubit j of every row.

    R_y(u) maps each amplitude pair (a0, a1) of its qubit to
    cos(u/2) (a0, a1) + sin(u/2) (-a1, a0).  It is real, so it acts on the
    real and imaginary parts alike, and the rows stay the contiguous
    innermost axis of every update.
    """
    parts = states.view(np.float64)
    width = parts.shape[1]
    for q in range(len(cos)):
        v = parts.reshape(2 ** q, 2, -1, width)
        parts = cos[q] * v + sin_pm[q] * v[:, ::-1]
    return parts.reshape(len(states), width).view(np.complex128)


def _encoding_grad(lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Per-row angle gradient of one encoding layer, (N, n_q).

    The layer's gates commute with every generator Y_j in it, so gate j
    reads Im(lambdaᴴ Y_j psi) at the layer's output state psi and its
    cotangent lambda: Re(conj(lambda_1) psi_0 - conj(lambda_0) psi_1) over
    the amplitude pairs that differ in qubit j.
    """
    dim, n_rows = psi.shape
    n_qubits = dim.bit_length() - 1
    lam_bar = np.conj(lam)
    out = np.empty((n_rows, n_qubits))
    for q in range(n_qubits):
        lv = lam_bar.reshape(2 ** q, 2, -1, n_rows)
        pv = psi.reshape(2 ** q, 2, -1, n_rows)
        pairs = lv[:, 1] * pv[:, 0] - lv[:, 0] * pv[:, 1]
        out[:, q] = pairs.real.sum(axis=(0, 1))
    return out


def _run_program(u_rows: np.ndarray, program: tuple,
                 stash: list | None = None) -> np.ndarray:
    """Final amplitude-major states (2**n_q, N) of the rows of ``u_rows``.

    ``stash`` collects every segment's output state.
    """
    cos, sin_pm = _half_turns(u_rows)
    states = _zero_states(u_rows.shape[0], u_rows.shape[1])
    for fused in program:
        states = (_encode(states, cos, sin_pm) if fused is None
                  else fused.unitary @ states)
        if stash is not None:
            stash.append(states)
    return states


def _expectations(states: np.ndarray, n_qubits: int) -> np.ndarray:
    """(N, n_q) Pauli-Z expectations of amplitude-major states (2**n_q, N)."""
    return (_z_signs(n_qubits) @ (states.real ** 2 + states.imag ** 2)).T


def _backward(u_rows: np.ndarray, angle_shape: tuple, program: tuple,
              stash: list, g_m: np.ndarray):
    """Adjoint sweep: cotangent on expectations -> (dU, dAngles).

    The state cotangent lambda = dL/dpsi* starts at the final state and is
    pulled back one segment at a time, to the output of the segment before
    it: through a fused block as lambda <- Uᴴ lambda, through an encoding
    layer by R_y(-u).  Each segment reads its gradients at its own output
    state ``stash[k]`` and cotangent.
    """
    cos, sin_pm = _half_turns(u_rows)
    sin_back = -sin_pm
    lam = (_z_signs(u_rows.shape[1]).T @ g_m.T) * stash[-1]
    d_u = np.zeros_like(u_rows)
    d_ang = np.zeros(angle_shape)
    for k in range(len(program) - 1, -1, -1):
        fused, psi = program[k], stash[k]
        if fused is None:
            d_u += _encoding_grad(lam, psi)
            if k:
                lam = _encode(lam, cos, sin_back)
        else:
            c_t = np.conj(lam) @ psi.T          # transpose of C
            d_ang[fused.index] = (fused.observables @ c_t.reshape(-1)).imag
            if k:
                lam = np.conj(fused.unitary).T @ lam
    return d_u, d_ang


def circuit_expectations(u: Tensor, angles: Tensor, n_qubits: int) -> Tensor:
    """Per-row Pauli-Z expectations of the ansatz, as a differentiable op.

    ``u``: (N, n_q) encoding angles; ``angles``: (reps, per-rep count)
    trainable circuit angles.  Output is (N, n_q) in [-1, 1].  The program
    is compiled at the angles' current values on every call, and every
    pullback of the recorded op reuses that compiled program.
    """
    if u.cols != n_qubits:
        raise ValueError(f"expected {n_qubits} encoding angles, got {u.cols}")
    if angles.cols != per_rep_param_count(n_qubits):
        raise ValueError("angle row width does not match qubit count")
    u_rows = u.data
    angle_shape = angles.data.shape
    program = _compile(angles.data, n_qubits)
    stash: list | None = [] if ad._active_tape() is not None else None
    m = _expectations(_run_program(u_rows, program, stash), n_qubits)

    cache: dict = {}

    def shared(g):
        if cache.get("seed") is not g:
            cache["seed"] = g
            cache["grads"] = _backward(u_rows, angle_shape, program, stash, g)
        return cache["grads"]

    return ad.record_op(
        m,
        [(u, lambda g: shared(g)[0]), (angles, lambda g: shared(g)[1])],
    )


# ---------------------------------------------------------------------------
# single-state helpers


@dataclass
class StateVector:
    """Amplitudes of one n-qubit register."""

    amplitudes: np.ndarray
    n_qubits: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def check_norm(self, tol: float = 1e-10) -> None:
        drift = abs(self.norm() - 1.0)
        if drift > tol:
            raise FloatingPointError(f"state norm drifted by {drift:.3e}")


def angle_encode(u) -> StateVector:
    """R_y(u_j) on each qubit of |0...0>; u entries must lie in (-1, 1)."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if not np.all(np.abs(u) < 1.0):
        raise ValueError("encoding angles must lie in (-1, 1)")
    n_q = u.shape[0]
    states = _encode(_zero_states(1, n_q), *_half_turns(u.reshape(1, -1)))
    out = StateVector(states[:, 0], n_q)
    out.check_norm()
    return out


def apply_deep_xyz(state: StateVector, params: "DeepXyzParams", u) -> StateVector:
    """Apply the repeated three-block ansatz with re-encoding of ``u``."""
    if params.n_qubits != state.n_qubits:
        raise ValueError("parameter and state qubit counts differ")
    u_rows = np.asarray(u, dtype=np.float64).reshape(1, -1)
    if u_rows.shape[1] != state.n_qubits:
        raise ValueError("one encoding angle per qubit required")
    states = state.amplitudes.reshape(-1, 1).astype(np.complex128)
    cos, sin_pm = _half_turns(u_rows)
    n_q = state.n_qubits
    # skip the initial encoding: already in `state`
    for fused in _compile(params.angles.data, n_q)[1:]:
        states = (_encode(states, cos, sin_pm) if fused is None
                  else fused.unitary @ states)
    out = StateVector(states[:, 0], n_q)
    out.check_norm()
    return out


def pauli_z_expectations(state: StateVector) -> np.ndarray:
    """<Z_j> for every qubit, each in [-1, 1]."""
    return _expectations(state.amplitudes.reshape(-1, 1), state.n_qubits)[0]


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

    @property
    def reps(self) -> int:
        return self.angles.rows

    @property
    def count(self) -> int:
        return self.angles.rows * self.angles.cols

    @classmethod
    def init(cls, n_qubits: int, reps: int, rng: np.random.Generator,
             scale: float = 0.1) -> "DeepXyzParams":
        shape = (reps, per_rep_param_count(n_qubits))
        return cls(Tensor(rng.uniform(-scale, scale, size=shape)), n_qubits)


def _power_iteration_update(w: np.ndarray, u: np.ndarray):
    """One two-sided power iteration; returns (sigma, u, v) or None on guard."""
    wu = w.T @ u
    nu = np.linalg.norm(wu)
    if nu < NORM_GUARD:
        return None
    v = wu / nu
    wv = w @ v
    nv = np.linalg.norm(wv)
    if nv < NORM_GUARD:
        return None
    u_new = wv / nv
    sigma = float(u_new @ w @ v)
    return sigma, u_new, v


class QuantumModule:
    """W_in / ansatz / W_out stack applied row-wise to node states."""

    def __init__(self, w_in, w_out, params: DeepXyzParams,
                 spectral_normalize: bool = False, rng=None):
        self.w_in = w_in if isinstance(w_in, Tensor) else Tensor(w_in)
        self.w_out = w_out if isinstance(w_out, Tensor) else Tensor(w_out)
        self.params = params
        self.n_qubits = params.n_qubits
        if self.w_in.rows != self.n_qubits or self.w_out.cols != self.n_qubits:
            raise ValueError("map shapes must match the qubit count")
        self.spectral_normalize = bool(spectral_normalize)
        rng = rng or np.random.default_rng(0)
        self._sn = {
            "in": {"u": rng.normal(size=self.w_in.rows), "v": None, "sigma": None},
            "out": {"u": rng.normal(size=self.w_out.rows), "v": None, "sigma": None},
        }
        if self.spectral_normalize:
            self.refresh_normalization()

    @property
    def d_in(self) -> int:
        return self.w_in.cols

    @property
    def d_out(self) -> int:
        return self.w_out.rows

    def refresh_normalization(self, iters: int = 1) -> None:
        """Advance the persistent power-iteration state; no-op when disabled."""
        if not self.spectral_normalize:
            return
        for key, w in (("in", self.w_in.data), ("out", self.w_out.data)):
            state = self._sn[key]
            for _ in range(iters):
                upd = _power_iteration_update(w, state["u"])
                if upd is None:
                    state["sigma"] = None  # zero map: leave unchanged
                    break
                state["sigma"], state["u"], state["v"] = upd

    def _effective(self, key: str, w: Tensor) -> Tensor:
        state = self._sn[key]
        if not self.spectral_normalize or state["sigma"] is None:
            return w
        # sigma = u^T W v with u, v held constant; gradient flows through W.
        u_row = ad.constant(state["u"].reshape(1, -1))
        v_col = ad.constant(state["v"].reshape(-1, 1))
        sigma = ad.matmul(ad.matmul(u_row, w), v_col)
        return ad.mul_scalar(w, ad.reciprocal(sigma))

    def effective_maps(self) -> tuple[Tensor, Tensor]:
        return self._effective("in", self.w_in), self._effective("out", self.w_out)

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("w_in", self.w_in), ("w_out", self.w_out),
                ("angles", self.params.angles)]

    def with_tensors(self, w_in: Tensor, w_out: Tensor,
                     angles: Tensor) -> "QuantumModule":
        """Rebind onto other tensors, sharing the frozen normalization state."""
        clone = object.__new__(QuantumModule)
        clone.w_in = w_in
        clone.w_out = w_out
        clone.params = DeepXyzParams(angles, self.n_qubits)
        clone.n_qubits = self.n_qubits
        clone.spectral_normalize = self.spectral_normalize
        clone._sn = self._sn
        return clone

    def forward_rows(self, s: Tensor) -> Tensor:
        """Apply the module to every row of ``s``; returns (N, d_out)."""
        if s.cols != self.d_in:
            raise ValueError(f"expected {self.d_in} input columns, got {s.cols}")
        w_in_eff, w_out_eff = self.effective_maps()
        u = ad.tanh(ad.matmul(s, ad.transpose(w_in_eff)))
        m = circuit_expectations(u, self.params.angles, self.n_qubits)
        return ad.matmul(m, ad.transpose(w_out_eff))


def qmodule_forward(module: QuantumModule, s) -> np.ndarray:
    """Module output for a single input vector, without recording."""
    row = np.asarray(s, dtype=np.float64).reshape(1, -1)
    with ad.no_grad():
        return module.forward_rows(Tensor(row)).data[0]


def spectral_normalize_maps(module: QuantumModule, iters: int = 1):
    """Advance normalization and return the effective map arrays."""
    module.refresh_normalization(iters)
    with ad.no_grad():
        w_in_eff, w_out_eff = module.effective_maps()
    return w_in_eff.data, w_out_eff.data


def parameter_shift_grad(module: QuantumModule, s, index: int) -> np.ndarray:
    """d q(s) / d theta_index via the two-point shift rule.

    Exact for every gate here because each generator P / 2 has
    eigenvalues +-1/2: dm/dth = (m(th + pi/2) - m(th - pi/2)) / 2.
    """
    total = module.params.count
    if not 0 <= index < total:
        raise IndexError(f"parameter index {index} out of range [0, {total})")
    row = np.asarray(s, dtype=np.float64).reshape(1, -1)
    with ad.no_grad():
        w_in_eff, w_out_eff = module.effective_maps()
        u = np.tanh(row @ w_in_eff.data.T)
        out_map = w_out_eff.data
    n_q = module.n_qubits
    r, c = divmod(index, module.params.angles.cols)

    def measure(shift: float) -> np.ndarray:
        ang = module.params.angles.data.copy()
        ang[r, c] += shift
        return _expectations(_run_program(u, _compile(ang, n_q)), n_q)[0]

    dm = (measure(np.pi / 2) - measure(-np.pi / 2)) / 2.0
    return out_map @ dm


def describe_circuit(module: QuantumModule, s) -> str:
    """Human-readable gate list with resolved angles, for debugging."""
    row = np.asarray(s, dtype=np.float64).reshape(1, -1)
    with ad.no_grad():
        w_in_eff, _ = module.effective_maps()
        u = np.tanh(row @ w_in_eff.data.T)
    lines = [f"qubits={module.n_qubits} reps={module.params.reps}"]
    for gate in build_program(module.n_qubits, module.params.reps):
        theta = _resolve_theta(gate, u, module.params.angles.data)
        theta = float(np.asarray(theta).reshape(-1)[0])
        where = ",".join(str(q) for q in gate.qubits)
        origin = ("encode u[%d]" % gate.source[1] if gate.source[0] == "enc"
                  else "theta[%d,%d]" % gate.source[1:])
        lines.append(f"{gate.kind.upper():>2s} q{where} angle={theta:+.6f} ({origin})")
    return "\n".join(lines)
