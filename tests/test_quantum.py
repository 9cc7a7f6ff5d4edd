"""Simulator against dense-unitary products; gradients against shift rule and FD."""

import numpy as np
import pytest

from gdeq import autodiff as ad
from gdeq import quantum as qm
from helpers import numeric_grad, rel_err

# --- independent dense oracle -------------------------------------------------

I2 = np.eye(2, dtype=complex)
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_gate(gate: qm.Gate, theta: float) -> np.ndarray:
    kind = gate.kind
    if kind in ("rx", "ry", "rz"):
        p = PAULI[kind[1]]
        return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * p
    p = PAULI[kind[0]]
    pp = np.kron(p, p)
    return np.cos(theta / 2) * np.eye(4, dtype=complex) - 1j * np.sin(theta / 2) * pp


def embed(mat: np.ndarray, n_q: int, qubits: tuple) -> np.ndarray:
    # qubit 0 is the most significant factor of the kron chain
    ops = []
    k = 0
    while k < n_q:
        if k == qubits[0]:
            ops.append(mat)
            k += len(qubits)
        else:
            ops.append(I2)
            k += 1
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def oracle_state(u: np.ndarray, angles: np.ndarray, n_q: int) -> np.ndarray:
    psi = np.zeros(2 ** n_q, dtype=complex)
    psi[0] = 1.0
    for gate in qm.build_program(n_q, angles.shape[0]):
        if gate.source[0] == "enc":
            theta = float(u[gate.source[1]])
        else:
            theta = float(angles[gate.source[1], gate.source[2]])
        psi = embed(dense_gate(gate, theta), n_q, gate.qubits) @ psi
    return psi


def oracle_expectations(psi: np.ndarray, n_q: int) -> np.ndarray:
    out = np.empty(n_q)
    for j in range(n_q):
        zj = embed(PAULI["z"], n_q, (j,))
        out[j] = np.real(np.conj(psi) @ zj @ psi)
    return out


def random_module(rng, n_q, d_in, d_out, reps=1, normalize=False):
    params = qm.DeepXyzParams.init(n_q, reps, rng)
    w_in = rng.normal(size=(n_q, d_in)) / np.sqrt(d_in)
    w_out = rng.normal(size=(d_out, n_q)) / np.sqrt(n_q)
    return qm.QuantumModule(w_in, w_out, params, spectral_normalize=normalize,
                            rng=np.random.default_rng(rng.integers(2 ** 31)))


# --- structure ---------------------------------------------------------------

def test_per_rep_param_count():
    assert qm.per_rep_param_count(4) == 37
    assert qm.per_rep_param_count(1) == 7
    assert qm.per_rep_param_count(2) == 17


def test_program_order_two_qubits():
    kinds = [(g.kind, g.qubits, g.source[0]) for g in qm.build_program(2, 1)]
    expected = (
        [("ry", (0,), "enc"), ("ry", (1,), "enc")] * 2
        + [("rx", (0,), "param"), ("ry", (0,), "param"), ("rz", (0,), "param"),
           ("rx", (1,), "param"), ("ry", (1,), "param"), ("rz", (1,), "param"),
           ("zz", (0, 1), "param")]
        + [("ry", (0,), "enc"), ("ry", (1,), "enc")]
        + [("rx", (0,), "param"), ("ry", (0,), "param"),
           ("rx", (1,), "param"), ("ry", (1,), "param"),
           ("xx", (0, 1), "param")]
        + [("ry", (0,), "enc"), ("ry", (1,), "enc")]
        + [("ry", (0,), "param"), ("rz", (0,), "param"),
           ("ry", (1,), "param"), ("rz", (1,), "param"),
           ("yy", (0, 1), "param")]
    )
    assert kinds == expected
    cols = [g.source[2] for g in qm.build_program(2, 1) if g.source[0] == "param"]
    assert cols == list(range(17))


def test_param_rows_validated():
    with pytest.raises(ValueError):
        qm.DeepXyzParams(np.zeros((1, 10)), 2)


def test_angle_init_range():
    rng = np.random.default_rng(0)
    p = qm.DeepXyzParams.init(4, 3, rng)
    assert p.angles.shape == (3, 37)
    assert np.all(np.abs(p.angles.data) <= 0.1)


# --- simulator vs oracle -------------------------------------------------------

def test_angle_encode_z_expectation_is_cosine():
    u = np.array([0.3, -0.7, 0.05])
    state = qm.angle_encode(u)
    state.check_norm()
    assert np.allclose(qm.pauli_z_expectations(state), np.cos(u), atol=1e-12)


def test_angle_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        qm.angle_encode(np.array([0.2, 1.0]))


@pytest.mark.parametrize("n_q,reps", [(2, 1), (2, 2), (3, 1)])
def test_amplitudes_match_dense_product(n_q, reps):
    rng = np.random.default_rng(42 + n_q + reps)
    u = rng.uniform(-0.9, 0.9, size=n_q)
    params = qm.DeepXyzParams.init(n_q, reps, rng)
    state = qm.apply_deep_xyz(qm.angle_encode(u), params, u)
    want = oracle_state(u, params.angles.data, n_q)
    assert np.max(np.abs(state.amplitudes - want)) < 1e-12
    assert rel_err(qm.pauli_z_expectations(state),
                   oracle_expectations(want, n_q)) < 1e-12


GRID = [(n_q, reps) for n_q in (1, 2, 3, 4) for reps in (1, 2)]


@pytest.mark.parametrize("n_q,reps", GRID)
def test_compiled_program_matches_dense_product(n_q, reps):
    rng = np.random.default_rng(100 + 10 * n_q + reps)
    u = rng.uniform(-0.99, 0.99, size=(5, n_q))
    angles = rng.uniform(-np.pi, np.pi, size=(reps, qm.per_rep_param_count(n_q)))
    states = qm._run_program(u, qm._compile(angles, n_q))
    m = qm.circuit_expectations(ad.Tensor(u), ad.Tensor(angles), n_q).data
    for i in range(len(u)):
        want = oracle_state(u[i], angles, n_q)
        assert np.max(np.abs(states[:, i] - want)) < 1e-12
        assert np.max(np.abs(m[i] - oracle_expectations(want, n_q))) < 1e-12


def test_in_place_angle_update_reaches_the_next_call():
    # the optimizer edits angle arrays in place; no compiled program may
    # outlive the call that compiled it
    rng = np.random.default_rng(8)
    angles = ad.Tensor(rng.uniform(-0.5, 0.5, size=(1, qm.per_rep_param_count(3))))
    u = ad.Tensor(rng.uniform(-0.9, 0.9, size=(4, 3)))
    before = qm.circuit_expectations(u, angles, 3).data
    angles.data += 0.3
    after = qm.circuit_expectations(u, angles, 3).data
    want = [oracle_expectations(oracle_state(row, angles.data, 3), 3)
            for row in u.data]
    assert np.max(np.abs(after - before)) > 1e-3
    assert np.max(np.abs(after - np.array(want))) < 1e-12


def test_batched_rows_match_single_rows():
    rng = np.random.default_rng(7)
    n_q, n = 3, 5
    params = qm.DeepXyzParams.init(n_q, 1, rng)
    u_rows = rng.uniform(-0.9, 0.9, size=(n, n_q))
    batch = qm.circuit_expectations(ad.Tensor(u_rows), params.angles, n_q).data
    for i in range(n):
        state = qm.apply_deep_xyz(qm.angle_encode(u_rows[i]), params, u_rows[i])
        assert np.allclose(batch[i], qm.pauli_z_expectations(state), atol=1e-12)


def test_norm_preserved_and_expectations_bounded():
    rng = np.random.default_rng(3)
    for n_q in (1, 2, 4):
        params = qm.DeepXyzParams.init(n_q, 2, rng)
        u = rng.uniform(-0.99, 0.99, size=(6, n_q))
        states = qm._run_program(u, qm._compile(params.angles.data, n_q))
        norms = np.linalg.norm(states, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        m = qm._expectations(states, n_q)
        assert np.all(np.abs(m) <= 1.0 + 1e-12)


def test_norm_drift_guard_raises():
    bad = qm.StateVector(np.array([1.0, 1.0], dtype=complex), 1)
    with pytest.raises(FloatingPointError):
        bad.check_norm()


# --- gradients -----------------------------------------------------------------

@pytest.mark.parametrize("n_q,reps", GRID)
def test_circuit_gradients_match_fd(n_q, reps):
    rng = np.random.default_rng(11)
    n = 3
    u0 = rng.uniform(-0.8, 0.8, size=(n, n_q))
    ang0 = rng.uniform(-0.5, 0.5, size=(reps, qm.per_rep_param_count(n_q)))
    weight = rng.normal(size=(n, n_q))

    def loss_arrays(u_arr, ang_arr):
        program = qm._compile(ang_arr, n_q)
        m = qm._expectations(qm._run_program(u_arr, program), n_q)
        return float((weight * m).sum())

    tape = ad.Tape()
    u_t = tape.watch(ad.Tensor(u0))
    ang_t = tape.watch(ad.Tensor(ang0))
    with tape:
        m = qm.circuit_expectations(u_t, ang_t, n_q)
        loss = ad.sum_all(ad.mul(m, ad.constant(weight)))
    grads = tape.backward(loss)

    want_u = numeric_grad(lambda x: loss_arrays(x, ang0), u0.copy())
    want_a = numeric_grad(lambda x: loss_arrays(u0, x), ang0.copy())
    assert rel_err(grads[u_t], want_u) < 1e-8
    assert rel_err(grads[ang_t], want_a) < 1e-8


def test_parameter_shift_single_ry_gives_minus_sine():
    # W_in = 0 freezes every encoding at R_y(0); only block-1 R_y on the one
    # qubit is nonzero, so <Z> = cos(theta) and the rule must return -sin(theta).
    theta = 0.73
    angles = np.zeros((1, qm.per_rep_param_count(1)))
    angles[0, 1] = theta  # block-1 layout per qubit: (rx, ry, rz)
    module = qm.QuantumModule(np.zeros((1, 2)), np.ones((1, 1)),
                              qm.DeepXyzParams(angles, 1))
    got = qm.parameter_shift_grad(module, np.array([0.4, -0.2]), 1)
    assert abs(got[0] + np.sin(theta)) < 1e-12
    m = qm.qmodule_forward(module, np.array([0.4, -0.2]))
    assert abs(m[0] - np.cos(theta)) < 1e-12


def test_parameter_shift_index_validated():
    rng = np.random.default_rng(0)
    module = random_module(rng, 2, 3, 2)
    with pytest.raises(IndexError):
        qm.parameter_shift_grad(module, np.zeros(3), 17)


def test_gradient_triple_agreement():
    # backprop vs parameter-shift vs finite differences on full modules
    rng = np.random.default_rng(5)
    for trial in range(3):
        n_q = int(rng.integers(1, 5))
        d_in, d_out = 3, 2
        module = random_module(rng, n_q, d_in, d_out)
        s = rng.uniform(-1, 1, size=d_in)
        g_out = rng.normal(size=d_out)

        def scalar_from(w_in_a, w_out_a, ang_a):
            mod = qm.QuantumModule(w_in_a, w_out_a,
                                   qm.DeepXyzParams(ang_a, n_q))
            return float(g_out @ qm.qmodule_forward(mod, s))

        tape = ad.Tape()
        for _, t in module.tensors():
            tape.watch(t)
        with tape:
            out = module.forward_rows(ad.Tensor(s.reshape(1, -1)))
            loss = ad.sum_all(ad.mul(out, ad.constant(g_out.reshape(1, -1))))
        grads = tape.backward(loss)

        w_in0 = module.w_in.data.copy()
        w_out0 = module.w_out.data.copy()
        ang0 = module.params.angles.data.copy()
        fd_ang = numeric_grad(lambda a: scalar_from(w_in0, w_out0, a), ang0.copy())
        fd_win = numeric_grad(lambda a: scalar_from(a, w_out0, ang0), w_in0.copy())
        fd_wout = numeric_grad(lambda a: scalar_from(w_in0, a, ang0), w_out0.copy())

        assert rel_err(grads[module.params.angles], fd_ang) < 1e-6
        assert rel_err(grads[module.w_in], fd_win) < 1e-6
        assert rel_err(grads[module.w_out], fd_wout) < 1e-6

        shift = np.stack([
            qm.parameter_shift_grad(module, s, i) @ g_out
            for i in range(module.params.count)
        ]).reshape(ang0.shape)
        assert rel_err(shift, grads[module.params.angles]) < 1e-9
        assert rel_err(shift, fd_ang) < 1e-6


def test_output_bounded_by_w_out_row_l1():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n_q = int(rng.integers(1, 5))
        module = random_module(rng, n_q, 4, 3)
        s = rng.normal(scale=3.0, size=4)
        q = qm.qmodule_forward(module, s)
        bound = np.abs(module.w_out.data).sum(axis=1)
        assert np.all(np.abs(q) <= bound + 1e-12)


# --- spectral normalization -----------------------------------------------------

def test_normalization_converges_to_unit_norm():
    rng = np.random.default_rng(1)
    params = qm.DeepXyzParams.init(2, 1, rng)
    module = qm.QuantumModule(np.diag([3.0, 1.0]), rng.normal(size=(2, 2)),
                              params, spectral_normalize=True,
                              rng=np.random.default_rng(2))
    for _ in range(200):
        module.refresh_normalization()
    w_in_eff, w_out_eff = qm.spectral_normalize_maps(module, iters=0)
    assert abs(np.linalg.svd(w_in_eff, compute_uv=False)[0] - 1.0) < 1e-6
    assert abs(np.linalg.svd(w_out_eff, compute_uv=False)[0] - 1.0) < 1e-6


def test_normalization_zero_matrix_left_unchanged():
    params = qm.DeepXyzParams.init(2, 1, np.random.default_rng(0))
    module = qm.QuantumModule(np.zeros((2, 3)), np.ones((2, 2)), params,
                              spectral_normalize=True)
    w_in_eff, _ = qm.spectral_normalize_maps(module, iters=3)
    assert np.all(w_in_eff == 0.0)


def test_normalized_map_empirical_lipschitz_at_most_one():
    rng = np.random.default_rng(13)
    module = random_module(rng, 3, 5, 4, normalize=True)
    module.refresh_normalization(iters=300)
    w_in_eff, _ = qm.spectral_normalize_maps(module, iters=0)
    xs = rng.normal(size=(200, 5))
    ys = rng.normal(size=(200, 5))
    ratios = (np.linalg.norm((xs - ys) @ w_in_eff.T, axis=1)
              / np.linalg.norm(xs - ys, axis=1))
    assert np.max(ratios) <= 1.0 + 1e-6


def test_gradients_flow_through_frozen_normalization():
    rng = np.random.default_rng(21)
    module = random_module(rng, 2, 3, 2, normalize=True)
    module.refresh_normalization(iters=5)
    s = rng.normal(size=(2, 3))
    g_out = rng.normal(size=(2, 2))

    tape = ad.Tape()
    tape.watch(module.w_in)
    with tape:
        out = module.forward_rows(ad.Tensor(s))
        loss = ad.sum_all(ad.mul(out, ad.constant(g_out)))
    got = tape.backward(loss)[module.w_in]

    state = {k: dict(v) for k, v in module._sn.items()}  # freeze for FD

    def scalar(w):
        mod = qm.QuantumModule(w, module.w_out.data, module.params,
                               spectral_normalize=True)
        mod._sn = {k: dict(v) for k, v in state.items()}
        with ad.no_grad():
            out = mod.forward_rows(ad.Tensor(s))
        return float((out.data * g_out).sum())

    want = numeric_grad(scalar, module.w_in.data.copy())
    assert rel_err(got, want) < 1e-7


# --- misc ---------------------------------------------------------------------

def test_forward_deterministic():
    rng = np.random.default_rng(17)
    module = random_module(rng, 3, 4, 3)
    s = rng.normal(size=4)
    a = qm.qmodule_forward(module, s)
    b = qm.qmodule_forward(module, s)
    assert (a == b).all()


def test_describe_circuit_lists_every_gate():
    rng = np.random.default_rng(19)
    module = random_module(rng, 2, 3, 2)
    text = qm.describe_circuit(module, np.zeros(3))
    assert len(text.splitlines()) == 1 + len(qm.build_program(2, 1))
    assert "ZZ" in text and "XX" in text and "YY" in text
