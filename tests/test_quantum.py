"""Simulator against dense-unitary products; gradients against shift rule and FD."""

import numpy as np
import pytest

from gdeq import autodiff as ad
from gdeq import quantum as qm
from helpers import (numeric_grad, reference_compile, rel_err, sum_all,
                     tape_forward_rows)

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
    return qm.QuantumModule(w_in, w_out, params, spectral_normalize=normalize)


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
    for n_q in range(1, 5):
        width = qm.per_rep_param_count(n_q)
        for reps in range(4):
            sources = [g.source[1:] for g in qm.build_program(n_q, reps)
                       if g.source[0] == "param"]
            assert sources == [divmod(k, width) for k in range(reps * width)]


def test_param_rows_validated():
    with pytest.raises(ValueError):
        qm.DeepXyzParams(np.zeros((1, 10)), 2)


def test_angle_init_range():
    rng = np.random.default_rng(0)
    p = qm.DeepXyzParams.init(4, 3, rng)
    assert p.angles.shape == (3, 37)
    assert np.all(np.abs(p.angles.data) <= 0.1)


# --- simulator vs oracle -------------------------------------------------------

@pytest.mark.parametrize("n_q,reps", [(2, 1), (2, 2), (3, 1)])
def test_amplitudes_match_dense_product(n_q, reps):
    # one row on its own, and the normalized module output built on it
    rng = np.random.default_rng(42 + n_q + reps)
    module = random_module(rng, n_q, 3, 2, reps=reps, normalize=True)
    s = rng.normal(size=3)
    w_in = module.w_in.data / np.linalg.svd(module.w_in.data)[1][0]
    w_out = module.w_out.data / np.linalg.svd(module.w_out.data)[1][0]
    u = np.tanh(w_in @ s)
    angles = module.params.angles.data
    want = oracle_state(u, angles, n_q)
    state = qm._run_program(u.reshape(1, -1), qm._compile(angles, n_q))[:, 0]
    assert np.max(np.abs(state - want)) < 1e-12
    assert rel_err(qm.qmodule_forward(module, s),
                   w_out @ oracle_expectations(want, n_q)) < 1e-12


@pytest.mark.parametrize("n_q", [1, 2, 3, 4])
def test_encoding_layer_is_a_phase_in_the_frame(n_q):
    # W diag(Φ) Wᴴ is the dense ⊗_j R_y(u_j)
    rng = np.random.default_rng(20 + n_q)
    u = rng.uniform(-np.pi, np.pi, size=n_q)
    dense = np.ones((1, 1))
    for j in range(n_q):
        ry = dense_gate(qm.Gate("ry", (j,), ("enc", j)), u[j])
        dense = np.kron(dense, ry)
    w = qm._frame(n_q)
    phases = qm._phases(u.reshape(1, -1))[:, 0]
    assert np.max(np.abs(w @ np.diag(phases) @ np.conj(w.T) - dense)) < 1e-14


def seeded_phases(u_rows: np.ndarray) -> np.ndarray:
    """Φ grown from a row of ones by one factor pair per qubit, qubit 0
    outermost: Φ[b] = (((1 · f_0) · f_1) ...), f_j = e^{-iu_j/2} where bit
    j of b (most significant first) is 0 and its conjugate where it is 1."""
    n_rows, n_q = u_rows.shape
    phases = np.empty((2 ** n_q, n_rows), dtype=np.complex128)
    for b in range(2 ** n_q):
        value = np.ones(n_rows, dtype=np.complex128)
        for j in range(n_q):
            half = 0.5 * u_rows[:, j]
            turn = np.cos(half) - 1j * np.sin(half)
            value = value * (np.conj(turn) if b >> (n_q - 1 - j) & 1 else turn)
        phases[b] = value
    return phases


@pytest.mark.parametrize("angles", ["random", "zero", "half zero"])
@pytest.mark.parametrize("n_q", [1, 2, 3, 4])
def test_phases_keep_the_bytes_of_the_seeded_product(n_q, angles):
    # byte equality, so the sign of a zero imaginary part counts too: a
    # solve's first iterate at z = 0 has angles that are exactly 0
    rng = np.random.default_rng(60 + n_q)
    u = rng.uniform(-np.pi, np.pi, size=(9, n_q))
    if angles == "zero":
        u[:] = 0.0
    elif angles == "half zero":
        u[rng.random(u.shape) < 0.5] = 0.0
    got = qm._phases(u)
    want = seeded_phases(u)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("reps", [1, 2, 3])
@pytest.mark.parametrize("n_q", [1, 3])
def test_zero_angles_leave_only_the_uploads(n_q, reps):
    # with every angle 0 each block is the identity, so the circuit is u
    # uploaded once, then before each of the 3 ANSATZ rows per repetition:
    # <Z_j> = cos((1 + 3 reps) u_j), the count the contraction notes rest on
    uploads = 1 + 3 * reps
    rng = np.random.default_rng(30 + n_q + reps)
    u = rng.uniform(-0.99, 0.99, size=(4, n_q))
    angles = np.zeros((reps, qm.per_rep_param_count(n_q)))
    assert len(qm._compile(angles, n_q)) == len(qm.ANSATZ) * reps
    weight = rng.normal(size=u.shape)
    tape = ad.Tape()
    u_t = tape.watch(ad.Tensor(u))
    angles_t = tape.watch(ad.Tensor(angles))
    with tape:
        m = qm.circuit_expectations(u_t, angles_t, n_q)
        loss = sum_all(ad.mul(m, ad.constant(weight)))
    grads = tape.backward(loss)
    assert np.max(np.abs(m.data - np.cos(uploads * u))) < 1e-12
    assert rel_err(grads[u_t], -uploads * weight * np.sin(uploads * u)) < 1e-12
    assert grads[angles_t].shape == angles.shape


def test_zero_repetitions_are_rejected():
    n_q = 2
    angles = np.zeros((0, qm.per_rep_param_count(n_q)))
    with pytest.raises(ValueError, match="at least one repetition"):
        qm.DeepXyzParams(angles, n_q)
    with pytest.raises(ValueError, match="at least one repetition"):
        qm.circuit_expectations(ad.Tensor(np.zeros((3, n_q))),
                                ad.Tensor(angles), n_q)


GRID = [(n_q, reps) for n_q in (1, 2, 3, 4) for reps in (1, 2, 3)]


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


@pytest.mark.parametrize("n_q,reps", GRID)
def test_compiled_blocks_match_the_dense_gate_products(n_q, reps):
    # n_q = 1 has no couplers; the last block's left is the identity
    rng = np.random.default_rng(300 + 10 * n_q + reps)
    angles = rng.uniform(-np.pi, np.pi, size=(reps, qm.per_rep_param_count(n_q)))
    program = qm._compile(angles, n_q)
    want = reference_compile(angles, n_q)
    assert len(program) == len(want) == len(qm.ANSATZ) * reps
    for fused, unitary in zip(program, want):
        assert np.max(np.abs(fused.unitary - unitary)) < 1e-12
    assert np.array_equal(program[-1].left, np.eye(2 ** n_q))
    columns = np.arange(angles.size)
    assert np.array_equal(
        np.concatenate([columns[fused.span] for fused in program]), columns)


def counting_dense_gates(monkeypatch) -> list:
    """Patch ``_dense_gates`` to record the angles of every call."""
    built, dense_gates = [], qm._dense_gates

    def counting(angles, paulis):
        built.append(np.array(angles))
        return dense_gates(angles, paulis)

    monkeypatch.setattr(qm, "_dense_gates", counting)
    return built


def test_plans_off_the_tape_build_no_dense_gates(monkeypatch):
    # (certificate analyses: test_analyze_operator_reads_the_circuit_once)
    rng = np.random.default_rng(14)
    module = random_module(rng, 4, 5, 3, reps=2, normalize=True)
    built = counting_dense_gates(monkeypatch)
    qm.ModulePlan(module)(rng.normal(size=(6, 5)))
    module.forward_rows(ad.Tensor(rng.normal(size=(6, 5))))
    assert built == []


@pytest.mark.parametrize("n_q,reps", [(n_q, reps) for n_q in (1, 2, 3, 4)
                                      for reps in (1, 2)])
def test_a_pullback_builds_each_blocks_dense_gates_once(n_q, reps,
                                                         monkeypatch):
    rng = np.random.default_rng(400 + 10 * n_q + reps)
    module = random_module(rng, n_q, 3, 2, reps=reps, normalize=True)
    s = rng.normal(size=(2, 3))
    g = rng.normal(size=(2, 2))
    built = counting_dense_gates(monkeypatch)
    plan = qm.ModulePlan(module)
    vjp = plan.linearize(s)[2]
    assert built == []
    # the gates are built at the angles the plan was compiled at, even
    # after an in-place update of the live array
    live = module.params.angles.data
    compiled = live.copy()
    live += 1.0
    d_angles = vjp(g)[3]
    again = vjp(g)[3]
    live[...] = compiled
    assert len(built) == len(plan.program)
    for fused, angles in zip(plan.program, built):
        assert np.array_equal(angles, compiled.reshape(-1)[fused.span])
    assert np.array_equal(again, d_angles)
    shift = np.array([
        sum(g[i] @ qm.parameter_shift_grad(module, s[i], k)
            for i in range(len(s)))
        for k in range(module.params.count)]).reshape(d_angles.shape)
    assert rel_err(d_angles, shift) < 1e-10


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
        row = ad.Tensor(u_rows[i:i + 1])
        alone = qm.circuit_expectations(row, params.angles, n_q).data[0]
        assert np.allclose(batch[i], alone, atol=1e-12)


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
        loss = sum_all(ad.mul(m, ad.constant(weight)))
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
            loss = sum_all(ad.mul(out, ad.constant(g_out.reshape(1, -1))))
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


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("n_q,reps", GRID)
def test_forward_rows_equals_the_tape_formulation(n_q, reps, normalize):
    # one recorded op over the module plan against the circuit recorded op
    # by op: the value and every cotangent, bit for bit
    rng = np.random.default_rng(100 * n_q + 10 * reps + normalize)
    module = random_module(rng, n_q, 5, 3, reps=reps, normalize=normalize)
    s = rng.normal(size=(7, 5))
    g_out = rng.normal(size=(7, 3))
    results = []
    for forward in (qm.QuantumModule.forward_rows, tape_forward_rows):
        tape = ad.Tape()
        s_t = tape.watch(ad.Tensor(s))
        for _, t in module.tensors():
            tape.watch(t)
        with tape:
            out = forward(module, s_t)
        grads = tape.vjp(out, g_out)
        results.append([out.data, grads[s_t]] +
                       [grads[t] for _, t in module.tensors()])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_forward_rows_off_the_tape_runs_the_plan_without_a_stash(monkeypatch):
    # evaluation and certificates run the module with nothing to pull back
    rng = np.random.default_rng(12)
    module = random_module(rng, 3, 5, 4, reps=2, normalize=True)
    s = rng.normal(size=(6, 5))
    want = qm.ModulePlan(module).linearize(s)[0]
    run, stashes = qm._run_program, []

    def counting_run(u_rows, program, stash=None):
        stashes.append(stash)
        return run(u_rows, program, stash)

    monkeypatch.setattr(qm, "_run_program", counting_run)
    tape = ad.Tape()
    s_t = tape.watch(ad.Tensor(s))
    outs = [module.forward_rows(s_t)]
    with tape, ad.no_grad():
        outs.append(module.forward_rows(s_t))
    assert stashes == [None, None] and tape._records == []
    for out in outs:
        assert out.nid is None and out.data.tobytes() == want.tobytes()


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

def effective_arrays(module):
    return [w for w, _ in module.maps()]


def test_normalization_converges_to_unit_norm():
    # exact on a freshly built module, with no refresh call
    rng = np.random.default_rng(1)
    params = qm.DeepXyzParams.init(2, 1, rng)
    module = qm.QuantumModule(np.diag([3.0, 1.0]), rng.normal(size=(2, 2)),
                              params, spectral_normalize=True)
    for w_eff in effective_arrays(module):
        assert abs(np.linalg.svd(w_eff, compute_uv=False)[0] - 1.0) < 1e-12


def test_normalization_zero_matrix_left_unchanged():
    params = qm.DeepXyzParams.init(2, 1, np.random.default_rng(0))
    module = qm.QuantumModule(np.zeros((2, 3)), np.ones((2, 2)), params,
                              spectral_normalize=True)
    w_in_eff, _ = effective_arrays(module)
    assert np.all(w_in_eff == 0.0)


def test_normalized_map_empirical_lipschitz_at_most_one():
    rng = np.random.default_rng(13)
    module = random_module(rng, 3, 5, 4, normalize=True)
    w_in_eff, _ = effective_arrays(module)
    xs = rng.normal(size=(200, 5))
    ys = rng.normal(size=(200, 5))
    ratios = (np.linalg.norm((xs - ys) @ w_in_eff.T, axis=1)
              / np.linalg.norm(xs - ys, axis=1))
    assert np.max(ratios) <= 1.0 + 1e-6


def test_gradients_flow_through_frozen_normalization():
    # the tape differentiates through sigma(W), so plain FD must agree
    rng = np.random.default_rng(21)
    module = random_module(rng, 2, 3, 2, normalize=True)
    s = rng.normal(size=(2, 3))
    g_out = rng.normal(size=(2, 2))

    tape = ad.Tape()
    tape.watch(module.w_in)
    with tape:
        out = module.forward_rows(ad.Tensor(s))
        loss = sum_all(ad.mul(out, ad.constant(g_out)))
    got = tape.backward(loss)[module.w_in]

    def scalar(w):
        mod = qm.QuantumModule(w, module.w_out.data, module.params,
                               spectral_normalize=True)
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
