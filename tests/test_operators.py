import numpy as np
import pytest

import gdeq.autodiff as ad
from gdeq.autodiff import Tensor
from gdeq.graphs import (BlockAdjacency, normalize_adjacency,
                         topology_descriptors)
from gdeq.operators import (BackboneParams, EquilibriumOperator, GraphContext,
                            clip_spectral)
from gdeq.quantum import DeepXyzParams, QuantumModule

from gdeq.solvers import SolverConfig, solve_fixed_point

from helpers import (backbone_apply, numeric_grad, propagate, rel_err,
                     replay_plan, solve_inputs, sum_all, tanh, tape_apply)


def make_backbone(d_h, d_in, rng, kappa=0.8):
    return BackboneParams.init(d_h, d_in, kappa, rng)


def make_module(n_q, d_in, d_out, rng, sn=False):
    w_in = Tensor(rng.normal(scale=0.4, size=(n_q, d_in)))
    w_out = Tensor(rng.normal(scale=0.4, size=(d_out, n_q)))
    params = DeepXyzParams.init(n_q, 1, rng)
    return QuantumModule(w_in, w_out, params, spectral_normalize=sn)


def make_context(n, d_h, rng, tau_dim=None):
    a = (rng.random((n, n)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    a_norm = normalize_adjacency(a)
    h = Tensor(rng.normal(size=(n, d_h)))
    ctx = GraphContext(a_norm=ad.constant(a_norm), h=h)
    tau = topology_descriptors(a) if tau_dim is None else rng.normal(size=(n, tau_dim))
    return a, ctx, tau


def test_clip_rescales_above_budget():
    w = Tensor(np.diag([2.0, 0.1]))
    sigma = clip_spectral(w, 0.8)
    assert abs(sigma - 2.0) <= 1e-10
    assert np.allclose(w.data, np.diag([0.8, 0.04]), atol=1e-12)


def test_clip_leaves_small_matrices_alone():
    w = Tensor(np.diag([0.5, 0.1]))
    before = w.data.copy()
    clip_spectral(w, 0.8)
    assert np.array_equal(w.data, before)


def test_init_respects_budget():
    rng = np.random.default_rng(3)
    bb = make_backbone(16, 5, rng, kappa=0.7)
    assert np.linalg.norm(bb.w.data, 2) <= 0.7 + 1e-9
    assert np.array_equal(bb.bias.data, np.zeros((1, 16)))
    with pytest.raises(ValueError):
        BackboneParams(Tensor(np.eye(2)), Tensor(np.eye(2)), Tensor(np.zeros((1, 2))), 0.0)


def test_backbone_matches_direct_formula():
    rng = np.random.default_rng(0)
    n, d_h, d_in = 5, 4, 3
    bb = make_backbone(d_h, d_in, rng)
    a, ctx, _ = make_context(n, d_h, rng)
    ctx = GraphContext(a_norm=ctx.a_norm, h=Tensor(rng.normal(size=(n, d_in))))
    z = Tensor(rng.normal(size=(n, d_h)))
    out = backbone_apply(bb, ctx.a_norm, ctx.h, z)
    want = np.tanh(normalize_adjacency(a) @ z.data @ bb.w.data.T
                   + ctx.h.data @ bb.omega.data.T
                   + bb.bias.data)
    assert np.allclose(out.data, want, atol=1e-14)


def random_blocks(rng, sizes):
    """Non-symmetric blocks, so a product by A and one by Aᵀ differ."""
    mats = [rng.normal(size=(n, n)) for n in sizes]
    dense = np.zeros((sum(sizes), sum(sizes)))
    row = 0
    for m in mats:
        dense[row:row + len(m), row:row + len(m)] = m
        row += len(m)
    return mats, dense


@pytest.mark.parametrize("sizes", [(3, 1, 5, 2), (4, 4), (6,), (1,)])
def test_block_product_and_vjp_match_the_dense_matrix(sizes):
    rng = np.random.default_rng(sum(sizes))
    mats, dense = random_blocks(rng, sizes)
    a_norm = BlockAdjacency.stack(mats)
    assert (a_norm.rows is None) == (len(set(sizes)) == 1)
    z = Tensor(rng.normal(size=(len(dense), 4)))
    seed = rng.normal(size=(len(dense), 4))
    tape = ad.Tape()
    tape.watch(z)
    with tape:
        out = propagate(a_norm, z)
    assert np.max(np.abs(out.data - dense @ z.data)) <= 1e-14
    assert np.max(np.abs(tape.vjp(out, seed)[z] - dense.T @ seed)) <= 1e-14


def test_dense_context_is_one_block():
    rng = np.random.default_rng(4)
    _, dense = random_blocks(rng, (5,))
    z = rng.normal(size=(5, 3))
    for given in (dense, ad.constant(dense)):
        ctx = GraphContext(a_norm=given, h=Tensor(np.zeros((5, 2))))
        assert ctx.a_norm.blocks.shape == (1, 5, 5) and ctx.a_norm.rows is None
        assert np.array_equal(ctx.a_norm.matmul(z), dense @ z)
        assert np.array_equal(ctx.a_norm.rmatmul(z), dense.T @ z)
    with pytest.raises(ValueError):
        ctx.a_norm.matmul(z[:4])


def test_alpha_zero_variants_match_classical_bitwise():
    rng = np.random.default_rng(1)
    n, d_h = 6, 4
    bb = make_backbone(d_h, d_h, rng)
    module = make_module(2, d_h, d_h, rng)
    _, ctx, _ = make_context(n, d_h, rng)
    z = Tensor(rng.normal(size=(n, d_h)))
    base = EquilibriumOperator("classical", bb).apply(z, ctx)
    for kind in ("sd", "bd"):
        out = EquilibriumOperator(kind, bb, module, alpha=0.0).apply(z, ctx)
        assert np.array_equal(out.data, base.data)


def test_zero_conditioning_equals_backbone_output():
    rng = np.random.default_rng(2)
    n, d_h = 5, 4
    bb = make_backbone(d_h, d_h, rng)
    module = make_module(2, d_h + 7, d_h, rng)
    module.w_out.data[:] = 0.0
    op = EquilibriumOperator("id", bb, module, alpha=0.1)
    a, ctx, _ = make_context(n, d_h, rng)
    ctx.q_id = op.compute_id_conditioning(ctx.h, topology_descriptors(a))
    z = Tensor(rng.normal(size=(n, d_h)))
    got = op.apply(z, ctx)
    want = backbone_apply(bb, ctx.a_norm, ctx.h, z)
    assert np.allclose(got.data, want.data, atol=0.0)


def test_conditioning_is_deterministic():
    rng = np.random.default_rng(4)
    n, d_h = 4, 3
    bb = make_backbone(d_h, d_h, rng)
    module = make_module(2, d_h + 7, d_h, rng)
    op = EquilibriumOperator("id", bb, module, alpha=0.1)
    a, ctx, _ = make_context(n, d_h, rng)
    tau = topology_descriptors(a)
    q1 = op.compute_id_conditioning(ctx.h, tau)
    q2 = op.compute_id_conditioning(ctx.h, tau)
    assert np.array_equal(q1.data, q2.data)


@pytest.mark.parametrize("kind", ["classical", "id", "sd", "bd"])
def test_permutation_equivariance(kind):
    rng = np.random.default_rng(7)
    n, d_h, n_q = 6, 4, 2
    bb = make_backbone(d_h, d_h, rng)
    d_modin = d_h + 7 if kind == "id" else d_h
    module = None if kind == "classical" else make_module(n_q, d_modin, d_h, rng)
    op = EquilibriumOperator(kind, bb, module, alpha=0.2)

    a, ctx, _ = make_context(n, d_h, rng)
    tau = topology_descriptors(a)
    if kind == "id":
        ctx.q_id = op.compute_id_conditioning(ctx.h, tau)
    z = rng.normal(size=(n, d_h))
    out = op.apply(Tensor(z), ctx).data

    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    a_p = p @ a @ p.T
    ctx_p = GraphContext(a_norm=ad.constant(normalize_adjacency(a_p)),
                         h=Tensor(ctx.h.data[perm]))
    if kind == "id":
        ctx_p.q_id = op.compute_id_conditioning(ctx_p.h, topology_descriptors(a_p))
    out_p = op.apply(Tensor(z[perm]), ctx_p).data
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_validation_errors():
    rng = np.random.default_rng(5)
    bb = make_backbone(4, 4, rng)
    module = make_module(2, 4, 4, rng)
    with pytest.raises(ValueError):
        EquilibriumOperator("warp", bb)
    with pytest.raises(ValueError):
        EquilibriumOperator("sd", bb)
    with pytest.raises(ValueError):
        EquilibriumOperator("sd", bb, module, alpha=-0.1)
    with pytest.raises(ValueError):
        EquilibriumOperator("sd", bb, make_module(2, 3, 4, rng), alpha=0.1)
    op = EquilibriumOperator("id", bb, make_module(2, 11, 4, rng), alpha=0.1)
    with pytest.raises(ValueError):
        op.apply(Tensor(np.zeros((3, 4))),
                 GraphContext(a_norm=ad.constant(np.eye(3)), h=Tensor(np.zeros((3, 4)))))


def test_tracked_tensors_by_pathway():
    rng = np.random.default_rng(6)
    bb = make_backbone(4, 4, rng)
    module = make_module(2, 4, 4, rng)
    assert len(EquilibriumOperator("classical", bb).tracked_tensors()) == 3
    assert len(EquilibriumOperator("sd", bb, module, alpha=0.0).tracked_tensors()) == 3
    assert len(EquilibriumOperator("sd", bb, module, alpha=0.1).tracked_tensors()) == 6
    # conditioning enters through ctx.q_id, so the module is not re-tracked
    id_op = EquilibriumOperator("id", bb, make_module(2, 11, 4, rng), alpha=0.1)
    assert len(id_op.tracked_tensors()) == 3


def plan_case(kind, sizes, alpha, seed=20):
    """(operator, context) on the blocks of ``sizes``, circuit maps
    spectrally normalized as in training."""
    rng = np.random.default_rng(seed)
    d_h, n_q = 5, 3
    bb = make_backbone(d_h, d_h, rng)
    d_in = d_h + 4 if kind == "id" else d_h
    module = None if kind == "classical" else make_module(
        n_q, d_in, d_h, rng, sn=kind != "id")
    op = EquilibriumOperator(kind, bb, module, alpha=alpha)
    mats, _ = random_blocks(rng, sizes)
    a_norm = BlockAdjacency.stack([0.3 * m for m in mats])
    h = Tensor(rng.normal(size=(sum(sizes), d_h)))
    ctx = GraphContext(a_norm=a_norm, h=h)
    if kind == "id":
        ctx.q_id = op.compute_id_conditioning(
            h, rng.normal(size=(sum(sizes), 4)))
    return op, ctx


PLAN_CASES = [(kind, sizes, alpha)
              for kind in ("classical", "id", "sd", "bd")
              for sizes, alpha in (((6,), 0.3), ((3, 6, 2, 5), 0.3),
                                   ((3, 6, 2, 5), 0.0))]


@pytest.mark.parametrize("kind,sizes,alpha", PLAN_CASES)
def test_plan_map_equals_apply_bitwise(kind, sizes, alpha):
    op, ctx = plan_case(kind, sizes, alpha)
    plan = op.plan(ctx)
    rng = np.random.default_rng(21)
    for _ in range(3):
        z = rng.normal(size=(sum(sizes), 5))
        want = tape_apply(op, Tensor(z), ctx).data
        assert np.array_equal(plan.f(z), want)
        assert np.array_equal(plan.linearize(z)[0], want)
        assert np.array_equal(op.apply(Tensor(z), ctx).data, want)


@pytest.mark.parametrize("kind,sizes,alpha", PLAN_CASES)
def test_plan_linearization_matches_the_tape_replay(kind, sizes, alpha):
    op, ctx = plan_case(kind, sizes, alpha)
    plan = op.plan(ctx)
    rep = solve_fixed_point(plan.f, np.zeros((sum(sizes), 5)),
                            SolverConfig(tol=1e-10))
    assert rep.converged
    value, got, _ = plan.linearize(rep.z_star)
    assert np.array_equal(value, plan.f(rep.z_star))
    _, want, _ = replay_plan(*solve_inputs(op, ctx)).linearize(rep.z_star)
    rng = np.random.default_rng(22)
    for _ in range(3):
        u = rng.normal(size=rep.z_star.shape)
        g, w = got(u), want(u)
        if kind in ("classical", "id") or alpha == 0.0:
            assert np.array_equal(g, w)
        else:
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("kind,sizes,alpha", PLAN_CASES)
def test_plan_parameter_cotangents_match_the_sub_tape(kind, sizes, alpha):
    op, ctx = plan_case(kind, sizes, alpha)
    plan = op.plan(ctx)
    oracle = replay_plan(*solve_inputs(op, ctx))
    assert plan.tensors == oracle.tensors
    rng = np.random.default_rng(23)
    for _ in range(3):
        z = rng.normal(size=(sum(sizes), 5))
        u = rng.normal(size=z.shape)
        value, _, vjp = plan.linearize(z)
        assert np.array_equal(value, plan.f(z))
        got, want = vjp(u), oracle.linearize(z)[2](u)
        assert len(got) == len(want) == len(plan.tensors)
        for i, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), i


@pytest.mark.parametrize("kind", ["sd", "bd"])
def test_unrecorded_apply_reads_no_circuit_jacobian(kind, monkeypatch):
    # the module's Jacobian is read on the first pullback, which an
    # unrecorded application never runs
    from gdeq import quantum

    def sweep(*args):
        raise AssertionError("adjoint sweep in an unrecorded apply")

    op, ctx = plan_case(kind, (3, 6, 2, 5), 0.3)
    z = np.random.default_rng(24).normal(size=(16, 5))
    want = op.plan(ctx).f(z)
    monkeypatch.setattr(quantum, "_backward", sweep)
    tape = ad.Tape()
    with tape, ad.no_grad():
        got = op.apply(tape.watch(Tensor(z)), ctx)
    assert got.tape is None
    assert np.array_equal(got.data, want)


def test_plan_needs_conditioning_on_the_id_pathway():
    op, ctx = plan_case("id", (4,), 0.1)
    with pytest.raises(ValueError):
        op.plan(GraphContext(a_norm=ctx.a_norm, h=ctx.h))


@pytest.mark.parametrize("kind", ["classical", "id", "sd", "bd"])
def test_single_application_gradients_match_fd(kind):
    rng = np.random.default_rng(10)
    n, d_h = 4, 3
    bb = make_backbone(d_h, d_h, rng)
    d_in = d_h + 7 if kind == "id" else d_h
    module = None if kind == "classical" else make_module(2, d_in, d_h, rng)
    op = EquilibriumOperator(kind, bb, module, alpha=0.25)
    _, ctx, tau = make_context(n, d_h, rng)
    if kind == "id":
        ctx.q_id = op.compute_id_conditioning(ctx.h, tau)
    z = Tensor(rng.normal(size=(n, d_h)))
    inputs = op.tracked_tensors() + [("h", ctx.h), ("z", z)]
    if kind == "id":
        inputs.append(("q_id", ctx.q_id))

    tape = ad.Tape()
    for _, t in inputs:
        tape.watch(t)
    with tape:
        loss = sum_all(tanh(op.apply(z, ctx)))
    grads = tape.backward(loss)

    def loss_for(t):
        def f(x):
            keep = t.data.copy()
            t.data[:] = x
            with ad.no_grad():
                val = sum_all(tanh(op.apply(z, ctx))).data[0, 0]
            t.data[:] = keep
            return val
        return f

    for name, t in inputs:
        fd = numeric_grad(loss_for(t), t.data.copy())
        assert rel_err(grads[t], fd) <= 1e-7, name
