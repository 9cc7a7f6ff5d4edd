import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (apply_on_copies, chunked_empirical_lipschitz,
                     reference_analyze_operator, reference_empirical_lipschitz)

import gdeq.autodiff as ad
from gdeq import contraction, quantum
from gdeq.autodiff import Tensor
from gdeq.contraction import (PathwayAnalysis, _pairs_per_call,
                              analyze_operator, empirical_lipschitz,
                              lemma2_bound, spectral_norm, theorem_bounds)
from gdeq.graphs import BlockAdjacency, normalize_adjacency
from gdeq.operators import BackboneParams, EquilibriumOperator, GraphContext
from gdeq.quantum import DeepXyzParams, QuantumModule


def test_spectral_norm_identity_and_diag():
    assert abs(spectral_norm(np.eye(3)) - 1.0) <= 1e-12
    assert abs(spectral_norm(np.diag([3.0, 1.0, 0.5])) - 3.0) <= 1e-10
    assert spectral_norm(np.zeros((4, 2))) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = rng.normal(size=(10, 10))
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(spectral_norm(m) - want) <= 1e-8


def test_spectral_norm_keeps_the_bits_of_the_matrix_two_norm():
    # np.linalg.norm(m, 2) takes the max of the same singular values
    rng = np.random.default_rng(25)
    cases = [np.zeros((4, 2)), np.zeros((1, 1)), np.eye(3)]
    for _ in range(200):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(rows, cols))
        rank = rng.integers(0, min(rows, cols) + 1)
        cases += [m, m[:, :rank] @ rng.normal(size=(rank, cols))]
    for m in cases:
        assert spectral_norm(m).hex() == float(np.linalg.norm(m, 2)).hex()


def test_spectral_norm_scaling_and_determinism():
    rng = np.random.default_rng(22)
    m = rng.normal(size=(6, 4))
    s1 = spectral_norm(m)
    assert abs(spectral_norm(3.5 * m) - 3.5 * s1) <= 1e-9
    assert abs(spectral_norm(-2.0 * m) - 2.0 * s1) <= 1e-9
    assert spectral_norm(m) == spectral_norm(m)


def make_module(n_q, d_in, d_out, rng, sn=False, scale=0.5):
    w_in = Tensor(rng.normal(scale=scale, size=(n_q, d_in)))
    w_out = Tensor(rng.normal(scale=scale, size=(d_out, n_q)))
    params = DeepXyzParams.init(n_q, 1, rng)
    return QuantumModule(w_in, w_out, params, spectral_normalize=sn)


def test_lemma2_identity_maps():
    rng = np.random.default_rng(23)
    module = QuantumModule(Tensor(np.eye(4)), Tensor(np.eye(4)),
                           DeepXyzParams.init(4, 1, rng))
    assert abs(lemma2_bound(module) - 4.0) <= 1e-9


def test_lemma2_zero_output_map():
    rng = np.random.default_rng(24)
    module = make_module(3, 5, 4, rng)
    module.w_out.data[:] = 0.0
    assert lemma2_bound(module) <= 1e-12


def node_level_ratios(module, rng, pairs):
    d = module.d_in
    scales = rng.choice([0.1, 1.0, 10.0], size=(pairs, 1))
    a = rng.normal(size=(pairs, d)) * scales
    b = np.where(rng.random((pairs, 1)) < 0.5,
                 a + rng.normal(scale=1e-3, size=(pairs, d)),
                 rng.normal(size=(pairs, d)) * scales)
    with ad.no_grad():
        fa = module.forward_rows(Tensor(a)).data
        fb = module.forward_rows(Tensor(b)).data
    num = np.linalg.norm(fa - fb, axis=1)
    den = np.linalg.norm(a - b, axis=1)
    keep = den > 1e-12
    return num[keep] / den[keep]


def test_node_level_lipschitz_respects_depth_aware_constant():
    # Each input angle is re-encoded 1 + 3*reps times; bounding every gate
    # perturbation gives the certified node-level constant
    # (1 + 3*reps) * n_q * sigma(W_out) * sigma(W_in).
    rng = np.random.default_rng(25)
    for trial in range(50):
        n_q = int(rng.integers(1, 5))
        d = int(rng.integers(2, 7))
        module = make_module(n_q, d, d, rng, sn=bool(trial % 2))
        reps = module.params.reps
        sharp = ((1 + 3 * reps) * n_q
                 * spectral_norm(module.w_out.data)
                 * spectral_norm(module.w_in.data))
        if module.spectral_normalize:
            (w_in_eff, _), (w_out_eff, _) = module.maps()
            sharp = ((1 + 3 * reps) * n_q * spectral_norm(w_out_eff)
                     * spectral_norm(w_in_eff))
        ratios = node_level_ratios(module, rng, 10_000)
        assert ratios.max() <= sharp + 1e-9, (trial, n_q, d)


def test_headline_budget_is_not_a_node_level_certificate():
    # With re-uploading, sampled node-level ratios can exceed
    # 2 sqrt(n_q) sigma sigma; the budget certifies pathway operators only
    # through the slack of the contractive backbone.
    rng = np.random.default_rng(25)
    exceeded = 0
    for trial in range(20):
        n_q = int(rng.integers(1, 5))
        d = int(rng.integers(2, 7))
        module = make_module(n_q, d, d, rng, sn=bool(trial % 2))
        ratios = node_level_ratios(module, rng, 2_000)
        if ratios.max() > lemma2_bound(module):
            exceeded += 1
    assert exceeded > 0


def test_theorem_bounds_worked_example():
    got = theorem_bounds(0.8, 0.1, 1.0)
    assert tuple(got) == (0.8, 0.88, 0.9)
    assert got.id == 0.8 and got.sd == 0.9 and got.bd == 0.88


def test_theorem_bounds_alpha_zero_collapses():
    got = theorem_bounds(0.7, 0.0, 5.0)
    assert got.id == got.sd == got.bd == 0.7


def test_theorem_bounds_domain():
    for bad in ((1.5, 0.1, 1.0), (-0.1, 0.1, 1.0), (0.5, -1.0, 1.0),
                (0.5, 0.1, -1.0)):
        with pytest.raises(ValueError):
            theorem_bounds(*bad)


def test_ordering_on_grid():
    for kappa in (0.0, 0.25, 0.5, 0.8, 1.0):
        for alq in (0.0, 0.1, 1.0, 10.0):
            got = theorem_bounds(kappa, 1.0, alq)
            assert got.id <= got.bd <= got.sd


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_ordering_property(kappa, alpha, lq):
    got = theorem_bounds(kappa, alpha, lq)
    assert got.id <= got.bd <= got.sd + 1e-15


def test_empirical_identity_and_halving():
    rng = np.random.default_rng(26)
    assert empirical_lipschitz(lambda z: z, (3, 4), rng, n_pairs=50) == 1.0
    rng = np.random.default_rng(26)
    got = empirical_lipschitz(lambda z: 0.5 * z, (3, 4), rng, n_pairs=50)
    assert abs(got - 0.5) <= 1e-12


@pytest.mark.parametrize("image", ["nan", "overflow"])
def test_non_finite_images_read_as_no_finite_constant(image):
    # a NaN ratio must not lose to max(), and an inf - inf image difference
    # is a NaN; the draws, and so the rng state, are those of a finite map
    def f(z):
        if image == "nan":
            return np.full_like(z, np.nan)
        with np.errstate(over="ignore"):
            return z * 1e308

    shape, n_pairs = (3, 2), 30
    rng, rng_finite = np.random.default_rng(26), np.random.default_rng(26)
    got = empirical_lipschitz(f, shape, rng, n_pairs=n_pairs)
    empirical_lipschitz(lambda z: z, shape, rng_finite, n_pairs=n_pairs)
    assert got == np.inf
    assert rng.bit_generator.state == rng_finite.bit_generator.state
    for oracle in (reference_empirical_lipschitz, chunked_empirical_lipschitz):
        assert oracle(f, shape, np.random.default_rng(26),
                      n_pairs=n_pairs) == np.inf
    analysis = PathwayAnalysis(kind="id", kappa=0.5, alpha=0.0, analytic=0.5,
                               empirical=got, pairs=n_pairs)
    assert not analysis.consistent
    assert "id.empirical=inf\n" in analysis.to_text()


def test_clipped_backbone_is_contractive_empirically():
    rng = np.random.default_rng(27)
    for _ in range(100):
        n, d_h = int(rng.integers(3, 7)), int(rng.integers(2, 6))
        bb = BackboneParams.init(d_h, d_h, 0.8, rng)
        a = (rng.random((n, n)) < 0.5).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        ctx = GraphContext(a_norm=ad.constant(normalize_adjacency(a)),
                           h=Tensor(rng.normal(size=(n, d_h))))
        op = EquilibriumOperator("classical", bb)
        got = analyze_operator(op, ctx, rng, n_pairs=60).empirical
        assert got <= 0.8 + 1e-9


def _random_normalized_adjacency(rng, n):
    a = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
    return normalize_adjacency(a + a.T)


# One dense block (51 pairs per application), four padded graphs of unequal
# sizes (16 rows, 16 pairs), and a graph too large to stack two probes of
# (260 rows, one pair).
LAYOUTS = {"dense": (5,), "padded": (3, 6, 2, 5), "large": (260,)}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", ["classical", "id", "sd", "bd"])
def test_batched_probes_match_one_pair_per_application(kind, layout):
    rng = np.random.default_rng(29)
    sizes = LAYOUTS[layout]
    d_h = 4
    mats = [_random_normalized_adjacency(rng, n) for n in sizes]
    a_norm = mats[0] if len(mats) == 1 else BlockAdjacency.stack(mats)
    n = sum(sizes)
    ctx = GraphContext(a_norm=a_norm, h=Tensor(rng.normal(size=(n, d_h))))
    bb = BackboneParams.init(d_h, d_h, 0.8, rng)
    module = None
    if kind != "classical":
        module = make_module(2, d_h, d_h, rng, sn=True)
    if kind == "id":
        ctx.q_id = Tensor(rng.normal(size=(n, d_h)))
    op = EquilibriumOperator(kind, bb, module, alpha=0.05)
    if len(mats) > 1:
        assert ctx.a_norm.rows is not None

    def f(zd):
        with ad.no_grad():
            return op.apply(Tensor(zd), ctx).data

    for n_pairs in (1, 60, 200):
        seed = (29, n_pairs)
        rng_batched = np.random.default_rng(seed)
        rng_oracle = np.random.default_rng(seed)
        got = analyze_operator(op, ctx, rng_batched, n_pairs=n_pairs)
        want = reference_empirical_lipschitz(f, (n, d_h), rng_oracle,
                                             n_pairs=n_pairs)
        assert got.pairs == n_pairs
        assert abs(got.empirical - want) <= 1e-12 * want, (n_pairs, got, want)
        assert (rng_batched.bit_generator.state
                == rng_oracle.bit_generator.state)


def _probe_case(kind, layout, rng):
    """An operator of pathway ``kind`` on a ``LAYOUTS[layout]`` context."""
    sizes = LAYOUTS[layout]
    d_h = 4
    mats = [_random_normalized_adjacency(rng, n) for n in sizes]
    n = sum(sizes)
    a_norm = mats[0] if len(mats) == 1 else BlockAdjacency.stack(mats)
    ctx = GraphContext(a_norm=a_norm, h=Tensor(rng.normal(size=(n, d_h))))
    bb = BackboneParams.init(d_h, d_h, 0.8, rng)
    module = None
    if kind != "classical":
        module = make_module(2, d_h, d_h, rng, sn=True)
    if kind == "id":
        ctx.q_id = Tensor(rng.normal(size=(n, d_h)))
    return EquilibriumOperator(kind, bb, module, alpha=0.05), ctx


# (n_pairs, oracle keyword arguments): a single pair, one of each kind,
# several chunks with a shorter last one, the default count; then every
# tight pair skipped (delta 0) and two scales, which shifts the scale of
# each pair against its parity.  The production side gets the same values
# by patching its PROBE_DELTA and PROBE_SCALES constants.
PROBE_RUNS = [(1, {}), (2, {}), (60, {}), (200, {}),
              (60, {"delta": 0.0}), (60, {"scales": (0.5, 3.0)})]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", ["classical", "id", "sd", "bd"])
def test_bulk_draws_match_pair_by_pair_draws_byte_for_byte(kind, layout,
                                                           monkeypatch):
    op, ctx = _probe_case(kind, layout, np.random.default_rng(30))
    f = apply_on_copies(op, ctx)
    shape = (ctx.h.rows, op.backbone.d_hidden)
    for n_pairs, kwargs in PROBE_RUNS:
        rng_bulk = np.random.default_rng((30, n_pairs))
        rng_oracle = np.random.default_rng((30, n_pairs))
        with monkeypatch.context() as patch:
            for name, value in kwargs.items():
                patch.setattr(contraction, "PROBE_" + name.upper(), value)
            got = empirical_lipschitz(f, shape, rng_bulk, n_pairs=n_pairs)
        want = chunked_empirical_lipschitz(f, shape, rng_oracle,
                                           n_pairs=n_pairs, **kwargs)
        assert got == want, (n_pairs, kwargs, got.hex(), want.hex())
        assert rng_bulk.bit_generator.state == rng_oracle.bit_generator.state
        if kwargs.get("delta") == 0.0 and n_pairs > 1:
            assert got > 0.0    # the independent pairs still count


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kind", ["classical", "id", "sd", "bd"])
def test_analyze_operator_plans_once_per_chunk_row_count(kind, layout,
                                                         monkeypatch):
    op, ctx = _probe_case(kind, layout, np.random.default_rng(31))
    n_pairs = 200
    want = reference_analyze_operator(op, ctx, np.random.default_rng(32),
                                      n_pairs=n_pairs)
    per_call = _pairs_per_call(ctx.h.rows)
    chunk_rows = {2 * ctx.h.rows * min(per_call, n_pairs - start)
                  for start in range(0, n_pairs, per_call)}

    planned = []
    plan = EquilibriumOperator.plan

    def counting_plan(self, c, *module):
        planned.append(c.h.rows)
        return plan(self, c, *module)

    def no_apply(self, z, c):
        raise AssertionError("analyze_operator ran the tape path")

    monkeypatch.setattr(EquilibriumOperator, "plan", counting_plan)
    monkeypatch.setattr(EquilibriumOperator, "apply", no_apply)
    got = analyze_operator(op, ctx, np.random.default_rng(32), n_pairs=n_pairs)
    assert sorted(planned) == sorted(chunk_rows)
    assert got == want


@pytest.mark.parametrize("kind", ["sd", "bd"])
def test_analyze_operator_reads_the_circuit_once(kind, monkeypatch):
    # 200 pairs on 16 rows: full chunks and a shorter last one, so two
    # chunk plans share the one module plan
    op, ctx = _probe_case(kind, "padded", np.random.default_rng(33))
    want = reference_analyze_operator(op, ctx, np.random.default_rng(34))
    compiled, svd_inputs, norms = [], [], []
    compile_, svd, norm = quantum._compile, np.linalg.svd, contraction.spectral_norm

    def counting_compile(*args):
        compiled.append(args)
        return compile_(*args)

    def counting_svd(a, *args, **kwargs):
        svd_inputs.append((np.array(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def counting_norm(m):
        norms.append(m)
        return norm(m)

    monkeypatch.setattr(quantum, "_compile", counting_compile)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(contraction, "spectral_norm", counting_norm)
    got = analyze_operator(op, ctx, np.random.default_rng(34))
    assert got == want
    assert len(compiled) == 1
    # no full SVD: one spectral norm (a singular-values-only SVD) per map
    # for its normalization, then one per normalized map for the budget
    maps = (op.quantum.w_in.data, op.quantum.w_out.data)
    assert [uv for _, uv in svd_inputs] == [False] * 4
    assert len(norms) == 2
    assert [a.tobytes() for a, _ in svd_inputs] == \
        [np.asarray(m).tobytes() for m in (*maps, *norms)]


@pytest.mark.parametrize("kind", ["sd", "bd"])
def test_analyze_operator_reads_weights_mutated_in_place(kind):
    op, ctx = _probe_case(kind, "padded", np.random.default_rng(35))
    before = analyze_operator(op, ctx, np.random.default_rng(36))
    rng = np.random.default_rng(37)
    module = op.quantum
    module.w_in.data += rng.normal(scale=0.5, size=module.w_in.data.shape)
    module.params.angles.data += rng.normal(size=module.params.angles.data.shape)
    got = analyze_operator(op, ctx, np.random.default_rng(36))
    fresh = EquilibriumOperator(kind, op.backbone, QuantumModule(
        Tensor(module.w_in.data.copy()), Tensor(module.w_out.data.copy()),
        DeepXyzParams(Tensor(module.params.angles.data.copy()), module.n_qubits),
        spectral_normalize=module.spectral_normalize), alpha=op.alpha)
    want = analyze_operator(fresh, ctx, np.random.default_rng(36))
    assert got == want
    assert got.lq != before.lq and got.empirical != before.empirical


@pytest.mark.parametrize("kind", ["classical", "id", "sd", "bd"])
def test_analyze_operator_certifies_clipped_operators(kind):
    rng = np.random.default_rng(28)
    n, d_h = 5, 4
    bb = BackboneParams.init(d_h, d_h, 0.8, rng)
    module = make_module(2, d_h, d_h, rng, sn=True)
    lq = lemma2_bound(module)
    alpha = 0.15 / lq  # leaves headroom under 1
    op = EquilibriumOperator(kind, bb, None if kind == "classical" else module,
                             alpha=alpha)
    a = np.ones((n, n)) - np.eye(n)
    ctx = GraphContext(a_norm=ad.constant(normalize_adjacency(a)),
                       h=Tensor(rng.normal(size=(n, d_h))))
    if kind == "id":
        ctx.q_id = Tensor(rng.normal(size=(n, d_h)))
    analysis = analyze_operator(op, ctx, rng, n_pairs=200)
    assert (analysis.kind, analysis.kappa, analysis.alpha) == (kind, 0.8, alpha)
    if kind in ("classical", "id"):
        assert analysis.lq is None
        assert analysis.analytic == 0.8
    else:
        assert analysis.lq == lq
        bound = getattr(theorem_bounds(0.8, alpha, lq), kind)
        assert analysis.analytic == bound
        formula = 0.8 + alpha * lq if kind == "sd" else 0.8 * (1 + alpha * lq)
        assert abs(bound - formula) <= 1e-12
    assert analysis.certified
    assert analysis.consistent


def test_analysis_text_golden_bytes():
    classical = PathwayAnalysis(kind="classical", kappa=0.8, alpha=0.1,
                                analytic=0.8, empirical=0.74, pairs=200)
    assert classical.to_text() == (
        "kappa=0.80000000000000004\n"
        "alpha=0.10000000000000001\n"
        "classical.analytic=0.80000000000000004\n"
        "classical.empirical=0.73999999999999999\n"
        "classical.pairs=200\n"
        "classical.certified=true\n"
        "classical.consistent=true\n")
    sd = PathwayAnalysis(kind="sd", kappa=0.8, alpha=0.1, analytic=1.2,
                         empirical=0.9, pairs=60, lq=4.0)
    assert sd.to_text() == (
        "kappa=0.80000000000000004\n"
        "alpha=0.10000000000000001\n"
        "sd.analytic=1.2\n"
        "sd.empirical=0.90000000000000002\n"
        "sd.pairs=60\n"
        "sd.lq=4\n"
        "sd.certified=false\n"
        "sd.consistent=true\n")
    # an estimate above its bound
    bd = PathwayAnalysis(kind="bd", kappa=0.8, alpha=0.1, analytic=0.9,
                         empirical=0.95, pairs=10)
    assert bd.certified and not bd.consistent
    assert bd.to_text().endswith("bd.certified=true\nbd.consistent=false\n")
