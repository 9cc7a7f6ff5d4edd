import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdeq.autodiff as ad
from gdeq.autodiff import Tensor
from gdeq.contraction import (LipschitzReport, PathwayAnalysis, analyze_operator,
                              empirical_lipschitz, lemma2_bound, pathway_bound,
                              spectral_norm, theorem_bounds)
from gdeq.graphs import normalize_adjacency
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
            from gdeq.quantum import spectral_normalize_maps
            for _ in range(60):
                w_in_eff, w_out_eff = spectral_normalize_maps(module)
            sharp = ((1 + 3 * reps) * n_q
                     * spectral_norm(w_out_eff) * spectral_norm(w_in_eff))
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


def test_theorem_bounds_separate_module_constants():
    got = theorem_bounds(0.5, 0.2, 2.0, 1.0)
    assert got.sd == 0.5 + 0.2 * 2.0
    assert got.bd == 0.5 * (1.0 + 0.2 * 1.0)


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


def test_pathway_bound_dispatch():
    assert pathway_bound("classical", 0.8, 0.5, None) == 0.8
    assert pathway_bound("id", 0.8, 0.5, None) == 0.8
    assert pathway_bound("sd", 0.8, 0.1, 1.0) == 0.9
    assert abs(pathway_bound("bd", 0.8, 0.1, 1.0) - 0.88) <= 1e-15
    with pytest.raises(ValueError):
        pathway_bound("sd", 0.8, 0.1, None)


def test_empirical_identity_and_halving():
    rng = np.random.default_rng(26)
    assert empirical_lipschitz(lambda z: z, (3, 4), rng, n_pairs=50) == 1.0
    rng = np.random.default_rng(26)
    got = empirical_lipschitz(lambda z: 0.5 * z, (3, 4), rng, n_pairs=50)
    assert abs(got - 0.5) <= 1e-12


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

        def f(zd):
            with ad.no_grad():
                return op.apply(Tensor(zd), ctx).data

        got = empirical_lipschitz(f, (n, d_h), rng, n_pairs=60)
        assert got <= 0.8 + 1e-9


def test_analyze_operator_certifies_clipped_state_coupling():
    rng = np.random.default_rng(28)
    n, d_h = 5, 4
    bb = BackboneParams.init(d_h, d_h, 0.8, rng)
    module = make_module(2, d_h, d_h, rng, sn=True)
    lq = lemma2_bound(module)
    alpha = 0.15 / lq  # leaves headroom under 1
    op = EquilibriumOperator("sd", bb, module, alpha=alpha)
    a = np.ones((n, n)) - np.eye(n)
    ctx = GraphContext(a_norm=ad.constant(normalize_adjacency(a)),
                       h=Tensor(rng.normal(size=(n, d_h))))
    analysis = analyze_operator(op, ctx, rng, n_pairs=200)
    assert analysis.kind == "sd"
    assert abs(analysis.analytic - (0.8 + alpha * lq)) <= 1e-12
    assert analysis.certified
    assert analysis.consistent


def test_report_serialization_and_violations():
    rep = LipschitzReport(kappa=0.8, alpha=0.1)
    rep.add(PathwayAnalysis(kind="id", analytic=0.8, empirical=0.74, pairs=200))
    rep.add(PathwayAnalysis(kind="sd", analytic=1.2, empirical=0.9,
                            pairs=200, lq=4.0))
    assert rep.violations() == []
    assert not rep.entries["sd"].certified
    text = rep.to_text()
    assert "kappa=0.80000000000000004" in text or "kappa=0.8" in text
    assert "sd.lq=4" in text
    assert "id.certified=true" in text
    assert "sd.certified=false" in text

    rep.add(PathwayAnalysis(kind="bd", analytic=0.9, empirical=0.95, pairs=10))
    assert rep.violations() == ["bd"]
