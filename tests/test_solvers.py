import warnings
from dataclasses import fields

import numpy as np
import pytest

import gdeq.autodiff as ad
from gdeq.autodiff import Tensor
from gdeq.solvers import (OUTCOMES, SolverConfig, anderson_solve,
                          equilibrium_solve, picard_solve, solve_fixed_point)

from helpers import (numeric_grad, reference_anderson_solve,
                     reference_picard_solve, rel_err, replay_plan, scale,
                     sum_all, tanh)

# each solver with the window of the re-stacking oracle it runs
SOLVERS = [(picard_solve, 1), (anderson_solve, 5)]


def scaled_to(m, sigma):
    return m * (sigma / np.linalg.norm(m, 2))


@pytest.mark.parametrize("method", ["picard", "anderson"])
def test_scalar_linear_fixed_point(method):
    cfg = SolverConfig(method=method, tol=1e-10)
    rep = solve_fixed_point(lambda z: 0.5 * z + 1.0, np.zeros((1, 1)), cfg)
    assert rep.converged
    assert abs(rep.z_star[0, 0] - 2.0) <= 1e-9


@pytest.mark.parametrize("method", ["picard", "anderson"])
def test_identity_map_stops_immediately(method):
    cfg = SolverConfig(method=method)
    z0 = np.arange(6.0).reshape(2, 3)
    rep = solve_fixed_point(lambda z: z, z0, cfg)
    assert rep.converged and rep.iterations == 1 and rep.residual == 0.0
    assert np.array_equal(rep.z_star, z0)


def test_anderson_constant_map_two_iterations():
    cfg = SolverConfig(method="anderson", tol=1e-12)
    c = np.array([[3.0, -1.0]])
    rep = anderson_solve(lambda z: 0.0 * z + c, np.zeros((1, 2)), cfg)
    assert rep.converged and rep.iterations <= 2
    assert np.max(np.abs(rep.z_star - c)) <= 1e-12


@pytest.mark.parametrize("method", ["picard", "anderson"])
def test_affine_matches_dense_solve(method):
    rng = np.random.default_rng(11)
    n = 6
    m = scaled_to(rng.normal(size=(n, n)), 0.9)
    b = rng.normal(size=(n, 1))
    want = np.linalg.solve(np.eye(n) - m, b)
    cfg = SolverConfig(method=method, tol=1e-12, max_iter=500)
    rep = solve_fixed_point(lambda z: m @ z + b, np.zeros((n, 1)), cfg)
    assert rep.converged
    assert np.max(np.abs(rep.z_star - want)) <= 1e-9


def test_solvers_agree_and_anderson_needs_no_more_iterations():
    rng = np.random.default_rng(11)
    n = 6
    m = scaled_to(rng.normal(size=(n, n)), 0.9)
    b = rng.normal(size=(n, 1))
    cfg_p = SolverConfig(method="picard", tol=1e-6)
    cfg_a = SolverConfig(method="anderson", tol=1e-6)
    rep_p = picard_solve(lambda z: m @ z + b, np.zeros((n, 1)), cfg_p)
    rep_a = anderson_solve(lambda z: m @ z + b, np.zeros((n, 1)), cfg_a)
    assert rep_p.converged and rep_a.converged
    assert np.max(np.abs(rep_a.z_star - rep_p.z_star)) <= 1e-5
    assert rep_a.iterations <= rep_p.iterations


def test_anderson_beats_picard_on_stiff_affine():
    # symmetric M: spectral radius equals the norm, so Picard really is slow
    rng = np.random.default_rng(12)
    n = 8
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = q @ np.diag(np.linspace(0.95, 0.2, n)) @ q.T
    b = rng.normal(size=(n, 1))
    f = lambda z: m @ z + b
    cfg_p = SolverConfig(method="picard", tol=1e-10, max_iter=2000)
    cfg_a = SolverConfig(method="anderson", tol=1e-10, max_iter=2000)
    rep_p = picard_solve(f, np.zeros((n, 1)), cfg_p)
    rep_a = anderson_solve(f, np.zeros((n, 1)), cfg_a)
    assert rep_p.converged and rep_a.converged
    assert rep_a.iterations < rep_p.iterations
    assert rep_a.fallback_steps == 0


def test_picard_is_the_one_slot_window_of_the_oracle():
    cfg = SolverConfig(method="picard", tol=1e-10)
    f = lambda z: 0.5 * z + 1.0
    rep = picard_solve(f, np.zeros((1, 1)), cfg)
    want = reference_anderson_solve(f, np.zeros((1, 1)), cfg, window=1)
    assert rep.converged and abs(rep.z_star[0, 0] - 2.0) <= 1e-9
    assert np.array_equal(rep.z_star, want.z_star)
    assert rep.iterations == want.iterations and rep.fallback_steps == 0


@pytest.mark.parametrize("method", ["picard", "anderson"])
def test_divergence_is_reported(method):
    cfg = SolverConfig(method=method, max_iter=300)
    z0 = np.full((1, 2), 1e200)
    with np.errstate(over="ignore"):
        rep = solve_fixed_point(lambda z: z * z, z0, cfg)
    assert rep.diverged and not rep.converged


def test_max_iter_exhaustion():
    cfg = SolverConfig(method="picard", max_iter=10, tol=1e-12)
    rep = picard_solve(lambda z: 0.999 * z, np.ones((1, 1)), cfg)
    assert not rep.converged and not rep.diverged
    assert rep.iterations == 10
    assert np.isfinite(rep.residual) and rep.residual > cfg.tol


@pytest.mark.parametrize("method", ["picard", "anderson"])
def test_a_report_names_how_its_solve_ended(method):
    cfg = SolverConfig(method=method, max_iter=10, tol=1e-12)
    ends = [(lambda z: np.full_like(z, 2.0), np.ones((1, 1))),
            (lambda z: 0.999 * z + 1.0, np.ones((1, 1))),
            (lambda z: z * z, np.full((1, 2), 1e200))]
    got = [solve_fixed_point(f, z0, cfg).outcome for f, z0 in ends]
    assert tuple(got) == OUTCOMES == ("converged", "max_iter", "diverged")


def assert_matches_reference(f, z0, cfg, solver=anderson_solve, window=5):
    """The ring-buffer solver against the re-stacking oracle."""
    got = solver(f, z0, cfg)
    want = reference_anderson_solve(f, z0, cfg, window=window)
    assert rel_err(got.z_star, want.z_star) <= 1e-12
    for name in ("iterations", "fallback_steps", "converged", "diverged"):
        assert getattr(got, name) == getattr(want, name), name
    return got


def contraction_map(seed=13, shape=(12, 3)):
    rng = np.random.default_rng(seed)
    n = shape[0]
    m = scaled_to(rng.normal(size=(n, n)), 0.9)
    b = rng.normal(size=shape)
    return lambda z: np.tanh(m @ z + b)


@pytest.mark.parametrize("solver, window", SOLVERS)
def test_solver_matches_restacking_oracle(solver, window):
    cfg = SolverConfig(tol=1e-10, max_iter=500)
    rep = assert_matches_reference(contraction_map(), np.zeros((12, 3)), cfg,
                                   solver, window)
    assert rep.converged


def test_anderson_matches_oracle_at_max_iter():
    cfg = SolverConfig(max_iter=7, tol=1e-14)
    rep = assert_matches_reference(contraction_map(), np.zeros((12, 3)), cfg)
    assert rep.iterations == 7 and not rep.converged and not rep.diverged


def fails_near_the_solution():
    """``contraction_map()``, but all inf once a step is below 1e-4."""
    f = contraction_map()

    def g(z):
        out = f(z)
        return out if np.linalg.norm(out - z) > 1e-4 else np.full_like(out, np.inf)

    return g


def test_anderson_matches_oracle_on_a_nonfinite_map():
    rep = assert_matches_reference(fails_near_the_solution(), np.zeros((12, 3)),
                                   SolverConfig())
    assert rep.diverged and rep.iterations > 3


def fails_at_call(bad_call, value):
    """``contraction_map()`` whose ``bad_call``-th and later outputs hold
    one ``value`` entry."""
    f, calls = contraction_map(), [0]

    def g(z):
        calls[0] += 1
        out = f(z)
        if calls[0] >= bad_call:
            out[5, 1] = value
        return out

    return g


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad_call", [1, 2, 8])
@pytest.mark.parametrize("solver, window", SOLVERS)
def test_solver_reports_a_nonfinite_map_like_the_oracle(value, bad_call,
                                                        solver, window):
    # call 1 has no window yet, call 2 has a two-slot one, and call 8 is
    # past a full ring of five
    cfg = SolverConfig(tol=1e-14)
    z0 = np.zeros((12, 3))
    with np.errstate(invalid="ignore", over="ignore"):
        got = solver(fails_at_call(bad_call, value), z0, cfg)
        want = reference_anderson_solve(fails_at_call(bad_call, value), z0, cfg,
                                        window=window)
    assert got.diverged and got.residual == np.inf
    assert got.iterations == bad_call
    assert rel_err(got.z_star, want.z_star) <= 1e-12
    for name in ("iterations", "fallback_steps", "converged", "diverged"):
        assert getattr(got, name) == getattr(want, name), name


def overflows_when_mixed(z):
    """Column 0 stays at 1e308 and column 1 contracts by 0.9: from
    (1e308, 1), the second step's weights are near (-9, 10), so the mixed
    column 0 overflows although every f(x) and residual is finite."""
    out = 0.9 * z
    out[:, 0] = 1e308
    return out


OVERFLOW_Z0 = np.array([[1e308, 1.0]])


def test_anderson_reports_an_overflowing_mixed_iterate_like_the_oracle():
    with np.errstate(over="ignore", invalid="ignore"):
        rep = assert_matches_reference(overflows_when_mixed, OVERFLOW_Z0,
                                       SolverConfig())
    assert rep.diverged and rep.iterations == 2 and rep.residual == np.inf
    assert rep.fallback_steps == 0
    assert np.array_equal(rep.z_star, [[1e308, 0.9]])


def test_a_singular_mixing_system_falls_back_to_picard(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    f, z0 = contraction_map(), np.zeros((12, 3))
    cfg = SolverConfig(max_iter=20)
    picard = picard_solve(f, z0, cfg)
    monkeypatch.setattr(np.linalg, "solve", singular)
    rep = assert_matches_reference(f, z0, cfg)
    assert rep.fallback_steps == rep.iterations - 1
    assert np.array_equal(rep.z_star, picard.z_star)
    assert rep.iterations == picard.iterations


def test_anderson_matches_oracle_through_fallback():
    # residuals of 1e160 overflow the Gram matrix, so the weights are not
    # finite until 25 Picard steps have shrunk them; five mixing steps follow
    cfg = SolverConfig(max_iter=30)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = assert_matches_reference(lambda z: 0.5 * z + 1e160,
                                       np.zeros((4, 2)), cfg)
    assert rep.fallback_steps == 25


# (map factory, z0, config, solver and oracle window): the non-finite and
# overflow cases above
WARNING_CASES = [
    (lambda: overflows_when_mixed, OVERFLOW_Z0, SolverConfig(), SOLVERS[1]),
    (lambda: lambda z: 0.5 * z + 1e160, np.zeros((4, 2)),
     SolverConfig(max_iter=30), SOLVERS[1]),
    (fails_near_the_solution, np.zeros((12, 3)), SolverConfig(), SOLVERS[1]),
] + [(lambda bad_call=bad_call, value=value: fails_at_call(bad_call, value),
      np.zeros((12, 3)), SolverConfig(tol=1e-14), solver)
     for value in (np.nan, np.inf, -np.inf) for bad_call in (1, 2, 8)
     for solver in SOLVERS]


@pytest.mark.parametrize("case", range(len(WARNING_CASES)))
def test_solver_is_silent_on_nonfinite_and_overflowing_maps(case):
    # with every warning an error, the report is the solve's only signal
    make_map, z0, cfg, (solver, window) = WARNING_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solver(make_map(), z0, cfg)
    with np.errstate(all="ignore"):
        want = reference_anderson_solve(make_map(), z0, cfg, window=window)
    assert rel_err(got.z_star, want.z_star) <= 1e-12
    for name in ("iterations", "fallback_steps", "converged", "diverged"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.diverged == (got.residual == np.inf)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="newton")
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    assert [f.name for f in fields(SolverConfig)] == ["method", "max_iter",
                                                      "tol"]


def picard_cases():
    """(map factory, z0, config): tanh contractions at three tolerances,
    divergence, max_iter, a finite map whose residual overflows, and maps
    that go non-finite at calls 1, 2 and 7."""
    cases = [(lambda seed=seed: contraction_map(seed), np.zeros((12, 3)),
              SolverConfig("picard", tol=tol))
             for seed in range(20) for tol in (1e-4, 1e-8, 1e-12)]
    cases += [
        (lambda: lambda z: z * z, np.full((1, 2), 1e200),
         SolverConfig("picard")),
        (lambda: lambda z: 0.999 * z, np.ones((1, 1)),
         SolverConfig("picard", max_iter=10, tol=1e-12)),
        (lambda: lambda z: -np.sign(z) * 1e308, np.full((2, 2), 1e308),
         SolverConfig("picard", max_iter=5)),
    ]
    cases += [(lambda bad_call=bad_call, value=value:
               fails_at_call(bad_call, value), np.zeros((12, 3)),
               SolverConfig("picard", tol=1e-14))
              for bad_call in (1, 2, 7) for value in (np.nan, np.inf, -np.inf)]
    return cases


PICARD_CASES = picard_cases()


@pytest.mark.parametrize("case", range(len(PICARD_CASES)))
def test_picard_matches_the_plain_loop_bit_for_bit(case):
    make_map, z0, cfg = PICARD_CASES[case]
    got = picard_solve(make_map(), z0, cfg)
    want = reference_picard_solve(make_map(), z0, cfg)
    assert np.array_equal(got.z_star, want.z_star)
    for name in ("iterations", "residual", "converged", "diverged",
                 "fallback_steps"):
        assert getattr(got, name) == getattr(want, name), name


def adjoint(jac, g, cfg):
    """(u, adjoint report) for u = g + J^T u, with J the Jacobian of ``jac``.

    u is the gradient of sum(g * z*) with respect to an additive bias b of
    the fixed point z* = jac(z*) + b, taken at b = 0.
    """
    bias = Tensor(np.zeros_like(g))
    apply_fn = lambda z, ts: ad.add(jac(z), ts[0])
    tape = ad.Tape()
    tape.watch(bias)
    with tape:
        z, rep = equilibrium_solve(replay_plan(apply_fn, [bias]),
                                   np.zeros_like(g), cfg, cfg)
        loss = sum_all(ad.mul(z, ad.constant(g)))
    return tape.backward(loss)[bias], rep.backward


def test_adjoint_with_zero_jacobian_returns_seed():
    g = np.arange(6.0).reshape(2, 3)
    cfg = SolverConfig(method="picard", tol=1e-12)
    u, rep = adjoint(lambda z: scale(z, 0.0), g, cfg)
    assert rep.converged
    assert np.array_equal(u, g)


def test_adjoint_scalar_closed_form():
    a = 0.3
    g = np.array([[2.0]])
    cfg = SolverConfig(method="anderson", tol=1e-13)
    u, rep = adjoint(lambda z: scale(z, a), g, cfg)
    assert rep.converged
    assert abs(u[0, 0] - 2.0 / (1.0 - a)) <= 1e-10


def test_adjoint_matches_dense_and_neumann():
    rng = np.random.default_rng(13)
    n = 5
    a = scaled_to(rng.normal(size=(n, n)), 0.6)
    a_t = ad.constant(a)
    g = rng.normal(size=(2, n))

    cfg = SolverConfig(method="anderson", tol=1e-13, max_iter=200)
    u, rep = adjoint(lambda z: ad.matmul(z, a_t), g, cfg)
    assert rep.converged

    # u (I - A^T) = g  =>  dense oracle
    want = g @ np.linalg.inv(np.eye(n) - a.T)
    assert np.max(np.abs(u - want)) <= 1e-9

    # truncated Neumann series sum_k g (A^T)^k
    term, total = g.copy(), g.copy()
    for _ in range(80):
        term = term @ a.T
        total += term
    assert np.max(np.abs(u - total)) <= 1e-9


def tanh_affine(w, b):
    def apply_fn(z, tensors):
        wt, bt = tensors
        return tanh(ad.add_row(ad.matmul(z, ad.transpose(wt)), bt))
    return apply_fn, [w, b]


def test_equilibrium_solve_without_tape_is_plain():
    rng = np.random.default_rng(14)
    w = Tensor(scaled_to(rng.normal(size=(4, 4)), 0.6))
    b = Tensor(rng.normal(size=(1, 4)))
    apply_fn, tensors = tanh_affine(w, b)
    cfg = SolverConfig(tol=1e-12)
    z, rep = equilibrium_solve(replay_plan(apply_fn, tensors),
                               np.zeros((3, 4)), cfg, cfg)
    assert rep.converged
    assert z.tape is None
    # fixed-point property
    with ad.no_grad():
        again = apply_fn(z, tensors).data
    assert np.max(np.abs(again - z.data)) <= 1e-10


def test_equilibrium_gradients_match_finite_differences():
    rng = np.random.default_rng(15)
    w = Tensor(scaled_to(rng.normal(size=(4, 4)), 0.6))
    b = Tensor(rng.normal(size=(1, 4)))
    apply_fn, tensors = tanh_affine(w, b)
    fwd = SolverConfig(tol=1e-12, max_iter=500)
    bwd = SolverConfig(tol=1e-12, max_iter=500)
    weight = np.asarray(rng.normal(size=(3, 4)))

    def run():
        z, rep = equilibrium_solve(replay_plan(apply_fn, tensors),
                                   np.zeros((3, 4)), fwd, bwd)
        assert rep.converged
        return z, rep

    tape = ad.Tape()
    tape.watch(w)
    tape.watch(b)
    with tape:
        z, rep = run()
        loss = sum_all(ad.mul(z, ad.constant(weight)))
    grads = tape.backward(loss)
    assert rep.backward is not None and rep.backward.converged

    def loss_at(t):
        def f(x):
            keep = t.data.copy()
            t.data[:] = x
            with ad.no_grad():
                zz, _ = run()
                val = float(np.sum(zz.data * weight))
            t.data[:] = keep
            return val
        return f

    for t, name in ((w, "w"), (b, "b")):
        fd = numeric_grad(loss_at(t), t.data.copy(), eps=1e-6)
        assert rel_err(grads[t], fd) <= 1e-6, name


def test_equilibrium_adjoint_runs_once_per_cotangent():
    rng = np.random.default_rng(16)
    w = Tensor(scaled_to(rng.normal(size=(3, 3)), 0.5))
    b = Tensor(rng.normal(size=(1, 3)))
    apply_fn, tensors = tanh_affine(w, b)
    cfg = SolverConfig(tol=1e-11)
    plan = replay_plan(apply_fn, tensors)
    calls = {"f": 0, "linearize": [], "vjp": 0}

    def f(z):
        calls["f"] += 1
        return plan.f(z)

    def linearize(z):
        calls["linearize"].append(z)
        value, jt, vjp = plan.linearize(z)

        def counted_vjp(u):
            calls["vjp"] += 1
            return vjp(u)
        return value, jt, counted_vjp

    tape = ad.Tape()
    tape.watch(w)
    tape.watch(b)
    with tape:
        z, rep = equilibrium_solve(plan._replace(f=f, linearize=linearize),
                                   np.zeros((2, 3)), cfg, cfg)
        loss = sum_all(z)
    # the forward solve runs on plan.f alone; the recorded value comes
    # from one linearization at the solution
    assert calls["f"] == rep.iterations and calls["vjp"] == 0
    assert len(calls["linearize"]) == 1
    assert calls["linearize"][0] is rep.z_star
    tape.vjp(loss, np.ones((1, 1)))  # backward would consume the tape
    # one adjoint solve, then one parameter VJP shared by both tensors
    assert calls["vjp"] == 1
    assert rep.backward is not None and rep.backward.converged
    tape.vjp(z, rng.normal(size=z.data.shape))
    assert calls["f"] == rep.iterations
    assert len(calls["linearize"]) == 1 and calls["vjp"] == 2


def test_equilibrium_divergence_skips_recording():
    w = Tensor(np.eye(2) * 3.0)

    def apply_fn(z, tensors):
        return ad.mul(ad.matmul(z, tensors[0]), z)

    tape = ad.Tape()
    tape.watch(w)
    cfg = SolverConfig(tol=1e-8, max_iter=50)
    with tape, np.errstate(over="ignore"):
        z, rep = equilibrium_solve(replay_plan(apply_fn, [w]),
                                   np.full((1, 2), 1e200), cfg, cfg)
    assert rep.diverged
    assert z.tape is None
