"""Tape and operation gradients against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdeq import autodiff as ad
from helpers import check_op, scale, sum_all, tanh, tape_grad


def test_matmul_grad_matches_fd():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 2))
    check_op(lambda x, y: sum_all(ad.mul(ad.matmul(x, y), ad.constant(w))), a, b)


def test_matmul_vjp_closed_form():
    # d/dA sum(A @ B) = ones @ B^T, the textbook identity.
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    ga, gb = tape_grad(lambda x, y: sum_all(ad.matmul(x, y)), a, b)
    assert np.allclose(ga, np.ones((3, 2)) @ b.T)
    assert np.allclose(gb, a.T @ np.ones((3, 2)))


def test_tanh_relu_mul_grads():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 3))
    check_op(lambda a: sum_all(tanh(a)), x)
    check_op(lambda a: sum_all(ad.relu(a)), x + 0.05)  # keep away from the kink
    check_op(lambda a, b: sum_all(ad.mul(a, b)), x, y)


def test_add_sub_scale_add_row():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 3))
    r = rng.normal(size=(1, 3))
    w = rng.normal(size=(5, 3))
    weight = ad.constant(w)
    check_op(lambda a, b: sum_all(ad.mul(ad.add(a, b), weight)), x, y)
    check_op(lambda a: sum_all(ad.mul(scale(a, -2.5), weight)), x)
    check_op(lambda a, b: sum_all(ad.mul(ad.add_row(a, b), weight)), x, r)


def test_concat_stack_transpose():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))
    w = ad.constant(rng.normal(size=(3, 6)))
    check_op(lambda u, v: sum_all(ad.mul(ad.concat_cols(u, v), w)), a, b)
    w3 = ad.constant(rng.normal(size=(2, 3)))
    check_op(lambda u: sum_all(ad.mul(ad.transpose(u), w3)), a)


def test_cross_entropy_grad_and_value():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(6, 3))
    labels = np.array([0, 1, 2, 1, 0, 2])
    check_op(lambda l: ad.cross_entropy_mean(l, labels), logits)

    # Uniform logits: loss is log(C) exactly.
    flat = ad.cross_entropy_mean(ad.Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))
    assert abs(flat.item() - np.log(3.0)) < 1e-12


def test_chained_graph_matches_fd():
    # tanh(A W^T + H Om^T + 1 b^T) contraction-style block, all-paths gradient.
    rng = np.random.default_rng(9)
    z = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 4)) * 0.3
    h = rng.normal(size=(5, 4))
    b = rng.normal(size=(1, 4))

    def build(wt, bt):
        pre = ad.add_row(
            ad.add(ad.matmul(ad.constant(z), ad.transpose(wt)),
                   ad.constant(h)),
            bt,
        )
        return sum_all(tanh(pre))

    check_op(build, w, b)


def test_shared_input_accumulates():
    # mul(a, a): both parent slots feed the same accumulator.
    a = np.array([[1.5, -2.0]])
    (got,) = tape_grad(lambda t: sum_all(ad.mul(t, t)), a)
    assert np.allclose(got, 2.0 * a)


def test_disconnected_leaf_gets_zeros():
    tape = ad.Tape()
    a = tape.watch(ad.Tensor(np.ones((2, 2))))
    b = tape.watch(ad.Tensor(np.ones((2, 2))))
    with tape:
        loss = sum_all(tanh(a))
    grads = tape.backward(loss)
    assert grads.get(b) is None
    assert np.all(grads[b] == 0.0)


def test_backward_requires_scalar_loss():
    tape = ad.Tape()
    a = tape.watch(ad.Tensor(np.ones((2, 2))))
    with tape:
        y = tanh(a)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_backward_consumes_its_tape():
    tape = ad.Tape()
    a = tape.watch(ad.Tensor(np.full((2, 2), 0.3)))
    with tape:
        y = tanh(a)
        loss = sum_all(y)
    want = tape.vjp(loss, np.ones((1, 1)))
    assert len(tape._records) == 2  # vjp leaves the records in place
    grads = tape.backward(loss)
    assert tape._records == []
    assert np.array_equal(grads[a], want[a])
    for sweep in (lambda: tape.backward(loss),
                  lambda: tape.vjp(loss, np.ones((1, 1)))):
        with pytest.raises(ValueError, match="consumed"):
            sweep()


def test_no_grad_suppresses_recording():
    tape = ad.Tape()
    a = tape.watch(ad.Tensor(np.ones((2, 2))))
    with tape:
        with ad.no_grad():
            y = tanh(a)
    assert y.nid is None and len(tape._records) == 0


def test_other_tape_inputs_are_constants():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.watch(ad.Tensor(np.full((2, 2), 0.5)))
    b = t2.watch(ad.Tensor(np.full((2, 2), 2.0)))
    with t2:
        loss = sum_all(ad.mul(a, b))  # a belongs to t1: constant here
    grads = t2.backward(loss)
    assert grads.get(a) is None
    assert np.allclose(grads[b], 0.5)


def test_nonfinite_forward_raises_when_recorded():
    tape = ad.Tape()
    a = tape.watch(ad.Tensor(np.array([[1e308, 1e308]])))
    with tape, np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError):
            ad.add(a, a)


def test_gradients_bit_identical_across_replays():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(6, 6))
    w = rng.normal(size=(6, 6))

    def run():
        tape = ad.Tape()
        xt = tape.watch(ad.Tensor(x.copy()))
        wt = tape.watch(ad.Tensor(w.copy()))
        with tape:
            y = tanh(ad.matmul(xt, ad.transpose(wt)))
            loss = ad.cross_entropy_mean(y, np.arange(6) % 3)
        g = tape.backward(loss)
        return g[xt].copy(), g[wt].copy()

    g1 = run()
    g2 = run()
    assert all((u == v).all() for u, v in zip(g1, g2))


def test_vjp_reusable_with_different_seeds():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 3))
    tape = ad.Tape()
    xt = tape.watch(ad.Tensor(x))
    with tape:
        y = tanh(xt)
    s1 = rng.normal(size=(3, 3))
    s2 = rng.normal(size=(3, 3))
    g1 = tape.vjp(y, s1)[xt]
    g2 = tape.vjp(y, s2)[xt]
    assert np.allclose(g1, s1 * (1 - np.tanh(x) ** 2))
    assert np.allclose(g2, s2 * (1 - np.tanh(x) ** 2))
    assert np.allclose(tape.vjp(y, s1)[xt], g1)  # sweeps do not interfere


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_tanh_output_bounded(n, m, seed):
    x = np.random.default_rng(seed).normal(scale=5.0, size=(n, m))
    y = tanh(ad.Tensor(x)).data
    # float64 tanh rounds to exactly ±1 from |x| ≈ 19 on
    assert np.all(np.abs(y) <= 1.0)
    assert np.all(np.abs(y[np.abs(x) < 18.0]) < 1.0)


def test_1d_input_promoted_to_row():
    t = ad.Tensor(np.arange(3.0))
    assert t.shape == (1, 3)
    assert ad.Tensor(2.0).shape == (1, 1)
