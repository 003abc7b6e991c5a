import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdosr.diffcore import DomainError, ParamBlock, grad_check
from rdosr.dirichletnet import (
    StickHead,
    entropy_sparsity,
    kuma_v,
    kuma_v_backward,
    stick_break,
    stick_break_backward,
)
from util import grads, pack, param_loss_fn, unpack


# ---------------------------------------------------------------------------
# the Kumaraswamy power map


def test_kuma_identity_exponent():
    assert np.allclose(kuma_v([[0.25]], [[1.0]]), [[0.25]])


def test_kuma_square_root():
    assert np.allclose(kuma_v([[0.04]], [[2.0]]), [[0.2]])


def test_kuma_large_beta_approaches_one():
    v = kuma_v([[0.5]], [[1e6]])
    assert 1.0 - v[0, 0] < 1e-5


def test_kuma_monotone_in_u_and_beta():
    u = np.linspace(0.05, 0.95, 20).reshape(1, -1)
    v = kuma_v(u, np.full_like(u, 1.7))
    assert (np.diff(v) > 0.0).all()
    betas = np.linspace(0.3, 5.0, 20).reshape(1, -1)
    v = kuma_v(np.full_like(betas, 0.4), betas)
    assert (np.diff(v) > 0.0).all()


def test_kuma_domain_errors():
    with pytest.raises(DomainError):
        kuma_v([[0.0]], [[1.0]])
    with pytest.raises(DomainError):
        kuma_v([[1.0]], [[1.0]])
    with pytest.raises(DomainError):
        kuma_v([[0.5]], [[0.0]])
    with pytest.raises(DomainError):
        kuma_v([[0.5]], [[-1.0]])


def test_kuma_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    u = ParamBlock(rng.uniform(0.05, 0.95, size=(4, 6)))
    beta = ParamBlock(rng.uniform(0.5, 3.0, size=(4, 6)))
    weight = rng.normal(size=(4, 6))
    params = [u, beta]

    def compute():
        v = kuma_v(u.value, beta.value)
        d_u, d_b = kuma_v_backward(weight, u.value, beta.value, v)
        u.grad += d_u
        beta.grad += d_b
        return float((v * weight).sum())

    assert grad_check(param_loss_fn(params, compute), pack(params), step=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# stick-breaking


def test_stick_first_stick_takes_all():
    s = stick_break([[1.0, 0.3, 0.7]])
    assert np.array_equal(s, [[1.0, 0.0, 0.0]])


def test_stick_direct_expansion():
    s = stick_break([[0.5, 0.5]])
    assert np.allclose(s, [[0.5, 0.25]])
    assert np.isclose(s.sum(), 0.75)


def test_stick_three_term_evaluation():
    s = stick_break([[0.2, 0.4, 0.6]])
    assert np.allclose(s, [[0.2, 0.32, 0.288]])
    assert np.isclose(s.sum(), 1.0 - 0.8 * 0.6 * 0.4)


def test_stick_domain_error():
    with pytest.raises(DomainError):
        stick_break([[1.2, 0.1]])
    with pytest.raises(DomainError):
        stick_break([[-0.1, 0.1]])


def test_stick_partial_sum_identity_random():
    rng = np.random.default_rng(77)
    v = rng.uniform(0.0, 1.0, size=(5000, 10))
    s = stick_break(v)
    assert (s >= 0.0).all()
    expected = 1.0 - np.prod(1.0 - v, axis=1)
    assert np.abs(s.sum(axis=1) - expected).max() < 1e-12


def test_stick_saturated_stick_zeroes_later_sticks():
    v = np.array([[0.3, 1.0, 0.8, 0.2]])
    s = stick_break(v)
    assert (s[0, 2:] == 0.0).all()
    # the backward recursion must stay finite through the saturated stick
    d_v = stick_break_backward(np.ones_like(v), v)
    assert np.isfinite(d_v).all()


def test_stick_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    v = ParamBlock(rng.uniform(0.05, 0.95, size=(5, 8)))
    weight = rng.normal(size=(5, 8))

    def compute():
        s = stick_break(v.value)
        v.grad += stick_break_backward(weight, v.value)
        return float((s * weight).sum())

    assert grad_check(param_loss_fn([v], compute), pack([v]), step=1e-5) < 1e-6


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stick_invariants_property(seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=(20, 10))
    beta = np.exp(rng.normal(0.0, 2.0, size=(20, 10)))
    s = stick_break(kuma_v(u, beta))
    assert (s >= 0.0).all()
    assert (s.sum(axis=1) <= 1.0 + 1e-12).all()


# ---------------------------------------------------------------------------
# entropy sparsity


def test_entropy_one_hot_is_zero():
    value, grad = entropy_sparsity([[0.0, 1.0, 0.0]])
    assert value == 0.0
    assert grad.shape == (1, 3)


def test_entropy_uniform_hits_log_c():
    value, _ = entropy_sparsity(np.full((1, 10), 0.31))
    assert abs(value - np.log(10.0)) < 1e-12


def test_entropy_three_to_one_ratio():
    value, _ = entropy_sparsity([[3.0, 1.0]])
    assert np.isclose(value, 0.562335, atol=1e-6)


def test_entropy_zero_row_guard():
    value, grad = entropy_sparsity([[0.0, 0.0], [1.0, 1.0]])
    assert np.isclose(value, 0.5 * np.log(2.0))
    assert np.array_equal(grad[0], [0.0, 0.0])


def test_entropy_bounds_random():
    rng = np.random.default_rng(31)
    s = rng.uniform(0.0, 1.0, size=(2000, 10))
    for row in (s, np.abs(rng.normal(size=(500, 10)))):
        value, _ = entropy_sparsity(row)
        assert 0.0 <= value <= np.log(10.0) + 1e-12


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(37)
    s = ParamBlock(rng.uniform(0.05, 1.0, size=(6, 7)))

    def compute():
        value, d_s = entropy_sparsity(s.value)
        s.grad += d_s
        return value

    assert grad_check(param_loss_fn([s], compute), pack([s]), step=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# the assembled head


def test_stickhead_zero_weights_constant_sanity():
    head = StickHead.create(3, 10, np.random.default_rng(0))
    for p in head.params():
        p.value[...] = 0.0
    s = head.forward(np.random.default_rng(1).normal(size=(4, 3)))
    # u = 0.5 and beta = ln 2 everywhere, so every stick is strictly positive
    assert (s > 0.0).all()
    assert (s.sum(axis=1) <= 1.0 + 1e-12).all()
    assert np.allclose(s[0], s[1])


def test_stickhead_output_invariants_random():
    rng = np.random.default_rng(5)
    head = StickHead.create(6, 10, rng)
    s = head.forward(rng.normal(size=(200, 6)) * 3.0)
    assert (s >= 0.0).all()
    assert (s.sum(axis=1) <= 1.0 + 1e-12).all()


def test_stickhead_gradients_match_finite_differences():
    rng = np.random.default_rng(41)
    head = StickHead.create(3, 10, rng)
    hidden = ParamBlock(rng.normal(size=(6, 3)))
    params = head.params() + [hidden]

    def compute():
        s = head.forward(hidden.value)
        hidden.grad += head.backward(np.ones_like(s) / s.size)
        return float(s.mean())

    err = grad_check(param_loss_fn(params, compute), pack(params), step=1e-5)
    assert err < 1e-4
