import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdosr.diffcore import DomainError, ParamBlock, bind, grad_check
from rdosr.dirichletnet import (
    BETA_FLOOR,
    U_CLAMP,
    StickHead,
    entropy_sparsity,
    kuma_v,
    kuma_v_backward,
    stick_break,
    stick_break_backward,
)
from util import (
    ReferenceStickHead,
    bits,
    entropy_sparsity_reference,
    grads,
    kuma_v_backward_reference,
    pack,
    param_loss_fn,
    stick_break_backward_columns,
    unpack,
)


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
    head = StickHead(3, 10)
    bind(head.params(), np.random.default_rng(0))
    for p in head.params():
        p.value[...] = 0.0
    s = head.forward(np.random.default_rng(1).normal(size=(4, 3)))
    # u = 0.5 and beta = ln 2 everywhere, so every stick is strictly positive
    assert (s > 0.0).all()
    assert (s.sum(axis=1) <= 1.0 + 1e-12).all()
    assert np.allclose(s[0], s[1])


def test_stickhead_output_invariants_random():
    rng = np.random.default_rng(5)
    head = StickHead(6, 10)
    bind(head.params(), rng)
    s = head.forward(rng.normal(size=(200, 6)) * 3.0)
    assert (s >= 0.0).all()
    assert (s.sum(axis=1) <= 1.0 + 1e-12).all()


def test_stickhead_gradients_match_finite_differences():
    rng = np.random.default_rng(41)
    head = StickHead(3, 10)
    bind(head.params(), rng)
    hidden = ParamBlock(rng.normal(size=(6, 3)))
    params = head.params() + [hidden]

    def compute():
        s = head.forward(hidden.value)
        hidden.grad += head.backward(np.ones_like(s) / s.size)
        return float(s.mean())

    err = grad_check(param_loss_fn(params, compute), pack(params), step=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# the kernels equal their per-column / per-mask references bit for bit


def test_kuma_v_backward_matches_reference_bit_for_bit():
    rng = np.random.default_rng(61)
    u = rng.uniform(U_CLAMP, 1.0 - U_CLAMP, size=(300, 10))
    u[0, :2] = U_CLAMP, 1.0 - U_CLAMP
    beta = np.exp(rng.normal(0.0, 3.0, size=u.shape))
    beta[1] = BETA_FLOOR  # v = u**1e6 underflows to 0
    v = u ** (1.0 / beta)
    d_v = rng.normal(size=u.shape) * 10.0 ** rng.integers(-8, 8, size=u.shape)
    d_v[2, :3] = 0.0, -0.0, 1e300
    got = kuma_v_backward(d_v, u, beta, v)
    want = kuma_v_backward_reference(d_v, u, beta, v)
    for g, w in zip(got, want):
        assert np.array_equal(bits(g), bits(w))


@pytest.mark.parametrize("c", [1, 2, 10])
def test_stick_break_backward_matches_per_column_reference_bit_for_bit(c):
    rng = np.random.default_rng(62 + c)
    v = rng.uniform(0.0, 1.0, size=(257, c))
    v[np.arange(40), rng.integers(0, c, size=40)] = 1.0  # saturated sticks
    v[40:60, 0] = 1.0
    v[60:80] = 0.0
    v[80:100] = 1.0
    d_s = rng.normal(size=v.shape)
    d_s[100:110] = 0.0
    d_s[110:120] = -0.0
    assert np.array_equal(
        bits(stick_break_backward(d_s, v)), bits(stick_break_backward_columns(d_s, v))
    )


@pytest.mark.parametrize(
    "case", ["random", "zero-rows", "all-dead", "underflow", "one-live-entry"]
)
def test_entropy_sparsity_matches_reference_bit_for_bit(case):
    rng = np.random.default_rng(63)
    s = rng.normal(size=(64, 10))
    s[rng.uniform(size=s.shape) < 0.2] = 0.0
    if case == "zero-rows":
        s[::3] = 0.0
        s[1, :] = -0.0
    elif case == "all-dead":
        s[...] = 0.0
    elif case == "underflow":
        # s_hat underflows to 0 (inactive but signed) or to a subnormal
        s[0] = [1e300, -1e-300] + [0.0] * 8
        s[1] = [1.0, 1e-310] + [2.0] * 8
        s[2] = [-1e308, 1e-320] + [0.0] * 8
    elif case == "one-live-entry":
        s[...] = 0.0
        s[np.arange(64), rng.integers(0, 10, size=64)] = rng.normal(size=64)
    value, d_s = entropy_sparsity(s)
    ref_value, ref_d_s = entropy_sparsity_reference(s)
    assert bits(value) == bits(ref_value)
    assert np.array_equal(bits(d_s), bits(ref_d_s))


def test_stickhead_matches_reference_head_bit_for_bit_with_clamps_active():
    rng = np.random.default_rng(64)
    head, ref = StickHead(4, 10), ReferenceStickHead(4, 10)
    bind(head.params(), rng)
    bind(ref.params(), np.random.default_rng(64))  # the same draws
    hidden = rng.normal(size=(300, 4)) * np.repeat([1.0, 30.0, 1000.0], 100)[:, None]
    s = head.forward(hidden)
    ref_s = ref.forward(hidden)
    _, a_b, sig, _, beta_raw, _, _ = ref._cache
    # every clamp is active somewhere, so its zeroed gradient is compared too
    assert (sig < U_CLAMP).any() and (sig > 1.0 - U_CLAMP).any()
    assert (beta_raw < BETA_FLOOR).any()
    assert np.array_equal(bits(s), bits(ref_s))
    d_s = rng.normal(size=s.shape)
    assert np.array_equal(bits(head.backward(d_s)), bits(ref.backward(d_s)))
    for p, q in zip(head.params(), ref.params()):
        assert np.array_equal(bits(p.grad), bits(q.grad))
