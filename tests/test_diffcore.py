import numpy as np
import pytest

from rdosr.diffcore import (
    ADAM_CHUNK,
    ActivationLayer,
    AffineLayer,
    Adam,
    DomainError,
    NumericError,
    ParamBlock,
    ShapeError,
    affine,
    affine_backward,
    bind,
    glorot_uniform,
    grad_check,
    l1_mean,
    l2_recon_mean,
    softmax,
    sigmoid,
    softmax_xent,
    softplus,
)
from util import KINK_MARGIN, ReferenceAdam, grads, pack, param_loss_fn, sigmoid_split, unpack


# ---------------------------------------------------------------------------
# affine


def test_affine_identity():
    y = affine(np.eye(2), [[0.0, 0.0]], [[3.0, 4.0]])
    assert np.array_equal(y, [[3.0, 4.0]])


def test_affine_sum_plus_bias():
    y = affine([[1.0], [1.0]], [[5.0]], [[2.0, 3.0]])
    assert np.array_equal(y, [[10.0]])


def test_affine_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(8, 3\)") as exc:
        affine(np.zeros((4, 2)), np.zeros((1, 2)), np.zeros((8, 3)))
    assert "(4, 2)" in str(exc.value)
    with pytest.raises(ShapeError):
        affine(np.zeros((4, 2)), np.zeros((1, 3)), np.zeros((8, 4)))


def test_affine_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    w = ParamBlock(rng.normal(size=(4, 3)))
    b = ParamBlock(rng.normal(size=(1, 3)))
    x = ParamBlock(rng.normal(size=(8, 4)))
    weight = rng.normal(size=(8, 3))  # fixed projection makes the loss scalar
    params = [w, b, x]

    def compute():
        y = affine(w.value, b.value, x.value)
        d_w, d_b, d_x = affine_backward(weight, w.value, x.value)
        w.grad += d_w
        b.grad += d_b
        x.grad += d_x
        return float((y * weight).sum())

    err = grad_check(param_loss_fn(params, compute), pack(params), step=1e-5)
    assert err < 1e-6


def test_affine_layer_backward_writes_the_bits_of_affine_backward():
    rng = np.random.default_rng(8)
    layer = AffineLayer(64, 512, bias=0.1)
    bind([layer.w, layer.b], rng)
    # 33 and 225 are ragged row counts at which a product's bits can depend
    # on the BLAS kernel and thread count
    for rows in (256, 1, 33, 225):
        x = rng.normal(size=(rows, 64))
        d_out = rng.normal(size=(rows, 512))
        d_out[:, :3] = [0.0, -0.0, 1e-300]  # columns whose sums are exact or tiny
        # stale values the write must replace, not add to
        layer.w.grad[...] = np.nan
        layer.b.grad[...] = 1.0
        layer.forward(x)
        d_x = layer.backward(d_out)
        d_w, d_b, ref_d_x = affine_backward(d_out, layer.w.value, x)
        assert np.array_equal(layer.w.grad.view(np.int64), d_w.view(np.int64)), rows
        assert np.array_equal(layer.b.grad.view(np.int64), d_b.view(np.int64)), rows
        assert np.array_equal(d_x.view(np.int64), ref_d_x.view(np.int64)), rows
        assert layer._x is None  # backward consumed the cache


# ---------------------------------------------------------------------------
# activations


def test_activation_values():
    assert sigmoid(np.array([[0.0]]))[0, 0] == 0.5
    assert np.isclose(softplus(np.array([[0.0]]))[0, 0], np.log(2.0))
    out = ActivationLayer().forward(np.array([[-3.0, 3.0]]))
    assert np.array_equal(out, [[0.0, 3.0]])


def test_activation_extreme_inputs_stay_finite():
    x = np.array([[-800.0, 800.0]])
    assert np.isfinite(sigmoid(x)).all()
    assert np.isfinite(softplus(x)).all()


def test_sigmoid_matches_split_by_sign_form_bit_for_bit():
    edges = np.array([0.0, 1e-8, 1.0, 36.0, 709.0, 710.0, 745.0, 746.0, np.inf])
    rng = np.random.default_rng(4)
    grid = np.concatenate([edges, -edges, rng.normal(0.0, 30.0, 4000), rng.uniform(-800, 800, 4000)])
    x = grid.reshape(-1, 1)
    assert np.array_equal(sigmoid(x).view(np.int64), sigmoid_split(x).view(np.int64))


def _activation_inputs():
    edges = [-2.0, -0.0, 0.0, 5e-324, -5e-324, 3.0, np.inf, -np.inf, np.nan]
    return np.concatenate([[edges], np.random.default_rng(5).normal(size=(60, 9))])


@pytest.mark.parametrize("kind", ["relu"])  # the one activation layer
def test_activation_forward_only_bit_equal_to_allocating_form(kind):
    x = _activation_inputs()
    ref = np.maximum(x, 0.0)
    got = ActivationLayer().forward(x.copy(), keep=False)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("kind", ["relu"])  # the one activation layer
def test_activation_keep_never_changes_its_input(kind):
    x = _activation_inputs()
    before = x.copy()
    layer = ActivationLayer()
    y = layer.forward(x)
    assert np.array_equal(x.view(np.int64), before.view(np.int64))
    # the cache is a bool mask of its own, so x can die after the call
    assert layer._mask.dtype == bool and np.array_equal(layer._mask, before > 0.0)
    assert not np.shares_memory(layer._mask, x) and not np.shares_memory(y, x)


def test_relu_mask_backward_bit_equal_to_the_float_input_form():
    x = _activation_inputs()
    d_out = np.random.default_rng(6).normal(size=x.shape)
    d_out[0] = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, -1.0, 2.0, 3.0]
    layer = ActivationLayer()
    layer.forward(x)
    got = layer.backward(d_out)
    assert np.array_equal(got.view(np.int64), (d_out * (x > 0.0)).view(np.int64))
    assert layer._mask is None  # backward consumed the cache


def test_relu_forward_only_writes_over_its_input():
    x = _activation_inputs()
    assert ActivationLayer().forward(x, keep=False) is x


@pytest.mark.parametrize("kind", ["relu"])  # the one activation layer
def test_activation_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 4))
    x += np.sign(x) * KINK_MARGIN  # keep the probes off the kink
    p = ParamBlock(x)
    weight = rng.normal(size=x.shape)
    layer = ActivationLayer()

    def compute():
        y = layer.forward(p.value)
        # route the layer's input gradient into the parameter block
        p.grad += layer.backward(weight)
        return float((y * weight).sum())

    err = grad_check(param_loss_fn([p], compute), pack([p]), step=1e-5)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(40, 7)) * 10
    p = softmax(z)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    shifted = softmax(z + 123.456)
    assert np.allclose(p, shifted, atol=1e-12)


def test_softmax_xent_uniform_prediction():
    loss, grad = softmax_xent([[0.0, 0.0]], [[1.0, 0.0]])
    assert np.isclose(loss, np.log(2.0))
    assert np.allclose(grad, [[0.5 - 1.0, 0.5]])


def test_softmax_xent_confident_correct_is_stable():
    loss, _ = softmax_xent([[1000.0, 0.0]], [[1.0, 0.0]])
    assert 0.0 <= loss < 1e-12


def test_softmax_xent_input_validation():
    with pytest.raises(ShapeError):
        softmax_xent(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        softmax_xent(np.zeros((1, 2)), [[0.5, 0.5]])


@pytest.mark.parametrize(
    "onehot",
    [[[0.5, 0.0, 0.5]], [[1.0, 1.0, 0.0]], [[np.nan, 1.0, 0.0]], [[2.0, -1.0, 0.0]]],
    ids=["half", "two-ones", "nan", "sums-to-one"],
)
def test_softmax_xent_rejects_malformed_onehot(onehot):
    y = np.array(onehot)
    # the membership test the equality form replaced rejects the same rows
    assert not np.isin(y, (0.0, 1.0)).all() or not (y.sum(axis=1) == 1.0).all()
    with pytest.raises(DomainError):
        softmax_xent(np.zeros((1, 3)), y)


def test_softmax_xent_accepts_signed_zero_onehot():
    loss, _ = softmax_xent(np.zeros((1, 3)), [[-0.0, 1.0, 0.0]])
    assert np.isclose(loss, np.log(3.0))


def test_softmax_xent_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    logits = ParamBlock(rng.normal(size=(16, 5)))
    y = np.zeros((16, 5))
    y[np.arange(16), rng.integers(0, 5, size=16)] = 1.0

    def compute():
        loss, d = softmax_xent(logits.value, y)
        logits.grad += d
        return loss

    err = grad_check(param_loss_fn([logits], compute), pack([logits]), step=1e-5)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# the two norms


def test_l1_mean_values():
    assert l1_mean([[1.0, -2.0, 3.0]])[0] == 6.0
    assert l1_mean(np.zeros((3, 4)))[0] == 0.0
    assert l1_mean([[0.5, 0.5], [1.0, 0.0]])[0] == 1.0


def test_l1_mean_zero_subgradient_and_empty_batch():
    _, grad = l1_mean([[0.0, -2.0]])
    assert grad[0, 0] == 0.0 and grad[0, 1] == -1.0
    with pytest.raises(ShapeError):
        l1_mean(np.zeros((0, 3)))


def test_l1_mean_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 5))
    x += np.sign(x) * KINK_MARGIN
    p = ParamBlock(x)

    def compute():
        value, d = l1_mean(p.value)
        p.grad += d
        return value

    assert grad_check(param_loss_fn([p], compute), pack([p]), step=1e-5) < 1e-6


def test_l2_recon_mean_values():
    z = np.array([[1.0, 0.0]])
    assert l2_recon_mean(z, z)[0] == 0.0
    assert l2_recon_mean([[1.0, 0.0]], [[0.0, 0.0]])[0] == 1.0
    assert l2_recon_mean([[3.0, 4.0]], [[0.0, 0.0]])[0] == 5.0


def test_l2_recon_mean_zero_row_gradient_guard():
    _, d_z, d_zhat = l2_recon_mean([[1.0, 1.0], [2.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(d_z[0], [0.0, 0.0])
    assert np.array_equal(d_z, -d_zhat)
    with pytest.raises(ShapeError):
        l2_recon_mean(np.zeros((2, 2)), np.zeros((2, 3)))


def test_l2_recon_mean_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    z = ParamBlock(rng.normal(size=(7, 4)))
    zh = ParamBlock(rng.normal(size=(7, 4)))
    params = [z, zh]

    def compute():
        value, d_z, d_zh = l2_recon_mean(z.value, zh.value)
        z.grad += d_z
        zh.grad += d_zh
        return value

    assert grad_check(param_loss_fn(params, compute), pack(params), step=1e-5) < 1e-6


@pytest.mark.parametrize("rows", [1, 7, 256, 1000])
def test_batch_means_equal_np_mean_bit_for_bit(rows):
    rng = np.random.default_rng(rows)
    scale = 10.0 ** rng.integers(-150, 150, size=(rows, 1))
    z, zh = rng.normal(size=(rows, 5)) * scale, rng.normal(size=(rows, 5)) * scale
    diff = z - zh
    want = float(np.mean(np.sqrt((diff * diff).sum(axis=1))))
    assert np.float64(l2_recon_mean(z, zh)[0]).view(np.int64) == np.float64(want).view(np.int64)
    logits = rng.normal(0.0, 20.0, size=(rows, 5))
    onehot = np.eye(5)[rng.integers(0, 5, size=rows)]
    shifted = logits - logits.max(axis=1, keepdims=True)
    want = float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - (shifted * onehot).sum(axis=1)))
    got = softmax_xent(logits, onehot)[0]
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_closed_form():
    p = ParamBlock(np.array([[1.0]]))
    bind([p])
    opt = Adam([p], lr=1e-3)
    p.grad[...] = 0.5
    opt.step()
    # first step collapses to -lr * g / (|g| + eps) after bias correction;
    # tolerance covers ulp noise in the (1 - beta^t) corrections
    expected = -1e-3 * 0.5 / (0.5 + 1e-8)
    assert np.isclose(p.value[0, 0] - 1.0, expected, rtol=0.0, atol=1e-12)
    assert opt.step_count == 1
    assert p.grad[0, 0] == 0.0


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = ParamBlock(np.array([[2.0, -3.0]]))
    bind([p])
    opt = Adam([p])
    opt.step()
    assert np.array_equal(p.value, [[2.0, -3.0]])
    assert opt.step_count == 1


def test_adam_descends_quadratic():
    p = ParamBlock(np.array([[1.0]]))
    bind([p])
    opt = Adam([p], lr=1e-3)
    distances = [abs(p.value[0, 0])]
    for _ in range(2):
        p.grad[...] = 2.0 * p.value  # gradient of w^2
        opt.step()
        distances.append(abs(p.value[0, 0]))
    assert distances[1] < distances[0]
    assert distances[2] < distances[1]


def test_adam_state_invariants():
    p = ParamBlock(np.zeros((2, 3)))
    bind([p])
    opt = Adam([p])
    assert opt.first_moment.size == p.value.size
    for step in range(1, 4):
        p.grad[...] = 1.0
        opt.step()
        assert opt.step_count == step
        assert (opt.second_moment >= 0.0).all()


def test_adam_wrapper_zeroes_and_steps():
    rng = np.random.default_rng(2)
    params = [ParamBlock(rng.normal(size=(2, 2))) for _ in range(3)]
    bind(params)
    opt = Adam(params, lr=1e-2)
    for p in params:
        p.grad[...] = 1.0
    opt.step()
    assert all(p.grad.max() == 0.0 for p in params)


def _views_of_one_buffer(arrays, order, gap=0, lead=0):
    """Blocks holding `arrays` whose values and gradients are views of one
    NaN-filled buffer each: `lead` unused elements, then the blocks in
    `order` with `gap` unused elements between them. Returns (blocks in the
    arrays' order, value buffer, gradient buffer)."""
    size = lead + sum(a.size for a in arrays) + gap * (len(arrays) - 1)
    values, grads = np.full(size, np.nan), np.full(size, np.nan)
    blocks = [None] * len(arrays)
    at = lead
    for i in order:
        sl = slice(at, at + arrays[i].size)
        values[sl] = arrays[i].ravel()
        grads[sl] = 0.0
        blocks[i] = ParamBlock(values[sl].reshape(arrays[i].shape))
        blocks[i].grad = grads[sl].reshape(arrays[i].shape)
        at = sl.stop + gap
    return blocks, values, grads


def test_adam_refuses_blocks_bind_did_not_lay_out_and_steps_bound_ones_in_place():
    rng = np.random.default_rng(8)
    init = [rng.normal(size=shape) for shape in ((3, 4), (1, 4), (5, 1))]
    for layout in ("own-arrays", "gapped-views", "reordered-views"):
        params = [ParamBlock(a) for a in init]
        if layout != "own-arrays":
            order = [2, 0, 1] if layout == "reordered-views" else [0, 1, 2]
            gap = 2 if layout == "gapped-views" else 0
            params, _, _ = _views_of_one_buffer(init, order, gap=gap)
        with pytest.raises(ShapeError, match="bind the blocks first") as err:
            Adam(params)
        assert "\n" not in str(err.value), layout
    # bind keeps the values a block holds and gives it a zeroed gradient
    params[1].grad[...] = 2.5
    bind(params)
    assert all(np.array_equal(p.value, a) and not p.grad.any() for p, a in zip(params, init))
    arrays = [(p.value, p.grad) for p in params]
    opt = Adam(params)
    for p, _ in opt.pairs:
        assert np.shares_memory(p.value, opt.value) and np.shares_memory(p.grad, opt.grad)
    params[1].grad[...] = 1.0
    opt.step()
    assert all(p.value is v and p.grad is g for p, (v, g) in zip(params, arrays))
    assert not np.array_equal(params[1].value, init[1]) and np.array_equal(params[0].value, init[0])
    assert not opt.grad.any()


def test_adam_matches_per_block_reference_bit_for_bit():
    # "own-arrays" blocks are bound first; "one-buffer" blocks tile one value
    # and one gradient buffer after five unused elements, as a model's
    # stage-2 networks follow F. Adam steps either layout in place
    rng = np.random.default_rng(6)
    shapes = [(64, 200), (1, 200), (200, 37), (1, 37), (37, 3), (1, 3), (1, 1)]
    assert sum(r * c for r, c in shapes) > ADAM_CHUNK
    for layout in ("own-arrays", "one-buffer"):
        init = [rng.normal(size=shape) for shape in shapes]
        flat = [ParamBlock(a) for a in init]
        if layout == "own-arrays":
            bind(flat)
        else:
            flat, values, grads = _views_of_one_buffer(init, range(len(init)), lead=5)
        arrays = [(p.value, p.grad) for p in flat]
        ref = [ParamBlock(a) for a in init]
        opt, ref_opt = Adam(flat, lr=1e-2), ReferenceAdam(ref, lr=1e-2)
        assert all(p.value is v and p.grad is g for p, (v, g) in zip(flat, arrays))
        if layout == "one-buffer":
            assert opt.value.base is values and opt.grad.base is grads
        for _ in range(5):
            for p, q in zip(flat, ref):
                g = rng.normal(size=p.shape) * rng.choice([1e-6, 1.0, 1e3])
                p.grad[...] = g
                q.grad[...] = g
            opt.step()
            ref_opt.step()
        for p, q in zip(flat, ref):
            assert np.array_equal(p.value, q.value), layout
            assert not p.grad.any()
        if layout == "one-buffer":
            assert np.isnan(values[:5]).all() and np.isnan(grads[:5]).all()
        moments = [(opt.first_moment, ref_opt.first_moment), (opt.second_moment, ref_opt.second_moment)]
        for got, want in moments:
            assert np.array_equal(got, np.concatenate([m.ravel() for m in want])), layout


# ---------------------------------------------------------------------------
# gradient checker


def test_grad_check_quadratic():
    def f(x):
        return float(x[0] ** 2), np.array([2.0 * x[0]])

    assert grad_check(f, np.array([3.0]), step=1e-5) < 1e-8


def test_grad_check_constant_loss():
    def f(x):
        return 1.5, np.zeros_like(x)

    assert grad_check(f, np.ones(4)) == 0.0


def test_grad_check_step_domain():
    def f(x):
        return float(x[0]), np.ones(1)

    with pytest.raises(DomainError):
        grad_check(f, np.ones(1), step=1e-2)
    with pytest.raises(DomainError):
        grad_check(f, np.ones(1), step=1e-9)


def test_grad_check_rejects_nonfinite_loss():
    def f(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(NumericError):
        grad_check(f, np.ones(2))


# ---------------------------------------------------------------------------
# misc invariants


def test_param_block_requires_2d():
    with pytest.raises(ShapeError):
        ParamBlock(np.zeros(3).reshape(3))


def test_glorot_is_deterministic_per_seed():
    a = glorot_uniform(10, 20, np.random.default_rng(42))
    b = glorot_uniform(10, 20, np.random.default_rng(42))
    assert np.array_equal(a, b)
    limit = np.sqrt(6.0 / 30.0)
    assert np.abs(a).max() <= limit
