"""Shared helpers for the test suite.

The gradient-check wrappers flatten a list of ParamBlocks into the vector
form `grad_check` expects. Because the checker's contract requires a loss
that is twice differentiable near the probe point, instance generators screen
out draws that sit within `KINK_MARGIN` of a relu/sign/norm kink and redraw
with the next seed; the screen inspects preconditions only, never results.
"""

from __future__ import annotations

import numpy as np

from rdosr.diffcore import (
    ActivationLayer,
    Adam,
    NumericError,
    ParamBlock,
    Stack,
    affine,
    affine_backward,
    as_matrix,
    softmax,
    softplus,
)
from rdosr.dirichletnet import BETA_FLOOR, U_CLAMP, StickHead, kuma_v, stick_break
from rdosr.models import (
    Stage1Record,
    Stage2Record,
    _stage1_loss,
    _stage2_loss,
    _training_set,
    effective_lambda_z,
    sparsity_weight,
)

# must comfortably exceed the 1e-5 probe step times any activation magnitude
KINK_MARGIN = 1e-3


def pack(params) -> np.ndarray:
    return np.concatenate([p.value.ravel() for p in params])


def unpack(params, vec: np.ndarray) -> None:
    offset = 0
    for p in params:
        n = p.value.size
        p.value[...] = vec[offset : offset + n].reshape(p.value.shape)
        offset += n


def grads(params) -> np.ndarray:
    return np.concatenate([p.grad.ravel() for p in params])


def randomize(params, rng: np.random.Generator, scale: float = 0.6) -> None:
    for p in params:
        p.value[...] = rng.normal(0.0, scale, size=p.value.shape)


def param_loss_fn(params, compute):
    """Adapt `compute() -> loss with grads accumulated` to grad_check's form."""

    def f(vec):
        unpack(params, vec)
        for p in params:
            p.zero_grad()
        loss = compute()
        return loss, grads(params)

    return f


def stack_relu_margin(stack: Stack, x: np.ndarray):
    """Forward through a stack, returning (min |relu preactivation|, output)."""
    margin = np.inf
    t = x
    for layer in stack.layers:
        nxt = layer.forward(t)
        if isinstance(layer, ActivationLayer):
            margin = min(margin, float(np.abs(t).min()))
        t = nxt
    return margin, t


def encoder_margin(encoder: Stack, z: np.ndarray):
    """Kink margin and output of an encoder `Stack([trunk, head])` (either
    head kind)."""
    trunk, head = encoder.layers
    margin, hidden = stack_relu_margin(trunk, z)
    if isinstance(head, StickHead):
        s = head.forward(hidden)
    else:
        head_margin, s = stack_relu_margin(head, hidden)
        margin = min(margin, head_margin)
    return margin, s


class ReferenceAdam:
    """Per-block Adam: the plain arithmetic the flat-buffer `Adam` must match
    bit for bit. Blocks keep their own arrays and are never rebound."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.first_moment = [np.zeros_like(p.value) for p in self.params]
        self.second_moment = [np.zeros_like(p.value) for p in self.params]
        self.step_count = 0
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
            p.zero_grad()


def _epoch_batches(n, batch_size, rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def reference_train_stage1(f, pixels, labels_dense, config, rng):
    """Stage 1 as its own epoch loop: the reference the shared loop of
    `train_stage1` must match in checkpoint bytes and log values."""
    pixels, labels, y = _training_set(f, f, pixels, labels_dense, "stage 1")
    n = pixels.shape[0]
    lam_z = effective_lambda_z(config)
    opt = Adam(f.params(), lr=config.lr)
    opt.zero_grad()
    log = []
    for epoch in range(config.epochs_stage1):
        loss_sum = 0.0
        correct = 0
        for idx in _epoch_batches(n, config.batch_size, rng):
            loss, logits = _stage1_loss(f, pixels[idx], y[idx], config.lambda_f, lam_z, True)
            if not np.isfinite(loss):
                raise NumericError(f"stage 1 loss became non-finite at epoch {epoch}")
            loss_sum += loss * idx.size
            correct += int((np.argmax(logits, axis=1) + 1 == labels[idx]).sum())
            opt.step()
        acc = correct / n
        log.append(Stage1Record(epoch=epoch, loss=loss_sum / n, accuracy=acc))
        if acc >= config.stage1_target_accuracy:
            break
    return log


def reference_train_stage2(e, d, c, z, labels_dense, config, rng):
    """Stage 2 as its own epoch loop, with the entropy weight set once per
    epoch: the reference for `train_stage2`."""
    z, _, y = _training_set(e, c, z, labels_dense, "stage 2")
    n = z.shape[0]
    dirichlet = isinstance(e.layers[-1], StickHead)
    opt = Adam(e.params() + d.params() + c.params(), lr=config.lr)
    opt.zero_grad()
    log = []
    for epoch in range(config.epochs_stage2):
        lam_s = sparsity_weight(config, epoch) if dirichlet else 0.0
        sums = np.zeros(4)
        for idx in _epoch_batches(n, config.batch_size, rng):
            loss, parts = _stage2_loss(
                e, d, c, z[idx], y[idx], config.lambda_r, lam_s, config.lambda_c, True
            )
            if not np.isfinite(loss):
                raise NumericError(f"stage 2 loss became non-finite at epoch {epoch}")
            sums += idx.size * np.array([loss, *parts])
            opt.step()
        log.append(Stage2Record(epoch, *(sums / n)))
    return log


def sigmoid_split(x: np.ndarray) -> np.ndarray:
    """Sigmoid split by sign so neither tail overflows exp: the reference
    the branchless `sigmoid` must match bit for bit."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def kuma_v_backward_reference(d_v, u, beta, v):
    """Gradients of v = u**(1/beta), one expression each: the reference the
    shipped form, which shares d_v*v, must match bit for bit."""
    inv_b = 1.0 / beta
    d_u = d_v * v * inv_b / u
    d_beta = -d_v * v * np.log(u) * inv_b * inv_b
    return d_u, d_beta


def stick_break_backward_columns(d_s, v):
    """Stick-breaking gradient walked one column at a time, recomputing the
    leftover products: the reference for the row-recursion kernel."""
    prev = np.ones_like(v)
    if v.shape[1] > 1:
        prev[:, 1:] = np.cumprod(1.0 - v[:, :-1], axis=1)
    d_v = np.empty_like(v)
    d_rem = np.zeros(v.shape[0])
    for j in range(v.shape[1] - 1, -1, -1):
        d_v[:, j] = (d_s[:, j] - d_rem) * prev[:, j]
        d_rem = d_s[:, j] * v[:, j] + d_rem * (1.0 - v[:, j])
    return d_v


def entropy_sparsity_reference(s):
    """Entropy sparsity with every mask applied separately: the reference
    for the single-mask kernel."""
    n = s.shape[0]
    a = np.abs(s)
    norms = a.sum(axis=1)
    live = norms > 0.0
    safe_n = np.where(live, norms, 1.0)
    s_hat = a / safe_n[:, None]
    active = s_hat > 0.0
    logs = np.where(active, np.log(np.where(active, s_hat, 1.0)), 0.0)
    h_rows = -(s_hat * logs).sum(axis=1)
    h_rows[~live] = 0.0
    value = float(h_rows.mean())
    d_a = -(logs + h_rows[:, None]) / safe_n[:, None]
    d_a[~active] = 0.0
    d_a[~live] = 0.0
    return value, d_a * np.sign(s) / n


class ReferenceStickHead(StickHead):
    """The stick head built from the checked public ops and the reference
    kernels above, keeping only its inputs and outputs for backward: the
    shipped head must match it bit for bit."""

    def forward(self, hidden, keep=True):
        a_u = affine(self.u_w.value, self.u_b.value, hidden)
        sig = sigmoid_split(a_u)
        u = np.clip(sig, U_CLAMP, 1.0 - U_CLAMP)
        a_b = affine(self.beta_w.value, self.beta_b.value, hidden)
        beta_raw = softplus(a_b)
        beta = np.maximum(beta_raw, BETA_FLOOR)
        v = kuma_v(u, beta)
        s = stick_break(v)
        self._cache = (hidden, a_b, sig, u, beta_raw, beta, v) if keep else None
        return s

    def backward(self, d_s):
        hidden, a_b, sig, u, beta_raw, beta, v = self._cache
        d_v = stick_break_backward_columns(d_s, v)
        d_u, d_beta = kuma_v_backward_reference(d_v, u, beta, v)
        d_u = np.where((sig > U_CLAMP) & (sig < 1.0 - U_CLAMP), d_u, 0.0)
        d_beta = np.where(beta_raw >= BETA_FLOOR, d_beta, 0.0)
        d_au = d_u * sig * (1.0 - sig)
        d_ab = d_beta * sigmoid_split(a_b)
        d_uw, d_ub, d_hidden_u = affine_backward(d_au, self.u_w.value, hidden)
        d_bw, d_bb, d_hidden_b = affine_backward(d_ab, self.beta_w.value, hidden)
        self.u_w.grad += d_uw
        self.u_b.grad += d_ub
        self.beta_w.grad += d_bw
        self.beta_b.grad += d_bb
        return d_hidden_u + d_hidden_b


def bits(x) -> np.ndarray:
    """The float64 bit patterns of `x`: equal bits, not merely equal values."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def auc_bruteforce(scores_known, scores_unknown) -> float:
    """Mann-Whitney statistic by direct pair counting; ties count one half."""
    k = np.asarray(scores_known, dtype=np.float64).ravel()
    u = np.asarray(scores_unknown, dtype=np.float64).ravel()
    gt = (u[:, None] > k[None, :]).sum()
    eq = (u[:, None] == k[None, :]).sum()
    return (gt + 0.5 * eq) / (u.size * k.size)


def whole_batch_open_score(model, pixels, with_labels=False):
    """`open_score` as one forward pass over every row at once: the
    reference the row-block scoring must match bit for bit."""
    xn = model.normalizer.apply(as_matrix(pixels, "pixels"))
    logits = None
    if model.config.mode == "softmax":
        logits = model.f.forward(xn, keep=False)
        scores = 1.0 - softmax(logits).max(axis=1)
    else:
        z = xn
        if model.config.space == "embedding":
            logits = model.f.forward(xn, keep=False)
            z = logits / model.config.embedding_scale
        zhat = model.d.forward(model.e.forward(z, keep=False), keep=False)
        diff = z - zhat
        scores = np.sqrt((diff * diff).sum(axis=1))
    if not with_labels:
        return scores
    if logits is None:
        logits = model.f.forward(xn, keep=False)
    return scores, np.argmax(logits, axis=1) + 1


def whole_batch_closed_predict(model, pixels):
    xn = model.normalizer.apply(as_matrix(pixels, "pixels"))
    return np.argmax(model.f.forward(xn, keep=False), axis=1) + 1


def whole_batch_embed(f, x, scale):
    return f.forward(as_matrix(x, "x"), keep=False) / scale


def reference_export_roc(path, curve) -> None:
    """`export_roc` as one f-string per point: the reference the one-call
    formatting must match byte for byte."""
    lines = ["fpr,tpr"]
    lines += [f"{f:.6f},{t:.6f}" for f, t in zip(curve.fpr[:-1], curve.tpr[:-1])]
    lines.append(f"# auc={curve.auc:.6f}")
    lines.append(f"{curve.fpr[-1]:.6f},{curve.tpr[-1]:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
