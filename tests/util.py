"""Shared helpers for the test suite.

The gradient-check wrappers flatten a list of ParamBlocks into the vector
form `grad_check` expects. Because the checker's contract requires a loss
that is twice differentiable near the probe point, instance generators screen
out draws that sit within `KINK_MARGIN` of a relu/sign/norm kink and redraw
with the next seed; the screen inspects preconditions only, never results.
"""

from __future__ import annotations

import numpy as np

from rdosr.diffcore import ActivationLayer, ParamBlock, Stack

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
        if isinstance(layer, ActivationLayer) and layer.kind == "relu":
            margin = min(margin, float(np.abs(t).min()))
        t = nxt
    return margin, t


def encoder_margin(encoder, z: np.ndarray):
    """Kink margin and output of an EncoderE (either head kind)."""
    margin, hidden = stack_relu_margin(encoder.trunk, z)
    if encoder.dirichlet:
        s = encoder.head.forward(hidden)
    else:
        head_margin, s = stack_relu_margin(encoder.head, hidden)
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


def sigmoid_split(x: np.ndarray) -> np.ndarray:
    """Sigmoid split by sign so neither tail overflows exp: the reference
    the branchless `sigmoid` must match bit for bit."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def auc_bruteforce(scores_known, scores_unknown) -> float:
    """Mann-Whitney statistic by direct pair counting; ties count one half."""
    k = np.asarray(scores_known, dtype=np.float64).ravel()
    u = np.asarray(scores_unknown, dtype=np.float64).ravel()
    gt = (u[:, None] > k[None, :]).sum()
    eq = (u[:, None] == k[None, :]).sum()
    return (gt + 0.5 * eq) / (u.size * k.size)
