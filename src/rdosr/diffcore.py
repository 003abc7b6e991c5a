"""Reverse-mode differentiable numeric core.

Dense layers, elementwise activations, the three losses used by the training
objectives, an Adam optimizer, and a central finite-difference gradient
checker. A "matrix" throughout the package is a 2-D C-order float64 ndarray
with one sample per row; everything runs in double precision.

Backward passes are hand-derived. `grad_check` is the independent oracle the
test suite uses to certify them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "DomainError",
    "NumericError",
    "as_matrix",
    "require_finite",
    "ParamBlock",
    "Adam",
    "glorot_uniform",
    "affine",
    "affine_backward",
    "sigmoid",
    "softplus",
    "softmax",
    "softmax_xent",
    "l1_mean",
    "l2_recon_mean",
    "AffineLayer",
    "ActivationLayer",
    "Stack",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class DomainError(ValueError):
    """A value lies outside the mathematical domain of an operation."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Return `x` as a 2-D float64 array; 1-D input becomes a single row."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {np.shape(x)}")
    return m


def require_finite(x: np.ndarray, name: str = "matrix") -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"{name} contains non-finite entries")
    return x


# ---------------------------------------------------------------------------
# parameters and optimizer


class ParamBlock:
    """A trainable matrix paired with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value) -> None:
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        if self.value.ndim != 2:
            raise ShapeError(f"parameter must be 2-D, got shape {self.value.shape}")
        self.grad = np.zeros(self.value.shape)  # fresh zero pages, untouched until written

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


# elements per slice of the flat Adam update. A step makes about a dozen
# passes over its operands; a slice this long (128 KiB per float64 array,
# under 1 MiB for the value, gradient, moments and two temporaries) keeps
# each pass in cache, where whole-buffer passes over F's 1.1 M parameters
# would stream every array from memory a dozen times per step.
ADAM_CHUNK = 1 << 14


class Adam:
    """Bias-corrected Adam over a list of parameters, in one flat buffer.

    Construction copies every block's value and gradient into one
    contiguous float64 buffer each and rebinds `block.value`/`block.grad`
    to views into it, so a step is a few vector ops over the whole
    parameter set instead of a dozen per block. A block therefore belongs
    to one live optimizer (building another rebinds it again), and code
    that sets parameters writes in place (`block.value[...] = ...`) rather
    than assigning a new array. `pairs` lists each block with its slice of
    the flat buffer.
    """

    def __init__(
        self,
        params: Sequence[ParamBlock],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.step_count = 0
        params = list(params)
        total = sum(p.value.size for p in params)
        self.value = np.empty(total)
        self.grad = np.empty(total)
        self.first_moment = np.zeros(total)
        self.second_moment = np.zeros(total)
        self._scratch = np.empty((2, min(total, ADAM_CHUNK)))
        self.pairs: list[tuple[ParamBlock, slice]] = []
        offset = 0
        for p in params:
            sl = slice(offset, offset + p.value.size)
            self.value[sl] = p.value.ravel()
            self.grad[sl] = p.grad.ravel()
            p.value = self.value[sl].reshape(p.shape)
            p.grad = self.grad[sl].reshape(p.shape)
            self.pairs.append((p, sl))
            offset = sl.stop

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def step(self) -> None:
        """One update of every parameter; the gradient is consumed and zeroed."""
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for start in range(0, self.value.size, ADAM_CHUNK):
            sl = slice(start, start + ADAM_CHUNK)
            w, g = self.value[sl], self.grad[sl]
            m, v = self.first_moment[sl], self.second_moment[sl]
            tmp, upd = self._scratch[:, : w.size]
            # same per-element operations, in the same order, as
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # w -= lr * (m/c1) / (sqrt(v/c2) + eps)
            m *= b1
            np.multiply(g, 1.0 - b1, out=tmp)
            m += tmp
            v *= b2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.epsilon
            np.divide(m, c1, out=upd)
            upd *= self.lr
            upd /= tmp
            w -= upd
            g[...] = 0.0


def glorot_uniform(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# ---------------------------------------------------------------------------
# forward ops and their gradients


def affine(w, b, x) -> np.ndarray:
    """Batched affine map y = x @ w + b, bias broadcast across rows.

    The checked entry point; layers call `_affine` on operands they built.
    """
    w = as_matrix(w, "w")
    b = as_matrix(b, "b")
    x = as_matrix(x, "x")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(
            f"affine: x has shape {x.shape} but w has shape {w.shape} "
            f"(inner dimensions {x.shape[1]} vs {w.shape[0]})"
        )
    if b.shape != (1, w.shape[1]):
        raise ShapeError(
            f"affine: bias shape {b.shape} does not match output width {w.shape[1]}"
        )
    return _affine(w, b, x)


def _affine(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # adding the bias in place gives the same bits as `x @ w + b` without a
    # second output-sized array
    y = x @ w
    y += b
    return y


def affine_backward(d_out: np.ndarray, w: np.ndarray, x: np.ndarray):
    """Gradients of `affine` given upstream d_out: returns (d_w, d_b, d_x)."""
    d_w = x.T @ d_out
    d_b = d_out.sum(axis=0, keepdims=True)
    d_x = d_out @ w.T
    return d_w, d_b, d_x


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; it is exp(-x) for x >= 0 and exp(x) below,
    # so this equals the split-by-sign form bit for bit
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    # 1/d and e/d as one division: the numerator is picked first
    y = np.where(x >= 0, 1.0, e)
    y /= d
    return y


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    z = as_matrix(logits, "logits")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_onehot(y: np.ndarray) -> None:
    if not ((y == 0.0) | (y == 1.0)).all() or not (y.sum(axis=1) == 1.0).all():
        raise DomainError("onehot rows must contain a single 1 and zeros elsewhere")


def softmax_xent(logits, onehot):
    """Mean softmax cross-entropy over the batch.

    Returns (loss, d_logits) with d_logits = (softmax(logits) - onehot) / N.
    Stabilized via max subtraction so huge logits neither overflow nor push
    the log through zero.
    """
    z = as_matrix(logits, "logits")
    y = as_matrix(onehot, "onehot")
    if z.shape != y.shape:
        raise ShapeError(f"softmax_xent: logits {z.shape} vs onehot {y.shape}")
    _check_onehot(y)
    return _softmax_xent(z, y)


def _softmax_xent(z: np.ndarray, y: np.ndarray):
    n = z.shape[0]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=1)
    # sum / n is the same division np.mean makes, without its Python wrapper
    loss = float((np.log(sums) - (shifted * y).sum(axis=1)).sum() / n)
    p = e / sums[:, None]
    return loss, (p - y) / n


def l1_mean(x):
    """Mean per-row L1 norm; the subgradient at exact zeros is zero.

    Returns (value, d_x) with d_x = sign(x) / N.
    """
    x = as_matrix(x, "x")
    if x.shape[0] == 0:
        raise ShapeError("l1_mean: empty batch")
    return _l1_mean(x)


def _l1_mean(x: np.ndarray):
    n = x.shape[0]
    return float(np.abs(x).sum() / n), np.sign(x) / n


def l2_recon_mean(z, zhat):
    """Mean per-row Euclidean distance (not squared) between z and zhat.

    Returns (value, d_z, d_zhat); a row at zero distance gets zero gradient.
    """
    z = as_matrix(z, "z")
    zh = as_matrix(zhat, "zhat")
    if z.shape != zh.shape:
        raise ShapeError(f"l2_recon_mean: z {z.shape} vs zhat {zh.shape}")
    if z.shape[0] == 0:
        raise ShapeError("l2_recon_mean: empty batch")
    return _l2_recon_mean(z, zh)


def _l2_recon_mean(z: np.ndarray, zh: np.ndarray):
    n = z.shape[0]
    diff = z - zh
    norms = np.sqrt((diff * diff).sum(axis=1))
    value = float(norms.sum() / n)
    # diff is exactly zero wherever the norm is, so 0/1 keeps those rows at 0
    safe = np.where(norms > 0.0, norms, 1.0)
    d_z = diff / (n * safe[:, None])
    return value, d_z, -d_z


# ---------------------------------------------------------------------------
# layers


class AffineLayer:
    """Dense layer y = x @ w + b; backward accumulates into the param grads."""

    def __init__(self, w: ParamBlock, b: ParamBlock) -> None:
        self.w = w
        self.b = b
        self._x: np.ndarray | None = None

    @classmethod
    def create(
        cls, fan_in: int, fan_out: int, rng: np.random.Generator, bias: float = 0.0
    ) -> "AffineLayer":
        w = ParamBlock(glorot_uniform(fan_in, fan_out, rng))
        b = ParamBlock(np.full((1, fan_out), float(bias)))
        return cls(w, b)

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """With keep=False the input is not cached (and an old cache is
        dropped): the call cannot be followed by `backward`. `x` is a
        matrix of the layer's input width; callers validate it."""
        y = _affine(self.w.value, self.b.value, x)
        self._x = x if keep else None
        return y

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        d_w, d_b, d_x = affine_backward(d_out, self.w.value, self._x)
        self.w.grad += d_w
        self.b.grad += d_b
        return d_x

    def params(self) -> list[ParamBlock]:
        return [self.w, self.b]

    def named_params(self, prefix: str) -> list[tuple[str, ParamBlock]]:
        return [(f"{prefix}.w", self.w), (f"{prefix}.b", self.b)]


class ActivationLayer:
    """The relu layer y = max(x, 0) of every network."""

    def __init__(self) -> None:
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """keep=False runs forward only and writes the output over `x` (in a
        `Stack`, a fresh affine output); keep=True never changes `x`."""
        self._x = x if keep else None
        return np.maximum(x, 0.0, out=None if keep else x)

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        # a bool mask; multiplying by it equals multiplying by its 0.0/1.0 floats
        return d_out * (self._x > 0.0)

    def params(self) -> list[ParamBlock]:
        return []


class Stack:
    """A plain sequence of layers run front-to-back / back-to-front."""

    def __init__(self, layers: Sequence) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """keep=False runs forward only: no layer keeps a backward cache, and
        each relu writes over the activation it is handed."""
        for layer in self.layers:
            x = layer.forward(x, keep=keep)
        return x

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            d_out = layer.backward(d_out)
        return d_out

    def params(self) -> list[ParamBlock]:
        out: list[ParamBlock] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def named_params(self, prefix: str) -> list[tuple[str, ParamBlock]]:
        # `prefix.i.*` for the i-th layer that holds parameters
        held = [layer for layer in self.layers if layer.params()]
        return [p for i, layer in enumerate(held) for p in layer.named_params(f"{prefix}.{i}")]


# ---------------------------------------------------------------------------
# gradient oracle


def grad_check(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    point,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a flat float64 vector to (loss, grad). Each coordinate is probed
    with a central difference at `step`; the per-coordinate relative error is
    |analytic - fd| / max(1, |analytic|) and the maximum is returned.
    """
    if not (1e-7 <= step <= 1e-3):
        raise DomainError(f"grad_check step {step} outside [1e-7, 1e-3]")
    x = np.asarray(point, dtype=np.float64).ravel().copy()
    loss0, grad = f(x.copy())
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != x.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match point {x.shape}")
    if not np.isfinite(loss0):
        raise NumericError("loss is non-finite at the expansion point")
    worst = 0.0
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        lp, _ = f(xp)
        lm, _ = f(xm)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericError(f"loss is non-finite at probe for coordinate {i}")
        fd = (lp - lm) / (2.0 * step)
        err = abs(grad[i] - fd) / max(1.0, abs(grad[i]))
        if err > worst:
            worst = err
    return worst
