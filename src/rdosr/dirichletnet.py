"""Stick-breaking Dirichlet encoder head.

Two parallel affine maps off the last hidden layer produce, per stick,
u = clamp(sigmoid(.)) in (0,1) and beta = softplus(.) > 0. The stick
proportions are v = u**(1/beta) and the representation s is their
stick-breaking composition, so every row satisfies s >= 0 and sum(s) <= 1.

The head is deterministic: u is a learned layer output rather than a random
draw, which makes the downstream reconstruction error a deterministic score.
All gradients are exact analytic expressions.
"""

from __future__ import annotations

import numpy as np

from .diffcore import (
    DomainError,
    ParamBlock,
    ShapeError,
    affine,
    affine_backward,
    as_matrix,
    glorot_uniform,
    sigmoid,
    softplus,
)

__all__ = [
    "U_CLAMP",
    "BETA_FLOOR",
    "kuma_v",
    "kuma_v_backward",
    "stick_break",
    "stick_break_backward",
    "entropy_sparsity",
    "StickHead",
]

# sigmoid output clamp: keeps the power map away from the {0,1} singularities
U_CLAMP = 1e-7
# softplus can underflow to zero for extremely negative inputs; the floor
# keeps the exponent 1/beta finite (gradient there is dead anyway)
BETA_FLOOR = 1e-6


def kuma_v(u, beta) -> np.ndarray:
    """Elementwise stick proportion v = u**(1/beta).

    The two-sided complement form 1 - (1 - u**(1/beta)) collapses to the
    power itself, so that is what gets computed.
    """
    u = as_matrix(u, "u")
    beta = as_matrix(beta, "beta")
    if u.shape != beta.shape:
        raise ShapeError(f"kuma_v: u {u.shape} vs beta {beta.shape}")
    if ((u <= 0.0) | (u >= 1.0)).any():
        raise DomainError("kuma_v: u must lie strictly inside (0, 1)")
    if (beta <= 0.0).any():
        raise DomainError("kuma_v: beta must be strictly positive")
    return u ** (1.0 / beta)


def kuma_v_backward(d_v: np.ndarray, u: np.ndarray, beta: np.ndarray, v: np.ndarray):
    """Gradients of kuma_v given upstream d_v: returns (d_u, d_beta)."""
    inv_b = 1.0 / beta
    d_u = d_v * v * inv_b / u
    d_beta = -d_v * v * np.log(u) * inv_b * inv_b
    return d_u, d_beta


def stick_break(v) -> np.ndarray:
    """Stick-breaking composition: s_1 = v_1, s_j = v_j * prod_{o<j}(1 - v_o)."""
    v = as_matrix(v, "v")
    if ((v < 0.0) | (v > 1.0)).any():
        raise DomainError("stick_break: v entries must lie in [0, 1]")
    prev = _leftover_before(v)
    return v * prev


def _leftover_before(v: np.ndarray) -> np.ndarray:
    # prev[:, j] = prod_{o<j} (1 - v_o), with prev[:, 0] = 1
    prev = np.ones_like(v)
    if v.shape[1] > 1:
        prev[:, 1:] = np.cumprod(1.0 - v[:, :-1], axis=1)
    return prev


def stick_break_backward(d_s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact gradient of stick_break, walked through the leftover-stick
    recursion (no division, so rows containing v = 1 stay finite)."""
    prev = _leftover_before(v)
    d_v = np.empty_like(v)
    d_rem = np.zeros(v.shape[0])
    for j in range(v.shape[1] - 1, -1, -1):
        # s_j = v_j * r_{j-1} and r_j = r_{j-1} * (1 - v_j)
        d_v[:, j] = (d_s[:, j] - d_rem) * prev[:, j]
        d_rem = d_s[:, j] * v[:, j] + d_rem * (1.0 - v[:, j])
    return d_v


def entropy_sparsity(s):
    """Batch-mean entropy of the L1-normalized absolute representation.

    Per row, s_hat = |s| / ||s||_1 and H = -sum s_hat*log(s_hat) with
    0*log(0) taken as 0. An all-zero row contributes zero entropy and zero
    gradient; entries at exactly zero also get a zero subgradient (the true
    slope there is unbounded). Returns (value, d_s).
    """
    s = as_matrix(s, "s")
    if s.shape[0] == 0:
        raise ShapeError("entropy_sparsity: empty batch")
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


class StickHead:
    """Parallel u/beta affine heads composed into stick proportions."""

    def __init__(self, u_w: ParamBlock, u_b: ParamBlock, beta_w: ParamBlock, beta_b: ParamBlock) -> None:
        if u_w.shape != beta_w.shape or u_b.shape != beta_b.shape:
            raise ShapeError("u and beta heads must share shapes")
        self.u_w = u_w
        self.u_b = u_b
        self.beta_w = beta_w
        self.beta_b = beta_b
        self._cache = None

    @classmethod
    def create(cls, in_width: int, c: int, rng: np.random.Generator) -> "StickHead":
        return cls(
            ParamBlock(glorot_uniform(in_width, c, rng)),
            ParamBlock(np.zeros((1, c))),
            ParamBlock(glorot_uniform(in_width, c, rng)),
            ParamBlock(np.zeros((1, c))),
        )

    @property
    def c(self) -> int:
        return self.u_w.shape[1]

    def forward(self, hidden: np.ndarray, keep: bool = True) -> np.ndarray:
        """Deterministic encoder map hidden -> s (Kumaraswamy, then sticks);
        keep=False keeps no backward cache."""
        hidden = as_matrix(hidden, "hidden")
        a_u = affine(self.u_w.value, self.u_b.value, hidden)
        sig = sigmoid(a_u)
        u = np.clip(sig, U_CLAMP, 1.0 - U_CLAMP)
        a_b = affine(self.beta_w.value, self.beta_b.value, hidden)
        beta_raw = softplus(a_b)
        beta = np.maximum(beta_raw, BETA_FLOOR)
        v = kuma_v(u, beta)
        s = stick_break(v)
        self._cache = (hidden, a_b, sig, u, beta_raw, beta, v) if keep else None
        return s

    def backward(self, d_s: np.ndarray) -> np.ndarray:
        hidden, a_b, sig, u, beta_raw, beta, v = self._cache
        d_v = stick_break_backward(d_s, v)
        d_u, d_beta = kuma_v_backward(d_v, u, beta, v)
        # clamps pass no gradient where they were active
        d_u = np.where((sig > U_CLAMP) & (sig < 1.0 - U_CLAMP), d_u, 0.0)
        d_beta = np.where(beta_raw >= BETA_FLOOR, d_beta, 0.0)
        d_au = d_u * sig * (1.0 - sig)
        d_ab = d_beta * sigmoid(a_b)
        d_uw, d_ub, d_hidden_u = affine_backward(d_au, self.u_w.value, hidden)
        d_bw, d_bb, d_hidden_b = affine_backward(d_ab, self.beta_w.value, hidden)
        self.u_w.grad += d_uw
        self.u_b.grad += d_ub
        self.beta_w.grad += d_bw
        self.beta_b.grad += d_bb
        return d_hidden_u + d_hidden_b

    def params(self) -> list[ParamBlock]:
        return [self.u_w, self.u_b, self.beta_w, self.beta_b]
