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
    _affine,
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
    return _kuma_v_backward(d_v, u, 1.0 / beta, v)


def _kuma_v_backward(d_v: np.ndarray, u: np.ndarray, inv_b: np.ndarray, v: np.ndarray):
    # d_u = d_v*v*inv_b/u and d_beta = -d_v*v*log(u)*inv_b*inv_b share d_v*v;
    # negating it equals negating d_v first, bit for bit
    dvv = d_v * v
    return dvv * inv_b / u, -dvv * np.log(u) * inv_b * inv_b


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
    return _stick_break_backward(d_s, v, _leftover_before(v))


def _stick_break_backward(d_s: np.ndarray, v: np.ndarray, prev: np.ndarray) -> np.ndarray:
    # s_j = v_j * r_{j-1} and r_j = r_{j-1} * (1 - v_j), so the gradient
    # reaching r_{j-1} from the sticks after it is
    # rem[j-1] = d_s_j * v_j + rem[j] * (1 - v_j), with rem[last] = 0. The
    # recursion runs over the rows of the transposed (stick, sample) arrays,
    # which are contiguous.
    dsv = np.multiply(d_s.T, v.T, order="C")
    omv = np.subtract(1.0, v.T, order="C")
    rem = np.zeros_like(dsv)
    for j in range(rem.shape[0] - 1, 0, -1):
        np.multiply(rem[j], omv[j], out=rem[j - 1])
        rem[j - 1] += dsv[j]
    d_v = d_s - rem.T
    d_v *= prev
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
    return _entropy_sparsity(s)


def _entropy_sparsity(s: np.ndarray):
    n = s.shape[0]
    a = np.abs(s)
    norms = a.sum(axis=1)
    live = norms > 0.0
    safe_n = np.where(live, norms, 1.0)
    s_hat = a / safe_n[:, None]
    active = s_hat > 0.0
    # log(1.0) is +0.0, so inactive entries need no second mask
    logs = np.log(np.where(active, s_hat, 1.0))
    h_rows = -(s_hat * logs).sum(axis=1)
    if not live.all():
        h_rows[~live] = 0.0
    value = float(h_rows.sum() / n)
    # every entry of a dead row is inactive, so one mask zeroes both
    d_a = np.where(active, -(logs + h_rows[:, None]) / safe_n[:, None], 0.0)
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
        keep=False keeps no backward cache. `hidden` is a matrix of the
        head's input width; callers validate it."""
        a_u = _affine(self.u_w.value, self.u_b.value, hidden)
        sig = sigmoid(a_u)
        u = np.clip(sig, U_CLAMP, 1.0 - U_CLAMP)
        a_b = _affine(self.beta_w.value, self.beta_b.value, hidden)
        beta_raw = softplus(a_b)
        beta = np.maximum(beta_raw, BETA_FLOOR)
        # u lies in [U_CLAMP, 1 - U_CLAMP] and beta >= BETA_FLOOR > 0, so
        # v = u**(1/beta) lies in [0, 1]: the domains kuma_v and stick_break
        # check hold by construction
        inv_b = 1.0 / beta
        v = u**inv_b
        prev = _leftover_before(v)
        s = v * prev
        self._cache = (hidden, a_b, sig, u, beta_raw, inv_b, v, prev) if keep else None
        return s

    def backward(self, d_s: np.ndarray) -> np.ndarray:
        hidden, a_b, sig, u, beta_raw, inv_b, v, prev = self._cache
        d_v = _stick_break_backward(d_s, v, prev)
        d_u, d_beta = _kuma_v_backward(d_v, u, inv_b, v)
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

    def named_params(self, prefix: str) -> list[tuple[str, ParamBlock]]:
        return [(f"{prefix}.u.w", self.u_w), (f"{prefix}.u.b", self.u_b),
                (f"{prefix}.beta.w", self.beta_w), (f"{prefix}.beta.b", self.beta_b)]
