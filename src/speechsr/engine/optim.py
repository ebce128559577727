"""Adam with bias correction, global-norm gradient clipping, and EMA shadows."""

from __future__ import annotations

import numpy as np

from ..errors import NumericsError
from .tensor import Parameter


class Adam:
    """Bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params: list[Parameter], lr: float = 6e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def clip_global_norm(params: list[Parameter], max_norm: float = 1.0) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the scale that was applied (1.0 when already within bounds).
    Raises NumericsError on a non-finite norm before any gradient is scaled:
    a zero scale would turn an infinite gradient into NaN.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        bad = [p.name for p in params if p.grad is not None and not np.all(np.isfinite(p.grad))]
        raise NumericsError(f"non-finite gradient norm {norm}; non-finite gradients in {bad}")
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for p in params:
        if p.grad is not None:
            p.grad *= scale
    return scale


class Ema:
    """Exponential moving average of parameters: shadow <- d*shadow + (1-d)*p."""

    def __init__(self, params: list[Parameter], decay: float = 0.999):
        if not 0.0 <= decay <= 1.0:
            raise ValueError(f"decay must lie in [0, 1], got {decay}")
        self.decay = float(decay)
        self.params = list(params)
        self.shadow = {p.name: p.data.copy() for p in params}

    def update(self):
        d = self.decay
        for p in self.params:
            s = self.shadow[p.name]
            s *= d
            s += (1.0 - d) * p.data
