"""Adam with bias correction, global-norm gradient clipping, and EMA shadows.

Adam and the EMA work on the :class:`FlatParams` layout they are given,
which its owner (``train.fit``) makes once: the values, gradients, Adam
moments ``m`` and ``v`` and the EMA ``shadow`` are one float64 buffer
each, in layout order, so an update is a handful of whole-buffer numpy
calls. Each does, element by element, what a loop over the parameters
does, with the same bits. Each ``.grad`` is its view of the gradient
buffer, written in place, never rebound, and zero where ``backward`` did
not reach. Nothing here names a parameter's slice of a buffer; the
layout's ``views`` do, for whoever saves them.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericsError
from .tensor import FlatParams, Parameter


class Adam:
    """Bias-corrected Adam over a fixed parameter list."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, flat: FlatParams, lr: float = 6e-4):
        names = [p.name for p in flat.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.flat = flat
        self.lr = float(lr)
        self.step_count = 0
        self.m, self.v = np.zeros_like(flat.data), np.zeros_like(flat.data)
        self._scratch = np.empty((2, self.flat.data.size))  # reused by every step

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        g, m, v = self.flat.grad, self.m, self.v
        a, b = self._scratch
        m *= self.BETA1
        m += np.multiply(g, 1.0 - self.BETA1, out=a)
        v *= self.BETA2
        np.multiply(g, 1.0 - self.BETA2, out=a)
        v += np.multiply(a, g, out=a)
        # data -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.EPS
        self.flat.data -= np.divide(a, b, out=a)


CLIP_NORM = 1.0


def clip_global_norm(params: list[Parameter]) -> float:
    """Scale all gradients so their joint L2 norm is at most ``CLIP_NORM``.

    The squared norm is summed per parameter in list order, which its bits
    depend on. Returns the scale that was applied (1.0 when already within
    bounds). Raises NumericsError on a non-finite norm before any gradient
    is scaled: a zero scale would turn an infinite gradient into NaN.
    """
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        bad = [p.name for p in params if not np.all(np.isfinite(p.grad))]
        raise NumericsError(f"non-finite gradient norm {norm}; non-finite gradients in {bad}")
    if norm <= CLIP_NORM or norm == 0.0:
        return 1.0
    scale = CLIP_NORM / norm
    for p in params:
        p.grad *= scale
    return scale


class Ema:
    """Exponential moving average of parameters: shadow <- d*shadow + (1-d)*p."""

    def __init__(self, flat: FlatParams, decay: float = 0.999):
        if not 0.0 <= decay <= 1.0:
            raise ValueError(f"decay must lie in [0, 1], got {decay}")
        self.decay = float(decay)
        self.flat = flat
        self.shadow = flat.data.copy()

    def update(self):
        d = self.decay
        self.shadow *= d
        self.shadow += (1.0 - d) * self.flat.data
