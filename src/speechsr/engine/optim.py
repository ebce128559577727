"""Adam with bias correction, global-norm gradient clipping, and EMA shadows.

Adam and the EMA work on their parameter list's :class:`FlatParams` layout,
made by whichever of them is built first: the values, gradients, Adam
moments and EMA shadow are one float64 buffer each, in list order, so an
update is a handful of whole-buffer numpy calls. Each does, element by
element, what a loop over the parameters does, with the same bits. Each
``.grad`` is its view of the gradient buffer, written in place, never
rebound, and zero where ``backward`` did not reach. ``opt.m``, ``opt.v``
and ``ema.shadow`` map each parameter's name to its view of those
buffers, so a checkpoint restored through them in place lands in them.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericsError
from .tensor import FlatParams, Parameter


class Adam:
    """Bias-corrected Adam over a fixed parameter list."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Parameter], lr: float = 6e-4):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.flat = FlatParams.of(params)
        self.lr = float(lr)
        self.step_count = 0
        self._m, self._v = np.zeros_like(self.flat.data), np.zeros_like(self.flat.data)
        self.m = dict(zip(names, self.flat.views(self._m)))
        self.v = dict(zip(names, self.flat.views(self._v)))
        self._scratch = np.empty((2, self.flat.data.size))  # reused by every step

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        g, m, v = self.flat.grad, self._m, self._v
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

    def zero_grad(self):
        self.flat.zero_grad()


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

    def __init__(self, params: list[Parameter], decay: float = 0.999):
        if not 0.0 <= decay <= 1.0:
            raise ValueError(f"decay must lie in [0, 1], got {decay}")
        self.decay = float(decay)
        self.flat = FlatParams.of(params)
        self._shadow = self.flat.data.copy()
        self.shadow = dict(zip((p.name for p in params), self.flat.views(self._shadow)))

    def update(self):
        d = self.decay
        self._shadow *= d
        self._shadow += (1.0 - d) * self.flat.data
