"""Differentiable operations: primitives, conv/framing kernels, layers.

Primitives carry hand-written vjps, among them the STFT/iSTFT pair, which
runs on :mod:`speechsr.dsp`'s rfft kernels; layers (group norm, SiLU, GRU
cell, frequency-axis FIR resampling) are built by composition so their
gradients follow from the chain rule.
"""

from __future__ import annotations

import numpy as np

from ..dsp import (frame_signal, hann_window, istft_values, overlap_add, stft_values,
                   synthesis_gain)
from .tensor import Tensor, as_tensor, make_result, unbroadcast

# ---------------------------------------------------------------------------
# elementwise and shape primitives
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        return unbroadcast(g, a.shape), unbroadcast(g, b.shape)

    return make_result(data, (a, b), vjp)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        return unbroadcast(g, a.shape), unbroadcast(-g, b.shape)

    return make_result(data, (a, b), vjp)


def neg(a):
    a = as_tensor(a)
    return make_result(-a.data, (a,), lambda g: (-g,))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        return unbroadcast(g * b.data, a.shape), unbroadcast(g * a.data, b.shape)

    return make_result(data, (a, b), vjp)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def vjp(g):
        ga = unbroadcast(g / b.data, a.shape)
        gb = unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return make_result(data, (a, b), vjp)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def vjp(g):
        ga = unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        gb = unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        return ga, gb

    return make_result(data, (a, b), vjp)


def reshape(a, shape):
    a = as_tensor(a)
    return make_result(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return make_result(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def getitem(a, idx):
    a = as_tensor(a)
    data = a.data[idx]
    if np.shares_memory(data, a.data):
        data = data.copy()

    def vjp(g):
        out = np.zeros(a.shape, dtype=np.float64)
        out[idx] = g
        return (out,)

    return make_result(data, (a,), vjp)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return make_result(data, tuple(tensors), vjp)


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return make_result(data, (a,), vjp)


def mean_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def exp(a):
    a = as_tensor(a)
    data = np.exp(a.data)
    return make_result(data, (a,), lambda g: (g * data,))


def log(a):
    a = as_tensor(a)
    return make_result(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a):
    a = as_tensor(a)
    data = np.sqrt(a.data)
    return make_result(data, (a,), lambda g: (g * (0.5 / data),))


def abs_(a):
    a = as_tensor(a)
    return make_result(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def sigmoid(a):
    a = as_tensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return make_result(data, (a,), lambda g: (g * data * (1.0 - data),))


def tanh(a):
    a = as_tensor(a)
    data = np.tanh(a.data)
    return make_result(data, (a,), lambda g: (g * (1.0 - data * data),))


def softmax_last(a):
    """Numerically stable softmax over the last axis."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - inner),)

    return make_result(data, (a,), vjp)


def silu(a):
    """x * sigmoid(x)."""
    return mul(a, sigmoid(a))


def complex_magnitude(re, im):
    """sqrt(re^2 + im^2) with a zero subgradient at the origin."""
    re, im = as_tensor(re), as_tensor(im)
    data = np.hypot(re.data, im.data)

    def vjp(g):
        safe = np.where(data > 0.0, data, 1.0)
        scale = g / safe
        zero = data == 0.0
        gre = np.where(zero, 0.0, scale * re.data)
        gim = np.where(zero, 0.0, scale * im.data)
        return gre, gim

    return make_result(data, (re, im), vjp)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(C, Hp, Wp) -> (C*kh*kw, Ho*Wo) patch matrix for stride-1 correlation."""
    c, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(c, kh, kw, ho, wo), strides=(sc, sh, sw, sh, sw)
    )
    return windows.reshape(c * kh * kw, ho * wo)


def conv2d(x, w, b=None, pad=(0, 0)):
    """2-D cross-correlation over (C_in, T, F) with zero padding, stride 1.

    ``w`` has shape (C_out, C_in, kh, kw); ``b`` broadcasts per output
    channel.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3 or w.ndim != 4:
        raise ValueError(f"conv2d expects (C,T,F) and (O,C,kh,kw), got {x.shape}, {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[0]} vs kernel {w.shape[1]}")
    pt, pf = pad
    kh, kw = w.shape[2], w.shape[3]
    if x.shape[1] + 2 * pt < kh or x.shape[2] + 2 * pf < kw:
        raise ValueError("kernel larger than padded input")
    xp = np.pad(x.data, ((0, 0), (pt, pt), (pf, pf)))
    c_in, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    cols = _im2col(xp, kh, kw)
    o = w.shape[0]
    data = (w.data.reshape(o, -1) @ cols).reshape(o, ho, wo)

    def vjp(g):
        g2 = g.reshape(o, -1)
        gw = (g2 @ cols.T).reshape(w.shape)
        # Scatter dX tap by tap: cheaper than an im2col of the upstream grad.
        dcols = (w.data.reshape(o, -1).T @ g2).reshape(c_in, kh, kw, ho, wo)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, i:i + ho, j:j + wo] += dcols[:, i, j]
        return gxp[:, pt:pt + x.shape[1], pf:pf + x.shape[2]].copy(), gw

    out = make_result(data, (x, w), vjp)
    if b is not None:
        b = as_tensor(b)
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} != ({w.shape[0]},)")
        out = add(out, reshape(b, (w.shape[0], 1, 1)))
    return out


def pointwise_channels(x, w, b=None):
    """1x1 convolution as a channel-mixing matmul: (C,T,F) x (O,C) -> (O,T,F)."""
    x, w = as_tensor(x), as_tensor(w)
    c, t, f = x.shape
    y = matmul(w, reshape(x, (c, t * f)))
    y = reshape(y, (w.shape[0], t, f))
    if b is not None:
        y = add(y, reshape(as_tensor(b), (w.shape[0], 1, 1)))
    return y


# ---------------------------------------------------------------------------
# framing / overlap-add (exact adjoints of each other)
# ---------------------------------------------------------------------------


def frame_rows(x, frame_len: int, hop: int):
    """Slice a (N, ...) tensor into overlapping (T, frame_len, ...) frames.

    Pads ``frame_len - hop`` zero rows on the left and enough on the right
    for complete coverage, matching :func:`speechsr.dsp.frame_signal`.
    """
    x = as_tensor(x)
    if frame_len % hop != 0:
        raise ValueError("frame_len must be a multiple of hop")
    n = x.shape[0]
    pad = frame_len - hop
    data = frame_signal(x.data, frame_len, hop)

    def vjp(g):
        return (overlap_add(g, hop)[pad:pad + n],)

    return make_result(data, (x,), vjp)


def overlap_add_rows(frames, hop: int, out_len: int):
    """Adjoint-consistent inverse of :func:`frame_rows` (sum, then unpad)."""
    frames = as_tensor(frames)
    frame_len = frames.shape[1]
    if frame_len % hop != 0:
        raise ValueError("frame_len must be a multiple of hop")
    pad = frame_len - hop
    span = frames.shape[0] * hop - pad
    if out_len > span:
        raise ValueError(f"out_len {out_len} exceeds synthesizable span {span}")
    data = overlap_add(frames.data, hop)[pad:pad + out_len]
    tail_pad = [(0, span - out_len)] + [(0, 0)] * (frames.ndim - 2)

    def vjp(g):
        # Zero-padded to ``span`` samples, g frames back into exactly T frames.
        return (frame_signal(np.pad(g, tail_pad), frame_len, hop),)

    return make_result(data, (frames,), vjp)


# ---------------------------------------------------------------------------
# layers by composition
# ---------------------------------------------------------------------------


def linear(x, w, b=None):
    """Affine map on the last axis: x (..., I) with w (O, I), b (O,)."""
    x, w = as_tensor(x), as_tensor(w)
    squeeze = x.ndim == 1
    if squeeze:
        x = reshape(x, (1, x.shape[0]))
    y = matmul(x, transpose(w, (1, 0)))
    if b is not None:
        y = add(y, as_tensor(b))
    if squeeze:
        y = reshape(y, (y.shape[-1],))
    return y


def group_norm(x, gamma, beta, groups: int, eps: float = 1e-5):
    """Per-group standardization over (channels-in-group, T, F), then affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c, t, f = x.shape
    if c % groups != 0:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    xg = x.data.reshape(groups, -1)
    mean = xg.mean(axis=1, keepdims=True)
    var = xg.var(axis=1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mean) * istd).reshape(c, t, f)
    gam = gamma.data.reshape(c, 1, 1)
    data = xhat * gam + beta.data.reshape(c, 1, 1)

    def vjp(g):
        dgamma = (g * xhat).sum(axis=(1, 2))
        dbeta = g.sum(axis=(1, 2))
        dxh = (g * gam).reshape(groups, -1)
        xh = xhat.reshape(groups, -1)
        m1 = dxh.mean(axis=1, keepdims=True)
        m2 = (dxh * xh).mean(axis=1, keepdims=True)
        dx = ((dxh - m1 - xh * m2) * istd).reshape(c, t, f)
        return dx, dgamma, dbeta

    return make_result(data, (x, gamma, beta), vjp)


def gru_cell(x, h, w_ih, w_hh, b_ih, b_hh):
    """Gated recurrent unit step on (..., I) input and (..., H) state.

    Gate layout along the parameter rows is [reset, update, candidate];
    the update gate carries the previous state: h' = z*h + (1-z)*n.
    """
    x, h = as_tensor(x), as_tensor(h)
    w_ih, w_hh = as_tensor(w_ih), as_tensor(w_hh)
    b_ih, b_hh = as_tensor(b_ih), as_tensor(b_hh)
    hidden = h.shape[-1]
    if w_ih.shape[0] != 3 * hidden or w_hh.shape != (3 * hidden, hidden):
        raise ValueError(
            f"GRU parameter shapes {w_ih.shape}/{w_hh.shape} inconsistent with hidden {hidden}"
        )
    if x.shape[:-1] != h.shape[:-1]:
        raise ValueError(f"batch shape mismatch: {x.shape} vs {h.shape}")
    gi = x.data @ w_ih.data.T + b_ih.data
    gh = h.data @ w_hh.data.T + b_hh.data
    sl_r, sl_z, sl_n = (slice(0, hidden), slice(hidden, 2 * hidden),
                        slice(2 * hidden, 3 * hidden))
    r = 1.0 / (1.0 + np.exp(-(gi[..., sl_r] + gh[..., sl_r])))
    z = 1.0 / (1.0 + np.exp(-(gi[..., sl_z] + gh[..., sl_z])))
    ghn = gh[..., sl_n]
    n = np.tanh(gi[..., sl_n] + r * ghn)
    data = z * h.data + (1.0 - z) * n

    def vjp(g):
        da_n = g * (1.0 - z) * (1.0 - n * n)
        da_z = g * (h.data - n) * z * (1.0 - z)
        da_r = da_n * ghn * r * (1.0 - r)
        dgi = np.concatenate([da_r, da_z, da_n], axis=-1)
        dgh = np.concatenate([da_r, da_z, da_n * r], axis=-1)
        dx = dgi @ w_ih.data
        dh = g * z + dgh @ w_hh.data
        flat_gi = dgi.reshape(-1, 3 * hidden)
        dw_ih = flat_gi.T @ x.data.reshape(-1, x.shape[-1])
        dw_hh = dgh.reshape(-1, 3 * hidden).T @ h.data.reshape(-1, hidden)
        db_ih = flat_gi.sum(axis=0)
        db_hh = db_ih.copy()
        db_hh[2 * hidden:] = dgh.reshape(-1, 3 * hidden)[:, 2 * hidden:].sum(axis=0)
        return dx, dh, dw_ih, dw_hh, db_ih, db_hh

    return make_result(data, (x, h, w_ih, w_hh, b_ih, b_hh), vjp)


def _blur3_freq(x, taps):
    """3-tap blur along the last axis with reflect padding."""
    f = x.shape[-1]
    left = getitem(x, (Ellipsis, slice(1, 2)))
    right = getitem(x, (Ellipsis, slice(f - 2, f - 1)))
    xp = concat([left, x, right], axis=x.ndim - 1)
    parts = [
        mul(getitem(xp, (Ellipsis, slice(0, f))), taps[0]),
        mul(getitem(xp, (Ellipsis, slice(1, f + 1))), taps[1]),
        mul(getitem(xp, (Ellipsis, slice(2, f + 2))), taps[2]),
    ]
    return add(add(parts[0], parts[1]), parts[2])


def fir_resample_freq(x, direction: str):
    """Halve or double the frequency axis with an anti-artifact binomial blur.

    down: blur by [1,2,1]/4 (reflect padded) then keep even bins;
    up:   zero-interleave to 2F then blur by [1,2,1]/2.
    """
    x = as_tensor(x)
    f = x.shape[-1]
    if direction == "down":
        if f % 2 != 0:
            raise ValueError(f"frequency size {f} must be even to downsample")
        y = _blur3_freq(x, (0.25, 0.5, 0.25))
        return getitem(y, (Ellipsis, slice(0, f, 2)))
    if direction == "up":
        expanded = reshape(x, x.shape + (1,))
        zeros = Tensor(np.zeros(x.shape + (1,)))
        inter = concat([expanded, zeros], axis=x.ndim)
        inter = reshape(inter, x.shape[:-1] + (2 * f,))
        return _blur3_freq(inter, (0.5, 1.0, 0.5))
    raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")


# ---------------------------------------------------------------------------
# differentiable STFT / iSTFT on speechsr.dsp's rfft kernels; the adjoint of a
# real-input rfft is a bin-weighted irfft, and vice versa
# ---------------------------------------------------------------------------


def _bin_multiplicity(frame_len: int) -> np.ndarray:
    """How often each rfft bin occurs in the full spectrum: 1 at DC and Nyquist, else 2."""
    k = np.arange(frame_len // 2 + 1)
    return np.where((k == 0) | (2 * k == frame_len), 1.0, 2.0)


def stft_pair(x, frame_len: int, hop: int):
    """Differentiable STFT of a 1-D tensor -> (real, imag), each (T, F)."""
    x = as_tensor(x)
    n = x.shape[0]
    pad = frame_len - hop
    values = stft_values(x.data, frame_len, hop)
    scale = frame_len * hann_window(frame_len)
    mult = _bin_multiplicity(frame_len)

    def adjoint(g):
        frames = np.fft.irfft(g / mult, n=frame_len, axis=1) * scale
        return (overlap_add(frames, hop)[pad:pad + n],)

    re = make_result(values.real.copy(), (x,), adjoint)
    im = make_result(values.imag.copy(), (x,), lambda g: adjoint(1j * g))
    return re, im


def istft_pair(re, im, frame_len: int, hop: int, target_len: int):
    """Differentiable inverse of :func:`stft_pair`, truncated to target_len.

    Like ``np.fft.irfft``, bins missing above ``re.shape[1]`` count as zero.
    """
    re, im = as_tensor(re), as_tensor(im)
    n_frames, n_bins = re.shape
    data = istft_values(re.data + 1j * im.data, frame_len, hop, target_len)
    tail = n_frames * hop - (frame_len - hop) - target_len

    def vjp(g):
        g = g * synthesis_gain(n_frames, frame_len, hop, target_len)
        spec = stft_values(np.pad(g, (0, tail)), frame_len, hop)
        spec *= _bin_multiplicity(frame_len) / frame_len
        return spec.real[:, :n_bins], spec.imag[:, :n_bins]

    return make_result(data, (re, im), vjp)
