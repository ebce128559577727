"""Shared test utilities: independent oracles and band-restricted spectra."""

import mpmath as mp
import numpy as np

from speechsr import dsp
from speechsr.engine import Adam, Ema, FlatParams, ops


def fd_gradient_check(build_loss, params, rng, n_probes=32, h=1e-5,
                      rtol=1e-4, atol=1e-7):
    """Compare backward gradients against central finite differences.

    ``build_loss`` must rebuild the (deterministic) scalar loss from the
    current parameter values on every call. Probes ``n_probes`` random
    coordinates across all parameters.
    """
    for p in params:
        p.grad = None
    build_loss().backward()
    grads = {
        p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for p in params
    }
    coords = [(p, i) for p in params for i in range(p.size)]
    take = min(n_probes, len(coords))
    chosen = rng.choice(len(coords), size=take, replace=False)
    worst = 0.0
    for j in chosen:
        p, i = coords[j]
        orig = p.data.flat[i]
        p.data.flat[i] = orig + h
        f_plus = build_loss().item()
        p.data.flat[i] = orig - h
        f_minus = build_loss().item()
        p.data.flat[i] = orig
        fd = (f_plus - f_minus) / (2.0 * h)
        ad = grads[p.name].flat[i]
        err = abs(ad - fd)
        tol = rtol * max(abs(ad), abs(fd)) + atol
        assert err <= tol, (
            f"gradient mismatch at {p.name}[{i}]: backward {ad!r} vs fd {fd!r}"
        )
        worst = max(worst, err / (max(abs(ad), abs(fd)) + atol))
    for p in params:
        p.grad = None
    return worst


def response_mp(sos, freqs_norm, dps=40):
    """High-precision |H| of a second-order-section cascade on a grid of Nyquist fractions.

    Evaluates the rows ``(b0, b1, b2, a0, a1, a2)`` in mpmath arithmetic,
    independent of any float64 frequency-response routine.
    """
    out = []
    with mp.workdps(dps):
        for nu in freqs_norm:
            z = mp.expjpi(mp.mpf(nu))
            h = mp.mpc(1)
            for b0, b1, b2, a0, a1, a2 in sos:
                num = mp.mpc(b0) + mp.mpc(b1) / z + mp.mpc(b2) / z**2
                den = mp.mpc(a0) + mp.mpc(a1) / z + mp.mpc(a2) / z**2
                h *= num / den
            out.append(float(abs(h)))
    return np.asarray(out)


def sosfilt_py(sos, x) -> np.ndarray:
    """Zero-state biquad cascade as a plain-Python direct-form-I recursion."""
    y = [float(v) for v in x]
    for b0, b1, b2, a0, a1, a2 in sos:
        x1 = x2 = y1 = y2 = 0.0
        out = []
        for v in y:
            w = (b0 * v + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2) / a0
            x1, x2 = v, x1
            y1, y2 = w, y1
            out.append(w)
        y = out
    return np.asarray(y)


def stft_matrix_oracle(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """STFT by an explicit e^(-2 pi i k n / N) matrix on Hann-windowed frames.

    Frames are sliced from ``frame_len - hop`` zeros of left padding and
    enough right padding for complete coverage, independently of ``dsp``.
    """
    pad = frame_len - hop
    n_frames = -(-(x.size + pad) // hop)
    buf = np.zeros((n_frames - 1) * hop + frame_len)
    buf[pad:pad + x.size] = x
    n = np.arange(frame_len)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / frame_len))
    basis = np.exp(-2j * np.pi * np.outer(n, np.arange(frame_len // 2 + 1)) / frame_len)
    frames = np.stack([buf[t * hop:t * hop + frame_len] for t in range(n_frames)])
    return (frames * window) @ basis


def correlate_oracle(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 correlation of an already padded ``xp`` with ``w`` as one GEMM
    over the whole im2col patch matrix, without row blocks."""
    o, _, kh, kw = w.shape
    ho, wo = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    return (w.reshape(o, -1) @ ops._im2col(xp, kh, kw)).reshape(o, ho, wo)


def taps_oracle(xp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stride-1 correlation of an already padded ``xp`` with ``w`` as one GEMM
    of every tap against the whole flat input, without windows.

    Output (t, f) sums tap (i, j)'s response at flat offset
    ``t*Wp + f + i*Wp + j``, taps in row-major order; columns past ``Wo``
    wrap rows and are cropped.
    """
    o, c, kh, kw = w.shape
    _, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    taps = w.transpose(2, 3, 0, 1).reshape(kh * kw * o, c) @ xp.reshape(c, hp * wp)
    taps = taps.reshape(kh * kw, o, hp * wp)
    span = (ho - 1) * wp + wo
    acc = np.empty((o, ho * wp))
    acc[:, :span] = taps[0, :, :span]
    for i in range(kh):
        for j in range(kw):
            if i or j:
                shift = i * wp + j
                acc[:, :span] += taps[i * kw + j, :, shift:shift + span]
    return np.ascontiguousarray(acc.reshape(o, ho, wp)[:, :, :wo])


def attention_oracle(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``softmax(q kᵀ) v`` with every product as one GEMM, no row blocking."""
    s = q @ np.swapaxes(k, -1, -2)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return (e / e.sum(axis=-1, keepdims=True)) @ v


def fir_resample_oracle(x: np.ndarray, direction: str) -> np.ndarray:
    """The frequency-axis resampler as a composition of array steps.

    "up" first zero-interleaves to 2F. Both directions then reflect-pad one
    bin per side and blur as ``(left·t0 + centre·t1) + right·t2``, with taps
    [1,2,1]/4 down and [1,2,1]/2 up; "down" keeps the even bins.
    """
    if direction == "up":
        zeros = np.zeros(x.shape + (1,))
        x = np.concatenate([x[..., None], zeros], axis=-1).reshape(x.shape[:-1] + (-1,))
        taps = (0.5, 1.0, 0.5)
    else:
        taps = (0.25, 0.5, 0.25)
    f = x.shape[-1]
    xp = np.concatenate([x[..., 1:2], x, x[..., f - 2:f - 1]], axis=-1)
    y = (xp[..., 0:f] * taps[0] + xp[..., 1:f + 1] * taps[1]) + xp[..., 2:f + 2] * taps[2]
    return y[..., 0::2] if direction == "down" else y


def gru_loop_oracle(x, h0, w_ih, w_hh, b_ih, b_hh) -> np.ndarray:
    """GRU states of a (batch, seq, I) sequence, one cell equation per step.

    Rows of the parameters are [reset, update, candidate] gates;
    h' = z*h + (1-z)*n.
    """
    hidden = h0.shape[1]
    r_, z_, n_ = slice(0, hidden), slice(hidden, 2 * hidden), slice(2 * hidden, None)
    h, states = h0, []
    for t in range(x.shape[1]):
        gi = x[:, t] @ w_ih.T + b_ih
        gh = h @ w_hh.T + b_hh
        r = 1.0 / (1.0 + np.exp(-(gi[:, r_] + gh[:, r_])))
        z = 1.0 / (1.0 + np.exp(-(gi[:, z_] + gh[:, z_])))
        n = np.tanh(gi[:, n_] + r * gh[:, n_])
        h = z * h + (1.0 - z) * n
        states.append(h)
    return np.stack(states, axis=1)


def group_norm_silu_oracle(x, gamma, beta, groups: int, eps: float = 1e-5) -> np.ndarray:
    """Two-pass GroupNorm (group mean, then ``np.var``) and affine, then x·sigmoid(x)."""
    xg = x.reshape(groups, -1)
    istd = 1.0 / np.sqrt(xg.var(axis=1, keepdims=True) + eps)
    xhat = ((xg - xg.mean(axis=1, keepdims=True)) * istd).reshape(x.shape)
    s = xhat * gamma[:, None, None] + beta[:, None, None]
    return s * (1.0 / (1.0 + np.exp(-s)))


class LoopAdam:
    """Adam as a loop over the parameters of the layout it is given, each
    with its own moment arrays: the per-element arithmetic the flat
    optimizer must reproduce bit for bit. The moments are each parameter's
    view of a flat ``m`` and ``v``, so its state reads as ``Adam``'s does."""

    def __init__(self, flat, lr=6e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.flat, self.lr = flat, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m, self.v = np.zeros_like(flat.data), np.zeros_like(flat.data)

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.flat.params, self.flat.views(self.m), self.flat.views(self.v)):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class LoopEma:
    """EMA as a loop over the parameters of the layout it is given, each
    with its own shadow array (its view of a flat ``shadow``)."""

    def __init__(self, flat, decay=0.999):
        self.flat, self.decay = flat, decay
        self.shadow = flat.data.copy()

    def update(self):
        for p, s in zip(self.flat.params, self.flat.views(self.shadow)):
            s *= self.decay
            s += (1.0 - self.decay) * p.data


def adam_and_ema(model, lr=6e-4, decay=0.999):
    """``Adam`` and ``Ema`` on one layout of ``model.params()``, as ``fit`` makes them."""
    flat = FlatParams(model.params())
    return Adam(flat, lr), Ema(flat, decay)


def loop_clip_global_norm(params, max_norm=1.0) -> float:
    """Global-norm clipping as a loop over the parameters (finite gradients only)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return 1.0
    scale = max_norm / norm
    for p in params:
        if p.grad is not None:
            p.grad *= scale
    return scale


def assert_grad_views(flat, views):
    """Each ``.grad`` of ``flat``'s parameters is still ``views[i]``: its slice
    of ``flat.grad`` at its offset in list order, in its shape."""
    start = flat.grad.ctypes.data
    for p, view in zip(flat.params, views, strict=True):
        assert p.grad is view, p.name
        assert view.shape == p.shape and view.ctypes.data == start, p.name
        start += view.nbytes


def band_lsd(ref: dsp.Waveform, est: dsp.Waveform, f_lo: float, f_hi: float,
             cfg: dsp.FrameConfig = dsp.FrameConfig()) -> float:
    """Log-spectral distance restricted to bins with center freq in [f_lo, f_hi]."""
    s_ref = dsp.stft(ref, cfg)
    s_est = dsp.stft(est, cfg)
    centers = np.arange(s_ref.n_bins) * ref.sample_rate / s_ref.frame_len
    sel = (centers >= f_lo) & (centers <= f_hi)
    a = np.maximum(s_ref.magnitude()[:, sel], 1e-8)
    b = np.maximum(s_est.magnitude()[:, sel], 1e-8)
    d = np.log10(a**2 / b**2)
    return float(np.mean(np.sqrt(np.mean(d**2, axis=1))))


def band_energy_fraction(w: dsp.Waveform, f_lo: float) -> float:
    """Fraction of total spectral energy above ``f_lo`` Hz."""
    spec = np.fft.rfft(w.samples)
    freqs = np.fft.rfftfreq(len(w), d=1.0 / w.sample_rate)
    e = np.abs(spec) ** 2
    return float(e[freqs > f_lo].sum() / e.sum())


def speechlike(n: int, rate: int = 16000, seed: int = 0) -> dsp.Waveform:
    """Deterministic harmonic-plus-noise signal with a falling spectral tilt."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / rate
    f0 = 120.0 + 30.0 * np.sin(2 * np.pi * 1.7 * t)
    phase = 2 * np.pi * np.cumsum(f0) / rate
    x = np.zeros(n)
    for k in range(1, int(7000 / 160.0)):
        amp = 1.0 / (1.0 + (k * 130.0 / 900.0) ** 2) ** 0.5
        x += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    noise = rng.standard_normal(n)
    spec = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    spec *= 1.0 / (1.0 + (freqs / 2500.0) ** 2) ** 0.5
    x += 0.3 * np.fft.irfft(spec, n=n) / np.std(np.fft.irfft(spec, n=n))
    x /= np.std(x)
    return dsp.Waveform(x, rate)
