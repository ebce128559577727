"""Low-resolution signal simulation and the resampling operator.

The simulation chain is: IIR lowpass at the target Nyquist, decimation by
an integer ratio, then natural-cubic-spline interpolation back to the
original grid. The lowpass is a Chebyshev type I or a Bessel design from
:mod:`scipy.signal` (bilinear transform, pre-warped so the cutoff lands
exactly), held as second-order sections.

Filtering is zero-phase (forward-backward), so the chain's low band is a
near-identity in the time domain, which the repainting step of the
inference loop relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal
from scipy.interpolate import CubicSpline

from .dsp import Waveform

CHEBY_ORDER = 8
CHEBY_RIPPLE_DB = 0.05
BESSEL_ORDER = 5


@dataclass(frozen=True)
class UpsamplingRatio:
    """Integer ratio fs_hr / fs_lr."""

    ratio: int

    def __post_init__(self):
        if int(self.ratio) < 1:
            raise ValueError(f"upsampling ratio must be >= 1, got {self.ratio}")
        object.__setattr__(self, "ratio", int(self.ratio))


@dataclass(frozen=True)
class Lossmap:
    """Binary (frames, bins) mask; ones mark T-F units to be synthesized."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=np.float64)
        object.__setattr__(self, "mask", mask)
        if mask.ndim != 2:
            raise ValueError("lossmap must be 2-D")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ValueError("lossmap entries must be 0 or 1")


@lru_cache(maxsize=None)
def design_lowpass(kind: str, cutoff_norm: float) -> np.ndarray:
    """Digital lowpass as an ``(n_sections, 6)`` second-order-section array.

    ``cutoff_norm`` is a fraction of Nyquist: the Chebyshev passband edge or
    the Bessel -3 dB point. Designs are memoised per ``(kind, cutoff_norm)``;
    callers must not modify the returned array.
    """
    if not 0.0 < cutoff_norm < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1) as a fraction of Nyquist, got {cutoff_norm}")
    if kind == "chebyshev":
        return signal.cheby1(CHEBY_ORDER, CHEBY_RIPPLE_DB, cutoff_norm, output="sos")
    if kind == "bessel":
        return signal.bessel(BESSEL_ORDER, cutoff_norm, norm="mag", output="sos")
    raise ValueError(f"unknown filter kind {kind!r} (expected 'chebyshev' or 'bessel')")


def iir_apply_zero_phase(sos: np.ndarray, w: Waveform) -> Waveform:
    """Forward-backward filtering (magnitude squared, zero phase).

    The signal is extended by odd reflection at both ends, then filtered
    forward and backward from zero state; the reflection suppresses
    start-up transients. Unlike ``scipy.signal.sosfiltfilt``, neither pass
    starts from steady-state initial conditions, which would change the
    output of inputs shorter than the extension.
    """
    x = w.samples
    if not x.size:
        raise ValueError("cannot filter an empty waveform")
    pad = min(max(x.size - 1, 0), 512)
    ext = x
    if pad:
        ext = np.concatenate([2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2:-pad - 2:-1]])
    y = signal.sosfilt(sos, signal.sosfilt(sos, ext)[::-1])[::-1]
    return Waveform(y[pad:pad + x.size], w.sample_rate)


def decimate(w: Waveform, ratio: UpsamplingRatio) -> Waveform:
    """Keep every ratio-th sample (caller is responsible for anti-aliasing)."""
    r = ratio.ratio
    if r == 1:
        return w
    if w.sample_rate % r != 0:
        raise ValueError(f"sample rate {w.sample_rate} not divisible by ratio {r}")
    return Waveform(w.samples[::r].copy(), w.sample_rate // r)


def cubic_spline_upsample(w: Waveform, ratio: UpsamplingRatio) -> Waveform:
    """Natural cubic spline through the samples, evaluated on the fine grid.

    Knots sit at integer indices; outputs are taken at k/ratio for
    k = 0..(n*ratio - 1), extrapolating the last polynomial piece beyond the
    final knot.
    """
    r = ratio.ratio
    if r == 1:
        return w
    if len(w) < 4:
        raise ValueError(f"spline upsampling needs at least 4 samples, got {len(w)}")
    n = len(w)
    spline = CubicSpline(np.arange(n), w.samples, bc_type="natural")
    return Waveform(spline(np.arange(n * r) / r), w.sample_rate * r)


def simulate_lr(hr: Waveform, ratio: UpsamplingRatio,
                kind: str = "chebyshev") -> tuple[Waveform, Waveform]:
    """Produce the low-rate signal and its spline-interpolated version.

    Returns (s_lr at the reduced rate, s_inp back at the original rate with
    the original length).
    """
    r = ratio.ratio
    if hr.sample_rate % r != 0:
        raise ValueError(f"sample rate {hr.sample_rate} not divisible by ratio {r}")
    if kind not in ("chebyshev", "bessel"):
        raise ValueError(f"unknown filter kind {kind!r} (expected 'chebyshev' or 'bessel')")
    if r == 1:
        # Nothing to remove; a cutoff at Nyquist itself would only stamp the
        # ripple floor onto the whole band.
        copy = Waveform(hr.samples.copy(), hr.sample_rate)
        return copy, Waveform(hr.samples.copy(), hr.sample_rate)
    filtered = iir_apply_zero_phase(design_lowpass(kind, 1.0 / r), hr)
    s_lr = decimate(filtered, ratio)
    s_up = cubic_spline_upsample(s_lr, ratio)
    out = s_up.samples
    if out.size < len(hr):
        out = np.concatenate([out, np.zeros(len(hr) - out.size)])
    return s_lr, Waveform(out[:len(hr)], hr.sample_rate)


def resample_chain(w: Waveform, ratio: UpsamplingRatio,
                   kind: str = "chebyshev") -> Waveform:
    """Filter -> decimate -> spline-upsample, back at the caller's rate.

    This is the operator the repainting step subtracts to split a signal
    into its low-band (kept) and high-band (replaced) parts.
    """
    _, s_inp = simulate_lr(w, ratio, kind)
    return s_inp


def build_lossmap(frames: int, bins: int, ratio: UpsamplingRatio,
                  frame_len: int, sample_rate: int) -> Lossmap:
    """Ones for bins whose center frequency exceeds the low-rate Nyquist."""
    if frames < 0 or bins < 0:
        raise ValueError("lossmap dimensions must be nonnegative")
    f = np.arange(bins, dtype=np.float64)
    centers = f * sample_rate / frame_len
    row = (centers > sample_rate / (2.0 * ratio.ratio)).astype(np.float64)
    return Lossmap(np.tile(row, (frames, 1)))
