"""Low-resolution signal simulation and the resampling operator.

The simulation chain is :func:`downsample` (IIR lowpass at the target
Nyquist, then every ratio-th sample) and natural-cubic-spline interpolation
back to the original grid; preprocessing and repainting run the same code.
The lowpass is a Chebyshev type I or a Bessel design from
:mod:`scipy.signal` (bilinear transform, pre-warped so the cutoff lands
exactly), held as second-order sections.

Filtering is zero-phase (forward-backward), so the chain's low band is a
near-identity in the time domain, which the repainting step of the
inference loop relies on. ARCN marks the bins the ratio removes itself
(:meth:`speechsr.networks.Arcn.lossmap_pyramid`).

scipy is imported inside the functions that use it: ``scipy.signal`` alone
takes over a second to import, which commands that never filter (corpus
synthesis, schedule dumps, spectrograms) need not pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsp import Waveform

CHEBY_ORDER = 8
CHEBY_RIPPLE_DB = 0.05
BESSEL_ORDER = 5
FILTER_KINDS = ("chebyshev", "bessel")


@dataclass(frozen=True)
class UpsamplingRatio:
    """Integer ratio fs_hr / fs_lr."""

    ratio: int

    def __post_init__(self):
        if not float(self.ratio).is_integer() or self.ratio < 1:
            raise ValueError(f"upsampling ratio must be >= 1 and a whole number, got {self.ratio}")
        object.__setattr__(self, "ratio", int(self.ratio))


@lru_cache(maxsize=None)
def design_lowpass(kind: str, cutoff_norm: float) -> np.ndarray:
    """Digital lowpass as an ``(n_sections, 6)`` second-order-section array.

    ``cutoff_norm`` is a fraction of Nyquist: the Chebyshev passband edge or
    the Bessel -3 dB point. Designs are memoised per ``(kind, cutoff_norm)``;
    callers must not modify the returned array. The benchmark's tracer
    counts designs through this module attribute.
    """
    from scipy import signal

    if not 0.0 < cutoff_norm < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1) as a fraction of Nyquist, got {cutoff_norm}")
    if kind == "chebyshev":
        return signal.cheby1(CHEBY_ORDER, CHEBY_RIPPLE_DB, cutoff_norm, output="sos")
    if kind == "bessel":
        return signal.bessel(BESSEL_ORDER, cutoff_norm, norm="mag", output="sos")
    raise ValueError(f"unknown filter kind {kind!r} (expected one of {FILTER_KINDS})")


def iir_apply_zero_phase(sos: np.ndarray, w: Waveform) -> Waveform:
    """Forward-backward filtering (magnitude squared, zero phase).

    The signal is extended by odd reflection at both ends, then filtered
    forward and backward from zero state; the reflection suppresses
    start-up transients. Unlike ``scipy.signal.sosfiltfilt``, neither pass
    starts from steady-state initial conditions, which would change the
    output of inputs shorter than the extension, as the tests check.
    """
    from scipy import signal

    x = w.samples
    if not x.size:
        raise ValueError("cannot filter an empty waveform")
    pad = min(max(x.size - 1, 0), 512)
    ext = x
    if pad:
        ext = np.concatenate([2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2:-pad - 2:-1]])
    y = signal.sosfilt(sos, signal.sosfilt(sos, ext)[::-1])[::-1]
    return Waveform(y[pad:pad + x.size], w.sample_rate)


def downsample(w: Waveform, factor: int, kind: str) -> Waveform:
    """Zero-phase ``kind`` lowpass at 1 / factor of Nyquist, then every factor-th sample.

    ``factor`` must exceed 1: :func:`design_lowpass` refuses a cutoff at Nyquist.
    """
    if w.sample_rate % factor != 0:
        raise ValueError(f"sample rate {w.sample_rate} not divisible by factor {factor}")
    filtered = iir_apply_zero_phase(design_lowpass(kind, 1.0 / factor), w)
    return Waveform(filtered.samples[::factor].copy(), w.sample_rate // factor)


def cubic_spline_upsample(w: Waveform, ratio: UpsamplingRatio) -> Waveform:
    """Natural cubic spline through the samples, evaluated on the fine grid.

    Knots sit at integer indices; outputs are taken at k/ratio for
    k = 0..(n*ratio - 1), extrapolating the last polynomial piece beyond the
    final knot. Ratio 1 returns ``w`` itself: ``reverse_infer`` calls this
    with the caller's ratio, which may be 1.
    """
    r = ratio.ratio
    if r == 1:
        return w
    if len(w) < 4:
        raise ValueError(f"spline upsampling needs at least 4 samples, got {len(w)}")
    from scipy.interpolate import CubicSpline

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
    if kind not in FILTER_KINDS:
        raise ValueError(f"unknown filter kind {kind!r} (expected one of {FILTER_KINDS})")
    if r == 1:
        # Nothing to remove, and design_lowpass refuses a cutoff at Nyquist
        # itself, which would only stamp the ripple floor onto the whole band.
        copy = Waveform(hr.samples.copy(), hr.sample_rate)
        return copy, Waveform(hr.samples.copy(), hr.sample_rate)
    s_lr = downsample(hr, r, kind)
    # The spline yields ceil(n / r) * r >= n samples; keep the first n.
    s_up = cubic_spline_upsample(s_lr, ratio)
    return s_lr, Waveform(s_up.samples[:len(hr)], hr.sample_rate)
