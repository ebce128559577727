"""Time-frequency analysis and signal normalization.

The package's one STFT lives here: the rfft kernels ``stft_values`` and
``istft_values`` serve the metrics (``stft``/``istft``) and the engine's
differentiable ``stft_pair``/``istft_pair``. All arithmetic is 64-bit. The
STFT uses a periodic Hann window and hops a quarter frame (:func:`stft_hop`),
so the squared-window overlap-add sum is exactly constant over every real
sample, and analysis followed by ``synthesis_gain``-normalized overlap-add
reconstructs the input to FFT rounding error.

Framing pads ``frame_len - hop`` zeros on each side of the signal before
slicing so that every input sample is covered by a full complement of
windows; synthesis truncates back to a requested length. The framing kernels
take a hop, because DPARN also frames with a hop of half its frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError


@dataclass(frozen=True)
class Waveform:
    """Mono time-domain signal plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT matrix of shape (frames, bins) with framing metadata."""

    values: np.ndarray
    frame_len: int
    sample_rate: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError(f"spectrogram must be 2-D, got shape {values.shape}")
        if values.shape[1] != self.frame_len // 2 + 1:
            raise ValueError(
                f"bin count {values.shape[1]} inconsistent with frame_len {self.frame_len}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def stft_hop(frame_len: int) -> int:
    """The hop of every STFT here: a quarter of ``frame_len``, which must be whole."""
    hop, rest = divmod(frame_len, 4)
    if rest or hop < 1:
        raise ValueError(f"a {frame_len}-sample STFT frame has no whole quarter (the hop)")
    return hop


@dataclass(frozen=True)
class FrameConfig:
    """STFT frame length in milliseconds (512 samples at 16 kHz), hopped by a quarter."""

    frame_ms: float = 32.0

    def __post_init__(self):
        if not (math.isfinite(self.frame_ms) and self.frame_ms > 0):
            raise ValueError(f"frame_ms must be finite and positive, got {self.frame_ms}")

    def frame_len(self, sample_rate: int) -> int:
        n = self.frame_ms * sample_rate / 1000.0
        if abs(n - round(n)) > 1e-9 or round(n) < 2:
            raise ValueError(f"frame_ms {self.frame_ms} is not an integer sample count at {sample_rate} Hz")
        n = int(round(n))
        try:
            stft_hop(n)
        except ValueError:
            raise ValueError(f"frame_ms {self.frame_ms} gives {n} samples at {sample_rate} Hz,"
                             " whose quarter (the hop) is not whole") from None
        return n


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window w[k] = 0.5*(1 - cos(2*pi*k/n)), k = 0..n-1."""
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def n_frames_for(length: int, frame_len: int, hop: int) -> int:
    """Frame count produced by :func:`frame_signal` for an input of ``length``."""
    pad = frame_len - hop
    return int(np.ceil((length + pad) / hop))


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Zero-pad ``frame_len - hop`` on both sides and slice into overlapping frames.

    Frames the leading axis of an (N, ...) array and returns a
    (T, frame_len, ...) copy; T = ceil((N + frame - hop) / hop).
    """
    x = np.asarray(x, dtype=np.float64)
    pad = frame_len - hop
    n_frames = n_frames_for(x.shape[0], frame_len, hop)
    total = (n_frames - 1) * hop + frame_len
    buf = np.zeros((total,) + x.shape[1:], dtype=np.float64)
    buf[pad:pad + x.shape[0]] = x
    frames = np.lib.stride_tricks.as_strided(
        buf, shape=(n_frames, frame_len) + x.shape[1:],
        strides=(hop * buf.strides[0],) + buf.strides,
    )
    return frames.copy()


def overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Inverse of the slicing in :func:`frame_signal` (no window, no unpadding)."""
    n_frames, frame_len = frames.shape[:2]
    tail = frames.shape[2:]
    total = (n_frames - 1) * hop + frame_len
    out = np.zeros((total,) + tail, dtype=frames.dtype)
    # Frames k, k + g, k + 2g, ... with g = frame/hop do not overlap each other,
    # so the sum needs only g strided block-adds.
    groups = frame_len // hop
    for g in range(groups):
        sub = frames[g::groups]
        if not sub.shape[0]:
            continue
        block = out[g * hop:g * hop + sub.shape[0] * frame_len]
        block += sub.reshape((-1,) + tail)
    return out


def stft_values(x: np.ndarray, frame_len: int) -> np.ndarray:
    """Hann-windowed rfft of the :func:`frame_signal` frames: (T, frame_len // 2 + 1)."""
    frames = frame_signal(x, frame_len, stft_hop(frame_len))
    frames *= hann_window(frame_len)
    return np.fft.rfft(frames, axis=1)


def synthesis_gain(n_frames: int, frame_len: int, hop: int, target_len: int) -> np.ndarray:
    """1 / squared-window sum over the first ``target_len`` synthesized samples."""
    pad = frame_len - hop
    synthesizable = n_frames * hop - pad
    if target_len < 0 or target_len > synthesizable:
        raise ValueError(
            f"target_len {target_len} outside synthesizable range [0, {synthesizable}]"
        )
    w2 = hann_window(frame_len) ** 2
    wsum = overlap_add(np.tile(w2, (n_frames, 1)), hop)[pad:pad + target_len]
    if np.any(wsum <= 1e-12):
        raise RuntimeError("window normalization vanished on a real sample; non-COLA framing")
    return 1.0 / wsum


def istft_values(values: np.ndarray, frame_len: int, target_len: int) -> np.ndarray:
    """Windowed irfft overlap-add of (T, bins) values, normalized to ``target_len`` samples."""
    hop = stft_hop(frame_len)
    gain = synthesis_gain(values.shape[0], frame_len, hop, target_len)
    frames = np.fft.irfft(values, n=frame_len, axis=1)
    frames *= hann_window(frame_len)
    pad = frame_len - hop
    return overlap_add(frames, hop)[pad:pad + target_len] * gain


def stft(w: Waveform, cfg: FrameConfig = FrameConfig()) -> Spectrogram:
    """Short-time Fourier transform with a periodic Hann analysis window."""
    if len(w) < 1:
        raise ValueError("cannot take the STFT of an empty waveform")
    frame_len = cfg.frame_len(w.sample_rate)
    return Spectrogram(stft_values(w.samples, frame_len), frame_len, w.sample_rate)


def istft(s: Spectrogram, target_len: int) -> Waveform:
    """Windowed overlap-add synthesis, normalized by the squared-window sum.

    ``target_len`` selects the leading samples of the reconstruction; it must
    not exceed the span the frames can synthesize.
    """
    return Waveform(istft_values(s.values, s.frame_len, target_len), s.sample_rate)


def normalize(w: Waveform) -> tuple[Waveform, float, float]:
    """Remove the mean and scale to unit population standard deviation.

    Returns the normalized waveform together with the original (mean, std)
    for de-normalization. A constant signal cannot be normalized.
    """
    if len(w) < 2:
        raise ValueError(f"normalization needs at least 2 samples, got {len(w)}")
    mean = float(np.mean(w.samples))
    std = float(np.std(w.samples))
    if std == 0.0:
        raise DegenerateInputError("constant signal has zero variance")
    return Waveform((w.samples - mean) / std, w.sample_rate), mean, std
