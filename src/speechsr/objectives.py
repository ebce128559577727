"""Loss functions for joint two-stage training and evaluation metrics.

The predictive loss is an L1 over magnitude, real, and imaginary STFT
differences; the diffusion loss mixes time-domain and magnitude L1 with a
fixed 0.85/0.15 weighting. Losses are plain means over every cell of one
utterance. The spectra come from the engine's STFT, which runs on
the same rfft kernel as the metrics.

Metrics are plain float functions: scale-invariant SNR (projection form),
the frame-averaged RMS log-power spectral distance, and the per-frame
energy error of the band the model regenerates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Spectrogram
from .engine import Tensor, ops
from .engine.tensor import as_tensor

ALPHA = 0.85          # time/frequency mix of the diffusion loss
LAMBDA_MAX = 100.0    # clamp for the diffusion-loss weight
LSD_EPS = 1e-8        # magnitude floor before squaring/log
SISNR_CAP_DB = 100.0  # reported stand-in for a zero-error estimate


@dataclass(frozen=True)
class LossReport:
    """Scalar view of one training step's loss terms."""

    l_pred: float
    l_time: float
    l_freq: float
    l_diff: float
    lambda_weight: float
    total: float

    @classmethod
    def build(cls, l_pred: float, l_time: float, l_freq: float,
              lambda_weight: float) -> "LossReport":
        l_diff = ALPHA * l_time + (1.0 - ALPHA) * l_freq
        return cls(l_pred, l_time, l_freq, l_diff, lambda_weight,
                   l_pred + lambda_weight * l_diff)


@dataclass(frozen=True)
class MetricReport:
    sisnr_db: float
    lsd_db: float
    band_error_db: float  # band_energy_error above the low-rate Nyquist frequency

    def __post_init__(self):
        if self.lsd_db < 0:
            raise ValueError(f"LSD cannot be negative, got {self.lsd_db}")
        if self.band_error_db < 0:
            raise ValueError(f"band energy error cannot be negative, got {self.band_error_db}")


def loss_pred(sp_re, sp_im, s_re, s_im) -> Tensor:
    """L1 of magnitude + real + imaginary differences, averaged per cell.

    Inputs are (T, F) tensors (or arrays) of STFT real/imaginary parts.
    """
    sp_re, sp_im = as_tensor(sp_re), as_tensor(sp_im)
    s_re, s_im = as_tensor(s_re), as_tensor(s_im)
    if sp_re.shape != s_re.shape or sp_im.shape != s_im.shape or sp_re.shape != sp_im.shape:
        raise ValueError("spectrogram shape mismatch")
    mag_p = ops.complex_magnitude(sp_re, sp_im)
    mag_s = ops.complex_magnitude(s_re, s_im)
    cells = ops.abs_(ops.sub(mag_p, mag_s))
    cells = ops.add(cells, ops.abs_(ops.sub(sp_re, s_re)))
    cells = ops.add(cells, ops.abs_(ops.sub(sp_im, s_im)))
    return ops.mean_(cells.reshape(-1))


def loss_tf(s_hat, s_ref, frame_len: int) -> tuple[Tensor, Tensor, Tensor]:
    """Time L1 and quarter-hop STFT-magnitude L1, mixed as alpha*time + (1-alpha)*freq.

    Returns (l_time, l_freq, l_diff).
    """
    s_hat, s_ref = as_tensor(s_hat), as_tensor(s_ref)
    if s_hat.shape != s_ref.shape:
        raise ValueError(f"length mismatch: {s_hat.shape} vs {s_ref.shape}")
    l_time = ops.mean_(ops.abs_(ops.sub(s_hat, s_ref)))
    hre, him = ops.stft_pair(s_hat, frame_len)
    rre, rim = ops.stft_pair(s_ref, frame_len)
    cells = ops.abs_(ops.sub(ops.complex_magnitude(hre, him),
                             ops.complex_magnitude(rre, rim)))
    l_freq = ops.mean_(cells.reshape(-1))
    l_diff = ops.add(ops.mul(l_time, ALPHA), ops.mul(l_freq, 1.0 - ALPHA))
    return l_time, l_freq, l_diff


def lambda_weight(t: float) -> float:
    """Diffusion-loss weight 1/(e^t - 1), clamped to LAMBDA_MAX."""
    if t <= 0:
        raise ValueError(f"lambda weight needs t > 0, got {t}")
    return min(1.0 / (np.expm1(t)), LAMBDA_MAX)


def sisnr(est: np.ndarray, ref: np.ndarray) -> float:
    """Scale-invariant SNR in dB (zero-mean, projection onto the reference)."""
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {ref.shape}")
    ref = ref - ref.mean()
    est = est - est.mean()
    denom = float(np.dot(ref, ref))
    if denom == 0.0:
        raise ValueError("reference signal is zero")
    target = (np.dot(est, ref) / denom) * ref
    err = est - target
    err_pow = float(np.dot(err, err))
    tgt_pow = float(np.dot(target, target))
    if err_pow == 0.0:
        return SISNR_CAP_DB
    return min(10.0 * np.log10(tgt_pow / err_pow), SISNR_CAP_DB)


def lsd(ref: Spectrogram | np.ndarray, est: Spectrogram | np.ndarray) -> float:
    """Log-spectral distance: frame-averaged RMS of log10 power ratios."""
    a = ref.magnitude() if isinstance(ref, Spectrogram) else np.abs(ref)
    b = est.magnitude() if isinstance(est, Spectrogram) else np.abs(est)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    a = np.maximum(a, LSD_EPS)
    b = np.maximum(b, LSD_EPS)
    d = np.log10((a * a) / (b * b))
    return float(np.mean(np.sqrt(np.mean(d * d, axis=1))))


def band_energy_error(ref: Spectrogram, est: Spectrogram, f_lo: float) -> float:
    """Mean per-frame |dB| error of the STFT energy in bins centred above ``f_lo`` Hz.

    Scores whether an estimate puts the right amount of energy in the band
    it has to regenerate, frame by frame. It sums the band's cells before
    taking the log, so it ignores phase and gives near-empty cells only
    their (negligible) energy. SI-SNR and LSD cannot show that:

    - SI-SNR compares waveforms. The synthetic corpus draws each harmonic's
      phase offset and the 4-7.5 kHz noise independently of the low band,
      so a sample that gets pitch, envelope, modulation and bursts right
      but redraws those phases and noise still scores below cubic
      interpolation, which leaves the high band empty.
    - LSD averages per-cell log ratios. The synthetic high band has
      inter-harmonic valleys below -80 dB, and those cells dominate it:
      the truth plus white 4-8 kHz noise at -40 dB (SI-SNR 40 dB) scores
      about the LSD of cubic interpolation, and worse on some utterances.
    """
    if ref.values.shape != est.values.shape:
        raise ValueError(f"shape mismatch: {ref.values.shape} vs {est.values.shape}")
    centers = np.arange(ref.n_bins) * ref.sample_rate / ref.frame_len
    sel = centers > f_lo
    e_ref = np.maximum(np.sum(ref.magnitude()[:, sel] ** 2, axis=1), 1e-16)
    e_est = np.maximum(np.sum(est.magnitude()[:, sel] ** 2, axis=1), 1e-16)
    return float(np.mean(np.abs(10.0 * np.log10(e_est / e_ref))))
