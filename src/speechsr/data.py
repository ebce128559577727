"""WAV I/O, corpus manifests, preprocessing, synthetic corpus, batching.

The on-disk manifest is one line per utterance:
``id<TAB>path<TAB>sample_rate<TAB>n_samples``. WAV files are read as mono
PCM-16 or IEEE float-32 and written as mono float-32, both through
:mod:`scipy.io.wavfile`. The synthetic corpus generator produces
deterministic pseudo-speech (pitch-drifting harmonics under a formant-like
envelope plus high-band noise bursts) with at least 10% of its energy
above 4 kHz; its harmonic phases and high-band noise are independent of the
low band, and between harmonics the high band has valleys below -80 dB.
A training batch is a tuple of unpadded 1-D crops, one per utterance.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Waveform, normalize
from .errors import WavFormatError
from .resample import UpsamplingRatio, downsample, simulate_lr

# ---------------------------------------------------------------------------
# WAV files
# ---------------------------------------------------------------------------


def read_wav(path) -> Waveform:
    """Read a mono PCM-16 (scaled by 1/32768) or float-32 WAV file."""
    from scipy.io import wavfile  # 0.2 s to import: only commands that read WAVs pay it

    with warnings.catch_warnings():
        # scipy only warns when it skips a chunk it does not know (``cue ``) or
        # trailing bytes: the file reads. A data chunk cut short only warns too.
        warnings.filterwarnings("ignore", category=wavfile.WavFileWarning)
        warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
        try:
            rate, data = wavfile.read(path)
        # scipy fails on a bad header in several ways: ValueError, struct.error
        # (a header cut short), ZeroDivisionError (no channels), TypeError (a
        # block size no dtype has) and UnboundLocalError (no data chunk).
        except (ValueError, struct.error, ZeroDivisionError, TypeError, UnboundLocalError,
                wavfile.WavFileWarning) as exc:
            raise WavFormatError(f"{path}: malformed or unsupported WAV: {exc}") from exc
    if data.ndim != 1:
        raise WavFormatError(f"{path}: only mono supported, got {data.shape[1]} channels")
    if rate < 1:
        raise WavFormatError(f"{path}: sample rate must be positive, got {rate}")
    kind = data.dtype.str[1:]  # "<i2" -> "i2", in either byte order
    # Checked before the cast, which warns on a signalling NaN.
    if kind == "f4" and not np.isfinite(data).all():
        raise WavFormatError(f"{path}: non-finite samples")
    if kind == "i2":
        samples = data.astype(np.float64) / 32768.0
    elif kind == "f4":
        samples = data.astype(np.float64)
    else:
        raise WavFormatError(f"{path}: need PCM-16 or float-32 samples, got {data.dtype}")
    return Waveform(samples, rate)


def write_wav(path, w: Waveform):
    """Write a mono float-32 WAV file."""
    from scipy.io import wavfile

    wavfile.write(path, w.sample_rate, w.samples.astype("<f4"))


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    path: str
    sample_rate: int
    n_samples: int


@dataclass(frozen=True)
class Manifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty manifest: no entries")
        ids = [e.utt_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate utterance ids in manifest")

    def __len__(self):
        return len(self.entries)


def write_manifest(path, manifest: Manifest):
    """Write the TSV, with each WAV path stored relative to it."""
    base = Path(path).parent
    Path(path).write_text("".join(
        f"{e.utt_id}\t{os.path.relpath(e.path, base)}\t{e.sample_rate}\t{e.n_samples}\n"
        for e in manifest.entries))


def read_manifest(path) -> Manifest:
    entries = []
    base = Path(path).parent
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}:{ln}: expected 4 tab-separated fields")
        utt_id, wav_path, rate, n = parts
        for field, text, least in (("sample_rate", rate, 1), ("n_samples", n, 0)):
            if not (text.isdecimal() and int(text) >= least):
                raise ValueError(f"{path}:{ln}: {field} must be an integer >= {least}: {text!r}")
        if not Path(wav_path).is_absolute():
            wav_path = str(base / wav_path)
        if not Path(wav_path).exists():
            raise FileNotFoundError(f"{path}:{ln}: missing file {wav_path}")
        entries.append(ManifestEntry(utt_id, wav_path, int(rate), int(n)))
    try:
        return Manifest(tuple(entries))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def preprocess(w: Waveform, target_rate: int) -> Waveform:
    """Integer-factor downsample to ``target_rate`` (if needed) and normalize.

    A fractional factor is refused here: 24 -> 16 kHz would reach ``downsample`` as 1.
    """
    if w.sample_rate == target_rate:
        return normalize(w)[0]
    if w.sample_rate < target_rate or w.sample_rate % target_rate != 0:
        raise ValueError(
            f"unsupported resampling {w.sample_rate} -> {target_rate} Hz (non-integer factor)"
        )
    return normalize(downsample(w, w.sample_rate // target_rate, "chebyshev"))[0]


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


_LONGEST_BURST_S = 0.12


def _synth_utterance(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    t = np.arange(n) / rate

    # Pitch contour: smooth log-domain drift across 80-300 Hz.
    n_ctrl = max(4, int(n / rate * 3) + 2)
    ctrl = rng.uniform(0.0, 1.0, n_ctrl)
    drift = np.interp(np.linspace(0, n_ctrl - 1, n), np.arange(n_ctrl), ctrl)
    f0 = 80.0 * (300.0 / 80.0) ** drift
    phase = 2.0 * np.pi * np.cumsum(f0) / rate

    # Formant-like envelope plus a strong high shelf. Each harmonic's phase
    # offset, like the noise below, is drawn independently of the low band;
    # between harmonics the high band has valleys below -80 dB.
    centers = rng.uniform([250.0, 900.0, 2400.0], [800.0, 2200.0, 3400.0])
    widths = rng.uniform(80.0, 260.0, 3)
    gains = rng.uniform(0.5, 1.0, 3)

    def envelope(freq):
        e = 0.08 + (1.0 / (1.0 + (freq / 600.0) ** 2))
        for c, wd, g in zip(centers, widths, gains):
            e = e + g / (1.0 + ((freq - c) / (3.0 * wd)) ** 2)
        return e + 0.55 * np.exp(-((freq - 5600.0) / 2200.0) ** 2)

    voiced = np.zeros(n)
    max_harm = int(7400.0 / f0.max())
    for k in range(1, max_harm + 1):
        fk = k * f0
        active = fk < 7400.0
        if not active.any():
            break
        amp = envelope(k * float(f0.mean())) / k**0.25
        voiced += amp * active * np.sin(k * phase + rng.uniform(0, 2 * np.pi))

    # Syllabic amplitude modulation.
    sylrate = rng.uniform(2.0, 5.0)
    am = 0.45 + 0.55 * 0.5 * (1.0 + np.sin(2 * np.pi * sylrate * t + rng.uniform(0, 2 * np.pi)))
    voiced *= am

    # Band-limited noise bursts in 4-7.5 kHz (fricative stand-ins).
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    spec[(freqs < 4000.0) | (freqs > 7500.0)] = 0.0
    hf_noise = np.fft.irfft(spec, n=n)
    hf_noise /= max(np.std(hf_noise), 1e-12)
    bursts = np.zeros(n)
    for _ in range(max(2, int(n / rate * 3))):
        width = int(rng.uniform(0.03, _LONGEST_BURST_S) * rate)
        start = int(rng.uniform(0, max(n - width, 1)))
        win = 0.5 * (1 - np.cos(2 * np.pi * np.arange(width) / width))
        bursts[start:start + width] += win
    x = voiced + 0.12 * np.std(voiced) * bursts * hf_noise

    # Guarantee the high band carries at least ~12% of the energy.
    spec = np.fft.rfft(x)
    hi = freqs > 4000.0
    e_hi = float(np.sum(np.abs(spec[hi]) ** 2))
    e_lo = float(np.sum(np.abs(spec[~hi]) ** 2))
    if e_hi < 0.12 / 0.88 * e_lo:
        g = np.sqrt(0.12 * e_lo / (0.88 * max(e_hi, 1e-12)))
        spec[hi] *= g
        x = np.fft.irfft(spec, n=n)
    return 0.95 * x / np.max(np.abs(x))


def synth_corpus(out_dir, n_utts: int, duration_s: float, seed: int,
                 sample_rate: int = 16000) -> Manifest:
    """Generate a deterministic pseudo-speech corpus and its manifest."""
    if n_utts < 1:
        raise ValueError("need at least one utterance")
    if sample_rate < 1:
        raise ValueError(f"sample_rate must be at least 1 Hz, got {sample_rate}")
    if not _LONGEST_BURST_S <= duration_s < np.inf:  # the longest noise burst must fit
        raise ValueError(f"duration_s must be finite and >= {_LONGEST_BURST_S} s, got {duration_s}")
    n = int(round(duration_s * sample_rate))
    if n < 1:
        raise ValueError(f"duration_s {duration_s} s at sample_rate {sample_rate} Hz gives no samples")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(n_utts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        x = _synth_utterance(rng, n, sample_rate)
        utt_id = f"utt{i:04d}"
        path = out / f"{utt_id}.wav"
        write_wav(path, Waveform(x, sample_rate))
        entries.append(ManifestEntry(utt_id, str(path), sample_rate, n))
    manifest = Manifest(tuple(entries))
    write_manifest(out / "manifest.tsv", manifest)
    return manifest


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """One training batch: a 1-D HR crop and its LR-simulated input per utterance."""

    hr: tuple[np.ndarray, ...]
    inp: tuple[np.ndarray, ...]
    ids: tuple[str, ...]
    sample_rate: int

    @property
    def mask(self) -> np.ndarray:
        """All ones: nothing is padded. Kept only for the benchmark's
        ``data.pad_share`` counter, and deleted when that counter goes."""
        return np.ones(sum(x.size for x in self.hr))


class Batcher:
    """Epoch iterator: shuffled order, one random crop per utterance.

    ``audio`` maps each utterance id to its normalized full-length samples
    at ``sample_rate``, in manifest order; each is cropped to the crop
    length, and one shorter than a crop is taken whole. The LR simulation
    runs on each crop. All randomness is drawn from the generator passed to
    :meth:`epoch`.
    """

    def __init__(self, audio: dict[str, np.ndarray], batch_size: int, crop_s: float,
                 ratio: UpsamplingRatio, kind: str, sample_rate: int = 16000):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.ids, self.audio = tuple(audio), tuple(audio.values())
        self.batch_size = batch_size
        self.crop_len = int(round(crop_s * sample_rate))
        self.ratio = ratio
        self.kind = kind
        self.sample_rate = sample_rate

    def __len__(self) -> int:
        """Batches per epoch."""
        return -(-len(self.audio) // self.batch_size)

    def epoch(self, rng: np.random.Generator):
        order = rng.permutation(len(self.audio))
        for start in range(0, len(order), self.batch_size):
            hrs, inps, ids = [], [], []
            for idx in order[start:start + self.batch_size]:
                x = self.audio[idx]
                if x.size >= self.crop_len:
                    off = int(rng.integers(0, x.size - self.crop_len + 1))
                    x = x[off:off + self.crop_len]
                _, inp = simulate_lr(Waveform(x, self.sample_rate), self.ratio, self.kind)
                hrs.append(x)
                inps.append(inp.samples)
                ids.append(self.ids[idx])
            yield Batch(hr=tuple(hrs), inp=tuple(inps), ids=tuple(ids),
                        sample_rate=self.sample_rate)


def validation_items(audio: dict[str, np.ndarray], sample_rate: int, ratio: UpsamplingRatio,
                     kind: str, max_s: float = 8.0):
    """Full (center-cropped to <= max_s) utterances for validation, from
    ``audio`` as :class:`Batcher` takes it."""
    out = []
    limit = int(round(max_s * sample_rate))
    for utt_id, x in audio.items():
        if x.size > limit:
            start = (x.size - limit) // 2
            x = x[start:start + limit]
        _, inp = simulate_lr(Waveform(x, sample_rate), ratio, kind)
        out.append((utt_id, x, inp.samples))
    return out
