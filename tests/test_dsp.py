"""Tests for time-frequency analysis and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechsr import dsp
from speechsr.errors import DegenerateInputError


class TestHannWindow:
    def test_closed_form_n4(self):
        np.testing.assert_allclose(dsp.hann_window(4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_n2(self):
        np.testing.assert_allclose(dsp.hann_window(2), [0.0, 1.0], atol=1e-15)

    def test_periodic_endpoints_n512(self):
        w = dsp.hann_window(512)
        assert w[0] == 0.0
        assert w[256] == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dsp.hann_window(1)


class TestStft:
    def test_zero_waveform_gives_zero_spectrogram(self):
        w = dsp.Waveform(np.zeros(16000), 16000)
        s = dsp.stft(w)
        assert s.n_bins == 257
        assert np.all(s.values == 0)

    def test_cosine_peak_bin(self):
        """1 kHz at 16 kHz with a 512 frame peaks at bin 32 (1000/31.25)."""
        n = 16000
        t = np.arange(n) / 16000
        w = dsp.Waveform(np.cos(2 * np.pi * 1000 * t), 16000)
        s = dsp.stft(w)
        mags = s.magnitude()
        interior = mags[4:-4]
        assert np.all(np.argmax(interior, axis=1) == 32)

    def test_cosine_frame_matches_direct_dft(self):
        """A fully-covered frame equals the DFT of the windowed slice."""
        n = 16000
        t = np.arange(n) / 16000
        x = np.cos(2 * np.pi * 1000 * t)
        w = dsp.Waveform(x, 16000)
        s = dsp.stft(w)
        frame_idx = 10
        hop = dsp.stft_hop(s.frame_len)
        pad = s.frame_len - hop
        start = frame_idx * hop - pad
        sl = x[start:start + s.frame_len]
        ref = np.fft.rfft(sl * dsp.hann_window(s.frame_len))
        np.testing.assert_allclose(s.values[frame_idx], ref, atol=1e-10)

    def test_unit_impulse_first_frame(self):
        """Impulse at sample 0 shows up window-scaled and spectrally flat."""
        x = np.zeros(2048)
        x[0] = 1.0
        s = dsp.stft(dsp.Waveform(x, 16000))
        pad = s.frame_len - dsp.stft_hop(s.frame_len)
        expected = dsp.hann_window(s.frame_len)[pad]
        np.testing.assert_allclose(s.magnitude()[0], expected, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dsp.stft(dsp.Waveform(np.zeros(0), 16000))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal(5000)
        x2 = rng.standard_normal(5000)
        a, b = 2.5, -0.7
        s_mix = dsp.stft(dsp.Waveform(a * x1 + b * x2, 16000))
        s1 = dsp.stft(dsp.Waveform(x1, 16000))
        s2 = dsp.stft(dsp.Waveform(x2, 16000))
        np.testing.assert_allclose(
            s_mix.values, a * s1.values + b * s2.values, atol=1e-10
        )

    def test_parseval_consistency(self):
        """One-sided spectral energy equals windowed-frame energy."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4096)
        s = dsp.stft(dsp.Waveform(x, 16000))
        frames = dsp.frame_signal(x, s.frame_len, dsp.stft_hop(s.frame_len))
        frames *= dsp.hann_window(s.frame_len)
        frame_energy = np.sum(frames**2)
        mags2 = np.abs(s.values) ** 2
        weights = np.full(s.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        spec_energy = np.sum(mags2 * weights) / s.frame_len
        np.testing.assert_allclose(spec_energy, frame_energy, rtol=1e-9)


class TestIstft:
    def test_round_trip_white_noise(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16000)
        w = dsp.Waveform(x, 16000)
        y = dsp.istft(dsp.stft(w), len(w))
        rel = np.linalg.norm(y.samples - x) / np.linalg.norm(x)
        assert rel < 1e-6

    def test_zero_spectrogram(self):
        s = dsp.Spectrogram(np.zeros((10, 257), dtype=complex), 512, 16000)
        y = dsp.istft(s, 800)
        assert np.all(y.samples == 0)
        assert len(y) == 800

    def test_truncation_is_prefix(self):
        x = np.linspace(-1, 1, 6000)
        s = dsp.stft(dsp.Waveform(x, 16000))
        full = dsp.istft(s, 6000)
        short = dsp.istft(s, 4000)
        np.testing.assert_array_equal(short.samples, full.samples[:4000])

    def test_target_len_beyond_synthesizable_rejected(self):
        s = dsp.stft(dsp.Waveform(np.ones(1000), 16000))
        with pytest.raises(ValueError):
            dsp.istft(s, 10**9)

    @given(n=st.integers(min_value=2048, max_value=9000), seed=st.integers(0, 2**16))
    @settings(max_examples=12, deadline=None)
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        w = dsp.Waveform(x, 16000)
        y = dsp.istft(dsp.stft(w), n)
        interior = slice(256, n - 256)
        rel = np.linalg.norm(y.samples[interior] - x[interior]) / (
            np.linalg.norm(x[interior]) + 1e-300
        )
        assert rel < 1e-6


class TestNormalize:
    def test_already_normalized(self):
        w, mean, std = dsp.normalize(dsp.Waveform(np.array([1.0, -1.0]), 8000))
        np.testing.assert_allclose(w.samples, [1.0, -1.0])
        assert mean == 0.0
        assert std == 1.0

    def test_shift_and_scale(self):
        w, mean, std = dsp.normalize(dsp.Waveform(np.array([2.0, 4.0]), 8000))
        np.testing.assert_allclose(w.samples, [-1.0, 1.0])
        assert mean == 3.0
        assert std == 1.0

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            dsp.normalize(dsp.Waveform(np.array([5.0, 5.0, 5.0]), 8000))

    @given(seed=st.integers(0, 2**16), n=st.integers(16, 4000))
    @settings(max_examples=20, deadline=None)
    def test_stats_property(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) * 3.7 + 11.0
        w, mean, std = dsp.normalize(dsp.Waveform(x, 16000))
        assert abs(np.mean(w.samples)) < 1e-9
        assert abs(np.std(w.samples) - 1.0) < 1e-9
        np.testing.assert_allclose(w.samples * std + mean, x, atol=1e-9)


class TestWaveformType:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            dsp.Waveform(np.array([0.0, np.nan]), 16000)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            dsp.Waveform(np.zeros(4), 0)

    def test_frame_config_noninteger_rejected(self):
        with pytest.raises(ValueError):
            dsp.FrameConfig(frame_ms=33.3).frame_len(16000)

    def test_frame_config_refuses_a_frame_without_a_whole_quarter(self):
        """9 samples at 16 kHz: the STFT hop, a quarter frame, would be 2.25 samples."""
        with pytest.raises(ValueError, match=r"^frame_ms 0\.5625 gives 9 samples at 16000 Hz,"
                                             r" whose quarter \(the hop\) is not whole$"):
            dsp.FrameConfig(0.5625).frame_len(16000)

    @pytest.mark.parametrize("frame_len", [0, 2, 9, 130])
    def test_stft_hop_refuses_a_frame_without_a_whole_quarter(self, frame_len):
        with pytest.raises(ValueError, match=f"a {frame_len}-sample STFT frame has no whole"):
            dsp.stft_hop(frame_len)
