"""Tests for filter design, resampling and LR simulation."""

import numpy as np
import pytest
from scipy import signal

from helpers import band_energy_fraction, band_lsd, response_mp, sosfilt_py, speechlike
from speechsr import dsp, resample
from speechsr.resample import UpsamplingRatio


class TestChebyshevDesign:
    def test_dc_gain_within_ripple_band(self):
        f = resample.design_lowpass("chebyshev", 0.5)
        h0 = response_mp(f, [0.0])[0]
        assert 10 ** (-0.05 / 20) - 1e-12 <= h0 <= 1.0 + 1e-12

    def test_passband_ripple_bound(self):
        f = resample.design_lowpass("chebyshev", 0.5)
        grid = np.linspace(0.0, 0.5, 400)
        h = response_mp(f, grid)
        assert np.all(h <= 1.0 + 1e-9)
        assert np.all(h >= 10 ** (-0.05 / 20) - 1e-9)

    def test_stopband_attenuation(self):
        f = resample.design_lowpass("chebyshev", 0.5)
        h = response_mp(f, [0.99])[0]
        assert h <= 10 ** (-60 / 20)

    def test_poles_strictly_stable(self):
        for cutoff in (0.1, 0.25, 0.5, 0.8):
            f = resample.design_lowpass("chebyshev", cutoff)
            mags = np.concatenate([np.abs(np.roots(row[3:])) for row in f])
            assert mags.max() < 1.0

    def test_deterministic_coefficients(self):
        f1 = resample.design_lowpass("chebyshev", 0.5)
        resample.design_lowpass.cache_clear()  # redesign instead of a cache hit
        f2 = resample.design_lowpass("chebyshev", 0.5)
        np.testing.assert_array_equal(f1, f2)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            resample.design_lowpass("chebyshev", 1.5)
        with pytest.raises(ValueError):
            resample.design_lowpass("chebyshev", 0.0)


class TestBesselDesign:
    def test_minus_3db_at_cutoff(self):
        f = resample.design_lowpass("bessel", 0.5)
        h = response_mp(f, [0.5])[0]
        db = 20 * np.log10(h)
        assert -3.5 <= db <= -2.5

    def test_unity_dc_gain(self):
        f = resample.design_lowpass("bessel", 0.5)
        assert abs(response_mp(f, [0.0])[0] - 1.0) <= 1e-6

    def test_monotone_magnitude(self):
        f = resample.design_lowpass("bessel", 0.5)
        grid = np.linspace(0.001, 0.999, 600)
        h = response_mp(f, grid)
        assert np.all(np.diff(h) < 0)


class TestIirApply:
    def test_identity_filter(self):
        sos = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
        x = np.random.default_rng(0).standard_normal(100)
        y = resample.iir_apply_zero_phase(sos, dsp.Waveform(x, 16000))
        np.testing.assert_array_equal(y.samples, x)

    def test_zeros_in_zeros_out(self):
        f = resample.design_lowpass("chebyshev", 0.5)
        y = resample.iir_apply_zero_phase(f, dsp.Waveform(np.zeros(500), 16000))
        assert np.all(y.samples == 0)

    def test_steady_state_sinusoid_attenuation(self):
        """RMS after the transient matches |H| from the grid oracle."""
        f = resample.design_lowpass("chebyshev", 0.5)
        nu = 0.9  # 0.9 * Nyquist
        n = 16000
        x = np.sin(np.pi * nu * np.arange(n))
        y = signal.sosfilt(f, x)
        gain = response_mp(f, [nu])[0]
        rms_ratio = np.sqrt(np.mean(y[4000:] ** 2)) / np.sqrt(np.mean(x[4000:] ** 2))
        assert abs(rms_ratio - gain) <= 0.02 * max(gain, 1e-6) + 1e-6

    def test_zero_phase_preserves_passband_alignment(self):
        f = resample.design_lowpass("chebyshev", 0.5)
        n = 8000
        x = np.sin(np.pi * 0.2 * np.arange(n))
        y = resample.iir_apply_zero_phase(f, dsp.Waveform(x, 16000)).samples
        err = np.linalg.norm((y - x)[500:-500]) / np.linalg.norm(x[500:-500])
        assert err < 0.05

    @pytest.mark.parametrize("kind", ["chebyshev", "bessel"])
    @pytest.mark.parametrize("ratio", [2, 4])
    @pytest.mark.parametrize("n", [2, 20, 100, 600])
    def test_zero_phase_matches_zero_state_recursion(self, kind, ratio, n):
        """Both passes start from zero state over the odd extension, at any length.

        Steady-state initial conditions (as in ``scipy.signal.sosfiltfilt``)
        would change inputs shorter than the 512-sample extension.
        """
        sos = resample.design_lowpass(kind, 1.0 / ratio)
        x = np.random.default_rng(n).standard_normal(n)
        pad = min(n - 1, 512)
        head = [2.0 * x[0] - x[i] for i in range(pad, 0, -1)]
        tail = [2.0 * x[-1] - x[n - 2 - i] for i in range(pad)]
        fwd = sosfilt_py(sos, head + list(x) + tail)
        ref = sosfilt_py(sos, fwd[::-1])[::-1][pad:pad + n]
        y = resample.iir_apply_zero_phase(sos, dsp.Waveform(x, 16000)).samples
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12)


class TestUpsamplingRatio:
    @pytest.mark.parametrize("ratio", [2.5, 1.9, 0.5])
    def test_non_integral_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="whole number"):
            UpsamplingRatio(ratio)

    def test_integral_float_stored_as_int(self):
        r = UpsamplingRatio(2.0)
        assert r.ratio == 2 and type(r.ratio) is int


class TestDecimate:
    def test_ratio_one_identity(self):
        w = dsp.Waveform(np.arange(10.0), 16000)
        assert resample.decimate(w, UpsamplingRatio(1)) is w

    def test_keeps_every_other(self):
        w = dsp.Waveform(np.array([0.0, 1, 2, 3, 4, 5]), 16000)
        y = resample.decimate(w, UpsamplingRatio(2))
        np.testing.assert_array_equal(y.samples, [0, 2, 4])
        assert y.sample_rate == 8000

    def test_length_and_rate(self):
        w = dsp.Waveform(np.zeros(16000), 16000)
        y = resample.decimate(w, UpsamplingRatio(2))
        assert len(y) == 8000 and y.sample_rate == 8000


class TestCubicSplineUpsample:
    def test_ratio_one_identity(self):
        w = dsp.Waveform(np.arange(8.0), 8000)
        assert resample.cubic_spline_upsample(w, UpsamplingRatio(1)) is w

    def test_reproduces_cubic_on_interior(self):
        t = np.arange(128, dtype=float)
        y = 0.5 * t**3 - 2.0 * t**2 + t - 3.0
        up = resample.cubic_spline_upsample(dsp.Waveform(y, 1000), UpsamplingRatio(4))
        tt = np.arange(128 * 4) / 4.0
        ref = 0.5 * tt**3 - 2.0 * tt**2 + tt - 3.0
        interior = slice(128, 384)  # middle 50%, away from natural boundaries
        scale = np.abs(ref[interior]).max()
        assert np.abs(up.samples - ref)[interior].max() <= 1e-9 * scale

    def test_linear_exact(self):
        y = 0.25 * np.arange(16, dtype=float) - 1.0
        up = resample.cubic_spline_upsample(dsp.Waveform(y, 1000), UpsamplingRatio(2))
        ref = 0.25 * (np.arange(32) / 2.0) - 1.0
        np.testing.assert_allclose(up.samples, ref, atol=1e-12)

    def test_passes_through_knots(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(50)
        up = resample.cubic_spline_upsample(dsp.Waveform(y, 1000), UpsamplingRatio(3))
        np.testing.assert_allclose(up.samples[::3], y, atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            resample.cubic_spline_upsample(dsp.Waveform(np.ones(3), 8000), UpsamplingRatio(2))


class TestSimulateLr:
    def test_ratio_one_passband_energy(self):
        hr = speechlike(16000)
        _, s_inp = resample.simulate_lr(hr, UpsamplingRatio(1))
        assert np.sum(s_inp.samples**2) / np.sum(hr.samples**2) > 0.99

    def test_passband_tone_survives(self):
        n = 16000
        hr = dsp.Waveform(np.sin(2 * np.pi * 2000 * np.arange(n) / 16000), 16000)
        _, s_inp = resample.simulate_lr(hr, UpsamplingRatio(2))
        ratio = np.sqrt(np.mean(s_inp.samples**2)) / np.sqrt(np.mean(hr.samples**2))
        assert abs(ratio - 1.0) <= 0.05

    def test_stopband_tone_removed(self):
        n = 16000
        hr = dsp.Waveform(np.sin(2 * np.pi * 7000 * np.arange(n) / 16000), 16000)
        _, s_inp = resample.simulate_lr(hr, UpsamplingRatio(2))
        ratio = np.sqrt(np.mean(s_inp.samples**2)) / np.sqrt(np.mean(hr.samples**2))
        assert ratio < 0.02

    def test_output_shapes(self):
        hr = speechlike(12345)
        s_lr, s_inp = resample.simulate_lr(hr, UpsamplingRatio(2))
        assert len(s_inp) == len(hr)
        assert s_inp.sample_rate == 16000
        assert s_lr.sample_rate == 8000

    def test_antialiasing_on_speechlike_signal(self):
        hr = speechlike(32000, seed=7)
        _, s_inp = resample.simulate_lr(hr, UpsamplingRatio(2))
        assert band_energy_fraction(s_inp, 4000.0) <= 0.01

    def test_empty_input_says_so(self):
        empty = dsp.Waveform(np.zeros(0), 16000)
        with pytest.raises(ValueError, match="empty waveform"):
            resample.simulate_lr(empty, UpsamplingRatio(2))
        with pytest.raises(ValueError, match="empty waveform"):
            resample.resample_chain(empty, UpsamplingRatio(2))
        sos = resample.design_lowpass("chebyshev", 0.5)
        one = resample.iir_apply_zero_phase(sos, dsp.Waveform(np.ones(1), 16000))
        assert len(one) == 1


class TestResampleChain:
    def test_lowband_signal_passes(self):
        """Signal below 0.8 * LR Nyquist survives with low-bin LSD < 0.15."""
        n = 32000
        rng = np.random.default_rng(11)
        spec = np.fft.rfft(rng.standard_normal(n))
        freqs = np.fft.rfftfreq(n, d=1 / 16000)
        spec[freqs > 3200.0] = 0.0
        x = np.fft.irfft(spec, n=n)
        x /= np.std(x)
        w = dsp.Waveform(x, 16000)
        y = resample.resample_chain(w, UpsamplingRatio(2))
        assert band_lsd(w, y, 0.0, 3200.0) < 0.15

    def test_ratio_one_near_identity(self):
        w = speechlike(16000, seed=3)
        y = resample.resample_chain(w, UpsamplingRatio(1))
        assert band_lsd(w, y, 0.0, 6400.0) < 0.1

    def test_zeros_fixed_point(self):
        w = dsp.Waveform(np.zeros(8000), 16000)
        y = resample.resample_chain(w, UpsamplingRatio(2))
        assert np.all(y.samples == 0)

    def test_approximate_idempotence(self):
        w = speechlike(32000, seed=9)
        once = resample.resample_chain(w, UpsamplingRatio(2))
        twice = resample.resample_chain(once, UpsamplingRatio(2))
        assert band_lsd(once, twice, 0.0, 0.8 * 4000.0) < 0.15
