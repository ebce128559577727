"""Tests for losses and evaluation metrics."""

import mpmath as mp
import numpy as np
import pytest

from speechsr import dsp
from speechsr.engine import Parameter
from speechsr.objectives import (
    LossReport,
    MetricReport,
    band_energy_error,
    lambda_weight,
    loss_pred,
    loss_tf,
    lsd,
    sisnr,
)


def _spec_pair(rng, shape):
    return rng.standard_normal(shape), rng.standard_normal(shape)


class TestLossPred:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(0)
        re, im = _spec_pair(rng, (6, 9))
        assert loss_pred(re, im, re, im).item() == 0.0

    def test_single_unit_entry(self):
        """One unit-magnitude real entry against zeros gives (1+1)/N."""
        t_frames, bins = 4, 5
        re = np.zeros((t_frames, bins))
        im = np.zeros((t_frames, bins))
        re[2, 3] = 1.0
        val = loss_pred(re, im, np.zeros_like(re), np.zeros_like(im)).item()
        np.testing.assert_allclose(val, 2.0 / (t_frames * bins), rtol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        pre, pim = _spec_pair(rng, (7, 11))
        sre, sim = _spec_pair(rng, (7, 11))
        val = loss_pred(pre, pim, sre, sim).item()
        acc = 0.0
        for t in range(7):
            for f in range(11):
                mp_ = np.hypot(pre[t, f], pim[t, f])
                ms = np.hypot(sre[t, f], sim[t, f])
                acc += abs(mp_ - ms) + abs(pre[t, f] - sre[t, f]) + abs(pim[t, f] - sim[t, f])
        assert abs(val - acc / 77.0) < 1e-12

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        pre, pim = _spec_pair(rng, (5, 5))
        sre, sim = _spec_pair(rng, (5, 5))
        v1 = loss_pred(pre, pim, sre, sim).item()
        c = 3.7
        v2 = loss_pred(c * pre, c * pim, c * sre, c * sim).item()
        np.testing.assert_allclose(v2, c * v1, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_pred(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((3, 3)))

    def test_gradient_reaches_prediction(self):
        rng = np.random.default_rng(4)
        p_re = Parameter("re", rng.standard_normal((4, 6)))
        p_im = Parameter("im", rng.standard_normal((4, 6)))
        sre, sim = _spec_pair(rng, (4, 6))
        loss_pred(p_re, p_im, sre, sim).backward()
        assert p_re.grad is not None and np.any(p_re.grad != 0)
        assert p_im.grad is not None and np.any(p_im.grad != 0)


class TestLossTf:
    def test_identical_zero(self):
        x = np.random.default_rng(5).standard_normal(600)
        l_time, l_freq, l_diff = loss_tf(x, x, 128)
        assert l_time.item() == 0.0
        assert l_freq.item() == 0.0
        assert l_diff.item() == 0.0

    def test_constant_offset_time_term(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(500)
        l_time, _, _ = loss_tf(s + 0.25, s, 128)
        np.testing.assert_allclose(l_time.item(), 0.25, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(700)
        s_hat = s + 0.1 * rng.standard_normal(700)
        l_time, l_freq, l_diff = loss_tf(s_hat, s, 128)
        ref_time = np.mean(np.abs(s_hat - s))
        spec_h = dsp.stft(dsp.Waveform(s_hat, 16000), dsp.FrameConfig(8.0))
        spec_s = dsp.stft(dsp.Waveform(s, 16000), dsp.FrameConfig(8.0))
        ref_freq = np.mean(np.abs(spec_h.magnitude() - spec_s.magnitude()))
        assert abs(l_time.item() - ref_time) < 1e-12
        assert abs(l_freq.item() - ref_freq) < 1e-10
        np.testing.assert_allclose(
            l_diff.item(), 0.85 * ref_time + 0.15 * ref_freq, rtol=1e-10
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_tf(np.zeros(10), np.zeros(11), 128)


class TestLambdaWeight:
    def test_value_at_one(self):
        ref = float(1 / (mp.e - 1))
        assert abs(lambda_weight(1.0) - ref) < 1e-5

    def test_decays(self):
        assert lambda_weight(20.0) < 1e-8

    def test_clamp_engages(self):
        with mp.workdps(40):
            unclamped = float(1 / mp.expm1(mp.mpf("0.001")))
        assert unclamped > 100.0
        assert lambda_weight(0.001) == 100.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lambda_weight(0.0)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.05, 20.0, 500)
        vals = [lambda_weight(float(t)) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSisnr:
    def test_identical_capped(self):
        s = np.random.default_rng(9).standard_normal(100)
        assert sisnr(s, s) == 100.0

    def test_scale_absorbed(self):
        s = np.random.default_rng(10).standard_normal(100)
        assert sisnr(2 * s, s) == 100.0

    def test_orthogonal_noise_10db(self):
        s = np.array([1.0, -1.0, 1.0, -1.0])
        n = np.array([1.0, 1.0, -1.0, -1.0]) / np.sqrt(10.0)
        assert abs(sisnr(s + n, s) - 10.0) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal(400)
        est = s + 0.3 * rng.standard_normal(400)
        base = sisnr(est, s)
        for a in (0.1, 3.0, 100.0):
            assert abs(sisnr(a * est, s) - base) < 1e-9

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            sisnr(np.ones(8), np.zeros(8))


class TestLsd:
    def test_identical_zero(self):
        s = dsp.stft(dsp.Waveform(np.random.default_rng(12).standard_normal(4000), 16000))
        assert lsd(s, s) == 0.0

    def test_constant_ratio_10(self):
        rng = np.random.default_rng(13)
        mag = np.abs(rng.standard_normal((6, 9))) + 0.5
        np.testing.assert_allclose(lsd(mag, 10.0 * mag), 2.0, rtol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(14)
        a = np.abs(rng.standard_normal((5, 7))) + 0.1
        b = np.abs(rng.standard_normal((5, 7))) + 0.1
        val = lsd(a, b)
        acc = 0.0
        for t in range(5):
            inner = 0.0
            for f in range(7):
                inner += np.log10(a[t, f] ** 2 / b[t, f] ** 2) ** 2
            acc += np.sqrt(inner / 7)
        assert abs(val - acc / 5) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lsd(np.ones((2, 3)), np.ones((2, 4)))


def _spectrogram(values):
    """16-sample frames at 16 kHz: nine bins centred every 1 kHz."""
    return dsp.Spectrogram(values, frame_len=16, sample_rate=16000)


class TestBandEnergyError:
    def _values(self, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))

    def test_identical_zero(self):
        s = _spectrogram(self._values(15))
        assert band_energy_error(s, s, 4000.0) == 0.0

    def test_doubled_band_is_six_db(self):
        v = self._values(16)
        est = v.copy()
        est[:, 5:] *= 2.0
        est[:, :5] *= 7.0  # bins at and below f_lo do not count
        np.testing.assert_allclose(band_energy_error(_spectrogram(v), _spectrogram(est), 4000.0),
                                   20.0 * np.log10(2.0), rtol=1e-12)

    def test_matches_loop_oracle(self):
        a, b = self._values(17), self._values(18)
        acc = 0.0
        for t in range(6):
            e_a = sum(abs(a[t, f]) ** 2 for f in range(5, 9))
            e_b = sum(abs(b[t, f]) ** 2 for f in range(5, 9))
            acc += abs(10.0 * np.log10(e_b / e_a))
        val = band_energy_error(_spectrogram(a), _spectrogram(b), 4000.0)
        assert abs(val - acc / 6) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            band_energy_error(_spectrogram(self._values(19)),
                              _spectrogram(self._values(19)[:5]), 4000.0)


class TestReports:
    def test_loss_report_recombination(self):
        r = LossReport.build(l_pred=0.5, l_time=0.2, l_freq=0.4, lambda_weight=2.0)
        np.testing.assert_allclose(r.l_diff, 0.85 * 0.2 + 0.15 * 0.4, rtol=1e-15)
        np.testing.assert_allclose(r.total, 0.5 + 2.0 * r.l_diff, rtol=1e-15)

    def test_metric_report_validation(self):
        with pytest.raises(ValueError):
            MetricReport(sisnr_db=1.0, lsd_db=-0.1, band_error_db=0.0)
        with pytest.raises(ValueError):
            MetricReport(sisnr_db=1.0, lsd_db=0.1, band_error_db=-0.1)

