"""Tests for the noise schedule, sampling, repainting, and the loops."""

import dataclasses
import multiprocessing
import tracemalloc
import weakref

import mpmath as mp
import numpy as np
import pytest

from helpers import band_lsd, speechlike
from speechsr import diffusion, networks
from speechsr.data import Batch
from speechsr.diffusion import (
    NoiseSchedule,
    forward_sample,
    inference_time_grid,
    mean_mu,
    repaint,
    reverse_infer,
    sigma,
    train_step,
)
from speechsr.dsp import Waveform
from speechsr.engine import Adam, Ema, Tensor
from speechsr.objectives import LossReport, lambda_weight, loss_pred, loss_tf
from speechsr.resample import UpsamplingRatio, simulate_lr
from speechsr.engine import ops
from speechsr.engine.tensor import make_result
from speechsr.errors import NumericsError

SCHED = NoiseSchedule()


def sigma_mp(t, sched=SCHED, dps=50):
    """Independent arbitrary-precision evaluation of the schedule."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        smin, smax, gam = mp.mpf(sched.sigma_min), mp.mpf(sched.sigma_max), mp.mpf(sched.gamma)
        ratio = smax / smin
        log_ratio = mp.log(ratio)
        var = smin**2 * (ratio ** (2 * t) - mp.e ** (-2 * gam * t)) * log_ratio / (gam + log_ratio)
        return float(mp.sqrt(var))


class TestSigma:
    def test_zero_at_origin(self):
        assert sigma(0.0, SCHED) == 0.0

    def test_matches_high_precision_oracle(self):
        for t in (0.001, 0.1, 0.25, 0.5, 0.777, 1.0):
            assert abs(sigma(t, SCHED) - sigma_mp(t)) < 1e-12

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        vals = sigma(grid, SCHED)
        assert np.all(np.diff(vals) > 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sigma(-0.01, SCHED)
        with pytest.raises(ValueError):
            sigma(1.01, SCHED)


class TestMeanMu:
    def test_t_zero_returns_x0(self):
        rng = np.random.default_rng(0)
        x0, y = rng.standard_normal(50), rng.standard_normal(50)
        np.testing.assert_array_equal(mean_mu(x0, y, 0.0, 1.5), x0)

    def test_equal_endpoints_fixed(self):
        x = np.random.default_rng(1).standard_normal(30)
        for t in (0.0, 0.3, 1.0, 2.5):
            np.testing.assert_allclose(mean_mu(x, x, t, 1.5), x, rtol=1e-15)

    def test_coefficients_at_t1(self):
        with mp.workdps(40):
            decay = float(mp.e ** mp.mpf("-1.5"))
        x0 = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        mu = mean_mu(x0, y, 1.0, 1.5)
        assert abs(mu[0] - decay) < 1e-12
        assert abs(mu[1] - (1.0 - decay)) < 1e-12

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        x0, y = rng.standard_normal(200), rng.standard_normal(200)
        for t in (0.0, 0.2, 0.7, 1.0, 3.0):
            mu = mean_mu(x0, y, t, 1.5)
            assert np.all(mu >= np.minimum(x0, y) - 1e-12)
            assert np.all(mu <= np.maximum(x0, y) + 1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_mu(np.zeros(3), np.zeros(4), 0.5, 1.5)


class TestForwardSample:
    def test_t_zero_exact(self):
        rng = np.random.default_rng(3)
        x0, y, z = (rng.standard_normal(40) for _ in range(3))
        np.testing.assert_array_equal(forward_sample(x0, y, 0.0, z, SCHED), x0)

    def test_zero_noise_gives_mean(self):
        rng = np.random.default_rng(4)
        x0, y = rng.standard_normal(40), rng.standard_normal(40)
        np.testing.assert_array_equal(
            forward_sample(x0, y, 0.5, np.zeros(40), SCHED),
            mean_mu(x0, y, 0.5, SCHED.gamma),
        )

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(100)
        y = rng.standard_normal(100)
        t = 0.5
        mu = mean_mu(x0, y, t, SCHED.gamma)
        draws = np.stack([
            forward_sample(x0, y, t, rng.standard_normal(100), SCHED) - mu
            for _ in range(400)
        ])
        assert abs(draws.var() / sigma(t, SCHED) ** 2 - 1.0) < 0.03


class TestInferenceGrid:
    def test_grid_shape_and_endpoints(self):
        grid = inference_time_grid(SCHED)
        assert grid.size == 10
        assert grid[0] == (SCHED.total_steps - 1) / SCHED.total_steps
        assert grid[-1] == 0.0
        np.testing.assert_allclose(np.diff(grid), np.diff(grid)[0])


class TestRepaint:
    def setup_method(self):
        hr = speechlike(16000, seed=21)
        _, s_inp = simulate_lr(hr, UpsamplingRatio(2))
        self.hr = hr
        self.s_inp = s_inp.samples

    def test_zero_estimate_returns_input(self):
        out = repaint(np.zeros(16000), self.s_inp, 16000, UpsamplingRatio(2))
        np.testing.assert_array_equal(out, self.s_inp)

    def test_input_as_estimate_stays_close(self):
        out = repaint(self.s_inp, self.s_inp, 16000, UpsamplingRatio(2))
        assert band_lsd(Waveform(self.s_inp, 16000), Waveform(out, 16000),
                        0.0, 0.8 * 4000.0) < 0.3

    def test_band_contract_random_estimate(self):
        rng = np.random.default_rng(6)
        x0t = rng.standard_normal(16000) * np.std(self.s_inp)
        out = repaint(x0t, self.s_inp, 16000, UpsamplingRatio(2))
        low = band_lsd(Waveform(self.s_inp, 16000), Waveform(out, 16000),
                       0.0, 0.8 * 4000.0)
        high = band_lsd(Waveform(x0t, 16000), Waveform(out, 16000),
                        1.2 * 4000.0, 8000.0)
        assert low < 0.3
        assert high < 0.3

    def test_approximate_idempotence(self):
        rng = np.random.default_rng(7)
        x0t = rng.standard_normal(16000)
        once = repaint(x0t, self.s_inp, 16000, UpsamplingRatio(2))
        twice = repaint(once, self.s_inp, 16000, UpsamplingRatio(2))
        assert band_lsd(Waveform(once, 16000), Waveform(twice, 16000),
                        0.0, 0.8 * 4000.0) < 0.3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            repaint(np.zeros(10), np.zeros(11), 16000, UpsamplingRatio(2))


def _tiny_model(seed=0):
    return networks.TwoStageModel(
        networks.tiny_arcn_config(), networks.tiny_dparn_config(), seed=seed
    )


def _toy_batch(lengths=(4000, 4000)):
    hrs, inps = [], []
    for i, n in enumerate(lengths):
        hr = speechlike(n, seed=100 + i).samples
        _, inp = simulate_lr(Waveform(hr, 16000), UpsamplingRatio(2))
        hrs.append(hr)
        inps.append(inp.samples)
    return Batch(hr=tuple(hrs), inp=tuple(inps), ids=tuple(f"u{i}" for i in range(len(lengths))),
                 sample_rate=16000)


class TestTrainStep:
    def test_smoke_finite_and_updates(self):
        model = _tiny_model(seed=1)
        opt = Adam(model.params(), lr=1e-3)
        ema = Ema(model.params(), decay=0.9)
        batch = _toy_batch()
        before = {p.name: p.data.copy() for p in model.params()}
        out = train_step(model, batch, SCHED, opt, ema,
                         np.random.default_rng(0), UpsamplingRatio(2))
        r = out.report
        for v in (r.l_pred, r.l_time, r.l_freq, r.l_diff, r.total):
            assert np.isfinite(v) and v >= 0
        assert 0 < out.clip_scale <= 1.0
        moved = [n for n, old in before.items()
                 for p in model.params() if p.name == n and not np.array_equal(p.data, old)]
        assert moved

    def test_report_is_the_mean_of_unequal_length_items(self):
        """Crops of 2,000 and 3,000 samples: the step's report is the mean of the
        per-item reports under the same (k, z) draws, bit for bit."""
        batch = _toy_batch(lengths=(2000, 3000))
        model = _tiny_model(seed=4)
        ref_rng = np.random.default_rng(6)
        reports = []
        for hr, inp in zip(batch.hr, batch.inp):
            k = int(ref_rng.integers(1, SCHED.total_steps + 1))
            z = ref_rng.standard_normal(hr.size)
            _, report = diffusion._utterance_loss(model, hr, inp, SCHED, UpsamplingRatio(2),
                                                  16000, k, z)
            reports.append(report)
        assert reports[0] != reports[1]
        rng = np.random.default_rng(6)
        out = train_step(model, batch, SCHED, Adam(model.params()), Ema(model.params()),
                         rng, UpsamplingRatio(2))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        expected = LossReport(*(float(np.mean([getattr(r, f.name) for r in reports]))
                                for f in dataclasses.fields(LossReport)))
        assert out.report == expected

    def test_each_item_graph_dies_before_the_next_is_built(self, monkeypatch):
        """Peak memory holds one utterance's graph, not two."""
        inner, graphs, alive = diffusion._utterance_loss, [], []

        def spy(*args):
            alive.append(sum(ref() is not None for ref in graphs))
            total, report = inner(*args)
            graphs.append(weakref.ref(total._node))  # the graph, not just the loss array
            return total, report

        monkeypatch.setattr(diffusion, "_utterance_loss", spy)
        model = _tiny_model(seed=1)
        train_step(model, _toy_batch(lengths=(4000,) * 3), SCHED, Adam(model.params()),
                   Ema(model.params()), np.random.default_rng(0), UpsamplingRatio(2))
        assert alive == [0, 0, 0]

    def test_paper_scale_utterance_graph_fits_its_memory_budget(self):
        """Forward + backward at paper scale on 2,000 samples peaks below 260 MB.

        A graph whose nodes held every intermediate array, with a conv2d
        backward that rebuilt the 225 MB output-conv patch matrix, took 435 MB.
        """
        model = networks.TwoStageModel(networks.ArcnConfig(), networks.DparnConfig(), seed=0)
        batch = _toy_batch(lengths=(2000,))
        hr, inp = batch.hr[0], batch.inp[0]
        z = np.random.default_rng(1).standard_normal(hr.size)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            total, _ = diffusion._utterance_loss(model, hr, inp, SCHED, UpsamplingRatio(2),
                                                 16000, 400, z)
            total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 260e6

    def test_infinite_gradient_is_refused_before_any_state_moves(self, monkeypatch):
        """A finite loss with an infinite gradient raises; params, moments and EMA keep their bits."""
        model = _tiny_model(seed=3)
        opt, ema = Adam(model.params(), lr=1e-3), Ema(model.params(), decay=0.9)
        batch = _toy_batch(lengths=(2000,))
        train_step(model, batch, SCHED, opt, ema, np.random.default_rng(0), UpsamplingRatio(2))
        inner, target = diffusion._utterance_loss, model.params()[0]

        def poisoned(*args):
            total, report = inner(*args)
            spike = make_result(np.array(0.0), (target,), lambda g: (np.full(target.shape, np.inf),))
            return ops.add(total, spike), report

        monkeypatch.setattr(diffusion, "_utterance_loss", poisoned)
        state = ({p.name: p.data.copy() for p in model.params()},
                 {k: v.copy() for k, v in opt.m.items()}, {k: v.copy() for k, v in opt.v.items()},
                 {k: v.copy() for k, v in ema.shadow.items()})
        with pytest.raises(NumericsError, match="non-finite gradient"):
            train_step(model, batch, SCHED, opt, ema, np.random.default_rng(1), UpsamplingRatio(2))
        after = ({p.name: p.data for p in model.params()}, opt.m, opt.v, ema.shadow)
        for before_arrays, after_arrays in zip(state, after):
            assert before_arrays.keys() == after_arrays.keys()
            for name, arr in before_arrays.items():
                np.testing.assert_array_equal(after_arrays[name], arr, err_msg=name)
        assert opt.step_count == 1

    def test_frozen_passthrough_reduces_to_closed_form(self):
        """Zeroed output heads make the loss L_pred(s_inp, hr) + lam*L_diff(s_inp, hr)."""
        model = _tiny_model(seed=2)
        model.dparn.out_proj.w.data[...] = 0.0
        model.dparn.out_proj.b.data[...] = 0.0
        model.arcn.out_conv.w.data[...] = 0.0
        model.arcn.out_conv.b.data[...] = 0.0
        batch = _toy_batch(lengths=(4000,))
        hr, inp = batch.hr[0], batch.inp[0]
        k, z = 700, np.random.default_rng(8).standard_normal(hr.size)
        report = diffusion.validation_loss(model, hr, inp, SCHED,
                                           UpsamplingRatio(2), 16000, k, z)
        frame_len, hop = model.arcn.frame_geometry(16000)
        ire, iim = ops.stft_pair(Tensor(inp), frame_len, hop)
        rre, rim = ops.stft_pair(Tensor(hr), frame_len, hop)
        ref_pred = loss_pred(ire, iim, rre, rim).item()
        _, _, ref_diff = loss_tf(inp, hr, frame_len, hop)
        lam = lambda_weight(k / SCHED.total_steps)
        np.testing.assert_allclose(report.l_pred, ref_pred, rtol=1e-12)
        np.testing.assert_allclose(report.l_diff, ref_diff.item(), rtol=1e-12)
        np.testing.assert_allclose(report.total, ref_pred + lam * ref_diff.item(),
                                   rtol=1e-12)


def _poison_size(monkeypatch, size):
    """Make the loss of every utterance of ``size`` samples NaN, in every process."""
    inner = diffusion._utterance_loss

    def poisoned(model, hr, *rest):
        total, report = inner(model, hr, *rest)
        return (ops.mul(total, np.nan) if hr.size == size else total), report

    monkeypatch.setattr(diffusion, "_utterance_loss", poisoned)


def _step_state(model, opt, ema):
    return ({p.name: p.data.copy() for p in model.params()},
            {k: v.copy() for k, v in opt.m.items()}, {k: v.copy() for k, v in opt.v.items()},
            {k: v.copy() for k, v in ema.shadow.items()})


def _assert_same_arrays(a: dict, b: dict):
    assert a.keys() == b.keys()
    for name, arr in a.items():
        if arr is None:
            assert b[name] is None, name
        else:
            np.testing.assert_array_equal(b[name], arr, err_msg=name)


class TestStepWorkers:
    """``train_step`` with forked workers: the inline step's bits and its failures."""

    @pytest.mark.parametrize("count", [1, 2])
    def test_step_keeps_the_inline_bits(self, count):
        """Three unequal items over 1 + count processes: parameters, moments, EMA,
        report and clip scale equal the inline step's, step after step."""
        batch = _toy_batch(lengths=(2000, 3000, 4000))
        runs = []
        for n_workers in (0, count):
            model = _tiny_model(seed=4)
            opt, ema = Adam(model.params(), lr=1e-3), Ema(model.params(), decay=0.9)
            rng = np.random.default_rng(6)
            workers = diffusion.StepWorkers(model, n_workers)
            try:
                outs = [train_step(model, batch, SCHED, opt, ema, rng, UpsamplingRatio(2),
                                   workers=workers) for _ in range(2)]
            finally:
                workers.close()
            runs.append((outs, _step_state(model, opt, ema), rng.bit_generator.state))
        (outs_a, state_a, rng_a), (outs_b, state_b, rng_b) = runs
        assert outs_a == outs_b
        assert rng_a == rng_b
        for a, b in zip(state_a, state_b):
            _assert_same_arrays(a, b)
        assert multiprocessing.active_children() == []

    def test_non_finite_worker_loss_leaves_the_earlier_sum(self, monkeypatch):
        """The third item, a worker's second, is NaN: the error names it and its k,
        ``.grad`` holds the inline sum of the first two, and no state moved."""
        batch = _toy_batch(lengths=(2000, 3000, 4000))
        ref = np.random.default_rng(6)
        for n in (2000, 3000):
            ref.integers(1, SCHED.total_steps + 1), ref.standard_normal(n)
        k2 = int(ref.integers(1, SCHED.total_steps + 1))
        _poison_size(monkeypatch, 4000)
        grads = []
        for n_workers in (0, 1):
            model = _tiny_model(seed=4)
            opt, ema = Adam(model.params(), lr=1e-3), Ema(model.params(), decay=0.9)
            before = _step_state(model, opt, ema)
            workers = diffusion.StepWorkers(model, n_workers)
            try:
                with pytest.raises(NumericsError, match=f"utterance 'u2' at step k={k2}$"):
                    train_step(model, batch, SCHED, opt, ema, np.random.default_rng(6),
                               UpsamplingRatio(2), workers=workers)
            finally:
                workers.close()
            for a, b in zip(before, _step_state(model, opt, ema)):
                _assert_same_arrays(a, b)
            assert opt.step_count == 0
            grads.append({p.name: p.grad for p in model.params()})
        assert any(g is not None for g in grads[0].values())
        _assert_same_arrays(grads[0], grads[1])

    def test_failed_parent_part_leaves_no_reply_behind(self, monkeypatch):
        """A NaN in this process's part still reads the worker's reply, so the
        next step gets its own gradients and matches the inline run's."""
        batch = _toy_batch(lengths=(2000, 3000))
        states = []
        for n_workers in (0, 1):
            model = _tiny_model(seed=4)
            opt, ema = Adam(model.params(), lr=1e-3), Ema(model.params(), decay=0.9)
            workers = diffusion.StepWorkers(model, n_workers)
            try:
                with monkeypatch.context() as patch:
                    _poison_size(patch, 2000)
                    with pytest.raises(NumericsError, match="utterance 'u0'"):
                        train_step(model, batch, SCHED, opt, ema, np.random.default_rng(1),
                                   UpsamplingRatio(2), workers=workers)
                train_step(model, batch, SCHED, opt, ema, np.random.default_rng(2),
                           UpsamplingRatio(2), workers=workers)
            finally:
                workers.close()
            states.append(_step_state(model, opt, ema))
        for a, b in zip(*states):
            _assert_same_arrays(a, b)


class _OracleModel:
    """Stub whose diffusion stage always answers with the clean target."""

    def __init__(self, template: networks.Arcn, target: np.ndarray):
        self._arcn = template
        self._target = target
        outer = self

        class _ArcnProxy:
            def forward(self, x_t, s_pred, s_inp, ratio, step, rate):
                return Tensor(outer._target.copy())

        class _DparnProxy:
            def forward(self, s_inp):
                return Tensor(outer._target.copy())

        self.arcn = _ArcnProxy()
        self.dparn = _DparnProxy()


class _ZeroNoise:
    def standard_normal(self, n):
        return np.zeros(n)


class TestReverseInfer:
    def test_deterministic_and_shape(self):
        model = _tiny_model(seed=3)
        s_hr = speechlike(8000, seed=31)
        s_lr, _ = simulate_lr(s_hr, UpsamplingRatio(2))
        out1 = reverse_infer(s_lr, model, SCHED, UpsamplingRatio(2), "chebyshev",
                             np.random.default_rng(77))
        out2 = reverse_infer(s_lr, model, SCHED, UpsamplingRatio(2), "chebyshev",
                             np.random.default_rng(77))
        assert len(out1) == 2 * len(s_lr)
        assert out1.sample_rate == 16000
        np.testing.assert_array_equal(out1.samples, out2.samples)

    def test_rng_required(self):
        model = _tiny_model(seed=4)
        with pytest.raises(ValueError):
            reverse_infer(Waveform(np.zeros(100), 8000), model, SCHED,
                          UpsamplingRatio(2))

    def test_oracle_network_recovers_target_bands(self):
        """With zero noise and a perfect network, output matches s_hr per band."""
        s_hr = speechlike(16000, seed=32)
        s_lr, s_inp = simulate_lr(s_hr, UpsamplingRatio(2))
        template = networks.Arcn(networks.tiny_arcn_config(), np.random.default_rng(5))
        model = _OracleModel(template, s_hr.samples)
        out = reverse_infer(s_lr, model, SCHED, UpsamplingRatio(2), "chebyshev",
                            _ZeroNoise())
        low = band_lsd(s_inp, out, 0.0, 0.8 * 4000.0)
        high = band_lsd(s_hr, out, 1.2 * 4000.0, 8000.0)
        assert low < 0.3
        assert high < 0.3


class TestScheduleValidation:
    def test_bad_sigma_order_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(sigma_min=0.5, sigma_max=0.05)

    def test_bad_inference_steps_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(inference_steps=0)

    @pytest.mark.parametrize("field", ["sigma_min", "sigma_max", "gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NoiseSchedule(**{field: value})
