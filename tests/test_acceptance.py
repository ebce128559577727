"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Criterion 8 (the end-to-end toy overfit) trains 200 steps on four synthetic
utterances twice and checks three things:

(a) on frozen draws (fixed segments, k grid and noise), training at least
    halves the lambda-weighted diffusion loss of the same-seed initial
    model, and brings the predictive loss below the identity predictor's;
(b) on every training utterance, reverse inference restores the per-frame
    energy above the low-rate Nyquist frequency better than both cubic
    upsampling and the same-seed untrained model;
(c) the rerun is bit-identical.

The corpus draws the high band's phases and noise independently of the low
band, so no model can reproduce its exact waveform; LSD and SI-SNR against
cubic are printed but not asserted (see ``objectives.band_energy_error``).
Everything else is property-based or oracle-checked and fast.
"""

import csv
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from helpers import band_lsd, fd_gradient_check, speechlike
from speechsr import dsp
from speechsr.config import TrainConfig
from speechsr.data import preprocess, read_wav, synth_corpus, validation_items
from speechsr.diffusion import (
    NoiseSchedule,
    forward_sample,
    mean_mu,
    repaint,
    reverse_infer,
    sigma,
    validation_loss,
)
from speechsr.dsp import FrameConfig, Waveform
from speechsr.engine import Parameter, Tensor, ops
from speechsr.networks import (
    Arcn,
    Dparn,
    TimeEmbeddingConfig,
    TwoStageModel,
    tiny_arcn_config,
    tiny_dparn_config,
)
from speechsr.objectives import (ALPHA, LossReport, band_energy_error, lambda_weight, loss_tf,
                                 lsd, sisnr)
from speechsr.resample import UpsamplingRatio, simulate_lr
from speechsr.train import (
    METRIC_STFT,
    PlateauScheduler,
    evaluate,
    evaluate_model,
    fit,
    load_model,
)

SCHED = NoiseSchedule()


def _ok(num: int, text: str):
    print(f"\n[criterion {num:02d}] PASS - {text}")


# -------------------------------------------------------------- criterion 1


def test_criterion_01_stft_round_trip():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8000, 32001))
        x = rng.standard_normal(n)
        w = Waveform(x, 16000)
        y = dsp.istft(dsp.stft(w), n).samples
        interior = slice(256, n - 256)
        rel = np.linalg.norm((y - x)[interior]) / np.linalg.norm(x[interior])
        worst = max(worst, rel)
        assert rel < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(1, f"100 round trips, worst interior rel L2 {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2


def _micro_arcn():
    return tiny_arcn_config(
        base_channels=4, encoder_blocks=2, decoder_blocks=2, norm_groups=2,
        attention_embed=2, network_bins=16,
        stft=FrameConfig(frame_ms=2.0, hop_ms=0.5),
        temb=TimeEmbeddingConfig(dim=8, out=12),
    )


def _micro_dparn():
    return tiny_dparn_config(frame_size=32, frame_hop=16, feature_dim=6,
                             chunk_len=4, chunk_hop=2, attention_embed=3)


def test_criterion_02_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)

    # layer primitives
    w = Parameter("w", 0.5 * rng.standard_normal((3, 2, 1, 3)))
    b = Parameter("b", 0.1 * rng.standard_normal(3))
    x_c = Tensor(rng.standard_normal((2, 4, 6)))
    fd_gradient_check(lambda: ops.sum_(ops.abs_(ops.conv2d(x_c, w, b, pad=(0, 1)))),
                      [w, b], rng)

    w7 = Parameter("w7", 0.2 * rng.standard_normal((2, 2, 7, 7)))
    x7 = Tensor(rng.standard_normal((2, 8, 9)))
    fd_gradient_check(lambda: ops.sum_(ops.abs_(ops.conv2d(x7, w7, None, pad=(3, 3)))),
                      [w7], rng)

    gamma = Parameter("gamma", 1.0 + 0.1 * rng.standard_normal(4))
    beta = Parameter("beta", 0.1 * rng.standard_normal(4))
    x_g = Tensor(rng.standard_normal((4, 3, 5)))
    fd_gradient_check(lambda: ops.sum_(ops.group_norm_silu(x_g, gamma, beta, 2)),
                      [gamma, beta], rng)

    x_s = Parameter("x_s", rng.standard_normal((3, 4)))
    fd_gradient_check(lambda: ops.sum_(ops.mul(ops.silu(x_s), x_s)), [x_s], rng)

    wl = Parameter("wl", 0.5 * rng.standard_normal((4, 5)))
    bl = Parameter("bl", 0.1 * rng.standard_normal(4))
    x_l = Tensor(rng.standard_normal((6, 5)))
    fd_gradient_check(lambda: ops.sum_(ops.tanh(ops.linear(x_l, wl, bl))), [wl, bl], rng)

    w_ih = Parameter("w_ih", 0.4 * rng.standard_normal((6, 3)))
    w_hh = Parameter("w_hh", 0.4 * rng.standard_normal((6, 2)))
    b_ih = Parameter("b_ih", 0.1 * rng.standard_normal(6))
    b_hh = Parameter("b_hh", 0.1 * rng.standard_normal(6))
    x_r = Tensor(rng.standard_normal((5, 3)))
    h_r = Tensor(rng.standard_normal((5, 2)))

    x_rr = Tensor(np.stack([x_r.data, x_r.data], axis=1))  # x_r at both steps

    def gru_loss():
        h = ops.gru(x_rr, h_r, w_ih, w_hh, b_ih, b_hh)[:, 1]
        return ops.sum_(ops.mul(h, h))

    fd_gradient_check(gru_loss, [w_ih, w_hh, b_ih, b_hh], rng)

    x_f = Parameter("x_f", rng.standard_normal((2, 3, 8)))
    fd_gradient_check(
        lambda: ops.sum_(ops.abs_(ops.fir_resample_freq(
            ops.fir_resample_freq(x_f, "down"), "up"))),
        [x_f], rng)

    x_t = Parameter("x_t", rng.standard_normal(300))

    def stft_loss():
        re, im = ops.stft_pair(x_t, 64, 16)
        y = ops.istft_pair(re, im, 64, 16, 300)
        return ops.add(ops.sum_(ops.complex_magnitude(re, im)), ops.sum_(ops.abs_(y)))

    fd_gradient_check(stft_loss, [x_t], rng)

    # full networks at tiny configurations
    arcn = Arcn(_micro_arcn(), rng)
    n = 200
    sig_in = rng.standard_normal(n)
    target = rng.standard_normal(n)

    def arcn_loss():
        out = arcn.forward(sig_in, sig_in, sig_in, UpsamplingRatio(2), 371.0, 16000)
        return ops.mean_(ops.abs_(ops.sub(out, Tensor(target))))

    fd_gradient_check(arcn_loss, arcn.params(), rng, n_probes=40, atol=1e-8)

    dparn = Dparn(_micro_dparn(), rng)
    x_d = rng.standard_normal(150)
    t_d = rng.standard_normal(150)

    def dparn_loss():
        return ops.mean_(ops.abs_(ops.sub(dparn.forward(x_d), Tensor(t_d))))

    fd_gradient_check(dparn_loss, dparn.params(), rng, n_probes=40, atol=1e-8)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(2, f"primitives + ARCN + DPARN finite-difference checks, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_schedule_correctness():
    assert sigma(0.0, SCHED) == 0.0
    grid = np.linspace(0.0, 1.0, 1001)
    vals = sigma(grid, SCHED)
    assert np.all(np.diff(vals) > 0)
    with mp.workdps(50):
        smin = mp.mpf("0.05")
        smax = mp.mpf("0.5")
        gam = mp.mpf("1.5")
        ratio = smax / smin
        logr = mp.log(ratio)
        worst = 0.0
        for t, v in zip(grid, vals):
            tm = mp.mpf(float(t))
            var = smin**2 * (ratio ** (2 * tm) - mp.e ** (-2 * gam * tm)) * logr / (gam + logr)
            ref = float(mp.sqrt(var))
            worst = max(worst, abs(v - ref))
            assert abs(v - ref) < 1e-12
    _ok(3, f"sigma(0)=0, strictly increasing, 1001-point oracle match ({worst:.1e})")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_mean_formula():
    rng = np.random.default_rng(4)
    x0, y = rng.standard_normal(100), rng.standard_normal(100)
    np.testing.assert_array_equal(mean_mu(x0, y, 0.0, SCHED.gamma), x0)
    with mp.workdps(50):
        decay = float(mp.e ** mp.mpf("-1.5"))
    mu = mean_mu(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0, SCHED.gamma)
    assert abs(mu[0] - decay) < 1e-12
    assert abs(mu[1] - (1.0 - decay)) < 1e-12
    _ok(4, "mu(x0,y,0)=x0 exact; t=1 coefficients match e^-1.5 to 1e-12")


# -------------------------------------------------------------- criterion 5


def test_criterion_05_forward_sample_statistics():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    n, draws = 200, 500  # 1e5 samples per time point
    x0, y = rng.standard_normal(n), rng.standard_normal(n)
    for t in (0.25, 0.5, 1.0):
        mu = mean_mu(x0, y, t, SCHED.gamma)
        residuals = np.stack([
            forward_sample(x0, y, t, rng.standard_normal(n), SCHED) - mu
            for _ in range(draws)
        ])
        ratio = residuals.var() / sigma(t, SCHED) ** 2
        assert abs(ratio - 1.0) < 0.03
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(5, f"MC variance within 3% at t in (0.25, 0.5, 1.0), {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_repaint_band_contract():
    hr = speechlike(32000, seed=66)
    _, s_inp = simulate_lr(hr, UpsamplingRatio(2), "chebyshev")
    rng = np.random.default_rng(6)
    x0t = rng.standard_normal(32000) * float(np.std(s_inp.samples))
    out = repaint(x0t, s_inp.samples, 16000, UpsamplingRatio(2), "chebyshev")
    lr_nyq = 4000.0
    low = band_lsd(s_inp, Waveform(out, 16000), 0.0, 0.8 * lr_nyq)
    high = band_lsd(Waveform(x0t, 16000), Waveform(out, 16000), 1.2 * lr_nyq, 8000.0)
    assert low < 0.3
    assert high < 0.3
    _ok(6, f"low band follows s_inp ({low:.3f}), high band follows x0t ({high:.3f})")


# ------------------------------------------------------- criteria 7 and 8


OVERFIT_SEED = 7


@pytest.fixture(scope="module")
def overfit(tmp_path_factory):
    """Two identical 200-step runs on 4 synthetic utterances (2 s, ratio 2)."""
    root = tmp_path_factory.mktemp("overfit")
    corpus = synth_corpus(root / "corpus", 4, 2.0, seed=101)
    cfg = TrainConfig(
        epochs=200, batch_size=4, crop_seconds=0.25, learning_rate=0.002,
        ema_decay=0.98, seed=OVERFIT_SEED, ratio=2, filter_kind="chebyshev",
        validate_every=100,
    )
    arcn, dparn = tiny_arcn_config(), tiny_dparn_config()
    runs = []
    for name in ("run_a", "run_b"):
        runs.append(fit(cfg, arcn, dparn, SCHED, corpus, corpus, root / name))
    return corpus, cfg, runs, root


def test_criterion_07_filter_robustness_harness(overfit):
    corpus, cfg, runs, root = overfit
    reports = {}
    for kind in ("chebyshev", "bessel"):
        rows = evaluate(runs[0].best_path, corpus, UpsamplingRatio(2), kind, seed=3)
        assert len(rows) == 4
        path = root / f"report_{kind}.csv"
        from speechsr.train import write_report
        write_report(path, rows)
        with open(path) as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["utterance_id", "sisnr_db", "lsd_db", "baseline_sisnr_db",
                            "baseline_lsd_db", "band_error_db", "baseline_band_error_db"]
        assert table[-1][0] == "MEAN"
        reports[kind] = rows
    # baseline column is simulation-dependent but checkpoint-independent
    fresh = TwoStageModel(tiny_arcn_config(), tiny_dparn_config(), seed=12345)
    fresh_rows = evaluate_model(fresh, corpus, UpsamplingRatio(2), "bessel",
                                "chebyshev", SCHED, 16000, seed=3)
    for a, b in zip(reports["bessel"], fresh_rows):
        assert a.baseline == b.baseline
    assert any(a.baseline != b.baseline
               for a, b in zip(reports["chebyshev"], reports["bessel"]))
    _ok(7, "matched + mismatched evaluations with checkpoint-independent baselines")


def _frozen_draw_losses(model, items, draws):
    """Sum of lambda(k) * l_diff, and mean l_pred, over frozen (k, z) draws."""
    reports = [
        validation_loss(model, hr, inp, SCHED, UpsamplingRatio(2), 16000, k, z)
        for (_, hr, inp), item_draws in zip(items, draws)
        for k, z in item_draws
    ]
    return (sum(r.lambda_weight * r.l_diff for r in reports),
            float(np.mean([r.l_pred for r in reports])))


def _infer_corpus(corpus, models):
    """Per utterance: hr, the cubic input, and each model's reverse_infer output."""
    for i, entry in enumerate(corpus.entries):
        hr = preprocess(read_wav(entry.path), 16000)
        s_lr, s_inp = simulate_lr(hr, UpsamplingRatio(2), "chebyshev")
        outs = [reverse_infer(s_lr, model, SCHED, UpsamplingRatio(2), "chebyshev",
                              np.random.default_rng([OVERFIT_SEED, i]))
                for model in models]
        yield hr, s_inp, outs


def test_criterion_08_toy_overfit(overfit):
    corpus, cfg, (run_a, run_b), root = overfit
    trained, _ = load_model(run_a.last_path)
    untrained = TwoStageModel(tiny_arcn_config(), tiny_dparn_config(), seed=cfg.seed)
    identity = TwoStageModel(tiny_arcn_config(), tiny_dparn_config(), seed=cfg.seed)
    for p in identity.dparn.out_proj.params():
        p.data[...] = 0.0  # zero head: s_pred = s_inp exactly

    # (a) joint training halves the loss the model can reduce. Frozen draws:
    # the centre 0.5 s of each utterance, a 12-point log grid of k, fixed z.
    totals = np.array(run_a.step_totals)
    assert totals.size == 200
    items = validation_items(corpus, cfg.sample_rate, UpsamplingRatio(2),
                             cfg.filter_kind, max_s=0.5)
    ks = np.unique(np.geomspace(1, SCHED.total_steps, 12).round().astype(int))
    draw_rng = np.random.default_rng(OVERFIT_SEED)
    draws = [[(int(k), draw_rng.standard_normal(hr.size)) for k in ks]
             for _, hr, _ in items]
    diff_trained, pred_trained = _frozen_draw_losses(trained, items, draws)
    diff_untrained, pred_untrained = _frozen_draw_losses(untrained, items, draws)
    _, pred_identity = _frozen_draw_losses(identity, items, [d[:1] for d in draws])
    diff_ratio = diff_trained / diff_untrained
    assert diff_ratio <= 0.5
    assert pred_trained < pred_identity

    # (b) reverse inference restores high-band energy better than both cubic
    # upsampling and the untrained model, on every training utterance
    lr_nyquist = 0.5 * cfg.sample_rate / cfg.ratio
    errors = []
    for hr, s_inp, (s_hat, s_init) in _infer_corpus(corpus, (trained, untrained)):
        ref_spec, spec_hat, spec_inp, spec_init = (dsp.stft(w, METRIC_STFT)
                                                   for w in (hr, s_hat, s_inp, s_init))
        err = band_energy_error(ref_spec, spec_hat, lr_nyquist)
        err_cubic = band_energy_error(ref_spec, spec_inp, lr_nyquist)
        err_init = band_energy_error(ref_spec, spec_init, lr_nyquist)
        assert err < err_cubic, (err, err_cubic)
        assert err < err_init, (err, err_init)
        errors.append((err, err_cubic, lsd(ref_spec, spec_inp) - lsd(ref_spec, spec_hat),
                       sisnr(s_hat.samples, hr.samples) - sisnr(s_inp.samples, hr.samples)))
    errors = np.array(errors)

    # (c) the rerun is bit-identical
    assert run_a.step_totals == run_b.step_totals
    assert Path(run_a.last_path).read_bytes() == Path(run_b.last_path).read_bytes()
    model_a, _ = load_model(run_a.last_path)
    model_b, _ = load_model(run_b.last_path)
    entry = corpus.entries[0]
    hr = preprocess(read_wav(entry.path), 16000)
    s_lr, _ = simulate_lr(hr, UpsamplingRatio(2), "chebyshev")
    out_a = reverse_infer(s_lr, model_a, SCHED, UpsamplingRatio(2), "chebyshev",
                          np.random.default_rng(9))
    out_b = reverse_infer(s_lr, model_b, SCHED, UpsamplingRatio(2), "chebyshev",
                          np.random.default_rng(9))
    np.testing.assert_array_equal(out_a.samples, out_b.samples)

    _ok(8, f"loss {totals[:10].mean():.2f}->{totals[-10:].mean():.2f}; "
           f"weighted l_diff x{diff_ratio:.2f} of init; l_pred {pred_trained:.3f} < "
           f"identity {pred_identity:.3f} (init {pred_untrained:.3f}); high-band "
           f"energy error {errors[:, 0].min():.1f}-{errors[:, 0].max():.1f} dB vs cubic "
           f"{errors[:, 1].min():.1f}-{errors[:, 1].max():.1f} dB on all 4 "
           f"(mean dLSD {errors[:, 2].mean():.2f}, dSISNR {errors[:, 3].mean():.2f} dB, "
           f"not asserted); rerun bit-identical")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_metric_identities():
    rng = np.random.default_rng(9)
    spec = dsp.stft(Waveform(rng.standard_normal(8000), 16000))
    assert lsd(spec, spec) == 0.0
    mag = np.abs(rng.standard_normal((7, 9))) + 0.25
    np.testing.assert_allclose(lsd(mag, 10.0 * mag), 2.0, rtol=1e-12)
    s = rng.standard_normal(500)
    est = s + 0.3 * rng.standard_normal(500)
    base = sisnr(est, s)
    for a in (0.1, 3.0, 100.0):
        assert abs(sisnr(a * est, s) - base) < 1e-9
    _ok(9, "LSD identities and SISNR scale invariance")


# ------------------------------------------------------------- criterion 10


def test_criterion_10_lambda_and_alpha_constants():
    with mp.workdps(50):
        ref = float(1 / (mp.e - 1))
    assert abs(lambda_weight(1.0) - ref) < 1e-5
    assert ALPHA == 0.85
    l_time, l_freq = 0.37, 1.23
    report = LossReport.build(l_pred=0.5, l_time=l_time, l_freq=l_freq,
                              lambda_weight=2.0)
    hand = 0.85 * l_time + 0.15 * l_freq
    assert abs(report.l_diff - hand) < 1e-12
    assert abs(report.total - (0.5 + 2.0 * hand)) < 1e-12
    rng = np.random.default_rng(10)
    s = rng.standard_normal(600)
    s_hat = s + 0.1 * rng.standard_normal(600)
    lt, lf, ld = loss_tf(s_hat, s, 128, 32)
    assert abs(ld.item() - (0.85 * lt.item() + 0.15 * lf.item())) < 1e-12
    _ok(10, "lambda(1)=1/(e-1) and alpha=0.85 recombination verified")


# ------------------------------------------------------------- criterion 11


def test_criterion_11_scheduler_state_machine(tmp_path, micro_corpus):
    s = PlateauScheduler(lr=1.0, patience=3)
    halved = [s.update(5.0) for _ in range(4)]
    assert halved == [False, False, False, True]
    assert s.lr == 0.5

    s = PlateauScheduler(lr=1.0, patience=3)
    lr_trace = []
    for v in (9.0, 8.0, 8.0, 8.0, 8.0, 7.0, 7.0, 7.0, 7.0):
        s.update(v)
        lr_trace.append(s.lr)
    assert lr_trace == [1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.25]

    from conftest import micro_arch, micro_train_config
    arcn, dparn = micro_arch()
    cfg6 = micro_train_config(epochs=6, seed=17)
    cfg3 = micro_train_config(epochs=3, seed=17)
    full = fit(cfg6, arcn, dparn, SCHED, micro_corpus, micro_corpus, tmp_path / "f")
    part = fit(cfg3, arcn, dparn, SCHED, micro_corpus, micro_corpus, tmp_path / "p")
    resumed = fit(cfg6, arcn, dparn, SCHED, micro_corpus, micro_corpus,
                  tmp_path / "p", resume_from=part.last_path)
    assert part.lr_trace + resumed.lr_trace == full.lr_trace
    assert part.val_trace + resumed.val_trace == full.val_trace
    _ok(11, "patience-3 halvings exact; resumed LR trace bitwise equal")
