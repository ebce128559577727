"""Tests for the training driver, plateau scheduling, and evaluation."""

import csv

import numpy as np
import pytest

from conftest import micro_arch, micro_train_config
from speechsr import train as train_mod
from speechsr.config import TrainConfig
from speechsr.data import Manifest, synth_corpus
from speechsr.diffusion import NoiseSchedule
from speechsr.engine import Tensor, load_state
from speechsr.errors import ConfigError, NumericsError
from speechsr.networks import Arcn, TwoStageModel
from speechsr.resample import UpsamplingRatio
from speechsr.train import (
    EvalRow,
    FitResult,
    PlateauScheduler,
    evaluate,
    evaluate_model,
    fit,
    load_model,
    write_report,
)

SCHED = NoiseSchedule()


class TestPlateauScheduler:
    def test_flat_sequence_halves_once(self):
        s = PlateauScheduler(lr=1.0, patience=3)
        halved = [s.update(5.0) for _ in range(4)]
        assert halved == [False, False, False, True]
        assert s.lr == 0.5

    def test_improvement_resets_patience(self):
        s = PlateauScheduler(lr=1.0, patience=3)
        for v in (5.0, 5.0, 4.0, 4.0, 4.0, 4.0):
            s.update(v)
        # bad epochs: 0,1 then reset at 4.0, then 1,2,3 -> one halving
        assert s.lr == 0.5

    def test_strict_improvement_required(self):
        s = PlateauScheduler(lr=1.0, patience=2)
        s.update(3.0)
        assert s.update(3.0) is False  # equal is not an improvement
        assert s.update(3.0) is True
        assert s.lr == 0.5

    def test_monotone_decreasing_never_halves(self):
        s = PlateauScheduler(lr=1.0, patience=3)
        for v in np.linspace(10, 1, 30):
            assert s.update(float(v)) is False
        assert s.lr == 1.0

    def test_trace_decreases_by_half_only(self):
        rng = np.random.default_rng(0)
        s = PlateauScheduler(lr=0.8, patience=3)
        trace = []
        for _ in range(60):
            s.update(float(rng.uniform(1, 2)))
            trace.append(s.lr)
        for a, b in zip(trace, trace[1:]):
            assert b == a or b == 0.5 * a

    def test_state_roundtrip(self):
        s = PlateauScheduler(lr=0.25, patience=3, factor=0.5)
        s.update(4.0)
        s.update(5.0)
        s2 = PlateauScheduler.from_state(s.state())
        assert s2 == s


class TestFit:
    def test_one_epoch_checkpoint_roundtrip(self, micro_run):
        result, out = micro_run
        assert result.total_steps >= 1
        meta, arrays = load_state(result.last_path)
        model, _ = load_model(result.last_path, use_ema=False)
        for p in model.params():
            np.testing.assert_array_equal(p.data, arrays[f"param/{p.name}"])
        assert meta["train_config"]["seed"] == 5

    def test_run_metadata_written(self, micro_run):
        _, out = micro_run
        assert (out / "run_meta.json").exists()
        assert (out / "runlog_steps.csv").exists()

    def test_resume_reproduces_lr_trace_bitwise(self, tmp_path, micro_corpus):
        arcn, dparn = micro_arch()
        cfg6 = micro_train_config(epochs=6, seed=9)
        full = fit(cfg6, arcn, dparn, SCHED, micro_corpus, micro_corpus,
                   tmp_path / "full")
        cfg3 = micro_train_config(epochs=3, seed=9)
        part = fit(cfg3, arcn, dparn, SCHED, micro_corpus, micro_corpus,
                   tmp_path / "part")
        resumed = fit(cfg6, arcn, dparn, SCHED, micro_corpus, micro_corpus,
                      tmp_path / "part", resume_from=part.last_path)
        assert part.val_trace + resumed.val_trace == full.val_trace
        assert part.lr_trace + resumed.lr_trace == full.lr_trace
        # parameters after resume match the uninterrupted run bitwise
        m_full, _ = load_model(full.last_path, use_ema=False)
        m_res, _ = load_model(resumed.last_path, use_ema=False)
        for p1, p2 in zip(m_full.params(), m_res.params()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_resume_after_crash_logs_each_step_once(self, tmp_path, micro_corpus, monkeypatch):
        """A run killed mid-epoch 2 and resumed from last.ckpt logs what an unbroken run does."""
        arcn, dparn = micro_arch()
        cfg = micro_train_config(epochs=3, batch_size=1, seed=9)
        full = tmp_path / "full"
        fit(cfg, arcn, dparn, SCHED, micro_corpus, micro_corpus, full)
        real_step = train_mod.train_step
        calls = []

        def crash_in_epoch_two(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:  # two steps per epoch: the second step of epoch 2
                raise RuntimeError("killed")
            return real_step(*args, **kwargs)

        part = tmp_path / "part"
        monkeypatch.setattr(train_mod, "train_step", crash_in_epoch_two)
        with pytest.raises(RuntimeError):
            fit(cfg, arcn, dparn, SCHED, micro_corpus, micro_corpus, part)
        monkeypatch.setattr(train_mod, "train_step", real_step)
        fit(cfg, arcn, dparn, SCHED, micro_corpus, micro_corpus, part,
            resume_from=part / "last.ckpt")
        steps = (part / "runlog_steps.csv").read_bytes()
        assert steps == (full / "runlog_steps.csv").read_bytes()

        def epoch_rows(run):
            with open(run / "runlog_epochs.csv", newline="") as fh:
                return [row[:3] for row in csv.reader(fh)]

        assert epoch_rows(part) == epoch_rows(full)
        assert len(epoch_rows(full)) == 4

    def test_validation_does_not_mutate_state(self, micro_run):
        result, _ = micro_run
        model, _ = load_model(result.last_path, use_ema=False)
        before = {p.name: p.data.copy() for p in model.params()}
        rng = np.random.default_rng(1)
        hr = rng.standard_normal(4000)
        inp = rng.standard_normal(4000)
        from speechsr.diffusion import validation_loss
        r1 = validation_loss(model, hr, inp, SCHED, UpsamplingRatio(2), 16000,
                             k=500, z=rng.standard_normal(4000))
        z2 = np.random.default_rng(2).standard_normal(4000)
        r2 = validation_loss(model, hr, inp, SCHED, UpsamplingRatio(2), 16000,
                             k=500, z=z2)
        r3 = validation_loss(model, hr, inp, SCHED, UpsamplingRatio(2), 16000,
                             k=500, z=z2)
        assert r2 == r3  # deterministic given (k, z)
        for p in model.params():
            np.testing.assert_array_equal(p.data, before[p.name])
            assert p.grad is None

    def test_numeric_abort_saves_diagnostic(self, tmp_path, micro_corpus, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericsError("poisoned step")

        monkeypatch.setattr(train_mod, "train_step", boom)
        arcn, dparn = micro_arch()
        with pytest.raises(NumericsError):
            fit(micro_train_config(), arcn, dparn, SCHED, micro_corpus,
                micro_corpus, tmp_path / "boom")
        assert (tmp_path / "boom" / "diagnostic.ckpt").exists()

    def test_resume_arch_mismatch_rejected(self, tmp_path, micro_corpus, micro_run):
        result, _ = micro_run
        arcn, dparn = micro_arch()
        bad_dparn = type(dparn)(**{**dparn.__dict__, "feature_dim": 10})
        with pytest.raises(ConfigError):
            fit(micro_train_config(), arcn, bad_dparn, SCHED, micro_corpus,
                micro_corpus, tmp_path / "bad", resume_from=result.last_path)


class TestEvaluate:
    def test_rows_and_baseline_structure(self, micro_run, micro_corpus, tmp_path):
        result, _ = micro_run
        rows = evaluate(result.best_path, micro_corpus, UpsamplingRatio(2),
                        "chebyshev", seed=1)
        assert len(rows) == len(micro_corpus)
        for row in rows:
            assert np.isfinite(row.metrics.sisnr_db)
            assert row.metrics.lsd_db >= 0
            assert np.isfinite(row.baseline.sisnr_db)
        report = tmp_path / "report.csv"
        write_report(report, rows)
        with open(report) as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["utterance_id", "sisnr_db", "lsd_db",
                            "baseline_sisnr_db", "baseline_lsd_db"]
        assert table[-1][0] == "MEAN"
        assert len(table) == len(rows) + 2

    def test_matched_and_mismatched_both_run(self, micro_run, micro_corpus):
        result, _ = micro_run
        cheb = evaluate(result.best_path, micro_corpus, UpsamplingRatio(2),
                        "chebyshev", seed=1)
        bes = evaluate(result.best_path, micro_corpus, UpsamplingRatio(2),
                       "bessel", seed=1)
        assert len(cheb) == len(bes) == len(micro_corpus)
        # the baseline depends on the simulation filter
        assert any(
            c.baseline.lsd_db != b.baseline.lsd_db for c, b in zip(cheb, bes)
        )

    def test_baseline_is_checkpoint_independent(self, micro_corpus):
        arcn, dparn = micro_arch()
        m1 = TwoStageModel(arcn, dparn, seed=1)
        m2 = TwoStageModel(arcn, dparn, seed=2)
        r1 = evaluate_model(m1, micro_corpus, UpsamplingRatio(2), "chebyshev",
                            "chebyshev", SCHED, 16000, seed=0)
        r2 = evaluate_model(m2, micro_corpus, UpsamplingRatio(2), "chebyshev",
                            "chebyshev", SCHED, 16000, seed=0)
        for a, b in zip(r1, r2):
            assert a.baseline == b.baseline
        assert any(a.metrics != b.metrics for a, b in zip(r1, r2))
