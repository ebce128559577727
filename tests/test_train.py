"""Tests for the training driver, plateau scheduling, and evaluation."""

import csv
import json
import multiprocessing
import os
import signal
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import micro_arch, micro_train_config
from helpers import adam_and_ema
from speechsr import diffusion, networks
from speechsr import train as train_mod
from speechsr.config import TrainConfig
from speechsr.data import Batch, Manifest, ManifestEntry, read_wav, synth_corpus, write_wav
from speechsr.diffusion import NoiseSchedule, reverse_infer
from speechsr.dsp import Waveform
from speechsr.engine import load_state, ops
from speechsr.errors import ConfigError, NumericsError
from speechsr.networks import TwoStageModel
from speechsr.resample import UpsamplingRatio
from speechsr.train import (
    PlateauScheduler,
    evaluate,
    evaluate_model,
    fit,
    load_model,
    write_report,
)

SCHED = NoiseSchedule()


class TestTrainConfig:
    @pytest.mark.parametrize("ratio", [2.5, 1.9])
    def test_non_integral_ratio_rejected(self, ratio):
        with pytest.raises(ConfigError, match="whole number"):
            micro_train_config(ratio=ratio)

    def test_integral_float_ratio_stored_as_int(self):
        cfg = micro_train_config(ratio=2.0)
        assert cfg.ratio == 2 and type(cfg.ratio) is int

    @pytest.mark.parametrize("validate_every", [0, -1])
    def test_validate_every_below_one_rejected(self, validate_every):
        with pytest.raises(ConfigError, match="validate_every"):
            micro_train_config(validate_every=validate_every)

    def test_ratio_must_divide_the_sample_rate(self):
        with pytest.raises(ConfigError, match="ratio 3 does not divide sample_rate 16000"):
            micro_train_config(ratio=3)

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ConfigError, match="max_steps"):
            micro_train_config(max_steps=-1)
        assert micro_train_config(max_steps=0).max_steps == 0

    @pytest.mark.parametrize("field", ["crop_seconds", "learning_rate", "ema_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            micro_train_config(**{field: value})


class TestPlateauScheduler:
    def test_flat_sequence_halves_once(self):
        s = PlateauScheduler(lr=1.0)
        halved = [s.update(5.0) for _ in range(4)]
        assert halved == [False, False, False, True]
        assert s.lr == 0.5

    def test_improvement_resets_patience(self):
        s = PlateauScheduler(lr=1.0)
        for v in (5.0, 5.0, 4.0, 4.0, 4.0, 4.0):
            s.update(v)
        # bad epochs: 0,1 then reset at 4.0, then 1,2,3 -> one halving
        assert s.lr == 0.5

    def test_strict_improvement_required(self, monkeypatch):
        monkeypatch.setattr(PlateauScheduler, "PATIENCE", 2)
        s = PlateauScheduler(lr=1.0)
        s.update(3.0)
        assert s.update(3.0) is False  # equal is not an improvement
        assert s.update(3.0) is True
        assert s.lr == 0.5

    def test_monotone_decreasing_never_halves(self):
        s = PlateauScheduler(lr=1.0)
        for v in np.linspace(10, 1, 30):
            assert s.update(float(v)) is False
        assert s.lr == 1.0

    def test_trace_decreases_by_half_only(self):
        rng = np.random.default_rng(0)
        s = PlateauScheduler(lr=0.8)
        trace = []
        for _ in range(60):
            s.update(float(rng.uniform(1, 2)))
            trace.append(s.lr)
        for a, b in zip(trace, trace[1:]):
            assert b == a or b == 0.5 * a

    def test_state_roundtrip(self):
        s = PlateauScheduler(lr=0.25)
        s.update(4.0)
        s.update(5.0)
        s2 = PlateauScheduler(**asdict(s))
        assert s2 == s


class TestFit:
    def test_one_epoch_checkpoint_roundtrip(self, micro_run):
        result, out = micro_run
        assert result.total_steps >= 1
        meta, arrays = load_state(result.last_path)
        model, _ = load_model(result.last_path)
        for p in model.params():
            np.testing.assert_array_equal(p.data, arrays[f"ema/{p.name}"])
        assert meta["train_config"]["seed"] == 5

    def test_resume_that_trains_nothing_rewrites_last_ckpt_bytes(self, tmp_path, micro_corpus,
                                                                micro_run):
        """Restoring a checkpoint and saving it again inverts over every array and meta key."""
        result, _ = micro_run
        arcn, dparn = micro_arch()
        again = fit(micro_train_config(), arcn, dparn, SCHED, micro_corpus, micro_corpus,
                    tmp_path / "again", resume_from=result.last_path)
        assert again.val_trace == ()
        assert Path(again.last_path).read_bytes() == Path(result.last_path).read_bytes()

    def test_run_metadata_written(self, micro_run):
        _, out = micro_run
        assert (out / "run_meta.json").exists()
        assert (out / "runlog_steps.csv").exists()

    @pytest.mark.parametrize("overrides", [
        {},
        dict(learning_rate=0.05),
    ], ids=["flat", "halved-before-cut"])
    def test_resume_reproduces_lr_trace_bitwise(self, tmp_path, micro_corpus, monkeypatch,
                                                overrides):
        if overrides:  # with patience 1 the rate falls before the cut
            monkeypatch.setattr(PlateauScheduler, "PATIENCE", 1)
        arcn, dparn = micro_arch()
        cfg6 = micro_train_config(epochs=6, seed=9, **overrides)
        full = fit(cfg6, arcn, dparn, SCHED, micro_corpus, micro_corpus,
                   tmp_path / "full")
        if overrides:  # the rate has fallen before the cut, so the resume must take it up
            assert full.lr_trace[2] < cfg6.learning_rate
        cfg3 = micro_train_config(epochs=3, seed=9, **overrides)
        part = fit(cfg3, arcn, dparn, SCHED, micro_corpus, micro_corpus,
                   tmp_path / "part")
        resumed = fit(cfg6, arcn, dparn, SCHED, micro_corpus, micro_corpus,
                      tmp_path / "part", resume_from=part.last_path)
        assert part.val_trace + resumed.val_trace == full.val_trace
        assert part.lr_trace + resumed.lr_trace == full.lr_trace
        # parameters, Adam moments and EMA shadows match the uninterrupted run bitwise
        _, arrays_full = load_state(full.last_path)
        _, arrays_res = load_state(resumed.last_path)
        assert arrays_full.keys() == arrays_res.keys()
        for key, array in arrays_full.items():
            np.testing.assert_array_equal(array, arrays_res[key], err_msg=key)

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

    def test_resume_from_finished_run_keeps_its_epoch(self, tmp_path, micro_corpus):
        """A resume that trains nothing writes the checkpoint's epoch, so a
        second resume from its output does not retrain every epoch."""
        arcn, dparn = micro_arch()
        cfg = micro_train_config(epochs=2, seed=9)
        a = fit(cfg, arcn, dparn, SCHED, micro_corpus, micro_corpus, tmp_path / "a")
        b = fit(cfg, arcn, dparn, SCHED, micro_corpus, micro_corpus, tmp_path / "b",
                resume_from=a.last_path)
        c = fit(cfg, arcn, dparn, SCHED, micro_corpus, micro_corpus, tmp_path / "c",
                resume_from=b.last_path)
        for path in (a.last_path, b.best_path, b.last_path, c.best_path, c.last_path):
            meta, _ = load_state(path)
            assert (meta["epoch"], meta["global_step"]) == (2, 2)
        assert b.val_trace == c.val_trace == ()

    def test_validation_does_not_mutate_state(self, micro_run):
        result, _ = micro_run
        model, _ = load_model(result.last_path)
        before = {p.name: p.data.copy() for p in model.params()}
        rng = np.random.default_rng(1)
        hr = rng.standard_normal(4000)
        inp = rng.standard_normal(4000)
        from speechsr.diffusion import validation_loss
        r1 = validation_loss(model, hr, inp, UpsamplingRatio(2), 16000,
                             k=500, z=rng.standard_normal(4000))
        z2 = np.random.default_rng(2).standard_normal(4000)
        r2 = validation_loss(model, hr, inp, UpsamplingRatio(2), 16000,
                             k=500, z=z2)
        r3 = validation_loss(model, hr, inp, UpsamplingRatio(2), 16000,
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

    @pytest.mark.parametrize("utts, fail_at, steps", [
        (2, 1, [["1", "1"], ["2", "2"]]),
        (4, 2, [["1", "1"], ["2", "1"], ["3", "2"], ["4", "2"]]),
    ], ids=["at-once", "mid-epoch"])
    def test_resume_from_diagnostic_trains_only_the_epochs_left(self, tmp_path, micro_corpus,
                                                                monkeypatch, utts, fail_at, steps):
        """A step that fails saves its diagnostic at epoch 0, the last one
        completed, with the steps done before it, so a resume from it trains
        the batches epoch 1 had left, then epoch 2: each step and each epoch is
        logged once. At B=2, ``at-once`` fails epoch 1's only step and
        ``mid-epoch`` the second of its two."""
        corpus = (micro_corpus if utts == len(micro_corpus)
                  else synth_corpus(tmp_path / "corpus", utts, 0.5, seed=3))
        real_step, calls = train_mod.train_step, []

        def fail_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise NumericsError("poisoned step")
            return real_step(*args, **kwargs)

        arcn, dparn = micro_arch()
        cfg, out = micro_train_config(epochs=2), tmp_path / "boom"
        monkeypatch.setattr(train_mod, "train_step", fail_once)
        with pytest.raises(NumericsError):
            fit(cfg, arcn, dparn, SCHED, corpus, corpus, out)
        monkeypatch.undo()
        meta = load_state(out / "diagnostic.ckpt")[0]
        assert (meta["epoch"], meta["global_step"]) == (0, fail_at - 1)
        resumed = fit(cfg, arcn, dparn, SCHED, corpus, corpus, out,
                      resume_from=out / "diagnostic.ckpt")
        with open(out / "runlog_steps.csv", newline="") as fh:
            assert [row[:2] for row in csv.reader(fh)] == [["step", "epoch"], *steps]
        with open(out / "runlog_epochs.csv", newline="") as fh:
            assert [row[0] for row in csv.reader(fh)] == ["epoch", "1", "2"]
        assert (resumed.total_steps, len(resumed.val_trace)) == (len(steps), 2)

    def test_resume_from_diagnostic_after_a_max_steps_stop(self, tmp_path, monkeypatch):
        """A ``max_steps`` stop mid-epoch 2 leaves ``global_step`` behind
        ``epoch * len(batcher)``; a resume from it then fails at its second
        step, in epoch 3, and the diagnostic records the one batch of epoch 3
        it trained, so a resume from the diagnostic trains epoch 3's last
        batch alone: steps 1-5, each logged once."""
        corpus = synth_corpus(tmp_path / "corpus", 4, 0.5, seed=3)
        arcn, dparn = micro_arch()
        out = tmp_path / "run"
        fit(micro_train_config(epochs=3, max_steps=3), arcn, dparn, SCHED, corpus, corpus, out)
        real_step, calls = train_mod.train_step, []

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericsError("poisoned step")
            return real_step(*args, **kwargs)

        cfg = micro_train_config(epochs=3)
        monkeypatch.setattr(train_mod, "train_step", fail_second)
        with pytest.raises(NumericsError):
            fit(cfg, arcn, dparn, SCHED, corpus, corpus, out, resume_from=out / "last.ckpt")
        monkeypatch.undo()
        meta = load_state(out / "diagnostic.ckpt")[0]
        assert (meta["epoch"], meta["batches_done"], meta["global_step"]) == (2, 1, 4)
        resumed = fit(cfg, arcn, dparn, SCHED, corpus, corpus, out,
                      resume_from=out / "diagnostic.ckpt")
        with open(out / "runlog_steps.csv", newline="") as fh:
            assert [row[:2] for row in csv.reader(fh)][1:] == [
                [str(step), str(epoch)] for step, epoch in
                zip(range(1, 6), (1, 1, 2, 3, 3))]
        assert resumed.total_steps == 5

    def test_resume_refuses_more_done_batches_than_an_epoch_has(self, tmp_path, monkeypatch):
        """A diagnostic saved after two of three batches (6 utterances, B=2) has
        more batches done than an epoch holds at B=6: the resume exits as a
        data error naming the field, before ``run_meta.json`` is rewritten."""
        corpus = synth_corpus(tmp_path / "corpus", 6, 0.5, seed=3)
        arcn, dparn = micro_arch()
        out = tmp_path / "run"
        real_step, calls = train_mod.train_step, []

        def fail_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericsError("poisoned step")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(train_mod, "train_step", fail_third)
        with pytest.raises(NumericsError):
            fit(micro_train_config(), arcn, dparn, SCHED, corpus, corpus, out)
        monkeypatch.undo()
        run_meta = (out / "run_meta.json").read_text()
        with pytest.raises(ConfigError, match=r"batches_done 2 outside \[0, 1\]"):
            fit(micro_train_config(batch_size=6), arcn, dparn, SCHED, corpus, corpus, out,
                resume_from=out / "diagnostic.ckpt")
        assert (out / "run_meta.json").read_text() == run_meta

    def test_checkpoint_holds_each_parameter_under_each_prefix(self, micro_run):
        """A checkpoint holds exactly ``param/``, ``adam/m/``, ``adam/v/`` and
        ``ema/`` times every parameter name, each in its parameter's shape;
        restored through ``_state_table`` they land in the flat values, Adam's
        moments and the EMA shadow."""
        result, _ = micro_run
        _, arrays = load_state(result.last_path)
        model = TwoStageModel(*micro_arch(), seed=5)
        prefixes = ("param", "adam/m", "adam/v", "ema")
        shapes = {f"{prefix}/{p.name}": p.shape for prefix in prefixes for p in model.params()}
        assert {key: array.shape for key, array in arrays.items()} == shapes
        opt, ema = adam_and_ema(model)
        train_mod._restore(result.last_path, arrays, train_mod._state_table(opt, ema))
        for prefix, restored in zip(prefixes, (opt.flat.data, opt.m, opt.v, ema.shadow)):
            saved = [arrays[f"{prefix}/{p.name}"].ravel() for p in model.params()]
            np.testing.assert_array_equal(restored, np.concatenate(saved), err_msg=prefix)

    def test_crop_shorter_than_a_dparn_frame_refused_before_out_dir(self, tmp_path,
                                                                   micro_corpus):
        arcn, dparn = micro_arch()
        with pytest.raises(ConfigError, match=r"crop_seconds 0\.005 gives 80 samples.*"
                                              r"frame_size 128"):
            fit(micro_train_config(crop_seconds=0.005), arcn, dparn, SCHED, micro_corpus,
                micro_corpus, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_resume_arch_mismatch_rejected(self, tmp_path, micro_corpus, micro_run):
        result, _ = micro_run
        arcn, dparn = micro_arch()
        bad_dparn = type(dparn)(**{**dparn.__dict__, "feature_dim": 10})
        with pytest.raises(ConfigError):
            fit(micro_train_config(), arcn, bad_dparn, SCHED, micro_corpus,
                micro_corpus, tmp_path / "bad", resume_from=result.last_path)
        assert not (tmp_path / "bad").exists()


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """Three 0.5 s utterances and one of 0.15 s, shorter than a 0.25 s crop."""
    root = tmp_path_factory.mktemp("mixed_corpus")
    entries = synth_corpus(root / "a", 3, 0.5, seed=11).entries
    short = synth_corpus(root / "b", 1, 0.15, seed=12).entries[0]
    return Manifest(entries + (replace(short, utt_id="short"),))


def _fit_mixed(corpus, out, monkeypatch, processes):
    """Two epochs of a 3-item and a 1-item batch on ``processes`` CPUs."""
    monkeypatch.setattr(ops, "_workers", lambda: processes)
    arcn, dparn = micro_arch()
    return fit(micro_train_config(epochs=2, batch_size=3, seed=7), arcn, dparn, SCHED,
               corpus, corpus, out)


def _in_workers_only(monkeypatch, act):
    """Wrap ``_utterance_loss`` so that ``act(total)`` replaces it in a forked worker."""
    parent, inner = os.getpid(), diffusion._utterance_loss

    def wrapped(*args):
        total, report = inner(*args)
        return (act(total) if os.getpid() != parent else total), report

    monkeypatch.setattr(diffusion, "_utterance_loss", wrapped)


class TestStepProcesses:
    @pytest.mark.parametrize("processes", [2, 3])
    def test_fan_out_writes_the_inline_bytes(self, tmp_path, mixed_corpus, monkeypatch,
                                             processes):
        _fit_mixed(mixed_corpus, tmp_path / "inline", monkeypatch, 1)
        _fit_mixed(mixed_corpus, tmp_path / "fan", monkeypatch, processes)
        assert multiprocessing.active_children() == []
        for run, count in (("inline", 1), ("fan", processes)):
            meta = json.loads((tmp_path / run / "run_meta.json").read_text())
            assert meta["train_processes"] == count
        for name in ("best.ckpt", "last.ckpt", "runlog_steps.csv"):
            fan, inline = (tmp_path / run / name for run in ("fan", "inline"))
            assert fan.read_bytes() == inline.read_bytes(), name

    def test_worker_non_finite_loss_saves_diagnostic(self, tmp_path, mixed_corpus, monkeypatch):
        _in_workers_only(monkeypatch, lambda total: ops.mul(total, np.nan))
        with pytest.raises(NumericsError, match=r"non-finite loss on utterance '\w+' at step k=\d+$"):
            _fit_mixed(mixed_corpus, tmp_path / "nan", monkeypatch, 2)
        assert (tmp_path / "nan" / "diagnostic.ckpt").exists()
        assert multiprocessing.active_children() == []
        # Saved before Adam moved, the diagnostic's arrays are finite, so a run resumes from it.
        monkeypatch.undo()
        arcn, dparn = micro_arch()
        resumed = fit(micro_train_config(epochs=2, batch_size=3, seed=7, max_steps=1), arcn,
                      dparn, SCHED, mixed_corpus, mixed_corpus, tmp_path / "resumed",
                      resume_from=tmp_path / "nan" / "diagnostic.ckpt")
        assert resumed.total_steps == 1

    def test_dead_worker_fails_the_step_instead_of_hanging(self, tmp_path, mixed_corpus,
                                                           monkeypatch):
        _in_workers_only(monkeypatch, lambda total: os._exit(3))

        def hung(*_):
            raise TimeoutError("the step still waits on a dead worker after 30 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match="ended during a step .exit code 3."):
                _fit_mixed(mixed_corpus, tmp_path / "dead", monkeypatch, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_fanned_out_items_split_no_op(self, tmp_path, monkeypatch):
        """In a 2-process tiny fit on 0.25 s crops, every block-runner call made
        for a train item, in this process and in the worker, runs as one part,
        though some have several blocks; an inline step on the same crop and a
        tiny 1 s reverse_infer still share their blocks out."""
        log = tmp_path / "blocks.log"
        run_blocks, backward_item, in_item = ops._run_blocks, diffusion._backward_item, []

        def item(*args):
            in_item.append(True)
            try:
                return backward_item(*args)
            finally:
                in_item.pop()

        def counted_blocks(run, blocks):
            blocks, parts = list(blocks), []

            def counted(part):
                parts.append(len(part))
                run(part)

            run_blocks(counted, blocks)
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {int(bool(in_item))} {len(blocks)} {len(parts)}\n")

        monkeypatch.setattr(ops, "_workers", lambda: 2)
        monkeypatch.setattr(diffusion, "_backward_item", item)
        monkeypatch.setattr(ops, "_run_blocks", counted_blocks)
        corpus = synth_corpus(tmp_path / "corpus", 2, 0.5, seed=13)
        cfg = TrainConfig(epochs=1, batch_size=2, crop_seconds=0.25, seed=3)
        fit(cfg, networks.tiny_arcn_config(), networks.tiny_dparn_config(), SCHED, corpus,
            corpus, tmp_path / "run")
        assert multiprocessing.active_children() == []
        rows = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        items = [row for row in rows if row[1]]
        pids = {pid for pid, *_ in items}
        assert os.getpid() in pids and len(pids) == 2
        for pid in pids:
            assert max(blocks for p, _, blocks, _ in items if p == pid) > 1, pid
        assert {parts for *_, parts in items} == {1}

        model = TwoStageModel(networks.tiny_arcn_config(), networks.tiny_dparn_config(), seed=3)
        hr = np.random.default_rng(4).standard_normal(4000)
        for run in ("step", "infer"):
            log.unlink()
            if run == "step":
                diffusion.train_step(model, Batch(hr=(hr,), inp=(hr,), ids=("a",), sample_rate=16000),
                                     *adam_and_ema(model), np.random.default_rng(5),
                                     UpsamplingRatio(2))
            else:
                reverse_infer(Waveform(np.resize(hr, 8000), 8000), model,
                              replace(SCHED, inference_steps=1), UpsamplingRatio(2),
                              "chebyshev", np.random.default_rng(5))
            rows = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
            assert max(parts for *_, parts in rows) == 2, run

    def test_rule_fans_out_only_crops_the_engine_does_not_split(self, monkeypatch):
        """A tiny 0.25 s crop runs on every CPU, up to one per item; a tiny 1 s
        crop (its frame attention splits) and the paper-scale 4 s default stay
        inline, and so does everything without ``os.fork``."""
        monkeypatch.setattr(ops, "_workers", lambda: 2)
        tiny = networks.Arcn(networks.tiny_arcn_config(), np.random.default_rng(0))
        paper = networks.Arcn(networks.ArcnConfig(), np.random.default_rng(0))
        rule = train_mod._step_processes
        assert rule(tiny, TrainConfig(crop_seconds=0.25)) == 2
        assert rule(tiny, TrainConfig(crop_seconds=0.25, batch_size=1)) == 1
        assert rule(tiny, TrainConfig(crop_seconds=1.0)) == 1
        assert rule(paper, TrainConfig()) == 1
        monkeypatch.setattr(ops, "_workers", lambda: 8)
        assert rule(tiny, TrainConfig(crop_seconds=0.25)) == 4
        monkeypatch.delattr(os, "fork")
        assert rule(tiny, TrainConfig(crop_seconds=0.25)) == 1


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
            assert row.metrics.band_error_db >= 0 and row.baseline.band_error_db >= 0
        report = tmp_path / "report.csv"
        write_report(report, rows)
        with open(report) as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["utterance_id", "sisnr_db", "lsd_db", "baseline_sisnr_db",
                            "baseline_lsd_db", "band_error_db", "baseline_band_error_db"]
        assert table[-1][0] == "MEAN"
        assert float(table[-1][5]) == np.mean([r.metrics.band_error_db for r in rows])
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

    def test_non_finite_model_names_the_utterance(self, micro_corpus):
        model = TwoStageModel(*micro_arch(), seed=1)
        model.arcn.out_conv.b.data[0] = np.nan
        first = micro_corpus.entries[0].utt_id
        with pytest.raises(NumericsError, match=rf"^utterance '{first}': non-finite ARCN"
                                                r" estimate at reverse step 0 \(t=0\.999\)$"):
            evaluate_model(model, micro_corpus, UpsamplingRatio(2), "chebyshev",
                           "chebyshev", NoiseSchedule(inference_steps=2), 16000, seed=0)

    def test_odd_length_utterance_scores(self, micro_corpus, tmp_path):
        """reverse_infer returns ceil(n / r) * r samples; the first n are scored."""
        entry = micro_corpus.entries[0]
        w = read_wav(entry.path)
        odd = Waveform(np.append(w.samples, w.samples[-1]), w.sample_rate)
        path = tmp_path / "odd.wav"
        write_wav(path, odd)
        manifest = Manifest((ManifestEntry("odd", str(path), odd.sample_rate, len(odd)),))
        assert len(odd) % 2 == 1
        model = TwoStageModel(*micro_arch(), seed=1)
        (row,) = evaluate_model(model, manifest, UpsamplingRatio(2), "chebyshev",
                                "chebyshev", NoiseSchedule(inference_steps=2), 16000, seed=0)
        assert np.isfinite(row.metrics.sisnr_db) and np.isfinite(row.metrics.lsd_db)
