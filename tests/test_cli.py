"""End-to-end tests of the command-line surface and its exit codes."""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from speechsr import train as train_mod
from speechsr.cli import build_parser, main
from speechsr.config import TrainConfig
from speechsr.data import (Manifest, ManifestEntry, read_manifest, read_wav, write_manifest,
                           write_wav)
from speechsr.dsp import FrameConfig, Waveform, stft
from speechsr.engine import load_state, malloc_settings, save_state, thread_counts
from speechsr.engine.checkpoint import FORMAT_VERSION, MAGIC
from speechsr.errors import ConfigError
from speechsr.resample import FILTER_KINDS
from speechsr.train import META_KEYS

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert main(["synth-corpus", "--out", str(out), "--n", "2", "--dur", "0.5",
                 "--seed", "13"]) == 0
    return out


def _write_train_config(path, corpus, out_dir, extra=""):
    """A micro-architecture training config over ``corpus``; each ``extra`` line
    replaces the line that sets its key, or is appended if none does."""
    base = f"""
train_manifest = {corpus / 'manifest.tsv'}
valid_manifest = {corpus / 'manifest.tsv'}
out_dir = {out_dir}
train.epochs = 1
train.batch_size = 2
train.crop_seconds = 0.25
train.ema_decay = 0.9
train.seed = 2
arcn.base_channels = 4
arcn.input_conv_kernel = 3
arcn.encoder_blocks = 2
arcn.attention_embed = 2
arcn.norm_groups = 2
arcn.frame_ms = 8
arcn.temb_dim = 16
arcn.temb_out = 24
dparn.frame_size = 128
dparn.feature_dim = 8
dparn.chunk_len = 8
dparn.attention_embed = 4
"""
    replaced = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in base.splitlines() if line.split("=")[0].strip() not in replaced]
    path.write_text("\n".join(kept) + "\n" + extra)
    return path


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_corpus):
    out = tmp_path_factory.mktemp("cli_run")
    cfg = _write_train_config(out / "train.cfg", cli_corpus, out / "run")
    assert main(["train", "--config", str(cfg)]) == 0
    return out / "run"


class TestSynthAndSchedule:
    def test_corpus_files_exist(self, cli_corpus):
        assert (cli_corpus / "manifest.tsv").exists()
        assert (cli_corpus / "utt0000.wav").exists()

    def test_dump_schedule_starts_at_zero(self, tmp_path):
        out = tmp_path / "sched.csv"
        assert main(["dump-schedule", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "sigma", "exp_neg_gamma_t"]
        assert len(rows) == 1002
        first = rows[1]
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0
        assert float(first[2]) == 1.0

    def test_spectrogram_shape(self, cli_corpus, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrogram", "--in", str(cli_corpus / "utt0000.wav"),
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 257  # header: one column per bin at 512-sample frames

    def test_spectrogram_at_another_frame_hops_a_quarter_of_it(self, cli_corpus, tmp_path):
        """``--frame-ms 8`` gives 128-sample frames, hopped by 32; the option that
        set the hop is gone, so passing it is a usage error."""
        wav, out = cli_corpus / "utt0000.wav", tmp_path / "spec.csv"
        assert main(["spectrogram", "--in", str(wav), "--out", str(out),
                     "--frame-ms", "8"]) == 0
        with open(out) as fh:
            header, *rows = list(csv.reader(fh))
        assert len(header) == 65
        expected = stft(read_wav(wav), FrameConfig(8.0)).magnitude()
        np.testing.assert_array_equal(np.array(rows, dtype=float), expected)
        assert main(["spectrogram", "--in", str(wav), "--out", str(out),
                     "--hop-ms", "2"]) == 1


class TestSimulate:
    def test_writes_lr_and_inp(self, cli_corpus, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--in", str(cli_corpus / "manifest.tsv"),
                     "--ratio", "2", "--filter", "chebyshev",
                     "--out", str(out)]) == 0
        lr = read_wav(out / "utt0000_lr.wav")
        inp = read_wav(out / "utt0000_inp.wav")
        assert lr.sample_rate == 8000
        assert inp.sample_rate == 16000
        assert len(inp) == 2 * len(lr)


class TestEnhance:
    def test_upsamples_and_is_deterministic(self, cli_run, cli_corpus, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--in", str(cli_corpus / "manifest.tsv"),
                     "--ratio", "2", "--out", str(sim)]) == 0
        ckpt = cli_run / "best.ckpt"
        out1 = tmp_path / "sr1.wav"
        out2 = tmp_path / "sr2.wav"
        for out in (out1, out2):
            assert main(["enhance", "--ckpt", str(ckpt),
                         "--in", str(sim / "utt0000_lr.wav"), "--seed", "4",
                         "--out", str(out)]) == 0
        lr = read_wav(sim / "utt0000_lr.wav")
        sr = read_wav(out1)
        assert sr.sample_rate == 16000
        assert len(sr) == 2 * len(lr)
        assert out1.read_bytes() == out2.read_bytes()

    def test_bytes_do_not_depend_on_thread_counts(self, cli_run, tmp_path):
        """A 1 s input, over two query blocks of ARCN attention, enhanced by
        one block worker on one CPU with one BLAS thread, and by every CPU
        with ``OPENBLAS_NUM_THREADS=2``, gives the same WAV bytes.

        The float64 samples are compared too: the float-32 WAV rounds away
        the last-bit differences that a BLAS thread split makes.
        """
        inp = tmp_path / "in.wav"
        write_wav(inp, Waveform(0.1 * np.random.default_rng(8).standard_normal(8000), 8000))
        # The affinity is set before speechsr is imported, as a launcher would.
        code = ("import hashlib, os, sys\n"
                "if sys.argv[1] == '1':\n"
                "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "from speechsr import cli\n"
                "from speechsr.engine import thread_counts\n"
                "write = cli.write_wav\n"
                "def digest_and_write(path, w):\n"
                "    print(hashlib.sha256(w.samples.tobytes()).hexdigest())\n"
                "    write(path, w)\n"
                "cli.write_wav = digest_and_write\n"
                "print(thread_counts()['workers'])\n"
                "sys.exit(cli.main(sys.argv[2:]))\n")
        paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        workers, samples = {}, {}
        for blas in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": blas}
            proc = subprocess.run(
                [sys.executable, "-c", code, blas, "enhance", "--ckpt", str(cli_run / "best.ckpt"),
                 "--in", str(inp), "--seed", "4",
                 "--out", str(tmp_path / f"blas{blas}.wav")],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            workers[blas], samples[blas] = proc.stdout.split()[:2]
        assert workers == {"1": "1", "2": str(len(os.sched_getaffinity(0)))}
        assert samples["1"] == samples["2"]
        assert (tmp_path / "blas1.wav").read_bytes() == (tmp_path / "blas2.wav").read_bytes()

    @staticmethod
    def _enhance_at(rate, cli_run, tmp_path, capsys):
        """Enhance a 0.5 s input at ``rate`` with the 16 kHz model: (exit code, stderr)."""
        inp = tmp_path / "in.wav"
        write_wav(inp, Waveform(0.1 * np.random.default_rng(8).standard_normal(rate // 2), rate))
        code = main(["enhance", "--ckpt", str(cli_run / "best.ckpt"), "--in", str(inp),
                     "--out", str(tmp_path / "sr.wav")])
        return code, capsys.readouterr().err

    def test_rate_mismatch_names_needed_rate(self, cli_run, tmp_path, capsys):
        """A 12 kHz input against a 16 kHz model, a ratio of 4/3, is a data error."""
        code, err = self._enhance_at(12000, cli_run, tmp_path, capsys)
        assert code == 2
        assert "input is 12000 Hz" in err and "a rate that divides 16000 Hz" in err
        assert not (tmp_path / "sr.wav").exists()

    def test_input_above_the_model_rate_is_a_data_error(self, cli_run, tmp_path, capsys):
        """A 32 kHz input against a 16 kHz model, a ratio below 1, is a data error."""
        code, err = self._enhance_at(32000, cli_run, tmp_path, capsys)
        assert code == 2
        assert "input is 32000 Hz" in err and "16000 Hz" in err
        assert not (tmp_path / "sr.wav").exists()

    def test_input_at_the_model_rate_is_enhanced_at_ratio_one(self, cli_run, tmp_path, capsys):
        """The ratio is the model's rate over the input's: 1 for a 16 kHz input."""
        code, err = self._enhance_at(16000, cli_run, tmp_path, capsys)
        assert code == 0, err
        out = read_wav(tmp_path / "sr.wav")
        assert (out.sample_rate, len(out)) == (16000, 8000)


class TestEvaluateCli:
    def test_reports_for_both_filters(self, cli_run, cli_corpus, tmp_path):
        ckpt = cli_run / "best.ckpt"
        reports = {}
        for kind in ("chebyshev", "bessel"):
            path = tmp_path / f"report_{kind}.csv"
            assert main(["evaluate", "--ckpt", str(ckpt),
                         "--manifest", str(cli_corpus / "manifest.tsv"),
                         "--ratio", "2", "--filter", kind,
                         "--report", str(path), "--seed", "3"]) == 0
            with open(path) as fh:
                reports[kind] = list(csv.reader(fh))
        for table in reports.values():
            assert table[0][3] == "baseline_sisnr_db"
            assert table[-1][0] == "MEAN"
        # baseline depends on the simulation filter
        assert reports["chebyshev"][1][3] != reports["bessel"][1][3]

    def test_baseline_checkpoint_independent(self, cli_run, cli_corpus, tmp_path):
        best = cli_run / "best.ckpt"
        last = cli_run / "last.ckpt"
        tables = []
        for i, ckpt in enumerate((best, last)):
            path = tmp_path / f"r{i}.csv"
            assert main(["evaluate", "--ckpt", str(ckpt),
                         "--manifest", str(cli_corpus / "manifest.tsv"),
                         "--ratio", "2", "--filter", "bessel",
                         "--report", str(path), "--seed", "3"]) == 0
            with open(path) as fh:
                tables.append(list(csv.reader(fh)))
        for row_a, row_b in zip(tables[0][1:], tables[1][1:]):
            assert row_a[3] == row_b[3]
            assert row_a[4] == row_b[4]


    @pytest.mark.parametrize("rate, n", [(16000, 100), (22050, 11025)], ids=["short", "rate"])
    def test_unusable_entry_refused_by_name_before_any_inference(
            self, cli_run, cli_corpus, tmp_path, capsys, monkeypatch, rate, n):
        """An entry shorter than one DPARN frame, or at a rate that is not a
        multiple of the checkpoint's, exits 2 naming the entry and its file
        before any utterance is inferred or a report is written."""
        odd = tmp_path / "odd.wav"
        write_wav(odd, Waveform(0.1 * np.random.default_rng(3).standard_normal(n), rate))
        entries = read_manifest(cli_corpus / "manifest.tsv").entries[:1]
        write_manifest(tmp_path / "odd.tsv",
                       Manifest(entries + (ManifestEntry("odd_entry", str(odd), rate, n),)))
        inferred = []
        monkeypatch.setattr(train_mod, "reverse_infer", lambda *a, **k: inferred.append(a))
        report = tmp_path / "r.csv"
        assert main(["evaluate", "--ckpt", str(cli_run / "best.ckpt"),
                     "--manifest", str(tmp_path / "odd.tsv"), "--ratio", "2",
                     "--report", str(report)]) == 2
        assert f"eval manifest entry 'odd_entry' ({odd}" in capsys.readouterr().err
        assert inferred == [] and not report.exists()


class TestExitCodes:
    def test_usage_error(self):
        assert main(["no-such-command"]) == 1
        assert main(["enhance"]) == 1

    def test_data_error(self, tmp_path):
        assert main(["spectrogram", "--in", str(tmp_path / "missing.wav"),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_malformed_wav_error(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"this is not audio")
        assert main(["spectrogram", "--in", str(bad),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("flag, value, named", [
        ("--rate", "0", "sample_rate"), ("--dur", "0", "duration_s"),
        ("--dur", "0.1", "duration_s"),
    ])
    def test_bad_corpus_setting_fails_before_out_dir(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "corpus"
        argv = ["synth-corpus", "--out", str(out), "--n", "1", "--dur", "0.5", "--seed", "1"]
        assert main(argv + [flag, value]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", [
        "train.validate_every = 0", "train.max_steps = -1",
        "train.learning_rate = nan", "schedule.gamma = nan", "schedule.sigma_max = inf",
        "train.crop_seconds = inf", "train.clip_norm = inf", "train.batch_size = 1.5",
        "train.epochs = 1.5", "dparn.feature_dim = 8.5", "train.ratio = 2.0",
        "train.sample_rate = 0", "train.plateau_patience = 0", "train.ratio = 3",
        "train.lr_factor = 0.5", "schedule.total_steps = 1000", "dparn.num_blocks = 2",
        "train.crop_seconds = 0.005",
        "arcn.base_channels = 0", "arcn.input_conv_kernel = 0", "arcn.input_conv_kernel = 4",
        "arcn.encoder_blocks = -1", "arcn.bottleneck_blocks = -1", "arcn.attention_embed = 0",
        "arcn.norm_groups = 0", "arcn.norm_groups = -4", "arcn.temb_out = 0",
        "dparn.frame_size = 0", "dparn.frame_hop = 0", "dparn.feature_dim = 0",
        "dparn.chunk_len = 0", "dparn.chunk_hop = 0", "dparn.attention_embed = 0",
        "dparn.frame_size = 255", "dparn.chunk_len = 7",
    ])
    def test_bad_loop_setting_fails_before_training(self, tmp_path, cli_corpus, capsys, line):
        """An out-of-range, non-finite or mistyped value, or a key that is now a
        constant (``train.clip_norm``), exits 2 naming its field, before ``out_dir`` exists."""
        cfg = _write_train_config(tmp_path / "bad.cfg", cli_corpus, tmp_path / "run",
                                  extra=line + "\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert line.split(".", 1)[1].split(" ")[0] in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


    @pytest.mark.parametrize("line", ["arcn.frame_ms = nan", "arcn.hop_ms = 3",
                                      "arcn.encoder_blocks = 7", "arcn.frame_ms = 0.5625"])
    def test_bad_arcn_framing_fails_before_out_dir(self, tmp_path, cli_corpus, capsys, line):
        """Framing that the network cannot use exits 2 naming the field, before
        ``out_dir``, ``run_meta.json`` or a run log exists."""
        cfg = _write_train_config(tmp_path / "bad.cfg", cli_corpus, tmp_path / "run",
                                  extra=line + "\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert line.split(".", 1)[1].split(" ")[0] in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["train", "valid"])
    @pytest.mark.parametrize("rate, stated, n", [(16000, 16000, 100), (8000, 8000, 8000),
                                                 (8000, 16000, 8000)],
                             ids=["short", "rate", "stated-rate"])
    def test_unusable_manifest_entry_fails_before_out_dir(self, tmp_path, cli_corpus, capsys,
                                                          kind, rate, stated, n):
        """An entry whose WAV is shorter than one DPARN frame at the training rate,
        or at a rate that is not an integer multiple of it (whatever rate its
        manifest line states), exits 2 naming the manifest kind, the entry and
        its file, before ``out_dir`` exists."""
        odd = tmp_path / "odd.wav"
        write_wav(odd, Waveform(0.1 * np.random.default_rng(3).standard_normal(n), rate))
        entries = read_manifest(cli_corpus / "manifest.tsv").entries
        write_manifest(tmp_path / "odd.tsv",
                       Manifest(entries + (ManifestEntry("odd_entry", str(odd), stated, n),)))
        cfg = _write_train_config(tmp_path / "bad.cfg", cli_corpus, tmp_path / "run",
                                  extra=f"{kind}_manifest = {tmp_path / 'odd.tsv'}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{kind} manifest entry 'odd_entry' ({odd}" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["train", "valid"])
    def test_empty_manifest_fails_before_out_dir(self, tmp_path, cli_corpus, capsys, kind):
        """A manifest with no entries exits 2 naming its file, before ``out_dir`` exists."""
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        cfg = _write_train_config(tmp_path / "bad.cfg", cli_corpus, tmp_path / "run",
                                  extra=f"{kind}_manifest = {empty}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert str(empty) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_evaluate_refuses_an_empty_manifest(self, cli_run, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert main(["evaluate", "--ckpt", str(cli_run / "best.ckpt"), "--manifest", str(empty),
                     "--ratio", "2", "--report", str(tmp_path / "r.csv")]) == 2
        assert str(empty) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


def test_filter_choices_are_the_filter_kinds():
    """The CLI and the training config accept exactly ``resample.FILTER_KINDS``."""
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command in ("simulate", "evaluate"):
        (flag,) = [a for a in subcommands[command]._actions if a.dest == "filter"]
        assert tuple(flag.choices) == FILTER_KINDS
    for kind in FILTER_KINDS:
        assert TrainConfig(filter_kind=kind).filter_kind == kind
    with pytest.raises(ConfigError, match="unknown filter kind"):
        TrainConfig(filter_kind="butterworth")


def _drop(prefix):
    def damage(arrays):
        key = min(k for k in arrays if k.startswith(prefix))
        del arrays[key]
        return key
    return damage


def _misshape(prefix):
    def damage(arrays):
        key = min(k for k in arrays if k.startswith(prefix))
        arrays[key] = np.zeros(arrays[key].size + 1)
        return key
    return damage


def _poison(prefix):
    def damage(arrays):
        key = min(k for k in arrays if k.startswith(prefix))
        arrays[key] = arrays[key].copy()
        arrays[key].flat[0] = np.nan
        return key
    return damage


CHECKPOINT_DAMAGE = {
    "missing parameter": _drop("param/"),
    "missing Adam moment": _drop("adam/m/"),
    "mis-shaped EMA shadow": _misshape("ema/"),
    "non-finite parameter": _poison("param/"),
}


def _damaged_checkpoint(cli_run, tmp_path, damage):
    """A copy of the run's last checkpoint with one array damaged; returns (path, key)."""
    meta, arrays = load_state(cli_run / "last.ckpt")
    key = CHECKPOINT_DAMAGE[damage](arrays)
    path = tmp_path / "damaged.ckpt"
    save_state(path, meta, arrays)
    return path, key


class TestIncompleteCheckpoint:
    """A missing, mis-shaped or non-finite array is a data error (exit 2) that
    names it and the checkpoint."""

    @pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
    def test_resume_refuses_before_training(self, cli_run, tmp_path, capsys, damage):
        ckpt, key = _damaged_checkpoint(cli_run, tmp_path, damage)
        lines = (cli_run.parent / "train.cfg").read_text().splitlines()
        cfg = tmp_path / "train.cfg"
        cfg.write_text("\n".join(f"out_dir = {tmp_path / 'run'}" if line.startswith("out_dir")
                                 else line for line in lines))
        code = main(["train", "--config", str(cfg), "--resume", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(key) in err and str(ckpt) in err
        assert not (tmp_path / "run" / "last.ckpt").exists()

    @pytest.mark.parametrize("damage, expected", [("missing parameter", 2),
                                                  ("mis-shaped EMA shadow", 2),
                                                  ("non-finite parameter", 2),
                                                  ("missing Adam moment", 0)])
    def test_enhance_needs_parameters_and_shadows_only(self, cli_run, cli_corpus, tmp_path,
                                                       capsys, damage, expected):
        ckpt, key = _damaged_checkpoint(cli_run, tmp_path, damage)
        sim = tmp_path / "sim"
        assert main(["simulate", "--in", str(cli_corpus / "manifest.tsv"),
                     "--ratio", "2", "--out", str(sim)]) == 0
        out = tmp_path / "sr.wav"
        code = main(["enhance", "--ckpt", str(ckpt), "--in", str(sim / "utt0000_lr.wav"),
                     "--seed", "4", "--out", str(out)])
        assert code == expected
        assert out.exists() == (expected == 0)
        if expected:
            err = capsys.readouterr().err
            assert repr(key) in err and str(ckpt) in err

    def test_evaluate_refuses_a_non_finite_parameter(self, cli_run, cli_corpus, tmp_path,
                                                     capsys):
        ckpt, key = _damaged_checkpoint(cli_run, tmp_path, "non-finite parameter")
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--ckpt", str(ckpt),
                     "--manifest", str(cli_corpus / "manifest.tsv"), "--ratio", "2",
                     "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: checkpoint array {key!r} has non-finite values" in err
        assert not report.exists()


def _enhance_args(ckpt, cli_corpus, tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--in", str(cli_corpus / "manifest.tsv"),
                 "--ratio", "2", "--out", str(sim)]) == 0
    return ["enhance", "--ckpt", str(ckpt), "--in", str(sim / "utt0000_lr.wav"),
            "--out", str(tmp_path / "sr.wav")]


def _without_meta_key(cli_run, tmp_path, key):
    meta, arrays = load_state(cli_run / "last.ckpt")
    del meta[key]
    path = tmp_path / "no_meta_key.ckpt"
    save_state(path, meta, arrays)
    return path


_DELETE = object()


class TestMalformedCheckpoint:
    """A checkpoint whose header or meta lacks a field is a data error (exit 2), not a traceback."""

    @pytest.mark.parametrize("key", META_KEYS)
    def test_enhance_names_the_missing_meta_key(self, cli_run, cli_corpus, tmp_path, capsys,
                                                key):
        args = _enhance_args(_without_meta_key(cli_run, tmp_path, key), cli_corpus, tmp_path)
        assert main(args) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "sr.wav").exists()

    def test_evaluate_and_resume_name_the_missing_meta_key(self, cli_run, cli_corpus, tmp_path,
                                                          capsys):
        ckpt = _without_meta_key(cli_run, tmp_path, "schedule")
        assert main(["evaluate", "--ckpt", str(ckpt),
                     "--manifest", str(cli_corpus / "manifest.tsv"), "--ratio", "2",
                     "--report", str(tmp_path / "report.csv")]) == 2
        assert "'schedule'" in capsys.readouterr().err
        ckpt = _without_meta_key(cli_run, tmp_path, "rng_state")
        cfg = _write_train_config(tmp_path / "train.cfg", cli_corpus, tmp_path / "run")
        assert main(["train", "--config", str(cfg), "--resume", str(ckpt)]) == 2
        assert "'rng_state'" in capsys.readouterr().err
        assert not (tmp_path / "run" / "last.ckpt").exists()

    def test_header_without_arrays(self, cli_corpus, tmp_path, capsys):
        header = json.dumps({"format_version": FORMAT_VERSION, "meta": {}}).encode()
        ckpt = tmp_path / "no_arrays.ckpt"
        ckpt.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        assert main(_enhance_args(ckpt, cli_corpus, tmp_path)) == 2
        assert "'arrays'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("offset", _DELETE), ("shape", "4"),
                                              ("offset", -4)],
                             ids=["no offset", "string shape", "negative offset"])
    def test_malformed_array_entry_names_it(self, cli_run, cli_corpus, tmp_path, capsys,
                                            field, value):
        raw = (cli_run / "last.ckpt").read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        entry = header["arrays"][1]
        if value is _DELETE:
            del entry[field]
        else:
            entry[field] = value
        text = json.dumps(header).encode()
        ckpt = tmp_path / "bad_entry.ckpt"
        ckpt.write_bytes(MAGIC + struct.pack("<I", len(text)) + text + raw[12 + hlen:])
        assert main(_enhance_args(ckpt, cli_corpus, tmp_path)) == 2
        assert repr(entry["name"]) in capsys.readouterr().err
        assert not (tmp_path / "sr.wav").exists()


# (dotted meta key, the value it is set to or _DELETE, the field the error names)
META_DAMAGE = [
    ("schedule", {}, "schedule.inference_steps"),
    ("schedule.sigma_min", "x", "schedule.sigma_min"),
    ("train_config.seed", _DELETE, "train_config.seed"),
    ("scheduler.momentum", 0.9, "scheduler.momentum"),
    ("arch.arcn.base_channels", _DELETE, "arch.arcn.base_channels"),
    ("arch.arcn.network_bins", 256, "arch.arcn.network_bins"),
    ("epoch", "3", "epoch"),
    ("rng_state.state", _DELETE, "rng_state"),
    # keys that checkpoints written before the hops and Adam's step were derived carry
    ("adam_step", 4, "adam_step"),
    ("arch.dparn.frame_hop", 64, "arch.dparn.frame_hop"),
    # keys that checkpoints written before these settings became constants carry
    ("schedule.gamma", 1.5, "schedule.gamma"),
    ("train_config.clip_norm", 1.0, "train_config.clip_norm"),
    ("scheduler.patience", 3, "scheduler.patience"),
    ("arch.arcn.bottleneck_blocks", 1, "arch.arcn.bottleneck_blocks"),
    ("arch.dparn.num_blocks", 2, "arch.dparn.num_blocks"),
    # the key that checkpoints written before it counted a diagnostic's batches lack
    ("batches_done", _DELETE, "batches_done"),
]


@pytest.mark.parametrize("command", ["enhance", "evaluate", "resume"])
@pytest.mark.parametrize("key, value, field", META_DAMAGE, ids=[
    f"{key}={'del' if value is _DELETE else repr(value)}" for key, value, _ in META_DAMAGE])
def test_damaged_meta_field_is_a_data_error_naming_it(cli_run, cli_corpus, tmp_path, capsys,
                                                      command, key, value, field):
    """Every meta field is rebuilt and checked on load: a missing, extra or
    mistyped one exits 2 before a WAV, a report or a checkpoint is written."""
    meta, arrays = load_state(cli_run / "last.ckpt")
    *parents, name = key.split(".")
    table = meta
    for part in parents:
        table = table[part]
    if value is _DELETE:
        del table[name]
    else:
        table[name] = value
    ckpt = tmp_path / "damaged.ckpt"
    save_state(ckpt, meta, arrays)
    if command == "enhance":
        args = _enhance_args(ckpt, cli_corpus, tmp_path)
    elif command == "evaluate":
        args = ["evaluate", "--ckpt", str(ckpt), "--manifest", str(cli_corpus / "manifest.tsv"),
                "--ratio", "2", "--report", str(tmp_path / "report.csv")]
    else:
        cfg = _write_train_config(tmp_path / "train.cfg", cli_corpus, tmp_path / "run")
        args = ["train", "--config", str(cfg), "--resume", str(ckpt)]
    assert main(args) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "sr.wav").exists()
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "run" / "last.ckpt").exists()


class TestRunMetadata:
    def test_config_echoed(self, cli_run):
        meta = json.loads((cli_run / "run_meta.json").read_text())
        assert meta["train_config"]["seed"] == 2
        assert meta["arch"]["arcn"]["base_channels"] == 4
        assert meta["schedule"] == {"inference_steps": 10}

    def test_thread_counts_recorded(self, cli_run):
        meta = json.loads((cli_run / "run_meta.json").read_text())
        assert meta["threads"] == thread_counts()
        assert meta["threads"]["workers"] >= 1 and meta["threads"]["blas"] in (1, None)

    def test_malloc_thresholds_recorded(self, cli_run):
        """The thresholds the engine applied, or null where it applied none."""
        meta = json.loads((cli_run / "run_meta.json").read_text())
        assert meta["malloc"] == malloc_settings()
        if meta["malloc"] is not None:
            assert set(meta["malloc"]) <= {"mmap_threshold", "trim_threshold"}
            assert meta["malloc"].get("mmap_threshold", 32 << 20) == 32 << 20

    def test_train_processes_recorded(self, cli_run):
        """The micro config's 0.25 s crops with B=2 run on up to two processes."""
        meta = json.loads((cli_run / "run_meta.json").read_text())
        assert meta["train_processes"] == min(thread_counts()["workers"], 2)

    def test_checkpoint_carries_arch(self, cli_run):
        meta, _ = load_state(cli_run / "best.ckpt")
        assert meta["arch"]["dparn"]["feature_dim"] == 8

    def test_checkpoint_meta_holds_exactly_the_keys_a_reader_needs(self, cli_run):
        for name in ("best.ckpt", "last.ckpt"):
            meta, _ = load_state(cli_run / name)
            assert sorted(meta) == sorted(META_KEYS)


def test_importing_the_cli_loads_neither_scipy_signal_nor_interpolate():
    """``resample`` imports them where it filters or interpolates, and ``data``
    imports ``scipy.io`` where it reads or writes a WAV file, so the commands
    that do neither skip their import (over a second)."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    code = ("import sys, speechsr.cli; "
            "print([m for m in ('scipy.signal', 'scipy.interpolate', 'scipy.io')"
            " if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
