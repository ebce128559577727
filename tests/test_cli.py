"""End-to-end tests of the command-line surface and its exit codes."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from speechsr.cli import main
from speechsr.data import read_wav
from speechsr.engine import load_state


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    assert main(["synth-corpus", "--out", str(out), "--n", "2", "--dur", "0.5",
                 "--seed", "13"]) == 0
    return out


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_corpus):
    out = tmp_path_factory.mktemp("cli_run")
    cfg = out / "train.cfg"
    cfg.write_text(f"""
train_manifest = {cli_corpus / 'manifest.tsv'}
valid_manifest = {cli_corpus / 'manifest.tsv'}
out_dir = {out / 'run'}
train.epochs = 1
train.batch_size = 2
train.crop_seconds = 0.25
train.ema_decay = 0.9
train.seed = 2
arcn.base_channels = 4
arcn.input_conv_kernel = 3
arcn.encoder_blocks = 2
arcn.decoder_blocks = 2
arcn.attention_embed = 2
arcn.norm_groups = 2
arcn.network_bins = 64
arcn.frame_ms = 8
arcn.hop_ms = 2
arcn.temb_dim = 16
arcn.temb_out = 24
dparn.frame_size = 128
dparn.frame_hop = 64
dparn.feature_dim = 8
dparn.chunk_len = 8
dparn.chunk_hop = 4
dparn.attention_embed = 4
""")
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
                         "--in", str(sim / "utt0000_lr.wav"),
                         "--ratio", "2", "--seed", "4",
                         "--out", str(out)]) == 0
        lr = read_wav(sim / "utt0000_lr.wav")
        sr = read_wav(out1)
        assert sr.sample_rate == 16000
        assert len(sr) == 2 * len(lr)
        assert out1.read_bytes() == out2.read_bytes()

    def test_rate_mismatch_names_needed_rate(self, cli_run, cli_corpus, tmp_path, capsys):
        """A 16 kHz input at ratio 2 against a 16 kHz model is a data error."""
        code = main(["enhance", "--ckpt", str(cli_run / "best.ckpt"),
                     "--in", str(cli_corpus / "utt0000.wav"),
                     "--ratio", "2", "--out", str(tmp_path / "sr.wav")])
        err = capsys.readouterr().err
        assert code == 2
        assert "16000 Hz" in err and "--ratio 2" in err and "8000 Hz" in err
        assert not (tmp_path / "sr.wav").exists()


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

    def test_bad_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2


class TestRunMetadata:
    def test_config_echoed(self, cli_run):
        meta = json.loads((cli_run / "run_meta.json").read_text())
        assert meta["train_config"]["seed"] == 2
        assert meta["arch"]["arcn"]["base_channels"] == 4
        assert meta["schedule"]["sigma_min"] == 0.05

    def test_checkpoint_carries_arch(self, cli_run):
        meta, _ = load_state(cli_run / "best.ckpt")
        assert meta["arch"]["dparn"]["feature_dim"] == 8
