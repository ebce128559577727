"""Tests for WAV I/O, manifests, preprocessing, corpus synthesis, batching."""

import struct

import numpy as np
import pytest

from helpers import band_energy_fraction
from speechsr import data
from speechsr.data import (
    Batcher,
    Manifest,
    ManifestEntry,
    preprocess,
    read_manifest,
    read_wav,
    synth_corpus,
    write_manifest,
    write_wav,
)
from speechsr.dsp import Waveform
from speechsr.errors import DegenerateInputError, WavFormatError
from speechsr.resample import UpsamplingRatio


class TestWav:
    def test_float32_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 5000).astype(np.float32).astype(np.float64)
        path = tmp_path / "f32.wav"
        write_wav(path, Waveform(x, 16000), bit_depth=32)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, x)

    def test_pcm16_full_scale_square(self, tmp_path):
        x = np.tile([1.0, -1.0], 100)
        path = tmp_path / "sq.wav"
        write_wav(path, Waveform(x, 8000), bit_depth=16)
        back = read_wav(path)
        assert set(np.unique(back.samples)) == {32767.0 / 32768.0, -1.0}

    def test_pcm16_grid_roundtrip_exact(self, tmp_path):
        x = np.random.default_rng(1).integers(-32768, 32768, 400) / 32768.0
        path = tmp_path / "grid.wav"
        write_wav(path, Waveform(x, 16000), bit_depth=16)
        np.testing.assert_array_equal(read_wav(path).samples, x)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, Waveform(np.zeros(100), 8000))
        raw = path.read_bytes()
        path.write_bytes(raw[:40])
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
        payload = b"\x00" * 64
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "st.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_unsupported_codec_rejected(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)  # mu-law
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 4) + b"\x00" * 4
        path = tmp_path / "mu.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError):
            read_wav(path)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(wav, Waveform(np.zeros(100), 16000))
        m = Manifest((ManifestEntry("a", str(wav), 16000, 100),))
        path = tmp_path / "m.tsv"
        write_manifest(path, m)
        back = read_manifest(path)
        assert back.entries == m.entries

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Manifest((
                ManifestEntry("a", "x.wav", 16000, 10),
                ManifestEntry("a", "y.wav", 16000, 10),
            ))

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\t/nonexistent/a.wav\t16000\t100\n")
        with pytest.raises(FileNotFoundError):
            read_manifest(path)


class TestPreprocess:
    def test_same_rate_normalizes_only(self):
        rng = np.random.default_rng(2)
        w = Waveform(rng.standard_normal(8000) * 3 + 1, 16000)
        out = preprocess(w, 16000)
        assert len(out) == 8000
        assert abs(out.samples.mean()) < 1e-9
        assert abs(out.samples.std() - 1.0) < 1e-9

    def test_integer_downsample(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.standard_normal(48000), 48000)
        out = preprocess(w, 16000)
        assert out.sample_rate == 16000
        assert len(out) == 16000
        assert abs(out.samples.std() - 1.0) < 1e-9

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInputError):
            preprocess(Waveform(np.ones(1000), 16000), 16000)

    def test_non_integer_factor_rejected(self):
        with pytest.raises(ValueError):
            preprocess(Waveform(np.zeros(100), 44100), 16000)

    def test_empty_input_says_so(self):
        with pytest.raises(ValueError, match="empty waveform"):
            preprocess(Waveform(np.zeros(0), 32000), 16000)


class TestSynthCorpus:
    def test_deterministic_files(self, tmp_path):
        m1 = synth_corpus(tmp_path / "a", 2, 0.5, seed=9)
        m2 = synth_corpus(tmp_path / "b", 2, 0.5, seed=9)
        for e1, e2 in zip(m1.entries, m2.entries):
            with open(e1.path, "rb") as f1, open(e2.path, "rb") as f2:
                assert f1.read() == f2.read()

    def test_high_band_energy_guarantee(self, tmp_path):
        m = synth_corpus(tmp_path, 3, 1.0, seed=4)
        for e in m.entries:
            frac = band_energy_fraction(read_wav(e.path), 4000.0)
            assert frac >= 0.10

    def test_manifest_shape(self, tmp_path):
        m = synth_corpus(tmp_path, 10, 2.0, seed=1)
        assert len(m) == 10
        for e in m.entries:
            assert e.n_samples == 32000
            assert read_wav(e.path).samples.size == 32000


class TestBatcher:
    def _manifest(self, tmp_path, durations, seed=0):
        entries = []
        for i, dur in enumerate(durations):
            rng = np.random.default_rng([seed, i])
            n = int(dur * 16000)
            x = rng.standard_normal(n)
            path = tmp_path / f"u{i}.wav"
            write_wav(path, Waveform(0.1 * x, 16000))
            entries.append(ManifestEntry(f"u{i}", str(path), 16000, n))
        return Manifest(tuple(entries))

    def test_full_length_masks_all_ones(self, tmp_path):
        m = self._manifest(tmp_path, [1.0, 1.0])
        batcher = Batcher(m, batch_size=2, crop_s=0.5, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        (batch,) = list(batcher.epoch(np.random.default_rng(0)))
        assert np.all(batch.mask == 1.0)
        assert batch.hr.shape == (2, 8000)

    def test_short_utterance_prefix_mask(self, tmp_path):
        m = self._manifest(tmp_path, [0.5])
        batcher = Batcher(m, batch_size=1, crop_s=1.0, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        (batch,) = list(batcher.epoch(np.random.default_rng(0)))
        assert batch.mask[0].sum() == 8000
        np.testing.assert_array_equal(batch.mask[0][:8000], 1.0)
        np.testing.assert_array_equal(batch.mask[0][8000:], 0.0)

    def test_padding_region_is_zero_in_hr_and_inp(self, tmp_path):
        m = self._manifest(tmp_path, [0.5])
        batcher = Batcher(m, batch_size=1, crop_s=1.0, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        (batch,) = list(batcher.epoch(np.random.default_rng(0)))
        pad = batch.mask[0] == 0.0
        assert np.all(batch.hr[0][pad] == 0.0)
        assert np.all(batch.inp[0][pad] == 0.0)

    def test_deterministic_crops(self, tmp_path):
        m = self._manifest(tmp_path, [2.0, 2.0, 2.0])
        batcher = Batcher(m, batch_size=2, crop_s=0.5, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        run1 = [b.hr.copy() for b in batcher.epoch(np.random.default_rng(5))]
        run2 = [b.hr.copy() for b in batcher.epoch(np.random.default_rng(5))]
        for a, b in zip(run1, run2):
            np.testing.assert_array_equal(a, b)

    def test_epoch_covers_each_utterance_once(self, tmp_path):
        m = self._manifest(tmp_path, [1.0] * 5)
        batcher = Batcher(m, batch_size=2, crop_s=0.5, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        ids = [i for b in batcher.epoch(np.random.default_rng(1)) for i in b.ids]
        assert sorted(ids) == [f"u{i}" for i in range(5)]

    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError):
            Batcher(Manifest(()), 2, 1.0, UpsamplingRatio(2), "chebyshev")
