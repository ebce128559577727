"""Tests for WAV I/O, manifests, preprocessing, corpus synthesis, batching."""

import re
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from helpers import band_energy_fraction
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


def _riff(*chunks):
    """A RIFF/WAVE file of ``(id, body)`` chunks, each odd-sized body padded."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data + b"\x00" * (len(data) & 1)
                              for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(audio_format, channels, bits, rate=8000):
    align = channels * bits // 8
    return b"fmt ", struct.pack("<HHIIHH", audio_format, channels, rate, rate * align, align, bits)


class TestWav:
    def test_float32_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 5000).astype(np.float32).astype(np.float64)
        path = tmp_path / "f32.wav"
        write_wav(path, Waveform(x, 16000))
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, x)

    def test_pcm16_full_scale_square(self, tmp_path):
        path = tmp_path / "sq.wav"
        wavfile.write(path, 8000, np.tile(np.array([32767, -32768], np.int16), 100))
        back = read_wav(path)
        assert set(np.unique(back.samples)) == {32767.0 / 32768.0, -1.0}

    def test_pcm16_grid_roundtrip_exact(self, tmp_path):
        q = np.random.default_rng(1).integers(-32768, 32768, 400).astype(np.int16)
        path = tmp_path / "grid.wav"
        wavfile.write(path, 16000, q)
        np.testing.assert_array_equal(read_wav(path).samples, q / 32768.0)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(path, Waveform(np.zeros(100), 8000))
        raw = path.read_bytes()
        for keep in (40, len(raw) - 201):  # in the header, mid-samples
            path.write_bytes(raw[:keep])
            with pytest.raises(WavFormatError):
                read_wav(path)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(_riff(_fmt(1, 2, 16), (b"data", b"\x00" * 64)))
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_unsupported_codec_rejected(self, tmp_path):
        path = tmp_path / "codec.wav"
        for audio_format, bits in [(7, 8), (1, 8), (1, 32), (3, 64)]:  # mu-law, PCM-8/32, float-64
            path.write_bytes(_riff(_fmt(audio_format, 1, bits), (b"data", b"\x00" * 8)))
            with pytest.raises(WavFormatError):
                read_wav(path)

    def test_zero_sample_rate_names_the_file(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(_riff(_fmt(1, 1, 16, rate=0), (b"data", b"\x00" * 8)))
        with pytest.raises(WavFormatError, match="rate0.wav: sample rate must be positive"):
            read_wav(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0x7FA00000],
                             ids=["inf", "-inf", "quiet-nan", "signalling-nan"])
    def test_non_finite_float_samples_name_the_file(self, tmp_path, bad):
        """Refused before the cast to float64, which would warn on a signalling NaN."""
        samples = np.zeros(8, dtype="<f4")
        if isinstance(bad, int):
            samples.view("<u4")[3] = bad
        else:
            samples[3] = bad
        path = tmp_path / "nan.wav"
        path.write_bytes(_riff(_fmt(3, 1, 32), (b"data", samples.tobytes())))
        with pytest.raises(WavFormatError, match="nan.wav: non-finite samples"):
            read_wav(path)

    @pytest.mark.parametrize("chunk", [(b"LIST", b"INFOISFT\x04\x00\x00\x00abc\x00"),
                                       (b"cue ", b"\x00" * 4), (b"zzzz", b"\x01\x02\x03")],
                             ids=["LIST", "cue", "odd-sized"])
    def test_extra_chunks_are_skipped(self, tmp_path, chunk):
        q = np.array([0, 1, -2, 32767, -32768], dtype="<i2")
        path = tmp_path / "extra.wav"
        path.write_bytes(_riff(_fmt(1, 1, 16), chunk, (b"data", q.tobytes())))
        back = read_wav(path)
        assert back.sample_rate == 8000
        np.testing.assert_array_equal(back.samples, q / 32768.0)


class TestManifest:
    def test_empty_manifest_rejected(self):
        with pytest.raises(ValueError, match="empty manifest"):
            Manifest(())

    def test_roundtrip(self, tmp_path):
        wav = tmp_path / "a.wav"
        write_wav(wav, Waveform(np.zeros(100), 16000))
        m = Manifest((ManifestEntry("a", str(wav), 16000, 100),))
        path = tmp_path / "m.tsv"
        write_manifest(path, m)
        assert path.read_text() == "a\ta.wav\t16000\t100\n"
        back = read_manifest(path)
        assert back.entries == m.entries

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Manifest((
                ManifestEntry("a", "x.wav", 16000, 10),
                ManifestEntry("a", "y.wav", 16000, 10),
            ))

    @pytest.mark.parametrize("text, message", [
        ("", "empty manifest"), ("a\ta.wav\t16000\t100\na\ta.wav\t16000\t100\n", "duplicate"),
    ])
    def test_read_refusals_name_the_file(self, tmp_path, text, message):
        write_wav(tmp_path / "a.wav", Waveform(np.zeros(100), 16000))
        path = tmp_path / "m.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            read_manifest(path)

    def test_missing_file_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\t/nonexistent/a.wav\t16000\t100\n")
        with pytest.raises(FileNotFoundError):
            read_manifest(path)

    @pytest.mark.parametrize("fields, named", [
        ("abc\t100", "sample_rate"), ("16000\t1.5", "n_samples"),
        ("-5\t100", "sample_rate"), ("0\t100", "sample_rate"), ("16000\t-1", "n_samples"),
    ], ids=["non-integer rate", "non-integer count", "negative rate", "zero rate",
            "negative count"])
    def test_bad_number_names_line_and_field(self, tmp_path, fields, named):
        write_wav(tmp_path / "a.wav", Waveform(np.zeros(100), 16000))
        path = tmp_path / "m.tsv"
        path.write_text(f"a\ta.wav\t16000\t100\nb\ta.wav\t{fields}\n")
        with pytest.raises(ValueError, match=f"m.tsv:2: {named} "):
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
        # 24 / 16 floors to a factor of 1, which downsample would refuse as a cutoff.
        with pytest.raises(ValueError, match="non-integer factor"):
            preprocess(Waveform(np.zeros(100), 24000), 16000)

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

    def test_full_length_utterances_give_full_crops(self, tmp_path):
        m = self._manifest(tmp_path, [1.0, 1.0])
        batcher = Batcher(m, batch_size=2, crop_s=0.5, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        (batch,) = list(batcher.epoch(np.random.default_rng(0)))
        assert [x.shape for x in batch.hr] == [(8000,), (8000,)]
        assert [x.shape for x in batch.inp] == [(8000,), (8000,)]

    def test_short_utterance_comes_back_whole(self, tmp_path):
        m = self._manifest(tmp_path, [0.5])
        batcher = Batcher(m, batch_size=1, crop_s=1.0, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        (batch,) = list(batcher.epoch(np.random.default_rng(0)))
        (hr,), (inp,) = batch.hr, batch.inp
        np.testing.assert_array_equal(hr, preprocess(read_wav(m.entries[0].path), 16000).samples)
        assert hr.shape == inp.shape == (8000,)

    def test_deterministic_crops(self, tmp_path):
        m = self._manifest(tmp_path, [2.0, 2.0, 2.0])
        batcher = Batcher(m, batch_size=2, crop_s=0.5, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        run1 = list(batcher.epoch(np.random.default_rng(5)))
        run2 = list(batcher.epoch(np.random.default_rng(5)))
        assert [b.ids for b in run1] == [b.ids for b in run2]
        for b1, b2 in zip(run1, run2):
            for a, b in zip(b1.hr + b1.inp, b2.hr + b2.inp):
                np.testing.assert_array_equal(a, b)

    def test_epoch_covers_each_utterance_once(self, tmp_path):
        m = self._manifest(tmp_path, [1.0] * 5)
        batcher = Batcher(m, batch_size=2, crop_s=0.5, ratio=UpsamplingRatio(2),
                          kind="chebyshev")
        ids = [i for b in batcher.epoch(np.random.default_rng(1)) for i in b.ids]
        assert sorted(ids) == [f"u{i}" for i in range(5)]
