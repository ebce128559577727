"""Tests for the DPARN-lite and ARCN architectures and the time embedding."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import fd_gradient_check
from speechsr.engine import Parameter, Tensor, no_grad, ops
from speechsr.networks import (
    Arcn,
    ArcnConfig,
    Dparn,
    FrameAttention,
    Linear,
    Module,
    ResidualBlock,
    TimeEmbedding,
    TwoStageModel,
    tiny_arcn_config,
    tiny_dparn_config,
)
from speechsr.resample import UpsamplingRatio


def micro_arcn_config():
    """Smallest legal ARCN for gradient checks: 32-sample STFT, 16 bins."""
    return tiny_arcn_config(
        base_channels=4,
        encoder_blocks=2,
        norm_groups=2,
        frame_ms=2.0,
        temb_dim=8,
        temb_out=12,
    )


def micro_dparn_config():
    return tiny_dparn_config(frame_size=32, feature_dim=6, chunk_len=4, attention_embed=3)


class TestTimeEmbedding:
    def test_step_zero_fourier_features(self):
        emb = TimeEmbedding("t", 16, 8, np.random.default_rng(0))
        feats = emb.fourier(0.0)
        np.testing.assert_array_equal(feats[:8], 0.0)
        np.testing.assert_array_equal(feats[8:], 1.0)

    def test_distinct_steps_distinct_embeddings(self):
        emb = TimeEmbedding("t", 64, 32, np.random.default_rng(1))
        vecs = [emb(float(s)).data for s in (0, 1, 17, 500, 999)]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert np.linalg.norm(vecs[i] - vecs[j]) > 0

    def test_deterministic(self):
        emb = TimeEmbedding("t", 16, 8, np.random.default_rng(2))
        np.testing.assert_array_equal(emb(123.0).data, emb(123.0).data)

    def test_out_of_range_rejected(self):
        emb = TimeEmbedding("t", 16, 8, np.random.default_rng(3))
        for step in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                emb(step)

    def test_training_step_range_is_embeddable(self):
        emb = TimeEmbedding("t", 16, 8, np.random.default_rng(4))
        emb(1000.0)  # k = T maps to step T


class TestFrameAttention:
    def test_single_frame_reduces_to_value_path(self):
        rng = np.random.default_rng(5)
        attn = FrameAttention("a", channels=3, embed=2, rng=rng)
        x = Tensor(rng.standard_normal((3, 1, 6)))
        out = attn(x)
        v = ops.pointwise_channels(x, attn.v.w, attn.v.b)
        np.testing.assert_allclose(out.data, x.data + v.data, atol=1e-12)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(6)
        c, t, f, e = 3, 5, 4, 2
        attn = FrameAttention("a", channels=c, embed=e, rng=rng)
        x = rng.standard_normal((c, t, f))
        out = attn(Tensor(x)).data

        def pw(w, b, inp):
            return np.einsum("oc,ctf->otf", w, inp) + b[:, None, None]

        q = pw(attn.q.w.data, attn.q.b.data, x).transpose(1, 0, 2).reshape(t, e * f)
        k = pw(attn.k.w.data, attn.k.b.data, x).transpose(1, 0, 2).reshape(t, e * f)
        v = pw(attn.v.w.data, attn.v.b.data, x).transpose(1, 0, 2).reshape(t, c * f)
        scores = np.zeros((t, t))
        for i in range(t):
            for j in range(t):
                scores[i, j] = np.dot(q[i], k[j])
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        ref = x + (w @ v).reshape(t, c, f).transpose(1, 0, 2)
        assert np.abs(out - ref).max() < 1e-10


def _apply_stages(block, x, temb, lossmap):
    """``block``'s stages applied to ``x`` in order, as ``Arcn.forward`` runs them."""
    for stage in block.stages(temb, lossmap):
        x = stage(x)
    return x


class TestResidualBlock:
    def test_zero_init_reduces_to_resampled_skip(self):
        cfg = micro_arcn_config()
        rng = np.random.default_rng(7)
        block = ResidualBlock("b", cfg.base_channels, cfg.base_channels, cfg,
                              "encoder", rng)
        for p in block.params():
            p.data[...] = 0.0
        # group-norm scale must stay 1 for the skip path comparison? gamma=0
        # zeroes the residual branch entirely, which is the point here.
        x = Tensor(np.random.default_rng(8).standard_normal((cfg.base_channels, 3, 16)))
        temb = Tensor(np.zeros(cfg.temb_out))
        out = _apply_stages(block, x, temb, Tensor(np.ones(16)))
        ref = ops.fir_resample_freq(x, "down")
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)

    def test_encoder_halves_frequency_only(self):
        cfg = micro_arcn_config()
        rng = np.random.default_rng(9)
        block = ResidualBlock("b", cfg.base_channels, cfg.base_channels, cfg,
                              "encoder", rng)
        x = Tensor(rng.standard_normal((cfg.base_channels, 5, 16)))
        out = _apply_stages(block, x, Tensor(np.zeros(cfg.temb_out)), Tensor(np.ones(16)))
        assert out.shape == (cfg.base_channels, 5, 8)

    def test_gradients_match_fd(self):
        cfg = micro_arcn_config()
        rng = np.random.default_rng(10)
        block = ResidualBlock("b", 4, 4, cfg, "bottleneck", rng)
        x = Tensor(rng.standard_normal((4, 3, 8)))
        temb = Tensor(0.5 * rng.standard_normal(cfg.temb_out))
        lm = Tensor((rng.uniform(size=8) > 0.5).astype(float))

        def build():
            out = _apply_stages(block, x, temb, lm)
            return ops.sum_(ops.abs_(out))

        fd_gradient_check(build, block.params(), rng, n_probes=40)


class TestArcn:
    def test_zero_output_head_returns_input_exactly(self):
        cfg = tiny_arcn_config()
        rng = np.random.default_rng(11)
        net = Arcn(cfg, rng)
        net.out_conv.w.data[...] = 0.0
        net.out_conv.b.data[...] = 0.0
        n = 4000
        x_t = rng.standard_normal(n)
        s_pred = rng.standard_normal(n)
        s_inp = rng.standard_normal(n)
        out = net.forward(x_t, s_pred, s_inp, UpsamplingRatio(2), 500.0, 16000)
        np.testing.assert_array_equal(out.data, s_inp)

    def test_variable_length_contract(self):
        cfg = tiny_arcn_config()
        rng = np.random.default_rng(12)
        net = Arcn(cfg, rng)
        for n in (16000, 24000):
            x = rng.standard_normal(n)
            out = net.forward(x, x, x, UpsamplingRatio(2), 10.0, 16000)
            assert out.shape == (n,)

    def test_lossmap_conditioning_is_live(self):
        cfg = micro_arcn_config()
        rng = np.random.default_rng(13)
        net = Arcn(cfg, rng)
        n = 600
        x_t = rng.standard_normal(n)
        s_pred = rng.standard_normal(n)
        s_inp = rng.standard_normal(n)
        out0 = net.forward(x_t, s_pred, s_inp, UpsamplingRatio(1), 100.0, 16000)
        out1 = net.forward(x_t, s_pred, s_inp, UpsamplingRatio(2), 100.0, 16000)
        assert np.linalg.norm(out0.data - out1.data) > 0

    @pytest.mark.parametrize("r, first_one", [(1, None), (2, 33), (4, 17)])
    def test_lossmap_marks_bins_above_low_rate_nyquist(self, r, first_one):
        """Bin f of the 128-sample frame lies above rate / (2r) iff f * r > 64."""
        net = Arcn(tiny_arcn_config(), np.random.default_rng(21))
        levels = net.lossmap_pyramid(UpsamplingRatio(r), 64)
        assert len(levels) == net.cfg.encoder_blocks + 1
        row = levels[0]
        assert row.shape == (64,)
        if first_one is None:
            assert np.all(row == 0)
        else:
            assert np.all(row[:first_one] == 0)
            assert np.all(row[first_one:] == 1)
        for fine, coarse in zip(levels, levels[1:]):
            np.testing.assert_array_equal(coarse, np.maximum(fine[0::2], fine[1::2]))

    def test_mismatched_lengths_rejected(self):
        cfg = micro_arcn_config()
        net = Arcn(cfg, np.random.default_rng(14))
        with pytest.raises(ValueError):
            net.forward(np.zeros(600), np.zeros(600), np.zeros(601),
                        UpsamplingRatio(2), 0.0, 16000)

    def test_no_grad_forward_on_4_s_stays_within_its_memory_budget(self):
        """Tiny ARCN on 4 s (2,003 frames): the traced peak stays below 65 MB.

        It measures 33 MB since both conv2d layouts work one block at a time,
        GroupNorm keeps one chunk of scratch and each map, a block's input
        included, dies at its last reader; it was 45 MB with whole per-tap
        responses and block inputs kept, and 96 MB with whole patch matrices.
        """
        rng = np.random.default_rng(16)
        net = Arcn(tiny_arcn_config(), rng)
        x_t, s_pred, s_inp = (rng.standard_normal(64000) for _ in range(3))
        tracemalloc.start()
        try:
            with no_grad():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = net.forward(x_t, s_pred, s_inp, UpsamplingRatio(2), 500.0, 16000)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (64000,)
        assert peak - before < 65e6

    def test_block_input_is_dead_while_the_first_block_attends(self):
        """Without a graph, in_conv's output dies once encoder[0]'s first layer has read it."""
        rng = np.random.default_rng(17)
        net = Arcn(micro_arcn_config(), rng)
        in_conv, attention = net.in_conv, net.encoder[0].attention
        refs, alive = [], []

        def probe_in_conv(x):
            out = in_conv(x)
            refs.append(weakref.ref(out.data))
            return out

        def probe_attention(h):
            gc.collect()
            alive.append(refs[0]() is not None)
            return attention(h)

        net.in_conv, net.encoder[0].attention = probe_in_conv, probe_attention
        x_t, s_pred, s_inp = (rng.standard_normal(400) for _ in range(3))
        with no_grad():
            net.forward(x_t, s_pred, s_inp, UpsamplingRatio(2), 10.0, 16000)
        assert alive == [False]

    def test_gradients_match_fd(self):
        cfg = micro_arcn_config()
        rng = np.random.default_rng(15)
        net = Arcn(cfg, rng)
        n = 200
        x_t = rng.standard_normal(n)
        s_pred = rng.standard_normal(n)
        s_inp = rng.standard_normal(n)
        target = rng.standard_normal(n)

        def build():
            out = net.forward(x_t, s_pred, s_inp, UpsamplingRatio(2), 371.0, 16000)
            return ops.mean_(ops.abs_(ops.sub(out, Tensor(target))))

        fd_gradient_check(build, net.params(), rng, n_probes=48, atol=1e-8)


class TestDparn:
    def test_zero_output_projection_is_identity(self):
        cfg = tiny_dparn_config()
        rng = np.random.default_rng(16)
        net = Dparn(cfg, rng)
        net.out_proj.w.data[...] = 0.0
        net.out_proj.b.data[...] = 0.0
        x = rng.standard_normal(4000)
        out = net.forward(x)
        np.testing.assert_array_equal(out.data, x)

    def test_output_length_matches_input(self):
        cfg = tiny_dparn_config()
        net = Dparn(cfg, np.random.default_rng(17))
        for n in (4000, 6300, 16000):
            out = net.forward(np.random.default_rng(n).standard_normal(n))
            assert out.shape == (n,)

    def test_too_short_rejected(self):
        cfg = tiny_dparn_config()
        net = Dparn(cfg, np.random.default_rng(18))
        with pytest.raises(ValueError):
            net.forward(np.zeros(100))

    def test_gradients_match_fd(self):
        cfg = micro_dparn_config()
        rng = np.random.default_rng(19)
        net = Dparn(cfg, rng)
        x = rng.standard_normal(150)
        target = rng.standard_normal(150)

        def build():
            out = net.forward(x)
            return ops.mean_(ops.abs_(ops.sub(out, Tensor(target))))

        fd_gradient_check(build, net.params(), rng, n_probes=48, atol=1e-8)


class TestModule:
    def test_params_walks_attributes_in_assignment_order(self):
        rng = np.random.default_rng(0)

        class Toy(Module):
            def __init__(self):
                self.cfg = ArcnConfig()
                self.scale = Parameter("toy.scale", np.ones(2))
                self.head = Linear("toy.head", 2, 3, rng)
                self.skip = None
                self.stack = [Linear(f"toy.stack{i}", 3, 3, rng) for i in range(2)]
                self.width = 3
                self.tail = Parameter("toy.tail", np.zeros(1))

        toy = Toy()
        first, second = toy.stack
        assert toy.params() == [toy.scale, toy.head.w, toy.head.b, first.w, first.b, second.w,
                                second.b, toy.tail]


class TestTwoStageModel:
    def test_every_parameter_receives_gradient(self):
        model = TwoStageModel(micro_arcn_config(), micro_dparn_config(), seed=3)
        rng = np.random.default_rng(20)
        n = 400
        s_inp = rng.standard_normal(n)
        hr = rng.standard_normal(n)
        s_pred = model.dparn.forward(Tensor(s_inp))
        out = model.arcn.forward(rng.standard_normal(n), s_pred, s_inp, UpsamplingRatio(2),
                                 137.5, 16000)
        loss = ops.mean_(ops.abs_(ops.sub(out, Tensor(hr))))
        loss.backward()
        assert loss.item() > 0
        dead = [p.name for p in model.params()
                if p.grad is None or not np.any(p.grad != 0.0)]
        assert dead == []

    def test_unique_parameter_names(self):
        model = TwoStageModel(micro_arcn_config(), micro_dparn_config(), seed=4)
        names = [p.name for p in model.params()]
        assert len(names) == len(set(names))


class TestConfigValidation:
    def test_indivisible_bins_rejected(self):
        net = Arcn(tiny_arcn_config(encoder_blocks=7), np.random.default_rng(0))
        with pytest.raises(ValueError, match="frame_ms 8.0 gives 64 bins.*encoder_blocks"):
            net.frame_geometry(16000)

    def test_hop_must_be_a_whole_quarter_frame(self):
        """9 samples at 16 kHz give 4 bins, which 2^2 divides, but a 2.25-sample
        hop, which the frame's ``FrameConfig`` refuses."""
        net = Arcn(tiny_arcn_config(encoder_blocks=2, frame_ms=0.5625), np.random.default_rng(0))
        with pytest.raises(ValueError, match="frame_ms 0.5625 gives 9 samples") as info:
            net.frame_geometry(16000)
        assert "hop_ms" not in str(info.value)

    def test_bad_chunk_geometry_rejected(self):
        """Frames and chunks overlap by half, so an odd length is refused by name."""
        with pytest.raises(ValueError, match="chunk_len must be even and at least 2, got 7"):
            tiny_dparn_config(chunk_len=7)
        with pytest.raises(ValueError, match="frame_size must be even and at least 2, got 255"):
            tiny_dparn_config(frame_size=255)
