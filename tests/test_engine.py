"""Tests for the autodiff engine: primitives, layers, optimizer machinery."""

import numpy as np
import pytest

from helpers import fd_gradient_check, stft_matrix_oracle
from speechsr import dsp
from speechsr.engine import checkpoint
from speechsr.engine import (
    Adam,
    Ema,
    Parameter,
    Tensor,
    clip_global_norm,
    load_state,
    no_grad,
    ops,
    save_state,
)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter("p", np.random.default_rng(0).standard_normal((3, 4)))
        ops.sum_(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((3, 4)))

    def test_quadratic_gives_2p(self):
        data = np.random.default_rng(1).standard_normal(5)
        p = Parameter("p", data)
        ops.sum_(ops.mul(p, p)).backward()
        np.testing.assert_allclose(p.grad, 2 * data, rtol=1e-15)

    def test_nonscalar_rejected(self):
        p = Parameter("p", np.ones(3))
        with pytest.raises(ValueError):
            ops.mul(p, 2.0).backward()

    def test_accumulation_equals_doubled_loss(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((4, 3))
        p1 = Parameter("p", data.copy())
        loss = ops.sum_(ops.silu(ops.matmul(p1, Tensor(rng.standard_normal((3, 2))))))
        loss.backward()
        loss.backward()
        twice = p1.grad.copy()

        p2 = Parameter("p", data.copy())
        rng2 = np.random.default_rng(2)
        rng2.standard_normal((4, 3))
        w = rng2.standard_normal((3, 2))
        ops.mul(ops.sum_(ops.silu(ops.matmul(p2, Tensor(w)))), 2.0).backward()
        np.testing.assert_allclose(twice, p2.grad, rtol=1e-12, atol=1e-15)

    def test_composite_stack_matches_fd(self):
        rng = np.random.default_rng(3)
        w1 = Parameter("w1", 0.5 * rng.standard_normal((6, 4)))
        b1 = Parameter("b1", 0.1 * rng.standard_normal(6))
        w2 = Parameter("w2", 0.5 * rng.standard_normal((2, 6)))
        x = Tensor(rng.standard_normal((5, 4)))

        def build():
            h = ops.silu(ops.linear(x, w1, b1))
            y = ops.tanh(ops.linear(h, w2))
            return ops.sum_(ops.mul(y, y))

        fd_gradient_check(build, [w1, b1, w2], rng)

    def test_no_grad_suppresses_graph(self):
        p = Parameter("p", np.ones(3))
        with no_grad():
            out = ops.mul(p, p)
        assert not out.requires_grad
        assert out._parents == ()


class TestConv2d:
    def test_identity_1x1(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4, 5)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = ops.conv2d(x, Tensor(w), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_edges(self):
        x = Tensor(np.ones((1, 2, 6)))
        w = Tensor(np.ones((1, 1, 1, 3)))
        out = ops.conv2d(x, w, pad=(0, 1))
        np.testing.assert_array_equal(out.data[0, :, 1:-1], 3.0)
        np.testing.assert_array_equal(out.data[0, :, [0, -1]], 2.0)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 6, 8))
        w = rng.standard_normal((5, 3, 3, 3))
        b = rng.standard_normal(5)
        out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), pad=(1, 1)).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(out)
        for o in range(5):
            for t in range(6):
                for f in range(8):
                    ref[o, t, f] = np.sum(w[o] * xp[:, t:t + 3, f:f + 3]) + b[o]
        assert np.abs(out - ref).max() < 1e-10

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        w = Parameter("w", 0.5 * rng.standard_normal((2, 3, 1, 3)))
        b = Parameter("b", 0.1 * rng.standard_normal(2))
        xin = Parameter("x", rng.standard_normal((3, 4, 6)))

        def build():
            return ops.sum_(ops.abs_(ops.conv2d(xin, w, b, pad=(0, 1))))

        fd_gradient_check(build, [w, b, xin], rng)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((1, 3, 1, 1))))


class TestGroupNorm:
    def test_group_means_zero(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((6, 4, 5)))
        out = ops.group_norm(x, np.ones(6), np.zeros(6), groups=3).data
        for grp in out.reshape(3, -1):
            assert abs(grp.mean()) < 1e-9

    def test_constant_input_zeroed(self):
        x = Tensor(np.full((4, 3, 3), 7.7))
        out = ops.group_norm(x, np.ones(4), np.zeros(4), groups=2).data
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 5, 4))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        out = ops.group_norm(Tensor(x), Tensor(gamma), Tensor(beta), groups=2).data
        ref = np.empty_like(x)
        for g in range(2):
            sl = slice(g * 3, (g + 1) * 3)
            blk = x[sl]
            ref[sl] = (blk - blk.mean()) / np.sqrt(blk.var() + 1e-5)
        ref = ref * gamma[:, None, None] + beta[:, None, None]
        assert np.abs(out - ref).max() < 1e-10

    def test_indivisible_groups_rejected(self):
        with pytest.raises(ValueError):
            ops.group_norm(Tensor(np.zeros((5, 2, 2))), np.ones(5), np.zeros(5), groups=2)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(8)
        gamma = Parameter("gamma", 1.0 + 0.1 * rng.standard_normal(4))
        beta = Parameter("beta", 0.1 * rng.standard_normal(4))
        xin = Parameter("x", rng.standard_normal((4, 3, 5)))

        def build():
            return ops.sum_(ops.silu(ops.group_norm(xin, gamma, beta, groups=2)))

        fd_gradient_check(build, [gamma, beta, xin], rng)


class TestSilu:
    def test_zero(self):
        assert ops.silu(Tensor(0.0)).item() == 0.0

    def test_asymptote(self):
        assert abs(ops.silu(Tensor(20.0)).item() - 20.0) < 1e-7

    def test_gradient_at_zero(self):
        p = Parameter("p", np.array(0.0))
        ops.silu(p).backward()
        np.testing.assert_allclose(p.grad, 0.5, rtol=1e-15)


class TestLinear:
    def test_identity(self):
        x = Tensor(np.random.default_rng(9).standard_normal((3, 4)))
        out = ops.linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_zero_weight_broadcasts_bias(self):
        b = np.array([1.0, -2.0])
        out = ops.linear(Tensor(np.ones((5, 3))), Tensor(np.zeros((2, 3))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.tile(b, (5, 1)))

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((7, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        out = ops.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.abs(out - (x @ w.T + b)).max() < 1e-10


class TestGruCell:
    def test_all_zero(self):
        h = ops.gru_cell(
            Tensor(np.zeros(3)), Tensor(np.zeros(4)),
            Tensor(np.zeros((12, 3))), Tensor(np.zeros((12, 4))),
            Tensor(np.zeros(12)), Tensor(np.zeros(12)),
        )
        np.testing.assert_array_equal(h.data, 0.0)

    def test_saturated_update_gate_keeps_state(self):
        rng = np.random.default_rng(11)
        h_prev = rng.standard_normal(4)
        b_ih = np.zeros(12)
        b_ih[4:8] = 50.0  # saturate the update gate
        h = ops.gru_cell(
            Tensor(rng.standard_normal(3)), Tensor(h_prev),
            Tensor(0.3 * rng.standard_normal((12, 3))),
            Tensor(0.3 * rng.standard_normal((12, 4))),
            Tensor(b_ih), Tensor(np.zeros(12)),
        )
        np.testing.assert_allclose(h.data, h_prev, atol=1e-6)

    def test_matches_equation_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 3))
        h = rng.standard_normal((5, 4))
        w_ih = rng.standard_normal((12, 3))
        w_hh = rng.standard_normal((12, 4))
        b_ih = rng.standard_normal(12)
        b_hh = rng.standard_normal(12)
        out = ops.gru_cell(
            Tensor(x), Tensor(h), Tensor(w_ih), Tensor(w_hh), Tensor(b_ih), Tensor(b_hh)
        ).data

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        gi = x @ w_ih.T + b_ih
        gh = h @ w_hh.T + b_hh
        r = sig(gi[:, 0:4] + gh[:, 0:4])
        z = sig(gi[:, 4:8] + gh[:, 4:8])
        n = np.tanh(gi[:, 8:12] + r * gh[:, 8:12])
        ref = z * h + (1 - z) * n
        assert np.abs(out - ref).max() < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ops.gru_cell(
                Tensor(np.zeros(3)), Tensor(np.zeros(4)),
                Tensor(np.zeros((9, 3))), Tensor(np.zeros((12, 4))),
                Tensor(np.zeros(9)), Tensor(np.zeros(12)),
            )

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(13)
        w_ih = Parameter("w_ih", 0.4 * rng.standard_normal((6, 3)))
        w_hh = Parameter("w_hh", 0.4 * rng.standard_normal((6, 2)))
        b_ih = Parameter("b_ih", 0.1 * rng.standard_normal(6))
        b_hh = Parameter("b_hh", 0.1 * rng.standard_normal(6))
        x = Tensor(rng.standard_normal((4, 3)))
        h0 = Tensor(rng.standard_normal((4, 2)))

        def build():
            h1 = ops.gru_cell(x, h0, w_ih, w_hh, b_ih, b_hh)
            h2 = ops.gru_cell(x, h1, w_ih, w_hh, b_ih, b_hh)
            return ops.sum_(ops.mul(h2, h2))

        fd_gradient_check(build, [w_ih, w_hh, b_ih, b_hh], rng)


class TestFirResampleFreq:
    def test_constant_down(self):
        out = ops.fir_resample_freq(Tensor(np.full((2, 3, 8), 1.3)), "down")
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(out.data, 1.3, atol=1e-15)

    def test_constant_up(self):
        out = ops.fir_resample_freq(Tensor(np.full((2, 3, 4), -0.8)), "up")
        assert out.shape == (2, 3, 8)
        np.testing.assert_allclose(out.data, -0.8, atol=1e-15)

    def test_nyquist_killed(self):
        x = np.tile(np.array([1.0, -1.0]), (2, 3, 5))
        out = ops.fir_resample_freq(Tensor(x), "down")
        assert np.abs(out.data).max() < 1e-12

    def test_odd_f_down_rejected(self):
        with pytest.raises(ValueError):
            ops.fir_resample_freq(Tensor(np.zeros((1, 2, 7))), "down")

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(14)
        xin = Parameter("x", rng.standard_normal((2, 3, 8)))

        def build():
            d = ops.fir_resample_freq(xin, "down")
            u = ops.fir_resample_freq(d, "up")
            return ops.sum_(ops.mul(u, u))

        fd_gradient_check(build, [xin], rng)


class TestFramingOps:
    def test_gather_scatter_are_adjoint(self):
        """<A x, y> == <x, A^T y> for the framing operator A."""
        rng = np.random.default_rng(15)
        x = rng.standard_normal(500)
        p = Parameter("x", x)
        frames = ops.frame_rows(p, 64, 16)
        y = rng.standard_normal(frames.shape)
        ops.sum_(ops.mul(frames, Tensor(y))).backward()
        lhs = np.sum(frames.data * y)  # <A x, y>
        rhs = np.dot(p.grad, x)        # <A^T y, x>
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_istft_roundtrip_through_engine(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal(3000)
        re, im = ops.stft_pair(Tensor(x), 128, 32)
        y = ops.istft_pair(re, im, 128, 32, 3000)
        assert np.abs(y.data - x).max() < 1e-10

    def test_stft_gradients_match_fd(self):
        rng = np.random.default_rng(17)
        xin = Parameter("x", rng.standard_normal(300))

        def build():
            re, im = ops.stft_pair(xin, 64, 16)
            mag2 = ops.add(ops.mul(re, re), ops.mul(im, im))
            y = ops.istft_pair(re, im, 64, 16, 300)
            return ops.add(ops.sum_(mag2), ops.sum_(ops.abs_(y)))

        fd_gradient_check(build, [xin], rng)


# (frame_ms, hop_ms) at 16 kHz and the (frame_len, hop) they give.
FRAMINGS = [((4.0, 1.0), (64, 16)), ((8.0, 2.0), (128, 32)), ((32.0, 8.0), (512, 128))]


class TestStftPair:
    @pytest.mark.parametrize("ms, samples", FRAMINGS)
    def test_equals_metric_stft_bitwise(self, ms, samples):
        x = np.random.default_rng(30).standard_normal(2000)
        re, im = ops.stft_pair(Tensor(x), *samples)
        ref = dsp.stft(dsp.Waveform(x, 16000), dsp.FrameConfig(*ms)).values
        np.testing.assert_array_equal(re.data, ref.real)
        np.testing.assert_array_equal(im.data, ref.imag)

    def test_matches_explicit_dft_matrix(self):
        x = np.random.default_rng(31).standard_normal(3000)
        re, im = ops.stft_pair(Tensor(x), 512, 128)
        ref = stft_matrix_oracle(x, 512, 128)
        assert np.abs(re.data - ref.real).max() <= 1e-10
        assert np.abs(im.data - ref.imag).max() <= 1e-10

    @pytest.mark.parametrize("frame_len, hop", [s for _, s in FRAMINGS])
    def test_stft_pair_is_adjoint(self, frame_len, hop):
        """<S x, g> == <x, S^T g> with S the (real, imag) STFT."""
        rng = np.random.default_rng(32)
        x = Parameter("x", rng.standard_normal(1500))
        re, im = ops.stft_pair(x, frame_len, hop)
        gr, gi = rng.standard_normal(re.shape), rng.standard_normal(im.shape)
        ops.add(ops.sum_(ops.mul(re, Tensor(gr))), ops.sum_(ops.mul(im, Tensor(gi)))).backward()
        lhs = np.sum(re.data * gr) + np.sum(im.data * gi)
        np.testing.assert_allclose(lhs, np.dot(x.grad, x.data), rtol=1e-12)

    @pytest.mark.parametrize("frame_len, hop", [s for _, s in FRAMINGS])
    @pytest.mark.parametrize("short", [0, 37])
    def test_istft_pair_is_adjoint(self, frame_len, hop, short):
        """<B (re, im), y> == <(re, im), B^T y>, also below the synthesizable span."""
        rng = np.random.default_rng(33)
        n_frames = 20
        target_len = n_frames * hop - (frame_len - hop) - short
        re = Parameter("re", rng.standard_normal((n_frames, frame_len // 2 + 1)))
        im = Parameter("im", rng.standard_normal((n_frames, frame_len // 2 + 1)))
        out = ops.istft_pair(re, im, frame_len, hop, target_len)
        y = rng.standard_normal(target_len)
        ops.sum_(ops.mul(out, Tensor(y))).backward()
        rhs = np.sum(re.grad * re.data) + np.sum(im.grad * im.data)
        np.testing.assert_allclose(np.dot(out.data, y), rhs, rtol=1e-12)

    def test_istft_pair_missing_nyquist_is_zero(self):
        rng = np.random.default_rng(34)
        re = Parameter("re", rng.standard_normal((12, 64)))
        im = Parameter("im", rng.standard_normal((12, 64)))
        y = rng.standard_normal(280)
        zero = Tensor(np.zeros((12, 1)))
        padded = ops.istft_pair(ops.concat([re, zero], axis=1), ops.concat([im, zero], axis=1),
                                128, 32, 280)
        ops.sum_(ops.mul(padded, Tensor(y))).backward()
        grads = re.grad, im.grad
        re.grad = im.grad = None
        cropped = ops.istft_pair(re, im, 128, 32, 280)
        ops.sum_(ops.mul(cropped, Tensor(y))).backward()
        np.testing.assert_array_equal(cropped.data, padded.data)
        np.testing.assert_array_equal(re.grad, grads[0])
        np.testing.assert_array_equal(im.grad, grads[1])

    def test_istft_pair_rejects_target_beyond_span_like_istft(self):
        spec = dsp.stft(dsp.Waveform(np.ones(300), 16000), dsp.FrameConfig(8.0, 2.0))
        span = spec.values.shape[0] * 32 - 96
        with pytest.raises(ValueError) as metric:
            dsp.istft(spec, span + 1)
        with pytest.raises(ValueError) as engine:
            ops.istft_pair(spec.values.real, spec.values.imag, 128, 32, span + 1)
        assert str(engine.value) == str(metric.value)
        assert f"[0, {span}]" in str(engine.value)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(18)
        y = ops.softmax_last(Tensor(rng.standard_normal((7, 9)))).data
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(19)
        xin = Parameter("x", rng.standard_normal((3, 5)))
        v = Tensor(rng.standard_normal((3, 5)))

        def build():
            return ops.sum_(ops.mul(ops.softmax_last(xin), v))

        fd_gradient_check(build, [xin], rng)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        p = Parameter("p", np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([3.7])
        opt.step()
        np.testing.assert_allclose(abs(p.data[0]), 0.01, rtol=1e-6)

    def test_ten_step_trajectory_matches_hand_simulation(self):
        p = Parameter("p", np.array([0.5]))
        opt = Adam([p], lr=0.05)
        rng = np.random.default_rng(20)
        grads = rng.standard_normal(10)

        # independent scalar re-simulation
        theta, m, v = 0.5, 0.0, 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            theta -= 0.05 * mh / (np.sqrt(vh) + eps)
            assert abs(p.data[0] - theta) < 1e-12


class TestClipGlobalNorm:
    def test_small_norm_untouched(self):
        p = Parameter("p", np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        assert clip_global_norm([p], 1.0) == 1.0
        np.testing.assert_array_equal(p.grad, [0.3, 0.4])

    def test_large_norm_scaled(self):
        p = Parameter("p", np.zeros(2))
        p.grad = np.array([0.0, 4.0])
        scale = clip_global_norm([p], 1.0)
        assert abs(scale - 0.25) < 1e-15
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-12

    def test_three_four_five(self):
        p = Parameter("p", np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        clip_global_norm([p], 1.0)
        np.testing.assert_allclose(p.grad, [0.6, 0.8], rtol=1e-12)


class TestEma:
    def test_decay_zero_tracks_params(self):
        p = Parameter("p", np.array([1.0]))
        ema = Ema([p], decay=0.0)
        p.data[:] = 5.0
        ema.update()
        np.testing.assert_array_equal(ema.shadow["p"], [5.0])

    def test_decay_one_frozen(self):
        p = Parameter("p", np.array([1.0]))
        ema = Ema([p], decay=1.0)
        p.data[:] = 5.0
        ema.update()
        np.testing.assert_array_equal(ema.shadow["p"], [1.0])

    def test_geometric_series(self):
        p = Parameter("p", np.array([2.0]))
        ema = Ema([p], decay=0.9)
        ema.shadow["p"] = np.array([10.0])
        for _ in range(7):
            ema.update()
        expected = 10.0 * 0.9**7 + 2.0 * (1 - 0.9**7)
        np.testing.assert_allclose(ema.shadow["p"], [expected], rtol=1e-14)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(21)
        arrays = {
            "param/a": rng.standard_normal((3, 4)),
            "param/b": rng.standard_normal(7),
            "adam/m/param/a": rng.standard_normal((3, 4)),
        }
        meta = {"epoch": 3, "note": "x"}
        path = tmp_path / "state.ckpt"
        save_state(path, meta, arrays)
        meta2, arrays2 = load_state(path)
        assert meta2 == meta
        for k, v in arrays.items():
            np.testing.assert_array_equal(arrays2[k], v)
        # identical content -> identical bytes
        path2 = tmp_path / "state2.ckpt"
        save_state(path2, meta, arrays)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_state(bad)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_state(path, {}, {"a": np.ones(100)})
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 50])
        with pytest.raises(ValueError):
            load_state(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        """A save that dies partway through a blob leaves the old file loadable."""
        path = tmp_path / "last.ckpt"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.full(4, 0.5)}
        save_state(path, {"step": 1}, arrays)
        real_open = open

        class DiesInSecondBlob:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                self.writes += 1  # magic, header length, header, blob a, blob b
                if self.writes == 5:
                    self.fh.write(data[:len(data) // 2])
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(checkpoint, "open", lambda *a, **k: DiesInSecondBlob(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            save_state(path, {"step": 2}, {"a": np.zeros((2, 3)), "b": np.zeros(4)})
        meta, loaded = load_state(path)
        assert meta == {"step": 1}
        for k, v in arrays.items():
            np.testing.assert_array_equal(loaded[k], v)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]


class TestDeterminism:
    def test_bit_identical_training_trajectory(self):
        def run():
            rng = np.random.default_rng(42)
            w = Parameter("w", rng.standard_normal((4, 4)))
            opt = Adam([w], lr=1e-2)
            ema = Ema([w], decay=0.9)
            for _ in range(5):
                x = Tensor(rng.standard_normal((4, 4)))
                loss = ops.sum_(ops.abs_(ops.silu(ops.matmul(x, w))))
                opt.zero_grad()
                loss.backward()
                clip_global_norm([w], 1.0)
                opt.step()
                ema.update()
            return w.data.copy(), ema.shadow["w"].copy()

        w1, s1 = run()
        w2, s2 = run()
        assert np.array_equal(w1, w2)
        assert np.array_equal(s1, s2)
