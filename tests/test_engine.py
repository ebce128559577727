"""Tests for the autodiff engine: primitives, layers, optimizer machinery."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    attention_oracle,
    correlate_oracle,
    fd_gradient_check,
    fir_resample_oracle,
    group_norm_silu_oracle,
    gru_loop_oracle,
    stft_matrix_oracle,
    taps_oracle,
)
from speechsr import dsp
from speechsr.errors import NumericsError
from speechsr.engine import checkpoint
from speechsr.engine import (
    Adam,
    Ema,
    Parameter,
    Tensor,
    clip_global_norm,
    load_state,
    malloc_settings,
    no_grad,
    ops,
    save_state,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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
        loss = ops.sum_(ops.silu(ops.linear(p1, Tensor(rng.standard_normal((2, 3))))))
        loss.backward()
        loss.backward()
        twice = p1.grad.copy()

        p2 = Parameter("p", data.copy())
        rng2 = np.random.default_rng(2)
        rng2.standard_normal((4, 3))
        w = rng2.standard_normal((2, 3))
        ops.mul(ops.sum_(ops.silu(ops.linear(p2, Tensor(w)))), 2.0).backward()
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

    def test_only_leaves_keep_grad(self):
        p = Parameter("p", np.arange(3.0))
        x = Tensor(np.ones(3), requires_grad=True)
        h = ops.mul(p, x)
        ops.sum_(ops.mul(h, h)).backward()
        assert h.requires_grad and h.grad is None
        np.testing.assert_array_equal(p.grad, 2 * np.arange(3.0))
        np.testing.assert_array_equal(x.grad, 2 * np.arange(3.0) ** 2)

    def test_no_grad_suppresses_graph(self):
        p = Parameter("p", np.ones(3))
        with no_grad():
            out = ops.mul(p, p)
        assert not out.requires_grad
        assert out._node is None


def _intermediate(shape, seed=0):
    """A parameter and a recorded result of it, whose array only the graph could keep."""
    p = Parameter("p", np.random.default_rng(seed).standard_normal(shape))
    return p, ops.add(p, 0.0)


def _param(shape, seed=1):
    return Parameter("w", 0.5 * np.random.default_rng(seed).standard_normal(shape))


# (input shape, op on the input, whether its vjp reads the input's data)
RETENTION_CASES = {
    "add": ((3, 4), lambda x: ops.add(x, 1.0), False),
    "sub": ((3, 4), lambda x: ops.sub(1.0, x), False),
    "reshape": ((3, 4), lambda x: ops.reshape(x, (12,)), False),
    "transpose": ((3, 4), lambda x: ops.transpose(x, (1, 0)), False),
    "getitem": ((3, 4), lambda x: ops.getitem(x, (slice(1, None),)), False),
    "sum_": ((3, 4), lambda x: ops.sum_(x, axis=1), False),
    "concat": ((3, 4), lambda x: ops.concat([x, x], axis=0), False),
    "fir_resample_freq.down": ((2, 3, 8), lambda x: ops.fir_resample_freq(x, "down"), False),
    "fir_resample_freq.up": ((2, 3, 8), lambda x: ops.fir_resample_freq(x, "up"), False),
    "conv2d.taps": ((3, 4, 6), lambda x: ops.conv2d(x, _param((2, 3, 1, 3)), pad=(0, 1)), False),
    "conv2d.im2col": ((3, 4, 6), lambda x: ops.conv2d(x, _param((4, 3, 3, 3)), pad=(1, 1)),
                      False),
    "group_norm_silu": ((4, 3, 5), lambda x: ops.group_norm_silu(x, _param(4), _param(4, 2),
                                                                 groups=2), False),
    "frame_rows": ((32,), lambda x: ops.frame_rows(x, 8, 4), False),
    "overlap_add_rows": ((5, 8), lambda x: ops.overlap_add_rows(x, 4, 12), False),
    "stft_pair": ((64,), lambda x: ops.stft_pair(x, 16, 4), False),
    "istft_pair": ((7, 9), lambda x: ops.istft_pair(x, x, 16, 4, 16), False),
    "mul": ((3, 4), lambda x: ops.mul(x, _param((3, 4))), True),
    "linear": ((3, 4), lambda x: ops.linear(x, _param((2, 4))), True),
    "pointwise_channels": ((3, 2, 4), lambda x: ops.pointwise_channels(x, _param((2, 3))),
                           True),
    "attention": ((5, 3), lambda x: ops.attention(x, _param((4, 3)), _param((4, 2))), True),
    "silu": ((3, 4), ops.silu, True),
    "gru": ((1, 4, 3), lambda x: ops.gru(x, _param((1, 2)), _param((6, 3)), _param((6, 2)),
                                         _param(6), _param(6)), True),
}


@pytest.mark.parametrize("name", sorted(RETENTION_CASES))
def test_graph_keeps_an_input_array_only_if_its_vjp_reads_it(name):
    """An input's array outlives its Tensor only when the op's vjp reads it."""
    shape, op, reads_input = RETENTION_CASES[name]
    p, x = _intermediate(shape)
    array = weakref.ref(x.data)
    out = op(x)
    outs = out if isinstance(out, tuple) else (out,)
    loss = ops.sum_(ops.concat([ops.reshape(t, (-1,)) for t in outs]))
    del x, out, outs
    gc.collect()
    assert (array() is not None) == reads_input
    loss.backward()
    assert p.grad.shape == shape


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
        # (kernel, input, pad, stacked): ``stacked`` is whether O*Hp*Wp < C*Ho*Wo
        # sends the forward through the per-tap GEMM instead of im2col.
        cases = [
            ((5, 3, 3, 3), (3, 6, 8), (1, 1), False),
            ((2, 16, 7, 7), (16, 6, 8), (3, 3), True),
            ((4, 8, 1, 3), (8, 5, 7), (0, 1), True),
            ((3, 6, 2, 3), (6, 5, 7), (0, 0), True),
            ((4, 2, 3, 3), (2, 4, 5), (1, 1), False),
        ]
        rng = np.random.default_rng(4)
        for wshape, xshape, pad, stacked in cases:
            x = rng.standard_normal(xshape)
            w = rng.standard_normal(wshape)
            b = rng.standard_normal(wshape[0])
            out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), pad=pad).data
            (pt, pf), (o, c, kh, kw) = pad, wshape
            xp = np.pad(x, ((0, 0), (pt, pt), (pf, pf)))
            ho, wo = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
            assert (o * xp.shape[1] * xp.shape[2] < c * ho * wo) == stacked, wshape
            ref = np.zeros((o, ho, wo))
            for k in range(o):
                for t in range(ho):
                    for f in range(wo):
                        ref[k, t, f] = np.sum(w[k] * xp[:, t:t + kh, f:f + kw]) + b[k]
            assert out.shape == ref.shape, wshape
            assert np.abs(out - ref).max() < 1e-10, wshape

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        # The first case takes the per-tap GEMM, the second im2col.
        for wshape, xshape, pad in [((2, 3, 1, 3), (3, 4, 6), (0, 1)),
                                    ((4, 2, 3, 3), (2, 4, 5), (1, 1))]:
            w = Parameter("w", 0.5 * rng.standard_normal(wshape))
            b = Parameter("b", 0.1 * rng.standard_normal(wshape[0]))
            xin = Parameter("x", rng.standard_normal(xshape))

            def build():
                return ops.sum_(ops.abs_(ops.conv2d(xin, w, b, pad=pad)))

            fd_gradient_check(build, [w, b, xin], rng)

    def test_gradients_match_fd_with_padding_wider_than_the_kernel(self):
        # The vjp crops the upstream gradient instead of padding it.
        rng = np.random.default_rng(14)
        w = Parameter("w", 0.5 * rng.standard_normal((2, 3, 1, 2)))
        xin = Parameter("x", rng.standard_normal((3, 3, 4)))

        def build():
            return ops.sum_(ops.abs_(ops.conv2d(xin, w, pad=(1, 2))))

        fd_gradient_check(build, [w, xin], rng)

    def test_bias_is_added_inside_the_node(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4, 5)))
        w = Parameter("w", rng.standard_normal((2, 3, 1, 3)))
        b = Parameter("b", rng.standard_normal(2))
        out = ops.conv2d(x, w, b, pad=(0, 1))
        assert out._node.parents == (None, w, b)

    def test_few_output_channels_make_no_patch_matrix(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((64, 35, 256)))
        w = Tensor(rng.standard_normal((2, 64, 7, 7)))
        b = Tensor(rng.standard_normal(2))
        tracemalloc.start()
        try:
            with no_grad():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                ops.conv2d(x, w, b, pad=(3, 3))
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # im2col's (64*7*7, 35*256) patch matrix alone is 225 MB.
        assert peak - before < 30e6

    def test_few_output_channels_backward_makes_no_patch_matrix(self):
        rng = np.random.default_rng(15)
        x = Parameter("x", rng.standard_normal((64, 35, 256)))
        w = Parameter("w", rng.standard_normal((2, 64, 7, 7)))
        b = Parameter("b", rng.standard_normal(2))
        loss = ops.sum_(ops.conv2d(x, w, b, pad=(3, 3)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        # Rebuilding the patch matrix for dW, or scattering a patch-sized
        # dX, takes 225 MB; dW per tap and dX as a correlation take ~20 MB.
        assert peak - before < 30e6

    # (input, kernel, pad, bytes per block): a short last block at kh 1, 3
    # and 7, where Wo = 12 and Wo = 8 take blocks in multiples of 4 and 2
    # rows (whole 16-column panels), and a pad wider than k - 1.
    BLOCK_CASES = [
        ((4, 37, 16), (4, 4, 1, 3), (0, 1), 5 * 8 * 12 * 16),
        ((4, 36, 12), (4, 4, 3, 3), (1, 1), 8 * 8 * 36 * 12),
        ((3, 40, 8), (3, 3, 7, 7), (3, 3), 6 * 8 * 147 * 8),
        ((4, 30, 11), (4, 4, 3, 2), (4, 3), 5 * 8 * 24 * 16),
    ]

    @pytest.mark.parametrize("one_panel", [False, True], ids=["blocks", "one_panel"])
    @pytest.mark.parametrize("xshape, wshape, pad, block_bytes", BLOCK_CASES)
    def test_row_blocks_keep_the_whole_products_bits(self, monkeypatch, xshape, wshape, pad,
                                                      block_bytes, one_panel):
        """Forward, recorded or not, and dX equal one GEMM over the whole patch
        matrix, bit for bit.

        One byte per block leaves the fewest rows that fill whole panels: a
        single row where Wo is a multiple of 16. Without a graph each block
        pads its own rows, the zero halo included.
        """
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", 1 if one_panel else block_bytes)
        rng = np.random.default_rng(16)
        x = Parameter("x", rng.standard_normal(xshape))
        w = Tensor(rng.standard_normal(wshape))
        b = Tensor(rng.standard_normal(wshape[0]))
        out = ops.conv2d(x, w, b, pad=pad)
        with no_grad():
            unrecorded = ops.conv2d(Tensor(x.data), w, b, pad=pad)
        (pt, pf), (_, _, kh, kw) = pad, wshape
        ref = correlate_oracle(np.pad(x.data, ((0, 0), (pt, pt), (pf, pf))), w.data)
        ref += b.data.reshape(-1, 1, 1)
        assert np.array_equal(out.data, ref) and np.array_equal(unrecorded.data, ref)

        g = rng.standard_normal(out.shape)
        gx = out._node.vjp(g)[0]
        # dX correlates g, padded by k-1-p per side or cropped where p > k-1,
        # with the flipped, transposed kernel.
        et, ef = kh - 1 - pt, kw - 1 - pf
        gp = np.pad(g, ((0, 0), (max(et, 0),) * 2, (max(ef, 0),) * 2))
        ct, cf = max(-et, 0), max(-ef, 0)
        gp = gp[:, ct:gp.shape[1] - ct, cf:gp.shape[2] - cf]
        flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        assert np.array_equal(gx, correlate_oracle(gp, flipped))

    # (input, kernel, pad, bytes per window) for the per-tap layout: the
    # decoder's narrowing 1x3 conv1 at T = 2,003 and output convs at tiny and
    # paper scale. Each budget leaves a short remainder, so the last window
    # starts early; each regular window stays wider than the few thousand
    # columns below which a GEMM computes its partial tail panel with
    # other bits.
    TAP_CASES = [
        ((16, 2003, 32), (8, 16, 1, 3), (0, 1), 1_500_000),
        ((8, 500, 64), (2, 8, 3, 3), (1, 1), 1_250_000),
        ((64, 60, 256), (2, 64, 7, 7), (3, 3), 300_000),
    ]

    @pytest.mark.parametrize("default_budget", [True, False], ids=["default", "short_last"])
    @pytest.mark.parametrize("xshape, wshape, pad, block_bytes", TAP_CASES)
    def test_tap_windows_keep_the_whole_products_bits(self, monkeypatch, xshape, wshape, pad,
                                                       block_bytes, default_budget):
        """The per-tap forward, recorded or not, equals one unwindowed product
        bit for bit, and dX its correlation oracle."""
        if not default_budget:
            monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", block_bytes)
        (pt, pf), (o, _, kh, kw) = pad, wshape
        hp, wp = xshape[1] + 2 * pt, xshape[2] + 2 * pf
        assert o * hp * wp < xshape[0] * (hp - kh + 1) * (wp - kw + 1)  # the per-tap layout
        windows = list(ops._tap_windows(kh * kw * o, hp * wp))
        assert len(windows) > 1 and windows[-1][0] < windows[-2][1]  # the last starts early
        rng = np.random.default_rng(20)
        x = Parameter("x", rng.standard_normal(xshape))
        w = Tensor(rng.standard_normal(wshape))
        out = ops.conv2d(x, w, pad=pad)
        with no_grad():
            unrecorded = ops.conv2d(Tensor(x.data), w, pad=pad)
        ref = taps_oracle(np.pad(x.data, ((0, 0), (pt, pt), (pf, pf))), w.data)
        assert np.array_equal(out.data, ref) and np.array_equal(unrecorded.data, ref)

        g = rng.standard_normal(out.shape)
        gp = np.pad(g, ((0, 0), (kh - 1 - pt,) * 2, (kw - 1 - pf,) * 2))
        flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        assert np.array_equal(out._node.vjp(g)[0], correlate_oracle(gp, flipped))

    # (input, kernel, pad) of the widening input conv at paper and tiny scale.
    # Its forward takes im2col, but its dX narrows 64 or 8 channels to 6,
    # the per-tap layout, over several windows at the default budget.
    WIDENING_CASES = [
        ((6, 125, 256), (64, 6, 7, 7), (3, 3)),
        ((6, 501, 64), (8, 6, 3, 3), (1, 1)),
    ]

    @pytest.mark.parametrize("xshape, wshape, pad", WIDENING_CASES)
    def test_widening_input_gradient_keeps_the_whole_products_bits(self, xshape, wshape, pad):
        """dX of a widening conv, which training computes for ``in_conv``,
        equals one unwindowed per-tap product bit for bit."""
        (pt, pf), (_, c, kh, kw) = pad, wshape
        rng = np.random.default_rng(22)
        x = Parameter("x", rng.standard_normal(xshape))
        w = Tensor(rng.standard_normal(wshape))
        out = ops.conv2d(x, w, pad=pad)
        g = rng.standard_normal(out.shape)
        gp = np.pad(g, ((0, 0), (kh - 1 - pt,) * 2, (kw - 1 - pf,) * 2))
        hp, wp = gp.shape[1:]
        assert c * hp * wp < wshape[0] * xshape[1] * xshape[2]  # dX takes the per-tap layout
        windows = list(ops._tap_windows(kh * kw * c, hp * wp))
        assert len(windows) > 2 and windows[-1][0] < windows[-2][1]  # the last starts early
        flipped = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        assert np.array_equal(out._node.vjp(g)[0], taps_oracle(gp, flipped))

    @staticmethod
    def _traced_peak(run):
        """Bytes allocated at the peak of ``run()`` beyond what was held before it."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - before, result

    def test_forward_transient_is_bounded_by_the_block(self, monkeypatch):
        """A no-grad 6->8 3x3 conv on 4,000 rows: the whole patch matrix is 110 MB
        and the whole padded input 13 MB; neither is built. Each extra block
        worker holds one more block."""
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((6, 4000, 64)))
        w = Tensor(rng.standard_normal((8, 6, 3, 3)))
        for workers in (1, ops._workers()):
            monkeypatch.setattr(ops, "_workers", lambda: workers)
            with no_grad():
                peak, out = self._traced_peak(lambda: ops.conv2d(x, w, pad=(1, 1)))
            assert peak < out.data.nbytes + (1 + workers) * ops.CONV_BLOCK_BYTES

    def test_no_grad_tap_transient_is_bounded_by_the_block(self):
        """A no-grad 64->2 7x7 conv on 400 rows: its whole response matrix is 22 MB
        and its whole padded input 15 MB; neither is built."""
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((64, 400, 64)))
        w = Tensor(rng.standard_normal((2, 64, 7, 7)))
        with no_grad():
            peak, out = self._traced_peak(lambda: ops.conv2d(x, w, pad=(3, 3)))
        assert peak < out.data.nbytes + 2 * ops.CONV_BLOCK_BYTES

    def test_input_gradient_transient_is_bounded_by_the_block(self):
        """dX of an 8->8 1x3 conv on 4,000 rows: its whole patch matrix is 49 MB."""
        rng = np.random.default_rng(18)
        x = Parameter("x", rng.standard_normal((8, 4000, 64)))
        w = Parameter("w", rng.standard_normal((8, 8, 1, 3)))
        out = ops.conv2d(x, w, pad=(0, 1))
        g = rng.standard_normal(out.shape)
        peak, (gx, gw) = self._traced_peak(lambda: out._node.vjp(g))
        assert gx.shape == x.shape and gw.shape == w.shape
        padded = 8 * 4000 * 66 * 8  # g padded by one column per side
        assert peak < gx.nbytes + padded + 2 * ops.CONV_BLOCK_BYTES

    def test_widening_weight_gradient_transient_is_bounded_by_the_block(self):
        """dW of a 6->64 7x7 conv on 400 rows: its whole patch matrix is 60 MB."""
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((6, 400, 64)))
        w = Parameter("w", 0.1 * rng.standard_normal((64, 6, 7, 7)))
        out = ops.conv2d(x, w, pad=(3, 3))
        g = rng.standard_normal(out.shape)
        peak, (gx, gw) = self._traced_peak(lambda: out._node.vjp(g))
        assert gx is None and gw.shape == w.shape
        padded = 6 * 406 * 70 * 8
        assert peak < gw.nbytes + padded + 2 * ops.CONV_BLOCK_BYTES

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ops.conv2d(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((1, 3, 1, 1))))


def _is_one_node(out, *inputs):
    """``out`` was recorded as one node whose parents are exactly ``inputs``."""
    return (out.requires_grad and len(out._node.parents) == len(inputs)
            and all(p is q for p, q in zip(out._node.parents, inputs)))


class TestGroupNorm:
    """``group_norm_silu``: GroupNorm with affine, then SiLU, as one op."""

    def test_group_means_zero(self):
        # silu(s) - silu(-s) = s, so γ = ±1 and β = 0 recover the normalized map.
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((6, 4, 5)))
        pos = ops.group_norm_silu(x, np.ones(6), np.zeros(6), groups=3).data
        neg = ops.group_norm_silu(x, -np.ones(6), np.zeros(6), groups=3).data
        for grp in (pos - neg).reshape(3, -1):
            assert abs(grp.mean()) < 1e-9

    def test_constant_input_zeroed(self):
        # The normalized map is 0, and silu(0) = 0.
        x = Tensor(np.full((4, 3, 3), 7.7))
        out = ops.group_norm_silu(x, np.ones(4), np.zeros(4), groups=2).data
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 5, 4))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        out = ops.group_norm_silu(Tensor(x), Tensor(gamma), Tensor(beta), groups=2).data
        ref = np.empty_like(x)
        for g in range(2):
            sl = slice(g * 3, (g + 1) * 3)
            blk = x[sl]
            ref[sl] = (blk - blk.mean()) / np.sqrt(blk.var() + 1e-5)
        ref = ref * gamma[:, None, None] + beta[:, None, None]
        ref = ref / (1.0 + np.exp(-ref))
        assert np.abs(out - ref).max() < 1e-10

    def test_indivisible_groups_rejected(self):
        with pytest.raises(ValueError):
            ops.group_norm_silu(Tensor(np.zeros((5, 2, 2))), np.ones(5), np.zeros(5), groups=2)

    def test_matches_np_var_at_paper_scale(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((64, 35, 256)) + 0.5
        gamma = rng.standard_normal(64)
        beta = rng.standard_normal(64)
        out = ops.group_norm_silu(Tensor(x), Tensor(gamma), Tensor(beta), groups=8).data
        xg = x.reshape(8, -1)
        ref = (xg - xg.mean(axis=1, keepdims=True)) / np.sqrt(xg.var(axis=1, keepdims=True) + 1e-5)
        ref = ref.reshape(x.shape) * gamma[:, None, None] + beta[:, None, None]
        ref = ref / (1.0 + np.exp(-ref))
        assert np.abs(out - ref).max() <= 1e-13

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(8)
        gamma = Parameter("gamma", 1.0 + 0.1 * rng.standard_normal(4))
        beta = Parameter("beta", 0.1 * rng.standard_normal(4))
        xin = Parameter("x", rng.standard_normal((4, 3, 5)))

        def build():
            return ops.sum_(ops.group_norm_silu(xin, gamma, beta, groups=2))

        fd_gradient_check(build, [gamma, beta, xin], rng)

    def test_one_graph_node(self):
        rng = np.random.default_rng(40)
        x = Parameter("x", rng.standard_normal((4, 3, 5)))
        gamma, beta = Parameter("gamma", np.ones(4)), Parameter("beta", np.zeros(4))
        assert _is_one_node(ops.group_norm_silu(x, gamma, beta, groups=2), x, gamma, beta)

    def test_no_grad_transient_is_the_output_and_one_chunk(self):
        """16 channels x 1,000 x 64 in 4 groups: each group is 2 MB, one chunk."""
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((16, 1000, 64)))
        gamma, beta = Tensor(rng.standard_normal(16)), Tensor(rng.standard_normal(16))
        tracemalloc.start()
        try:
            with no_grad():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = ops.group_norm_silu(x, gamma, beta, groups=4)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A second whole-map temporary would add 8 MB.
        assert peak - before < out.data.nbytes + 2 * ops.CONV_BLOCK_BYTES

    @pytest.mark.parametrize("shape, groups", [((4, 3, 5), 2), ((64, 35, 256), 8)])
    def test_equals_oracle_bitwise(self, shape, groups):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(shape) + 0.5
        gamma, beta = rng.standard_normal(shape[0]), rng.standard_normal(shape[0])
        ref = group_norm_silu_oracle(x, gamma, beta, groups)
        recorded = ops.group_norm_silu(Parameter("x", x), gamma, beta, groups)
        with no_grad():
            unrecorded = ops.group_norm_silu(Tensor(x), gamma, beta, groups)
        assert unrecorded._vjp is None
        np.testing.assert_array_equal(recorded.data, ref)
        np.testing.assert_array_equal(unrecorded.data, ref)


class TestSilu:
    def test_zero(self):
        assert ops.silu(Tensor(0.0)).item() == 0.0

    def test_asymptote(self):
        assert abs(ops.silu(Tensor(20.0)).item() - 20.0) < 1e-7

    def test_gradient_at_zero(self):
        p = Parameter("p", np.array(0.0))
        ops.silu(p).backward()
        np.testing.assert_allclose(p.grad, 0.5, rtol=1e-15)

    def test_one_graph_node(self):
        p = Parameter("p", np.random.default_rng(12).standard_normal((2, 3)))
        out = ops.silu(p)
        assert out.requires_grad and out._node.parents == (p,)

    @pytest.mark.parametrize("shape", [(), (3, 4, 5)], ids=["0-d", "3-d"])
    def test_gradients_match_fd(self, shape):
        rng = np.random.default_rng(13)
        p = Parameter("p", 2.0 * rng.standard_normal(shape))
        weights = Tensor(rng.standard_normal(shape))

        def build():
            return ops.sum_(ops.mul(ops.silu(p), weights))

        fd_gradient_check(build, [p], rng)


LINEAR_SHAPES = [(5,), (6, 5), (3, 4, 5)]


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

    @pytest.mark.parametrize("shape", LINEAR_SHAPES, ids=["1-d", "2-d", "3-d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_one_graph_node_and_fd(self, shape, bias):
        rng = np.random.default_rng(43)
        x = Parameter("x", rng.standard_normal(shape))
        w = Parameter("w", 0.5 * rng.standard_normal((4, 5)))
        b = Parameter("b", 0.1 * rng.standard_normal(4)) if bias else None
        params = [x, w] + ([b] if bias else [])
        out = ops.linear(x, w, b)
        assert out.shape == shape[:-1] + (4,)
        assert _is_one_node(out, *params)

        def build():
            return ops.sum_(ops.tanh(ops.linear(x, w, b)))

        fd_gradient_check(build, params, rng)

    def test_width_mismatch_rejected(self):
        # (6, 4) would reshape to (8, 3) without the check.
        with pytest.raises(ValueError):
            ops.linear(Tensor(np.zeros((6, 4))), Tensor(np.zeros((2, 3))))


class TestPointwiseChannels:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_one_graph_node_and_fd(self, bias):
        rng = np.random.default_rng(44)
        x = Parameter("x", rng.standard_normal((3, 4, 5)))
        w = Parameter("w", rng.standard_normal((2, 3)))
        b = Parameter("b", rng.standard_normal(2)) if bias else None
        params = [x, w] + ([b] if bias else [])
        out = ops.pointwise_channels(x, w, b)
        assert _is_one_node(out, *params)
        ref = np.einsum("oc,ctf->otf", w.data, x.data) + (b.data[:, None, None] if bias else 0.0)
        assert np.abs(out.data - ref).max() < 1e-12
        weights = Tensor(rng.standard_normal(out.shape))

        def build():
            return ops.sum_(ops.mul(ops.pointwise_channels(x, w, b), weights))

        fd_gradient_check(build, params, rng)


def _gru_params(rng, d_in, hidden, scale=0.4):
    return [Parameter(name, scale * rng.standard_normal(shape)) for name, shape in
            [("w_ih", (3 * hidden, d_in)), ("w_hh", (3 * hidden, hidden)),
             ("b_ih", (3 * hidden,)), ("b_hh", (3 * hidden,))]]


class TestGruCell:
    """The GRU cell equations as one- and two-step ``ops.gru`` calls from an explicit h0."""

    def test_all_zero(self):
        h = ops.gru(
            Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 4))),
            Tensor(np.zeros((12, 3))), Tensor(np.zeros((12, 4))),
            Tensor(np.zeros(12)), Tensor(np.zeros(12)),
        )
        np.testing.assert_array_equal(h.data, 0.0)

    def test_saturated_update_gate_keeps_state(self):
        rng = np.random.default_rng(11)
        h_prev = rng.standard_normal(4)
        b_ih = np.zeros(12)
        b_ih[4:8] = 50.0  # saturate the update gate
        h = ops.gru(
            Tensor(rng.standard_normal(3).reshape(1, 1, 3)), Tensor(h_prev.reshape(1, 4)),
            Tensor(0.3 * rng.standard_normal((12, 3))),
            Tensor(0.3 * rng.standard_normal((12, 4))),
            Tensor(b_ih), Tensor(np.zeros(12)),
        )
        np.testing.assert_allclose(h.data[0, 0], h_prev, atol=1e-6)

    def test_matches_equation_oracle(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 3))
        h = rng.standard_normal((5, 4))
        w_ih = rng.standard_normal((12, 3))
        w_hh = rng.standard_normal((12, 4))
        b_ih = rng.standard_normal(12)
        b_hh = rng.standard_normal(12)
        out = ops.gru(
            Tensor(x[:, None]), Tensor(h), Tensor(w_ih), Tensor(w_hh), Tensor(b_ih), Tensor(b_hh)
        ).data[:, 0]

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
            ops.gru(
                Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 4))),
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
        x_twice = Tensor(np.stack([x.data, x.data], axis=1))

        def build():
            h2 = ops.gru(x_twice, h0, w_ih, w_hh, b_ih, b_hh)[:, 1]
            return ops.sum_(ops.mul(h2, h2))

        fd_gradient_check(build, [w_ih, w_hh, b_ih, b_hh], rng)

    def test_one_graph_node(self):
        rng = np.random.default_rng(45)
        x = Parameter("x", rng.standard_normal((2, 6, 3)))
        h0 = Parameter("h0", rng.standard_normal((2, 4)))
        params = _gru_params(rng, 3, 4)
        out = ops.gru(x, h0, *params)
        assert out.shape == (2, 6, 4)
        assert _is_one_node(out, x, h0, *params)
        with no_grad():
            assert ops.gru(x, h0, *params)._vjp is None

    @pytest.mark.parametrize("batch, seq", [(1, 1), (3, 7), (9, 16)])
    def test_equals_cell_loop_bitwise(self, batch, seq):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((batch, seq, 5))
        h0 = rng.standard_normal((batch, 6))
        params = [p.data for p in _gru_params(rng, 5, 6, scale=1.0)]
        out = ops.gru(Tensor(x), Tensor(h0), *params).data
        np.testing.assert_array_equal(out, gru_loop_oracle(x, h0, *params))

    def test_fd_gradients_on_inputs_state_and_weights(self):
        rng = np.random.default_rng(47)
        x = Parameter("x", rng.standard_normal((3, 5, 2)))
        h0 = Parameter("h0", rng.standard_normal((3, 4)))
        params = _gru_params(rng, 2, 4)
        weights = Tensor(rng.standard_normal((3, 5, 4)))

        def build():
            return ops.sum_(ops.mul(ops.gru(x, h0, *params), weights))

        fd_gradient_check(build, [x, h0, *params], rng, n_probes=64)


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

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_one_graph_node(self, direction):
        x = Parameter("x", np.random.default_rng(48).standard_normal((2, 3, 8)))
        assert _is_one_node(ops.fir_resample_freq(x, direction), x)

    @pytest.mark.parametrize("direction, f", [("down", 2), ("down", 4), ("down", 64),
                                              ("up", 1), ("up", 2), ("up", 32)])
    def test_equals_composition_bitwise(self, direction, f):
        x = np.random.default_rng(49).standard_normal((3, 5, f))
        out = ops.fir_resample_freq(Tensor(x), direction).data
        np.testing.assert_array_equal(out, fir_resample_oracle(x, direction))

    @pytest.mark.parametrize("direction, f", [("down", 2), ("down", 4), ("down", 16),
                                              ("up", 1), ("up", 2), ("up", 8)])
    def test_is_adjoint(self, direction, f):
        """<A x, y> == <x, Aᵀ y> for the linear resampler A."""
        rng = np.random.default_rng(50)
        x = Parameter("x", rng.standard_normal((2, 3, f)))
        out = ops.fir_resample_freq(x, direction)
        y = rng.standard_normal(out.shape)
        ops.sum_(ops.mul(out, Tensor(y))).backward()
        np.testing.assert_allclose(np.sum(out.data * y), np.sum(x.data * x.grad), rtol=1e-12)


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


BLOCK = ops.ATTENTION_BLOCK


def _qkv(rng, lead, tq, tk, d=4, dv=5, scale=1.0):
    return (Parameter("q", scale * rng.standard_normal(lead + (tq, d))),
            Parameter("k", scale * rng.standard_normal(lead + (tk, d))),
            Parameter("v", rng.standard_normal(lead + (tk, dv))))


class TestAttention:
    @pytest.mark.parametrize("lead, tq, tk", [((), 6, 7), ((3,), 6, 5), ((), BLOCK + 1, 9)])
    def test_gradients_match_fd(self, lead, tq, tk):
        rng = np.random.default_rng(18)
        q, k, v = _qkv(rng, lead, tq, tk)
        g = Tensor(rng.standard_normal(lead + (tq, 5)))

        def build():
            return ops.sum_(ops.mul(ops.attention(q, k, v), g))

        fd_gradient_check(build, [q, k, v], rng)

    def test_adjoint(self):
        """<A v, g> == <v, A^T g>, and <(gq, gk), (dq, dk)> is the directional derivative."""
        rng = np.random.default_rng(19)
        q, k, v = _qkv(rng, (2,), 9, 11)
        g = rng.standard_normal((2, 9, 5))
        out = ops.attention(q, k, v)
        ops.sum_(ops.mul(out, Tensor(g))).backward()
        np.testing.assert_allclose(np.sum(out.data * g), np.sum(v.grad * v.data), rtol=1e-12)
        dq, dk, h = rng.standard_normal(q.shape), rng.standard_normal(k.shape), 1e-6

        def f(step):
            return np.sum(ops.attention(q.data + step * dq, k.data + step * dk, v.data).data * g)

        fd = (f(h) - f(-h)) / (2 * h)
        np.testing.assert_allclose(np.sum(q.grad * dq) + np.sum(k.grad * dk), fd, rtol=1e-7)

    @pytest.mark.parametrize("t", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_equals_single_block_oracle(self, t):
        rng = np.random.default_rng(20)
        q, k, v = (rng.standard_normal((t, 8)) for _ in range(3))
        out = ops.attention(q, k, v).data
        assert np.abs(out - attention_oracle(q, k, v)).max() <= 1e-13

    def test_rows_are_convex_weights(self):
        rng = np.random.default_rng(21)
        q, k, _ = _qkv(rng, (2,), BLOCK + 5, 13)
        out = ops.attention(q, k, np.ones((2, 13, 3))).data
        np.testing.assert_allclose(out, 1.0, rtol=0.0, atol=1e-14)

    def test_large_scores_stay_finite(self):
        rng = np.random.default_rng(22)
        q, k, v = _qkv(rng, (), 10, 12, scale=30.0)
        out = ops.attention(q, k, v)
        assert np.abs(q.data @ k.data.T).max() > 1e3
        ops.sum_(out).backward()
        for a in (out.data, q.grad, k.grad, v.grad):
            assert np.all(np.isfinite(a))
        assert np.all(out.data <= v.data.max(axis=0)) and np.all(out.data >= v.data.min(axis=0))

    def test_no_graph_and_no_retained_probabilities_under_no_grad(self, monkeypatch):
        """The transient is one block of scores (a quarter of the full matrix)
        per block worker, plus one."""
        rng = np.random.default_rng(23)
        t = 4 * BLOCK + 3
        q, k, v = _qkv(rng, (), t, t, d=2, dv=2)
        full = t * t * 8
        tracemalloc.start()
        try:
            for workers in (1, ops._workers()):
                monkeypatch.setattr(ops, "_workers", lambda: workers)
                with no_grad():
                    before = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    out = ops.attention(q, k, v)
                    held, peak = tracemalloc.get_traced_memory()
                assert out._node is None and not out.requires_grad
                assert held - before < full / 10
                assert peak - before < (1 + workers) * full / 4
            before = tracemalloc.get_traced_memory()[0]
            recorded = ops.attention(q, k, v)
            assert recorded.requires_grad
            assert tracemalloc.get_traced_memory()[0] - before >= full
        finally:
            tracemalloc.stop()


def _at_workers(monkeypatch, workers, run):
    """``run()`` with the block runner at ``workers`` workers (None: the default)."""
    with monkeypatch.context() as m:
        if workers is not None:
            m.setattr(ops, "_workers", lambda: workers)
        return run()


# A block budget that splits the (16, 40, 64) maps of the tests below.
SMALL_BUDGET = 64 << 10


def _assert_same_bits_at_any_worker_count(monkeypatch, run):
    """``run()``'s arrays are bit-identical at one worker, the default, and
    three (more than this host may have CPUs)."""
    ref = _at_workers(monkeypatch, 1, run)
    for workers in (None, 3):
        got = _at_workers(monkeypatch, workers, run)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


class TestBlockWorkers:
    def test_attention(self, monkeypatch):
        """Three query blocks: the no-grad and recorded outputs and all three vjp outputs."""
        t = 2 * BLOCK + 5

        def run():
            q, k, v = _qkv(np.random.default_rng(50), (2,), t, t, d=8, dv=6)
            with no_grad():
                plain = ops.attention(q, k, v).data
            out = ops.attention(q, k, v)
            g = np.random.default_rng(51).standard_normal(out.shape)
            return (plain, out.data, *out._node.vjp(g))

        _assert_same_bits_at_any_worker_count(monkeypatch, run)

    def test_conv2d_im2col(self, monkeypatch):
        """A padded 16->16 3x3 conv over three row blocks (28, 28 and 4 rows):
        the no-grad and recorded outputs and dX, all through im2col."""
        rng = np.random.default_rng(52)
        x, w = rng.standard_normal((16, 60, 64)), rng.standard_normal((16, 16, 3, 3))
        assert len(list(ops._row_blocks(16 * 9, 60, 64))) == 3
        g = rng.standard_normal((16, 60, 64))

        def run():
            with no_grad():
                plain = ops.conv2d(Tensor(x), Tensor(w), pad=(1, 1)).data
            out = ops.conv2d(Parameter("x", x), Tensor(w), pad=(1, 1))
            return plain, out.data, out._node.vjp(g)[0]

        _assert_same_bits_at_any_worker_count(monkeypatch, run)

    @pytest.mark.parametrize("groups_per_chunk", [1, 3, 5, 8])
    def test_group_norm_silu(self, monkeypatch, groups_per_chunk):
        """Eight groups of (8, 35, 256), the paper-scale map, at four budgets
        (3 groups is the default's): any chunking, evened out over any number
        of workers, gives the oracle's bits."""
        rng = np.random.default_rng(53)
        x = rng.standard_normal((64, 35, 256)) + 0.5
        gamma, beta = rng.standard_normal(64), rng.standard_normal(64)
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", groups_per_chunk * 8 * 8 * 35 * 256)
        ref = group_norm_silu_oracle(x, gamma, beta, 8)

        def run():
            with no_grad():
                plain = ops.group_norm_silu(Tensor(x), gamma, beta, 8).data
            return plain, ops.group_norm_silu(Parameter("x", x), gamma, beta, 8).data

        _assert_same_bits_at_any_worker_count(monkeypatch, run)
        assert all(np.array_equal(a, ref) for a in run())

    @pytest.mark.parametrize("op, ufunc", [(ops.add, np.add), (ops.mul, np.multiply)],
                             ids=["add", "mul"])
    def test_elementwise(self, monkeypatch, op, ufunc):
        """A (16, 40, 64) map over several leading-axis blocks, with a
        same-shape operand, a (C, 1, F) gate on either side, a (1, T, 1) one
        and a transposed view: the plain ufunc's bits."""
        rng = np.random.default_rng(54)
        x = rng.standard_normal((16, 40, 64))
        pairs = [(x, rng.standard_normal(x.shape)), (x, rng.standard_normal((16, 1, 64))),
                 (rng.standard_normal((16, 1, 64)), x), (x, rng.standard_normal((1, 40, 1))),
                 (x, rng.standard_normal((40, 16, 64)).transpose(1, 0, 2))]
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", SMALL_BUDGET)
        assert len(ops._blocks(16, x.nbytes // 16)) > 1

        def run():
            return [op(Parameter("a", a), b).data for a, b in pairs]

        _assert_same_bits_at_any_worker_count(monkeypatch, run)
        for got, (a, b) in zip(run(), pairs):
            assert got.flags.c_contiguous and np.array_equal(got, ufunc(a, b))

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_fir_resample_freq(self, monkeypatch, direction):
        """A (16, 40, 64) map over several leading-axis blocks: the oracle's bits."""
        x = np.random.default_rng(55).standard_normal((16, 40, 64))
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", SMALL_BUDGET)

        def run():
            with no_grad():
                return [ops.fir_resample_freq(Tensor(x), direction).data]

        _assert_same_bits_at_any_worker_count(monkeypatch, run)
        assert np.array_equal(run()[0], fir_resample_oracle(x, direction))

    @pytest.mark.parametrize("o", [16, 2], ids=["im2col", "taps"])
    def test_conv2d_bias(self, monkeypatch, o):
        """The bias added block by block, in both layouts, over several blocks:
        the bits of the biasless conv plus the bias, with and without a graph."""
        rng = np.random.default_rng(56)
        x, w = rng.standard_normal((16, 60, 64)), rng.standard_normal((o, 16, 3, 3))
        b = rng.standard_normal(o)
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", SMALL_BUDGET)
        if o == 2:
            assert 2 * 62 * 66 < 16 * 60 * 64 and len(list(ops._tap_windows(18, 62 * 66))) > 1
        else:
            assert len(list(ops._row_blocks(16 * 9, 60, 64))) > 1

        def run():
            with no_grad():
                plain = ops.conv2d(Tensor(x), w, b, pad=(1, 1)).data
                bare = ops.conv2d(Tensor(x), w, pad=(1, 1)).data
            recorded = ops.conv2d(Parameter("x", x), w, b, pad=(1, 1)).data
            return plain, recorded, bare + b[:, None, None]

        _assert_same_bits_at_any_worker_count(monkeypatch, run)
        plain, recorded, reference = run()
        assert np.array_equal(plain, reference) and np.array_equal(recorded, reference)

    def test_pointwise_channels(self, monkeypatch):
        """A 16->24 map over several 16-column panel blocks, with and without a
        bias: the bits of the one-block GEMM."""
        rng = np.random.default_rng(57)
        x, w, b = rng.standard_normal((16, 40, 64)), rng.standard_normal((24, 16)), rng.standard_normal(24)

        def run():
            return [ops.pointwise_channels(Parameter("x", x), w, bias).data for bias in (None, b)]

        whole = run()
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", SMALL_BUDGET)
        assert len(ops._blocks(40 * 64 // 16, 8 * 16 * 24)) > 1
        _assert_same_bits_at_any_worker_count(monkeypatch, run)
        for got, ref in zip(run(), whole):
            assert np.array_equal(got, ref)

    def test_no_query_rows_make_no_block(self):
        out = ops.attention(np.zeros((0, 4)), np.ones((5, 4)), np.ones((5, 3)))
        assert out.shape == (0, 3)

    def test_a_failing_block_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(ops, "_workers", lambda: 3)
        done = []

        def run(blocks):
            if blocks[0] == 1:
                raise RuntimeError("block 1")
            done.extend(blocks)

        with pytest.raises(RuntimeError, match="block 1"):
            ops._run_blocks(run, range(3))
        assert sorted(done) == [0, 2]


def _python(code):
    """Run ``code`` in a fresh interpreter that imports speechsr from this checkout."""
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_block_worker_that_splits_again_runs_inline():
    """A block that calls the runner from a pool thread runs its blocks there
    instead of waiting on parts queued behind its own. At two workers the
    pool has one thread, so a wait would never end."""
    code = """
import os, threading
from speechsr.engine import ops
ops._workers = lambda: 2
done = []
def inner(part):
    done.extend(part)
def outer(part):
    for i in part:
        ops._run_blocks(inner, [10 * i, 10 * i + 1])
runner = threading.Thread(target=ops._run_blocks, args=(outer, [1, 2]), daemon=True)
runner.start()
runner.join(30)
print("hung" if runner.is_alive() else sorted(done), flush=True)
os._exit(0)
"""
    assert _python(code) == "[10, 11, 20, 21]"


@pytest.mark.skipif(malloc_settings() is None, reason="no malloc thresholds were applied")
def test_a_steady_state_call_faults_few_pages():
    """Once the shapes repeat, a tiny no-grad 1 s ARCN forward and a tiny
    B=4 train step reuse the memory the previous call freed instead of
    faulting it back in (about 12,000 and 4,000-5,000 faults per call
    without the thresholds)."""
    code = """
import resource
import numpy as np
from speechsr.data import Batch
from speechsr.diffusion import NoiseSchedule, train_step
from speechsr.dsp import Waveform
from speechsr.engine import Adam, Ema, no_grad
from speechsr.networks import Arcn, TwoStageModel, tiny_arcn_config, tiny_dparn_config
from speechsr.resample import UpsamplingRatio, simulate_lr

def per_call(call, warm=2, calls=3):
    for _ in range(warm):
        call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        call()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls

rng = np.random.default_rng(3)
arcn = Arcn(tiny_arcn_config(), np.random.default_rng(1))
x = rng.standard_normal((3, 16000))
def forward():
    with no_grad():
        arcn.forward(x[0], x[1], x[2], UpsamplingRatio(2), 500.0, 16000)

model = TwoStageModel(tiny_arcn_config(), tiny_dparn_config(), seed=1)
opt, ema = Adam(model.params(), lr=1e-3), Ema(model.params(), decay=0.9)
hrs = [rng.standard_normal(4000) for _ in range(4)]
inps = [simulate_lr(Waveform(hr, 16000), UpsamplingRatio(2))[1].samples for hr in hrs]
batch = Batch(hr=tuple(hrs), inp=tuple(inps), ids=tuple("abcd"), sample_rate=16000)
step_rng = np.random.default_rng(5)
def step():
    train_step(model, batch, NoiseSchedule(), opt, ema, step_rng, UpsamplingRatio(2))

print(per_call(forward), per_call(step))
"""
    forward, step = map(float, _python(code).split())
    assert forward <= 100, forward
    assert step <= 100, step


def test_importing_the_engine_starts_no_thread():
    """The block runner's threads start at the first split op, so commands
    that never run a model pay nothing for them."""
    assert _python("import threading, speechsr.engine; print(threading.active_count())") == "1"


def test_a_forked_child_runs_split_ops():
    """After a split op, a forked child runs the same op and exits 0: it
    makes its own pool instead of waiting on its parent's threads."""
    code = f"""
import os, time
import numpy as np
from speechsr.engine import ops
q = np.random.default_rng(0).standard_normal(({3 * BLOCK}, 8))
ops.attention(q, q, q)
pid = os.fork()
if pid == 0:
    ops.attention(q, q, q)
    os._exit(0)
deadline = time.monotonic() + 60
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print(os.waitstatus_to_exitcode(status))
        break
    time.sleep(0.05)
else:
    os.kill(pid, 9)
    print("timeout")
"""
    assert _python(code) == "0"


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_norm_raises_before_scaling(self, bad):
        p, q = Parameter("p", np.zeros(2)), Parameter("q", np.zeros(2))
        p.grad, q.grad = np.array([3.0, 4.0]), np.array([bad, 1.0])
        with pytest.raises(NumericsError, match=r"\['q'\]"):
            clip_global_norm([p, q], 1.0)
        np.testing.assert_array_equal(p.grad, [3.0, 4.0])
        np.testing.assert_array_equal(q.grad, [bad, 1.0])


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
                loss = ops.sum_(ops.abs_(ops.silu(ops.linear(x, w))))
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
