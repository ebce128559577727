"""Model architectures: the predictive DPARN-lite and the diffusion ARCN.

DPARN-lite processes the time-domain signal as overlapping chunks of
frames with alternating intra/inter-chunk recurrence and attention, each
sub-stage residual, and is residual around its input at the top level.

ARCN is a UNet-style encoder/decoder over cropped complex spectrograms
(real/imaginary parts as channels) whose attentional residual blocks are
conditioned on the diffusion-step embedding and the lossmap; its output
is added to the interpolated low-resolution input. ARCN derives its lossmap,
a row per scale marking the bins above the low-rate Nyquist, from the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import FrameConfig, hann_window, synthesis_gain
from .engine import Parameter, Tensor, ops
from .engine.tensor import as_tensor
from .resample import UpsamplingRatio


def _init(rng, shape, fan_in) -> np.ndarray:
    return rng.standard_normal(shape) / np.sqrt(max(fan_in, 1))


def _check_sizes(cfg, least: int, names: str) -> None:
    """Refuse any of the space-separated fields ``names`` of ``cfg`` below ``least``."""
    for name in names.split():
        if getattr(cfg, name) < least:
            raise ValueError(f"{name} must be at least {least}, got {getattr(cfg, name)}")


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


class Module:
    """Base of every layer and model; ``params()`` is derived, never hand-kept.

    ``params()`` returns each ``Parameter`` the instance holds, depth first in
    attribute-assignment order: a ``Parameter`` attribute is taken as is, a
    ``Module`` or a list of ``Module``s is walked, and anything else (``None``,
    configs, sizes) is skipped. The order is a contract: ``clip_global_norm``
    sums the gradient norm in it, so reordering assignments in ``__init__``
    changes training bits.
    """

    def params(self) -> list[Parameter]:
        out = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Parameter):
                    out.append(item)
                elif isinstance(item, Module):
                    out += item.params()
        return out


class Linear(Module):
    def __init__(self, name, d_in, d_out, rng, init_scale=1.0):
        self.w = Parameter(f"{name}.w", init_scale * _init(rng, (d_out, d_in), d_in))
        self.b = Parameter(f"{name}.b", np.zeros(d_out))

    def __call__(self, x):
        return ops.linear(x, self.w, self.b)


class Conv2d(Module):
    def __init__(self, name, c_in, c_out, kh, kw, rng, pad=None, init_scale=1.0):
        fan_in = c_in * kh * kw
        self.w = Parameter(f"{name}.w",
                           init_scale * _init(rng, (c_out, c_in, kh, kw), fan_in))
        self.b = Parameter(f"{name}.b", np.zeros(c_out))
        self.pad = pad if pad is not None else ((kh - 1) // 2, (kw - 1) // 2)

    def __call__(self, x):
        return ops.conv2d(x, self.w, self.b, pad=self.pad)


class Pointwise(Module):
    """1x1 convolution over channels."""

    def __init__(self, name, c_in, c_out, rng, bias_init=0.0, init_scale=1.0):
        self.w = Parameter(f"{name}.w", init_scale * _init(rng, (c_out, c_in), c_in))
        self.b = Parameter(f"{name}.b", np.full(c_out, float(bias_init)))

    def __call__(self, x):
        return ops.pointwise_channels(x, self.w, self.b)


class GroupNorm(Module):
    """Group normalization with affine, followed by SiLU: returns the activated map."""

    def __init__(self, name, channels, groups):
        if channels % groups != 0:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels))
        self.groups = groups

    def __call__(self, x):
        return ops.group_norm_silu(x, self.gamma, self.beta, self.groups)


class Gru(Module):
    """Unidirectional GRU over (batch, seq, features)."""

    def __init__(self, name, d_in, hidden, rng):
        self.hidden = hidden
        self.w_ih = Parameter(f"{name}.w_ih", _init(rng, (3 * hidden, d_in), d_in))
        self.w_hh = Parameter(f"{name}.w_hh", _init(rng, (3 * hidden, hidden), hidden))
        self.b_ih = Parameter(f"{name}.b_ih", np.zeros(3 * hidden))
        self.b_hh = Parameter(f"{name}.b_hh", np.zeros(3 * hidden))

    def __call__(self, x):
        h0 = Tensor(np.zeros((x.shape[0], self.hidden)))
        return ops.gru(x, h0, self.w_ih, self.w_hh, self.b_ih, self.b_hh)


class SeqAttention(Module):
    """Self-attention over axis 1 of (batch, seq, d), residual merge.

    ``x + ops.attention(q, k, v)`` with linear Q, K (d -> embed) and V (d -> d);
    the batch axis is carried by the op.

    Q/K weights start small so the score matrix begins unsaturated; a
    unit-scale init drives the softmax into a hard, gradient-free argmax.
    """

    def __init__(self, name, d, embed, rng):
        self.q = Linear(f"{name}.q", d, embed, rng, init_scale=0.1)
        self.k = Linear(f"{name}.k", d, embed, rng, init_scale=0.1)
        self.v = Linear(f"{name}.v", d, d, rng)

    def __call__(self, x):
        return ops.add(x, ops.attention(self.q(x), self.k(x), self.v(x)))


class FrameAttention(Module):
    """Attention over time frames of a (C, T, F) map.

    Pointwise convolutions give Q, K of (E, T, F) and V of (C, T, F). With
    the channel-frequency axes flattened into frame vectors, one
    ``ops.attention`` over the T frames is added back to the input.
    """

    def __init__(self, name, channels, embed, rng):
        # Small Q/K init keeps the (embed * F)-dim frame scores unsaturated.
        self.q = Pointwise(f"{name}.q", channels, embed, rng, init_scale=0.1)
        self.k = Pointwise(f"{name}.k", channels, embed, rng, init_scale=0.1)
        self.v = Pointwise(f"{name}.v", channels, channels, rng)

    def __call__(self, x):
        c, t, f = x.shape
        # The projections are arguments only, so they die when attention returns.
        att = ops.attention(*(proj(x).transpose(1, 0, 2).reshape(t, -1)
                              for proj in (self.q, self.k, self.v)))
        return ops.add(x, att.reshape(t, c, f).transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# time-step embedding
# ---------------------------------------------------------------------------


class TimeEmbedding(Module):
    """``dim`` sinusoidal features (even) through linear -> SiLU -> linear to ``out``."""

    def __init__(self, name, dim, out, rng):
        self.dim = dim
        self.lin1 = Linear(f"{name}.lin1", dim, out, rng)
        self.lin2 = Linear(f"{name}.lin2", out, out, rng)

    def fourier(self, step: float) -> np.ndarray:
        if not (np.isfinite(step) and step >= 0.0):
            raise ValueError(f"step must be finite and nonnegative, got {step}")
        half = self.dim // 2
        if half == 1:
            omega = np.ones(1)
        else:
            omega = 10.0 ** (-4.0 * np.arange(half) / (half - 1))
        return np.concatenate([np.sin(omega * step), np.cos(omega * step)])

    def __call__(self, step: float) -> Tensor:
        return self.lin2(ops.silu(self.lin1(Tensor(self.fourier(step)))))


# ---------------------------------------------------------------------------
# ARCN
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcnConfig:
    """ARCN sizes; the decoder mirrors the encoder, and the network models the
    ``frame_len // 2`` bins below Nyquist of the ``frame_ms`` STFT frame, hopped by a quarter."""

    base_channels: int = 64
    input_conv_kernel: int = 7
    encoder_blocks: int = 5
    attention_embed: int = 5
    norm_groups: int = 8
    frame_ms: float = 32.0
    temb_dim: int = 128       # sinusoidal feature count (even)
    temb_out: int = 256       # width after the two linear layers

    def __post_init__(self):
        _check_sizes(self, 1, "base_channels input_conv_kernel attention_embed norm_groups"
                              " temb_out")
        _check_sizes(self, 0, "encoder_blocks")
        if self.input_conv_kernel % 2 == 0:
            raise ValueError(f"input_conv_kernel must be odd, got {self.input_conv_kernel}")
        if self.base_channels % self.norm_groups != 0:
            raise ValueError("base_channels must be divisible by norm_groups")
        if self.temb_dim % 2 != 0 or self.temb_dim < 2:
            raise ValueError(f"temb_dim must be even and >= 2, got {self.temb_dim}")
        FrameConfig(self.frame_ms)  # finite and positive


def tiny_arcn_config(**overrides) -> ArcnConfig:
    """Desk-scale configuration used by tests and the toy overfit run."""
    defaults = dict(base_channels=8, input_conv_kernel=3, encoder_blocks=3, attention_embed=2,
                    norm_groups=4, frame_ms=8.0, temb_dim=32, temb_out=48)
    defaults.update(overrides)
    return ArcnConfig(**defaults)


class ResidualLayer(Module):
    """conv(1x3) -> +t_emb -> *lossmap -> GN+SiLU -> conv(1x3) -> GN+SiLU, with skip.

    The time embedding is added to conv1's (C,) bias rather than to its output map.
    """

    def __init__(self, name, c_in, c_out, temb_out, groups, rng):
        self.conv1 = Conv2d(f"{name}.conv1", c_in, c_out, 1, 3, rng, pad=(0, 1))
        self.conv2 = Conv2d(f"{name}.conv2", c_out, c_out, 1, 3, rng, pad=(0, 1))
        self.norm1 = GroupNorm(f"{name}.norm1", c_out, groups)
        self.norm2 = GroupNorm(f"{name}.norm2", c_out, groups)
        self.temb_proj = Linear(f"{name}.temb", temb_out, c_out, rng)
        # Bias starts at 1 so the multiplicative lossmap gate is initially
        # transparent outside the super-resolution region.
        self.lossmap_conv = Pointwise(f"{name}.lossmap", 1, c_out, rng, bias_init=1.0,
                                      init_scale=0.5)
        self.skip = Pointwise(f"{name}.skip", c_in, c_out, rng) if c_in != c_out else None

    def __call__(self, x, temb, lossmap):
        """``lossmap`` is a (F,) row; its (C, 1, F) gate broadcasts over frames."""
        conv1 = self.conv1
        h = ops.conv2d(x, conv1.w, ops.add(conv1.b, self.temb_proj(temb)), pad=conv1.pad)
        h = ops.mul(h, self.lossmap_conv(lossmap.reshape(1, 1, -1)))
        # One rebinding per layer, so each map dies after its last reader.
        h = self.norm1(h)
        h = self.conv2(h)
        h = self.norm2(h)
        base = x if self.skip is None else self.skip(x)
        return ops.add(base, h)


class ResidualBlock(Module):
    """Two residual layers plus frame attention, then an optional resample."""

    def __init__(self, name, c_in, c_out, cfg: ArcnConfig, direction, rng):
        if direction not in ("encoder", "decoder", "bottleneck"):
            raise ValueError(f"bad direction {direction!r}")
        self.direction = direction
        self.layer1 = ResidualLayer(f"{name}.layer1", c_in, c_out, cfg.temb_out,
                                    cfg.norm_groups, rng)
        self.layer2 = ResidualLayer(f"{name}.layer2", c_out, c_out, cfg.temb_out,
                                    cfg.norm_groups, rng)
        self.attention = FrameAttention(f"{name}.attn", c_out, cfg.attention_embed, rng)

    def stages(self, temb, lossmap) -> list:
        """The block as functions of one map, applied in order.

        A caller that rebinds its map to each stage's result holds no map
        past its last reader: the block's input dies once ``layer1`` has
        added it to its skip.
        """
        stages = [lambda h: self.layer1(h, temb, lossmap),
                  lambda h: self.layer2(h, temb, lossmap),
                  self.attention]
        if self.direction != "bottleneck":
            resample = "down" if self.direction == "encoder" else "up"
            stages.append(lambda h: ops.fir_resample_freq(h, resample))
        return stages


class Arcn(Module):
    """Diffusion model over cropped complex spectrograms with a residual output."""

    def __init__(self, cfg: ArcnConfig, rng):
        self.cfg = cfg
        c = cfg.base_channels
        k = cfg.input_conv_kernel
        self.time_embedding = TimeEmbedding("arcn.temb", cfg.temb_dim, cfg.temb_out, rng)
        self.in_conv = Conv2d("arcn.in_conv", 6, c, k, k, rng)
        self.encoder = [
            ResidualBlock(f"arcn.enc{i}", c, c, cfg, "encoder", rng)
            for i in range(cfg.encoder_blocks)
        ]
        self.bottleneck = ResidualBlock("arcn.mid0", c, c, cfg, "bottleneck", rng)
        self.decoder = [
            ResidualBlock(f"arcn.dec{i}", 2 * c, c, cfg, "decoder", rng)
            for i in range(cfg.encoder_blocks)
        ]
        self.final = ResidualBlock("arcn.final", c, c, cfg, "bottleneck", rng)
        # Small head: training starts near the residual identity s_inp.
        self.out_conv = Conv2d("arcn.out_conv", c, 2, k, k, rng, init_scale=0.05)

    def frame_geometry(self, sample_rate: int) -> int:
        """The STFT frame length at ``sample_rate``; ARCN sees ``frame_len // 2`` bins."""
        cfg = self.cfg
        frame_len = FrameConfig(cfg.frame_ms).frame_len(sample_rate)
        if (frame_len // 2) % (2 ** cfg.encoder_blocks) != 0:
            raise ValueError(
                f"frame_ms {cfg.frame_ms} gives {frame_len // 2} bins at {sample_rate} Hz,"
                f" which 2^encoder_blocks = {2 ** cfg.encoder_blocks} does not divide"
            )
        return frame_len

    def lossmap_pyramid(self, ratio: UpsamplingRatio, bins: int) -> list[np.ndarray]:
        """Lossmap rows, one per scale: ones mark bins above the low-rate Nyquist.

        Bin f of the ``2 * bins``-sample frame is centred at f * rate / (2 * bins),
        which exceeds the low-rate Nyquist rate / (2 * r) exactly when
        f * r > bins. Each coarser level max-pools pairs of bins of the level above.
        """
        levels = [(np.arange(bins) * ratio.ratio > bins).astype(np.float64)]
        for _ in range(self.cfg.encoder_blocks):
            levels.append(levels[-1].reshape(-1, 2).max(axis=1))
        return levels

    def forward(self, x_t, s_pred, s_inp, ratio: UpsamplingRatio, step: float,
                sample_rate: int) -> Tensor:
        """Estimate the clean signal; returns s_inp + synthesized residual."""
        x_t, s_pred, s_inp = as_tensor(x_t), as_tensor(s_pred), as_tensor(s_inp)
        n = x_t.shape[0]
        if not (s_pred.shape[0] == n and s_inp.shape[0] == n):
            raise ValueError(
                f"length mismatch: {x_t.shape[0]}, {s_pred.shape[0]}, {s_inp.shape[0]}"
            )
        frame_len = self.frame_geometry(sample_rate)
        f_net = frame_len // 2
        chans = []
        for wav in (x_t, s_pred, s_inp):
            re, im = ops.stft_pair(wav, frame_len)
            chans.append(re[:, :f_net].reshape(1, -1, f_net))
            chans.append(im[:, :f_net].reshape(1, -1, f_net))
        x = ops.concat(chans, axis=0)
        lm_levels = self.lossmap_pyramid(ratio, f_net)
        temb = self.time_embedding(step)

        h = self.in_conv(x)
        # Drop each map after its last reader: the input stack here, each
        # skip once the decoder has concatenated it, and each block's input
        # once its first layer has read it (``h`` is rebound stage by stage).
        del x, chans, re, im
        depth = self.cfg.encoder_blocks
        plan = ([(block, i) for i, block in enumerate(self.encoder)]
                + [(self.bottleneck, depth)]
                + [(block, depth - j) for j, block in enumerate(self.decoder)]
                + [(self.final, 0)])
        skips = []
        for block, scale in plan:
            if block.direction == "decoder":
                h = ops.concat([h, skips.pop()], axis=0)
            for stage in block.stages(temb, Tensor(lm_levels[scale])):
                h = stage(h)
            if block.direction == "encoder":
                skips.append(h)
        out = self.out_conv(h)
        # The Nyquist bin, which the network does not model, is synthesized as zero.
        residual = ops.istft_pair(out[0], out[1], frame_len, n)
        return ops.add(s_inp, residual)


# ---------------------------------------------------------------------------
# DPARN-lite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DparnConfig:
    """DPARN sizes; frames and chunks overlap by half, so both lengths are even."""

    frame_size: int = 256
    feature_dim: int = 64
    chunk_len: int = 32
    attention_embed: int = 16

    def __post_init__(self):
        _check_sizes(self, 1, "feature_dim attention_embed")
        for name in ("frame_size", "chunk_len"):
            if getattr(self, name) < 2 or getattr(self, name) % 2 != 0:
                raise ValueError(f"{name} must be even and at least 2, got {getattr(self, name)}")


def tiny_dparn_config(**overrides) -> DparnConfig:
    defaults = dict(frame_size=256, feature_dim=24, chunk_len=16, attention_embed=8)
    defaults.update(overrides)
    return DparnConfig(**defaults)


class DparnBlock(Module):
    def __init__(self, name, d, embed, rng):
        self.intra_rnn = Gru(f"{name}.intra_rnn", d, d, rng)
        self.intra_proj = Linear(f"{name}.intra_proj", d, d, rng)
        self.intra_attn = SeqAttention(f"{name}.intra_attn", d, embed, rng)
        self.inter_rnn = Gru(f"{name}.inter_rnn", d, d, rng)
        self.inter_proj = Linear(f"{name}.inter_proj", d, d, rng)
        self.inter_attn = SeqAttention(f"{name}.inter_attn", d, embed, rng)

    def __call__(self, chunks):
        h = ops.add(chunks, self.intra_proj(self.intra_rnn(chunks)))
        h = self.intra_attn(h)
        ht = h.transpose(1, 0, 2)  # sequences along the chunk axis
        ht = ops.add(ht, self.inter_proj(self.inter_rnn(ht)))
        ht = self.inter_attn(ht)
        return ht.transpose(1, 0, 2)


class Dparn(Module):
    """Predictive stage: dual-path recurrent/attentive refinement, residual."""

    BLOCKS = 2

    def __init__(self, cfg: DparnConfig, rng):
        self.cfg = cfg
        d = cfg.feature_dim
        self.in_proj = Linear("dparn.in_proj", cfg.frame_size, d, rng)
        self.blocks = [
            DparnBlock(f"dparn.block{i}", d, cfg.attention_embed, rng)
            for i in range(self.BLOCKS)
        ]
        # Small head: the top-level residual starts near s_pred = s_inp.
        self.out_proj = Linear("dparn.out_proj", d, cfg.frame_size, rng, init_scale=0.05)

    def forward(self, s_inp) -> Tensor:
        s_inp = as_tensor(s_inp)
        n = s_inp.shape[0]
        cfg = self.cfg
        if n < cfg.frame_size:
            raise ValueError(f"input length {n} shorter than one frame ({cfg.frame_size})")
        frame_hop, chunk_hop = cfg.frame_size // 2, cfg.chunk_len // 2
        window = Tensor(hann_window(cfg.frame_size))
        frames = ops.frame_rows(s_inp, cfg.frame_size, frame_hop)
        h = self.in_proj(ops.mul(frames, window))
        t_frames = h.shape[0]
        chunks = ops.frame_rows(h, cfg.chunk_len, chunk_hop)
        for block in self.blocks:
            chunks = block(chunks)
        h = ops.overlap_add_rows(chunks, chunk_hop, t_frames)
        h = ops.mul(h, 0.5)  # half-overlapped chunks: each frame is summed twice
        out_frames = ops.mul(self.out_proj(h), window)
        acc = ops.overlap_add_rows(out_frames, frame_hop, n)
        gain = synthesis_gain(t_frames, cfg.frame_size, frame_hop, n)
        net = ops.mul(acc, Tensor(gain))
        return ops.add(s_inp, net)


# ---------------------------------------------------------------------------
# combined model
# ---------------------------------------------------------------------------


class TwoStageModel(Module):
    """DPARN-lite predictive stage plus ARCN diffusion stage."""

    def __init__(self, arcn_cfg: ArcnConfig, dparn_cfg: DparnConfig, seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
        self.dparn = Dparn(dparn_cfg, rng)
        self.arcn = Arcn(arcn_cfg, rng)
