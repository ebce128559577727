"""Model architectures: the predictive DPARN-lite and the diffusion ARCN.

DPARN-lite processes the time-domain signal as overlapping chunks of
frames with alternating intra/inter-chunk recurrence and attention, each
sub-stage residual, and is residual around its input at the top level.

ARCN is a UNet-style encoder/decoder over cropped complex spectrograms
(real/imaginary parts as channels) whose attentional residual blocks are
conditioned on the diffusion-step embedding and the lossmap; its output
is added to the interpolated low-resolution input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import FrameConfig, hann_window, n_frames_for, synthesis_gain
from .engine import Parameter, Tensor, ops
from .engine.tensor import as_tensor


def _init(rng, shape, fan_in) -> np.ndarray:
    return rng.standard_normal(shape) / np.sqrt(max(fan_in, 1))


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


class Linear:
    def __init__(self, name, d_in, d_out, rng, bias=True, init_scale=1.0):
        self.w = Parameter(f"{name}.w", init_scale * _init(rng, (d_out, d_in), d_in))
        self.b = Parameter(f"{name}.b", np.zeros(d_out)) if bias else None

    def __call__(self, x):
        return ops.linear(x, self.w, self.b)

    def params(self):
        return [self.w] + ([self.b] if self.b is not None else [])


class Conv2d:
    def __init__(self, name, c_in, c_out, kh, kw, rng, pad=None, init_scale=1.0):
        fan_in = c_in * kh * kw
        self.w = Parameter(f"{name}.w",
                           init_scale * _init(rng, (c_out, c_in, kh, kw), fan_in))
        self.b = Parameter(f"{name}.b", np.zeros(c_out))
        self.pad = pad if pad is not None else ((kh - 1) // 2, (kw - 1) // 2)

    def __call__(self, x):
        return ops.conv2d(x, self.w, self.b, pad=self.pad)

    def params(self):
        return [self.w, self.b]


class Pointwise:
    """1x1 convolution over channels."""

    def __init__(self, name, c_in, c_out, rng, bias_init=0.0, init_scale=1.0):
        self.w = Parameter(f"{name}.w", init_scale * _init(rng, (c_out, c_in), c_in))
        self.b = Parameter(f"{name}.b", np.full(c_out, float(bias_init)))

    def __call__(self, x):
        return ops.pointwise_channels(x, self.w, self.b)

    def params(self):
        return [self.w, self.b]


class GroupNorm:
    def __init__(self, name, channels, groups):
        if channels % groups != 0:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels))
        self.groups = groups

    def __call__(self, x):
        return ops.group_norm(x, self.gamma, self.beta, self.groups)

    def params(self):
        return [self.gamma, self.beta]


class Gru:
    """Unidirectional GRU over (batch, seq, features)."""

    def __init__(self, name, d_in, hidden, rng):
        self.hidden = hidden
        self.w_ih = Parameter(f"{name}.w_ih", _init(rng, (3 * hidden, d_in), d_in))
        self.w_hh = Parameter(f"{name}.w_hh", _init(rng, (3 * hidden, hidden), hidden))
        self.b_ih = Parameter(f"{name}.b_ih", np.zeros(3 * hidden))
        self.b_hh = Parameter(f"{name}.b_hh", np.zeros(3 * hidden))

    def __call__(self, x):
        b, s, _ = x.shape
        h = Tensor(np.zeros((b, self.hidden)))
        outs = []
        for t in range(s):
            xt = x[:, t, :]
            h = ops.gru_cell(xt, h, self.w_ih, self.w_hh, self.b_ih, self.b_hh)
            outs.append(h.reshape(b, 1, self.hidden))
        return ops.concat(outs, axis=1)

    def params(self):
        return [self.w_ih, self.w_hh, self.b_ih, self.b_hh]


class SeqAttention:
    """Dot-product self-attention over axis 1 of (batch, seq, d), residual merge.

    Q/K weights start small so the score matrix begins unsaturated; a
    unit-scale init drives the softmax into a hard, gradient-free argmax.
    """

    def __init__(self, name, d, embed, rng):
        self.q = Linear(f"{name}.q", d, embed, rng, init_scale=0.1)
        self.k = Linear(f"{name}.k", d, embed, rng, init_scale=0.1)
        self.v = Linear(f"{name}.v", d, d, rng)

    def __call__(self, x):
        q, k, v = self.q(x), self.k(x), self.v(x)
        scores = ops.matmul(q, k.transpose(0, 2, 1))
        return ops.add(x, ops.matmul(ops.softmax_last(scores), v))

    def params(self):
        return self.q.params() + self.k.params() + self.v.params()


class FrameAttention:
    """Attention over time frames of a (C, T, F) map.

    Pointwise convolutions give Q, K of (E, T, F) and V of (C, T, F); after
    flattening the channel-frequency axes, frame-by-frame scores are
    softmaxed and applied to V, and the result is added back to the input.
    """

    def __init__(self, name, channels, embed, rng):
        # Small Q/K init keeps the (embed * F)-dim frame scores unsaturated.
        self.q = Pointwise(f"{name}.q", channels, embed, rng, init_scale=0.1)
        self.k = Pointwise(f"{name}.k", channels, embed, rng, init_scale=0.1)
        self.v = Pointwise(f"{name}.v", channels, channels, rng)

    def __call__(self, x):
        c, t, f = x.shape
        q2 = self.q(x).transpose(1, 0, 2).reshape(t, -1)
        k2 = self.k(x).transpose(1, 0, 2).reshape(t, -1)
        v2 = self.v(x).transpose(1, 0, 2).reshape(t, -1)
        scores = ops.matmul(q2, k2.transpose(1, 0))
        att = ops.matmul(ops.softmax_last(scores), v2)
        return ops.add(x, att.reshape(t, c, f).transpose(1, 0, 2))

    def params(self):
        return self.q.params() + self.k.params() + self.v.params()


# ---------------------------------------------------------------------------
# time-step embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeEmbeddingConfig:
    dim: int = 128        # sinusoidal feature count (even)
    out: int = 256        # width after the two linear layers
    max_steps: int = 1000

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 2:
            raise ValueError(f"embedding dim must be even and >= 2, got {self.dim}")


class TimeEmbedding:
    """Sinusoidal features through linear -> SiLU -> linear."""

    def __init__(self, name, cfg: TimeEmbeddingConfig, rng):
        self.cfg = cfg
        self.lin1 = Linear(f"{name}.lin1", cfg.dim, cfg.out, rng)
        self.lin2 = Linear(f"{name}.lin2", cfg.out, cfg.out, rng)

    def fourier(self, step: float) -> np.ndarray:
        cfg = self.cfg
        if not 0.0 <= step <= cfg.max_steps:
            raise ValueError(f"step {step} outside [0, {cfg.max_steps}]")
        half = cfg.dim // 2
        if half == 1:
            omega = np.ones(1)
        else:
            omega = 10.0 ** (-4.0 * np.arange(half) / (half - 1))
        return np.concatenate([np.sin(omega * step), np.cos(omega * step)])

    def __call__(self, step: float) -> Tensor:
        return self.lin2(ops.silu(self.lin1(Tensor(self.fourier(step)))))

    def params(self):
        return self.lin1.params() + self.lin2.params()


# ---------------------------------------------------------------------------
# ARCN
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArcnConfig:
    base_channels: int = 64
    input_conv_kernel: int = 7
    encoder_blocks: int = 5
    decoder_blocks: int = 5
    bottleneck_blocks: int = 1
    attention_embed: int = 5
    norm_groups: int = 8
    network_bins: int = 256
    stft: FrameConfig = field(default_factory=FrameConfig)
    temb: TimeEmbeddingConfig = field(default_factory=TimeEmbeddingConfig)

    def __post_init__(self):
        if self.encoder_blocks != self.decoder_blocks:
            raise ValueError("encoder and decoder block counts must match")
        if self.network_bins % (2 ** self.encoder_blocks) != 0:
            raise ValueError(
                f"network_bins {self.network_bins} not divisible by 2^{self.encoder_blocks}"
            )
        if self.base_channels % self.norm_groups != 0:
            raise ValueError("base_channels must be divisible by norm_groups")


def tiny_arcn_config(**overrides) -> ArcnConfig:
    """Desk-scale configuration used by tests and the toy overfit run."""
    defaults = dict(
        base_channels=8,
        input_conv_kernel=3,
        encoder_blocks=3,
        decoder_blocks=3,
        attention_embed=2,
        norm_groups=4,
        network_bins=64,
        stft=FrameConfig(frame_ms=8.0, hop_ms=2.0),
        temb=TimeEmbeddingConfig(dim=32, out=48),
    )
    defaults.update(overrides)
    return ArcnConfig(**defaults)


class ResidualLayer:
    """conv(1x3) -> +t_emb -> *lossmap -> GN -> SiLU -> conv(1x3) -> GN -> SiLU, with skip."""

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
        c_out = self.conv1.w.shape[0]
        h = self.conv1(x)
        h = ops.add(h, self.temb_proj(temb).reshape(c_out, 1, 1))
        h = ops.mul(h, self.lossmap_conv(lossmap.reshape(1, *lossmap.shape)))
        h = ops.silu(self.norm1(h))
        h = ops.silu(self.norm2(self.conv2(h)))
        base = x if self.skip is None else self.skip(x)
        return ops.add(base, h)

    def params(self):
        out = self.conv1.params() + self.conv2.params()
        out += self.norm1.params() + self.norm2.params()
        out += self.temb_proj.params() + self.lossmap_conv.params()
        if self.skip is not None:
            out += self.skip.params()
        return out


class ResidualBlock:
    """Two residual layers plus frame attention, then an optional resample."""

    def __init__(self, name, c_in, c_out, cfg: ArcnConfig, direction, rng):
        if direction not in ("encoder", "decoder", "bottleneck"):
            raise ValueError(f"bad direction {direction!r}")
        self.direction = direction
        self.layer1 = ResidualLayer(f"{name}.layer1", c_in, c_out, cfg.temb.out,
                                    cfg.norm_groups, rng)
        self.layer2 = ResidualLayer(f"{name}.layer2", c_out, c_out, cfg.temb.out,
                                    cfg.norm_groups, rng)
        self.attention = FrameAttention(f"{name}.attn", c_out, cfg.attention_embed, rng)

    def __call__(self, x, temb, lossmap):
        h = self.layer1(x, temb, lossmap)
        h = self.layer2(h, temb, lossmap)
        h = self.attention(h)
        if self.direction == "encoder":
            return ops.fir_resample_freq(h, "down")
        if self.direction == "decoder":
            return ops.fir_resample_freq(h, "up")
        return h

    def params(self):
        return self.layer1.params() + self.layer2.params() + self.attention.params()


class Arcn:
    """Diffusion model over cropped complex spectrograms with a residual output."""

    def __init__(self, cfg: ArcnConfig, rng, name="arcn"):
        self.cfg = cfg
        c = cfg.base_channels
        k = cfg.input_conv_kernel
        self.time_embedding = TimeEmbedding(f"{name}.temb", cfg.temb, rng)
        self.in_conv = Conv2d(f"{name}.in_conv", 6, c, k, k, rng)
        self.encoder = [
            ResidualBlock(f"{name}.enc{i}", c, c, cfg, "encoder", rng)
            for i in range(cfg.encoder_blocks)
        ]
        self.bottleneck = [
            ResidualBlock(f"{name}.mid{i}", c, c, cfg, "bottleneck", rng)
            for i in range(cfg.bottleneck_blocks)
        ]
        self.decoder = [
            ResidualBlock(f"{name}.dec{i}", 2 * c, c, cfg, "decoder", rng)
            for i in range(cfg.decoder_blocks)
        ]
        self.final = ResidualBlock(f"{name}.final", c, c, cfg, "bottleneck", rng)
        # Small head: training starts near the residual identity s_inp.
        self.out_conv = Conv2d(f"{name}.out_conv", c, 2, k, k, rng, init_scale=0.05)

    def frame_geometry(self, sample_rate: int) -> tuple[int, int]:
        frame_len = self.cfg.stft.frame_len(sample_rate)
        if frame_len // 2 != self.cfg.network_bins:
            raise ValueError(
                f"network_bins {self.cfg.network_bins} requires frame {2 * self.cfg.network_bins}"
                f" samples, got {frame_len} at {sample_rate} Hz"
            )
        return frame_len, self.cfg.stft.hop(sample_rate)

    def lossmap_pyramid(self, mask: np.ndarray) -> list[np.ndarray]:
        """Max-pool the (T, F_net) lossmap along frequency, one level per scale."""
        levels = [mask]
        for _ in range(self.cfg.encoder_blocks):
            m = levels[-1]
            levels.append(m.reshape(m.shape[0], -1, 2).max(axis=2))
        return levels

    def forward(self, x_t, s_pred, s_inp, lossmap: np.ndarray, step: float,
                sample_rate: int) -> Tensor:
        """Estimate the clean signal; returns s_inp + synthesized residual."""
        x_t, s_pred, s_inp = as_tensor(x_t), as_tensor(s_pred), as_tensor(s_inp)
        n = x_t.shape[0]
        if not (s_pred.shape[0] == n and s_inp.shape[0] == n):
            raise ValueError(
                f"length mismatch: {x_t.shape[0]}, {s_pred.shape[0]}, {s_inp.shape[0]}"
            )
        frame_len, hop = self.frame_geometry(sample_rate)
        f_net = self.cfg.network_bins
        chans = []
        for wav in (x_t, s_pred, s_inp):
            re, im = ops.stft_pair(wav, frame_len, hop)
            chans.append(re[:, :f_net].reshape(1, -1, f_net))
            chans.append(im[:, :f_net].reshape(1, -1, f_net))
        x = ops.concat(chans, axis=0)
        t_frames = x.shape[1]
        if lossmap.shape != (t_frames, f_net):
            raise ValueError(f"lossmap shape {lossmap.shape} != {(t_frames, f_net)}")
        lm_levels = self.lossmap_pyramid(lossmap)
        temb = self.time_embedding(step)

        h = self.in_conv(x)
        skips = []
        for i, block in enumerate(self.encoder):
            h = block(h, temb, Tensor(lm_levels[i]))
            skips.append(h)
        for i, block in enumerate(self.bottleneck):
            h = block(h, temb, Tensor(lm_levels[-1]))
        for j, block in enumerate(self.decoder):
            scale = self.cfg.encoder_blocks - j
            h = ops.concat([h, skips[-1 - j]], axis=0)
            h = block(h, temb, Tensor(lm_levels[scale]))
        h = self.final(h, temb, Tensor(lm_levels[0]))
        out = self.out_conv(h)
        # The Nyquist bin, which the network does not model, is synthesized as zero.
        residual = ops.istft_pair(out[0], out[1], frame_len, hop, n)
        return ops.add(s_inp, residual)

    def params(self):
        out = self.time_embedding.params() + self.in_conv.params()
        for block in self.encoder + self.bottleneck + self.decoder + [self.final]:
            out += block.params()
        return out + self.out_conv.params()


# ---------------------------------------------------------------------------
# DPARN-lite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DparnConfig:
    frame_size: int = 256
    frame_hop: int = 128
    feature_dim: int = 64
    chunk_len: int = 32
    chunk_hop: int = 16
    num_blocks: int = 2
    attention_embed: int = 16

    def __post_init__(self):
        if self.chunk_hop > self.chunk_len:
            raise ValueError("chunk_hop must not exceed chunk_len")
        if self.chunk_len % self.chunk_hop != 0:
            raise ValueError("chunk_len must be a multiple of chunk_hop")
        if self.frame_size % self.frame_hop != 0:
            raise ValueError("frame_size must be a multiple of frame_hop")
        if self.num_blocks < 1:
            raise ValueError("need at least one block")


def tiny_dparn_config(**overrides) -> DparnConfig:
    defaults = dict(frame_size=256, frame_hop=128, feature_dim=24,
                    chunk_len=16, chunk_hop=8, attention_embed=8)
    defaults.update(overrides)
    return DparnConfig(**defaults)


class DparnBlock:
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

    def params(self):
        out = self.intra_rnn.params() + self.intra_proj.params() + self.intra_attn.params()
        out += self.inter_rnn.params() + self.inter_proj.params() + self.inter_attn.params()
        return out


class Dparn:
    """Predictive stage: dual-path recurrent/attentive refinement, residual."""

    def __init__(self, cfg: DparnConfig, rng, name="dparn"):
        self.cfg = cfg
        d = cfg.feature_dim
        self.in_proj = Linear(f"{name}.in_proj", cfg.frame_size, d, rng)
        self.blocks = [
            DparnBlock(f"{name}.block{i}", d, cfg.attention_embed, rng)
            for i in range(cfg.num_blocks)
        ]
        # Small head: the top-level residual starts near s_pred = s_inp.
        self.out_proj = Linear(f"{name}.out_proj", d, cfg.frame_size, rng,
                               init_scale=0.05)

    def forward(self, s_inp) -> Tensor:
        s_inp = as_tensor(s_inp)
        n = s_inp.shape[0]
        cfg = self.cfg
        if n < cfg.frame_size:
            raise ValueError(f"input length {n} shorter than one frame ({cfg.frame_size})")
        window = Tensor(hann_window(cfg.frame_size))
        frames = ops.frame_rows(s_inp, cfg.frame_size, cfg.frame_hop)
        h = self.in_proj(ops.mul(frames, window))
        t_frames = h.shape[0]
        chunks = ops.frame_rows(h, cfg.chunk_len, cfg.chunk_hop)
        for block in self.blocks:
            chunks = block(chunks)
        h = ops.overlap_add_rows(chunks, cfg.chunk_hop, t_frames)
        h = ops.mul(h, cfg.chunk_hop / cfg.chunk_len)  # constant overlap count
        out_frames = ops.mul(self.out_proj(h), window)
        acc = ops.overlap_add_rows(out_frames, cfg.frame_hop, n)
        gain = synthesis_gain(t_frames, cfg.frame_size, cfg.frame_hop, n)
        net = ops.mul(acc, Tensor(gain))
        return ops.add(s_inp, net)

    def params(self):
        out = self.in_proj.params()
        for b in self.blocks:
            out += b.params()
        return out + self.out_proj.params()


# ---------------------------------------------------------------------------
# combined model
# ---------------------------------------------------------------------------


class TwoStageModel:
    """DPARN-lite predictive stage plus ARCN diffusion stage."""

    def __init__(self, arcn_cfg: ArcnConfig, dparn_cfg: DparnConfig, seed: int = 0):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
        self.dparn = Dparn(dparn_cfg, rng)
        self.arcn = Arcn(arcn_cfg, rng)

    def params(self):
        return self.dparn.params() + self.arcn.params()

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {f"param/{p.name}": p.data for p in self.params()}

    def load_param_arrays(self, arrays: dict[str, np.ndarray]):
        for p in self.params():
            key = f"param/{p.name}"
            if key not in arrays:
                raise KeyError(f"checkpoint missing parameter {p.name}")
            if arrays[key].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {p.name}: checkpoint {arrays[key].shape}, model {p.data.shape}"
                )
            p.data[...] = arrays[key]
