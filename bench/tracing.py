"""Span tracer that wraps the public functions of every speechsr layer.

Only the traced run (``--trace 1``) installs it; end-to-end figures are
always measured without it. Wrappers are installed from outside the
package by rebinding module and class attributes, so the program itself
carries no tracing code.

Every wrapped call records a span ``(id, name, start, end, parent,
request)`` in memory; spans are written out once, when the run ends. A
span's self time is its duration minus the time its child spans cover.

Backward time is attributed through ``make_result``: each vjp is charged
to the innermost op span that was open when the vjp was created. Wrapping
the vjp of the tensor an op *returns* instead would double-count
composite ops and miss conv2d's own vjp (conv2d returns its bias ``add``).
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# The ops reported per layer; every other public op is traced too, so its
# time is not charged to its caller's self time.
REPORTED_OPS = (
    "conv2d", "group_norm", "matmul", "softmax_last", "sigmoid", "silu", "add",
    "mul", "reshape", "transpose", "getitem", "concat", "gru_cell",
    "pointwise_channels", "fir_resample_freq", "stft_pair", "istft_pair",
    "frame_rows", "overlap_add_rows",
)

# (metric, unit) of every per-layer metric, in BENCHMARK.json order.
LAYER_METRICS = tuple(
    [(f"ops.{op}.{m}", u) for op in REPORTED_OPS
     for m, u in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"), ("out_mb", "MB"))]
    + [
        ("ops.attention_share", "ratio"),
        ("ops.conv_norm_share", "ratio"),
        ("tensor.make_result.calls", "count"),
        ("tensor.graph_nodes", "count"),
        ("tensor.backward.self_s", "s"),
        ("optim.adam_step.s", "s"),
        ("optim.clip_global_norm.s", "s"),
        ("optim.ema_update.s", "s"),
        ("data.batch_wait.s", "s"),
        ("data.pad_share", "ratio"),
        ("resample.simulate_lr.s", "s"),
        ("resample.simulate_lr.calls", "count"),
        ("resample.cubic_spline_upsample.s", "s"),
        ("resample.design_lowpass.calls", "count"),
        ("resample.design_reuse", "ratio"),
        ("diffusion.repaint.s", "s"),
        ("diffusion.repaint.calls", "count"),
        ("diffusion.reverse_step.s_p50", "s"),
        ("networks.dparn_forward.s", "s"),
        ("networks.arcn_forward.s", "s"),
        ("networks.frame_attention.s", "s"),
        ("networks.frame_attention.score_mb", "MB"),
        ("objectives.loss_pred.s", "s"),
        ("objectives.loss_tf.s", "s"),
        ("trace.step_rel_p50", "ratio"),
        ("trace.rtf_p50", "s/s"),
    ]
)


def _nbytes(out) -> int:
    if isinstance(out, (tuple, list)):
        return sum(_nbytes(o) for o in out)
    data = getattr(out, "data", None)
    return int(getattr(data, "nbytes", 0))


def _rebind(orig, replacement):
    """Point every ``speechsr`` module attribute bound to ``orig`` at ``replacement``.

    Modules import functions by name (``from .resample import simulate_lr``),
    so patching only the defining module would miss those callers.
    """
    for name, mod in list(sys.modules.items()):
        if name != "speechsr" and not name.startswith("speechsr."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


class Tracer:
    """In-memory span recorder plus the per-layer counters derived from it."""

    def __init__(self):
        self.active = False
        self.request = None
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [id, name, start, child_s]
        self._next_id = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.out_bytes: Counter[str] = Counter()
        self.make_result_calls = 0
        self.graph_nodes = 0
        self.score_bytes = 0
        self.pad_samples = 0
        self.batch_samples = 0
        self.designs: set = set()
        self._attention_depth = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((span_id, name, start, end, parent, self.request))
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
            tracer.out_bytes[name] += _nbytes(out)
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer the benchmark reports."""
        from speechsr import data, diffusion, networks, objectives, resample
        from speechsr.engine import ops, optim, tensor

        for attr, fn in list(vars(ops).items()):
            if callable(fn) and not attr.startswith("_") and \
                    getattr(fn, "__module__", None) == ops.__name__:
                _rebind(fn, self.wrap(f"ops.{attr.rstrip('_')}", fn))

        for mod, attr, name in (
            (optim, "clip_global_norm", "optim.clip_global_norm"),
            (resample, "simulate_lr", "resample.simulate_lr"),
            (resample, "cubic_spline_upsample", "resample.cubic_spline_upsample"),
            (diffusion, "repaint", "diffusion.repaint"),
            (diffusion, "reverse_infer", "diffusion.reverse_infer"),
            (diffusion, "train_step", "diffusion.train_step"),
            (objectives, "loss_pred", "objectives.loss_pred"),
            (objectives, "loss_tf", "objectives.loss_tf"),
        ):
            fn = getattr(mod, attr)
            _rebind(fn, self.wrap(name, fn))

        for cls, attr, name in (
            (tensor.Tensor, "backward", "tensor.backward"),
            (optim.Adam, "step", "optim.adam_step"),
            (optim.Ema, "update", "optim.ema_update"),
            (networks.Dparn, "forward", "networks.dparn_forward"),
            (networks.Arcn, "forward", "networks.arcn_forward"),
        ):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

        self._install_attention(networks.FrameAttention)
        self._install_design(resample)
        self._install_batcher(data.Batcher)
        self._install_make_result(ops)

    def _install_attention(self, cls) -> None:
        tracer = self
        inner = self.wrap("networks.frame_attention", cls.__call__)

        def call(att, x):
            tracer._attention_depth += 1
            try:
                return inner(att, x)
            finally:
                tracer._attention_depth -= 1

        cls.__call__ = call

    def _install_design(self, resample) -> None:
        tracer = self
        orig = resample.design_lowpass

        def design_lowpass(kind, cutoff_norm):
            if tracer.active:
                tracer.calls["resample.design_lowpass"] += 1
                tracer.designs.add((kind, cutoff_norm))
            return orig(kind, cutoff_norm)

        _rebind(orig, design_lowpass)

    def _install_batcher(self, cls) -> None:
        tracer = self
        orig = cls.epoch

        def epoch(batcher, rng):
            batches = orig(batcher, rng)
            while True:
                active = tracer.active
                if active:
                    tracer.open("data.batch_wait")
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    if active:
                        tracer.close()
                if active:
                    tracer.pad_samples += int((batch.mask == 0).sum())
                    tracer.batch_samples += int(batch.mask.size)
                yield batch

        cls.epoch = epoch

    def _install_make_result(self, ops) -> None:
        tracer = self
        orig = ops.make_result

        def make_result(data, parents, vjp):
            out = orig(data, parents, vjp)
            if not tracer.active:
                return out
            tracer.make_result_calls += 1
            if tracer._attention_depth and data.ndim == 2 and data.shape[0] == data.shape[1]:
                tracer.score_bytes += data.nbytes
            if out._vjp is not None:
                tracer.graph_nodes += 1
                owner = tracer._stack[-1][1] if tracer._stack else "ops.unknown"
                out._vjp = tracer._timed_vjp(owner + ".bwd", out._vjp)
            return out

        ops.make_result = make_result

    def _timed_vjp(self, name: str, vjp):
        tracer = self

        def timed(g):
            if not tracer.active:
                return vjp(g)
            tracer.open(name)
            try:
                return vjp(g)
            finally:
                tracer.close()

        return timed

    # -- results -------------------------------------------------------------

    def _reverse_steps(self) -> list[float]:
        """One ARCN forward plus the repaint after it, inside reverse_infer."""
        names = {}
        children = defaultdict(list)
        for span_id, name, start, end, parent, _ in self.spans:
            names[span_id] = name
            children[parent].append((start, end, name))
        steps = []
        for span_id, name in names.items():
            if name != "diffusion.reverse_infer":
                continue
            arcn_start = None
            for start, end, child in sorted(children[span_id]):
                if child == "networks.arcn_forward":
                    arcn_start = start
                elif child == "diffusion.repaint" and arcn_start is not None:
                    steps.append(end - arcn_start)
                    arcn_start = None
        return steps

    def metrics(self, step_rel: list[float], rtf: list[float]) -> dict:
        """Per-layer metrics as {name: value}, totals over the traced operations."""
        out = {}
        op_total = sum(s for n, s in self.self_s.items() if n.startswith("ops."))

        def share_of(*names):
            busy = sum(self.self_s[f"ops.{n}"] + self.self_s[f"ops.{n}.bwd"] for n in names)
            return busy / op_total if op_total else 0.0

        for op in REPORTED_OPS:
            key = f"ops.{op}"
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.fwd_s"] = self.self_s[key]
            out[f"{key}.bwd_s"] = self.self_s[f"{key}.bwd"]
            out[f"{key}.out_mb"] = self.out_bytes[key] / 1e6
        steps = self._reverse_steps()
        design_calls = self.calls["resample.design_lowpass"]
        out.update({
            "ops.attention_share": share_of("matmul", "softmax_last"),
            "ops.conv_norm_share": share_of("conv2d", "group_norm"),
            "tensor.make_result.calls": self.make_result_calls,
            "tensor.graph_nodes": self.graph_nodes,
            "tensor.backward.self_s": self.self_s["tensor.backward"],
            "optim.adam_step.s": self.total_s["optim.adam_step"],
            "optim.clip_global_norm.s": self.total_s["optim.clip_global_norm"],
            "optim.ema_update.s": self.total_s["optim.ema_update"],
            "data.batch_wait.s": self.total_s["data.batch_wait"],
            "data.pad_share": (self.pad_samples / self.batch_samples
                               if self.batch_samples else 0.0),
            "resample.simulate_lr.s": self.total_s["resample.simulate_lr"],
            "resample.simulate_lr.calls": self.calls["resample.simulate_lr"],
            "resample.cubic_spline_upsample.s": self.total_s["resample.cubic_spline_upsample"],
            "resample.design_lowpass.calls": design_calls,
            "resample.design_reuse": (len(self.designs) / design_calls
                                      if design_calls else 0.0),
            "diffusion.repaint.s": self.total_s["diffusion.repaint"],
            "diffusion.repaint.calls": self.calls["diffusion.repaint"],
            "diffusion.reverse_step.s_p50": statistics.median(steps) if steps else 0.0,
            "networks.dparn_forward.s": self.total_s["networks.dparn_forward"],
            "networks.arcn_forward.s": self.total_s["networks.arcn_forward"],
            "networks.frame_attention.s": self.total_s["networks.frame_attention"],
            "networks.frame_attention.score_mb": self.score_bytes / 1e6,
            "objectives.loss_pred.s": self.total_s["objectives.loss_pred"],
            "objectives.loss_tf.s": self.total_s["objectives.loss_tf"],
            "trace.step_rel_p50": statistics.median(step_rel) if step_rel else 0.0,
            "trace.rtf_p50": statistics.median(rtf) if rtf else 0.0,
        })
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, request."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
