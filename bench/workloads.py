"""The three benchmark workloads and the end-to-end metrics they report.

Each workload drives speechsr through its public entry points on inputs
generated from the workload seed, as one caller in a closed loop: the
next operation starts when the previous one has returned. The program
only ever sees the generated files.

* ``train_overfit`` runs ``train.fit`` in the shape of the toy-overfit
  acceptance run: tiny configs, B=4, 0.25 s crops drawn from four 2 s
  utterances, ratio 2, Chebyshev filter. It is the only workload that
  records a graph and runs backward, Adam, clipping, EMA and the Batcher.
  At desk scale the step is bound by op dispatch (thousands of op calls
  per step, no op above ~15% of it), so batching and op fusion show here.
* ``infer_long`` runs the evaluate path (read_wav -> preprocess ->
  simulate_lr -> reverse_infer -> LSD/SI-SNR) with tiny configs on 4 s
  utterances. FrameAttention builds a T x T score over ~2,000 frames
  (~32 MB per score array), so matmul + softmax dominate and set the peak
  memory. There is no backward pass, optimizer or Batcher: segmented
  inference shows here, batching hardly at all.
* ``infer_paper`` runs the same path with the paper-scale defaults
  (``ArcnConfig()``/``DparnConfig()``, 1.46 M parameters) on 0.25 s
  utterances. T is ~35 frames, so attention is cheap and conv2d +
  group_norm dominate: paper-scale kernels show here, attention and
  dispatch changes hardly at all.

Training calls the ops with graph recording and both inference workloads
call them under ``no_grad``, so a change that keeps extra forward
temporaries to speed up backward shows up as a cost on ``infer_*``.

Weights are seeded initialisations (there is no checkpoint to download);
timing does not depend on their values, and the quality figures act as a
guard against numeric drift, reproducing exactly for a given seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from speechsr import diffusion, networks, train
from speechsr.config import TrainConfig
from speechsr.data import Manifest, preprocess, read_wav, synth_corpus
from speechsr.diffusion import NoiseSchedule
from speechsr.dsp import Waveform, stft
from speechsr.engine import load_state, ops
from speechsr.errors import NumericsError
from speechsr.networks import (
    ArcnConfig,
    DparnConfig,
    TwoStageModel,
    tiny_arcn_config,
    tiny_dparn_config,
)
from speechsr.objectives import lsd
from speechsr.resample import UpsamplingRatio, cubic_spline_upsample, simulate_lr

RATE = 16000
RATIO = UpsamplingRatio(2)
KIND = "chebyshev"
SCHED = NoiseSchedule()
SETUP_REPEATS = 2          # extra set-up samples, each in a fresh process
LOW_BAND_HZ = 3000.0       # output must reproduce the input below this
LOW_BAND_LSD_MAX_DB = 0.5  # untrained tiny weights measure ~0.04 here, ~1.9 above 4.2 kHz
LOSS_STEPS = 10            # steps averaged for the first and last loss

# Errors an operation may raise on bad numbers or shapes; anything else is
# a defect of the benchmark itself and ends the run.
OP_ERRORS = (NumericsError, ValueError, ArithmeticError)

END_TO_END = (
    ("setup_s", "s"),
    ("step_rel_p50", "ratio"),
    ("step_rel_tail", "ratio"),
    ("lsd_vs_cubic", "ratio"),
    ("sisnr_db", "dB"),
    ("peak_rss_mb", "MB"),
)


def derive(seed: int, *tags: int) -> int:
    """A 32-bit seed for one consumer (corpus, model, noise) of the workload seed."""
    return int(np.random.SeedSequence([seed % 2**64, *tags]).generate_state(1)[0])


CORPUS, VALID, MODEL, NOISE = 1, 2, 3, 4


def _mean(values) -> float:
    return float(np.mean(values)) if values else float("nan")


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it (>= 50)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 0 else 50


@dataclass
class Run:
    """What one workload run measured, before it is turned into metrics."""

    setup_s: float = 0.0
    step_s: list = field(default_factory=list)    # wall time per train or reverse step
    ref_s: list = field(default_factory=list)     # reference kernel before each step, and after the last
    rtf: list = field(default_factory=list)       # per operation: wall time / audio seconds
    attempted: int = 0
    failed: int = 0
    rows: list = field(default_factory=list)      # train.EvalRow per scored utterance
    digest: str = ""
    context: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def step_rel(self) -> list[float]:
        """Each step's time ÷ the mean of the reference just before and just after it."""
        return [s / (0.5 * (r0 + r1))
                for s, r0, r1 in zip(self.step_s, self.ref_s, self.ref_s[1:])]

    def end_to_end(self, setup_samples: list[float]) -> dict:
        """The gated metrics; absolute step times and the RTF go to ``context``."""
        steps = self.step_s or [float("nan")]
        rel = self.step_rel() or [float("nan")]
        q = tail_percentile(len(self.step_s))
        lsd_db = _mean([r.metrics.lsd_db for r in self.rows])
        cubic_lsd_db = _mean([r.baseline.lsd_db for r in self.rows])
        self.context.update({
            "step_s_p10": float(np.percentile(steps, 10)),
            "step_s_p50": statistics.median(steps),
            "step_s_tail": float(np.percentile(steps, q)),
            "tail_percentile": f"p{q} of {len(self.step_s)} steps",
            "rtf_p50": statistics.median(self.rtf or [float("nan")]),
            "failed_ratio": self.failed / max(self.attempted, 1),
            "lsd_db": lsd_db,
            "cubic_lsd_db": cubic_lsd_db,
            "cubic_sisnr_db": _mean([r.baseline.sisnr_db for r in self.rows]),
        })
        return {
            "setup_s": statistics.median(setup_samples),
            "step_rel_p50": statistics.median(rel),
            "step_rel_tail": float(np.percentile(rel, q)),
            "lsd_vs_cubic": lsd_db / cubic_lsd_db,
            "sisnr_db": _mean([r.metrics.sisnr_db for r in self.rows]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# probes: the benchmark's own wrappers, installed once per run process
# ---------------------------------------------------------------------------


class Reference:
    """A fixed numpy kernel, timed before every step and after the last, as a yardstick.

    On a shared host the speed of one thread switches between regimes about
    30% apart, for seconds to minutes at a time. The kernel mixes what the
    program spends its time on (small BLAS products, memory-bound
    elementwise passes, many tiny op dispatches), so it slows with the
    program and step time ÷ kernel time stays put: over 90 s of alternating
    runs, 10-s medians of a tiny ARCN forward spread 48% and of the ratio
    3%. It runs no speechsr code, so no change to the program moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64))
        self._b = rng.standard_normal((64, 4096))
        self._v = rng.standard_normal(200_000)
        self.spent = 0.0   # total seconds measured, to keep out of other timings

    def measure(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(8):
            acc += float((self._a @ self._b)[0, 0])
            acc += float((np.exp(-np.abs(self._v)) * self._v + self._v)[0])
            for i in range(200):
                acc += float(np.add(self._a[i % 64], 1.0).sum())
        dt = time.perf_counter() - t0
        if not math.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")
        self.spent += dt
        return dt


class InferCalls:
    """Records every ``train.reverse_infer`` call: wall time, input and output."""

    def __init__(self, ref: Reference):
        self.calls: list[tuple[float, Waveform, Waveform]] = []
        infer = train.reverse_infer

        def timed_infer(s_lr, *args, **kwargs):
            t0, spent = time.perf_counter(), ref.spent
            out = infer(s_lr, *args, **kwargs)
            dt = time.perf_counter() - t0 - (ref.spent - spent)
            self.calls.append((dt, s_lr, out))
            return out

        train.reverse_infer = timed_infer


class StepClock:
    """Times each reverse step: an ARCN forward plus the repaint that follows it."""

    def __init__(self, ref: Reference):
        self.samples: list[tuple[float, float]] = []  # (step seconds, reference seconds before)
        self._start = self._ref_s = None
        forward, repaint = networks.Arcn.forward, diffusion.repaint

        def timed_forward(arcn, *args, **kwargs):
            if self._start is None:
                self._ref_s = ref.measure()
                self._start = time.perf_counter()
            return forward(arcn, *args, **kwargs)

        def timed_repaint(*args, **kwargs):
            out = repaint(*args, **kwargs)
            if self._start is not None:
                self.samples.append((time.perf_counter() - self._start, self._ref_s))
                self._start = None
            return out

        networks.Arcn.forward = timed_forward
        diffusion.repaint = timed_repaint


class GraphCounter:
    """Counts op results that carry a vjp; under ``no_grad`` there must be none."""

    def __init__(self):
        self.nodes = 0
        make_result = ops.make_result

        def counted(data, parents, vjp):
            out = make_result(data, parents, vjp)
            if out._vjp is not None:
                self.nodes += 1
            return out

        ops.make_result = counted


def _low_band_lsd(out: np.ndarray, s_inp: np.ndarray) -> float:
    """LSD of ``out`` against ``s_inp`` over the bins at or below LOW_BAND_HZ."""
    keep = int(LOW_BAND_HZ * train.METRIC_STFT.frame_len(RATE) / RATE) + 1
    ref, est = (stft(Waveform(x, RATE), train.METRIC_STFT).magnitude()[:, :keep]
                for x in (s_inp, out))
    return lsd(ref, est)


def output_problems(s_lr: Waveform, out: Waveform) -> list[str]:
    """The checks on one inference output: finite, right length, low band pinned."""
    if not np.all(np.isfinite(out.samples)):
        return ["non-finite output"]
    if len(out) != len(s_lr) * RATIO.ratio or out.sample_rate != s_lr.sample_rate * RATIO.ratio:
        return [f"output length {len(out)} != {len(s_lr)} x {RATIO.ratio}"]
    low = _low_band_lsd(out.samples, cubic_spline_upsample(s_lr, RATIO).samples)
    if not low <= LOW_BAND_LSD_MAX_DB:
        return [f"low band not pinned: LSD {low:.3f} dB below {LOW_BAND_HZ:.0f} Hz"]
    return []


# ---------------------------------------------------------------------------
# train_overfit
# ---------------------------------------------------------------------------


def run_train(seed: int, n_steps: int, work: Path, t_start: float, tracer,
              setup_only: bool = False) -> Run:
    """``train.fit`` for one warm-up step plus ``n_steps`` timed steps.

    Set-up ends when the warm-up step returns. Validation and the
    checkpoint write happen once, after the last step; the last checkpoint
    is then scored with ``train.evaluate`` on the two validation utterances.
    """
    run = Run()
    corpus = synth_corpus(work / "corpus", 4, 2.0, seed=derive(seed, CORPUS))
    valid = synth_corpus(work / "valid", 2, 0.5, seed=derive(seed, VALID))
    total_steps = 1 if setup_only else 1 + n_steps
    cfg = TrainConfig(
        epochs=total_steps, batch_size=4, crop_seconds=0.25, learning_rate=0.002,
        ema_decay=0.98, seed=derive(seed, MODEL), ratio=RATIO.ratio, filter_kind=KIND,
        sample_rate=RATE, validate_every=total_steps, max_steps=total_steps,
    )
    batch_audio_s = cfg.batch_size * cfg.crop_seconds
    totals = []
    step, ref = train.train_step, Reference()

    def timed_step(*args, **kwargs):
        ref_s = ref.measure()
        t0 = time.perf_counter()
        result = step(*args, **kwargs)
        dt = time.perf_counter() - t0
        if run.setup_s == 0.0:
            run.setup_s = time.perf_counter() - t_start
        else:
            run.step_s.append(dt)
            run.ref_s.append(ref_s)
            run.rtf.append(dt / batch_audio_s)
            totals.append(result.report.total)
            if len(run.step_s) == n_steps:
                run.ref_s.append(ref.measure())
        if tracer is not None:
            # Trace the timed steps and the batch waits before them only.
            tracer.active = len(run.step_s) < n_steps
            tracer.request = len(run.step_s) + 1
        return result

    train.train_step = timed_step
    run.attempted = n_steps
    try:
        fit = train.fit(cfg, tiny_arcn_config(), tiny_dparn_config(), SCHED, corpus, valid,
                        work / "run")
    except NumericsError as exc:
        run.failed = n_steps - len(run.step_s)
        run.errors.append(f"train.fit: {exc}")
        return run
    if setup_only:
        return run

    _, arrays = load_state(fit.last_path)
    run.digest = _digest(arrays[k] for k in sorted(arrays) if k.startswith("param/"))
    scored = InferCalls(ref)
    run.rows = train.evaluate(fit.last_path, valid, RATIO, KIND, seed=derive(seed, NOISE))
    for _, s_lr, out in scored.calls:
        run.errors.extend(f"evaluate: {p}" for p in output_problems(s_lr, out))
    run.context.update({
        "loss_first": float(np.mean(totals[:LOSS_STEPS])),
        "loss_last": float(np.mean(totals[-LOSS_STEPS:])),
    })
    return run


# ---------------------------------------------------------------------------
# infer_long / infer_paper
# ---------------------------------------------------------------------------


def run_infer(arcn_cfg: ArcnConfig, dparn_cfg: DparnConfig, utt_s: float, seed: int,
              n_utts: int, work: Path, t_start: float, tracer,
              setup_only: bool = False) -> Run:
    """``train.evaluate_model`` on ``n_utts`` utterances, one utterance per call.

    Set-up ends after a warm-up ``reverse_infer`` with a one-step schedule
    on the first 0.25 s of the first utterance, which fills the DFT cache.
    """
    run = Run()
    corpus = synth_corpus(work / "corpus", n_utts, utt_s, seed=derive(seed, CORPUS))
    model = TwoStageModel(arcn_cfg, dparn_cfg, seed=derive(seed, MODEL))
    ref = Reference()
    infer, clock, graph = InferCalls(ref), StepClock(ref), GraphCounter()
    hr = preprocess(read_wav(corpus.entries[0].path), RATE)
    s_lr, _ = simulate_lr(Waveform(hr.samples[:RATE // 4], RATE), RATIO, KIND)
    train.reverse_infer(s_lr, model, NoiseSchedule(inference_steps=1), RATIO, KIND,
                        np.random.default_rng(derive(seed, NOISE)))
    run.setup_s = time.perf_counter() - t_start
    if setup_only:
        return run

    infer.calls.clear()
    clock.samples.clear()
    outputs = []
    for i, entry in enumerate(corpus.entries):
        run.attempted += 1
        nodes = graph.nodes
        if tracer is not None:
            tracer.request, tracer.active = entry.utt_id, True
        try:
            (row,) = train.evaluate_model(model, Manifest((entry,)), RATIO, KIND, KIND,
                                          SCHED, RATE, seed=derive(seed, NOISE, i))
        except OP_ERRORS as exc:
            run.failed += 1
            run.errors.append(f"{entry.utt_id}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        dt, lr_in, out = infer.calls[-1]
        problems = output_problems(lr_in, out)
        if graph.nodes != nodes:
            problems.append(f"{graph.nodes - nodes} graph nodes under no_grad")
        if problems:
            run.failed += 1
            run.errors.extend(f"{entry.utt_id}: {p}" for p in problems)
        run.rtf.append(dt / out.duration)
        run.rows.append(row)
        outputs.append(out.samples)
    run.step_s = [step_s for step_s, _ in clock.samples]
    run.ref_s = [ref_s for _, ref_s in clock.samples] + [ref.measure()]
    run.digest = _digest(outputs)
    return run


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    op_s: float   # nominal seconds per operation; sizes a run from --seconds
    run: Callable[..., Run]

    def n_ops(self, seconds: float) -> int:
        """Operations in a run, fixed by ``--seconds`` alone so a seed repeats exactly."""
        return max(1, math.floor(seconds / self.op_s))


# Why each workload exists is in the module docstring and BENCHMARK.json.
WORKLOADS = {
    "train_overfit": Workload(op_s=0.75, run=run_train),
    "infer_long": Workload(
        op_s=19.0, run=functools.partial(run_infer, tiny_arcn_config(), tiny_dparn_config(), 4.0)),
    "infer_paper": Workload(
        op_s=6.5, run=functools.partial(run_infer, ArcnConfig(), DparnConfig(), 0.25)),
}
