"""Conditional diffusion: noise schedule, sampling, training, inference.

The forward marginal has mean mu = e^(-gamma t) x0 + (1 - e^(-gamma t)) y
(y being the interpolated low-resolution input) and a closed-form variance
controlled by (sigma_min, sigma_max, gamma). Training teaches the
diffusion network to predict the clean signal directly at a uniformly
sampled step; inference starts from the predictive stage's output (shallow
diffusion) and stitches the known low band back in after every step
(repainting).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dsp import Waveform
from .engine import FlatParams, Tensor, clip_global_norm, no_grad, ops
from .errors import NumericsError
from .networks import TwoStageModel
from .objectives import LossReport, lambda_weight, loss_pred, loss_tf
from .resample import UpsamplingRatio, cubic_spline_upsample, simulate_lr


@dataclass(frozen=True)
class NoiseSchedule:
    sigma_min: float = 0.05
    sigma_max: float = 0.5
    gamma: float = 1.5
    total_steps: int = 1000
    inference_steps: int = 10

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0 < self.sigma_min < self.sigma_max:
            raise ValueError("need 0 < sigma_min < sigma_max")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 1 <= self.inference_steps <= self.total_steps:
            raise ValueError("inference_steps must lie in [1, total_steps]")


def sigma(t, sched: NoiseSchedule):
    """Noise standard deviation at continuous time t in [0, 1]."""
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError(f"diffusion time must lie in [0, 1], got {t}")
    ratio = sched.sigma_max / sched.sigma_min
    log_ratio = np.log(ratio)
    var = (sched.sigma_min**2
           * (ratio ** (2.0 * t_arr) - np.exp(-2.0 * sched.gamma * t_arr))
           * log_ratio / (sched.gamma + log_ratio))
    out = np.sqrt(np.maximum(var, 0.0))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def mean_mu(x0: np.ndarray, y: np.ndarray, t: float, gamma: float) -> np.ndarray:
    """Closed-form forward mean: e^(-gamma t) x0 + (1 - e^(-gamma t)) y."""
    x0 = np.asarray(x0, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x0.shape != y.shape:
        raise ValueError(f"length mismatch: {x0.shape} vs {y.shape}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    decay = np.exp(-gamma * t)
    return decay * x0 + (1.0 - decay) * y


def forward_sample(x0: np.ndarray, y: np.ndarray, t: float, z: np.ndarray,
                   sched: NoiseSchedule) -> np.ndarray:
    """Draw x_t = mu(x0, y, t) + sigma(t) * z with caller-supplied noise."""
    z = np.asarray(z, dtype=np.float64)
    mu = mean_mu(x0, y, t, sched.gamma)
    if z.shape != mu.shape:
        raise ValueError(f"noise shape {z.shape} != signal shape {mu.shape}")
    return mu + sigma(t, sched) * z


def inference_time_grid(sched: NoiseSchedule) -> np.ndarray:
    """Uniformly spaced continuous times from (T-1)/T down to 0."""
    t_max = (sched.total_steps - 1) / sched.total_steps
    return np.linspace(t_max, 0.0, sched.inference_steps)


def repaint(x0t: np.ndarray, s_inp: np.ndarray, sample_rate: int,
            ratio: UpsamplingRatio, kind: str = "chebyshev") -> np.ndarray:
    """Keep the estimate's high band, replace its low band with s_inp.

    x0t' = s_inp + (x0t - Resample(x0t)), where Resample(x0t) is the
    interpolated output of :func:`~speechsr.resample.simulate_lr` on the
    estimate: the same chain that made s_inp from the HR signal.
    """
    x0t = np.asarray(x0t, dtype=np.float64)
    s_inp = np.asarray(s_inp, dtype=np.float64)
    if x0t.shape != s_inp.shape:
        raise ValueError(f"length mismatch: {x0t.shape} vs {s_inp.shape}")
    low = simulate_lr(Waveform(x0t, sample_rate), ratio, kind)[1]
    return s_inp + (x0t - low.samples)


@dataclass(frozen=True)
class StepLosses:
    """Per-step mean loss terms, plus the gradient scale actually applied."""

    report: LossReport
    clip_scale: float


def _utterance_loss(model: TwoStageModel, hr: np.ndarray, inp: np.ndarray,
                    sched: NoiseSchedule, ratio: UpsamplingRatio,
                    sample_rate: int, k: int, z: np.ndarray):
    """Loss graph for one utterance at integer diffusion step k."""
    t = k / sched.total_steps
    frame_len, hop = model.arcn.frame_geometry(sample_rate)
    s_pred = model.dparn.forward(Tensor(inp))
    x_t = forward_sample(hr, inp, t, z, sched)
    s_hat = model.arcn.forward(x_t, s_pred, inp, ratio, t * sched.total_steps, sample_rate)
    pre_re, pre_im = ops.stft_pair(s_pred, frame_len, hop)
    ref_re, ref_im = ops.stft_pair(Tensor(hr), frame_len, hop)
    l_pred = loss_pred(pre_re, pre_im, ref_re, ref_im)
    l_time, l_freq, l_diff = loss_tf(s_hat, hr, frame_len, hop)
    lam = lambda_weight(t)
    total = ops.add(l_pred, ops.mul(l_diff, lam))
    return total, LossReport.build(l_pred.item(), l_time.item(), l_freq.item(), lam)


def _backward_item(model: TwoStageModel, item, sched: NoiseSchedule, ratio: UpsamplingRatio,
                   sample_rate: int, n_items: int) -> LossReport:
    """Add one ``(utt_id, hr, inp, k, z)`` item's share of the batch loss to ``.grad``.

    Raises NumericsError naming the utterance and k on a non-finite loss,
    before anything reaches ``.grad``.
    """
    utt_id, hr, inp, k, z = item
    total, report = _utterance_loss(model, hr, inp, sched, ratio, sample_rate, k, z)
    if not np.isfinite(total.item()):
        raise NumericsError(f"non-finite loss on utterance {utt_id!r} at step k={k}")
    ops.mul(total, 1.0 / n_items).backward()
    return report


def train_step(model: TwoStageModel, batch, sched: NoiseSchedule, opt, ema,
               rng: np.random.Generator, ratio: UpsamplingRatio,
               clip_norm: float = 1.0, workers: StepWorkers | None = None) -> StepLosses:
    """One joint gradient step over a batch (per-utterance accumulation).

    Each batch element draws its own diffusion step and noise, all drawn up
    front in utterance order; losses are averaged over the batch before the
    clipped Adam update and EMA refresh. Each utterance's graph is built,
    backpropagated and dropped before the next one's, so a process holds one
    graph at a time. The gradients accumulate in the parameters'
    :class:`FlatParams` buffer, made here if ``opt`` did not make it, whose
    views are the ``.grad`` arrays (zero where ``backward`` did not reach).

    With ``workers``, the batch is cut into contiguous parts, one per
    process: this process runs the first, and each worker the next, on the
    current parameter values, which go to it as one flat array. A worker
    replies per utterance with one flat gradient and a report; the gradients
    are added to the buffer in utterance order, the sum ``backward`` forms
    without workers, so the bits do not depend on the worker count. While
    the parts run, every process's ops stay on its calling thread
    (``ops._unsplit``): the processes already fill the CPUs.

    Raises NumericsError on a non-finite loss or gradient norm before Adam or
    the EMA moves; ``.grad`` then holds the sum over the utterances before
    the one that failed.
    """
    flat = FlatParams.of(model.params())
    flat.zero_grad()
    n_items = len(batch.hr)
    items = []
    for utt_id, hr, inp in zip(batch.ids, batch.hr, batch.inp):
        k = int(rng.integers(1, sched.total_steps + 1))
        items.append((utt_id, hr, inp, k, rng.standard_normal(hr.size)))
    n = min(1 + (len(workers) if workers is not None else 0), n_items)
    parts = [items[n_items * i // n:n_items * (i + 1) // n] for i in range(n)]
    task = (sched, ratio, batch.sample_rate, n_items)
    for i, part in enumerate(parts[1:]):
        workers.send(i, (flat.data, *task, part))
    reports = []
    try:
        with ops._unsplit(n > 1):
            for item in parts[0]:
                reports.append(_backward_item(model, item, *task))
    finally:  # read every reply, so that none is left for the next step
        replies = [workers.receive(i) for i in range(n - 1)]
    for reply in replies:
        for result in reply:
            if isinstance(result, Exception):
                raise result
            grad, report = result
            flat.grad += grad
            reports.append(report)

    scale = clip_global_norm(flat.params, clip_norm)
    opt.step()
    ema.update()
    mean = LossReport(*(float(np.mean([getattr(r, f.name) for r in reports]))
                        for f in fields(LossReport)))
    return StepLosses(report=mean, clip_scale=scale)


def _run_part(model: TwoStageModel, flat: FlatParams, sched, ratio, sample_rate, n_items,
              items) -> list:
    """A worker's part of a step: per item, from cleared gradients, a copy of
    the flat gradient (zero where ``backward`` did not reach) and the report.
    An item that raises ends the list with its exception, which the parent
    raises when it reaches that utterance."""
    results = []
    for item in items:
        flat.zero_grad()
        try:
            report = _backward_item(model, item, sched, ratio, sample_rate, n_items)
        except Exception as exc:
            results.append(exc)
            break
        results.append((flat.grad.copy(), report))
    return results


def _serve(model: TwoStageModel, conn, inherited) -> None:
    """A step worker: run each part it is sent, until its pipe closes.

    It first closes the parent's pipe ends it inherited, its own included,
    so that its pipe closes when the parent exits. Its ops never split:
    the parent and the other workers run on the other CPUs. EOF, a broken
    pipe or Ctrl-C end it without a traceback.
    """
    for other in inherited:
        other.close()
    flat = FlatParams.of(model.params())
    try:
        with ops._unsplit():
            while True:
                values, *task, items = conn.recv()
                flat.data[...] = values
                conn.send(_run_part(model, flat, *task, items))
    except (EOFError, OSError, KeyboardInterrupt):
        pass


class StepWorkers:
    """``count`` forked processes, each running a part of every train step.

    Each holds the model as it was at the fork and talks to this process
    over its own pipe (:func:`train_step`, :func:`_serve`): per step it gets
    the parameter values as one flat array and answers with one flat
    gradient per utterance. Its ops run unsplit for its whole life.
    :meth:`close` ends and joins them. They are forked, not spawned, so that
    they start with the model and without a fresh import; a child runs only
    on the forking thread, and the engine drops the block pool it inherits.
    """

    def __init__(self, model: TwoStageModel, count: int):
        self.conns, self._procs = [], []
        if count < 1:
            return
        ctx = multiprocessing.get_context("fork")
        try:
            for i in range(count):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(model, child, [*self.conns, conn]),
                                   name=f"speechsr-step-{i + 1}", daemon=True)
                proc.start()
                child.close()
                self.conns.append(conn)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self.conns)

    def send(self, i: int, task) -> None:
        try:
            self.conns[i].send(task)
        except OSError:
            raise self._died(i) from None

    def receive(self, i: int) -> list:
        """Worker ``i``'s reply; RuntimeError if it died instead."""
        try:
            return self.conns[i].recv()
        except EOFError:
            raise self._died(i) from None

    def _died(self, i: int) -> RuntimeError:
        proc = self._procs[i]
        proc.join(5.0)
        return RuntimeError(f"train step worker {proc.name} ended during a step"
                            f" (exit code {proc.exitcode})")

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self._procs:
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


def validation_loss(model: TwoStageModel, hr: np.ndarray, inp: np.ndarray,
                    sched: NoiseSchedule, ratio: UpsamplingRatio,
                    sample_rate: int, k: int, z: np.ndarray) -> LossReport:
    """Total loss on one utterance with a frozen (k, z) draw; no state change."""
    with no_grad():
        _, report = _utterance_loss(model, hr, inp, sched, ratio, sample_rate, k, z)
    return report


def reverse_infer(s_lr: Waveform, model: TwoStageModel, sched: NoiseSchedule,
                  ratio: UpsamplingRatio, kind: str = "chebyshev",
                  rng: np.random.Generator | None = None) -> Waveform:
    """Generate the super-resolved signal from a low-rate input.

    Shallow-diffusion initialization (start from the predictive estimate)
    followed by ``sched.inference_steps`` denoising steps, each repainted so
    the low band stays pinned to the interpolated input.
    """
    if rng is None:
        raise ValueError("reverse_infer needs an explicit Generator for determinism")
    s_inp = cubic_spline_upsample(s_lr, ratio)
    rate = s_inp.sample_rate
    n = len(s_inp)
    inp = s_inp.samples
    with no_grad():
        s_pred = model.dparn.forward(Tensor(inp)).data
        x0 = s_pred
        for t in inference_time_grid(sched):
            x_t = forward_sample(x0, inp, t, rng.standard_normal(n), sched)
            x0 = model.arcn.forward(x_t, s_pred, inp, ratio, t * sched.total_steps, rate).data
            x0 = repaint(x0, inp, rate, ratio, kind)
    return Waveform(x0, rate)
