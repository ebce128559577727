"""Training driver: epochs, plateau LR schedule, checkpoints, evaluation.

Checkpoints carry everything needed to resume bit-exactly: parameters,
Adam moments (Adam's step count is the global step), the EMA shadow, the
plateau scheduler state, and the master RNG state. This module alone names
their arrays (``_state_table``) and meta fields (``CheckpointMeta``). Validation draws its
diffusion step and noise from per-utterance side seeds, so it is
deterministic across epochs and never advances the training RNG.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import Arch, TrainConfig, from_dict
from .data import Batcher, Manifest, preprocess, read_wav, validation_items
from .diffusion import NoiseSchedule, StepWorkers, reverse_infer, train_step, validation_loss
from .dsp import FrameConfig, Waveform, n_frames_for, stft
from .engine import Adam, Ema, load_state, malloc_settings, ops, save_state, thread_counts
from .errors import ConfigError, NumericsError
from .networks import Arcn, ArcnConfig, DparnConfig, TwoStageModel
from .objectives import LossReport, MetricReport, band_energy_error, lsd, sisnr
from .resample import UpsamplingRatio, simulate_lr

METRIC_STFT = FrameConfig()  # 32 ms / 8 ms analysis for reported metrics


@dataclass
class PlateauScheduler:
    """Halve the LR after ``patience`` consecutive non-improving validations."""

    lr: float
    factor: float = 0.5
    patience: int = 3
    best: float | None = None
    bad_epochs: int = 0

    def update(self, val_loss: float) -> bool:
        """Consume one validation loss; returns True when the LR was halved."""
        if self.best is None or val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        if self.bad_epochs >= self.patience:
            self.lr *= self.factor
            self.bad_epochs = 0
            return True
        return False


class RunLog:
    """Incremental CSV logs: per-step losses and per-epoch validation/LR."""

    STEP_FIELDS = ("step", "epoch", *(f.name for f in fields(LossReport)), "clip_scale")
    EPOCH_FIELDS = ("epoch", "val_loss", "lr", "wall_clock_s")

    def __init__(self, out_dir, resume: tuple[int, int] | None = None):
        """``resume``: (epoch, global_step) of a resumed checkpoint; later rows are dropped."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        epoch, step = resume if resume is not None else (None, None)
        self._steps, self._steps_csv = _open_log(out / "runlog_steps.csv", self.STEP_FIELDS, step)
        self._epochs, self._epochs_csv = _open_log(out / "runlog_epochs.csv", self.EPOCH_FIELDS, epoch)

    def step(self, step, epoch, report, clip_scale):
        self._steps_csv.writerow([step, epoch, *astuple(report), clip_scale])
        self._steps.flush()

    def epoch(self, epoch, val_loss, lr, wall_clock_s):
        self._epochs_csv.writerow([epoch, val_loss, lr, wall_clock_s])
        self._epochs.flush()

    def close(self):
        self._steps.close()
        self._epochs.close()


def _open_log(path: Path, fields, last: int | None):
    """Rewrite a CSV log as its header plus the rows keyed at most ``last`` (none if None)."""
    rows = []
    if last is not None and path.exists():
        with open(path, newline="") as fh:
            rows = [r for r in list(csv.reader(fh))[1:] if int(r[0]) <= last]
    fh = open(path, "w", newline="")
    writer = csv.writer(fh)
    writer.writerows([fields] + rows)
    return fh, writer


@dataclass(frozen=True)
class FitResult:
    best_path: str
    last_path: str
    lr_trace: tuple[float, ...]
    val_trace: tuple[float, ...]
    total_steps: int
    step_totals: tuple[float, ...]


def _validation_draws(cfg: TrainConfig, sched: NoiseSchedule, items):
    draws = []
    for i, (_, hr, _) in enumerate(items):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7A11D, i]))
        k = int(rng.integers(1, sched.total_steps + 1))
        z = rng.standard_normal(hr.size)
        draws.append((k, z))
    return draws


@dataclass(frozen=True)
class CheckpointMeta:
    """The meta of every checkpoint ``fit`` saves; ``_read_checkpoint`` checks it all."""

    version: str
    arch: Arch
    train_config: TrainConfig
    schedule: NoiseSchedule
    epoch: int
    global_step: int
    scheduler: PlateauScheduler
    rng_state: dict

    def __post_init__(self):
        try:
            np.random.PCG64().state = self.rng_state
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"rng_state is not a PCG64 state: {exc!r}") from exc


META_KEYS = tuple(f.name for f in fields(CheckpointMeta))


def _state_table(model, opt, ema) -> dict[str, dict[str, np.ndarray]]:
    """What a checkpoint holds: array prefix -> {name: live array}, saved as
    ``<prefix>/<name>`` and restored in place."""
    return {"param": {p.name: p.data for p in model.params()},
            "adam/m": opt.m, "adam/v": opt.v, "ema": ema.shadow}


def _flatten(table: dict[str, dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    return {f"{prefix}/{name}": array for prefix, named in table.items()
            for name, array in named.items()}


def _read_checkpoint(path) -> tuple[CheckpointMeta, dict[str, np.ndarray]]:
    """``load_state`` with the meta rebuilt and checked by ``from_dict``."""
    meta, arrays = load_state(path)
    return from_dict(CheckpointMeta, meta, str(path)), arrays


def _restore(arrays: dict[str, np.ndarray], table: dict[str, dict[str, np.ndarray]]):
    """Copy each ``<prefix>/<name>`` array into the table's array in place.

    Every array is checked for presence and shape before any is copied, so
    a bad checkpoint leaves the state untouched. Raises ConfigError naming
    the first missing or mis-shaped array.
    """
    targets = _flatten(table)
    for key, target in targets.items():
        if key not in arrays:
            raise ConfigError(f"checkpoint has no array {key!r}")
        if arrays[key].shape != target.shape:
            raise ConfigError(f"checkpoint array {key!r} has shape {arrays[key].shape}, "
                              f"the model needs {target.shape}")
    for key, target in targets.items():
        target[...] = arrays[key]


def load_model(ckpt_path) -> tuple[TwoStageModel, CheckpointMeta]:
    """Rebuild the model a checkpoint was trained with, holding its EMA weights."""
    meta, arrays = _read_checkpoint(ckpt_path)
    model = TwoStageModel(meta.arch.arcn, meta.arch.dparn, seed=meta.train_config.seed)
    params = {p.name: p.data for p in model.params()}
    _restore(arrays, {"param": params, "ema": params})
    return model, meta


def _step_processes(arcn: Arcn, cfg: TrainConfig) -> int:
    """Processes a train step's utterances run on (:class:`StepWorkers`).

    One per CPU the engine has block workers for, at most one per batch
    item, where a crop is too small for the engine to split its ops: its
    largest ARCN map (``base_channels`` x frames x bins, float64) fits
    ``ops.CONV_BLOCK_BYTES`` and its frames fit one ``ops.ATTENTION_BLOCK``.
    Elsewhere, and without ``os.fork``, 1: the step runs inline, and a
    larger crop keeps one utterance graph in memory at a time, not one per CPU.
    """
    frame_len, hop = arcn.frame_geometry(cfg.sample_rate)
    frames = n_frames_for(int(round(cfg.crop_seconds * cfg.sample_rate)), frame_len, hop)
    largest = arcn.cfg.base_channels * frames * (frame_len // 2) * 8
    if (not hasattr(os, "fork") or largest > ops.CONV_BLOCK_BYTES
            or frames > ops.ATTENTION_BLOCK):
        return 1
    return min(ops._workers(), cfg.batch_size)


def fit(cfg: TrainConfig, arcn_cfg: ArcnConfig, dparn_cfg: DparnConfig,
        sched: NoiseSchedule, train_manifest: Manifest, valid_manifest: Manifest,
        out_dir, resume_from=None) -> FitResult:
    """Run the training loop; writes checkpoints, logs, and run metadata.

    Adam takes the plateau scheduler's rate before each epoch's steps, so a
    resumed run trains at its checkpoint's rate. Where the crop is small
    enough (:func:`_step_processes`), ``fit`` forks one :class:`StepWorkers`
    process per extra CPU, up to one per extra batch item, and each step's
    utterances are shared among the processes with the same bits as inline.
    The workers are joined before ``fit`` returns or raises.
    """
    model = TwoStageModel(arcn_cfg, dparn_cfg, seed=cfg.seed)
    model.arcn.frame_geometry(cfg.sample_rate)  # refuse bad framing before any file exists
    if (crop := round(cfg.crop_seconds * cfg.sample_rate)) < dparn_cfg.frame_size:
        raise ConfigError(f"crop_seconds {cfg.crop_seconds} gives {crop} samples, fewer than"
                          f" one DPARN frame (frame_size {dparn_cfg.frame_size})")
    for kind, manifest in (("train", train_manifest), ("valid", valid_manifest)):
        for e in manifest.entries:  # preprocess keeps every factor-th sample
            named = f"{kind} manifest entry {e.utt_id!r} ({e.path}, {e.sample_rate} Hz)"
            factor, rest = divmod(e.sample_rate, cfg.sample_rate)
            if rest or not factor:
                raise ConfigError(f"{named}: rate not a multiple of train.sample_rate")
            if (n := -(-e.n_samples // factor)) < dparn_cfg.frame_size:
                raise ConfigError(f"{named}: {n} samples at train.sample_rate < dparn.frame_size")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ratio = UpsamplingRatio(cfg.ratio)
    opt = Adam(model.params(), lr=cfg.learning_rate)
    ema = Ema(model.params(), decay=cfg.ema_decay)
    scheduler = PlateauScheduler(lr=cfg.learning_rate, factor=cfg.lr_factor,
                                 patience=cfg.plateau_patience)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB47C4]))
    start_epoch = global_step = 0

    arch = Arch(arcn_cfg, dparn_cfg)
    processes = _step_processes(model.arcn, cfg)

    if resume_from is not None:
        meta, arrays = _read_checkpoint(resume_from)
        if meta.arch != arch:
            raise ConfigError("checkpoint architecture differs from configuration")
        _restore(arrays, _state_table(model, opt, ema))
        scheduler = meta.scheduler
        rng.bit_generator.state = meta.rng_state
        start_epoch = meta.epoch
        global_step = opt.step_count = meta.global_step

    run_meta = {"version": __version__, "train_config": asdict(cfg), "arch": asdict(arch),
                "schedule": asdict(sched), "threads": thread_counts(),
                "malloc": malloc_settings(), "train_processes": processes,
                "resumed_from": str(resume_from) if resume_from else None}
    (out / "run_meta.json").write_text(json.dumps(run_meta, indent=2, sort_keys=True))

    batcher = Batcher(train_manifest, cfg.batch_size, cfg.crop_seconds, ratio,
                      cfg.filter_kind, cfg.sample_rate)
    valid = validation_items(valid_manifest, cfg.sample_rate, ratio, cfg.filter_kind)
    draws = _validation_draws(cfg, sched, valid)

    runlog = RunLog(out, resume=None if resume_from is None else (start_epoch, global_step))
    best_path = out / "best.ckpt"
    last_path = out / "last.ckpt"
    lr_trace: list[float] = []
    val_trace: list[float] = []
    step_totals: list[float] = []
    t_start = time.monotonic()
    stop = False

    def save(path, epoch):
        meta = CheckpointMeta(__version__, arch, cfg, sched, epoch, global_step,
                              scheduler, rng.bit_generator.state)
        save_state(path, asdict(meta), _flatten(_state_table(model, opt, ema)))

    workers = StepWorkers(model, processes - 1)
    try:
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            opt.lr = scheduler.lr
            for batch in batcher.epoch(rng):
                result = train_step(model, batch, sched, opt, ema, rng, ratio,
                                    clip_norm=cfg.clip_norm, workers=workers)
                global_step += 1
                step_totals.append(result.report.total)
                runlog.step(global_step, epoch, result.report, result.clip_scale)
                if cfg.max_steps and global_step >= cfg.max_steps:
                    stop = True
                    break
            if epoch % cfg.validate_every == 0 or stop or epoch == cfg.epochs:
                vals = [
                    validation_loss(model, hr, inp, sched, ratio,
                                    cfg.sample_rate, k, z).total
                    for (_, hr, inp), (k, z) in zip(valid, draws)
                ]
                val_loss = float(np.mean(vals))
                improved = scheduler.best is None or val_loss < scheduler.best
                scheduler.update(val_loss)
                val_trace.append(val_loss)
                lr_trace.append(scheduler.lr)
                runlog.epoch(epoch, val_loss, scheduler.lr,
                             time.monotonic() - t_start)
                if improved:
                    save(best_path, epoch)
                save(last_path, epoch)
            if stop:
                break
    except NumericsError:
        save(out / "diagnostic.ckpt", -1)
        raise
    finally:
        workers.close()
        runlog.close()
    # A resume from a finished run trains no epoch; its checkpoints keep its epoch.
    for path in (best_path, last_path):
        if not path.exists():
            save(path, start_epoch)
    return FitResult(str(best_path), str(last_path), tuple(lr_trace),
                     tuple(val_trace), global_step, tuple(step_totals))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalRow:
    utterance_id: str
    metrics: MetricReport
    baseline: MetricReport


def evaluate_model(model, manifest: Manifest, ratio: UpsamplingRatio,
                   eval_kind: str, repaint_kind: str, sched: NoiseSchedule,
                   sample_rate: int, seed: int) -> list[EvalRow]:
    """Simulate LR with ``eval_kind``, infer, and score against the HR truth.

    ``repaint_kind`` is the filter family the model was trained with; the
    repainting chain must keep using it even under mismatched evaluation.
    The baseline column scores the cubic-spline interpolation itself. The
    band energy error is taken above the low-rate Nyquist frequency.
    """
    f_lo = 0.5 * sample_rate / ratio.ratio
    rows = []
    for i, entry in enumerate(manifest.entries):
        hr = preprocess(read_wav(entry.path), sample_rate)
        s_lr, s_inp = simulate_lr(hr, ratio, eval_kind)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1, i]))
        s_hat = reverse_infer(s_lr, model, sched, ratio, repaint_kind, rng)
        # Of the ceil(n / r) * r samples, keep the first n, as simulate_lr does.
        s_hat = Waveform(s_hat.samples[:len(hr)], hr.sample_rate)
        ref_spec = stft(hr, METRIC_STFT)
        reports = []
        for est in (s_hat, s_inp):
            est_spec = stft(est, METRIC_STFT)
            reports.append(MetricReport(sisnr_db=sisnr(est.samples, hr.samples),
                                        lsd_db=lsd(ref_spec, est_spec),
                                        band_error_db=band_energy_error(ref_spec, est_spec, f_lo)))
        rows.append(EvalRow(entry.utt_id, *reports))
    return rows


def evaluate(ckpt_path, manifest: Manifest, ratio: UpsamplingRatio,
             eval_kind: str, seed: int = 0) -> list[EvalRow]:
    """Checkpoint-level evaluation of the EMA weights, with the schedule,
    sample rate and repainting filter stored at training time."""
    model, meta = load_model(ckpt_path)
    return evaluate_model(model, manifest, ratio, eval_kind, meta.train_config.filter_kind,
                          meta.schedule, meta.train_config.sample_rate, seed)


def write_report(path, rows: list[EvalRow]):
    """CSV metric table with the cubic-upsampling baseline columns. The band
    energy error columns come last, so the older columns keep their places."""
    table = [[r.metrics.sisnr_db, r.metrics.lsd_db, r.baseline.sisnr_db, r.baseline.lsd_db,
              r.metrics.band_error_db, r.baseline.band_error_db] for r in rows]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utterance_id", "sisnr_db", "lsd_db", "baseline_sisnr_db",
                         "baseline_lsd_db", "band_error_db", "baseline_band_error_db"])
        writer.writerows([r.utterance_id, *values] for r, values in zip(rows, table))
        if rows:
            writer.writerow(["MEAN", *(float(np.mean(col)) for col in np.array(table).T)])
