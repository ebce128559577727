"""Training driver: epochs, plateau LR schedule, checkpoints, evaluation.

Checkpoints carry everything needed to resume bit-exactly: parameters,
Adam moments and step count, the EMA shadow, the plateau scheduler state,
and the master RNG state. Validation draws its diffusion step and noise
from per-utterance side seeds, so it is deterministic across epochs and
never advances the training RNG.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import TrainConfig, arch_from_meta, arch_meta
from .data import Batcher, Manifest, preprocess, read_wav, validation_items
from .diffusion import NoiseSchedule, reverse_infer, train_step, validation_loss
from .dsp import FrameConfig, Waveform, stft
from .engine import Adam, Ema, load_state, save_state
from .errors import ConfigError, NumericsError
from .networks import ArcnConfig, DparnConfig, TwoStageModel
from .objectives import MetricReport, lsd, sisnr
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

    def state(self) -> dict:
        return {"lr": self.lr, "factor": self.factor, "patience": self.patience,
                "best": self.best, "bad_epochs": self.bad_epochs}

    @classmethod
    def from_state(cls, state: dict) -> "PlateauScheduler":
        return cls(**state)


class RunLog:
    """Incremental CSV logs: per-step losses and per-epoch validation/LR."""

    STEP_FIELDS = ("step", "epoch", "l_pred", "l_time", "l_freq", "l_diff",
                   "lambda_weight", "total", "clip_scale")
    EPOCH_FIELDS = ("epoch", "val_loss", "lr", "wall_clock_s")

    def __init__(self, out_dir, resume: tuple[int, int] | None = None):
        """``resume``: (epoch, global_step) of a resumed checkpoint; later rows are dropped."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        epoch, step = resume if resume is not None else (None, None)
        self._steps, self._steps_csv = _open_log(out / "runlog_steps.csv", self.STEP_FIELDS, step)
        self._epochs, self._epochs_csv = _open_log(out / "runlog_epochs.csv", self.EPOCH_FIELDS, epoch)

    def step(self, step, epoch, report, clip_scale):
        self._steps_csv.writerow(
            [step, epoch, report.l_pred, report.l_time, report.l_freq,
             report.l_diff, report.lambda_weight, report.total, clip_scale]
        )
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


def _save_checkpoint(path, model, opt, ema, scheduler, rng, cfg, sched,
                     arcn_cfg, dparn_cfg, epoch, global_step):
    meta = {
        "version": __version__,
        "arch": arch_meta(arcn_cfg, dparn_cfg),
        "schedule": asdict(sched),
        "train_config": asdict(cfg),
        "epoch": epoch,
        "global_step": global_step,
        "adam_step": opt.step_count,
        "scheduler": scheduler.state(),
        "rng_state": rng.bit_generator.state,
    }
    arrays = dict(model.param_arrays())
    arrays.update(opt.state_arrays())
    arrays.update(ema.state_arrays())
    save_state(path, meta, arrays)


def load_model(ckpt_path, use_ema: bool = True) -> tuple[TwoStageModel, dict]:
    """Rebuild the model a checkpoint was trained with; optionally EMA weights."""
    meta, arrays = load_state(ckpt_path)
    arcn_cfg, dparn_cfg = arch_from_meta(meta["arch"])
    model = TwoStageModel(arcn_cfg, dparn_cfg, seed=meta["train_config"]["seed"])
    model.load_param_arrays(arrays)
    if use_ema:
        for p in model.params():
            key = f"ema/{p.name}"
            if key not in arrays:
                raise ConfigError(f"checkpoint has no EMA shadow for {p.name}")
            if arrays[key].shape != p.data.shape:
                raise ConfigError(f"EMA shape mismatch for {p.name}")
            p.data[...] = arrays[key]
    return model, meta


def fit(cfg: TrainConfig, arcn_cfg: ArcnConfig, dparn_cfg: DparnConfig,
        sched: NoiseSchedule, train_manifest: Manifest, valid_manifest: Manifest,
        out_dir, resume_from=None) -> FitResult:
    """Run the training loop; writes checkpoints, logs, and run metadata."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ratio = UpsamplingRatio(cfg.ratio)
    model = TwoStageModel(arcn_cfg, dparn_cfg, seed=cfg.seed)
    opt = Adam(model.params(), lr=cfg.learning_rate)
    ema = Ema(model.params(), decay=cfg.ema_decay)
    scheduler = PlateauScheduler(lr=cfg.learning_rate, factor=cfg.lr_factor,
                                 patience=cfg.plateau_patience)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB47C4]))
    start_epoch = 0
    global_step = 0

    if resume_from is not None:
        meta, arrays = load_state(resume_from)
        if meta["arch"] != arch_meta(arcn_cfg, dparn_cfg):
            raise ConfigError("checkpoint architecture differs from configuration")
        model.load_param_arrays(arrays)
        opt.load_state_arrays(arrays, meta["adam_step"])
        ema.load_state_arrays(arrays)
        scheduler = PlateauScheduler.from_state(meta["scheduler"])
        rng.bit_generator.state = meta["rng_state"]
        start_epoch = meta["epoch"]
        global_step = meta["global_step"]

    (out / "run_meta.json").write_text(json.dumps({
        "version": __version__,
        "train_config": asdict(cfg),
        "arch": arch_meta(arcn_cfg, dparn_cfg),
        "schedule": asdict(sched),
        "resumed_from": str(resume_from) if resume_from else None,
    }, indent=2, sort_keys=True))

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
    best_val = scheduler.best
    t_start = time.monotonic()
    stop = False

    try:
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            for batch in batcher.epoch(rng):
                result = train_step(model, batch, sched, opt, ema, rng, ratio,
                                    clip_norm=cfg.clip_norm)
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
                opt.lr = scheduler.lr
                val_trace.append(val_loss)
                lr_trace.append(scheduler.lr)
                runlog.epoch(epoch, val_loss, scheduler.lr,
                             time.monotonic() - t_start)
                if improved or best_val is None:
                    best_val = val_loss
                    _save_checkpoint(best_path, model, opt, ema, scheduler, rng,
                                     cfg, sched, arcn_cfg, dparn_cfg, epoch,
                                     global_step)
                _save_checkpoint(last_path, model, opt, ema, scheduler, rng,
                                 cfg, sched, arcn_cfg, dparn_cfg, epoch,
                                 global_step)
            if stop:
                break
    except NumericsError:
        diag = out / "diagnostic.ckpt"
        _save_checkpoint(diag, model, opt, ema, scheduler, rng, cfg, sched,
                         arcn_cfg, dparn_cfg, -1, global_step)
        raise
    finally:
        runlog.close()
    if not best_path.exists():
        _save_checkpoint(best_path, model, opt, ema, scheduler, rng, cfg, sched,
                         arcn_cfg, dparn_cfg, 0, global_step)
    if not last_path.exists():
        _save_checkpoint(last_path, model, opt, ema, scheduler, rng, cfg, sched,
                         arcn_cfg, dparn_cfg, 0, global_step)
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
    The baseline column scores the cubic-spline interpolation itself.
    """
    rows = []
    for i, entry in enumerate(manifest.entries):
        hr = preprocess(read_wav(entry.path), sample_rate)
        s_lr, s_inp = simulate_lr(hr, ratio, eval_kind)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1, i]))
        s_hat = reverse_infer(s_lr, model, sched, ratio, repaint_kind, rng)
        ref_spec = stft(hr, METRIC_STFT)
        rows.append(EvalRow(
            utterance_id=entry.utt_id,
            metrics=MetricReport(
                sisnr_db=sisnr(s_hat.samples, hr.samples),
                lsd_db=lsd(ref_spec, stft(s_hat, METRIC_STFT)),
            ),
            baseline=MetricReport(
                sisnr_db=sisnr(s_inp.samples, hr.samples),
                lsd_db=lsd(ref_spec, stft(s_inp, METRIC_STFT)),
            ),
        ))
    return rows


def evaluate(ckpt_path, manifest: Manifest, ratio: UpsamplingRatio,
             eval_kind: str, sched: NoiseSchedule | None = None,
             sample_rate: int | None = None, seed: int = 0,
             use_ema: bool = True) -> list[EvalRow]:
    """Checkpoint-level evaluation; schedule and rates default to the
    values stored at training time."""
    model, meta = load_model(ckpt_path, use_ema=use_ema)
    train_cfg = meta["train_config"]
    if sched is None:
        sched = NoiseSchedule(**meta["schedule"])
    if sample_rate is None:
        sample_rate = train_cfg["sample_rate"]
    return evaluate_model(model, manifest, ratio, eval_kind,
                          train_cfg["filter_kind"], sched, sample_rate, seed)


def write_report(path, rows: list[EvalRow]):
    """CSV metric table with the cubic-upsampling baseline columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utterance_id", "sisnr_db", "lsd_db",
                         "baseline_sisnr_db", "baseline_lsd_db"])
        for row in rows:
            writer.writerow([row.utterance_id, row.metrics.sisnr_db,
                             row.metrics.lsd_db, row.baseline.sisnr_db,
                             row.baseline.lsd_db])
        if rows:
            writer.writerow([
                "MEAN",
                float(np.mean([r.metrics.sisnr_db for r in rows])),
                float(np.mean([r.metrics.lsd_db for r in rows])),
                float(np.mean([r.baseline.sisnr_db for r in rows])),
                float(np.mean([r.baseline.lsd_db for r in rows])),
            ])
