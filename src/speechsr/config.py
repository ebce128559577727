"""Run configuration: dataclasses plus the text key-value config format.

Config files are plain ``key = value`` lines ('#' starts a comment).
Dotted prefixes route values: ``train.*`` (loop hyperparameters),
``arcn.*`` / ``dparn.*`` (architectures), ``schedule.*`` (noise schedule),
and bare keys ``train_manifest``, ``valid_manifest``, ``out_dir``.

Example::

    train_manifest = corpus/manifest.tsv
    valid_manifest = corpus/manifest.tsv
    out_dir = runs/demo
    train.epochs = 50
    train.batch_size = 4
    arcn.base_channels = 8
    arcn.frame_ms = 8
    schedule.total_steps = 1000
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from .diffusion import NoiseSchedule
from .dsp import FrameConfig
from .errors import ConfigError
from .networks import ArcnConfig, DparnConfig, TimeEmbeddingConfig
from .resample import UpsamplingRatio


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 4          # paper-scale runs use 32
    crop_seconds: float = 4.0
    learning_rate: float = 0.0006
    plateau_patience: int = 3
    lr_factor: float = 0.5
    clip_norm: float = 1.0
    ema_decay: float = 0.999
    seed: int = 0
    ratio: int = 2
    filter_kind: str = "chebyshev"
    sample_rate: int = 16000
    validate_every: int = 1
    max_steps: int = 0           # 0 means no step cap

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.crop_seconds <= 0:
            raise ConfigError("epochs, batch_size, crop_seconds must be positive")
        if not 0 < self.lr_factor < 1:
            raise ConfigError("lr_factor must lie in (0, 1)")
        if self.learning_rate <= 0 or self.clip_norm <= 0:
            raise ConfigError("learning_rate and clip_norm must be positive")
        if not 0 <= self.ema_decay <= 1:
            raise ConfigError("ema_decay must lie in [0, 1]")
        if self.validate_every < 1:
            raise ConfigError("validate_every must be at least 1")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be nonnegative (0 means no cap)")
        if self.filter_kind not in ("chebyshev", "bessel"):
            raise ConfigError(f"unknown filter kind {self.filter_kind!r}")
        try:
            object.__setattr__(self, "ratio", UpsamplingRatio(self.ratio).ratio)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunSpec:
    train: TrainConfig
    arcn: ArcnConfig
    dparn: DparnConfig
    schedule: NoiseSchedule
    train_manifest: str
    valid_manifest: str
    out_dir: str


def _coerce(raw: str):
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_kv_text(text: str) -> dict[str, object]:
    out: dict[str, object] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        out[key.strip()] = _coerce(value)
    return out


def _build_arcn(items: dict) -> ArcnConfig:
    base = ArcnConfig()
    stft = dict(frame_ms=base.stft.frame_ms, hop_ms=base.stft.hop_ms)
    temb = dict(dim=base.temb.dim, out=base.temb.out, max_steps=base.temb.max_steps)
    kwargs = {}
    for key, value in items.items():
        if key == "frame_ms":
            stft["frame_ms"] = value
        elif key == "hop_ms":
            stft["hop_ms"] = value
        elif key == "temb_dim":
            temb["dim"] = value
        elif key == "temb_out":
            temb["out"] = value
        else:
            kwargs[key] = value
    if "schedule_total_steps" in kwargs:
        temb["max_steps"] = kwargs.pop("schedule_total_steps")
    try:
        return ArcnConfig(stft=FrameConfig(**stft), temb=TimeEmbeddingConfig(**temb),
                          **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad arcn config: {exc}") from exc


def _build_dataclass(cls, items: dict, label: str):
    try:
        return cls(**items)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {label} config: {exc}") from exc


def load_run_spec(path) -> RunSpec:
    """Parse a config file into a full run specification."""
    values = parse_kv_text(Path(path).read_text())
    groups: dict[str, dict] = {"train": {}, "arcn": {}, "dparn": {}, "schedule": {}}
    top: dict[str, object] = {}
    for key, value in values.items():
        if "." in key:
            prefix, name = key.split(".", 1)
            if prefix not in groups:
                raise ConfigError(f"unknown config section {prefix!r}")
            groups[prefix][name] = value
        else:
            top[key] = value
    known_top = {"train_manifest", "valid_manifest", "out_dir"}
    unknown = set(top) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    missing = known_top - set(top)
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    train = _build_dataclass(TrainConfig, groups["train"], "train")
    schedule = _build_dataclass(NoiseSchedule, groups["schedule"], "schedule")
    groups["arcn"].setdefault("schedule_total_steps", schedule.total_steps)
    arcn = _build_arcn(groups["arcn"])
    dparn = _build_dataclass(DparnConfig, groups["dparn"], "dparn")
    base = Path(path).parent

    def _resolve(p):
        q = Path(str(p))
        return str(q if q.is_absolute() else base / q)

    return RunSpec(
        train=train, arcn=arcn, dparn=dparn, schedule=schedule,
        train_manifest=_resolve(top["train_manifest"]),
        valid_manifest=_resolve(top["valid_manifest"]),
        out_dir=_resolve(top["out_dir"]),
    )


def arch_meta(arcn: ArcnConfig, dparn: DparnConfig) -> dict:
    return {"arcn": asdict(arcn), "dparn": asdict(dparn)}


def arch_from_meta(meta: dict) -> tuple[ArcnConfig, DparnConfig]:
    a = dict(meta["arcn"])
    try:
        a["stft"] = FrameConfig(**a["stft"])
        a["temb"] = TimeEmbeddingConfig(**a["temb"])
        return ArcnConfig(**a), DparnConfig(**meta["dparn"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid architecture metadata: {exc}") from exc
