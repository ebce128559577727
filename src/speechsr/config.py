"""Run configuration: dataclasses plus the text key-value config format.

Config files are plain ``key = value`` lines ('#' starts a comment).
Dotted prefixes route values: ``train.*`` (loop hyperparameters),
``arcn.*`` / ``dparn.*`` (architectures), ``schedule.*`` (noise schedule),
and bare keys ``train_manifest``, ``valid_manifest``, ``out_dir``. Each
section starts from its dataclass's defaults; the file's values overlay
them and ``from_dict`` checks the result, as it checks checkpoint meta.

Example::

    train_manifest = corpus/manifest.tsv
    valid_manifest = corpus/manifest.tsv
    out_dir = runs/demo
    train.epochs = 50
    train.batch_size = 4
    arcn.base_channels = 8
    arcn.frame_ms = 8
    schedule.inference_steps = 10
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .diffusion import NoiseSchedule
from .errors import ConfigError
from .networks import ArcnConfig, DparnConfig
from .resample import FILTER_KINDS, UpsamplingRatio


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 4          # paper-scale runs use 32
    crop_seconds: float = 4.0
    learning_rate: float = 0.0006
    ema_decay: float = 0.999
    seed: int = 0
    ratio: int = 2
    filter_kind: str = "chebyshev"
    sample_rate: int = 16000
    validate_every: int = 1
    max_steps: int = 0           # 0 means no step cap

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.epochs < 1 or self.batch_size < 1 or self.crop_seconds <= 0:
            raise ConfigError("epochs, batch_size, crop_seconds must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0 <= self.ema_decay <= 1:
            raise ConfigError("ema_decay must lie in [0, 1]")
        if self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be at least 1 Hz, got {self.sample_rate}")
        if self.validate_every < 1:
            raise ConfigError("validate_every must be at least 1")
        if self.max_steps < 0:
            raise ConfigError("max_steps must be nonnegative (0 means no cap)")
        if self.filter_kind not in FILTER_KINDS:
            raise ConfigError(f"unknown filter kind {self.filter_kind!r}")
        try:
            object.__setattr__(self, "ratio", UpsamplingRatio(self.ratio).ratio)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.sample_rate % self.ratio != 0:
            raise ConfigError(f"ratio {self.ratio} does not divide sample_rate {self.sample_rate}")


@dataclass(frozen=True)
class Arch:
    arcn: ArcnConfig
    dparn: DparnConfig


@dataclass(frozen=True)
class RunSpec:
    train: TrainConfig
    schedule: NoiseSchedule
    arcn: ArcnConfig
    dparn: DparnConfig
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
    seen: dict[str, int] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {ln}: {key!r} is already set on line {seen[key]}")
        seen[key] = ln
        out[key] = _coerce(value)
    return out


def load_run_spec(path) -> RunSpec:
    """Parse a config file: each section's defaults overlaid with the file's values."""
    spec = {name: asdict(cls()) for name, cls in get_type_hints(RunSpec).items()
            if is_dataclass(cls)}
    for key, value in parse_kv_text(Path(path).read_text()).items():
        table, name = spec, key
        if "." in key:
            section, name = key.split(".", 1)
            if not isinstance(spec.get(section), dict):
                raise ConfigError(f"{path}: unknown config section {section!r}")
            table = spec[section]
        if isinstance(table.get(name), dict):
            raise ConfigError(f"{path}: {key!r} is a table, not a value")
        table[name] = value
    for key in ("train_manifest", "valid_manifest", "out_dir"):
        if key in spec:
            spec[key] = str(Path(path).parent / str(spec[key]))
    return from_dict(RunSpec, spec, str(path))


def from_dict(cls, values, where: str, _name: str = ""):
    """Build dataclass ``cls`` from a plain dict (config sections, checkpoint meta).

    Every field is required and no other key is allowed. A dataclass field
    is rebuilt recursively; any other value must fit its annotation (a
    ``float`` takes an int, nothing takes a bool). Raises ConfigError naming
    ``where`` and the dotted field, also for the constructor's errors.
    """
    label = repr(_name) if _name else cls.__name__
    if not isinstance(values, dict):
        raise ConfigError(f"{where}: {label} must be a table, got {values!r}")
    hints = get_type_hints(cls)
    for problem, keys in (("unknown", values.keys() - hints), ("missing", hints.keys() - values)):
        if keys:
            dotted = ", ".join(sorted(repr(f"{_name}.{k}".lstrip(".")) for k in keys))
            raise ConfigError(f"{where}: {problem} key {dotted}")
    kwargs = {}
    for name, hint in hints.items():
        value, dotted = values[name], f"{_name}.{name}".lstrip(".")
        kinds = tuple((int, float) if t is float else t for t in get_args(hint) or (hint,))
        if is_dataclass(hint):
            value = from_dict(hint, value, where, dotted)
        elif isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(f"{where}: {dotted!r} must be "
                              f"{getattr(hint, '__name__', hint)}, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {label}: {exc}") from exc
