"""Minimal dense-tensor compute with reverse-mode differentiation."""

from . import ops
from .checkpoint import load_state, save_state
from .optim import Adam, Ema, clip_global_norm
from .tensor import Parameter, Tensor, as_tensor, no_grad

__all__ = [
    "Adam",
    "Ema",
    "Parameter",
    "Tensor",
    "as_tensor",
    "clip_global_norm",
    "load_state",
    "no_grad",
    "ops",
    "save_state",
]
