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
    "malloc_settings",
    "no_grad",
    "ops",
    "save_state",
    "thread_counts",
]


def thread_counts() -> dict:
    """Block workers the engine splits ops over, and threads numpy's BLAS runs
    one GEMM on (None where that BLAS is not scipy-openblas)."""
    return {"workers": ops._workers(), "blas": ops._blas_threads()}


def malloc_settings() -> dict | None:
    """The malloc thresholds the engine set at import, in bytes
    (``mmap_threshold``, ``trim_threshold``), or None where glibc's
    ``mallopt`` is absent or accepted neither."""
    return None if ops._MALLOC is None else dict(ops._MALLOC)
