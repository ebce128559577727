"""Differentiable operations: primitives, conv/framing kernels, layers.

Primitives carry hand-written vjps, among them SiLU, the STFT/iSTFT pair,
which runs on :mod:`speechsr.dsp`'s rfft kernels, and ``attention``, which
computes ``softmax(q kᵀ) v`` in blocks of query rows and keeps only the
probabilities for backward. ``conv2d`` adds its bias inside its own node
and has two GEMM layouts, chosen by operand shape alone: im2col patches, or
one GEMM of every kernel tap against the flat input when that intermediate
is the smaller (few output channels, as in ARCN's output conv). Both run
in blocks of at most ``CONV_BLOCK_BYTES``, so a long input never holds a
whole patch matrix (55 MB for the tiny ARCN's input conv on 4 s) or a whole
tap-response matrix, and both keep the unblocked product's bits: a GEMM
column computed in a slice that starts on a 16-column panel and spans whole
panels has the whole product's bits. im2col takes blocks of output rows
whose patches fill whole panels. The per-tap GEMM takes windows of the flat
padded input that start on a panel; its last window ends in the product's
partial tail panel, which a narrow GEMM computes with other bits, so that
window starts early enough to be as wide as the others. Without a graph
the padded input is built one block of rows at a time; with one, the vjp
keeps it whole and builds dX as a forward correlation. The layers are
primitives, not compositions: ``linear``, ``pointwise_channels``,
``fir_resample_freq``, the whole-sequence ``gru`` and the fused
``group_norm_silu`` are one graph node each and add their bias in place;
``group_norm_silu`` works through its groups in chunks of the same budget.

The forward passes over whole maps run on every CPU: attention's query
blocks, im2col's row blocks (forward and dX) with conv2d's bias,
GroupNorm's chunks, ``pointwise_channels``' column blocks, and the
leading-axis blocks of ``add``, ``mul`` and ``fir_resample_freq`` are
shared among one worker per CPU in the process's affinity mask
(:func:`_run_blocks`), each with its own scratch. Every block keeps its
boundary and writes its own slice of the output, and numpy's OpenBLAS is
pinned to one thread at import, so each GEMM runs whole on one thread and
the output bits depend on neither the worker nor the BLAS thread count.
A map within ``CONV_BLOCK_BYTES`` stays one block on the calling thread,
and so do the per-tap windows, the accumulated dW and every vjp but dX.

At import the engine also raises glibc's mmap and trim thresholds, so the
maps one step frees are reused by the next instead of being returned to
the kernel and faulted back in.

A vjp closure is the only thing in the graph that keeps arrays, so each
captures only what it reads: an input's shape where that is all it needs
(``add``, ``sub``, ``reshape``, ``getitem``, ``sum_``, ``fir_resample_freq``),
an input's data only where the vjp reads it (``mul``, ``linear``,
``pointwise_channels``, ``attention``, ``silu``, ``gru``).
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..dsp import (frame_signal, hann_window, istft_values, overlap_add, stft_values,
                   synthesis_gain)
from .tensor import as_tensor, make_result, records, unbroadcast

# Query rows per attention block. One-thread timings at T = 2,003 frames were
# flat from 128 to 512 rows, but the boundary is part of the output bits
# (128-row blocks give other bits), so 256 rows it stays, however many
# workers share the blocks.
ATTENTION_BLOCK = 256

# Bytes of im2col patches or tap responses that conv2d builds per block, and
# of GroupNorm scratch per chunk of groups.
CONV_BLOCK_BYTES = 2 << 20
# Columns per panel of OpenBLAS's AVX-512 dgemm kernel. A GEMM computes its
# last partial panel with another kernel, so a column slice of a product
# keeps the whole product's bits only if it starts and ends on whole panels.
_GEMM_PANEL = 16

# ---------------------------------------------------------------------------
# block runner: independent blocks of one op on every CPU, BLAS on one thread
# ---------------------------------------------------------------------------


def _openblas():
    """numpy's scipy-openblas library, or None where numpy links another BLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for lib in libs:
        try:
            blas = ctypes.CDLL(lib)
            get = blas.scipy_openblas_get_num_threads64_
            set_ = blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return blas
    return None


# A GEMM that OpenBLAS splits over threads can give other bits at another
# thread count; one thread per GEMM, with the blocks below on every CPU,
# makes the bits independent of both counts.
_OPENBLAS = _openblas()
if _OPENBLAS is not None:
    _OPENBLAS.scipy_openblas_set_num_threads64_(1)


# glibc returns a freed block above its mmap threshold to the kernel at once,
# and trims the heap when more than its trim threshold is free at the top; the
# next step then faults the same pages in again. With the largest mmap
# threshold glibc accepts on 64-bit and a trim threshold above what a
# desk-scale step frees, one step's freed maps serve the next. A trim
# threshold of 256 MiB or more would also spare a paper-scale 4 s forward
# most of its remaining faults, but would raise its peak from 287 to 350 MB
# (271 MB with glibc's defaults). <malloc.h>'s parameter numbers:
_MALLOPT = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 128 << 20)}


def _raise_malloc_thresholds():
    """The thresholds ``mallopt`` accepted, or None where it is absent or took none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # not glibc, or no dlopen(NULL)
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    applied = {name: value for name, (param, value) in _MALLOPT.items()
               if mallopt(param, value) == 1}
    return applied or None


_MALLOC = _raise_malloc_thresholds()


def _blas_threads():
    """Threads numpy's OpenBLAS runs one GEMM on, or None where it is not found."""
    return None if _OPENBLAS is None else _OPENBLAS.scipy_openblas_get_num_threads64_()


def _workers() -> int:
    """Block workers: one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None  # the runner's threads, made on first use
_pool_lock = threading.Lock()


_in_pool = threading.local()  # ``worker`` is set in the pool's own threads


def _mark_pool_thread():
    _in_pool.worker = True


def _forget_pool():
    # A forked child has only the forking thread; an inherited executor would
    # count its parent's idle threads as its own and never start any.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _run_blocks(run, blocks) -> None:
    """Call ``run(part)`` on up to ``_workers()`` non-empty parts of ``blocks`` at once.

    A part is a contiguous run of whole blocks, so each block is computed as
    it is alone, and ``run`` keeps one scratch buffer per part. The calling
    thread takes the first part and pool threads the others; one part runs
    inline, and so does every call made from a pool thread, which would
    otherwise wait on parts queued behind its own. Once every part has
    finished, an exception from any of them is raised here. ``run`` calls
    only numpy, never a public op or :func:`make_result`: a tracer may wrap
    those with a span stack that is not thread-safe.
    """
    global _pool
    blocks = list(blocks)
    n = min(_workers(), len(blocks))
    if n <= 1 or getattr(_in_pool, "worker", False):
        if blocks:
            run(blocks)
        return
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(_workers() - 1, 1), "speechsr-block",
                                       initializer=_mark_pool_thread)
        pool = _pool
    parts = [blocks[len(blocks) * i // n:len(blocks) * (i + 1) // n] for i in range(n)]
    futures = [pool.submit(run, part) for part in parts[1:]]
    try:
        run(parts[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _blocks(n: int, item_bytes: int) -> list:
    """``(lo, hi)`` bounds of the fewest blocks of ``n`` items of ``item_bytes``
    each that hold at most ``CONV_BLOCK_BYTES`` (at least one item).

    Items within the budget stay one block. Several blocks are evened out to
    a multiple of the workers, so each worker gets as many.
    """
    count = -(-n // max(1, CONV_BLOCK_BYTES // max(item_bytes, 1)))
    if count > 1:
        workers = _workers()
        count = -(-count // workers) * workers
    size = max(1, -(-n // max(count, 1)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _leading_blocks(kernel, out: np.ndarray, *operands) -> np.ndarray:
    """``kernel(*operands, out)`` in blocks of the leading axis, on the block workers.

    An operand whose leading axis is the output's is sliced with it; any
    other (a broadcast one) is passed whole. A map within
    ``CONV_BLOCK_BYTES`` is one call on the calling thread.
    """
    if out.ndim < 2 or out.nbytes <= CONV_BLOCK_BYTES:
        kernel(*operands, out)
        return out
    sliced = [x.ndim == out.ndim and x.shape[0] == out.shape[0] for x in operands]

    def run(blocks):
        for lo, hi in blocks:
            kernel(*(x[lo:hi] if cut else x for x, cut in zip(operands, sliced)), out[lo:hi])

    _run_blocks(run, _blocks(out.shape[0], out.nbytes // out.shape[0]))
    return out


def _elementwise(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)`` with broadcasting; an operand above ``CONV_BLOCK_BYTES``
    makes it run in leading-axis blocks into a C-ordered output."""
    if max(a.nbytes, b.nbytes) <= CONV_BLOCK_BYTES:
        return ufunc(a, b)
    return _leading_blocks(ufunc, np.empty(np.broadcast_shapes(a.shape, b.shape)), a, b)


# ---------------------------------------------------------------------------
# elementwise and shape primitives
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = _elementwise(np.add, a.data, b.data)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return unbroadcast(g, a_shape), unbroadcast(g, b_shape)

    return make_result(data, (a, b), vjp)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return unbroadcast(g, a_shape), unbroadcast(-g, b_shape)

    return make_result(data, (a, b), vjp)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    data = _elementwise(np.multiply, a.data, b.data)

    def vjp(g):
        return unbroadcast(g * b.data, a.shape), unbroadcast(g * a.data, b.shape)

    return make_result(data, (a, b), vjp)


def reshape(a, shape):
    a = as_tensor(a)
    a_shape = a.shape
    return make_result(a.data.reshape(shape), (a,), lambda g: (g.reshape(a_shape),))


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return make_result(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def getitem(a, idx):
    a = as_tensor(a)
    data = a.data[idx]
    if np.shares_memory(data, a.data):
        data = data.copy()
    a_shape = a.shape

    def vjp(g):
        out = np.zeros(a_shape, dtype=np.float64)
        out[idx] = g
        return (out,)

    return make_result(data, (a,), vjp)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return make_result(data, tuple(tensors), vjp)


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    a_shape = a.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a_shape).copy(),)

    return make_result(data, (a,), vjp)


def mean_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def abs_(a):
    a = as_tensor(a)
    return make_result(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def tanh(a):
    a = as_tensor(a)
    data = np.tanh(a.data)
    return make_result(data, (a,), lambda g: (g * (1.0 - data * data),))


def attention(q, k, v):
    """``softmax(q kᵀ) v`` over the last two axes, with any leading batch axes.

    Query rows are taken ``ATTENTION_BLOCK`` at a time: scores into a
    reused block buffer, an in-place stable softmax, then ``@ v`` into the
    preallocated output. The blocks are shared among the block workers
    (:func:`_run_blocks`), each with its own buffer, so the transient memory
    is one block of scores per worker. When the graph is recorded the
    probabilities are also kept; they are all the vjp needs besides q, k
    and v.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ValueError(f"attention needs ndim >= 2 operands, got {q.shape}, {k.shape}, {v.shape}")
    tq, tk = q.shape[-2], k.shape[-2]
    kt = k.data.swapaxes(-1, -2)
    out = np.empty(q.shape[:-1] + v.shape[-1:])
    block = q.shape[:-2] + (min(tq, ATTENTION_BLOCK), tk)
    probs = np.empty(q.shape[:-1] + (tk,)) if records((q, k, v)) else None

    def run(blocks):
        scores = np.empty(block)
        for lo, hi in blocks:
            rows = (..., slice(lo, hi), slice(None))
            s = np.matmul(q.data[rows], kt, out=scores[..., :hi - lo, :])
            s -= s.max(axis=-1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=-1, keepdims=True)
            np.matmul(s, v.data, out=out[rows])
            if probs is not None:
                probs[rows] = s

    _run_blocks(run, [(lo, min(lo + ATTENTION_BLOCK, tq)) for lo in range(0, tq, ATTENTION_BLOCK)])

    def vjp(g):
        gv = np.matmul(probs.swapaxes(-1, -2), g)
        gs = np.matmul(g, v.data.swapaxes(-1, -2))
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gq = np.matmul(gs, k.data)
        gk = np.matmul(q.data.swapaxes(-1, -2), gs).swapaxes(-1, -2)
        return gq, gk, gv

    return make_result(out, (q, k, v), vjp)


def silu(a):
    """x * sigmoid(x), one node with a closed-form vjp."""
    a = as_tensor(a)
    # empty_like keeps a 0-d input an array, so ``out=`` works on it too.
    sig = np.negative(a.data, out=np.empty_like(a.data))
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    data = a.data * sig

    def vjp(g):
        ga = g * a.data
        ga *= sig
        ga *= 1.0 - sig
        ga += g * sig
        return (ga,)

    return make_result(data, (a,), vjp)


def complex_magnitude(re, im):
    """sqrt(re^2 + im^2) with a zero subgradient at the origin."""
    re, im = as_tensor(re), as_tensor(im)
    data = np.hypot(re.data, im.data)

    def vjp(g):
        safe = np.where(data > 0.0, data, 1.0)
        scale = g / safe
        zero = data == 0.0
        gre = np.where(zero, 0.0, scale * re.data)
        gim = np.where(zero, 0.0, scale * im.data)
        return gre, gim

    return make_result(data, (re, im), vjp)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(C, Hp, Wp) -> (C*kh*kw, Ho*Wo) patch matrix for stride-1 correlation."""
    c, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(c, kh, kw, ho, wo), strides=(sc, sh, sw, sh, sw)
    )
    return windows.reshape(c * kh * kw, ho * wo)


def _row_blocks(k: int, ho: int, wo: int):
    """``(lo, hi)`` bounds of the blocks of output rows whose ``k``-row patches
    conv2d builds one at a time, from input rows [lo, hi + kh - 1).

    A block holds as many rows as fit in ``CONV_BLOCK_BYTES``, rounded down
    to whole GEMM panels (at least one panel). An output whose ``Ho*Wo``
    columns end in a partial panel is one block.
    """
    step = _GEMM_PANEL // math.gcd(wo, _GEMM_PANEL)  # rows per whole number of panels
    rows = ho
    if ho % step == 0:
        rows = max(step, CONV_BLOCK_BYTES // (8 * k * wo) // step * step)
    for lo in range(0, ho, rows):
        yield lo, min(lo + rows, ho)


def _tap_windows(k: int, n: int):
    """``(a, b)`` windows of the ``n`` flat input columns whose ``k``-row tap
    responses :func:`_conv_taps` computes one at a time.

    A window holds as many columns as fit in ``CONV_BLOCK_BYTES``, rounded
    down to whole GEMM panels, and starts on a panel, so each column keeps
    the whole product's bits. The last window ends at ``n``, in the
    product's partial panel; a GEMM narrower than a few thousand columns
    computes that panel with other bits, so the last window starts early
    enough to be at least as wide as the others.
    """
    width = max(_GEMM_PANEL, CONV_BLOCK_BYTES // (8 * k) // _GEMM_PANEL * _GEMM_PANEL)
    a = 0
    while a + width < n:
        yield a, a + width
        a += width
    yield max(n - width, 0) // _GEMM_PANEL * _GEMM_PANEL, n


def _padded_rows(x: np.ndarray, pt: int, pf: int):
    """``rows(lo, hi)``: rows [lo, hi) of ``x`` zero-padded by ``pt`` rows and
    ``pf`` columns per side, shape (C, hi - lo, W + 2*pf).

    Unpadded rows are views of ``x``. Otherwise each call copies its rows
    into one reused buffer, valid until the next call, so the whole padded
    map never exists.
    """
    if pt == 0 and pf == 0:
        return lambda lo, hi: x[:, lo:hi]
    c, h, f = x.shape
    buf = np.zeros((c, 0, f + 2 * pf))

    def rows(lo, hi):
        nonlocal buf
        if hi - lo > buf.shape[1]:
            buf = np.zeros((c, hi - lo, f + 2 * pf))
        block = buf[:, :hi - lo]
        src_lo = max(lo - pt, 0)
        src_hi = max(min(hi - pt, h), src_lo)
        top = src_lo - (lo - pt)
        bottom = top + src_hi - src_lo
        block[:, :top] = 0.0  # the zero halo; the column pads are never written
        block[:, bottom:] = 0.0
        block[:, top:bottom, pf:pf + f] = x[:, src_lo:src_hi]
        return block

    return rows


def _conv_taps(rows, w: np.ndarray, hp: int, wp: int, bias=None) -> np.ndarray:
    """Stride-1 correlation as GEMMs of every tap against the flat padded input.

    ``(kh*kw*O, C) @ (C, Hp*Wp)`` gives each tap's response at every padded
    position; output (t, f) sums tap (i, j) at flat offset
    ``t*Wp + f + i*Wp + j``, so each tap is a shifted slice of the flat
    responses. The product runs one window of flat columns at a time
    (:func:`_tap_windows`), read from the padded rows ``rows(lo, hi)`` that
    span it. Each window's responses are added to the positions they feed,
    tap by tap in the unblocked order, into an accumulator that holds only
    the rows not yet complete; complete rows are cropped to ``Wo`` columns
    and moved to the output, where ``bias`` (O, 1, 1), if any, is added.
    """
    o, c, kh, kw = w.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    w2 = w.transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
    shifts = [i * wp + j for i in range(kh) for j in range(kw)]
    span = (ho - 1) * wp + wo  # flat output positions; columns past Wo wrap rows
    windows = list(_tap_windows(kh * kw * o, hp * wp))
    # Unfinished rows reach back at most shifts[-1] + Wp before a window's columns.
    acc = np.empty((o, min(ho * wp, windows[0][1] + shifts[-1] + 2 * wp)))
    out = np.empty((o, ho, wo))
    base = done = 0  # flat position of acc[:, 0] (a row start); columns already summed
    for a, b in windows:
        r0, r1 = a // wp, -(-b // wp)
        window = rows(r0, r1).reshape(c, -1)[:, a - r0 * wp:b - r0 * wp]
        resp = (w2 @ window).reshape(kh * kw, o, b - a)
        for tap, shift in enumerate(shifts):
            lo, hi = max(done - shift, base), min(b - shift, span)
            if lo >= hi:
                continue
            src = resp[tap, :, lo + shift - a:hi + shift - a]
            if tap:
                acc[:, lo - base:hi - base] += src
            else:
                acc[:, lo - base:hi - base] = src
        resp = src = None  # freed before the next window's GEMM allocates its own
        done = b
        # Row t is complete once every tap of its last column, (t + kh)*Wp - 1, is summed.
        t0, t1 = base // wp, min(b // wp - kh + 1, ho)
        if t1 > t0:
            out[:, t0:t1] = acc[:, :(t1 - t0) * wp].reshape(o, t1 - t0, wp)[:, :, :wo]
            if bias is not None:
                out[:, t0:t1] += bias
            held = min(b, span) - t1 * wp
            if held > 0:
                acc[:, :held] = acc[:, (t1 - t0) * wp:(t1 - t0) * wp + held]
            base = t1 * wp
    return out


def _correlate(x: np.ndarray, pt: int, pf: int, w: np.ndarray, b=None) -> np.ndarray:
    """Stride-1 correlation of (C, H, W) ``x``, zero-padded by ``pt`` rows and
    ``pf`` columns per side, with ``w``, in the smaller-intermediate layout,
    plus the (O,) bias ``b`` if one is given.

    im2col's row blocks, each adding the bias to its own rows, are shared
    among the block workers, each reading its rows through its own
    :func:`_padded_rows`; the per-tap windows run on the calling thread.
    """
    o, c, kh, kw = w.shape
    hp, wp = x.shape[1] + 2 * pt, x.shape[2] + 2 * pf
    ho, wo = hp - kh + 1, wp - kw + 1
    if o * hp * wp < c * ho * wo:
        return _conv_taps(_padded_rows(x, pt, pf), w, hp, wp,
                          None if b is None else b.reshape(o, 1, 1))
    out = np.empty((o, ho, wo))
    w2, flat = w.reshape(o, -1), out.reshape(o, ho * wo)

    def run(blocks):
        rows = _padded_rows(x, pt, pf)
        for lo, hi in blocks:
            block = np.matmul(w2, _im2col(rows(lo, hi + kh - 1), kh, kw),
                              out=flat[:, lo * wo:hi * wo])
            if b is not None:
                block += b.reshape(o, 1)

    _run_blocks(run, _row_blocks(c * kh * kw, ho, wo))
    return out


def _taps_weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """dL/dw of :func:`_conv_taps`, one ``(O, span) @ (span, C)`` GEMM per tap.

    g is zero-filled past ``Wo`` to the flat ``(O, Ho·Wp)`` layout, so tap
    (i, j) pairs it with the same contiguous slice of the flat input that
    the forward summed; the wrapped columns meet zeros.
    """
    o, ho, wo = g.shape
    c, hp, wp = xp.shape
    span = (ho - 1) * wp + wo
    gz = np.zeros((o, ho, wp))
    gz[:, :, :wo] = g
    gflat = gz.reshape(o, ho * wp)[:, :span]
    xflat = xp.reshape(c, hp * wp)
    gw = np.empty((o, c, kh, kw))
    for i in range(kh):
        for j in range(kw):
            shift = i * wp + j
            gw[:, :, i, j] = gflat @ xflat[:, shift:shift + span].T
    return gw


def conv2d(x, w, b=None, pad=(0, 0)):
    """2-D cross-correlation over (C_in, T, F) with zero padding, stride 1.

    ``w`` has shape (C_out, C_in, kh, kw); ``b`` (C_out,) is added per
    output channel in place, block by block of the output, so the conv with
    its bias is one node. The forward takes whichever GEMM layout has the
    smaller intermediate:
    im2col's ``(C*kh*kw, Ho*Wo)`` patches, or the ``(kh*kw*O, Hp*Wp)``
    per-tap responses of :func:`_conv_taps` when ``O*Hp*Wp < C*Ho*Wo``
    (few output channels, or more input channels than output). im2col's
    GEMM runs per block of output rows (:func:`_row_blocks`) into its slice
    of the output, the blocks shared among the block workers, so at most
    ``CONV_BLOCK_BYTES`` of patches per worker exist at once whatever the
    input length. The per-tap GEMM runs per window of the flat
    padded input (:func:`_tap_windows`) under the same budget. Windows start
    on a 16-column GEMM panel, and the last one, which ends in the product's
    partial tail panel, is as wide as the others: a tail panel computed by a
    GEMM narrower than a few thousand columns moves output bits. Without a
    graph each block's padded rows are copied from the unpadded map into a
    reused buffer, one per worker; with one, the padded input is built
    whole, because the vjp keeps it, and the blocks read it. The vjp keeps
    only the padded input and the kernel:
    - dX is the forward correlation of the padded upstream gradient with
      the flipped, transposed kernel, in the layout the same rule picks;
      it is skipped when x needs no gradient.
    - dW is one GEMM per tap (:func:`_taps_weight_grad`) when ``O <= C``,
      so the input's patches are never built. A widening layer
      (``in_conv``, 6 -> 64) accumulates one GEMM per im2col block
      instead: there the per-tap GEMMs are too thin, 3x slower at 7x7.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3 or w.ndim != 4:
        raise ValueError(f"conv2d expects (C,T,F) and (O,C,kh,kw), got {x.shape}, {w.shape}")
    if x.shape[0] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[0]} vs kernel {w.shape[1]}")
    o, kh, kw = w.shape[0], w.shape[2], w.shape[3]
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.shape != (o,):
            raise ValueError(f"bias shape {b.shape} != ({o},)")
        parents = (x, w, b)
    pt, pf = pad
    c_in, h, f = x.shape
    hp, wp = h + 2 * pt, f + 2 * pf
    if hp < kh or wp < kw:
        raise ValueError("kernel larger than padded input")
    ho, wo = hp - kh + 1, wp - kw + 1
    wd = w.data
    # The vjp reads the padded input whole; without a graph only blocks of it exist.
    xp = np.pad(x.data, ((0, 0), (pt, pt), (pf, pf))) if records(parents) else None
    bias = None if b is None else b.data
    data = _correlate(x.data, pt, pf, wd, bias) if xp is None else _correlate(xp, 0, 0, wd, bias)

    x_grad, has_bias = x.requires_grad, b is not None

    def vjp(g):
        if o <= c_in:
            gw = _taps_weight_grad(xp, g, kh, kw)
        else:
            g2, gw = g.reshape(o, -1), np.zeros((o, c_in * kh * kw))
            for lo, hi in _row_blocks(c_in * kh * kw, ho, wo):
                gw += g2[:, lo * wo:hi * wo] @ _im2col(xp[:, lo:hi + kh - 1], kh, kw).T
            gw = gw.reshape(wd.shape)
        gx = None
        if x_grad:
            # Padding g by k-1-p per side makes the correlation's output the
            # unpadded input's shape; a pad wider than k-1 crops g instead.
            et, ef = kh - 1 - pt, kw - 1 - pf
            gp = np.pad(g, ((0, 0), (max(et, 0),) * 2, (max(ef, 0),) * 2))
            ct, cf = max(-et, 0), max(-ef, 0)
            gp = gp[:, ct:gp.shape[1] - ct, cf:gp.shape[2] - cf]
            flipped = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _correlate(gp, 0, 0, flipped)
        return (gx, gw, g.sum((1, 2))) if has_bias else (gx, gw)

    return make_result(data, parents, vjp)


# ---------------------------------------------------------------------------
# framing / overlap-add (exact adjoints of each other)
# ---------------------------------------------------------------------------


def frame_rows(x, frame_len: int, hop: int):
    """Slice a (N, ...) tensor into overlapping (T, frame_len, ...) frames.

    Pads ``frame_len - hop`` zero rows on the left and enough on the right
    for complete coverage, matching :func:`speechsr.dsp.frame_signal`.
    """
    x = as_tensor(x)
    if frame_len % hop != 0:
        raise ValueError("frame_len must be a multiple of hop")
    n = x.shape[0]
    pad = frame_len - hop
    data = frame_signal(x.data, frame_len, hop)

    def vjp(g):
        return (overlap_add(g, hop)[pad:pad + n],)

    return make_result(data, (x,), vjp)


def overlap_add_rows(frames, hop: int, out_len: int):
    """Adjoint-consistent inverse of :func:`frame_rows` (sum, then unpad)."""
    frames = as_tensor(frames)
    frame_len = frames.shape[1]
    if frame_len % hop != 0:
        raise ValueError("frame_len must be a multiple of hop")
    pad = frame_len - hop
    span = frames.shape[0] * hop - pad
    if out_len > span:
        raise ValueError(f"out_len {out_len} exceeds synthesizable span {span}")
    data = overlap_add(frames.data, hop)[pad:pad + out_len]
    tail_pad = [(0, span - out_len)] + [(0, 0)] * (frames.ndim - 2)

    def vjp(g):
        # Zero-padded to ``span`` samples, g frames back into exactly T frames.
        return (frame_signal(np.pad(g, tail_pad), frame_len, hop),)

    return make_result(data, (frames,), vjp)


# ---------------------------------------------------------------------------
# layers: one node each, bias added in place, only what backward needs kept
# ---------------------------------------------------------------------------


def linear(x, w, b=None):
    """Affine map on the last axis, ``x @ wᵀ + b``: x (..., I), w (O, I), b (O,).

    One node for any leading axes, a 1-D ``x`` included: the leading axes
    are flattened into one GEMM and the bias is added in place.
    """
    x, w = as_tensor(x), as_tensor(w)
    d_out, d_in = w.shape
    if x.shape[-1] != d_in:
        raise ValueError(f"linear: input {x.shape} does not match weight {w.shape}")
    parents = (x, w) if b is None else (x, w, as_tensor(b))
    data = x.data.reshape(-1, d_in) @ w.data.T
    if b is not None:
        data += parents[2].data

    def vjp(g):
        g2 = g.reshape(-1, d_out)
        gx = (g2 @ w.data).reshape(x.shape)
        gw = g2.T @ x.data.reshape(-1, d_in)
        return (gx, gw) if b is None else (gx, gw, g2.sum(axis=0))

    return make_result(data.reshape(x.shape[:-1] + (d_out,)), parents, vjp)


def pointwise_channels(x, w, b=None):
    """1x1 convolution, (C,T,F) x (O,C) -> (O,T,F), as one ``(O,C) @ (C,T·F)`` GEMM.

    Above ``CONV_BLOCK_BYTES`` the GEMM and the bias run in blocks of whole
    16-column panels, shared among the block workers, so each column keeps
    the whole product's bits; ``T·F`` that ends in a partial panel is one block.
    """
    x, w = as_tensor(x), as_tensor(w)
    c, t, f = x.shape
    o = w.shape[0]
    if w.shape[1] != c:
        raise ValueError(f"channel mismatch: input {c} vs weight {w.shape}")
    parents = (x, w) if b is None else (x, w, as_tensor(b))
    cols, xf = t * f, x.data.reshape(c, t * f)
    data = np.empty((o, cols))
    blocks = [(0, cols)]
    if cols % _GEMM_PANEL == 0:
        panels = _blocks(cols // _GEMM_PANEL, 8 * _GEMM_PANEL * max(c, o))
        blocks = [(lo * _GEMM_PANEL, hi * _GEMM_PANEL) for lo, hi in panels]

    def run(blocks):
        for lo, hi in blocks:
            block = np.matmul(w.data, xf[:, lo:hi], out=data[:, lo:hi])
            if b is not None:
                block += parents[2].data.reshape(o, 1)

    _run_blocks(run, blocks)

    def vjp(g):
        g2 = g.reshape(o, t * f)
        gx = (w.data.T @ g2).reshape(x.shape)
        gw = g2 @ x.data.reshape(c, t * f).T
        return (gx, gw) if b is None else (gx, gw, g.sum(axis=(1, 2)))

    return make_result(data.reshape(o, t, f), parents, vjp)


def _resample_down(x: np.ndarray, out: np.ndarray) -> None:
    """``fir_resample_freq``'s down pass over the last axis, written to ``out``."""
    np.multiply(x[..., 0::2], 0.5, out=out)
    quarter = x[..., 1::2] * 0.25  # right neighbours; shifted, the left ones
    out[..., 1:] += quarter[..., :-1]
    out[..., :1] += quarter[..., :1]
    out += quarter


def _resample_up(x: np.ndarray, out: np.ndarray) -> None:
    """``fir_resample_freq``'s up pass over the last axis, written to ``out``."""
    out[..., 0::2] = x
    half = x * 0.5
    odd = out[..., 1::2]
    odd[...] = half
    odd[..., :-1] += half[..., 1:]
    odd[..., -1:] += half[..., -1:]


def fir_resample_freq(x, direction: str):
    """Halve or double the last (frequency) axis with a binomial anti-artifact blur.

    down: blur by [1,2,1]/4 with reflect padding and keep the even bins,
          ``y[j] = (x[2j-1]/4 + x[2j]/2) + x[2j+1]/4`` with ``x[-1] = x[1]``;
    up:   zero-interleave to 2F and blur by [1,2,1]/2, so ``y[2i] = x[i]``
          and ``y[2i+1] = x[i]/2 + x[i+1]/2`` with ``x[F] = x[F-1]``.

    Strided slices compute it in one node, in leading-axis blocks on the
    block workers above ``CONV_BLOCK_BYTES``. The blur is linear, so the vjp
    is its adjoint and keeps only the input's shape.
    """
    x = as_tensor(x)
    x_shape = x.shape
    f = x_shape[-1]
    if direction == "down":
        if f % 2 != 0:
            raise ValueError(f"frequency size {f} must be even to downsample")
        data = _leading_blocks(_resample_down, np.empty(x_shape[:-1] + (f // 2,)), x.data)

        def vjp(g):
            quarter = g * 0.25
            gx = np.empty(x_shape)
            np.multiply(g, 0.5, out=gx[..., 0::2])
            odd = gx[..., 1::2]
            odd[...] = quarter
            odd[..., :-1] += quarter[..., 1:]
            odd[..., :1] += quarter[..., :1]
            return (gx,)

    elif direction == "up":
        data = _leading_blocks(_resample_up, np.empty(x_shape[:-1] + (2 * f,)), x.data)

        def vjp(g):
            half = g[..., 1::2] * 0.5
            gx = g[..., 0::2] + half
            gx[..., 1:] += half[..., :-1]
            gx[..., -1:] += half[..., -1:]
            return (gx,)

    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    return make_result(data, (x,), vjp)


def group_norm_silu(x, gamma, beta, groups: int, eps: float = 1e-5):
    """``silu(x̂·γ + β)``, x̂ standardized per group over (channels-in-group, T, F).

    One node. The statistics are those of ``np.var``, bit for bit: centre
    once, then the mean square of the centred values. The groups are worked
    through in chunks of whole groups, as many as fit in
    ``CONV_BLOCK_BYTES`` (at least one; :func:`_blocks`), shared among the
    block workers (:func:`_run_blocks`) with one chunk of scratch each; the
    statistics are per group, so any chunking gives the same bits. Without
    a graph the output and that scratch are all the op allocates. With one,
    x̂ and the sigmoid are kept whole for the vjp, which recomputes
    ``x̂·γ + β`` from x̂.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    c, t, f = x.shape
    if c % groups != 0:
        raise ValueError(f"channels {c} not divisible by groups {groups}")
    parents = (x, gamma, beta)
    keep = records(parents)
    per, n = c // groups, c // groups * t * f  # channels and values per group
    blocks = _blocks(groups, 8 * n)
    chunk = blocks[0][1] - blocks[0][0]
    xg = x.data.reshape(groups, n)
    xhat = np.empty((groups, n))
    sig = np.empty((groups, n)) if keep else None
    out = np.empty((groups, n)) if keep else xhat  # without a graph the output overwrites x̂
    istd = np.empty((groups, 1))
    gam = gamma.data.reshape(groups, per, 1)
    bet = beta.data.reshape(groups, per, 1)

    def run(blocks):
        scratch = np.empty((chunk, n))
        for lo, hi in blocks:
            rows, tmp = slice(lo, hi), scratch[:hi - lo]
            xc = np.subtract(xg[rows], xg[rows].mean(axis=1, keepdims=True), out=xhat[rows])
            var = np.square(xc, out=tmp).sum(axis=1, keepdims=True) / n
            istd[rows] = 1.0 / np.sqrt(var + eps)
            xc *= istd[rows]
            # s = x̂·γ + β goes to the scratch when x̂ is kept, else over x̂; the
            # sigmoid goes where s does not.
            s = np.multiply(xc.reshape(hi - lo, per, -1), gam[rows],
                            out=(tmp if keep else xc).reshape(hi - lo, per, -1))
            s += bet[rows]
            sg = np.negative(s, out=(sig[rows] if keep else tmp).reshape(s.shape))
            np.exp(sg, out=sg)
            sg += 1.0
            np.reciprocal(sg, out=sg)
            np.multiply(s, sg, out=out[rows].reshape(s.shape))

    _run_blocks(run, blocks)
    out = out.reshape(c, t, f)
    if not keep:
        return make_result(out, parents, None)
    xhat, sig = xhat.reshape(c, t, f), sig.reshape(c, t, f)
    gam, bet = gam.reshape(c, 1, 1), bet.reshape(c, 1, 1)

    def vjp(g):
        s = xhat * gam
        s += bet
        gs = g * s
        gs *= sig
        gs *= 1.0 - sig
        gs += g * sig
        dgamma = (gs * xhat).sum(axis=(1, 2))
        dbeta = gs.sum(axis=(1, 2))
        gs *= gam
        dxh = gs.reshape(groups, -1)
        xh = xhat.reshape(groups, -1)
        m1 = dxh.mean(axis=1, keepdims=True)
        m2 = (dxh * xh).mean(axis=1, keepdims=True)
        dxh -= m1
        dxh -= xh * m2
        dxh *= istd
        return gs, dgamma, dbeta

    return make_result(out, parents, vjp)


def gru(x, h0, w_ih, w_hh, b_ih, b_hh):
    """Unidirectional GRU over a (batch, seq, I) sequence from state h0 (batch, H).

    Returns every step's state, (batch, seq, H), as one node. Gate layout
    along the parameter rows is [reset, update, candidate]; the update gate
    carries the previous state: h' = z*h + (1-z)*n. The input projection of
    all steps is one GEMM. The vjp runs backpropagation through time over the
    saved per-step gates and returns the gradient of h0 too.
    """
    parents = tuple(as_tensor(a) for a in (x, h0, w_ih, w_hh, b_ih, b_hh))
    x, h0, w_ih, w_hh, b_ih, b_hh = parents
    if x.ndim != 3 or h0.ndim != 2:
        raise ValueError(f"gru expects (batch, seq, I) and (batch, H), got {x.shape}, {h0.shape}")
    batch, seq, d_in = x.shape
    hidden = h0.shape[1]
    if w_ih.shape != (3 * hidden, d_in) or w_hh.shape != (3 * hidden, hidden):
        raise ValueError(
            f"GRU parameter shapes {w_ih.shape}/{w_hh.shape} inconsistent with hidden {hidden}"
        )
    if h0.shape[0] != batch:
        raise ValueError(f"batch shape mismatch: {x.shape} vs {h0.shape}")
    sl_r, sl_z, sl_n = (slice(0, hidden), slice(hidden, 2 * hidden),
                        slice(2 * hidden, 3 * hidden))
    sl_rz = slice(0, 2 * hidden)
    gi = x.data.reshape(batch * seq, d_in) @ w_ih.data.T
    gi += b_ih.data
    gi = gi.reshape(batch, seq, 3 * hidden)
    out = np.empty((batch, seq, hidden))
    gates = np.empty((4, batch, seq, hidden)) if records(parents) else None  # r, z, n, gh_n
    h = h0.data
    for t in range(seq):
        gh = h @ w_hh.data.T + b_hh.data
        a = gi[:, t]
        rz = 1.0 / (1.0 + np.exp(-(a[:, sl_rz] + gh[:, sl_rz])))  # both sigmoid gates at once
        r, z = rz[:, sl_r], rz[:, sl_z]
        n = np.tanh(a[:, sl_n] + r * gh[:, sl_n])
        h = z * h + (1.0 - z) * n
        out[:, t] = h
        if gates is not None:
            gates[:, :, t] = r, z, n, gh[:, sl_n]

    def vjp(g):
        d_gi = np.empty((batch, seq, 3 * hidden))
        d_gh = np.empty((batch, seq, 3 * hidden))
        dh = np.zeros((batch, hidden))
        for t in reversed(range(seq)):
            r, z, n, ghn = gates[:, :, t]
            h_prev = h0.data if t == 0 else out[:, t - 1]
            gt = g[:, t] + dh
            da_n = gt * (1.0 - z) * (1.0 - n * n)
            da_z = gt * (h_prev - n) * z * (1.0 - z)
            da_r = da_n * ghn * r * (1.0 - r)
            d_gi[:, t, sl_r] = d_gh[:, t, sl_r] = da_r
            d_gi[:, t, sl_z] = d_gh[:, t, sl_z] = da_z
            d_gi[:, t, sl_n] = da_n
            d_gh[:, t, sl_n] = da_n * r
            dh = gt * z + d_gh[:, t] @ w_hh.data
        d_gi = d_gi.reshape(-1, 3 * hidden)
        d_gh = d_gh.reshape(-1, 3 * hidden)
        h_prev = np.concatenate([h0.data[:, None], out[:, :-1]], axis=1)
        dx = (d_gi @ w_ih.data).reshape(x.shape)
        dw_ih = d_gi.T @ x.data.reshape(-1, d_in)
        dw_hh = d_gh.T @ h_prev.reshape(-1, hidden)
        return dx, dh, dw_ih, dw_hh, d_gi.sum(axis=0), d_gh.sum(axis=0)

    return make_result(out, parents, vjp)


# ---------------------------------------------------------------------------
# differentiable STFT / iSTFT on speechsr.dsp's rfft kernels; the adjoint of a
# real-input rfft is a bin-weighted irfft, and vice versa
# ---------------------------------------------------------------------------


def _bin_multiplicity(frame_len: int) -> np.ndarray:
    """How often each rfft bin occurs in the full spectrum: 1 at DC and Nyquist, else 2."""
    k = np.arange(frame_len // 2 + 1)
    return np.where((k == 0) | (2 * k == frame_len), 1.0, 2.0)


def stft_pair(x, frame_len: int, hop: int):
    """Differentiable STFT of a 1-D tensor -> (real, imag), each (T, F)."""
    x = as_tensor(x)
    n = x.shape[0]
    pad = frame_len - hop
    values = stft_values(x.data, frame_len, hop)
    scale = frame_len * hann_window(frame_len)
    mult = _bin_multiplicity(frame_len)

    def adjoint(g):
        frames = np.fft.irfft(g / mult, n=frame_len, axis=1) * scale
        return (overlap_add(frames, hop)[pad:pad + n],)

    re = make_result(values.real.copy(), (x,), adjoint)
    im = make_result(values.imag.copy(), (x,), lambda g: adjoint(1j * g))
    return re, im


def istft_pair(re, im, frame_len: int, hop: int, target_len: int):
    """Differentiable inverse of :func:`stft_pair`, truncated to target_len.

    Like ``np.fft.irfft``, bins missing above ``re.shape[1]`` count as zero.
    """
    re, im = as_tensor(re), as_tensor(im)
    n_frames, n_bins = re.shape
    data = istft_values(re.data + 1j * im.data, frame_len, hop, target_len)
    tail = n_frames * hop - (frame_len - hop) - target_len

    def vjp(g):
        g = g * synthesis_gain(n_frames, frame_len, hop, target_len)
        spec = stft_values(np.pad(g, (0, tail)), frame_len, hop)
        spec *= _bin_multiplicity(frame_len) / frame_len
        return spec.real[:, :n_bins], spec.imag[:, :n_bins]

    return make_result(data, (re, im), vjp)
