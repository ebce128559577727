"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is made of nodes, not arrays. Each recorded op result gets a
``_Node`` holding its vjp closure and its parents' nodes; a leaf (a tensor
that requires grad but has no vjp, such as a parameter) stands for itself
and a constant for ``None``. A ``Tensor`` keeps its ``data`` and its node,
so once the caller drops an intermediate tensor its array is freed unless
a vjp closure captured it: only the closures keep arrays, and each keeps
only what it reads. ``backward`` walks the nodes once in reverse
topological order. Only leaves keep a gradient: it accumulates into their
``.grad`` and persists until the optimizer clears it, so on leaves two
backward calls equal one backward of the doubled loss. An intermediate
result's gradient lives only until the walk has passed it on to its
parents; its ``.grad`` stays None.

The graph is built and walked on the calling thread, and it is
deterministic: same inputs, same seed, same bits, whatever the thread
counts. Inside a few ops (:mod:`.ops`), independent blocks run on one
thread per CPU, with BLAS at one thread per GEMM.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class _Node:
    """One recorded op: its vjp and its parents' nodes (a leaf tensor, or None)."""

    __slots__ = ("parents", "vjp", "__weakref__")

    def __init__(self, parents: tuple, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """Dense float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    # A view of the node's vjp, for code that wraps a recorded op.
    @property
    def _vjp(self):
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Accumulate this scalar's gradient into ``.grad`` of every reachable leaf."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.shape}")
        if not self.requires_grad:
            return
        root = _graph_node(self)
        pending: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        for node in _toposort(root):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Tensor):
                # Leaves (parameters) own their grad; clip/step mutate it
                # in place, so it must not alias another node's gradient.
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None or parent is None:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = np.asarray(pg, dtype=np.float64)

    # Shape sugar; the ops themselves live in speechsr.engine.ops.

    def __getitem__(self, idx):
        from . import ops
        return ops.getitem(self, idx)

    def reshape(self, *shape):
        from . import ops
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes):
        from . import ops
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a path-style name; always requires gradients."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"parameter {name!r} initialized with non-finite values")
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _graph_node(t: Tensor):
    """What stands for ``t`` in the graph: its node, itself as a leaf, or None."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _toposort(root) -> list:
    """Reverse topological order (consumers before producers), iteratively.

    Nodes are ``_Node`` objects and leaf ``Tensor``s; a leaf has no parents.
    """
    order: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Node):
            for p in node.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))
    order.reverse()
    return order


def as_tensor(x) -> Tensor:
    """Pass tensors through; wrap arrays/scalars as constants."""
    return x if isinstance(x, Tensor) else Tensor(x)


def records(parents) -> bool:
    """Whether an op on ``parents`` is recorded in the graph right now."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def make_result(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    """Build an op result, attaching the graph only when it can matter."""
    out = Tensor(data)
    if records(parents):
        out.requires_grad = True
        out._node = _Node(tuple(_graph_node(p) for p in parents), vjp)
    return out
