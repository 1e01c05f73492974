"""Sparse row-gradients for embedding tables.

``take_rows`` (the embedding-lookup primitive) touches at most
``batch_size`` rows of a ``(vocab, dim)`` table per step, yet its dense
backward materialises an ``O(vocab x dim)`` zero array and scatters into
it.  Over the entire exposure space ``D`` -- which DCMT sweeps every
epoch, unlike click-space baselines -- that allocation dominates the
embedding update cost.

:class:`SparseRowGrad` is the alternative: a coalesced ``(indices,
values)`` pair where ``indices`` are the *unique, sorted* row ids and
``values`` their summed gradients.  Duplicate ids inside a batch are
summed in occurrence order (a compact :func:`scatter_rows` over the
inverse mapping), which is bit-identical to the full-table scatter of
the dense path -- the parity tests in
``tests/autograd/test_sparse_parity.py`` rely on this.

The engine-wide flag below starts off; the training engine turns it on
for every fit through ``TrainConfig.sparse_embedding_grads``, which
defaults to ``True``.  :func:`set_sparse_grads` / the
:func:`sparse_grads` context manager set it directly.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Tuple

import numpy as np

_SPARSE_GRADS = False


def sparse_grads_enabled() -> bool:
    """Whether ``take_rows`` currently emits sparse row-gradients."""
    return _SPARSE_GRADS


def set_sparse_grads(enabled: bool) -> bool:
    """Set the engine-wide sparse-gradient flag; returns the old value."""
    global _SPARSE_GRADS
    previous = _SPARSE_GRADS
    _SPARSE_GRADS = bool(enabled)
    return previous


@contextlib.contextmanager
def sparse_grads(enabled: bool = True) -> Iterator[None]:
    """Scoped toggle of sparse embedding gradients."""
    previous = set_sparse_grads(enabled)
    try:
        yield
    finally:
        set_sparse_grads(previous)


def scatter_rows(
    indices: np.ndarray,
    grad: np.ndarray,
    shape: Tuple[int, ...],
    dtype: np.dtype = np.float64,
) -> np.ndarray:
    """Sum the rows of ``grad`` into a zero ``shape`` table at ``indices``.

    Byte-identical to ``np.add.at(np.zeros(shape, dtype), indices,
    grad)``: ``np.bincount`` over flat element indices adds its weights
    in occurrence order starting from 0.0, which is exactly the
    sequence of additions ``np.add.at`` performs, without its
    per-element dispatch.  ``grad`` has shape ``indices.shape +
    shape[1:]``.
    Non-float64 data, empty ids and negative (wrapping) ids take the
    literal ``np.add.at`` path.
    """
    flat_idx = np.asarray(indices).reshape(-1)
    if (
        grad.dtype != np.float64
        or np.dtype(dtype) != np.float64
        or flat_idx.size == 0
        or flat_idx.min() < 0
    ):
        out = np.zeros(shape, dtype=dtype)
        np.add.at(out, indices, grad)
        return out
    dim = 1
    for extent in shape[1:]:
        dim *= extent
    if dim == 1:
        flat = flat_idx
    else:
        flat = (flat_idx[:, None] * dim + np.arange(dim)).reshape(-1)
    sums = np.bincount(
        flat, weights=grad.reshape(-1), minlength=shape[0] * dim
    )
    return sums.reshape(shape)


class SparseRowGrad:
    """A coalesced sparse gradient over the rows of a 2-D parameter.

    Attributes
    ----------
    indices:
        1-D ``int64`` array of unique row ids, sorted ascending.
    values:
        ``(len(indices), dim)`` float array of per-row gradient sums.
    shape:
        Shape of the equivalent dense gradient (the parameter shape).
    """

    __slots__ = ("indices", "values", "shape")

    def __init__(
        self, indices: np.ndarray, values: np.ndarray, shape: Tuple[int, ...]
    ) -> None:
        self.indices = indices
        self.values = values
        self.shape = tuple(shape)

    # ------------------------------------------------------------------
    @staticmethod
    def from_lookup(
        indices: np.ndarray, grad: np.ndarray, shape: Tuple[int, ...]
    ) -> "SparseRowGrad":
        """Coalesce the backward of a row gather.

        ``indices`` may have any shape and contain duplicates; ``grad``
        has shape ``indices.shape + shape[1:]``.  Duplicates are summed
        in occurrence order so the result is bit-identical to the dense
        ``np.add.at`` scatter.
        """
        flat_idx = np.ascontiguousarray(indices).reshape(-1)
        tail = shape[1:]
        flat_grad = grad.reshape((flat_idx.size,) + tail)
        if flat_idx.size == 0:
            return SparseRowGrad(
                flat_idx.astype(np.int64), flat_grad.astype(np.float64), shape
            )
        # Coalescing must stay bit-identical to the dense scatter, which
        # sums duplicates sequentially in occurrence order.  A compact
        # scatter over the inverse mapping performs those exact
        # additions, just into an (nnz, dim) buffer instead of the full
        # table.  (np.add.reduceat is NOT usable here: it sums segments
        # pairwise, which differs in the last ulps.)
        uniq, inv = np.unique(flat_idx, return_inverse=True)
        if uniq.size == flat_idx.size:
            # No duplicates: a pure permutation of the incoming grads.
            values = np.empty((uniq.size,) + tail, dtype=flat_grad.dtype)
            values[inv] = flat_grad
        else:
            values = scatter_rows(
                inv, flat_grad, (uniq.size,) + tail, flat_grad.dtype
            )
        return SparseRowGrad(uniq.astype(np.int64), values, shape)

    # ------------------------------------------------------------------
    @property
    def nnz_rows(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return int(self.indices.nbytes + self.values.nbytes)

    def to_dense(self) -> np.ndarray:
        """Materialise the equivalent dense gradient."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.indices] = self.values
        return dense

    def add_to(self, dense: np.ndarray) -> np.ndarray:
        """Accumulate into an existing dense array (in place).

        ``indices`` are unique, so a fancy-index add touches every row
        once -- the same additions ``np.add.at`` would make.
        """
        dense[self.indices] += self.values
        return dense

    def merge(self, other: "SparseRowGrad") -> "SparseRowGrad":
        """Sum with another sparse gradient over the same parameter."""
        if self.shape != other.shape:
            raise ValueError(
                f"sparse gradient shapes differ: {self.shape} vs {other.shape}"
            )
        idx = np.union1d(self.indices, other.indices)
        vals = np.zeros((idx.size,) + self.shape[1:], dtype=self.values.dtype)
        vals[np.searchsorted(idx, self.indices)] = self.values
        vals[np.searchsorted(idx, other.indices)] += other.values
        return SparseRowGrad(idx, vals, self.shape)

    def sum_of_squares(self) -> float:
        """Squared L2 norm of the gradient (zeros contribute nothing)."""
        return float(np.sum(self.values**2))

    def scale_(self, factor: float) -> "SparseRowGrad":
        """In-place scalar multiply (used by global-norm clipping)."""
        self.values *= factor
        return self

    def __repr__(self) -> str:
        return (
            f"SparseRowGrad(rows={self.nnz_rows}/{self.shape[0]}, "
            f"shape={self.shape})"
        )
