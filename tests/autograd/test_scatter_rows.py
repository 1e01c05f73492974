"""``scatter_rows``, the embedding-gradient scatter, against ``np.add.at``.

``take_rows`` backward scatters into a dense zero table with
:func:`~repro.autograd.ops.scatter_rows`.  It promises *identical* bytes
to ``np.add.at``, not merely close ones: every test here compares raw
bytes, no tolerances.
"""

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd.ops import scatter_rows
from repro.nn.module import Parameter


def _spread(rng, shape):
    """Normal draws over 16 decades, so any change of summation order
    would show in the last bits."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestScatterRows:
    """``scatter_rows`` equals ``np.add.at`` byte for byte."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def _reference(self, idx, grad, shape, dtype=np.float64):
        full = np.zeros(shape, dtype=dtype)
        np.add.at(full, idx, grad)
        return full

    @pytest.mark.parametrize(
        "vocab,idx_shape,tail",
        [
            (3, (4096,), (8,)),  # heavy duplicates
            (40, (257,), (5,)),
            (1000, (64,), (4,)),
            (7, (33, 3), (2,)),  # multi-dim ids
            (9, (500,), ()),  # 1-D table
            (6, (300,), (2, 3)),  # 3-D table
        ],
    )
    def test_random_tables(self, vocab, idx_shape, tail):
        for _ in range(5):
            idx = self.rng.integers(0, vocab, size=idx_shape)
            grad = _spread(self.rng, idx_shape + tail)
            shape = (vocab,) + tail
            assert _same_bytes(
                scatter_rows(idx, grad, shape), self._reference(idx, grad, shape)
            )

    def test_all_unique_ids(self):
        idx = self.rng.permutation(50)
        grad = _spread(self.rng, (50, 4))
        assert _same_bytes(
            scatter_rows(idx, grad, (50, 4)), self._reference(idx, grad, (50, 4))
        )

    def test_signed_zeros_and_specials(self):
        idx = np.array([2, 2, 0, 2, 1, 1])
        grad = np.array(
            [[-0.0, np.inf], [-0.0, 1.0], [-0.0, -0.0], [0.0, -np.inf],
             [np.nan, 1e308], [1.0, 1e308]]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert _same_bytes(
                scatter_rows(idx, grad, (4, 2)),
                self._reference(idx, grad, (4, 2)),
            )

    def test_empty_ids(self):
        idx = np.zeros(0, dtype=np.int64)
        out = scatter_rows(idx, np.zeros((0, 3)), (5, 3))
        assert _same_bytes(out, np.zeros((5, 3)))

    def test_non_contiguous_grad(self):
        idx = self.rng.integers(0, 6, size=40)
        wide = _spread(self.rng, (40, 8))
        for grad in (wide[:, ::2], _spread(self.rng, (4, 40)).T):
            assert not grad.flags.c_contiguous
            shape = (6, grad.shape[1])
            assert _same_bytes(
                scatter_rows(idx, grad, shape), self._reference(idx, grad, shape)
            )

    def test_negative_ids_wrap_like_add_at(self):
        idx = np.array([-1, 0, -1, 3, -4])
        grad = _spread(self.rng, (5, 3))
        assert _same_bytes(
            scatter_rows(idx, grad, (4, 3)), self._reference(idx, grad, (4, 3))
        )

    def test_float32_fallback(self):
        idx = self.rng.integers(0, 5, size=100)
        grad = self.rng.normal(size=(100, 3)).astype(np.float32)
        out = scatter_rows(idx, grad, (5, 3), np.float32)
        assert _same_bytes(out, self._reference(idx, grad, (5, 3), np.float32))
        # A float32 table fed float64 grads keeps the table's dtype.
        grad64 = _spread(self.rng, (100, 3))
        out = scatter_rows(idx, grad64, (5, 3), np.float32)
        assert _same_bytes(out, self._reference(idx, grad64, (5, 3), np.float32))

    @pytest.mark.parametrize("ids", [[4, 0, 4, 4, 2, 0], [-1, 1, -1, 0]])
    def test_dense_take_rows_backward(self, ids):
        idx = np.array(ids)
        table = Parameter(_spread(self.rng, (5, 3)))
        upstream = _spread(self.rng, (idx.size, 3))
        ops.take_rows(table, idx).backward(upstream)
        assert _same_bytes(table.grad, self._reference(idx, upstream, (5, 3)))
