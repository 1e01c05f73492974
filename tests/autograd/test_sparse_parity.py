"""Dense-vs-sparse gradient and optimizer parity -- bit-exact.

The sparse embedding-gradient path (``SparseRowGrad`` + the sparse
optimizer updates) promises *identical* results to the dense path, not
merely close ones: every test here uses ``np.array_equal``, no
tolerances.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, ops
from repro.autograd.sparse import (
    SparseRowGrad,
    scatter_rows,
    set_sparse_grads,
    sparse_grads,
    sparse_grads_enabled,
)
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, clip_global_norm


def _dense_scatter(idx, grad, shape):
    full = np.zeros(shape)
    np.add.at(full, idx, grad)
    return full


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
        with sparse_grads(False):
            ops.take_rows(table, idx).backward(upstream)
        assert _same_bytes(table.grad, self._reference(idx, upstream, (5, 3)))

    def test_from_lookup_duplicates_match_compact_add_at(self):
        idx = self.rng.integers(0, 30, size=(200, 2))
        grad = _spread(self.rng, (200, 2, 4))
        sparse = SparseRowGrad.from_lookup(idx, grad, (30, 4))
        uniq, inv = np.unique(idx.reshape(-1), return_inverse=True)
        compact = np.zeros((uniq.size, 4))
        np.add.at(compact, inv, grad.reshape(-1, 4))
        assert np.array_equal(sparse.indices, uniq)
        assert _same_bytes(sparse.values, compact)

    def test_add_to_matches_add_at(self):
        sparse = SparseRowGrad.from_lookup(
            self.rng.integers(0, 20, size=64), _spread(self.rng, (64, 3)), (20, 3)
        )
        dense = _spread(self.rng, (20, 3))
        expected = dense.copy()
        np.add.at(expected, sparse.indices, sparse.values)
        assert _same_bytes(sparse.add_to(dense), expected)


class TestSparseRowGrad:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    @pytest.mark.parametrize("vocab,n", [(10, 64), (1000, 64), (50, 1)])
    def test_from_lookup_bit_exact(self, vocab, n):
        idx = self.rng.integers(0, vocab, size=n)
        grad = self.rng.normal(size=(n, 4))
        sparse = SparseRowGrad.from_lookup(idx, grad, (vocab, 4))
        assert np.array_equal(sparse.to_dense(), _dense_scatter(idx, grad, (vocab, 4)))

    def test_from_lookup_no_duplicates(self):
        idx = np.array([7, 2, 9, 0])
        grad = self.rng.normal(size=(4, 3))
        sparse = SparseRowGrad.from_lookup(idx, grad, (12, 3))
        assert np.array_equal(sparse.indices, [0, 2, 7, 9])
        assert np.array_equal(sparse.to_dense(), _dense_scatter(idx, grad, (12, 3)))

    def test_from_lookup_multidim_indices(self):
        idx = self.rng.integers(0, 6, size=(5, 3))
        grad = self.rng.normal(size=(5, 3, 2))
        sparse = SparseRowGrad.from_lookup(idx, grad, (6, 2))
        assert np.array_equal(sparse.to_dense(), _dense_scatter(idx, grad, (6, 2)))

    def test_from_lookup_empty(self):
        sparse = SparseRowGrad.from_lookup(
            np.zeros(0, dtype=np.int64), np.zeros((0, 4)), (10, 4)
        )
        assert sparse.nnz_rows == 0
        assert np.array_equal(sparse.to_dense(), np.zeros((10, 4)))

    def test_merge_matches_dense_sum(self):
        a = SparseRowGrad.from_lookup(
            np.array([1, 3, 3]), self.rng.normal(size=(3, 2)), (8, 2)
        )
        b = SparseRowGrad.from_lookup(
            np.array([3, 5]), self.rng.normal(size=(2, 2)), (8, 2)
        )
        merged = a.merge(b)
        assert np.array_equal(merged.to_dense(), a.to_dense() + b.to_dense())

    def test_add_to_accumulates(self):
        dense = self.rng.normal(size=(6, 2))
        sparse = SparseRowGrad.from_lookup(
            np.array([0, 0, 4]), self.rng.normal(size=(3, 2)), (6, 2)
        )
        expected = dense + sparse.to_dense()
        out = sparse.add_to(dense)
        assert out is dense
        assert np.array_equal(dense, expected)

    def test_sum_of_squares_and_scale(self):
        sparse = SparseRowGrad.from_lookup(
            np.array([1, 2]), self.rng.normal(size=(2, 3)), (5, 3)
        )
        dense = sparse.to_dense()
        assert sparse.sum_of_squares() == float(np.sum(dense**2))
        sparse.scale_(0.5)
        assert np.array_equal(sparse.to_dense(), dense * 0.5)

    def test_flag_toggle_and_context(self):
        assert not sparse_grads_enabled()
        with sparse_grads(True):
            assert sparse_grads_enabled()
            with sparse_grads(False):
                assert not sparse_grads_enabled()
            assert sparse_grads_enabled()
        assert not sparse_grads_enabled()
        previous = set_sparse_grads(True)
        assert not previous and sparse_grads_enabled()
        set_sparse_grads(previous)


class TestBackwardParity:
    """take_rows backward: sparse emission equals the dense scatter."""

    def setup_method(self):
        self.rng = np.random.default_rng(5)

    def _loss(self, table, idx):
        gathered = ops.take_rows(table, idx)
        return (gathered * gathered).sum() * 0.5

    def test_single_lookup(self):
        weights = self.rng.normal(size=(20, 4))
        idx = np.array([0, 3, 3, 19, 7])

        dense_table = Tensor(weights.copy(), requires_grad=True)
        self._loss(dense_table, idx).backward()

        sparse_table = Tensor(weights.copy(), requires_grad=True)
        with sparse_grads(True):
            self._loss(sparse_table, idx).backward()

        assert isinstance(sparse_table.grad, SparseRowGrad)
        assert np.array_equal(sparse_table.grad.to_dense(), dense_table.grad)

    def test_two_lookups_merge(self):
        weights = self.rng.normal(size=(15, 3))
        i1, i2 = np.array([1, 2, 2]), np.array([2, 14])

        dense_table = Tensor(weights.copy(), requires_grad=True)
        (self._loss(dense_table, i1) + self._loss(dense_table, i2)).backward()

        sparse_table = Tensor(weights.copy(), requires_grad=True)
        with sparse_grads(True):
            (self._loss(sparse_table, i1) + self._loss(sparse_table, i2)).backward()

        assert np.array_equal(sparse_table.grad.to_dense(), dense_table.grad)

    def test_mixed_sparse_and_dense_consumers(self):
        """A table consumed by a lookup AND a dense op densifies cleanly."""
        weights = self.rng.normal(size=(6, 2))
        idx = np.array([0, 5, 5])

        dense_table = Tensor(weights.copy(), requires_grad=True)
        (self._loss(dense_table, idx) + (dense_table * 2.0).sum()).backward()

        sparse_table = Tensor(weights.copy(), requires_grad=True)
        with sparse_grads(True):
            (self._loss(sparse_table, idx) + (sparse_table * 2.0).sum()).backward()

        assert isinstance(sparse_table.grad, np.ndarray)
        assert np.array_equal(sparse_table.grad, dense_table.grad)

    def test_clip_global_norm_parity(self):
        weights = self.rng.normal(size=(10, 4)) * 10.0
        idx = np.array([0, 1, 1, 9])

        dense_p = Parameter(weights.copy())
        self._loss(dense_p, idx).backward()
        dense_norm = clip_global_norm([dense_p], 1.0)

        sparse_p = Parameter(weights.copy())
        with sparse_grads(True):
            self._loss(sparse_p, idx).backward()
        sparse_norm = clip_global_norm([sparse_p], 1.0)

        assert sparse_norm == dense_norm
        assert np.array_equal(sparse_p.grad.to_dense(), dense_p.grad)


def _run_steps(optimizer_factory, weights, lookups, sparse, n_steps=12):
    """Run lookup->loss->backward->step cycles; return final state."""
    table = Parameter(weights.copy())
    dense_w = Parameter(np.linspace(-1.0, 1.0, weights.shape[1]))
    opt = optimizer_factory([table, dense_w])
    with sparse_grads(sparse):
        for step in range(n_steps):
            idx = lookups[step % len(lookups)]
            gathered = ops.take_rows(table, idx)
            loss = ((gathered * dense_w) * gathered).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
    return table, dense_w, opt


class TestOptimizerParity:
    """N optimizer steps, dense vs sparse: parameters bit-identical."""

    def setup_method(self):
        rng = np.random.default_rng(13)
        self.weights = rng.normal(size=(30, 4)) * 0.1
        # Rows 25..29 are never looked up: they must stay untouched and
        # keep zero moments under both paths.
        self.lookups = [
            rng.integers(0, 25, size=16),
            np.array([0, 0, 0, 7]),
            rng.integers(0, 25, size=8),
        ]

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_adam(self, weight_decay):
        factory = lambda ps: Adam(ps, lr=0.01, weight_decay=weight_decay)
        t_dense, w_dense, opt_dense = _run_steps(
            factory, self.weights, self.lookups, sparse=False
        )
        t_sparse, w_sparse, opt_sparse = _run_steps(
            factory, self.weights, self.lookups, sparse=True
        )
        assert np.array_equal(t_dense.data, t_sparse.data)
        assert np.array_equal(w_dense.data, w_sparse.data)
        for a, b in zip(opt_dense._m, opt_sparse._m):
            assert np.array_equal(a, b)
        for a, b in zip(opt_dense._v, opt_sparse._v):
            assert np.array_equal(a, b)

    def test_adam_untouched_rows_pristine(self):
        t_sparse, _, opt = _run_steps(
            lambda ps: Adam(ps, lr=0.01), self.weights, self.lookups, sparse=True
        )
        assert np.array_equal(t_sparse.data[25:], self.weights[25:])
        assert np.all(opt._m[0][25:] == 0.0)
        assert np.all(opt._v[0][25:] == 0.0)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd(self, momentum):
        factory = lambda ps: SGD(ps, lr=0.05, momentum=momentum)
        t_dense, w_dense, _ = _run_steps(
            factory, self.weights, self.lookups, sparse=False
        )
        t_sparse, w_sparse, _ = _run_steps(
            factory, self.weights, self.lookups, sparse=True
        )
        assert np.array_equal(t_dense.data, t_sparse.data)
        assert np.array_equal(w_dense.data, w_sparse.data)

    def test_adam_state_roundtrip_continues_exact(self):
        """Snapshot mid-run, restore into a fresh Adam, continue sparse.

        Covers the lazy active-row mask rebuild: the restored optimizer
        must reconstruct the mask from the moment buffers and still
        match an uninterrupted run bit-for-bit.
        """
        factory = lambda ps: Adam(ps, lr=0.01)
        rng = np.random.default_rng(17)
        lookups = [rng.integers(0, 25, size=10) for _ in range(6)]

        def run(n, table, dense_w, opt, start=0):
            with sparse_grads(True):
                for step in range(start, n):
                    gathered = ops.take_rows(table, lookups[step % len(lookups)])
                    loss = ((gathered * dense_w) * gathered).sum()
                    opt.zero_grad()
                    loss.backward()
                    opt.step()

        # Uninterrupted reference.
        t_ref = Parameter(self.weights.copy())
        w_ref = Parameter(np.linspace(-1.0, 1.0, 4))
        opt_ref = factory([t_ref, w_ref])
        run(10, t_ref, w_ref, opt_ref)

        # Interrupted at step 4, state round-tripped through a dict.
        t = Parameter(self.weights.copy())
        w = Parameter(np.linspace(-1.0, 1.0, 4))
        opt = factory([t, w])
        run(4, t, w, opt)
        state = opt.state_dict()

        opt2 = factory([t, w])
        opt2.load_state_dict(state)
        run(10, t, w, opt2, start=4)

        assert np.array_equal(t.data, t_ref.data)
        assert np.array_equal(w.data, w_ref.data)
        for a, b in zip(opt2._m, opt_ref._m):
            assert np.array_equal(a, b)
        for a, b in zip(opt2._v, opt_ref._v):
            assert np.array_equal(a, b)
