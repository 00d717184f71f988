"""Tests for the sparse-aware Adam and SGD optimisers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OptimizerConfig
from repro.optim.adam import AdamOptimizer
from repro.optim.base import _CHUNK_ELEMENTS
from repro.optim.factory import make_optimizer
from repro.optim.sgd import SGDOptimizer
from repro.types import FLOAT


def reference_adam_step(param, grad, m, v, lr, b1, b2, eps, t):
    """Textbook Adam update used as ground truth."""
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad**2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdamDense:
    def test_matches_reference_formula(self, rng):
        opt = AdamOptimizer(learning_rate=0.01)
        param = rng.normal(size=(4, 3))
        opt.register("w", param.shape)
        expected = param.copy()
        m = np.zeros_like(param)
        v = np.zeros_like(param)
        for t in range(1, 4):
            grad = rng.normal(size=param.shape)
            opt.begin_step()
            opt.step("w", param, grad)
            expected, m, v = reference_adam_step(
                expected, grad, m, v, 0.01, 0.9, 0.999, 1e-8, t
            )
            np.testing.assert_allclose(param, expected, atol=1e-12)

    def test_minimises_quadratic(self):
        opt = AdamOptimizer(learning_rate=0.1)
        param = np.array([5.0, -3.0])
        opt.register("x", param.shape)
        for _ in range(300):
            opt.begin_step()
            opt.step("x", param, 2 * param)  # gradient of ||x||^2
        assert np.linalg.norm(param) < 0.05

    def test_duplicate_registration_raises(self):
        opt = AdamOptimizer()
        opt.register("w", (2, 2))
        with pytest.raises(ValueError):
            opt.register("w", (2, 2))

    def test_invalid_hyperparameters_raise(self):
        with pytest.raises(ValueError):
            AdamOptimizer(learning_rate=0.0)
        with pytest.raises(ValueError):
            AdamOptimizer(beta1=1.0)
        with pytest.raises(ValueError):
            AdamOptimizer(epsilon=0.0)


class TestAdamSparse:
    def test_sparse_step_equals_dense_on_touched_block(self, rng):
        """A sparse step on a block must equal the dense step restricted to
        that block when the gradient is zero everywhere else."""
        shape = (6, 5)
        grad = np.zeros(shape)
        rows = np.array([1, 4])
        cols = np.array([0, 2, 3])
        block = rng.normal(size=(rows.size, cols.size))
        grad[np.ix_(rows, cols)] = block

        dense_opt = AdamOptimizer(learning_rate=0.05)
        sparse_opt = AdamOptimizer(learning_rate=0.05)
        dense_param = rng.normal(size=shape)
        sparse_param = dense_param.copy()
        dense_opt.register("w", shape)
        sparse_opt.register("w", shape)

        dense_opt.begin_step()
        dense_opt.step("w", dense_param, grad)
        sparse_opt.begin_step()
        sparse_opt.sparse_step("w", sparse_param, rows, cols, block)

        np.testing.assert_allclose(
            sparse_param[np.ix_(rows, cols)], dense_param[np.ix_(rows, cols)], atol=1e-12
        )
        # Untouched coordinates stay exactly as they were.
        untouched = np.ones(shape, dtype=bool)
        untouched[np.ix_(rows, cols)] = False
        np.testing.assert_array_equal(sparse_param[untouched], dense_param[untouched])

    def test_sparse_step_on_bias_vector(self, rng):
        opt = AdamOptimizer(learning_rate=0.01)
        bias = np.zeros(10)
        opt.register("b", bias.shape)
        rows = np.array([2, 7])
        opt.begin_step()
        opt.sparse_step("b", bias, rows, None, np.array([1.0, -1.0]))
        assert bias[2] != 0 and bias[7] != 0
        assert np.all(bias[[0, 1, 3, 4, 5, 6, 8, 9]] == 0)

    def test_empty_rows_is_noop(self, rng):
        opt = AdamOptimizer()
        param = rng.normal(size=(3, 3))
        before = param.copy()
        opt.register("w", param.shape)
        opt.begin_step()
        opt.sparse_step("w", param, np.array([], dtype=np.int64), None, np.zeros((0,)))
        np.testing.assert_array_equal(param, before)

    def test_repeated_sparse_updates_accumulate_moments(self, rng):
        opt = AdamOptimizer(learning_rate=0.1)
        param = np.zeros((4, 4))
        opt.register("w", param.shape)
        rows, cols = np.array([0]), np.array([0])
        for _ in range(50):
            opt.begin_step()
            opt.sparse_step("w", param, rows, cols, np.array([[1.0]]))
        # Persistent positive gradient must drive the weight down monotonically.
        assert param[0, 0] < -1.0
        state = opt.state_of("w")
        assert state["m"][0, 0] > 0
        assert state["v"][0, 0] > 0


class TestSGD:
    def test_plain_sgd_step(self):
        opt = SGDOptimizer(learning_rate=0.5)
        param = np.array([1.0, 2.0])
        opt.register("x", param.shape)
        opt.begin_step()
        opt.step("x", param, np.array([1.0, -1.0]))
        np.testing.assert_allclose(param, [0.5, 2.5])

    def test_momentum_accelerates(self):
        plain = SGDOptimizer(learning_rate=0.1)
        momentum = SGDOptimizer(learning_rate=0.1, momentum=0.9)
        p1 = np.array([1.0])
        p2 = np.array([1.0])
        plain.register("x", (1,))
        momentum.register("x", (1,))
        for _ in range(5):
            plain.begin_step()
            momentum.begin_step()
            plain.step("x", p1, np.array([1.0]))
            momentum.step("x", p2, np.array([1.0]))
        assert p2[0] < p1[0]

    def test_sparse_step_matches_dense_block(self, rng):
        opt_a = SGDOptimizer(learning_rate=0.2, momentum=0.5)
        opt_b = SGDOptimizer(learning_rate=0.2, momentum=0.5)
        shape = (5, 4)
        dense = rng.normal(size=shape)
        sparse = dense.copy()
        opt_a.register("w", shape)
        opt_b.register("w", shape)
        rows, cols = np.array([0, 3]), np.array([1, 2])
        block = rng.normal(size=(2, 2))
        grad = np.zeros(shape)
        grad[np.ix_(rows, cols)] = block
        for _ in range(3):
            opt_a.begin_step()
            opt_b.begin_step()
            opt_a.step("w", dense, grad)
            opt_b.sparse_step("w", sparse, rows, cols, block)
        np.testing.assert_allclose(sparse, dense, atol=1e-12)

    def test_invalid_momentum_raises(self):
        with pytest.raises(ValueError):
            SGDOptimizer(momentum=1.0)


def unblocked_adam_step(param, state, view, grad, opt):
    """The sparse Adam step as one whole-block gather/update/scatter."""
    m, v = state["m"], state["v"]
    m_block = m[view]
    v_block = v[view]
    m_block *= opt.beta1
    m_block += (1.0 - opt.beta1) * grad
    v_block *= opt.beta2
    v_block += (1.0 - opt.beta2) * np.square(grad)
    m[view] = m_block
    v[view] = v_block
    m_hat = m_block / (1.0 - opt.beta1**opt.step_count)
    v_hat = v_block / (1.0 - opt.beta2**opt.step_count)
    delta = opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    if opt.update_clip is not None:
        bound = opt.update_clip * opt.learning_rate
        np.clip(delta, -bound, bound, out=delta)
    param[view] = param[view] - delta


def unblocked_sgd_step(param, state, view, grad, opt):
    """The sparse SGD / heavy-ball step as one whole-block update."""
    if opt.momentum == 0.0:
        param[view] = param[view] - opt.learning_rate * grad
        return
    velocity = state["velocity"]
    v_block = opt.momentum * velocity[view] + grad
    velocity[view] = v_block
    param[view] = param[view] - opt.learning_rate * v_block


OPTIMISERS = {
    "adam": (lambda: AdamOptimizer(learning_rate=0.01), unblocked_adam_step),
    "adam_clip": (
        lambda: AdamOptimizer(learning_rate=0.01, update_clip=0.5),
        unblocked_adam_step,
    ),
    "sgd": (lambda: SGDOptimizer(learning_rate=0.1), unblocked_sgd_step),
    "sgd_momentum": (
        lambda: SGDOptimizer(learning_rate=0.1, momentum=0.9),
        unblocked_sgd_step,
    ),
}


def _sorted_rows(rng, upper, count):
    return np.sort(rng.choice(upper, size=count, replace=False))


# Rows in one chunk of a block ``width`` elements wide.
def _stride(width):
    return max(1, _CHUNK_ELEMENTS // width)


# Memory orders a parameter (and its state) can come in: name -> a copy of
# an array in that order.  "strided" is neither C- nor F-contiguous.
LAYOUTS = {
    "row_major": np.ascontiguousarray,
    "column_major": np.asfortranarray,
    "strided": lambda array: np.repeat(array, 2, axis=1)[:, ::2],
}


# name -> (param shape, rows, cols, chunks the block is walked in); every
# shape is sized from the chunk constants, so the chunk counts hold for any
# value of them.
def block_cases(rng):
    partial = 2 * _stride(70) + _stride(70) // 2
    full_width = 3 * _stride(128) + 8
    bias = 2 * _CHUNK_ELEMENTS + _CHUNK_ELEMENTS // 4
    walk_rows = 2 * _stride(48) + 3
    return {
        "three_chunks_partial_cols": (
            (partial + 100, 96),
            _sorted_rows(rng, partial + 100, partial),
            _sorted_rows(rng, 96, 70),
            3,
        ),
        "exactly_one_chunk": (
            (2 * _stride(128), 128),
            _sorted_rows(rng, 2 * _stride(128), _stride(128)),
            None,
            1,
        ),
        "small_partial_cols": ((6, 5), np.array([1, 4]), np.array([0, 2, 3]), 1),
        "full_width_cols": (
            (full_width + 100, 128),
            _sorted_rows(rng, full_width + 100, full_width),
            np.arange(128),
            4,
        ),
        "bias_vector": ((bias + 2000,), _sorted_rows(rng, bias + 2000, bias), None, 3),
        "empty_rows": ((5, 4), np.zeros(0, dtype=np.int64), np.array([1, 2]), 0),
        "all_rows_partial_cols": (
            (walk_rows, 64),
            np.arange(walk_rows),
            _sorted_rows(rng, 64, 48),
            3,
        ),
    }


CASE_NAMES = sorted(block_cases(np.random.default_rng(0)))


class TestChunkedSparseStep:
    """The row-chunked ``sparse_step`` against the unblocked formula, bitwise."""

    @pytest.mark.parametrize("case", CASE_NAMES)
    @pytest.mark.parametrize("optimiser", sorted(OPTIMISERS))
    def test_bit_identical_to_unblocked_oracle(self, rng, optimiser, case):
        make, oracle_step = OPTIMISERS[optimiser]
        shape, rows, cols, chunks = block_cases(rng)[case]
        width = 1 if len(shape) == 1 else (shape[1] if cols is None else cols.size)
        assert -(-rows.size // _stride(width)) == chunks

        opt = make()
        opt.register("w", shape)
        # The oracle runs in the parameter's dtype, so it stays bit-identical.
        param = rng.normal(size=shape).astype(FLOAT)
        initial = param.copy()
        expected = param.copy()
        expected_state = {k: a.copy() for k, a in opt.state_of("w").items()}
        view = (rows,) if cols is None else np.ix_(rows, cols)
        grad_shape = param[view].shape
        for _ in range(3):
            grad = rng.normal(size=grad_shape).astype(FLOAT)
            grad_before = grad.copy()
            opt.begin_step()
            opt.sparse_step("w", param, rows, cols, grad)
            oracle_step(expected, expected_state, view, grad, opt)
            np.testing.assert_array_equal(grad, grad_before)
            np.testing.assert_array_equal(param, expected)
            for key, array in opt.state_of("w").items():
                np.testing.assert_array_equal(array, expected_state[key])

        untouched = np.ones(shape, dtype=bool)
        untouched[view] = False
        np.testing.assert_array_equal(param[untouched], initial[untouched])
        for array in opt.state_of("w").values():
            assert not array[untouched].any()
        if rows.size:
            assert not np.array_equal(param[view], initial[view])

    @pytest.mark.parametrize("optimiser", sorted(OPTIMISERS))
    def test_dense_step_bit_identical_to_whole_array_formula(self, rng, optimiser):
        """The dense step is the same rule walked over row slices."""
        make, oracle_step = OPTIMISERS[optimiser]
        shape = (3 * _CHUNK_ELEMENTS // 128 + 5, 128)
        opt = make()
        opt.register("w", shape)
        param = rng.normal(size=shape).astype(FLOAT)
        expected = param.copy()
        expected_state = {k: a.copy() for k, a in opt.state_of("w").items()}
        for _ in range(3):
            grad = rng.normal(size=shape).astype(FLOAT)
            opt.begin_step()
            opt.step("w", param, grad)
            oracle_step(expected, expected_state, (slice(None),), grad, opt)
            np.testing.assert_array_equal(param, expected)
            for key, array in opt.state_of("w").items():
                np.testing.assert_array_equal(array, expected_state[key])

    @pytest.mark.parametrize(
        "shape,rows,cols",
        [
            ((10,), np.array([3, 10]), None),
            ((10, 4), np.array([3, 10]), None),
            ((10, 4), np.array([3, 10]), np.arange(4)),
            ((10, 4), np.array([3, 10]), np.array([1, 2])),
            ((10, 4), np.arange(10), np.array([1, 4])),
            ((10, 4), np.arange(10), np.array([-1, 2])),
        ],
        ids=[
            "bias_row",
            "whole_row",
            "full_width_row",
            "block_row",
            "column_walk_col",
            "column_walk_negative_col",
        ],
    )
    def test_out_of_range_id_raises_before_its_chunk_is_written(
        self, shape, rows, cols
    ):
        opt = AdamOptimizer()
        opt.register("w", shape)
        param = np.zeros(shape, dtype=FLOAT)
        grad_shape = (rows.size,) if cols is None else (rows.size, cols.size)
        opt.begin_step()
        with pytest.raises(IndexError):
            opt.sparse_step("w", param, rows, cols, np.ones(grad_shape, dtype=FLOAT))
        assert not param.any()
        for array in opt.state_of("w").values():
            assert not array.any()

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("optimiser", sorted(OPTIMISERS))
    def test_all_rows_column_subset_bit_identical_on_every_layout(
        self, rng, optimiser, layout
    ):
        """Every row under a column subset (a layer without LSH) takes the
        ``np.ix_`` update bit for bit, whatever the memory order of the
        parameter and its state: a column-major one is walked as its
        transpose, any other through the same chunked walk."""
        make, oracle_step = OPTIMISERS[optimiser]
        shape = (24, 3 * _CHUNK_ELEMENTS // 24 + 40)
        opt = make()
        param = LAYOUTS[layout](rng.normal(size=shape).astype(FLOAT))
        opt.register("w", shape, order="F" if np.isfortran(param) else "C")
        for key, array in opt.state_of("w").items():
            opt.set_state_array("w", key, LAYOUTS[layout](array))
        expected = np.array(param)
        expected_state = {k: np.array(a) for k, a in opt.state_of("w").items()}
        rows = np.arange(shape[0])
        for _ in range(3):
            cols = _sorted_rows(rng, shape[1], 3 * shape[1] // 4)
            view = np.ix_(rows, cols)
            grad = LAYOUTS[layout](rng.normal(size=(rows.size, cols.size)).astype(FLOAT))
            opt.begin_step()
            opt.sparse_step("w", param, rows, cols, grad)
            oracle_step(expected, expected_state, view, grad, opt)
            np.testing.assert_array_equal(param, expected)
            for key, array in opt.state_of("w").items():
                np.testing.assert_array_equal(array, expected_state[key])

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("bad", [-1, 6], ids=["negative", "past_the_end"])
    def test_all_rows_bad_column_raises_before_anything_is_written(self, layout, bad):
        # The bad id is last: a walk of the column-major parameter's columns
        # as rows, one a chunk, would have written the three before it.
        shape = (_CHUNK_ELEMENTS, 6)
        opt = AdamOptimizer()
        param = LAYOUTS[layout](np.zeros(shape, dtype=FLOAT))
        opt.register("w", shape, order="F" if np.isfortran(param) else "C")
        cols = np.array([0, 2, 3, bad])
        opt.begin_step()
        with pytest.raises(IndexError):
            opt.sparse_step(
                "w", param, np.arange(shape[0]), cols, np.ones((shape[0], 4), dtype=FLOAT)
            )
        assert not param.any()
        for array in opt.state_of("w").values():
            assert not array.any()

    @pytest.mark.parametrize(
        "cols", [np.arange(128), np.arange(0, 128, 2)], ids=["full_width", "partial"]
    )
    def test_sparse_step_allocates_no_block_sized_temporary(self, rng, cols):
        """Peak traced memory is a few chunks (parameter, two moments, two
        scratch arrays, index arrays), far under the 2-4 MB block."""
        chunk_bytes = _CHUNK_ELEMENTS * np.dtype(FLOAT).itemsize
        rows = _sorted_rows(rng, _CHUNK_ELEMENTS, _CHUNK_ELEMENTS // 2)
        opt = AdamOptimizer(update_clip=1.0)
        opt.register("w", (_CHUNK_ELEMENTS, 128))
        param = rng.normal(size=(_CHUNK_ELEMENTS, 128)).astype(FLOAT)
        grad = rng.normal(size=(rows.size, cols.size)).astype(FLOAT)
        opt.begin_step()
        opt.sparse_step("w", param, rows, cols, grad)
        tracemalloc.start()
        try:
            opt.sparse_step("w", param, rows, cols, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grad.nbytes >= 32 * chunk_bytes
        assert peak < 10 * chunk_bytes

    def test_dense_step_allocates_no_parameter_sized_temporary(self, rng):
        chunk_bytes = _CHUNK_ELEMENTS * np.dtype(FLOAT).itemsize
        shape = (4096, 128)
        opt = AdamOptimizer()
        opt.register("w", shape)
        param = rng.normal(size=shape).astype(FLOAT)
        grad = rng.normal(size=shape).astype(FLOAT)
        opt.begin_step()
        tracemalloc.start()
        try:
            opt.step("w", param, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert param.nbytes >= 32 * chunk_bytes
        assert peak < 10 * chunk_bytes


class TestFactory:
    def test_builds_adam(self):
        opt = make_optimizer(OptimizerConfig(name="adam", learning_rate=0.01))
        assert isinstance(opt, AdamOptimizer)
        assert opt.learning_rate == 0.01

    def test_builds_sgd(self):
        opt = make_optimizer(OptimizerConfig(name="sgd", learning_rate=0.1, momentum=0.5))
        assert isinstance(opt, SGDOptimizer)
        assert opt.momentum == 0.5


@given(
    lr=st.floats(min_value=1e-4, max_value=0.5),
    steps=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_adam_sparse_dense_equivalence_property(lr, steps):
    """Property: for gradients supported on a fixed block, sparse and dense
    Adam trajectories coincide on that block."""
    rng = np.random.default_rng(0)
    shape = (4, 4)
    rows, cols = np.array([1, 2]), np.array([0, 3])
    dense_opt = AdamOptimizer(learning_rate=lr)
    sparse_opt = AdamOptimizer(learning_rate=lr)
    dense_param = rng.normal(size=shape)
    sparse_param = dense_param.copy()
    dense_opt.register("w", shape)
    sparse_opt.register("w", shape)
    for _ in range(steps):
        block = rng.normal(size=(2, 2))
        grad = np.zeros(shape)
        grad[np.ix_(rows, cols)] = block
        dense_opt.begin_step()
        sparse_opt.begin_step()
        dense_opt.step("w", dense_param, grad)
        sparse_opt.sparse_step("w", sparse_param, rows, cols, block)
    np.testing.assert_allclose(sparse_param, dense_param, atol=1e-10)
