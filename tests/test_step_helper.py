"""The output layer's optimiser step in a helper process (``repro.core.offload``).

The deferral contract of ``SlideTrainer``'s synchronous loops:

* when ``train`` / ``train_batches`` return, weights, biases and optimiser
  state equal a trainer's without a helper bit for bit, and an evaluation or
  checkpoint inside the loop sees every step before it;
* a direct ``SlideNetwork.train_batch`` leaves nothing in flight;
* a rebind of the layer's arrays restarts the helper, and private arrays, a
  single core or a BLAS on more than one thread mean no helper at all;
* an exception in the helper is raised at the next join;
* a dropped trainer leaves no child process, and a killed training process
  takes its helper with it.

The networks here are far below ``MIN_OFFLOAD_WEIGHTS``, so each test lowers
it, pretends to a second core and pins the BLAS to one thread.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    FaultToleranceConfig,
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core import layer as layer_module
from repro.core import offload, trainer as trainer_module
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc
from repro.state import bind_model_arrays, model_arrays
from repro.types import SparseBatch
from repro.utils.shared import is_shared, shared_zeros

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)

DIM, HIDDEN, CLASSES, BATCH = 128, 16, 256, 8
SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def cores(monkeypatch):
    """Every layer qualifies by size; the host has ``cores(n)`` cores."""
    monkeypatch.setattr(offload, "MIN_OFFLOAD_WEIGHTS", 0)
    for variable in BLAS_THREADS:
        monkeypatch.setenv(variable, "1")

    def set_cores(count: int) -> None:
        monkeypatch.setattr(offload, "_cores", lambda: count)

    set_cores(2)
    return set_cores


@pytest.fixture(scope="module")
def data():
    return generate_synthetic_xc(
        SyntheticXCConfig(
            feature_dim=DIM,
            label_dim=CLASSES,
            num_train=12 * BATCH,
            num_test=16,
            avg_features_per_example=12,
            prototype_nnz=6,
            seed=3,
        )
    )


def make_trainer(**kwargs) -> SlideTrainer:
    output = LayerConfig(
        size=CLASSES,
        activation="softmax",
        lsh=LSHConfig(hash_family="simhash", k=3, l=6, bucket_size=16),
        sampling=SamplingConfig(strategy="vanilla", target_active=24, min_active=8),
        rebuild=RebuildScheduleConfig(initial_period=3, decay=0.3),
    )
    network = SlideNetwork(
        SlideNetworkConfig(
            input_dim=DIM,
            layers=(LayerConfig(size=HIDDEN, activation="relu"), output),
            seed=4,
        )
    )
    training = TrainingConfig(
        batch_size=BATCH,
        epochs=kwargs.pop("epochs", 1),
        eval_every=kwargs.pop("eval_every", 0),
        optimizer=OptimizerConfig(name="adam", learning_rate=1e-2),
        seed=4,
    )
    return SlideTrainer(network, training, hogwild=False, **kwargs)


def shared(array: np.ndarray) -> np.ndarray:
    out = shared_zeros(array.shape, order="F" if np.isfortran(array) else "C")
    out[...] = array
    return out


def batches(data, start: int, stop: int):
    return [
        SparseBatch.from_examples(
            data.train[step * BATCH : (step + 1) * BATCH],
            feature_dim=DIM,
            label_dim=CLASSES,
        )
        for step in range(start, stop)
    ]


def arrays_of(trainer: SlideTrainer) -> dict[str, np.ndarray]:
    return {
        name: array.copy()
        for name, array in model_arrays(trainer.network, trainer.optimizer).items()
    }


def assert_same(got: dict, expected: dict) -> None:
    assert got.keys() == expected.keys()
    for name in got:
        np.testing.assert_array_equal(got[name], expected[name], err_msg=name)


def test_the_output_layer_lives_in_shared_memory(cores):
    trainer = make_trainer()
    output, hidden = trainer.network.output_layer, trainer.network.layers[0]
    assert is_shared(output.weights) and is_shared(output.biases)
    for state in trainer.optimizer.state_of("layer1.weights").values():
        assert is_shared(state)
    assert not is_shared(hidden.weights)


def test_train_batches_ends_with_the_synchronous_bits(cores, data):
    helped = make_trainer()
    helped.train_batches(batches(data, 0, 6))
    assert helped._helper is not None
    assert helped.network.output_layer._in_flight is None
    timer = helped.network.phase_timer
    assert timer.offloaded["optimiser"] > 0.0
    assert "optimiser_wait" in timer.totals
    cores(1)
    alone = make_trainer()
    alone.train_batches(batches(data, 0, 6))
    assert alone._helper is None
    assert "optimiser_wait" not in alone.network.phase_timer.totals
    assert_same(arrays_of(helped), arrays_of(alone))
    assert [r.loss for r in helped.history.records] == [
        r.loss for r in alone.history.records
    ]
    helped.close()


def test_train_with_evals_and_checkpoints_sees_every_step(cores, data, tmp_path, monkeypatch):
    seen: list[np.ndarray] = []
    evaluate = trainer_module.evaluate_precision_at_1

    def recording_evaluate(network, examples):
        seen.append(network.output_layer.weights.copy())
        return evaluate(network, examples)

    monkeypatch.setattr(trainer_module, "evaluate_precision_at_1", recording_evaluate)
    results = []
    for count, name in ((2, "helped"), (1, "alone")):
        cores(count)
        trainer = make_trainer(
            epochs=2,
            eval_every=2,
            checkpoint_dir=tmp_path / name,
            fault_tolerance=FaultToleranceConfig(checkpoint_every_batches=3),
        )
        trainer.train(data.train[: 10 * BATCH], data.test)
        assert (trainer._helper is not None) == (count == 2)
        saved = {
            version.name: np.load(version / "arrays.npz")["layer1.weights"]
            for version in trainer._store().versions()
        }
        results.append((arrays_of(trainer), list(seen), saved))
        seen.clear()
        trainer.close()
    (helped, helped_seen, helped_saved), (alone, alone_seen, alone_saved) = results
    assert_same(helped, alone)
    assert len(helped_seen) == len(alone_seen) > 2
    for got, expected in zip(helped_seen, alone_seen):
        np.testing.assert_array_equal(got, expected)
    assert helped_saved.keys() == alone_saved.keys() and len(helped_saved) > 1
    for name in helped_saved:
        np.testing.assert_array_equal(helped_saved[name], alone_saved[name])


@pytest.mark.parametrize(
    "threads, pinned",
    [
        ({}, False),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, False),
    ],
)
def test_a_blas_on_more_threads_means_no_helper(cores, data, monkeypatch, threads, pinned):
    for variable in BLAS_THREADS:
        monkeypatch.delenv(variable)
    for variable, value in threads.items():
        monkeypatch.setenv(variable, value)
    trainer = make_trainer()
    assert is_shared(trainer.network.output_layer.weights) == pinned
    trainer.train_batches(batches(data, 0, 2))
    assert (trainer._helper is not None) == pinned
    trainer.close()


def test_a_direct_train_batch_leaves_nothing_in_flight(cores, data):
    trainer = make_trainer()
    network = trainer.network
    before = network.output_layer.weights.copy()
    network.train_batch(batches(data, 0, 1)[0], trainer.optimizer, hogwild=False)
    assert network.output_layer._in_flight is None
    assert not np.array_equal(before, network.output_layer.weights)
    assert trainer._helper is None


def test_a_rebind_restarts_the_helper(cores, data):
    helped = make_trainer()
    helped.train_batches(batches(data, 0, 3))
    first = helped._helper._process.pid
    network, optimizer = helped.network, helped.optimizer
    bind_model_arrays(
        network,
        optimizer,
        {name: shared(a) for name, a in model_arrays(network, optimizer).items()},
    )
    helped.train_batches(batches(data, 3, 6))
    assert helped._helper is not None and helped._helper._process.pid != first
    # Private arrays: a forked copy would take the writes, so no helper.
    bind_model_arrays(
        network,
        optimizer,
        {name: a.copy() for name, a in model_arrays(network, optimizer).items()},
    )
    helped.train_batches(batches(data, 6, 9))
    assert helped._helper is None
    alone = make_trainer()
    cores(1)
    alone.train_batches(batches(data, 0, 9))
    assert_same(arrays_of(helped), arrays_of(alone))


def test_an_exception_in_the_helper_is_raised_at_the_next_join(cores, data, monkeypatch):
    step_block = layer_module.SlideLayer.step_block

    def failing_step_block(self, optimizer, rows, *args):
        if os.getpid() != parent and optimizer.step_count == 3:
            raise IndexError("sparse_step ids must lie in [0, 256)")
        return step_block(self, optimizer, rows, *args)

    parent = os.getpid()
    monkeypatch.setattr(layer_module.SlideLayer, "step_block", failing_step_block)
    trainer = make_trainer()
    with pytest.raises(IndexError, match="sparse_step ids"):
        trainer.train_batches(batches(data, 0, 6))
    # It surfaced at the gather of step 4, not later.
    assert trainer.network.iteration == 3
    assert trainer.network.output_layer._in_flight is None
    # The helper carries on with the next step.
    trainer.train_batches(batches(data, 6, 7))
    trainer.close()
    assert trainer._helper is None


def test_a_dropped_trainer_leaves_no_child_process(cores, data):
    trainer = make_trainer()
    trainer.train_batches(batches(data, 0, 2))
    pid = trainer._helper._process.pid
    assert pid in {child.pid for child in multiprocessing.active_children()}
    dropped = weakref.ref(trainer)
    del trainer
    # No reference cycle: the trainer goes at once, and its helper with it.
    assert dropped() is None
    assert pid not in {child.pid for child in multiprocessing.active_children()}
    gc.collect()


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_killed_trainer_takes_its_helper_with_it():
    script = textwrap.dedent(
        f"""
        import sys, time
        sys.path.insert(0, {str(SRC)!r})
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from repro.core import offload
        offload.MIN_OFFLOAD_WEIGHTS = 0
        offload._cores = lambda: 2
        import test_step_helper as t
        from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc
        data = generate_synthetic_xc(SyntheticXCConfig(
            feature_dim=t.DIM, label_dim=t.CLASSES, num_train=2 * t.BATCH,
            num_test=1, avg_features_per_example=12, prototype_nnz=6, seed=3))
        trainer = t.make_trainer()
        trainer.train_batches(t.batches(data, 0, 2))
        print(trainer._helper._process.pid, flush=True)
        time.sleep(60)
        """
    )
    env = dict(os.environ, **{variable: "1" for variable in BLAS_THREADS})
    process = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
    )
    try:
        helper = int(process.stdout.readline())
        assert not _gone(helper)
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        deadline = time.monotonic() + 1.0
        while not _gone(helper) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _gone(helper)
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
