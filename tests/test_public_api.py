"""Tests of the top-level public API surface.

A downstream user should be able to drive the whole system from the names
exported by ``repro`` and its subpackage ``__init__`` modules; these tests
pin that surface (and its documentation) so refactors cannot silently break
it.
"""

from __future__ import annotations

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    SamplingConfig,
    SlideNetwork,
    SlideNetworkConfig,
    SlideTrainer,
    SparseBatch,
    SparseExample,
    SparseVector,
    TrainingConfig,
)


class TestTopLevelExports:
    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_classes_are_exported(self):
        assert SlideNetwork is not None
        assert SlideTrainer is not None
        assert SparseVector is not None

    def test_public_classes_have_docstrings(self):
        for obj in (
            SlideNetwork,
            SlideTrainer,
            SparseVector,
            SparseExample,
            SparseBatch,
            LSHConfig,
            LayerConfig,
            SlideNetworkConfig,
        ):
            assert obj.__doc__ and obj.__doc__.strip(), obj


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.perf",
            "repro.core",
            "repro.serving",
            "repro.harness",
            "repro.parallel",
            "repro.baselines",
            "repro.reports",
            "repro.hashing",
            "repro.lsh",
            "repro.sampling",
            "repro.kernels",
            "repro.optim",
            "repro.data",
            "repro.datasets",
            "repro.state",
            "repro.utils",
        ],
    )
    def test_imports_first_in_a_fresh_interpreter(self, module):
        # repro.core imports repro.perf (PhaseTimer) at module level, so
        # repro.perf must stay free of repro.core imports, whichever of the
        # packages a process happens to import first.  repro.state reads
        # repro.__version__ while the root package is still initialising.
        # scipy is not a declared dependency (setup.py: numpy only), and where
        # it is installed it would be most of the import time of every bench
        # child, HOGWILD worker and serving replica.
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys, {module}; assert 'scipy' not in sys.modules, "
                f"'importing {module} pulled in scipy'",
            ],
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_hashing_exports(self):
        from repro import hashing

        for name in hashing.__all__:
            assert hasattr(hashing, name), name

    def test_lsh_exports(self):
        from repro import lsh

        for name in lsh.__all__:
            assert hasattr(lsh, name), name

    def test_perf_exports(self):
        from repro import perf

        for name in perf.__all__:
            assert hasattr(perf, name), name

    def test_harness_exports(self):
        from repro import harness

        for name in harness.__all__:
            assert hasattr(harness, name), name

    def test_config_exports_exactly_one_codec(self):
        from repro import config

        for name in config.__all__:
            assert hasattr(config, name), name
        # One codec: the module defines no other public function, and
        # __all__ lists nothing else in lower case (the rest are classes and
        # Literal aliases).
        codec = {"to_dict", "from_dict", "load_config"}
        defined = {
            name
            for name, obj in vars(config).items()
            if inspect.isfunction(obj) and obj.__module__ == config.__name__
        }
        assert {name for name in defined if not name.startswith("_")} == codec
        assert {name for name in config.__all__ if name.islower()} == codec

    def test_datasets_exports(self):
        from repro import datasets

        for name in datasets.__all__:
            assert hasattr(datasets, name), name


class TestConfigImmutability:
    """Configs are frozen dataclasses: shared configs cannot be mutated by
    one consumer under another consumer's feet."""

    @pytest.mark.parametrize(
        "config",
        [
            LSHConfig(),
            SamplingConfig(),
            OptimizerConfig(),
            TrainingConfig(),
            LayerConfig(size=8),
        ],
    )
    def test_configs_are_frozen(self, config):
        assert dataclasses.is_frozen(type(config)) if hasattr(dataclasses, "is_frozen") else True
        field_name = dataclasses.fields(config)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field_name, 123)

    def test_network_config_is_frozen(self):
        config = SlideNetworkConfig(
            input_dim=8,
            layers=(LayerConfig(size=4, activation="softmax"),),
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.input_dim = 99


class TestMinimalWorkflow:
    def test_readme_style_workflow_runs(self):
        """The README quickstart snippet, miniaturised, must run end to end."""
        from repro.datasets import SyntheticXCConfig, generate_synthetic_xc

        dataset = generate_synthetic_xc(
            SyntheticXCConfig(
                feature_dim=128, label_dim=24, num_train=64, num_test=24, seed=0
            )
        )
        network = SlideNetwork(
            SlideNetworkConfig(
                input_dim=dataset.feature_dim,
                layers=(
                    LayerConfig(size=16, activation="relu"),
                    LayerConfig(
                        size=dataset.label_dim,
                        activation="softmax",
                        lsh=LSHConfig(hash_family="simhash", k=3, l=8, bucket_size=16),
                        sampling=SamplingConfig(strategy="vanilla", target_active=8),
                    ),
                ),
            )
        )
        trainer = SlideTrainer(network, TrainingConfig(batch_size=16, epochs=1))
        trainer.train(dataset.train, dataset.test)
        accuracy = trainer.evaluate(dataset.test)
        assert 0.0 <= accuracy <= 1.0
