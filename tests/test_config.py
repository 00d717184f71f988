"""Validation tests for the configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    RebuildScheduleConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)


class TestLSHConfig:
    def test_defaults_are_valid(self):
        config = LSHConfig()
        assert config.k > 0 and config.l > 0

    @pytest.mark.parametrize("field,value", [("k", 0), ("l", 0), ("bucket_size", 0)])
    def test_non_positive_parameters_raise(self, field, value):
        with pytest.raises(ValueError):
            LSHConfig(**{field: value})

    def test_simhash_sparsity_bounds(self):
        with pytest.raises(ValueError):
            LSHConfig(simhash_sparsity=0.0)
        with pytest.raises(ValueError):
            LSHConfig(simhash_sparsity=1.5)

    def test_wta_bin_size_minimum(self):
        with pytest.raises(ValueError):
            LSHConfig(wta_bin_size=1)


class TestRebuildScheduleConfig:
    def test_defaults(self):
        config = RebuildScheduleConfig()
        assert config.initial_period > 0

    def test_negative_decay_raises(self):
        with pytest.raises(ValueError):
            RebuildScheduleConfig(decay=-0.1)

    def test_max_period_below_initial_raises(self):
        with pytest.raises(ValueError):
            RebuildScheduleConfig(initial_period=100, max_period=10)


class TestSamplingConfig:
    def test_defaults(self):
        config = SamplingConfig()
        assert config.strategy == "vanilla"

    def test_zero_target_active_raises(self):
        with pytest.raises(ValueError):
            SamplingConfig(target_active=0)

    def test_negative_min_active_raises(self):
        with pytest.raises(ValueError):
            SamplingConfig(min_active=-1)

    def test_zero_hard_threshold_raises(self):
        with pytest.raises(ValueError):
            SamplingConfig(hard_threshold=0)


class TestLayerConfig:
    def test_uses_lsh_flag(self):
        assert not LayerConfig(size=8).uses_lsh
        assert LayerConfig(size=8, lsh=LSHConfig()).uses_lsh

    def test_non_positive_size_raises(self):
        with pytest.raises(ValueError):
            LayerConfig(size=0)


class TestOptimizerConfig:
    def test_defaults(self):
        config = OptimizerConfig()
        assert config.name == "adam"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"epsilon": 0.0},
            {"momentum": 1.0},
        ],
    )
    def test_invalid_hyperparameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestSlideNetworkConfig:
    def _layers(self, output_activation="softmax"):
        return (
            LayerConfig(size=16, activation="relu"),
            LayerConfig(size=32, activation=output_activation),
        )

    def test_valid_config(self):
        config = SlideNetworkConfig(input_dim=64, layers=self._layers())
        assert config.output_dim == 32

    def test_final_layer_must_be_softmax(self):
        with pytest.raises(ValueError, match="softmax"):
            SlideNetworkConfig(input_dim=64, layers=self._layers("relu"))

    def test_empty_layers_raise(self):
        with pytest.raises(ValueError):
            SlideNetworkConfig(input_dim=64, layers=())

    def test_non_positive_input_dim_raises(self):
        with pytest.raises(ValueError):
            SlideNetworkConfig(input_dim=0, layers=self._layers())


class TestTrainingConfig:
    def test_defaults(self):
        config = TrainingConfig()
        assert config.batch_size > 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"batch_size": 0}, {"epochs": 0}, {"eval_every": -1}, {"eval_samples": 0}],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestRouterConfig:
    def test_defaults(self):
        from repro.config import RouterConfig

        config = RouterConfig()
        assert config.num_replicas == 2
        assert config.health_interval_s == 0.25
        assert config.probe_timeout_s == 1.0
        assert config.retry_max_attempts == 3
        assert config.request_deadline_s == 2.0
        assert config.attempt_timeout_s == 1.0
        assert config.breaker_failure_threshold == 5
        assert config.breaker_recovery_s == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_replicas": 0},
            {"health_interval_s": 0.0},
            {"probe_timeout_s": -1.0},
            {"retry_max_attempts": 0},
            {"request_deadline_s": 0.0},
            {"attempt_timeout_s": 0.0},
            {"breaker_failure_threshold": 0},
            {"breaker_recovery_s": -1.0},
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        from repro.config import RouterConfig

        with pytest.raises(ValueError):
            RouterConfig(**kwargs)

    def test_dict_round_trip(self):
        import json as _json

        from repro.config import RouterConfig, from_dict, to_dict

        config = RouterConfig(num_replicas=3, breaker_recovery_s=0.25)
        data = _json.loads(_json.dumps(to_dict(config)))
        assert from_dict(RouterConfig, data) == config

    def test_from_dict_rejects_unknown_and_bad_fields(self):
        from repro.config import RouterConfig, from_dict

        with pytest.raises(ValueError, match="unknown router config field"):
            from_dict(RouterConfig, {"replicas": 3})
        with pytest.raises(ValueError, match="num_replicas"):
            from_dict(RouterConfig, {"num_replicas": "many"})
