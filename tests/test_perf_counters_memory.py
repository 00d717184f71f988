"""Tests for the CPU-counter (Figure 6 / Table 2) and memory/TLB (Table 4) models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    LayerConfig,
    LSHConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.perf.cpu_counters import (
    inefficiency_breakdown,
    scattered_memory_bound,
    slide_breakdown,
    slide_working_sets,
    streaming_memory_bound,
    tf_breakdown,
    tf_working_sets,
)
from repro.perf.memory import (
    HUGE_PAGES_2MB,
    HUGEPAGES_SPEEDUP,
    STANDARD_PAGES,
    TLBModel,
    hugepages_counter_comparison,
    slide_memory_footprint,
)


class TestCPUCounters:
    def test_breakdown_sums_to_one(self):
        breakdown = inefficiency_breakdown("x", 8, memory_bound=0.4)
        total = (
            breakdown.front_end_bound
            + breakdown.memory_bound
            + breakdown.retiring
            + breakdown.core_bound
        )
        assert total == pytest.approx(1.0)
        assert 0 <= breakdown.utilization() <= 1

    def test_invalid_memory_bound_raises(self):
        with pytest.raises(ValueError):
            inefficiency_breakdown("x", 8, memory_bound=1.5)

    def test_tf_memory_bound_increases_with_threads(self):
        """Figure 6, left panel: TF-CPU becomes more memory bound with cores."""
        fractions = [
            tf_breakdown(t, output_dim=670_091, hidden_dim=128, batch_size=256).memory_bound
            for t in (8, 16, 32)
        ]
        assert fractions[0] < fractions[1] < fractions[2]

    def test_slide_memory_bound_decreases_with_threads(self):
        """Figure 6, right panel: SLIDE becomes less memory bound with cores."""
        fractions = [
            slide_breakdown(
                t, avg_active_output=3000, hidden_dim=128, batch_size=256, output_dim=670_091
            ).memory_bound
            for t in (8, 16, 32)
        ]
        assert fractions[0] > fractions[1] > fractions[2]

    def test_memory_bound_is_dominant_inefficiency(self):
        """The paper: memory-bound is the largest stall category for both."""
        tf = tf_breakdown(16, 670_091, 128, 256)
        slide = slide_breakdown(16, 3000, 128, 256, 670_091)
        for b in (tf, slide):
            assert b.memory_bound > b.front_end_bound
            assert b.memory_bound > b.core_bound

    def test_utilization_direction_matches_table2(self):
        """SLIDE's modelled utilisation stays above TF-CPU's at every count."""
        for threads in (8, 16, 32):
            slide = slide_breakdown(threads, 3000, 128, 256, 670_091)
            tf = tf_breakdown(threads, 670_091, 128, 256)
            assert slide.utilization() > tf.utilization()

    def test_working_set_helpers(self):
        per_thread, shared = slide_working_sets(3000, 128, 256, 8, 670_091)
        assert per_thread > 0 and shared > 0
        per_thread_tf, shared_tf = tf_working_sets(670_091, 128, 256, 8)
        # TF's shared streaming footprint (full weight matrix) dwarfs SLIDE's.
        assert shared_tf > shared

    def test_memory_bound_models_validation(self):
        with pytest.raises(ValueError):
            scattered_memory_bound(1e6, 0)
        with pytest.raises(ValueError):
            streaming_memory_bound(-1.0, 4)
        with pytest.raises(ValueError):
            slide_working_sets(3000, 0, 256, 8, 100)

    def test_breakdown_as_row_keys(self):
        row = slide_breakdown(8, 3000, 128, 256, 670_091).as_row()
        assert {"framework", "threads", "memory_bound", "retiring", "utilization"} <= set(row)


class TestMemoryFootprint:
    def _footprint(self):
        return slide_memory_footprint(
            input_dim=135_909,
            hidden_dim=128,
            output_dim=670_091,
            batch_size=256,
            avg_active_output=3000,
            avg_input_nnz=75,
            l_tables=50,
        )

    def test_footprint_positive_and_large(self):
        fp = self._footprint()
        assert fp.resident_bytes > 100 * 1024 * 1024  # hundreds of MB of weights
        assert fp.touched_per_iteration_bytes > 0
        assert fp.accesses_per_iteration > 0

    def test_footprint_validation(self):
        with pytest.raises(ValueError):
            slide_memory_footprint(0, 128, 100, 8, 10, 10, 5)

    def test_parameter_bytes_match_a_built_network(self):
        """At 4 bytes a value the model's weights + Adam moments are what a
        built network and its optimiser hold (biases excluded, as the model
        excludes them).  With float64 parameters this was off by 2x."""
        layers = (
            LayerConfig(size=24, activation="relu"),
            LayerConfig(
                size=200,
                activation="softmax",
                lsh=LSHConfig(hash_family="simhash", k=3, l=4, bucket_size=16),
            ),
        )
        network = SlideNetwork(SlideNetworkConfig(input_dim=300, layers=layers, seed=0))
        optimizer = network.build_optimizer(TrainingConfig())
        held = 0
        for layer in network.layers:
            held += layer.weights.nbytes
            state = optimizer.state_of(f"{layer.name}.weights")
            held += state["m"].nbytes + state["v"].nbytes
        footprint = slide_memory_footprint(
            input_dim=300,
            hidden_dim=24,
            output_dim=200,
            batch_size=8,
            avg_active_output=10,
            avg_input_nnz=5,
            l_tables=4,
            bytes_per_value=4,
        )
        assert footprint.parameter_bytes == held


class TestTLBModel:
    def test_hugepages_reduce_dtlb_misses(self):
        fp = slide_memory_footprint(135_909, 128, 670_091, 256, 3000, 75, 50)
        small = TLBModel(STANDARD_PAGES).dtlb_miss_rate(fp)
        large = TLBModel(HUGE_PAGES_2MB).dtlb_miss_rate(fp)
        assert large < small

    def test_hugepages_reduce_itlb_misses(self):
        small = TLBModel(STANDARD_PAGES).itlb_miss_rate()
        large = TLBModel(HUGE_PAGES_2MB).itlb_miss_rate()
        assert large < small
        # With 4 KB pages the ITLB miss rate is severe (paper measures 56 %).
        assert small > 0.3

    def test_page_faults_drop_with_hugepages(self):
        fp = slide_memory_footprint(135_909, 128, 670_091, 256, 3000, 75, 50)
        small = TLBModel(STANDARD_PAGES).page_faults_per_second(fp, 10.0)
        large = TLBModel(HUGE_PAGES_2MB).page_faults_per_second(fp, 10.0)
        assert large < small

    def test_counter_comparison_structure(self):
        fp = slide_memory_footprint(135_909, 128, 670_091, 256, 3000, 75, 50)
        table = hugepages_counter_comparison(fp)
        assert "dTLB load miss rate" in table
        assert "PageFaults per second" in table
        for metric, values in table.items():
            assert values["with_hugepages"] <= values["without_hugepages"], metric

    def test_speedup_constant_matches_paper(self):
        assert HUGEPAGES_SPEEDUP == pytest.approx(1.3)

    def test_invalid_tlb_entries_raise(self):
        with pytest.raises(ValueError):
            TLBModel(STANDARD_PAGES, dtlb_entries=0)
