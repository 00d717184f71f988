"""Tests for the synthetic datasets, the XC-format loader and statistics."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.loaders import (
    load_xc_file,
    parse_xc_line,
    parse_xc_tokens,
    write_xc_file,
)
from repro.datasets.stats import PAPER_DATASET_STATS, compute_statistics
from repro.datasets.synthetic import (
    SyntheticXCConfig,
    _LabelSampler,
    _zipf_probabilities,
    amazon_like_config,
    delicious_like_config,
    generate_synthetic_xc,
)

PARENT_DIGEST = Path(__file__).parent / "data" / "synthetic_parent_digest.json"
# The configurations pinned in ``PARENT_DIGEST``: the defaults, the
# perfbench ``TINY`` shape, the perfbench ``FULL`` label width (with fewer
# examples) and the smallest Amazon-670K-like preset.
DIGEST_CONFIGS = {
    "default": SyntheticXCConfig(),
    "tiny": SyntheticXCConfig(
        feature_dim=512,
        label_dim=256,
        num_train=128,
        num_test=64,
        avg_features_per_example=16,
        avg_labels_per_example=3.0,
        prototype_nnz=8,
        seed=1,
    ),
    "labels-32768": SyntheticXCConfig(
        feature_dim=8192,
        label_dim=32768,
        num_train=512,
        num_test=512,
        avg_features_per_example=64,
        avg_labels_per_example=3.0,
        prototype_nnz=24,
        seed=0,
    ),
    "amazon-1/512": amazon_like_config(1 / 512),
}


def dataset_digest(dataset) -> str:
    """SHA-256 over every array a generated dataset holds, in order."""
    digest = hashlib.sha256()
    for array in (
        dataset.prototype_indices.astype(np.int64),
        dataset.prototype_values.astype(np.float64),
        dataset.label_probabilities.astype(np.float64),
    ):
        digest.update(array.tobytes())
    for example in (*dataset.train, *dataset.test):
        for array in (
            example.labels.astype(np.int64),
            example.features.indices.astype(np.int64),
            example.features.values.astype(np.float32),
        ):
            digest.update(np.int64(array.size).tobytes())
            digest.update(array.tobytes())
    return digest.hexdigest()


class TestSyntheticGenerator:
    @pytest.fixture(scope="class")
    def dataset(self):
        config = SyntheticXCConfig(
            feature_dim=512,
            label_dim=96,
            num_train=256,
            num_test=64,
            avg_features_per_example=24,
            avg_labels_per_example=2.5,
            seed=3,
        )
        return generate_synthetic_xc(config)

    def test_sizes_match_config(self, dataset):
        assert len(dataset.train) == 256
        assert len(dataset.test) == 64

    def test_labels_within_range(self, dataset):
        for example in dataset.train:
            assert example.labels.size >= 1
            assert example.labels.max() < 96

    def test_features_within_range_and_sparse(self, dataset):
        nnz = [ex.features.nnz for ex in dataset.train]
        assert np.mean(nnz) < 96  # far sparser than the feature dimension
        for example in dataset.train[:32]:
            assert example.features.indices.max() < 512
            assert example.features.indices.min() >= 0

    def test_feature_sparsity_reported(self, dataset):
        sparsity = dataset.feature_sparsity()
        assert 0 < sparsity < 0.25

    def test_label_frequencies_are_skewed(self, dataset):
        """Power-law label sampling: the most common label must appear far
        more often than the median label."""
        counts = np.zeros(96)
        for example in dataset.train:
            counts[example.labels] += 1
        sorted_counts = np.sort(counts)[::-1]
        assert sorted_counts[0] >= 4 * max(np.median(sorted_counts), 1)

    def test_determinism_by_seed(self):
        config = SyntheticXCConfig(feature_dim=128, label_dim=32, num_train=64, num_test=16, seed=9)
        a = generate_synthetic_xc(config)
        b = generate_synthetic_xc(config)
        for ex_a, ex_b in zip(a.train, b.train):
            np.testing.assert_array_equal(ex_a.features.indices, ex_b.features.indices)
            np.testing.assert_array_equal(ex_a.labels, ex_b.labels)

    def test_different_seeds_differ(self):
        base = dict(feature_dim=128, label_dim=32, num_train=64, num_test=16)
        a = generate_synthetic_xc(SyntheticXCConfig(seed=1, **base))
        b = generate_synthetic_xc(SyntheticXCConfig(seed=2, **base))
        assert any(
            not np.array_equal(x.features.indices, y.features.indices)
            for x, y in zip(a.train, b.train)
        )

    def test_examples_are_learnable_signal(self, dataset):
        """Examples sharing a label should be more similar (cosine of dense
        features) than examples with disjoint labels — the structure both
        SLIDE and the baselines rely on to learn."""
        by_label: dict[int, list[int]] = {}
        for idx, ex in enumerate(dataset.train):
            for label in ex.labels:
                by_label.setdefault(int(label), []).append(idx)
        shared_pairs = []
        for label, members in by_label.items():
            if len(members) >= 2:
                shared_pairs.append((members[0], members[1]))
            if len(shared_pairs) >= 20:
                break
        assert shared_pairs, "dataset should contain labels with multiple examples"

        def cosine(i, j):
            a = dataset.train[i].features.to_dense()
            b = dataset.train[j].features.to_dense()
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))

        rng = np.random.default_rng(0)
        shared_sim = np.mean([cosine(i, j) for i, j in shared_pairs])
        random_sim = np.mean(
            [cosine(int(rng.integers(256)), int(rng.integers(256))) for _ in range(40)]
        )
        assert shared_sim > random_sim

    def test_invalid_configs_raise(self):
        with pytest.raises(ValueError):
            SyntheticXCConfig(feature_dim=0)
        with pytest.raises(ValueError):
            SyntheticXCConfig(avg_labels_per_example=0.5)
        with pytest.raises(ValueError):
            SyntheticXCConfig(zipf_exponent=0.0)
        with pytest.raises(ValueError):
            SyntheticXCConfig(noise_scale=-1.0)


class TestGeneratorDigest:
    """``generate_synthetic_xc`` returns the bits it returned before its
    label draw and feature assembly were rewritten as array code: the
    fixture holds :func:`dataset_digest` of each of ``DIGEST_CONFIGS`` as
    the per-example ``Generator.choice`` and dict version produced them."""

    @pytest.mark.parametrize("name", sorted(DIGEST_CONFIGS))
    def test_matches_parent_digest(self, name):
        expected = json.loads(PARENT_DIGEST.read_text())
        assert set(expected) == set(DIGEST_CONFIGS)
        dataset = generate_synthetic_xc(DIGEST_CONFIGS[name])
        assert dataset_digest(dataset) == expected[name]


class TestLabelSampler:
    LABELS = 1000
    SEEDS = range(12)
    SIZES = range(1, 9)

    @pytest.mark.parametrize("exponent", [1.05, 1.15, 3.0])
    def test_matches_generator_choice(self, exponent):
        """Same ids as ``Generator.choice(replace=False, p=)`` and the same
        generator state afterwards, for every seed and size through one
        sampler (so a retry round that fails to restore its scratch
        distribution shows up in the next draw)."""
        probs = _zipf_probabilities(self.LABELS, exponent)
        sampler = _LabelSampler(probs)
        retried = 0
        for seed in self.SEEDS:
            for size in self.SIZES:
                ours = np.random.default_rng([seed, size])
                numpy_rng = np.random.default_rng([seed, size])
                first_round = np.random.default_rng([seed, size]).random(size)
                found = sampler.cdf.searchsorted(first_round, side="right")
                retried += np.unique(found).size < size

                drawn = sampler.draw(ours, size)
                expected = numpy_rng.choice(
                    self.LABELS, size=size, replace=False, p=probs
                )
                np.testing.assert_array_equal(drawn, expected)
                assert ours.random() == numpy_rng.random()
        if exponent == 3.0:
            # p[0] is 0.83 at exponent 3: most multi-label draws repeat an id
            # in their first round, so numpy's retry loop must have run.
            assert retried > len(self.SEEDS) * 4
        np.testing.assert_array_equal(sampler._remaining, probs)


class TestPresetConfigs:
    def test_delicious_like_scales(self):
        config = delicious_like_config(scale=1 / 1024)
        assert config.feature_dim == int(782_585 / 1024)
        assert config.label_dim == int(205_443 / 1024)
        assert "delicious" in config.name

    def test_amazon_like_scales(self):
        config = amazon_like_config(scale=1 / 1024)
        assert config.label_dim == int(670_091 / 1024)
        assert "amazon" in config.name

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            delicious_like_config(scale=0.0)
        with pytest.raises(ValueError):
            amazon_like_config(scale=2.0)


class TestXCLoader:
    def test_parse_line_with_labels_and_features(self):
        example = parse_xc_line("3,7 0:0.5 9:1.25", feature_dim=16)
        np.testing.assert_array_equal(example.labels, [3, 7])
        np.testing.assert_array_equal(example.features.indices, [0, 9])
        np.testing.assert_allclose(example.features.values, [0.5, 1.25])

    def test_parse_line_without_labels(self):
        example = parse_xc_line("0:1.0 2:2.0", feature_dim=4)
        assert example.labels.size == 0
        assert example.features.nnz == 2

    def test_parse_line_coalesces_duplicate_features(self):
        """Duplicate ``feat:val`` tokens sum their values; indices stay
        sorted and unique as the downstream CSR/searchsorted paths assume."""
        example = parse_xc_line("1 3:1.0 0:0.5 3:2.5 0:0.25", feature_dim=8)
        np.testing.assert_array_equal(example.features.indices, [0, 3])
        np.testing.assert_allclose(example.features.values, [0.75, 3.5])

    def test_parse_tokens_unsorted_input_sorted_output(self):
        labels, indices, values = parse_xc_tokens("2 9:1.0 1:2.0 5:3.0", feature_dim=16)
        np.testing.assert_array_equal(labels, [2])
        np.testing.assert_array_equal(indices, [1, 5, 9])
        np.testing.assert_allclose(values, [2.0, 3.0, 1.0])

    def test_write_rejects_fully_empty_example(self, tmp_path):
        """A line with no labels and no features would be blank — the readers
        skip blank lines, so the writer must refuse it up front."""
        from repro.types import SparseExample, SparseVector

        empty = SparseExample(
            features=SparseVector(
                indices=np.zeros(0, dtype=np.int64),
                values=np.zeros(0),
                dimension=8,
            ),
            labels=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="fully empty"):
            write_xc_file(tmp_path / "empty.txt", [empty], 8, 5)

    def test_write_then_load_round_trip(self, tmp_path, tiny_dataset):
        path = tmp_path / "roundtrip.txt"
        write_xc_file(
            path,
            tiny_dataset.train[:16],
            tiny_dataset.config.feature_dim,
            tiny_dataset.config.label_dim,
        )
        examples, feature_dim, label_dim = load_xc_file(path)
        assert feature_dim == tiny_dataset.config.feature_dim
        assert label_dim == tiny_dataset.config.label_dim
        assert len(examples) == 16
        for original, loaded in zip(tiny_dataset.train, examples):
            np.testing.assert_array_equal(
                original.features.indices, loaded.features.indices
            )
            np.testing.assert_array_equal(
                original.features.values, loaded.features.values
            )
            np.testing.assert_array_equal(original.labels, loaded.labels)

    def test_parse_line_feature_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_xc_line("1 99:1.0", feature_dim=10)

    def test_parse_empty_line_raises(self):
        with pytest.raises(ValueError):
            parse_xc_line("   ", feature_dim=4)

    def test_load_file_roundtrip(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text(
            "3 8 5\n"
            "0,2 1:0.5 3:1.0\n"
            "4 0:2.0\n"
            "1 5:0.25 7:0.75\n"
        )
        examples, feature_dim, label_dim = load_xc_file(path)
        assert feature_dim == 8 and label_dim == 5
        assert len(examples) == 3
        np.testing.assert_array_equal(examples[0].labels, [0, 2])

    def test_load_file_max_examples(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("3 4 3\n0 0:1\n1 1:1\n2 2:1\n")
        examples, _, _ = load_xc_file(path, max_examples=2)
        assert len(examples) == 2

    def test_load_file_header_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 4 3\n0 0:1\n")
        with pytest.raises(ValueError, match="promised"):
            load_xc_file(path)

    def test_load_file_label_out_of_range_raises(self, tmp_path):
        path = tmp_path / "bad_label.txt"
        path.write_text("1 4 2\n7 0:1\n")
        with pytest.raises(ValueError, match="label index"):
            load_xc_file(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_xc_file(tmp_path / "nope.txt")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("-1 0:1.0", "label -1"),
            ("2,-3 0:1.0", "label -3"),
            ("99999999999999999999 0:1.0", "not a non-negative int64"),
            ("1 1:nan", "feature 1 has value nan"),
            ("1 3:inf", "feature 3 has value inf"),
            ("1 4:-inf", "feature 4 has value -inf"),
            ("1 4:1e400", "feature 4 has value inf"),
            ("1 2:3.5e38", "not a finite float32"),
            ("1 2:3e38 2:3e38", "not a finite float32"),
        ],
    )
    def test_load_file_rejects_negative_labels_and_non_finite_values(
        self, tmp_path, line, message
    ):
        """``-1`` would index the last label and NaN / inf / past-float32
        values would train the model on garbage: the line is refused by
        name (the ingest shares the parser; see the boundary sweep in
        ``test_data_pipeline.py``)."""
        path = tmp_path / "bad.txt"
        path.write_text(f"2 8 5\n0 0:1.0\n{line}\n")
        with pytest.raises(ValueError, match="line 3") as excinfo:
            load_xc_file(path)
        assert message in str(excinfo.value)

    def test_largest_float32_value_loads(self, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text(f"1 8 5\n0 2:{float(np.finfo(np.float32).max)!r}\n")
        (example,), _, _ = load_xc_file(path)
        assert np.isfinite(example.features.values).all()

    @pytest.mark.parametrize(
        "header", ["1 2", "1 x 3", "1 4 0", "1 4 99999999999999999999999 9"]
    )
    def test_header_errors_name_line_one(self, tmp_path, header):
        path = tmp_path / "header.txt"
        path.write_text(f"{header}\n0 0:1\n")
        with pytest.raises(ValueError, match="^line 1: "):
            load_xc_file(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "header.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="header"):
            load_xc_file(path)


class TestStatistics:
    def test_paper_stats_table(self):
        delicious = PAPER_DATASET_STATS["Delicious-200K"]
        assert delicious.feature_dim == 782_585
        assert delicious.label_dim == 205_443
        row = delicious.as_row()
        assert row["feature_sparsity_%"] == pytest.approx(0.038, abs=1e-3)

    def test_compute_statistics(self, tiny_dataset):
        stats = compute_statistics(
            "tiny",
            tiny_dataset.train,
            tiny_dataset.test,
            feature_dim=tiny_dataset.config.feature_dim,
            label_dim=tiny_dataset.config.label_dim,
        )
        assert stats.training_size == len(tiny_dataset.train)
        assert stats.testing_size == len(tiny_dataset.test)
        assert 0 < stats.feature_sparsity < 1

    def test_compute_statistics_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            compute_statistics("bad", [], [], feature_dim=0, label_dim=4)
