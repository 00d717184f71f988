"""Tests for the streaming data pipeline (repro.data).

Covers the ingest → shard cache → ``ShardedDataset`` round trip against the
eager loader, edge-case lines, checksum verification, prefetcher semantics
(determinism, exception relay, early close) and the bit-for-bit training
parity between the eager and streamed paths.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    LayerConfig,
    LSHConfig,
    OptimizerConfig,
    SamplingConfig,
    SlideNetworkConfig,
    TrainingConfig,
)
from repro.core.network import SlideNetwork
from repro.core.trainer import SlideTrainer
from repro.data import (
    ARRAY_NAMES,
    BatchPrefetcher,
    ShardManifest,
    ShardedDataset,
    gather_csr_rows,
    ingest_examples,
    ingest_xc_file,
)
from repro.datasets.loaders import load_xc_file, write_xc_file
from repro.datasets.synthetic import SyntheticXCConfig, generate_synthetic_xc


def _assert_examples_equal(a, b):
    np.testing.assert_array_equal(a.features.indices, b.features.indices)
    np.testing.assert_array_equal(a.features.values, b.features.values)
    np.testing.assert_array_equal(a.labels, b.labels)


@pytest.fixture(scope="module")
def pipeline_setup(tmp_path_factory):
    """A synthetic dataset written as an XC file and ingested into shards."""
    root = tmp_path_factory.mktemp("pipeline")
    config = SyntheticXCConfig(
        feature_dim=256,
        label_dim=48,
        num_train=210,
        num_test=32,
        avg_features_per_example=16,
        seed=13,
    )
    dataset = generate_synthetic_xc(config)
    xc_path = write_xc_file(
        root / "train.txt", dataset.train, config.feature_dim, config.label_dim
    )
    cache_dir = root / "shards"
    manifest = ingest_xc_file(xc_path, cache_dir, shard_size=64)
    eager, feature_dim, label_dim = load_xc_file(xc_path)
    return {
        "config": config,
        "xc_path": xc_path,
        "cache_dir": cache_dir,
        "manifest": manifest,
        "eager": eager,
        "feature_dim": feature_dim,
        "label_dim": label_dim,
    }


class TestIngest:
    def test_manifest_shape(self, pipeline_setup):
        manifest = pipeline_setup["manifest"]
        assert manifest.num_examples == 210
        assert manifest.num_shards == 4  # 64 + 64 + 64 + 18
        assert manifest.shards[-1].num_examples == 18
        assert manifest.feature_dim == 256
        assert manifest.label_dim == 48
        assert manifest.total_feature_nnz == sum(
            ex.features.nnz for ex in pipeline_setup["eager"]
        )

    def test_manifest_roundtrips_through_json(self, pipeline_setup):
        manifest = pipeline_setup["manifest"]
        assert ShardManifest.load(pipeline_setup["cache_dir"]) == manifest

    def test_shard_files_exist_and_checksummed(self, pipeline_setup):
        manifest = pipeline_setup["manifest"]
        for shard in manifest.shards:
            assert set(shard.checksums) == set(ARRAY_NAMES)
            for array in ARRAY_NAMES:
                assert (pipeline_setup["cache_dir"] / shard.filename(array)).exists()

    def test_header_count_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 4 3\n0 0:1\n")
        with pytest.raises(ValueError, match="promised"):
            ingest_xc_file(path, tmp_path / "cache")

    def test_label_out_of_range_raises(self, tmp_path):
        path = tmp_path / "bad_label.txt"
        path.write_text("1 4 2\n7 0:1\n")
        with pytest.raises(ValueError, match="label index"):
            ingest_xc_file(path, tmp_path / "cache")

    def test_max_examples_truncates(self, pipeline_setup, tmp_path):
        manifest = ingest_xc_file(
            pipeline_setup["xc_path"], tmp_path / "cache", shard_size=16, max_examples=40
        )
        assert manifest.num_examples == 40

    def test_edge_case_lines(self, tmp_path):
        """Blank lines, empty labels, duplicate features and labels-only
        lines all survive the ingest exactly as the eager parser sees them."""
        path = tmp_path / "edge.txt"
        path.write_text(
            "4 8 5\n"
            "0,2 1:0.5 3:1.0\n"
            "\n"
            "3:2.0 3:0.5 0:1.0\n"  # no labels + duplicate feature
            "4\n"  # labels only, no features
            "1 7:0.25\n"
            "\n"
        )
        eager, feature_dim, _ = load_xc_file(path)
        manifest = ingest_xc_file(path, tmp_path / "cache", shard_size=2)
        dataset = ShardedDataset(tmp_path / "cache")
        assert manifest.num_examples == len(eager) == 4
        for a, b in zip(eager, dataset):
            _assert_examples_equal(a, b)
        # The duplicate 3:2.0 3:0.5 tokens coalesced into one entry.
        np.testing.assert_array_equal(dataset[1].features.indices, [0, 3])
        np.testing.assert_allclose(dataset[1].features.values, [1.0, 2.5])
        assert dataset[2].features.nnz == 0
        np.testing.assert_array_equal(dataset[2].labels, [4])


# Replacement tokens for the boundary sweep: signs, non-finite and
# past-float32 spellings, ints past int64, empty and non-numeric tokens and
# spellings Python's ``int`` / ``float`` accept beyond plain digits.
SWEEP_TOKENS = (
    "-1", "-0", "+2", "nan", "NaN", "inf", "-inf", "Infinity", "1e400",
    "-1e400", "3.5e38", "1e38", "99999999999999999999", "-99999999999999999999",
    "", "x", "1.5", "0x10", "1_0", "7",
)
SWEEP_SEPARATORS = (" ", "  ", "\t", ",", ":", ";", "", "\n")
SWEEP_KINDS = (
    "token", "separator", "sign", "value", "label", "truncate", "header", "line"
)


def _sweep_mutation(text: str, seed: int) -> tuple[str, str]:
    """One seeded mutation of an XC file; returns ``(text, replacement)``."""
    rng = random.Random(seed)
    kind = SWEEP_KINDS[seed % len(SWEEP_KINDS)]
    header, body = text.split("\n", 1)
    if kind == "truncate":
        return text[: rng.randrange(len(text))], ""
    if kind == "line":
        lines = body.splitlines(keepends=True)
        at = rng.randrange(len(lines))
        if rng.random() < 0.5:
            del lines[at]
        else:
            lines.insert(at, lines[at])
        return header + "\n" + "".join(lines), ""
    if kind == "header":
        tokens = header.split(" ")
        at = rng.randrange(len(tokens) + 1)
        replacement = rng.choice(SWEEP_TOKENS)
        if at == len(tokens):
            tokens.append(replacement)
        else:
            tokens[at] = replacement
        return " ".join(tokens) + "\n" + body, replacement
    if kind == "separator":
        spots = [m.start() for m in re.finditer(r"[ ,:\n]", body)]
        at = rng.choice(spots)
        return header + "\n" + body[:at] + rng.choice(SWEEP_SEPARATORS) + body[at + 1 :], ""
    pattern = {
        "token": r"[^\s,:]+",
        "sign": r"[^\s,:]+",
        "value": r"(?<=:)[^\s]+",
        "label": r"(?m)(?:^|(?<=,))\d+(?=[ ,\n])",
    }[kind]
    spans = [m.span() for m in re.finditer(pattern, body)]
    lo, hi = rng.choice(spans)
    if kind == "sign":
        replacement = "-" + body[lo:hi]
    elif kind == "value":
        replacement = rng.choice(("nan", "inf", "-inf", "1e400", "3.5e38", "-0", "1e38"))
    elif kind == "label":
        replacement = rng.choice(("-1", "-5", "99999999999999999999", "+3", "0"))
    else:
        replacement = rng.choice(SWEEP_TOKENS)
    return header + "\n" + body[:lo] + replacement + body[hi:], replacement


def _read_both(path: Path, cache: Path) -> tuple[tuple, tuple]:
    """What ``load_xc_file`` and ``ingest_xc_file`` make of ``path``: each
    either ``("rows", examples)`` or ``("error", message)``."""

    def eager():
        return load_xc_file(path)[0]

    def sharded():
        ingest_xc_file(path, cache, shard_size=4)
        return list(ShardedDataset(cache))

    outcomes = []
    for read in (eager, sharded):
        try:
            outcomes.append(("rows", read()))
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
    return outcomes[0], outcomes[1]


class TestXCBoundarySweep:
    """200 seeded mutations of a valid XC file — tokens, separators, signs,
    NaN / inf / past-float32 values, ints past int64, truncation and the
    header.  Each file either loads, holding only labels in range and finite
    float32 values, or raises ``ValueError`` naming a line; and the eager
    loader and the shard ingest give the same answer, row for row or
    message for message."""

    MUTATIONS = 200

    def test_every_mutation_loads_clean_or_names_a_line(self, tmp_path):
        dataset = generate_synthetic_xc(
            SyntheticXCConfig(
                feature_dim=32,
                label_dim=12,
                num_train=6,
                num_test=1,
                avg_features_per_example=4,
                prototype_nnz=3,
                seed=5,
            )
        )
        source = write_xc_file(tmp_path / "valid.txt", dataset.train, 32, 12)
        valid = source.read_text()
        errors = 0
        replacements = []
        for seed in range(self.MUTATIONS):
            text, replacement = _sweep_mutation(valid, seed)
            replacements.append(replacement)
            path = tmp_path / f"mutation-{seed}.txt"
            path.write_text(text)
            eager, sharded = _read_both(path, tmp_path / f"cache-{seed}")
            context = f"mutation {seed}: {text!r}"
            assert eager[0] == sharded[0], f"{context}: {eager} vs {sharded}"
            if eager[0] == "error":
                errors += 1
                assert re.search(r"\bline \d+\b", eager[1]), f"{context}: {eager[1]}"
                assert eager[1] == sharded[1], context
                continue
            label_dim = int(text.split("\n", 1)[0].split()[2])
            assert len(eager[1]) == len(sharded[1]), context
            for a, b in zip(eager[1], sharded[1]):
                _assert_examples_equal(a, b)
                assert a.labels.size == 0 or 0 <= a.labels.min() <= a.labels.max() < label_dim, context
                assert np.isfinite(a.features.values).all(), context
        # The sweep reached the cases it exists for, and most mutations break
        # the file.
        for needle in ("-1", "nan", "inf", "1e400", "99999999999999999999"):
            assert needle in replacements, needle
        assert errors > self.MUTATIONS // 2


class TestShardedDataset:
    def test_round_trip_matches_eager_loader(self, pipeline_setup):
        dataset = ShardedDataset(pipeline_setup["cache_dir"], verify_checksums=True)
        eager = pipeline_setup["eager"]
        assert len(dataset) == len(eager)
        for i in range(len(eager)):
            _assert_examples_equal(eager[i], dataset[i])

    def test_negative_and_slice_access(self, pipeline_setup):
        dataset = ShardedDataset(pipeline_setup["cache_dir"])
        eager = pipeline_setup["eager"]
        _assert_examples_equal(eager[-1], dataset[-1])
        window = dataset[10:13]
        assert len(window) == 3
        _assert_examples_equal(eager[11], window[1])
        with pytest.raises(IndexError):
            dataset[len(dataset)]

    def test_gather_preserves_order(self, pipeline_setup):
        dataset = ShardedDataset(pipeline_setup["cache_dir"])
        eager = pipeline_setup["eager"]
        order = [130, 2, 64, 7]
        for want, got in zip(order, dataset.gather(order)):
            _assert_examples_equal(eager[want], got)

    def test_streaming_epoch_covers_every_example_once(self, pipeline_setup):
        dataset = ShardedDataset(pipeline_setup["cache_dir"], seed=5)
        seen = []
        for batch in dataset.iter_batches(batch_size=32, epoch=0):
            seen.extend(float(ex.features.values.sum()) for ex in batch)
        eager_sums = sorted(
            float(ex.features.values.sum()) for ex in pipeline_setup["eager"]
        )
        assert sorted(seen) == eager_sums

    def test_streaming_is_deterministic_per_epoch_and_differs_across(
        self, pipeline_setup
    ):
        dataset = ShardedDataset(pipeline_setup["cache_dir"], seed=5)

        def signature(epoch):
            return [
                tuple(int(label) for ex in batch for label in ex.labels)
                for batch in dataset.iter_batches(batch_size=32, epoch=epoch)
            ]

        assert signature(0) == signature(0)
        assert signature(0) != signature(1)

    def test_streaming_releases_shards(self, pipeline_setup):
        dataset = ShardedDataset(pipeline_setup["cache_dir"])
        max_open = 0
        for _batch in dataset.iter_batches(batch_size=50, epoch=0):
            max_open = max(max_open, dataset.open_shard_count())
        assert max_open <= 2
        assert dataset.open_shard_count() == 0

    def test_batches_carry_a_features_csr_cache(self, pipeline_setup):
        dataset = ShardedDataset(pipeline_setup["cache_dir"])
        batch = next(dataset.iter_batches(batch_size=16, epoch=0))
        assert batch.features_csr is not None
        indptr, indices, values = batch.features_csr
        assert indptr[0] == 0 and int(indptr[-1]) == indices.shape[0] == values.shape[0]
        dense = batch.to_dense_features()
        for row, example in enumerate(batch):
            np.testing.assert_array_equal(
                dense[row, example.features.indices], example.features.values
            )

    def test_checksum_corruption_is_detected(self, pipeline_setup, tmp_path):
        cache = tmp_path / "cache"
        ingest_xc_file(pipeline_setup["xc_path"], cache, shard_size=64)
        victim = next(cache.glob("shard-00001.feat_values.npy"))
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum mismatch"):
            ShardedDataset(cache, verify_checksums=True)
        # Lazy loading without verification still works for intact shards.
        dataset = ShardedDataset(cache)
        _assert_examples_equal(pipeline_setup["eager"][0], dataset[0])

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            ShardedDataset(tmp_path)

    def test_future_format_version_rejected(self, pipeline_setup, tmp_path):
        import json

        cache = tmp_path / "cache"
        ingest_xc_file(pipeline_setup["xc_path"], cache, shard_size=128)
        manifest_path = cache / "manifest.json"
        data = json.loads(manifest_path.read_text())
        data["format_version"] = 999
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="format version"):
            ShardedDataset(cache)

    @given(
        num_examples=st.integers(1, 40),
        shard_size=st.integers(1, 16),
        batch_size=st.integers(1, 17),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_round_trip_and_epoch_cover(
        self, tmp_path_factory, num_examples, shard_size, batch_size, seed
    ):
        """Any (dataset size, shard size, batch size) combination round-trips
        exactly and streams every example exactly once per epoch."""
        root = tmp_path_factory.mktemp("prop")
        config = SyntheticXCConfig(
            feature_dim=64,
            label_dim=12,
            num_train=num_examples,
            num_test=1,
            avg_features_per_example=6,
            prototype_nnz=4,
            seed=seed,
        )
        examples = generate_synthetic_xc(config).train
        ingest_examples(examples, 64, 12, root, shard_size=shard_size)
        dataset = ShardedDataset(root, seed=seed)
        for a, b in zip(examples, dataset):
            _assert_examples_equal(a, b)
        streamed = sum(
            len(batch) for batch in dataset.iter_batches(batch_size, epoch=0)
        )
        assert streamed == num_examples

    def test_gather_csr_rows_matches_python_gather(self, rng):
        counts = rng.integers(0, 5, size=12)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        data = rng.normal(size=int(indptr[-1]))
        order = rng.permutation(12)
        out_indptr, (gathered,) = gather_csr_rows(indptr, order, data)
        expected = np.concatenate(
            [data[indptr[r] : indptr[r + 1]] for r in order]
        ) if int(indptr[-1]) else np.zeros(0)
        np.testing.assert_array_equal(np.diff(out_indptr), counts[order])
        np.testing.assert_array_equal(gathered, expected)


class TestShardManifestCodec:
    """``manifest.json`` goes through the strict config codec."""

    PARENT = Path(__file__).parent / "data" / "parent_shard_manifest.json"

    @staticmethod
    def _write(cache, data):
        cache.mkdir(exist_ok=True)
        (cache / "manifest.json").write_text(json.dumps(data))
        return cache

    def test_parent_written_manifest_loads_unchanged(self, tmp_path):
        """The fixture was written by the hand-written codec the config codec
        replaced, from these exact examples."""
        dataset = generate_synthetic_xc(
            SyntheticXCConfig(
                feature_dim=64,
                label_dim=16,
                num_train=10,
                num_test=2,
                avg_features_per_example=6,
                prototype_nnz=8,
                seed=5,
            )
        )
        written = ingest_examples(dataset.train, 64, 16, tmp_path / "c", shard_size=4)
        cache = self._write(tmp_path / "parent", json.loads(self.PARENT.read_text()))
        loaded = ShardManifest.load(cache)
        assert loaded == written
        assert (loaded.feature_dim, loaded.label_dim, loaded.num_examples) == (64, 16, 10)
        assert [s.name for s in loaded.shards] == [
            "shard-00000",
            "shard-00001",
            "shard-00002",
        ]
        assert [s.num_examples for s in loaded.shards] == [4, 4, 2]
        assert loaded.shards[0].checksums["feat_indptr"] == 2302079610
        # Saving writes the same JSON object back.
        (tmp_path / "again").mkdir()
        loaded.save(tmp_path / "again")
        assert json.loads((tmp_path / "again" / "manifest.json").read_text()) == (
            json.loads(self.PARENT.read_text())
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(feature_dim=5.9), "'feature_dim'"),
            (lambda d: d.update(label_dim=True), "'label_dim'"),
            (lambda d: d.update(zz_unknown=1), "'zz_unknown'"),
            (lambda d: d.pop("shards"), "'shards'"),
            (lambda d: d["shards"][0].update(num_examples="4"), r"'shards\[0\]\.num_examples'"),
            (lambda d: d["shards"][1]["checksums"].update(feat_values=1.5), "feat_values"),
            (lambda d: d.update(shard_size=0), "shard_size must be positive"),
        ],
        ids=[
            "float_dim",
            "bool_dim",
            "unknown_key",
            "missing_shards",
            "string_count",
            "float_checksum",
            "post_init",
        ],
    )
    def test_malformed_manifest_is_a_value_error_naming_the_field(
        self, tmp_path, edit, message
    ):
        data = json.loads(self.PARENT.read_text())
        edit(data)
        cache = self._write(tmp_path / "cache", data)
        with pytest.raises(ValueError, match=message) as excinfo:
            ShardManifest.load(cache)
        assert str(cache) in str(excinfo.value)

    def test_non_object_manifest_is_a_value_error(self, tmp_path):
        cache = self._write(tmp_path / "cache", [json.loads(self.PARENT.read_text())])
        with pytest.raises(ValueError, match="JSON object"):
            ShardManifest.load(cache)


class TestBatchPrefetcher:
    def test_preserves_order_and_counts(self):
        items = list(range(57))
        with BatchPrefetcher(iter(items), depth=3) as prefetcher:
            assert list(prefetcher) == items
            assert prefetcher.produced == prefetcher.consumed == len(items)

    def test_deterministic_over_sharded_stream(self, pipeline_setup):
        dataset = ShardedDataset(pipeline_setup["cache_dir"], seed=2)

        def signature(batches):
            return [
                tuple(int(label) for ex in batch for label in ex.labels)
                for batch in batches
            ]

        plain = signature(dataset.iter_batches(batch_size=16, epoch=3))
        with BatchPrefetcher(dataset.iter_batches(batch_size=16, epoch=3)) as queue:
            prefetched = signature(queue)
        assert plain == prefetched

    def test_relays_producer_exceptions(self):
        def broken():
            yield 1
            raise RuntimeError("boom in the producer")

        prefetcher = BatchPrefetcher(broken(), depth=2)
        assert next(prefetcher) == 1
        with pytest.raises(RuntimeError, match="boom in the producer"):
            next(prefetcher)
        # The stream is finished after the error.
        with pytest.raises(StopIteration):
            next(prefetcher)

    def test_close_stops_a_blocked_producer(self):
        def endless():
            i = 0
            while True:
                yield i
                i += 1

        prefetcher = BatchPrefetcher(endless(), depth=2)
        assert next(prefetcher) == 0
        prefetcher.close()
        assert not prefetcher._thread.is_alive()
        with pytest.raises(StopIteration):
            next(prefetcher)

    def test_invalid_depth_raises(self):
        with pytest.raises(ValueError):
            BatchPrefetcher(iter([]), depth=0)

    def test_close_unblocks_a_waiting_consumer(self):
        """Regression: close() racing a consumer parked on an empty queue.

        The producer below never yields, so the consumer blocks inside
        ``__next__``.  ``close()`` stops the producer without a sentinel and
        drains the queue — with the old un-timed ``queue.get()`` the
        consumer slept forever; the stop-aware timed get must surface
        ``StopIteration`` promptly instead.
        """
        import threading
        import time

        release = threading.Event()

        def stalled():
            release.wait(5.0)
            yield 0  # pragma: no cover - close() wins the race

        prefetcher = BatchPrefetcher(stalled(), depth=2)
        outcome: list[object] = []

        def consume():
            try:
                outcome.append(next(prefetcher))
            except StopIteration:
                outcome.append("stopped")

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.05)  # let the consumer reach the blocking get
        prefetcher.close()
        consumer.join(timeout=2.0)
        release.set()
        assert not consumer.is_alive(), "consumer stayed blocked after close()"
        assert outcome == ["stopped"]

    def test_abandoned_iterations_leak_no_threads_or_shards(self, pipeline_setup):
        """Regression: a consumer abandoning the stream mid-epoch must not
        leave prefetcher threads alive or shard mmaps resident.

        Before the fix, ``BatchPrefetcher.close()`` stopped the producer
        thread but never closed the *source* generator, so the resident
        shard's mmap lingered until garbage collection — 100 abandoned
        epochs accumulated 100 open shards under refcounting pessimism.
        """
        import threading

        dataset = ShardedDataset(pipeline_setup["cache_dir"], seed=4)
        baseline_threads = threading.active_count()
        for round_index in range(100):
            batches = dataset.iter_batches(
                batch_size=16, epoch=round_index, release=True
            )
            if round_index % 2 == 0:
                # Raw generator, abandoned after one batch.
                next(batches)
                batches.close()
            else:
                # Through the prefetcher, abandoned after one batch.
                prefetcher = BatchPrefetcher(batches, depth=2)
                next(prefetcher)
                prefetcher.close()
                assert not prefetcher._thread.is_alive()
            assert dataset.open_shard_count() == 0, (
                f"round {round_index}: abandoned iteration left a shard open"
            )
        assert threading.active_count() == baseline_threads


class TestTrainingParity:
    def _network(self, feature_dim, label_dim):
        layers = (
            LayerConfig(size=16, activation="relu", lsh=None),
            LayerConfig(
                size=label_dim,
                activation="softmax",
                lsh=LSHConfig(hash_family="simhash", k=3, l=8, bucket_size=16),
                sampling=SamplingConfig(target_active=10, min_active=4),
            ),
        )
        return SlideNetwork(
            SlideNetworkConfig(input_dim=feature_dim, layers=layers, seed=21)
        )

    def _losses(self, source, feature_dim, label_dim, hogwild, prefetch_depth):
        training = TrainingConfig(
            batch_size=16,
            epochs=2,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=17,
        )
        trainer = SlideTrainer(
            self._network(feature_dim, label_dim),
            training,
            hogwild=hogwild,
            prefetch_depth=prefetch_depth,
        )
        return trainer.train(source).losses()

    @pytest.mark.parametrize("hogwild", [False, True])
    def test_shard_cache_training_matches_eager_bit_for_bit(
        self, pipeline_setup, hogwild
    ):
        feature_dim = pipeline_setup["feature_dim"]
        label_dim = pipeline_setup["label_dim"]
        eager_losses = self._losses(
            pipeline_setup["eager"], feature_dim, label_dim, hogwild, 0
        )
        sharded_losses = self._losses(
            ShardedDataset(pipeline_setup["cache_dir"]),
            feature_dim,
            label_dim,
            hogwild,
            0,
        )
        prefetched_losses = self._losses(
            ShardedDataset(pipeline_setup["cache_dir"]),
            feature_dim,
            label_dim,
            hogwild,
            3,
        )
        np.testing.assert_array_equal(eager_losses, sharded_losses)
        np.testing.assert_array_equal(eager_losses, prefetched_losses)

    def test_train_batches_consumes_a_prefetched_stream(self, pipeline_setup):
        feature_dim = pipeline_setup["feature_dim"]
        label_dim = pipeline_setup["label_dim"]
        dataset = ShardedDataset(pipeline_setup["cache_dir"], seed=3)
        training = TrainingConfig(
            batch_size=32,
            epochs=1,
            optimizer=OptimizerConfig(name="adam", learning_rate=1e-3),
            seed=17,
        )
        trainer = SlideTrainer(
            self._network(feature_dim, label_dim), training, hogwild=False
        )
        with BatchPrefetcher(dataset.iter_batches(32, epoch=0)) as batches:
            history = trainer.train_batches(batches)
        assert sum(r.batch_size for r in history.records) == len(dataset)
        assert all(np.isfinite(r.loss) for r in history.records)
