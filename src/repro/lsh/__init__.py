"""LSH tables: fixed-size buckets, insertion policies, and the multi-table
index that SLIDE layers probe for active neurons.

:class:`LSHIndex` holds a layer's ``L`` tables in one slot matrix behind one
(table, fingerprint) directory, so every probe — per sample, batched or
serving — is one ``searchsorted`` and one gather
(:meth:`LSHIndex.query_batch_flat`)."""

from repro.lsh.bucket import Bucket, FlatBuckets
from repro.lsh.policies import FIFOPolicy, ReservoirPolicy, make_insertion_policy
from repro.lsh.index import BatchQueryResult, LSHIndex
from repro.lsh.scheduler import ExponentialDecaySchedule

__all__ = [
    "Bucket",
    "FlatBuckets",
    "BatchQueryResult",
    "FIFOPolicy",
    "ReservoirPolicy",
    "make_insertion_policy",
    "LSHIndex",
    "ExponentialDecaySchedule",
]
