"""Cross-plane agreement: the batch build against a drained stream.

Both planes run the one snowball expander and build their dataset
through its ``derive_dataset``, so ``build_dataset`` and a fully
drained :class:`StreamPipeline` on the same world produce the same
dataset bytes.  Their served indexes differ in exactly one thing: the
stream passes no ``victim_report``, so it serves no per-address victim
counts and zero family victim counts (an open item in ROADMAP.md).
"""

from __future__ import annotations

import json

import pytest

from repro.stream import StreamPipeline


@pytest.fixture(scope="module")
def drained(world, stream_ctx):
    analyzer, seeds = stream_ctx
    stream = StreamPipeline(world, analyzer, seeds, delta_batch=256)
    while stream.tick() is not None:
        pass
    return stream


def test_batch_dataset_equals_drained_stream(pipeline, drained):
    assert drained.expander.derive_dataset().to_json() == pipeline.dataset.to_json()


def test_indexes_differ_only_in_victim_counts(pipeline, drained):
    batch = json.loads(pipeline.build_intel_index().to_bytes())
    stream = json.loads(drained.build_index_at().to_bytes())
    assert any(a["victim_count"] for a in batch["addresses"].values())
    assert any(f["victim_count"] for f in batch["families"].values())
    for doc in batch["addresses"].values():
        doc["victim_count"] = None
    for doc in batch["families"].values():
        doc["victim_count"] = 0
    del batch["version"], stream["version"]
    assert batch == stream
