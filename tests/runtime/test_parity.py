"""Serial/parallel/cached parity: the core correctness guarantee.

``build_dataset`` must produce byte-identical dataset JSON (and identical
seed reports and per-iteration snowball statistics) for every engine
configuration: serial, parallel with any worker count / chunking, cache
enabled or disabled.
"""

from __future__ import annotations

import json

import pytest

from repro.api import build_dataset
from repro.cli import main
from repro.runtime import (
    ExecutionEngine,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.simulation import SimulationParams, build_world


def _engine_matrix() -> dict[str, ExecutionEngine]:
    return {
        "serial-cached": ExecutionEngine(SerialExecutor()),
        "serial-nocache": ExecutionEngine(SerialExecutor(), cache_enabled=False),
        "parallel-2": ExecutionEngine(ParallelExecutor(workers=2)),
        "parallel-3-chunked": ExecutionEngine(ParallelExecutor(workers=3, chunk_size=4)),
        "parallel-2-nocache": ExecutionEngine(
            ParallelExecutor(workers=2), cache_enabled=False
        ),
    }


def _fingerprint(world) -> dict[str, tuple]:
    """Run every engine configuration and reduce each run to comparables."""
    out = {}
    for name, engine in _engine_matrix().items():
        build = build_dataset(world, engine=engine)
        dataset, seed_report = build.dataset, build.seed_report
        expansion = build.expansion_report
        out[name] = (
            dataset.to_json(),
            build.seed_summary,
            seed_report.candidates,
            tuple(seed_report.rejected_not_contract),
            tuple(seed_report.rejected_not_profit_sharing),
            tuple(seed_report.accepted_contracts),
            tuple(
                (s.iteration, s.accounts_scanned, s.candidates_seen,
                 s.candidates_rejected, s.new_contracts, s.new_operators,
                 s.new_affiliates, s.new_transactions)
                for s in expansion.iterations
            ),
        )
    return out


def _assert_all_equal(fingerprints: dict[str, tuple]) -> None:
    reference = fingerprints["serial-cached"]
    for name, fp in fingerprints.items():
        assert fp == reference, f"{name} diverged from serial-cached"


class TestDatasetParity:
    def test_parity_on_shared_world(self, world):
        """All five configurations agree byte-for-byte at scale 0.02."""
        _assert_all_equal(_fingerprint(world))

    def test_parity_on_tiny_world_different_seed(self):
        world = build_world(SimulationParams(scale=0.01, seed=77))
        _assert_all_equal(_fingerprint(world))

    @pytest.mark.slow
    def test_parity_on_larger_world(self):
        world = build_world(SimulationParams(scale=0.04, seed=9))
        serial = build_dataset(world, engine=ExecutionEngine(SerialExecutor())).dataset
        parallel = build_dataset(
            world, engine=ExecutionEngine(ParallelExecutor(workers=4, chunk_size=2))
        ).dataset
        assert parallel.to_json() == serial.to_json()


def _square(x: int) -> int:
    return x * x


class TestExecutors:
    def test_serial_map_merged_preserves_order(self):
        assert SerialExecutor().map_merged(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_merged_is_input_ordered(self):
        import time

        items = list(range(24))

        def jittered(x: int) -> int:
            # Later items finish first, forcing out-of-order completion.
            time.sleep((len(items) - x) * 0.001)
            return x * x

        merged = ParallelExecutor(workers=8).map_merged(jittered, items)
        assert merged == [x * x for x in items]

    def test_parallel_chunked(self):
        result = ParallelExecutor(workers=3, chunk_size=5).map_merged(
            _square, range(17)
        )
        assert result == [x * x for x in range(17)]

    def test_parallel_empty_batch(self):
        assert ParallelExecutor(workers=2).map_merged(_square, []) == []

    def test_worker_exception_propagates(self):
        def boom(x):
            raise RuntimeError("worker failed")

        with pytest.raises(RuntimeError, match="worker failed"):
            ParallelExecutor(workers=2).map_merged(boom, [1, 2])

    def test_make_executor_selection(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(None), SerialExecutor)
        parallel = make_executor(4, chunk_size=2)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 4
        assert parallel.chunk_size == 2

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunk_size=0)


class TestCliSmoke:
    def test_build_dataset_parallel_end_to_end(self, tmp_path, capsys):
        """`build-dataset --workers 2 --stats` runs the parallel path in
        every test tier and matches a serial in-process build."""
        out = tmp_path / "dataset.json"
        rc = main([
            "build-dataset", "--scale", "0.01", "--seed", "7",
            "--workers", "2", "--stats", "--out", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "runtime stats (workers=2, cache=on)" in printed
        assert f"dataset written to {out}" in printed

        payload = json.loads(out.read_text())
        assert payload["contracts"]

        world = build_world(SimulationParams(scale=0.01, seed=7))
        serial = build_dataset(world).dataset
        assert out.read_text() == serial.to_json()
