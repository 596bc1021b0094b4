"""Process-sharded construction parity: the determinism test matrix.

The sharded path must extend the repo's core invariant verbatim: any
(shards, processes, cache) configuration — including shard counts that
do not divide the address space evenly — produces dataset JSON (and
seed reports and per-iteration snowball statistics) byte-identical to
the serial walk.

Tier-1 keeps a cheap smoke (inline 2-shard run on the shared session
world plus one 2-process fork build); the full matrix forks real worker
pools and therefore runs in the bench/slow lane via
``pytest --run-multiproc`` (see ``tests/conftest.py``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import build_dataset
from repro.cli import main
from repro.runtime import (
    ExecutionEngine,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    ShardingRuntime,
    sharding,
)
from repro.simulation import SimulationParams, build_world

SCALE, SEED = 0.01, 7

SHARD_COUNTS = (1, 2, 3, 7)
PROCESS_COUNTS = (1, 2, 4)
CACHE_MODES = (True, False)


def _fingerprint(world, engine: ExecutionEngine) -> tuple:
    """One build reduced to everything parity promises is identical."""
    build = build_dataset(world, engine=engine)
    seed_report = build.seed_report
    return (
        build.dataset.to_json(),
        build.seed_summary,
        seed_report.candidates,
        tuple(seed_report.rejected_not_contract),
        tuple(seed_report.rejected_not_profit_sharing),
        tuple(seed_report.accepted_contracts),
        tuple(
            (s.iteration, s.accounts_scanned, s.candidates_seen,
             s.candidates_rejected, s.new_contracts, s.new_operators,
             s.new_affiliates, s.new_transactions)
            for s in build.expansion_report.iterations
        ),
    )


@pytest.fixture(scope="module")
def small_world():
    return build_world(SimulationParams(scale=SCALE, seed=SEED))


@pytest.fixture(scope="module")
def serial_fingerprint(small_world):
    return _fingerprint(small_world, ExecutionEngine())


def _sharded_engine(shards: int, processes: int, cache: bool) -> ExecutionEngine:
    return ExecutionEngine(
        cache_enabled=cache,
        sharding=ShardingRuntime(shards=shards, processes=processes),
    )


class TestTierOneSmoke:
    """Cheap sharding coverage that runs in every test tier."""

    def test_inline_two_shards_match_serial_on_session_world(self, world):
        serial = build_dataset(world, engine=ExecutionEngine()).dataset.to_json()
        sharded = build_dataset(
            world, engine=_sharded_engine(2, 1, True)
        ).dataset.to_json()
        assert sharded == serial

    def test_two_process_fork_build_matches_serial(
        self, small_world, serial_fingerprint
    ):
        assert _fingerprint(small_world, _sharded_engine(2, 2, True)) == (
            serial_fingerprint
        )

    def test_engine_snapshot_reports_sharding(self, small_world):
        engine = _sharded_engine(3, 1, True)
        build_dataset(small_world, engine=engine)
        info = engine.snapshot()["sharding"]
        assert info["shards"] == 3
        assert info["processes"] == 1
        assert info["tasks_run"] > 0
        assert info["worker_losses"] == 0

    def test_shard_metrics_published(self, small_world):
        engine = _sharded_engine(2, 1, True)
        build_dataset(small_world, engine=engine)
        metrics = engine.obs.metrics
        assert metrics.value("daas_shard_count") == 2.0
        assert metrics.value("daas_shard_workers") == 1.0
        assert metrics.value("daas_shard_tasks_total", kind="discover") > 0
        assert metrics.value("daas_shard_tasks_total", kind="classify") > 0
        assert metrics.value("daas_shard_items_total", kind="discover") > 0

    def test_cli_sharded_build_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        assert main([
            "build-dataset", "--scale", str(SCALE), "--seed", str(SEED),
            "--out", str(serial_out),
        ]) == 0
        sharded_out = tmp_path / "sharded.json"
        assert main([
            "build-dataset", "--scale", str(SCALE), "--seed", str(SEED),
            "--shards", "3", "--processes", "2", "--stats",
            "--out", str(sharded_out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "sharding shards=3 processes=2" in printed
        assert sharded_out.read_bytes() == serial_out.read_bytes()

    def test_shards_flag_alone_defaults_to_inline(self, tmp_path):
        """`--shards N` without `--processes` shards inline (still serial
        process-wise), and `--processes N` alone gets one shard each."""
        serial_out = tmp_path / "serial.json"
        main(["build-dataset", "--scale", str(SCALE), "--seed", str(SEED),
              "--out", str(serial_out)])
        for flags in (["--shards", "4"], ["--processes", "2"]):
            out = tmp_path / "out.json"
            assert main([
                "build-dataset", "--scale", str(SCALE), "--seed", str(SEED),
                *flags, "--out", str(out),
            ]) == 0
            assert out.read_bytes() == serial_out.read_bytes()


class TestWorkerEngine:
    def test_worker_engine_carries_fault_plan_and_retries(
        self, small_world, monkeypatch
    ):
        """Pool workers are initialised with the parent's resilience
        settings, so their reads are faulted, retried and broken too."""
        plan = FaultPlan(seed=3, rules=(FaultRule(upstream="explorer", rate=0.0),))
        policy = RetryPolicy(attempts=4, seed=3)
        engine = ExecutionEngine(
            retry_policy=policy, breaker_threshold=7, breaker_reset_s=2.5,
            fault_plan=plan, sharding=ShardingRuntime(shards=2, processes=2),
        )
        engine.sharding.bind(small_world, engine)
        monkeypatch.setattr(sharding, "_WORKER_STATE", {})
        try:
            # Exactly what the pool runs in each worker process.
            sharding._worker_init(*engine.sharding._worker_initargs())
        finally:
            engine.sharding.release()
        analyzer = sharding._WORKER_STATE["analyzer"]
        worker = analyzer.engine
        assert worker.fault_plan == plan
        assert worker.retry_policy == policy
        assert (worker.breaker_threshold, worker.breaker_reset_s) == (7, 2.5)
        assert set(worker.breakers) == {"rpc", "explorer"}
        analyzer.transactions_of(next(iter(small_world.truth.all_operators)))
        streams = worker.fault_injector.snapshot()["streams"]
        assert streams["explorer.transactions_of"] == 1


@pytest.mark.multiproc
class TestShardMatrix:
    """The full determinism matrix (bench/slow lane: --run-multiproc)."""

    @pytest.mark.parametrize("cache", CACHE_MODES, ids=["cached", "nocache"])
    @pytest.mark.parametrize("processes", PROCESS_COUNTS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matrix_byte_identical_to_serial(
        self, small_world, serial_fingerprint, shards, processes, cache
    ):
        engine = _sharded_engine(shards, processes, cache)
        assert _fingerprint(small_world, engine) == serial_fingerprint

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        shards=st.sampled_from(SHARD_COUNTS),
        processes=st.sampled_from(PROCESS_COUNTS),
        cache=st.sampled_from(CACHE_MODES),
        seed=st.sampled_from([7, 11, 99]),
    )
    def test_property_random_world_and_config(self, shards, processes, cache, seed):
        world = build_world(SimulationParams(scale=0.005, seed=seed))
        serial = build_dataset(world, engine=ExecutionEngine()).dataset.to_json()
        sharded = build_dataset(
            world, engine=_sharded_engine(shards, processes, cache)
        ).dataset.to_json()
        assert sharded == serial

    def test_spawn_start_method_matches_serial(self, small_world, serial_fingerprint):
        engine = ExecutionEngine(
            sharding=ShardingRuntime(shards=3, processes=2, start_method="spawn")
        )
        assert _fingerprint(small_world, engine) == serial_fingerprint

    def test_repeated_builds_reuse_runtime_deterministically(self, small_world):
        """One ShardingRuntime across two engine runs (pool rebound per
        build) keeps producing identical bytes."""
        first = build_dataset(
            small_world, engine=_sharded_engine(3, 2, True)
        ).dataset.to_json()
        second = build_dataset(
            small_world, engine=_sharded_engine(3, 2, True)
        ).dataset.to_json()
        assert json.loads(first) == json.loads(second)
        assert first == second
