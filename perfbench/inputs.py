"""Workload inputs: simulated worlds and the indexes derived from them.

Building a world costs far more than any workload run (about 16 s at
scale 0.1 on a 2-vCPU Xeon), so each ``(scale, world seed)`` world is
built once and kept pickled in the benchmark's own cache directory.
The cache key includes a hash of the ``repro.simulation`` and
``repro.chain`` sources, so a change to either rebuilds it.  Inputs
derived from the world (streamed index versions, transaction endpoints)
are keyed on a hash of all of ``src/repro``.  Building inputs counts
toward no metric.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench-cache"

#: Every workload runs on a scale-0.1 world (817 indexed addresses).
SCALE = 0.1
#: Workload seeds map onto this many distinct worlds, so a run of the
#: benchmark builds at most this many worlds per checkout.
WORLD_POOL = 2


def world_seed(seed: int) -> int:
    return 1 + seed % WORLD_POOL


def source_hash(*parts: str) -> str:
    """sha256 over the ``.py`` files under ``src/repro/<part>``."""
    digest = hashlib.sha256()
    for part in parts:
        base = SRC / "repro" / part
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in files:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cache_path(name: str) -> Path:
    CACHE.mkdir(exist_ok=True)
    return CACHE / name


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def load_world(seed: int):
    """The world for workload ``seed``, from the cache or built once.

    A missing world is built in a forked process, and the world is
    always unpickled here, with the collector paused, then collected
    once, so every timed run starts with the same heap: the world's
    objects in the oldest generation, laid out as unpickling lays them
    out.  (Forked builds from a process that had built the world itself
    peaked 28 MB lower, and 17 MB higher when it had built, dropped and
    unpickled it.)
    """
    from proc import run_forked

    wseed = world_seed(seed)
    key = source_hash("simulation", "chain")
    path = _cache_path(f"world-{SCALE}-{wseed}-{key}.pkl")
    if not path.exists():
        run_forked(_build_world, wseed, path)
    raw = path.read_bytes()
    gc.disable()
    try:
        world = pickle.loads(raw)
    finally:
        gc.enable()
    del raw
    gc.collect()
    return world


def _build_world(wseed: int, path: Path) -> None:
    from repro.simulation import SimulationParams, build_world

    world = build_world(SimulationParams(scale=SCALE, seed=wseed))
    _write_atomic(path, pickle.dumps(world, protocol=pickle.HIGHEST_PROTOCOL))


def derived(name: str, seed: int, make):
    """The value ``make()`` computes from the world and the program,
    cached per world and program source."""
    key = source_hash("")
    path = _cache_path(f"{name}-{SCALE}-{world_seed(seed)}-{key}.pkl")
    if path.exists():
        return pickle.loads(path.read_bytes())
    value = make()
    _write_atomic(path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    return value


def transaction_endpoints(world) -> list[tuple[str, str]]:
    """``(sender, recipient)`` of every transaction of the world's chain
    that has both (contract creations have no recipient)."""
    return [(tx.sender, tx.to) for tx in world.chain.iter_transactions()
            if tx.sender and tx.to]


def streamed_versions(world, count: int, tail_blocks: int = 4000) -> list[bytes]:
    """``count`` consecutive distinct index versions published by the
    stream over the world's last ``tail_blocks`` blocks."""
    from repro.core.pipeline import ContractAnalyzer
    from repro.core.seed import SeedBuilder
    from repro.runtime import ExecutionEngine
    from repro.serve import IntelIndex, QueryEngine
    from repro.stream import StreamPipeline, StreamPublisher

    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle,
                                engine=ExecutionEngine())
    seeds, _ = SeedBuilder(analyzer, world.feeds).build()
    publisher = StreamPublisher(engine=QueryEngine(IntelIndex()))
    pipe = StreamPipeline(world, analyzer, seeds, publisher=publisher)
    pipe.delta_batch = max(1, pipe.source.backlog_blocks - tail_blocks)
    pipe.tick()
    step = max(1, tail_blocks // (4 * count))
    versions: list[bytes] = []
    last = None
    while len(versions) < count:
        pipe.delta_batch = step
        if pipe.tick() is None:
            break
        pipe.publish()
        index = publisher.published
        if index.version != last:
            last = index.version
            versions.append(index.to_bytes())
    if len(versions) < 2:
        raise RuntimeError("the stream tail published fewer than 2 versions")
    return versions
