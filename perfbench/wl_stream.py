"""Workload ``stream``: an open-loop block tail, published every tick.

The stream is caught up to a replay point (the set-up: seed, one large
catch-up delta and the first full publish to a file sink, as
``stream run --out`` deploys).  Then the world's next blocks are
released at a fixed block rate regardless of how fast the stream
keeps up.  Each tick folds every released, unprocessed block and
publishes; a block's freshness runs from its scheduled release to the
return of the publish that contains it.  ``setup_s`` is the set-up's CPU
time and ``paced_cpu_ms`` the median CPU time of one tick (fold and
publish), both at the reference pace (``pace.py``), probed between
set-ups and once a second between ticks; freshness is wall time,
reported as the per-layer ``e2e.p50_ms``.
"""

from __future__ import annotations

import os
import random
import tempfile
import time

import stats
from inputs import CACHE, load_world
from pace import Pace
from proc import run_forked
from spans import Recorder, install
from wl_build import chain_reads

#: Blocks released per second during the tail: ``stream run``'s default
#: ``--delta-batch`` of 16 blocks over the ~0.5 s one fold and publish
#: takes at scale 0.1 on a 2-vCPU Xeon (0.40-0.58 s measured).  The
#: blocks each tick actually folds are reported as stream.blocks_per_tick.
BLOCK_RATE = 32.0
SETUPS = 5
#: The seed moves the replay point by up to this many blocks (one
#: second of the tail), so every seed's tail holds nearly the same work:
#: further apart, some tails hold contracts to classify and some none.
REPLAY_JITTER = 32
#: Pace probes before each set-up, and seconds between probes in the tail.
SETUP_PROBES = 3
PROBE_EVERY_S = 1.0


def _replay_blocks(world, seed: int, seconds: float) -> tuple[int, int]:
    """``(catch-up blocks, tail blocks)``; the seed moves the replay
    point within the world's last blocks."""
    from repro.stream import DeltaSource

    total = DeltaSource(world.chain, None).backlog_blocks
    tail = int(BLOCK_RATE * seconds)
    jitter = random.Random(f"stream/{seed}").randrange(0, REPLAY_JITTER)
    return total - tail - jitter, tail


def _setup(world, catch_up: int, sink: str):
    """Cold start to the first full publish at the replay point."""
    from repro.core.pipeline import ContractAnalyzer
    from repro.core.seed import SeedBuilder
    from repro.runtime import ExecutionEngine
    from repro.stream import StreamPipeline, StreamPublisher

    started = time.process_time()
    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle,
                                engine=ExecutionEngine())
    seeds, _ = SeedBuilder(analyzer, world.feeds).build()
    publisher = StreamPublisher(path=sink)
    pipe = StreamPipeline(world, analyzer, seeds, publisher=publisher)
    pipe.delta_batch = catch_up
    pipe.tick()
    receipt = pipe.publish()
    if receipt.mode != "full":
        raise RuntimeError(f"first publish was {receipt.mode}, expected full")
    return pipe, time.process_time() - started


def setup_only(world, catch_up: int) -> float:
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        _, elapsed = _setup(world, catch_up, os.path.join(tmp, "index.json"))
    return elapsed


def tail_run(world, catch_up: int, tail: int, traced: bool) -> dict:
    """Set up, release ``tail`` blocks open-loop, then check the result
    against a cold rebuild at the final watermark."""
    from repro.core.pipeline import ContractAnalyzer
    from repro.core.seed import SeedBuilder
    from repro.runtime import ExecutionEngine
    from repro.stream import batch_rebuild

    recorder, absent = None, []
    if traced:
        recorder = Recorder()
        _, absent = install(recorder)
        recorder.watch_gc()
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        sink = os.path.join(tmp, "index.json")
        pipe, setup_s = _setup(world, catch_up, sink)
        setup_spans = recorder.summary(recorder.take()) if recorder else None

        pace = Pace()
        next_probe = time.perf_counter()
        freshness: list[float] = []
        ticks = []  # (blocks, busy seconds, upserts, CPU seconds)
        backlog_max = 0
        processed = 0
        start = time.perf_counter()
        while processed < tail:
            now = time.perf_counter()
            released = min(tail, int((now - start) * BLOCK_RATE) + 1)
            if released <= processed:
                time.sleep(max(0.0, start + processed / BLOCK_RATE - now))
                continue
            backlog_max = max(backlog_max, released - processed)
            pipe.delta_batch = released - processed
            root = recorder.begin("tick") if recorder else None
            cpu_started = time.process_time()
            summary = pipe.tick()
            if summary is None:
                raise RuntimeError("the world ran out of blocks mid-tail")
            receipt = pipe.publish()
            done = time.perf_counter()
            cpu_s = time.process_time() - cpu_started
            if root is not None:
                recorder.end(root)
            for i in range(processed, processed + summary.blocks):
                freshness.append((i / BLOCK_RATE, done - (start + i / BLOCK_RATE)))
            processed += summary.blocks
            ticks.append((summary.blocks, done - now, receipt.upserts, cpu_s))
            if done >= next_probe:
                pace.sample()
                next_probe = done + PROBE_EVERY_S
        tail_spans = recorder.summary(recorder.take()) if recorder else None
        if recorder:
            recorder.unwatch_gc()
        engine = pipe.analyzer.engine
        engine.publish_metrics()
        counts = {
            "classifications": engine.stats.count("contract_classifications"),
            "txs_classified": engine.stats.count("txs_classified"),
            "cache_hit_ratio": engine.cache_hit_rate(),
            "cache_lookups": sum(s.requests for s in engine.cache_stats()),
            "chain_reads": chain_reads(engine.obs.metrics),
        }

        published = pipe.publisher.published.to_bytes()
        with open(sink, "rb") as handle:
            sunk = handle.read()
        rebuild_start = time.perf_counter()
        analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle,
                                    engine=ExecutionEngine())
        seeds, _ = SeedBuilder(analyzer, world.feeds).build()
        cold = batch_rebuild(world, analyzer, seeds, watermark_ts=pipe.watermark_ts)
        cold_bytes = cold.to_bytes()
        rebuild_s = time.perf_counter() - rebuild_start
    return {
        "setup_s": setup_s,
        "freshness": freshness,
        "ticks": ticks,
        "probes": pace.samples,
        "backlog_max": backlog_max,
        "matches_rebuild": published == cold_bytes,
        "sink_matches": sunk == published,
        "rebuild_s": rebuild_s,
        "counts": counts,
        "setup_spans": setup_spans,
        "tail_spans": tail_spans,
        "absent": absent,
    }


def run(seed: int, seconds: int, trace: bool) -> dict:
    world = load_world(seed)
    catch_up, tail = _replay_blocks(world, seed, seconds)
    pace = Pace()
    setups = []
    for _ in range(SETUPS - 1):
        pace.sample(SETUP_PROBES)
        setups.append(run_forked(setup_only, world, catch_up)[0])
    pace.sample(SETUP_PROBES)
    result, rss = run_forked(tail_run, world, catch_up, tail, False)
    setups.append(result["setup_s"])
    pace.samples += result["probes"]

    fresh_ms = [f * 1000 for _, f in result["freshness"]]
    blocks = sum(t[0] for t in result["ticks"])
    busy = sum(t[1] for t in result["ticks"])
    tail_ms, tail_q = stats.tail(fresh_ms)
    tick_cpu_s = stats.median([t[3] for t in result["ticks"]])
    metrics = {
        "setup_s": (pace.scale(stats.median(setups)), "s"),
        "peak_rss_mb": (rss, "MB"),
        "paced_cpu_ms": (pace.scale(tick_cpu_s) * 1000, "ms"),
    }
    raw = {
        "e2e.p50_ms": (stats.median(fresh_ms), "ms"),
        "e2e.tail_ms": (tail_ms, "ms"),
        "e2e.rate_per_s": (len(result["ticks"]) / busy, "1/s"),
        "e2e.cpu_ms": (tick_cpu_s * 1000, "ms"),
        "host.probe_ms": (pace.probe_s() * 1000, "ms"),
    }
    checks = [
        ("final published index equals batch_rebuild at the final watermark",
         result["matches_rebuild"], ""),
        ("file sink holds the published bytes", result["sink_matches"], ""),
        ("every released block was folded and published", blocks == tail,
         f"{blocks}/{tail}"),
    ]
    notes = [
        f"replay point after {catch_up} blocks; {tail} tail blocks at "
        f"{BLOCK_RATE:g} blocks/s; {len(result['ticks'])} ticks",
        f"freshness samples={len(fresh_ms)} tail=p{tail_q:.4g}",
        f"set-up CPU time before pacing: median {stats.median(setups):.4g} s",
        "e2e.rate_per_s = ticks (fold and publish) completed per busy second",
    ]
    layers, absent = {}, []
    if trace:
        traced, _ = run_forked(tail_run, world, catch_up, tail, True)
        layers = _layers(traced, result)
        absent = traced["absent"]
    return {
        "attempted": tail,
        "failed": tail - blocks,
        "checks": checks,
        "metrics": metrics,
        "raw": raw,
        "layers": layers,
        "absent": absent,
        "notes": notes,
    }


_TICK_LAYERS = (
    "stream.fold", "stream.expand", "stream.derive_dataset",
    "stream.derive_clustering", "stream.delta_compute", "stream.delta_apply",
    "stream.sink_write", "stream.publish",
)


def _layers(traced: dict, untraced: dict) -> dict:
    spans = traced["tail_spans"]
    n_ticks = len(traced["ticks"])

    def per_tick_ms(name: str) -> float:
        return spans.get(name, (0.0,))[0] / n_ticks * 1000

    layers = {f"{name}_ms": (per_tick_ms(name), "ms") for name in _TICK_LAYERS}
    layers.update({
        "serve.build_index_ms": (per_tick_ms("serve.build_index"), "ms"),
        "serve.version_ms": (per_tick_ms("serve.version"), "ms"),
        "serve.to_bytes_ms": (per_tick_ms("serve.to_bytes"), "ms"),
        "py.gc_s": (per_tick_ms("py.gc") / 1000, "s"),
        "stream.blocks_per_tick": (
            sum(t[0] for t in traced["ticks"]) / n_ticks, "count"),
        "stream.delta_upserts": (
            sum(t[2] for t in traced["ticks"]) / n_ticks, "count"),
        "stream.backlog_max_blocks": (traced["backlog_max"], "count"),
        "stream.cold_rebuild_s": (traced["rebuild_s"], "s"),
    })
    setup = traced["setup_spans"]
    layers["core.seed_s"] = (setup.get("core.seed", (0.0,))[0], "s")
    counts = traced["counts"]
    layers.update({
        "core.classifications": (counts["classifications"], "count"),
        "core.txs_classified": (counts["txs_classified"], "count"),
        "runtime.cache_hit_ratio": (counts["cache_hit_ratio"], "ratio"),
        "runtime.cache_lookups": (counts["cache_lookups"], "count"),
        "chain.reads": (counts["chain_reads"], "count"),
    })
    busy_traced = sum(t[1] for t in traced["ticks"]) / n_ticks
    busy_untraced = sum(t[1] for t in untraced["ticks"]) / len(untraced["ticks"])
    attributed = sum(v[0] for k, v in spans.items() if k != "tick") / n_ticks
    layers["trace.overhead_pct"] = ((busy_traced / busy_untraced - 1) * 100, "%")
    layers["trace.attributed_ratio"] = (attributed / busy_untraced, "ratio")
    return layers
