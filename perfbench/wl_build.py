"""Workload ``build``: cold batch builds of the paper's dataset and index.

One build is what a researcher regenerating the paper's tables waits
for: seed -> snowball -> measurement (``run_pipeline``), then
``build_index`` and ``to_bytes``.  Each build runs in a fresh forked
process holding only the loaded world.  ``paced_cpu_ms`` is the median
CPU time of one build at the reference pace (``pace.py``), probed
between builds; its wall time is the per-layer ``e2e.p50_ms``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import stats
from inputs import load_world
from pace import Pace
from proc import children_cpu_s, python_env, run_forked
from spans import Recorder, install

MIN_BUILDS = 3
TRACED_BUILDS = 4
STARTUPS = 5
#: Pace probes before each build and each start-up.
PROBES = 2
#: The program's start-up: a fresh interpreter importing its entry points.
STARTUP_CODE = "import repro.api, repro.cli, repro.serve, repro.stream"


def chain_reads(metrics) -> int:
    doc = metrics.to_json().get("daas_chain_reads_total", {})
    return int(sum(sample["value"] for sample in doc.get("samples", ())))


def cold_build(world, traced: bool) -> dict:
    from repro.api import PipelineConfig, run_pipeline

    recorder, absent = None, []
    if traced:
        recorder = Recorder()
        _, absent = install(recorder)
        recorder.watch_gc()
        root = recorder.begin("build")
    started = time.perf_counter()
    cpu_started = time.process_time()
    result = run_pipeline(PipelineConfig(world=world))
    index = result.build_intel_index()
    blob = index.to_bytes()
    cpu_s = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    if recorder is not None:
        recorder.end(root)
        recorder.unwatch_gc()
    engine = result.engine
    engine.publish_metrics()
    caches = engine.cache_stats()
    return {
        "build_s": elapsed,
        "cpu_s": cpu_s,
        "version": index.version,
        "bytes": len(blob),
        "contracts": sorted(result.dataset.contracts),
        "rounds": len(result.expansion_report.iterations),
        "classifications": engine.stats.count("contract_classifications"),
        "txs_classified": engine.stats.count("txs_classified"),
        "cache_hit_ratio": engine.cache_hit_rate(),
        "cache_lookups": sum(s.requests for s in caches),
        "chain_reads": chain_reads(engine.obs.metrics),
        "spans": recorder.summary() if recorder is not None else None,
        "absent": absent,
    }


def closure_contracts(world) -> list[str]:
    """The stream's monotone-closure admission on the same world."""
    from repro.core.pipeline import ContractAnalyzer
    from repro.core.seed import SeedBuilder
    from repro.runtime import ExecutionEngine
    from repro.stream import DeltaSource, IncrementalExpander

    analyzer = ContractAnalyzer(world.rpc, world.explorer, world.oracle,
                                engine=ExecutionEngine())
    seeds, _ = SeedBuilder(analyzer, world.feeds).build()
    expander = IncrementalExpander(analyzer, seeds)
    expander.advance(DeltaSource(world.chain, None).drained_watermark_ts(),
                     touched=None)
    return sorted(expander.derive_dataset().contracts)


def startup_cpu_s() -> float:
    """CPU seconds of a fresh interpreter importing the entry points."""
    before = children_cpu_s()
    subprocess.run([sys.executable, "-c", STARTUP_CODE], env=python_env(),
                   check=True, timeout=120)
    return children_cpu_s() - before


def run(seed: int, seconds: int, trace: bool) -> dict:
    pace = Pace()
    startups = []
    for _ in range(STARTUPS):
        pace.sample(PROBES)
        startups.append(startup_cpu_s())
    world = load_world(seed)
    truth = set(world.truth.all_contracts)

    builds, rss = [], []
    deadline = time.perf_counter() + seconds
    while len(builds) < MIN_BUILDS or time.perf_counter() < deadline:
        pace.sample(PROBES)
        build, peak = run_forked(cold_build, world, False)
        builds.append(build)
        rss.append(peak)
    closure, _ = run_forked(closure_contracts, world)

    times = [b["build_s"] for b in builds]
    cpu_times = [b["cpu_s"] for b in builds]
    first = builds[0]
    admitted = set(first["contracts"])
    checks = [
        ("index version identical across builds",
         len({b["version"] for b in builds}) == 1,
         sorted({b["version"] for b in builds})),
        ("admitted contracts identical across builds",
         all(b["contracts"] == first["contracts"] for b in builds), ""),
        ("no admitted contract outside the planted truth",
         admitted <= truth, f"{len(admitted - truth)} false positives"),
        ("admitted contracts equal the stream closure's",
         first["contracts"] == closure,
         f"batch {len(admitted)}, closure {len(closure)}"),
    ]
    tail_ms, tail_q = stats.tail([t * 1000 for t in times])
    metrics = {
        "setup_s": (pace.scale(stats.median(startups)), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "paced_cpu_ms": (pace.scale(stats.median(cpu_times)) * 1000, "ms"),
    }
    raw = {
        "e2e.p50_ms": (stats.median(times) * 1000, "ms"),
        "e2e.tail_ms": (tail_ms, "ms"),
        "e2e.rate_per_s": (first["txs_classified"] / stats.median(times), "1/s"),
        "e2e.cpu_ms": (stats.median(cpu_times) * 1000, "ms"),
        "host.probe_ms": (pace.probe_s() * 1000, "ms"),
    }
    notes = [
        f"builds={len(builds)} tail=p{tail_q:g} of build wall",
        f"set-up CPU time before pacing: median {stats.median(startups):.4g} s",
        f"recall {len(admitted & truth)}/{len(truth)} planted contracts "
        f"(missed {sorted(truth - admitted)})",
        "e2e.rate_per_s = transactions classified per second of build wall",
        "setup_s = CPU time of a fresh interpreter importing the program's "
        "entry points, at the reference pace",
    ]
    layers, absent = {}, []
    if trace:
        traced = [run_forked(cold_build, world, True)[0]
                  for _ in range(TRACED_BUILDS)]
        layers = _layers(traced, stats.median(times))
        absent = traced[0]["absent"]
    return {
        "attempted": len(builds),
        "failed": 0,
        "checks": checks,
        "metrics": metrics,
        "raw": raw,
        "layers": layers,
        "absent": absent,
        "notes": notes,
    }


#: Per-build self time (s) of each layer on the build's blocking path.
_BUILD_LAYERS = {
    "core.seed_s": "core.seed",
    "core.snowball_s": "core.snowball",
    "analysis.victims_s": "analysis.victims",
    "analysis.operators_s": "analysis.operators",
    "analysis.affiliates_s": "analysis.affiliates",
    "analysis.clustering_s": "analysis.clustering",
}


def _layers(traced: list[dict], untraced_s: float) -> dict:
    n = len(traced)
    totals: dict[str, float] = {}
    for build in traced:
        for name, (self_s, _, _) in build["spans"].items():
            totals[name] = totals.get(name, 0.0) + self_s / n

    def per_build(name: str) -> float:
        return totals.get(name, 0.0)

    layers = {metric: (per_build(span), "s") for metric, span in _BUILD_LAYERS.items()}
    layers.update({
        "serve.build_index_ms": (per_build("serve.build_index") * 1000, "ms"),
        "serve.version_ms": (per_build("serve.version") * 1000, "ms"),
        "serve.to_bytes_ms": (per_build("serve.to_bytes") * 1000, "ms"),
        "py.gc_s": (per_build("py.gc"), "s"),
    })
    first = traced[0]
    layers.update({
        "core.snowball_rounds": (first["rounds"], "count"),
        "core.classifications": (first["classifications"], "count"),
        "core.txs_classified": (first["txs_classified"], "count"),
        "runtime.cache_hit_ratio": (first["cache_hit_ratio"], "ratio"),
        "runtime.cache_lookups": (first["cache_lookups"], "count"),
        "chain.reads": (first["chain_reads"], "count"),
    })
    traced_s = stats.median([b["build_s"] for b in traced])
    attributed = sum(v for k, v in totals.items() if k != "build")
    layers["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    layers["trace.attributed_ratio"] = (attributed / untraced_s, "ratio")
    return layers
