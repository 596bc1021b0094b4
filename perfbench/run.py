"""The repository's benchmark: build, stream and serve paths.

Run from the repository root::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` repeats the measurement, then runs the workload again with
spans recorded around each layer's public functions and reports the
per-layer metrics.  Every run checks the program's outputs; a failed
check makes ``correct`` false.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names, units and bounds are declared in ``BENCHMARK.json``, with
the workloads.  A traced run whose layer self times along the blocking
path sum to further than :data:`ATTRIBUTION_TOLERANCE` from the
untraced time is not correct.

The bounded times are CPU times scaled to a reference pace (see
``pace.py``); wall-clock latencies and rates, raw CPU times and the
pace probe's own time are reported unbounded, with the per-layer
metrics under ``e2e.*`` and ``host.*``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "stream", "serve-screen")
#: How far the traced layer self times may sum from the untraced time:
#: the tracing overhead plus the machine's drift between the two runs.
ATTRIBUTION_TOLERANCE = 0.30


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workload_module(name: str):
    if name == "build":
        import wl_build as module
    elif name == "stream":
        import wl_stream as module
    else:
        import wl_serve as module
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from proc import StealWatch, machine_context

    declared = _declared()
    context = machine_context(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"context": context}, sort_keys=True), flush=True)

    module = _workload_module(args.workload)
    steal = StealWatch()
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    stolen = steal.share()
    if stolen is not None:
        outcome["notes"].append(f"the hypervisor stole {stolen:.1%} of this "
                                "machine's CPU time during the run")

    correct = True
    for name, ok, detail in outcome["checks"]:
        correct = correct and bool(ok)
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail not in ("", None) else ""))
    for note in outcome["notes"]:
        print(f"note {note}")
    if args.trace:
        ratio = outcome["layers"]["trace.attributed_ratio"][0]
        within = abs(ratio - 1) <= ATTRIBUTION_TOLERANCE
        correct = correct and within
        print(f"check {'ok  ' if within else 'FAIL'} layer self times along the "
              f"blocking path sum to {ratio:.1%} of the untraced end-to-end "
              f"time (tolerance +-{ATTRIBUTION_TOLERANCE:.0%})")

    for name, (value, unit) in {**outcome["metrics"], **outcome["raw"]}.items():
        print(f"e2e {name} = {value:.6g} {unit}")
    if args.trace:
        wanted = declared["per_layer"]
        # Raw times come from the same untraced pass as the end-to-end
        # metrics.
        values = {**outcome["layers"], **outcome["raw"]}
    else:
        wanted = declared["end_to_end"]
        values = outcome["metrics"]
    metrics = {}
    unmeasured = []
    for spec in wanted:
        name = spec["name"]
        if name in values:
            value, unit = values[name]
        else:
            # The layer did no work on this workload.
            value, unit = 0.0, spec["unit"]
            unmeasured.append(name)
        if unit != spec["unit"]:
            raise RuntimeError(f"{name}: measured in {unit}, declared {spec['unit']}")
        if not math.isfinite(value):
            correct = False
        metrics[name] = {"value": value if math.isfinite(value) else -1.0,
                         "unit": unit}
        if args.trace:
            print(f"metric {name} = {value:.6g} {unit}")
    if args.trace:
        print(json.dumps({"absent": outcome.get("absent", []),
                          "not_exercised": unmeasured}))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
