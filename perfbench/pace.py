"""The host's pace: a fixed reference workload timed beside the program.

The benchmark's virtual CPUs share physical cores, caches and memory
with other machines' work.  On a 2-vCPU Xeon host that slowed the same
cold build from 0.79 s to 1.2-1.7 s of CPU time (not only wall time)
for minutes at a stretch, with almost no time reported stolen.  So each
workload times :func:`probe` between its own measurements and scales
its CPU times to a fixed pace: ``time * REFERENCE_PROBE_S / median probe
time``.  The probe is the benchmark's own code, so a change to the
program moves the scaled times and not the probe.  Raw times are
reported beside the scaled ones, with the probe's median.
"""

from __future__ import annotations

import gc
import json
import random
import time

import stats

#: The pace scaled times are reported at: the one where a probe takes
#: this many CPU seconds.
REFERENCE_PROBE_S = 0.050


def probe() -> float:
    """CPU seconds of one run of the reference workload: object,
    dictionary, string and JSON work of the kind the program does, on
    fresh objects.  The collector is paused: in a process holding a
    world, one full collection would cost more than the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        rng = random.Random(7)
        objs = [{"id": i, "key": "0x%040x" % rng.getrandbits(160), "edges": [i, 2 * i]}
                for i in range(20000)]
        index = {obj["key"]: obj for obj in objs}
        keys = list(index)
        rng.shuffle(keys)
        total = sum(index[key]["edges"][1] for key in keys)
        total += len(json.dumps(objs[:4000]))
        total += sum(i * i % 7 for i in range(100_000))
        return time.process_time() - started
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Probe times sampled through a run, and the scale they give."""

    def __init__(self, samples=()) -> None:
        self.samples: list[float] = list(samples)

    def sample(self, count: int = 1) -> None:
        self.samples += [probe() for _ in range(count)]

    def probe_s(self) -> float:
        return stats.median(self.samples)

    def scale(self, seconds: float) -> float:
        """``seconds`` of CPU time at the reference pace."""
        return seconds * REFERENCE_PROBE_S / self.probe_s()
