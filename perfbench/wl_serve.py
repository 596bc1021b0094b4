"""Workload ``serve-screen``: a bulk screening feed against a ``serve``
subprocess.

Open-loop ``POST /v1/screen`` batches.  Each batch holds the sender and
recipient of four transactions drawn at random from the world's chain,
so the share of indexed addresses in the traffic is the world's own
(about 24% of transaction endpoints on the scale-0.1 worlds), and the
~10k addresses the chain has seen are far more than the server's
4096-entry cache holds.  Once a second the served index file is
atomically replaced with the next streamed version and the server
reloads it (``--reload-every``), so reloads run beside reads in every
phase.

Each run starts the server several times (set-up: the server's CPU time
from spawn to ``/healthz`` answering), then sends an open-loop phase at
the average rate (the latency percentiles), one at the peak rate
(``paced_cpu_ms``: the server's CPU time per answered batch, reloads
included; ``peak_rss_mb``: the server's peak RSS so far) and a
closed-loop saturation phase that keeps the server busy (the answer
rate).  CPU times are scaled to the reference pace (``pace.py``),
probed by this process before each server start and between the
one-second parts of the peak-rate phase.  Traced
runs add a rising ladder of open-loop rates that finds the highest rate
meeting the latency limit without a growing backlog, then alternate
one-second parts at the average rate between the untraced server and
one with the layer spans installed.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import loadgen
import stats
from inputs import CACHE, derived, load_world, streamed_versions, transaction_endpoints
from pace import Pace
from proc import cpu_s_of, live_cpu_s_of, peak_rss_mb_of, python_env

HERE = Path(__file__).resolve().parent
#: One generator process with no more connections than CPUs.
CONNECTIONS = min(2, len(os.sched_getaffinity(0)))
SETUPS = 5
#: Pace probes before each server start; the peak-rate phase runs in
#: parts of this many seconds with one probe before each.
SETUP_PROBES = 3
PEAK_PART_S = 1.0
#: Traced runs alternate parts of this many seconds between the
#: untraced server and a traced one, so both meet the same host.
PAIRED_PART_S = 1.0
#: docs/capacity.md's sizing model for a wallet guard: 72 batch requests
#: per second on average, ten times that at peak, each batch about 8
#: addresses (the approval set of one transaction).
FIXED_RATE = 72.0
PEAK_RATE = 724.0
TXS_PER_BATCH = 4            # sender and recipient each: 8 addresses
#: The p99 limit of a screening batch, for the ladder's knee.
LIMIT_MS = 200.0
#: Requests in flight per connection in the saturation phase, so the
#: server still has work queued while the generator waits for a CPU.
DEPTH = 8
#: The served file changes as often as ``stream run --out`` publishes:
#: once a tick, about 0.6 s a tick at scale 0.1 (the ``stream``
#: workload's e2e.rate_per_s on a 2-vCPU Xeon), rounded to once a second.
REPLACE_EVERY_S = 1.0
VERSIONS = 12
#: Shares of --seconds for the latency phase and the peak-rate phase;
#: the saturation phase gets the rest.
FIXED_SHARE = 0.25
PEAK_SHARE = 0.45
LADDER_STEP_S = 1.5
LADDER_RATIO = 1.3
SATURATION_WARMUP_S = 1.0    # of the saturation phase, not counted
RELOAD_POLL_S = 0.05         # the server's --reload-every
#: A replacement made this long before the last answer must show in an
#: answer: ten polls, far more than a reload of one index takes.
RELOAD_GRACE_S = 10 * RELOAD_POLL_S
CHECK_EVERY = 25             # compare every Nth answered body with the oracle


# -- the server subprocess -----------------------------------------------------


class Server:
    """One ``serve`` subprocess on an ephemeral port.  Its stderr goes to
    ``<workdir>/<name>.err``; its report (``serve_main.py``) to
    ``<workdir>/<name>.json``."""

    def __init__(self, index_path: Path, workdir: Path, name: str,
                 traced: bool) -> None:
        cmd = [sys.executable, str(HERE / "serve_main.py"),
               str(workdir / f"{name}.json"), "1" if traced else "0", "--",
               "serve", "--index", str(index_path), "--port", "0",
               "--reload-every", str(RELOAD_POLL_S)]
        self.index_path = index_path
        self.report_path = workdir / f"{name}.json"
        self.err_path = workdir / f"{name}.err"
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                         env=python_env(), cwd=str(HERE.parent))
        try:
            self.host, self.port = self._await_banner(60.0)
            status, _, _ = get(self.host, self.port, "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
            # No thread has exited yet (reload threads start with the
            # first replacement), so the live threads hold all of it.
            self.setup_s = live_cpu_s_of(self.proc.pid)
        except BaseException:
            self.stop()
            raise

    def cpu_s(self) -> float:
        return cpu_s_of(self.proc.pid)

    def _await_banner(self, timeout: float) -> tuple[str, int]:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if not sel.select(max(0.0, deadline - time.monotonic())):
                    continue
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    self.proc.wait(timeout=10)
                    err = self.err_path.read_text("utf-8", "replace")
                    raise RuntimeError(f"server exited before serving: {err[-2000:]}")
                match = re.search(r" on http://([^:/\s]+):(\d+)", line)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            sel.close()
        raise RuntimeError("server did not announce its address in time")

    def stop(self) -> dict:
        """SIGINT (the server's clean shutdown), then its report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        try:
            return json.loads(self.report_path.read_text())
        except (OSError, ValueError):
            return {}


def get(host: str, port: int, path: str):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def prometheus_sum(text: str, name: str, **labels: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if not line.startswith(name) or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        metric, _, rest = head.partition("{")
        if metric != name:
            continue
        if any(f'{k}="{v}"' not in rest for k, v in labels.items()):
            continue
        total += float(value)
    return total


# -- traffic -------------------------------------------------------------------


class Oracle:
    """In-process ``QueryEngine`` answers, one engine per index version."""

    def __init__(self, blobs: list[bytes]) -> None:
        from repro.serve import IntelIndex, QueryEngine

        self.engines = {}
        for blob in blobs:
            engine = QueryEngine(IntelIndex.from_bytes(blob))
            self.engines[engine.index_version] = engine

    def verdicts(self, version: str, addresses: list[str]):
        engine = self.engines[version]
        return json.loads(json.dumps([engine.screen(a).to_payload()
                                      for a in addresses]))

    def indexed(self, version: str, addresses: list[str]) -> int:
        """How many distinct ``addresses`` the version indexes."""
        index = self.engines[version].index
        return sum(1 for a in set(addresses) if a in index)


class Traffic:
    """Screening batches drawn from the world's transactions by the
    workload's seeded generator."""

    def __init__(self, endpoints: list[tuple[str, str]], rng: random.Random) -> None:
        self.endpoints = endpoints
        self.rng = rng
        self.made = 0

    def one(self, due: float) -> loadgen.Request:
        self.made += 1
        batch = [a for _ in range(TXS_PER_BATCH) for a in self.rng.choice(self.endpoints)]
        body = json.dumps({"addresses": batch}).encode()
        return loadgen.Request(
            due=due, raw=loadgen.encode("POST", "/v1/screen", None, body),
            tag=batch, keep_body=self.made % CHECK_EVERY == 0)


def check_answers(requests, oracle: Oracle):
    """``(failed, wrong bodies, bodies compared, addresses, indexed)``.

    A failure is a missing answer, a status other than 200 or an
    unknown index version (its latency becomes ``inf``); sampled bodies
    must equal the oracle's answer for the version the response names.
    ``addresses`` and ``indexed`` count the distinct addresses of the
    answered batches and those the served version indexes.
    """
    failed = wrong = compared = addresses = indexed = 0
    for request in requests:
        served = request.headers.get("x-index-version")
        if (request.done == math.inf or request.status != 200
                or served not in oracle.engines):
            failed += 1
            request.done = math.inf
            continue
        addresses += len(set(request.tag))
        indexed += oracle.indexed(served, request.tag)
        if not request.keep_body:
            continue
        compared += 1
        doc = json.loads(request.body)
        ok = (doc.get("verdicts") == oracle.verdicts(served, request.tag)
              and doc.get("index_version") == served)
        wrong += 0 if ok else 1
    return failed, wrong, compared, addresses, indexed


class Reloader:
    """Replaces the served index file with the next version on a cadence
    that runs across phases, and records when each version went in."""

    def __init__(self, path: Path, blobs: list[bytes]) -> None:
        self.path = path
        self.blobs = blobs
        self.position = 0
        self.next_at = time.perf_counter() + REPLACE_EVERY_S
        self.replaced: list[tuple[float, str]] = []  # (perf_counter, version)
        self.versions = [json.loads(b)["version"] for b in blobs]

    def __call__(self, _phase_now: float) -> None:
        now = time.perf_counter()
        if now < self.next_at:
            return
        self.next_at = now + REPLACE_EVERY_S
        self.position = (self.position + 1) % len(self.blobs)
        tmp = self.path.with_name(self.path.name + ".next")
        tmp.write_bytes(self.blobs[self.position])
        os.replace(tmp, self.path)
        self.replaced.append((time.perf_counter(), self.versions[self.position]))


def reload_lags(replaced, answered) -> list[float | None]:
    """Per replacement: seconds to the first answer naming the new
    version, ``None`` when none did.  ``answered`` holds
    ``(perf_counter done, version)``."""
    answered = sorted(answered)
    lags: list[float | None] = []
    for when, version in replaced:
        lags.append(next((done - when for done, served in answered
                          if done >= when and served == version), None))
    return lags


class Session:
    """Phases of traffic against one server, with their accounting."""

    def __init__(self, server: Server, traffic: Traffic, oracle: Oracle,
                 reloader: Reloader) -> None:
        self.server = server
        self.traffic = traffic
        self.oracle = oracle
        self.reloader = reloader
        self.phases: dict[str, list[int]] = {}   # name -> [sent, failed]
        self.wrong = self.compared = 0
        self.addresses = self.indexed = 0
        self.answered: list[tuple[float, str]] = []
        self.late_max = 0.0

    def _account(self, name: str, requests, start: float) -> None:
        failed, wrong, compared, addresses, indexed = check_answers(requests,
                                                                    self.oracle)
        counts = self.phases.setdefault(name, [0, 0])
        counts[0] += len(requests)
        counts[1] += failed
        self.wrong += wrong
        self.compared += compared
        self.addresses += addresses
        self.indexed += indexed
        self.answered += [(start + r.done, r.headers.get("x-index-version"))
                          for r in requests if r.done != math.inf]

    def open_loop(self, name: str, rate: float, seconds: float):
        due = stats.poisson_schedule(rate, seconds, self.traffic.rng)
        requests = [self.traffic.one(t) for t in due]
        start = loadgen.run_phase(self.server.host, self.server.port, requests,
                                  CONNECTIONS, drain_s=3.0, on_tick=self.reloader)
        self.late_max = max([self.late_max] + [r.sent - r.due for r in requests
                                                if r.sent != math.inf])
        self._account(name, requests, start)
        return requests

    def saturate(self, name: str, seconds: float) -> float:
        """Answers per second with the server kept busy: the median over
        the one-second windows after a warm-up.  The
        index is replaced once a window, so every window pays for one
        reload, while a window the host stalls does not move the median."""
        warm = SATURATION_WARMUP_S
        start = time.perf_counter()
        requests = loadgen.run_saturation(
            self.server.host, self.server.port, self.traffic.one, CONNECTIONS,
            DEPTH, seconds, on_tick=self.reloader)
        self._account(name, requests, start)
        counts = [0] * int((seconds - warm) / REPLACE_EVERY_S)
        for r in requests:
            window = math.floor((r.done - warm) / REPLACE_EVERY_S)
            if 0 <= window < len(counts):
                counts[window] += 1
        return stats.median(counts) / REPLACE_EVERY_S

    def ladder(self, seconds: float) -> float:
        """The highest rate meeting the latency limit without a growing
        backlog, from a rising ladder of open-loop steps."""
        limit_s = LIMIT_MS / 1000.0
        n_steps = max(1, int(seconds / LADDER_STEP_S))
        steps = []
        for rate in stats.geometric_ladder(PEAK_RATE, LADDER_RATIO, n_steps):
            requests = self.open_loop("ladder", rate, LADDER_STEP_S)
            p99 = stats.percentile([r.latency for r in requests], 99.0)
            growing = stats.backlog_growing([r.due for r in requests],
                                            [r.done for r in requests], rate, limit_s)
            steps.append((rate, p99, growing))
            if p99 > limit_s or growing:
                break
        return stats.knee_rate(steps, limit_s)

    def metrics_text(self) -> str:
        status, _, body = get(self.server.host, self.server.port, "/metrics")
        return body.decode("utf-8", "replace") if status == 200 else ""

    def reloads(self, prom: str) -> tuple[list[float], int, dict[str, float]]:
        """``(lags of the replacements seen, replacements that should
        have been seen but were not, reload counts by result)``.  Every
        replacement made :data:`RELOAD_GRACE_S` before the last answer
        should be."""
        last = max((done for done, _ in self.answered), default=0.0)
        lags = reload_lags(self.reloader.replaced, self.answered)
        unseen = sum(1 for (when, _), lag in zip(self.reloader.replaced, lags)
                     if lag is None and when + RELOAD_GRACE_S <= last)
        results = {result: prometheus_sum(prom, "daas_serve_reloads_total",
                                          result=result)
                   for result in ("ok", "error", "timeout")}
        return [lag for lag in lags if lag is not None], unseen, results

    @property
    def attempted(self) -> int:
        return sum(sent for sent, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(failed for _, failed in self.phases.values())


# -- the run -------------------------------------------------------------------


def run(seed: int, seconds: int, trace: bool) -> dict:
    blobs = derived("stream-versions", seed,
                    lambda: streamed_versions(load_world(seed), VERSIONS))
    endpoints = derived("transaction-endpoints", seed,
                        lambda: transaction_endpoints(load_world(seed)))
    oracle = Oracle(blobs)
    traffic = Traffic(endpoints, random.Random(f"serve-screen/{seed}"))
    # The inputs live for the whole run: keep them out of the collections
    # that run between phases.
    gc.collect()
    gc.freeze()
    CACHE.mkdir(exist_ok=True)
    workdir = CACHE / f"run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        return _run(seconds, trace, blobs, traffic, oracle, workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def _start(blobs, workdir: Path, name: str, traced: bool) -> Server:
    index_path = workdir / f"{name}.index.json"
    index_path.write_bytes(blobs[0])
    return Server(index_path, workdir, name, traced)


def _run(seconds, trace, blobs, traffic, oracle, workdir):
    pace = Pace()
    setups = []
    for i in range(SETUPS - 1):
        pace.sample(SETUP_PROBES)
        server = _start(blobs, workdir, f"setup{i}", False)
        setups.append(server.setup_s)
        server.stop()
    pace.sample(SETUP_PROBES)
    server = _start(blobs, workdir, "main", False)
    setups.append(server.setup_s)
    session = Session(server, traffic, oracle,
                      Reloader(server.index_path, blobs))
    knee = paired = None
    try:
        fixed = session.open_loop("fixed", FIXED_RATE, seconds * FIXED_SHARE)
        peak, peak_cpu_s = [], 0.0
        for _ in range(max(1, round(seconds * PEAK_SHARE / PEAK_PART_S))):
            pace.sample()
            cpu_started = server.cpu_s()
            peak += session.open_loop("peak", PEAK_RATE, PEAK_PART_S)
            peak_cpu_s += server.cpu_s() - cpu_started
        pace.sample()
        cpu_per_answer = peak_cpu_s / max(1, sum(1 for r in peak
                                                 if r.done != math.inf))
        peak_rss_mb = peak_rss_mb_of(server.proc.pid)
        saturated = session.saturate(
            "saturation", seconds * (1 - FIXED_SHARE - PEAK_SHARE))
        if trace:
            knee = session.ladder(seconds)
            paired = _paired(seconds, blobs, traffic, oracle, workdir, session)
        prom = session.metrics_text()
    finally:
        report = server.stop()
    lags, unseen, reloads = session.reloads(prom)

    latencies_ms = [r.latency * 1000 for r in fixed]
    tail_ms, tail_q = stats.tail(latencies_ms)
    metrics = {
        "setup_s": (pace.scale(stats.median(setups)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "paced_cpu_ms": (pace.scale(cpu_per_answer) * 1000, "ms"),
    }
    raw = {
        "e2e.p50_ms": (stats.median(latencies_ms), "ms"),
        "e2e.tail_ms": (tail_ms, "ms"),
        "e2e.rate_per_s": (saturated, "1/s"),
        "e2e.cpu_ms": (cpu_per_answer * 1000, "ms"),
        "host.probe_ms": (pace.probe_s() * 1000, "ms"),
    }
    failed_reloads = reloads["error"] + reloads["timeout"]
    checks = [
        ("every answer has the expected status", session.failed == 0,
         f"{session.failed} of {session.attempted} failed or unanswered"),
        ("sampled bodies equal the in-process QueryEngine answer",
         session.wrong == 0 and session.compared > 0,
         f"{session.wrong} of {session.compared} differ"),
        ("every index replacement was reloaded and served",
         unseen == 0 and bool(lags) and failed_reloads == 0,
         f"{len(lags)} of {len(session.reloader.replaced)} replacements seen "
         f"in answers, {unseen} missed, {reloads['error']:g} reload errors, "
         f"{reloads['timeout']:g} timeouts"),
        ("the server shut down cleanly", report.get("exit") == 0,
         f"exit {report.get('exit')}"),
    ]
    notes = [
        f"fixed phase {FIXED_RATE:g}/s for {seconds * FIXED_SHARE:g}s: "
        f"{len(fixed)} batches; p50 is the phase median, tail p{tail_q:.4g}",
        f"{session.indexed / max(1, session.addresses):.1%} of "
        f"{session.addresses} screened addresses were indexed",
        f"e2e.rate_per_s = answers per second with {DEPTH} requests in "
        f"flight on each of {CONNECTIONS} connections",
        f"generator ran at most {session.late_max * 1000:.2f} ms late",
        f"set-up CPU time before pacing: median {stats.median(setups):.4g} s",
        f"peak phase {PEAK_RATE:g}/s for {seconds * PEAK_SHARE:g}s: "
        f"{len(peak)} batches",
    ]
    if lags:
        notes.append(f"reload lag median {stats.median(lags) * 1000:.1f} ms "
                     f"over {len(lags)} replacements")
    out = {
        "attempted": session.attempted,
        "failed": session.failed,
        "checks": checks,
        "metrics": metrics,
        "raw": raw,
        "layers": {},
        "absent": [],
        "notes": notes,
    }
    if trace:
        notes.append(f"ladder knee (p99 <= {LIMIT_MS:g} ms, no growing "
                     f"backlog): {knee:.1f}/s")
        out["layers"], out["absent"] = _traced(paired, session, reloads, lags,
                                               knee, notes)
    return out


def _paired(seconds, blobs, traffic, oracle, workdir, untraced: Session):
    """Alternate one-second open-loop parts at the average rate between
    the untraced server and one with the layer spans installed, so that
    both meet the same host: a single shared 2-vCPU host moved the
    median latency of the same server 25-40% from run to run.
    Returns ``(traced session, traced requests, untraced requests,
    traced server report, traced /metrics text)``."""
    server = _start(blobs, workdir, "traced", True)
    traced = Session(server, traffic, oracle, Reloader(server.index_path, blobs))
    traced_requests, untraced_requests = [], []
    try:
        for _ in range(max(1, round(seconds * FIXED_SHARE / PAIRED_PART_S))):
            untraced_requests += untraced.open_loop("paired", FIXED_RATE,
                                                    PAIRED_PART_S)
            traced_requests += traced.open_loop("traced", FIXED_RATE,
                                                PAIRED_PART_S)
        prom = traced.metrics_text()
    finally:
        report = server.stop()
    return traced, traced_requests, untraced_requests, report, prom


def _traced(paired, untraced, reloads, lags, knee, notes):
    session, requests, untraced_requests, report, traced_prom = paired
    spans = report.get("spans") or {}
    handled = spans.get("serve.handle", [0.0, 0, 0.0])[1] or 1

    def self_s(name: str) -> float:
        return spans.get(name, [0.0])[0]

    def per_request_us(*names: str) -> float:
        return sum(self_s(name) for name in names) / handled * 1e6

    def mean_us(reqs) -> float:
        answered = [r.latency for r in reqs if r.done != math.inf]
        return sum(answered) / len(answered) * 1e6

    server_us = (spans.get("serve.handle", [0, 0, 0.0])[2]
                 + spans.get("obs.telemetry", [0, 0, 0.0])[2]) / handled * 1e6
    client_us = mean_us(requests)
    # Medians: a reload stalls a few batches by tens of milliseconds,
    # which moves the mean of a few hundred batches more than tracing does.
    traced_p50 = stats.median([r.latency for r in requests])
    untraced_p50 = stats.median([r.latency for r in untraced_requests])
    hits = prometheus_sum(traced_prom, "daas_serve_response_cache_hits")
    misses = prometheus_sum(traced_prom, "daas_serve_response_cache_misses")
    loads = spans.get("serve.load_index", [0.0, 0, 0.0])
    fusions = spans.get("risk.fusion", [0.0, 0])[1]
    notes.append(f"traced phase: {fusions} fusions for {session.indexed} "
                 f"indexed addresses screened")

    def phase(name: str, i: int) -> float:
        return untraced.phases.get(name, [0, 0])[i]

    layers = {
        "serve.handle_us": (per_request_us("serve.handle"), "us"),
        "serve.query_us": (per_request_us("serve.query"), "us"),
        "risk.fuse_us": (per_request_us("risk.fuse", "risk.fusion"), "us"),
        "risk.fused_share": (fusions / max(1, session.indexed), "ratio"),
        "serve.payload_us": (per_request_us("serve.payload"), "us"),
        "obs.telemetry_us": (per_request_us("obs.telemetry"), "us"),
        # The server's transport (reading, parsing and writing in the
        # event loop) has no synchronous public function to time, so the
        # wait is the remainder of the client latency.
        "serve.wait_us": (client_us - server_us, "us"),
        "serve.response_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "serve.load_index_ms": (loads[2] / loads[1] * 1000 if loads[1] else 0.0, "ms"),
        "py.gc_s": (self_s("py.gc") / handled, "s"),
        "gen.late_max_ms": (untraced.late_max * 1000, "ms"),
        "serve.reloads_ok": (reloads["ok"], "count"),
        "serve.reloads_error": (reloads["error"], "count"),
        "serve.reloads_timeout": (reloads["timeout"], "count"),
        "serve.rejected_429": (prometheus_sum(traced_prom,
                                              "daas_serve_rate_limited_total"), "count"),
        "serve.rejected_503": (prometheus_sum(traced_prom,
                                              "daas_serve_busy_rejections_total"), "count"),
        "gen.fixed_sent": (phase("fixed", 0), "count"),
        "gen.fixed_ok": (phase("fixed", 0) - phase("fixed", 1), "count"),
        "gen.fixed_failed": (phase("fixed", 1), "count"),
        "gen.peak_sent": (phase("peak", 0), "count"),
        "gen.peak_ok": (phase("peak", 0) - phase("peak", 1), "count"),
        "gen.peak_failed": (phase("peak", 1), "count"),
        "gen.saturation_sent": (phase("saturation", 0), "count"),
        "gen.saturation_ok": (phase("saturation", 0) - phase("saturation", 1), "count"),
        "gen.saturation_failed": (phase("saturation", 1), "count"),
        "gen.ladder_sent": (phase("ladder", 0), "count"),
        "gen.ladder_ok": (phase("ladder", 0) - phase("ladder", 1), "count"),
        "gen.ladder_failed": (phase("ladder", 1), "count"),
        "serve.max_rps": (knee, "1/s"),
        "trace.overhead_pct": ((traced_p50 / untraced_p50 - 1) * 100, "%"),
        # With the wait a remainder, the layers add up to the traced
        # latency by construction: on this workload the ratio checks
        # only that tracing left the median latency within the tolerance.
        "trace.attributed_ratio": (traced_p50 / untraced_p50, "ratio"),
    }
    if lags:
        layers["serve.reload_lag_ms"] = (stats.median(lags) * 1000, "ms")
    return layers, report.get("absent", [])
