"""Live operations for long-running detection: serve, snapshot, watch, alert.

The paper's website detection ran continuously for 17 months; PR 2's
observability is post-hoc (traces and metrics written at exit), which
leaves a wedged CT tail or a stalled snowball round invisible until the
process dies.  This package layers an *operations* plane on the existing
:class:`~repro.obs.Observability` handle:

* :class:`LiveOps`'s ops server — ``/metrics`` (Prometheus text),
  ``/healthz``, ``/readyz``, ``/statusz`` served by the query service's
  :class:`~repro.serve.aserver.AsyncIntelServer` transport with an
  ops-only route table, on a daemon thread;
* :class:`~repro.obs.live.snapshot.Snapshotter`   — timestamped registry
  snapshots appended to a JSONL time-series file on a cadence;
* :class:`~repro.obs.live.watchdog.Watchdog`      — stage heartbeats vs.
  deadlines; stalls degrade health and emit ``stage.stalled`` events;
* :class:`~repro.obs.live.alerts.AlertEngine`     — declarative
  threshold/ratio/absence rules loaded from JSON/TOML, evaluated each
  snapshot tick, surfaced on ``/statusz``.

:class:`LiveOps` bundles all four behind one handle, attached to an
``Observability`` via :meth:`LiveOps.start` — pipeline code reports
liveness through the unconditional ``obs.stage_started`` /
``obs.heartbeat`` shims and never imports this package.  The cardinal
rule is inherited from PR 2 and enforced by
``tests/obs/test_live_server.py``: the live layer NEVER perturbs
results — dataset JSON is byte-identical with it on or off.  Operator
documentation lives in ``docs/operations.md``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.live.alerts import AlertEngine, AlertRule, load_alert_rules, parse_alert_rules
from repro.obs.live.health import RunStatus
from repro.obs.live.snapshot import Snapshotter
from repro.obs.live.status import (
    LiveStatusError,
    load_status_source,
    render_live_status,
)
from repro.obs.live.watchdog import Watchdog
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.serve.aserver import AsyncIntelServer
from repro.serve.handler import ServeResponse, json_response

__all__ = [
    "AlertEngine",
    "AlertRule",
    "LiveOps",
    "LiveStatusError",
    "RunStatus",
    "Snapshotter",
    "Watchdog",
    "load_alert_rules",
    "load_status_source",
    "parse_alert_rules",
    "render_live_status",
]

#: The live endpoints, in the order a 404 body lists them.
ENDPOINTS = ("/metrics", "/healthz", "/readyz", "/statusz")


class LiveOps:
    """One run's live-operations bundle, attached to an Observability."""

    def __init__(
        self,
        obs,
        *,
        serve_port: int | None = None,
        host: str = "127.0.0.1",
        snapshot_path: str | None = None,
        snapshot_every: float = 1.0,
        alert_rules: list[AlertRule] | None = None,
        stage_deadline_s: float = 300.0,
        stage_deadlines: dict[str, float] | None = None,
        clock: Callable[[], float] = time.time,
        monotonic: Callable[[], float] = time.monotonic,
        before_tick: Callable[[], None] | None = None,
    ) -> None:
        self.obs = obs
        self.status = RunStatus(run_id=obs.run_id, clock=clock)
        self.watchdog = Watchdog(
            self.status,
            obs=obs,
            default_deadline_s=stage_deadline_s,
            deadlines=stage_deadlines,
            clock=monotonic,
        )
        self.alert_engine = (
            AlertEngine(alert_rules, obs=obs) if alert_rules else None
        )
        self.server: AsyncIntelServer | None = None
        if serve_port is not None:
            self._scrapes = {
                path: obs.metrics.counter(
                    "daas_live_scrapes_total",
                    help_text="HTTP requests served by the live endpoint, by path.",
                    path=path,
                )
                for path in ENDPOINTS + ("other",)
            }
            # No obs: the transport's own request telemetry stays out of
            # the run's registry, which is what these endpoints report.
            self.server = AsyncIntelServer(host=host, port=serve_port, routes={
                "/metrics": self._metrics,
                "/healthz": self._healthz,
                "/readyz": self._readyz,
                "/statusz": self._statusz,
                "*": self._not_found,
            })
        self.snapshotter = (
            Snapshotter(
                obs,
                snapshot_path,
                every_s=snapshot_every,
                status=self.status,
                watchdog=self.watchdog,
                alert_engine=self.alert_engine,
                clock=clock,
                before_tick=before_tick,
            )
            if snapshot_path
            else None
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, background: bool = True) -> "LiveOps":
        """Attach to the Observability, bind the server, start the
        snapshot cadence (``background=False`` skips the thread — callers
        then drive :meth:`tick` themselves, as the tests do)."""
        if self._started:
            return self
        self._started = True
        self.obs.live = self
        if self.server is not None:
            self.server.start()
            self.obs.event("live.serving", url=self.server.url, port=self.server.port)
        if self.snapshotter is not None and background:
            self.snapshotter.start()
        return self

    def stop(self) -> None:
        """Final snapshot tick, then tear the threads down and detach."""
        if not self._started:
            return
        if self.snapshotter is not None:
            self.snapshotter.stop(final_tick=True)
        if self.server is not None:
            self.server.stop()
        if self.obs.live is self:
            self.obs.live = None
        self._started = False

    def __enter__(self) -> "LiveOps":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- forwarding targets for the Observability shims ----------------------

    def stage_started(self, name: str) -> None:
        self.status.stage_started(name)
        self.watchdog.stage_started(name)

    def stage_finished(self, name: str) -> None:
        self.status.stage_finished(name)
        self.watchdog.stage_finished(name)

    def heartbeat(self, name: str | None = None) -> None:
        self.watchdog.beat(name)

    # -- the ops route table -------------------------------------------------

    def status_doc(self) -> dict[str, Any]:
        """The ``/statusz`` document; alert rules are re-evaluated, so it
        is current even without a snapshotter."""
        # Before the status snapshot, so a stall this probe detects is
        # reflected in the document it returns.
        self.watchdog.check()
        doc: dict[str, Any] = {
            "status": self.status.snapshot(),
            "watchdog": self.watchdog.snapshot(),
        }
        if self.alert_engine is not None:
            self.alert_engine.evaluate(self.obs.metrics)
            doc["alerts"] = self.alert_engine.snapshot()
            doc["firing"] = self.alert_engine.firing()
        return doc

    def _metrics(self, method: str, path: str) -> ServeResponse:
        self._scrapes[path].inc()
        return ServeResponse(200, self.obs.metrics.to_prometheus().encode("utf-8"),
                             PROMETHEUS_CONTENT_TYPE)

    def _healthz(self, method: str, path: str) -> ServeResponse:
        # Health is computed at probe time: no polling thread to wedge.
        self._scrapes[path].inc()
        self.watchdog.check()
        state = self.status.state
        return json_response(
            200 if state == "ok" else 503,
            {"status": state, "reasons": self.status.degraded_reasons()},
        )

    def _readyz(self, method: str, path: str) -> ServeResponse:
        self._scrapes[path].inc()
        ready = self.status.ready
        return json_response(200 if ready else 503, {"ready": ready})

    def _statusz(self, method: str, path: str) -> ServeResponse:
        self._scrapes[path].inc()
        return json_response(200, self.status_doc())

    def _not_found(self, method: str, path: str) -> ServeResponse:
        self._scrapes["other"].inc()
        return json_response(404, {"error": f"no such endpoint: {path}",
                                   "endpoints": list(ENDPOINTS)})

    def tick(self, now: float | None = None) -> dict[str, Any] | None:
        """Manual snapshot tick (no-op without a snapshotter)."""
        if self.snapshotter is None:
            if self.watchdog is not None:
                self.watchdog.check()
            if self.alert_engine is not None:
                self.alert_engine.evaluate(self.obs.metrics)
            return None
        return self.snapshotter.tick(now)
