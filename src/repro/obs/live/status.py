"""``daas-repro live-status`` — render a run's health from either source.

The subcommand accepts one *source* argument:

* an ``http(s)://`` URL — the ``/statusz`` document of a running
  :class:`~repro.obs.live.LiveOps` server is fetched (the path is added
  automatically when missing);
* a snapshot file written with ``--snapshot-out`` — the *last complete*
  record is used, so tailing a file that a live run is still appending
  to works.

Every failure mode (missing file, empty file, truncated record, server
unreachable, malformed document) raises :class:`LiveStatusError` with a
one-line message — the CLI prints it and exits 1, never a traceback.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["LiveStatusError", "load_status_source", "render_live_status"]


class LiveStatusError(RuntimeError):
    """A live-status source could not be read; message is one line."""


def fetch_status(url: str, timeout: float = 5.0) -> dict[str, Any]:
    """GET the /statusz document of a running metrics server."""
    import urllib.error
    import urllib.request

    if not url.rstrip("/").endswith("/statusz"):
        url = url.rstrip("/") + "/statusz"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        reason = getattr(exc, "reason", exc)
        raise LiveStatusError(f"cannot reach live server at {url}: {reason}") from None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        raise LiveStatusError(f"{url} did not return JSON") from None
    if not isinstance(doc, dict):
        raise LiveStatusError(f"{url} returned an unexpected document")
    return doc


def read_status_snapshot(path: str) -> dict[str, Any]:
    """The last complete record of a ``--snapshot-out`` JSONL file."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise LiveStatusError(
            f"cannot read snapshot file {path}: {exc.strerror}"
        ) from None
    records = [line for line in (l.strip() for l in lines) if line]
    if not records:
        raise LiveStatusError(f"empty snapshot file: {path}")
    for line in reversed(records):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # a partial trailing line while the run still writes
        if isinstance(record, dict) and "status" in record:
            return record
        raise LiveStatusError(
            f"{path} does not look like a snapshot file (no status records)"
        )
    raise LiveStatusError(f"truncated or corrupt snapshot file: {path}")


def load_status_source(source: str) -> dict[str, Any]:
    """Dispatch on the source shape: URL -> /statusz, else snapshot file."""
    if source.startswith(("http://", "https://")):
        return fetch_status(source)
    return read_status_snapshot(source)


def _fmt_uptime(seconds: float) -> str:
    seconds = int(seconds)
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours:d}:{minutes:02d}:{secs:02d}"


def render_live_status(doc: dict[str, Any]) -> str:
    """Human-readable health/progress/alerts block from either source's
    document (a /statusz response or one snapshot record)."""
    status = doc.get("status", {}) or {}
    lines = [
        f"run:     {status.get('run', doc.get('run', '?'))}",
        f"state:   {status.get('state', '?')}"
        + (f"  ({', '.join(status['degraded'])})" if status.get("degraded") else ""),
        f"ready:   {'yes' if status.get('ready') else 'no'}",
        f"uptime:  {_fmt_uptime(float(status.get('uptime_s', 0.0)))}",
        f"stage:   {status.get('stage') or '(idle)'}",
    ]
    if "seq" in doc:
        lines.append(f"snapshot: seq {doc['seq']} at ts {doc.get('ts')}")
    done = status.get("stages_done", [])
    if done:
        lines.append("stages done:")
        for entry in done:
            lines.append(f"  {entry.get('stage', '?'):<24} {entry.get('wall_s', 0.0):8.3f} s")
    alerts = doc.get("alerts")
    states = alerts.get("states", []) if isinstance(alerts, dict) else (alerts or [])
    if states:
        firing = [s for s in states if s.get("state") == "firing"]
        lines.append(f"alerts:  {len(firing)} firing / {len(states)} rules")
        for state in states:
            marker = "!" if state.get("state") == "firing" else " "
            value = state.get("value")
            shown = f"{value:.4g}" if isinstance(value, (int, float)) else "-"
            lines.append(
                f" {marker} {state.get('state', '?'):<7} {state.get('name', '?'):<28}"
                f" value={shown} [{state.get('severity', '?')}]"
            )
    else:
        lines.append("alerts:  none configured")
    return "\n".join(lines)
