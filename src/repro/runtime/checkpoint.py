"""Checkpoint/resume for dataset construction (kill-safe ``build-dataset``).

A multi-hour snowball run dies for boring reasons — node restart, OOM
kill, a stalled stage the watchdog flags and an operator terminates.
:class:`CheckpointManager` persists construction progress as versioned
JSON at stage boundaries (after the seed stage, then after every
snowball round), and ``build_dataset(..., resume=True)`` restores it so
the interrupted run finishes with **byte-identical** dataset JSON to an
uninterrupted one (``tests/runtime/test_checkpoint.py`` asserts this at
both the API and the CLI level).

The checkpoint file carries:

* ``schema_version`` — :data:`CHECKPOINT_SCHEMA_VERSION`; a mismatched
  file is refused with :class:`CheckpointError`, never half-read;
* ``params`` — the world fingerprint (scale/seed) the run was started
  with; resuming against a different world is refused;
* ``stage`` — ``"seed"`` or ``"snowball"``: how far the run got;
* ``dataset`` — the seed dataset payload (same shape as
  ``DaaSDataset.to_json``), plus the seed report/summary;
* ``snowball`` — the expander's own ``encode()`` (known sets, cursors,
  pending candidates and the next round's worklist) and the completed
  rounds' statistics, so expansion restarts exactly where it stopped
  instead of re-walking finished rounds.  The stream's ``stream``
  stage stores the same ``encode()`` between ticks.

Writes are atomic (temp file + ``os.replace``) so a kill *during* a
checkpoint leaves the previous one intact.  Activity is reported as
``checkpoint.*`` events and ``daas_checkpoint*`` metrics — catalogued
in ``docs/observability.md``, operator workflow in
``docs/reliability.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.runtime.atomicio import atomic_write_text

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "ResumeInfo",
]

CHECKPOINT_SCHEMA_VERSION = 2


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be used (bad schema/params)."""


@dataclass(frozen=True)
class ResumeInfo:
    """What checkpointing did for one ``build_dataset`` call."""

    path: str
    #: True when state was restored from an existing checkpoint.
    resumed: bool = False
    #: Stage the restored checkpoint was taken at ("seed" / "snowball").
    restored_stage: str | None = None
    #: Completed snowball rounds restored (0 on a fresh or seed-only resume).
    rounds_restored: int = 0
    #: Checkpoints written during this run.
    checkpoints_written: int = 0


class CheckpointManager:
    """Owns one checkpoint file for one ``build-dataset`` run."""

    def __init__(
        self,
        path: str | Path,
        params_key: dict[str, Any] | None = None,
        obs=None,
        clock=time.time,
    ) -> None:
        self.path = Path(path)
        #: World fingerprint stored in (and checked against) the file.
        self.params_key = dict(params_key or {})
        self._obs = obs
        self._clock = clock
        self.checkpoints_written = 0

    # -- write side ----------------------------------------------------------

    def save(self, stage: str, state: dict[str, Any]) -> None:
        """Atomically persist ``state`` for ``stage``; the previous
        checkpoint survives a kill mid-write."""
        payload = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "params": self.params_key,
            "stage": stage,
            "saved_ts": self._clock(),
            **state,
        }
        text = json.dumps(payload, indent=2)
        atomic_write_text(self.path, text)
        self.checkpoints_written += 1
        if self._obs is not None:
            self._obs.metrics.counter(
                "daas_checkpoints_total",
                help_text="Checkpoints written, by pipeline stage.",
                stage=stage,
            ).inc()
            self._obs.metrics.gauge(
                "daas_checkpoint_bytes",
                help_text="Size of the most recent checkpoint file.",
            ).set(float(len(text)))
            self._obs.event(
                "checkpoint.saved", stage=stage, path=str(self.path),
                bytes=len(text),
            )
            # A checkpoint is forward progress; feed the watchdog so a
            # long round with steady checkpoints is not flagged stalled.
            self._obs.heartbeat()

    def clear(self) -> None:
        """Remove the file after a successful run (nothing left to resume)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            return
        if self._obs is not None:
            self._obs.event("checkpoint.cleared", path=str(self.path))

    # -- read side -----------------------------------------------------------

    def load(self) -> dict[str, Any] | None:
        """The validated checkpoint payload, or ``None`` when no file
        exists (a fresh run).  Corrupt, wrong-schema, or wrong-world
        files raise :class:`CheckpointError` rather than silently
        producing a dataset from mismatched state."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} is not valid JSON: {exc}"
            ) from exc
        version = payload.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has schema_version {version!r}; "
                f"this build reads version {CHECKPOINT_SCHEMA_VERSION}"
            )
        stored = payload.get("params", {})
        if self.params_key and stored != self.params_key:
            raise CheckpointError(
                f"checkpoint {self.path} was taken for params {stored}, "
                f"but this run uses {self.params_key}"
            )
        if self._obs is not None:
            self._obs.event(
                "checkpoint.resumed", stage=payload.get("stage"),
                path=str(self.path),
                rounds=len(payload.get("snowball", {}).get("iterations", [])),
            )
        return payload

    # -- state codecs --------------------------------------------------------
    # The dataset/report shapes live in repro.core; the codecs stay here
    # so core stays persistence-free and the schema has one home.

    @staticmethod
    def encode_dataset(dataset) -> dict[str, Any]:
        return json.loads(dataset.to_json())

    @staticmethod
    def decode_dataset(payload: dict[str, Any]):
        from repro.core.dataset import DaaSDataset

        return DaaSDataset.from_json(json.dumps(payload))

    @staticmethod
    def encode_seed_report(report) -> dict[str, Any]:
        return asdict(report)

    @staticmethod
    def decode_seed_report(payload: dict[str, Any]):
        from repro.core.seed import SeedReport

        return SeedReport(**payload)
