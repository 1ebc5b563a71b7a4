"""Run manifests: what a pipeline run did, serialized to JSON.

A :class:`RunManifest` is the durable record of one run: the command and
its configuration, the shard plan, per-stage wall times from the tracer,
and the full sample accounting from the metrics registry. The JSON layout
keeps *data facts* and *execution facts* in separate sections:

- ``counters`` / ``gauges`` — properties of the input data. A sharded run
  must produce these byte-identical to a serial run on the same seed (the
  counter-equality invariant; see ``repro.obs``).
- ``stages`` / ``timers`` / ``shard_plan`` — properties of this execution:
  wall times and partitioning, expected to differ across plans.
- ``degraded`` / ``streaming`` / ``serving`` / ``dist`` — what this
  execution lost to quarantined shards, streamed, served and dispatched:
  each a summary of its counters, all declared in one table
  (``_SUMMARY_SECTIONS``), and ``{}`` for a run that did no such work.

The format is versioned; :meth:`RunManifest.read` rejects manifests from a
different format version rather than misinterpreting them.
"""

from __future__ import annotations

import json
import pathlib
import platform
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = ["MANIFEST_FORMAT_VERSION", "RunManifest"]

MANIFEST_FORMAT_VERSION = 1

PathLike = Union[str, pathlib.Path]

#: Counter namespaces that constitute the run's sample accounting — the
#: read / filtered / Gtestable / achieved / coalesced / dropped ledger a
#: reader checks first (see :meth:`RunManifest.sample_accounting`).
_ACCOUNTING_PREFIXES = ("pipeline.", "methodology.", "core.", "io.")


#: The execution-summary sections, each ``{summary key: counter}``: what
#: a run lost to quarantined shards (``fault.*``, DESIGN.md §9), did as a
#: streaming ingest (``stream.*``, §11), served (``serve.*``, §12) and
#: dispatched to workers (``dist.*``, §13). A section none of whose
#: counters fired is ``{}``, so a run that did no such work writes the
#: manifest it wrote before the section existed.
_SUMMARY_SECTIONS = {
    "degraded": {
        "shards_lost": "fault.shards_quarantined",
        "samples_lost": "fault.samples_lost",
        "partitions_skipped": "fault.partitions_skipped",
        "retries": "fault.shard_retries",
    },
    "streaming": {
        "windows_sealed": "stream.windows.sealed",
        "windows_empty": "stream.windows.empty",
        "samples_sealed": "stream.samples.sealed",
        "late_samples": "stream.late_samples",
        "alerts": "stream.alerts",
    },
    "serving": {
        "requests": "serve.requests",
        "responses_ok": "serve.responses.ok",
        "responses_client_error": "serve.responses.client_error",
        "responses_server_error": "serve.responses.server_error",
        "cache_hits": "serve.cache.hits",
        "cache_misses": "serve.cache.misses",
        "cache_evictions": "serve.cache.evictions",
        "cache_invalidations": "serve.cache.invalidations",
        "quarantined": "serve.quarantined",
    },
    "dist": {
        "workers_connected": "dist.workers.connected",
        "workers_unreachable": "dist.workers.unreachable",
        "workers_lost": "dist.workers.lost",
        "tasks_dispatched": "dist.tasks.dispatched",
        "tasks_completed": "dist.tasks.completed",
        "tasks_reassigned": "dist.tasks.reassigned",
        "tasks_stranded": "dist.tasks.stranded",
        "remote_failures": "dist.remote_failures",
        "bytes_sent": "dist.bytes.sent",
        "bytes_received": "dist.bytes.received",
    },
}


def _summaries(counters: Dict[str, int]) -> Dict[str, Dict[str, object]]:
    """Each :data:`_SUMMARY_SECTIONS` section summarized from ``counters``."""
    summaries = {}
    for section, names in _SUMMARY_SECTIONS.items():
        summary = {key: counters.get(name, 0) for key, name in names.items()}
        summaries[section] = summary if any(summary.values()) else {}
    return summaries


@dataclass
class RunManifest:
    """One run's configuration, accounting, and timing record."""

    command: str
    config: Dict[str, object] = field(default_factory=dict)
    shard_plan: Dict[str, object] = field(default_factory=dict)
    stages: List[dict] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, dict] = field(default_factory=dict)
    exit_code: Optional[int] = None
    python_version: str = field(default_factory=platform.python_version)
    #: The execution summaries, each keyed as ``_SUMMARY_SECTIONS`` says:
    #: quarantined shards and retries (empty for a clean run), streaming
    #: ingest, query serving and dispatch (each empty for a run without).
    degraded: Dict[str, object] = field(default_factory=dict)
    streaming: Dict[str, object] = field(default_factory=dict)
    serving: Dict[str, object] = field(default_factory=dict)
    dist: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        command: str,
        config: Optional[Dict[str, object]] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        shard_plan: Optional[Dict[str, object]] = None,
        exit_code: Optional[int] = None,
    ) -> "RunManifest":
        """Snapshot a registry and tracer into a manifest, its summary
        sections derived from the registry's counters."""
        snapshot = registry.to_dict() if registry is not None else {}
        counters = snapshot.get("counters", {})
        return cls(
            command=command,
            config=dict(config or {}),
            shard_plan=dict(shard_plan or {}),
            stages=tracer.stage_table() if tracer is not None else [],
            counters=counters,
            gauges=snapshot.get("gauges", {}),
            timers=snapshot.get("timers", {}),
            exit_code=exit_code,
            **_summaries(counters),
        )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def sample_accounting(self) -> Dict[str, int]:
        """The data-fact counters (pipeline/methodology/core/io namespaces)."""
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith(_ACCOUNTING_PREFIXES)
        }

    def stage_names(self) -> List[str]:
        return [stage["stage"] for stage in self.stages]

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "command": self.command,
            "config": self.config,
            "shard_plan": self.shard_plan,
            "stages": self.stages,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "timers": dict(sorted(self.timers.items())),
            "exit_code": self.exit_code,
            "python_version": self.python_version,
            **{
                section: dict(getattr(self, section))
                for section in _SUMMARY_SECTIONS
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        version = payload.get("format_version")
        if version != MANIFEST_FORMAT_VERSION:
            raise ValueError(f"unsupported manifest format version {version!r}")
        return cls(
            command=payload["command"],
            config=dict(payload.get("config", {})),
            shard_plan=dict(payload.get("shard_plan", {})),
            stages=list(payload.get("stages", [])),
            counters={k: int(v) for k, v in payload.get("counters", {}).items()},
            gauges={k: float(v) for k, v in payload.get("gauges", {}).items()},
            timers=dict(payload.get("timers", {})),
            exit_code=payload.get("exit_code"),
            python_version=payload.get("python_version", ""),
            **{
                section: dict(payload.get(section, {}))
                for section in _SUMMARY_SECTIONS
            },
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: PathLike) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def read(cls, path: PathLike) -> "RunManifest":
        return cls.from_dict(
            json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        )
