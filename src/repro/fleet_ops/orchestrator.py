"""Fleet-scale orchestration of Seagull pipeline runs.

The seed pipeline processes one region's weekly extract per call; in
production Seagull runs per region across the entire cloud fleet
(Section 2.1: "all regions of the entire cloud infrastructure").  The
orchestrator closes that gap: it shards ``(region, week)`` work units
across a shared :class:`~repro.parallel.executor.PartitionedExecutor`,
runs the full pipeline on each unit, and consolidates the per-unit
results into one :class:`~repro.fleet_ops.report.FleetReport`.

Two cache layers make re-runs cheap:

* a **unit-level outcome cache** keyed by the raw extract fingerprint --
  an unchanged extract skips ingestion, parsing and every pipeline stage;
* the pipeline's **stage-level artifact cache** (features, train/infer,
  evaluation) keyed by extract content hash -- a changed configuration
  reuses whichever stages its parameters do not touch.

Both layers live in per-unit files under ``cache_dir``, so process-pool
workers never contend on a shared cache file and warm re-runs work across
operating-system processes.  A cold unit writes its cache file once (all
of its puts share one :meth:`~repro.storage.documentdb.DocumentStore.
batch`); a warm unit writes nothing.

The unit of worker handoff is ``(lake handle, ExtractQuery)``: every task
carries the lake's root path plus a typed query pinned to its ``(region,
week)`` partition, and the worker re-opens the lake and reads only its
shard.  Whole extract payloads never cross the process boundary -- an
in-memory lake is spilled once to a coordinator-owned on-disk lake (same
bytes, so unit fingerprints are unchanged) and workers read from that,
which keeps coordinator RSS flat however large the fleet is.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.incidents import IncidentManager
from repro.core.pipeline import SeagullPipeline
from repro.core.stage_cache import STAGE_UNIT_OUTCOME
from repro.fleet_ops.report import FleetReport, FleetUnitOutcome
from repro.parallel.executor import (
    MAX_FLEET_WORKERS,
    ExecutionBackend,
    PartitionedExecutor,
    recommended_fleet_workers,
)
from repro.storage.artifacts import ArtifactStore, artifact_key, open_backing_store
from repro.storage.datalake import DataLakeStore, ExtractKey, ExtractNotFoundError
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import MINUTES_PER_DAY
from repro.timeseries.frame import LoadFrame


#: Config fields that change *how* a unit is computed, not *what* it
#: computes -- they must not invalidate cached outcomes.
_EXECUTION_ONLY_FIELDS = ("executor_backend", "n_workers")


def _unit_cache_params(config: PipelineConfig) -> dict[str, Any]:
    """Configuration fingerprint for the whole-unit outcome cache."""
    params = config.as_dict()
    for field_name in _EXECUTION_ONLY_FIELDS:
        params.pop(field_name, None)
    return params


def unit_cache_path(cache_dir: str | Path, region: str, week: int) -> Path:
    """Cache file for one ``(region, week)`` unit (one file per unit, so
    parallel workers never write the same file)."""
    return Path(cache_dir) / f"unit_{region}_week{week:04d}.json"


@dataclass(frozen=True)
class _UnitTask:
    """Everything a (possibly out-of-process) worker needs for one unit.

    Deliberately tiny and payload-free: a lake *handle* (the root path --
    for in-memory lakes, the coordinator's spill directory) plus the
    typed :class:`~repro.storage.query.ExtractQuery` describing the
    unit's shard.  The worker re-opens the lake and runs the query
    itself; format negotiation (``.sgx`` preferred, damaged ``.sgx``
    degrades to a co-located CSV) happens inside the worker's own
    :class:`DataLakeStore`.
    """

    region: str
    week: int
    config: PipelineConfig
    lake_root: str
    query: ExtractQuery
    cache_dir: str | None = None
    #: Committed manifest generation the worker pins its lake handle to:
    #: every unit of one fleet run reads the same immutable snapshot,
    #: however the live lake moves underneath it.
    generation: int | None = None


def _failed_outcome(task: _UnitTask, reason: str, wall: float) -> FleetUnitOutcome:
    return FleetUnitOutcome(
        region=task.region,
        week=task.week,
        run_id="",
        succeeded=False,
        abort_reason=reason,
        timings={},
        summary=None,
        n_servers=0,
        n_predictions=0,
        n_predictable=0,
        incidents=[
            {
                "severity": "critical",
                "source": "data_ingestion",
                "message": reason,
                "region": task.region,
            }
        ],
        cache_events={},
        wall_seconds=wall,
    )


def _shard_load(frame: LoadFrame) -> dict[str, Any]:
    """The unit's load rollup, folded from the frame it already read: rows,
    distinct days, sample-weighted mean and peak over every server."""
    series = [s for _server_id, _metadata, s in frame.items() if len(s)]
    if not series:
        return {"rows": 0, "days": 0, "mean_load": 0.0, "peak_load": 0.0}
    values = np.concatenate([s.values for s in series])
    days = np.concatenate([s.timestamps for s in series]) // MINUTES_PER_DAY
    return {
        "rows": int(values.shape[0]),
        "days": int(np.unique(days).shape[0]),
        "mean_load": float(values.sum()) / values.shape[0],
        "peak_load": float(values.max()),
    }


def _execute_unit(task: _UnitTask) -> FleetUnitOutcome:
    """Run the pipeline for one ``(region, week)`` unit.

    Module-level so the process-pool backend can pickle it.  The unit's
    artifact cache is opened from ``task.cache_dir`` inside the worker --
    cache objects never cross process boundaries.
    """
    started = time.perf_counter()
    key = ExtractKey(region=task.region, week=task.week)
    lake = DataLakeStore(task.lake_root, pinned_generation=task.generation)

    # Fingerprint the raw extract bytes (no parsing yet).  The digest
    # covers the stored representation, so converting a lake to .sgx
    # refreshes unit fingerprints while stage-cache keys (frame content
    # hashes) stay valid.
    try:
        fingerprint = lake.extract_fingerprint(key)
    except ExtractNotFoundError:
        return _failed_outcome(
            task,
            f"missing input extract for {task.region} week {task.week}",
            time.perf_counter() - started,
        )

    if task.cache_dir is None:
        return _compute_unit(task, lake, None, "", started)
    # One batch per unit: the container create, the pipeline's three stage
    # puts and the outcome put share a single cache-file write; a warm
    # unit (every lookup a hit) writes nothing.
    documents = open_backing_store(unit_cache_path(task.cache_dir, task.region, task.week))
    with documents.batch():
        cache = ArtifactStore(documents)
        unit_key = artifact_key(STAGE_UNIT_OUTCOME, fingerprint, _unit_cache_params(task.config))
        payload = cache.get(unit_key)
        if payload is not None:
            outcome: FleetUnitOutcome | None
            try:
                outcome = FleetUnitOutcome.from_payload(payload)
            except Exception:
                outcome = None
            if outcome is not None:
                return outcome.as_cache_hit(time.perf_counter() - started)
        return _compute_unit(task, lake, cache, unit_key, started)


def _compute_unit(
    task: _UnitTask,
    lake: DataLakeStore,
    cache: ArtifactStore | None,
    unit_key: str,
    started: float,
) -> FleetUnitOutcome:
    """The unit-cache miss path: ingest the shard, run the pipeline
    (stage lookups and puts go through ``cache``) and, on success, cache
    the outcome under ``unit_key``."""
    key = ExtractKey(region=task.region, week=task.week)
    # The worker answers its own shard's query against its own lake handle.
    ingest_started = time.perf_counter()
    try:
        answer = lake.query(task.query)
    except (ExtractNotFoundError, ValueError) as exc:
        return _failed_outcome(task, f"unreadable extract for {key}: {exc}", time.perf_counter() - started)
    frame = answer.frame
    ingest_seconds = time.perf_counter() - ingest_started

    incidents = IncidentManager()
    pipeline = SeagullPipeline(
        task.config,
        incident_manager=incidents,
        artifact_cache=cache,
    )
    result = pipeline.run(frame, region=task.region, week=task.week)
    # run() only counts a manifest check for pre-loaded frames; charge the
    # real parse cost to data_ingestion so fleet runtimes stay honest.
    result.timings["data_ingestion"] = ingest_seconds

    # Predictions flow through the unit's serving layer; roll its health
    # (version routing, request/cache counters) into the fleet report.
    serving = (
        pipeline.serving.health(task.region) if result.model_record is not None else {}
    )

    outcome = FleetUnitOutcome(
        region=task.region,
        week=task.week,
        run_id=result.run_id,
        succeeded=result.succeeded,
        abort_reason=result.abort_reason,
        timings=dict(result.timings),
        summary=result.summary.as_dict() if result.summary is not None else None,
        n_servers=len(frame),
        n_predictions=len(result.predictions),
        n_predictable=sum(1 for v in result.predictability.values() if v.predictable),
        incidents=[incident.as_dict() for incident in incidents.incidents()],
        cache_events=dict(result.cache_events),
        wall_seconds=time.perf_counter() - started,
        serving=serving,
        scan=answer.stats.as_dict(),
        load=_shard_load(frame),
    )
    if cache is not None and result.succeeded:
        cache.put(unit_key, outcome.to_payload())
    return outcome


class FleetOrchestrator:
    """Runs the Seagull pipeline over many ``(region, week)`` extracts.

    Parameters
    ----------
    lake:
        Extract store holding the fleet's weekly extracts.  Disk-backed
        lakes are handed to workers by root path; in-memory lakes are
        spilled (byte-identical, both stored formats) to a
        coordinator-owned temporary on-disk lake that workers re-open --
        whole extract payloads never ride along inside tasks, with any
        backend.
    config:
        Pipeline configuration applied to every unit.
    backend / n_workers / executor:
        How units are sharded.  Passing an ``executor`` shares one worker
        pool across successive :meth:`run` calls; otherwise the
        orchestrator creates (and owns) one from ``backend``/``n_workers``
        at the first :meth:`run`, defaulting ``n_workers`` to
        :func:`~repro.parallel.executor.recommended_fleet_workers` for the
        unit count being sharded.
    cache_dir:
        Directory for per-unit artifact caches.  ``None`` disables
        caching.
    principal:
        Principal presented to the lake's access checks (required for
        lakes constructed with ``granted_principals``).  Out-of-process
        workers reopen disk lakes from the root path without the
        allow-list, so enforcement happens here at the coordinator.
    """

    def __init__(
        self,
        lake: DataLakeStore,
        config: PipelineConfig | None = None,
        backend: ExecutionBackend | str = ExecutionBackend.SERIAL,
        n_workers: int | None = None,
        executor: PartitionedExecutor | None = None,
        cache_dir: str | Path | None = None,
        principal: str | None = None,
    ) -> None:
        self._lake = lake
        self._principal = principal
        self._config = config if config is not None else PipelineConfig()
        self._backend = backend
        self._n_workers = n_workers
        self._executor = executor
        self._owns_executor = executor is None
        self._cache_dir = str(cache_dir) if cache_dir is not None else None
        if self._cache_dir is not None:
            Path(self._cache_dir).mkdir(parents=True, exist_ok=True)
        self._spill_dir: str | None = None
        #: What each spilled key's stored copies looked like when spilled:
        #: key -> tuple of (format, sha256 of bytes).  Re-runs skip the
        #: disk rewrite for keys whose stored bytes are unchanged.
        self._spill_signatures: dict[ExtractKey, tuple[tuple[str, str], ...]] = {}

    def _make_executor(self, n_units: int | None) -> PartitionedExecutor:
        n_workers = self._n_workers
        backend = (
            ExecutionBackend(self._backend)
            if isinstance(self._backend, str)
            else self._backend
        )
        if n_workers is None and backend is not ExecutionBackend.SERIAL:
            # Unknown unit count (pool built before the first run) still
            # gets the CPU/cap bounds; a known count tightens it further.
            n_workers = recommended_fleet_workers(
                n_units if n_units is not None else MAX_FLEET_WORKERS
            )
        return PartitionedExecutor(backend, n_workers)

    @property
    def executor(self) -> PartitionedExecutor:
        if self._executor is None:
            self._executor = self._make_executor(None)
        return self._executor

    @property
    def config(self) -> PipelineConfig:
        return self._config

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the worker pool (if owned) and any spill directory."""
        if self._owns_executor and self._executor is not None:
            self._executor.close()
        if self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._spill_signatures.clear()

    def __enter__(self) -> "FleetOrchestrator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #

    def _spill_to_disk(self, units: list[ExtractKey]) -> str:
        """Materialise an in-memory lake's extracts as an on-disk lake.

        Byte-identical copies of every stored format are written (so unit
        fingerprints -- sha256 of stored bytes -- and the lake's
        damaged-``.sgx``-degrades-to-CSV behaviour are preserved), and
        stale spill copies of removed extracts are dropped.  Workers then
        re-open the spill directory like any disk lake: the coordinator
        never ships payload bytes through the executor, which is what
        keeps its RSS flat for very large fleets.

        Re-runs stay cheap: a key whose stored bytes are unchanged since
        it was last spilled (hashing the in-memory bytes is CPU-only) is
        not rewritten to disk, so a fully warm run spills nothing.
        """
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="seagull-spill-")
        spill = DataLakeStore(self._spill_dir)
        for key in units:
            formats = self._lake.extract_formats(key, principal=self._principal)
            payloads: list[tuple[str, bytes]] = [
                (
                    fmt,
                    self._lake.read_extract_bytes(key, principal=self._principal, fmt=fmt)[1],
                )
                for fmt in formats
            ]
            signature = tuple(
                (fmt, hashlib.sha256(payload).hexdigest()) for fmt, payload in payloads
            )
            if self._spill_signatures.get(key) == signature:
                continue  # byte-identical since last spill: no disk rewrite
            spill.delete_extract(key)  # drop stale copies from earlier runs
            for fmt, payload in payloads:
                spill.write_extract_bytes(key, fmt, payload, keep_other_formats=True)
            self._spill_signatures[key] = signature
        return self._spill_dir

    def _task_for(
        self, key: ExtractKey, lake_root: str, generation: int
    ) -> _UnitTask:
        return _UnitTask(
            region=key.region,
            week=key.week,
            config=self._config,
            lake_root=lake_root,
            query=ExtractQuery.for_key(
                key, interval_minutes=self._config.interval_minutes
            ),
            cache_dir=self._cache_dir,
            generation=generation,
        )

    def run(self, units: list[ExtractKey] | None = None) -> FleetReport:
        """Process ``units`` (default: every extract in the lake).

        Units are sharded across the executor as ``(lake handle,
        ExtractQuery)`` tasks; the consolidated report covers successes,
        failures (missing/invalid extracts become failed outcomes plus
        incident entries, they never abort the fleet run), cache activity
        and scan/pushdown statistics.
        """
        started = time.perf_counter()
        # Enforced here for explicit unit lists too: disk workers reopen
        # the lake without the allow-list, so the coordinator is the gate.
        self._lake.check_access(self._principal)
        if units is None:
            units = self._lake.list_extracts(principal=self._principal)
        units = sorted(units)
        root = self._lake.root
        lake_root = str(root) if root is not None else self._spill_to_disk(units)
        # Pin the whole run to the lake's current committed generation:
        # every worker reads the same immutable snapshot, so a writer
        # publishing mid-run cannot make two units disagree about the
        # lake's contents.  (Spill lakes get their generation from the
        # spill directory's own manifest.)
        if root is not None:
            generation = self._lake.current_generation(principal=self._principal)
        else:
            generation = DataLakeStore(lake_root).current_generation()
        tasks = [self._task_for(key, lake_root, generation) for key in units]
        if self._executor is None:
            # Deferred so the owned pool can be sized by the fleet
            # heuristic for the actual unit count; later runs reuse it.
            self._executor = self._make_executor(len(tasks))
        outcomes = self._executor.map(_execute_unit, tasks)
        return FleetReport(
            outcomes=list(outcomes),
            backend=self._executor.backend.value,
            n_workers=self._executor.n_workers,
            wall_seconds=time.perf_counter() - started,
            lake_generation=generation,
        )
