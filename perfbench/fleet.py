"""``fleet_cold``: the paper's daily batch pipeline.

The fleet -- 3 regions of (16, 10, 6) servers, two weekly extracts each of
a 4-week horizon, ``seasonal_additive`` -- runs serially through
:class:`FleetOrchestrator` on a lake built with the library's default
extract format (CSV today): one cold run on a fresh cache dir, then warm
re-runs answered from the unit cache.  Storage read/parse, the per-unit
rollup re-read and the model fit share the cold run; the executor is idle.

Each round builds a fresh lake (the set-up), then runs cold + warm.  The
traced run also drives every unit through the same public calls the
orchestrator makes, one span per call.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from harness import Context, Outcome, close, dir_stats, peak_rss_mb, percentile, repeat_rounds

from repro.core.config import PipelineConfig
from repro.core.pipeline import PIPELINE_COMPONENTS, SeagullPipeline
from repro.fleet_ops.orchestrator import FleetOrchestrator
from repro.fleet_ops.synthesis import populate_lake
from repro.storage.datalake import DataLakeStore
from repro.storage.query import ExtractQuery
from repro.telemetry.fleet import FLEET_CLASS_MIX, FleetSpec, ServerClass, default_fleet_spec
from repro.telemetry.generator import WorkloadGenerator

MODEL = "seasonal_additive"
HORIZON_WEEKS = 4
FULL = {"servers": (16, 10, 6), "weeks": 2}
TINY = {"servers": (3, 2), "weeks": 1}
#: Warm re-runs per round (each a cache hit for every unit).
WARM_RERUNS = 40
#: Float tolerance for accuracy-summary fields against the reference.
SUMMARY_ABS_TOL = 1e-6

REFERENCE_PATH = Path(__file__).resolve().parent / "fleet_reference.json"

#: Pipeline stage timing -> per-layer metric.
STAGE_METRICS = {
    "data_validation": "pipeline.validation_s",
    "feature_extraction": "pipeline.features_s",
    "model_training": "pipeline.training_s",
    "inference": "pipeline.inference_s",
    "accuracy_evaluation": "pipeline.evaluation_s",
}


def equal_work_spec(servers: tuple[int, ...], weeks: int, seed: int) -> FleetSpec:
    """The fleet for ``seed``: the first spec seed ``seed * 1000 + k`` whose
    extracts hold exactly the class mix's expected number of long-lived
    servers.  Only long-lived servers get a model fitted, so this holds the
    work of a run constant across seeds (unconstrained, the fitted count
    varies by +-19% between seeds and no fleet timing is steady)."""
    long_lived_share = 1.0 - FLEET_CLASS_MIX[ServerClass.SHORT_LIVED]
    target = round(long_lived_share * sum(servers) * weeks)
    for k in itertools.count():
        spec = default_fleet_spec(servers_per_region=servers, weeks=HORIZON_WEEKS,
                                  seed=seed * 1000 + k)
        generator = WorkloadGenerator(spec)
        long_lived = sum(
            meta.true_class != ServerClass.SHORT_LIVED.value
            for region in spec.regions for week in range(weeks)
            for _sid, meta, _series in generator.generate_weekly_extract(region, week).items()
        )
        if long_lived == target:
            return spec
    raise AssertionError("unreachable")


def reference_key(servers: tuple[int, ...], weeks: int, seed: int) -> str:
    return f"{','.join(map(str, servers))}|w{weeks}|seed{seed}"


def load_reference(servers: tuple[int, ...], weeks: int, seed: int) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(reference_key(servers, weeks, seed))


def unit_record(n_predictions: int, n_predictable: int, summary: dict | None) -> dict:
    return {"n_predictions": n_predictions, "n_predictable": n_predictable, "summary": summary}


def compare_units(ctx: Context, label: str, got: dict[str, dict], want: dict[str, dict]) -> None:
    """One check per unit: counts exact, summary within ``SUMMARY_ABS_TOL``."""
    ctx.checks.op(sorted(got) == sorted(want), f"{label}: units {sorted(got)} != {sorted(want)}")
    for unit, expected in want.items():
        actual = got.get(unit)
        ok = actual is not None and all(
            actual[k] == expected[k] for k in ("n_predictions", "n_predictable")
        )
        if ok:
            a, b = actual["summary"] or {}, expected["summary"] or {}
            ok = sorted(a) == sorted(b) and all(close(a[k], b[k], 0.0, SUMMARY_ABS_TOL) for k in b)
        ctx.checks.op(ok, f"{label}: unit {unit} got {actual} want {expected}")


def report_units(report) -> dict[str, dict]:
    return {
        f"{o.region}/w{o.week}": unit_record(o.n_predictions, o.n_predictable, o.summary)
        for o in report.outcomes
    }


def _comparable(outcome) -> tuple:
    """A unit outcome minus timings and cache bookkeeping.  A unit with no
    evaluable windows has NaN shares in its summary; they become None so
    that equal summaries compare equal."""
    summary = outcome.summary and {
        k: None if isinstance(v, float) and math.isnan(v) else v
        for k, v in outcome.summary.items()}
    return (outcome.region, outcome.week, outcome.succeeded, outcome.abort_reason,
            summary, outcome.n_servers, outcome.n_predictions,
            outcome.n_predictable, outcome.incidents, outcome.scan, outcome.load)


def check_report(ctx: Context, label: str, report, n_units: int) -> None:
    ctx.checks.op(report.n_units == n_units and report.n_failed == 0,
                  f"{label}: {report.n_failed} of {report.n_units} units failed "
                  f"(want {n_units} ok)")


def drive_units(
    lake_root: Path, generation: int, config: PipelineConfig, ctx: Context
) -> dict[str, dict]:
    """Run every unit through the public calls the orchestrator makes,
    recording one span per call: pinned open, fingerprint, row query,
    aggregate query, pipeline run (with its returned stage timings as
    child spans).  Returns per-unit records for the output checks."""
    tracer = ctx.tracer
    records: dict[str, dict] = {}
    for key in DataLakeStore(lake_root).list_extracts():
        op = f"{key.region}/w{key.week}"
        with tracer.span("fleet.unit", op):
            with tracer.span("manifest.open", op):
                store = DataLakeStore(lake_root, pinned_generation=generation)
            with tracer.span("storage.fingerprint", op):
                store.extract_fingerprint(key)
            query = ExtractQuery.for_key(key, interval_minutes=config.interval_minutes)
            with tracer.span("storage.query", op) as span:
                answer = store.query(query)
            span.attrs.update(answer.stats.as_dict())
            with tracer.span("storage.rollup", op) as span:
                agg = store.query(ExtractQuery.for_key(
                    key, interval_minutes=config.interval_minutes,
                    aggregates=("count", "mean", "max"), group_by=("day",)))
            span.attrs.update(agg.stats.as_dict())
            with tracer.span("pipeline.run", op):
                started = time.perf_counter()
                result = SeagullPipeline(config).run(answer.frame, region=key.region, week=key.week)
                cursor = started
                for stage in PIPELINE_COMPONENTS:
                    if stage in result.timings and stage != "data_ingestion":
                        tracer.add(f"pipeline.{stage}", op, cursor, cursor + result.timings[stage])
                        cursor += result.timings[stage]
        ctx.checks.op(result.succeeded, f"{op}: pipeline aborted: {result.abort_reason}")
        records[op] = unit_record(
            len(result.predictions),
            sum(1 for v in result.predictability.values() if v.predictable),
            result.summary.as_dict() if result.summary is not None else None,
        )
    return records


class FleetWorkload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        size = TINY if ctx.tiny else FULL
        self.servers: tuple[int, ...] = size["servers"]
        self.weeks: int = size["weeks"]
        self.n_units = len(self.servers) * self.weeks
        self.config = PipelineConfig(model_name=MODEL)
        self.spec = equal_work_spec(self.servers, self.weeks, ctx.seed)
        self.reference = load_reference(self.servers, self.weeks, ctx.seed)
        #: Process peak RSS when the last fleet was torn down.
        self.last_rss = 0.0

    # -- set-up ---------------------------------------------------------- #

    @contextmanager
    def fresh_fleet(self, name: str):
        """Set-up: a fresh lake; yields ``(lake, setup seconds)`` and
        removes the lake on exit."""
        started = time.perf_counter()
        root = self.ctx.work / name
        lake = DataLakeStore(root)
        populate_lake(lake, self.spec, weeks=range(self.weeks))
        setup_s = time.perf_counter() - started
        try:
            yield lake, setup_s
        finally:
            self.last_rss = peak_rss_mb()
            shutil.rmtree(root, ignore_errors=True)

    def orchestrate(self, lake, cache: str) -> FleetOrchestrator:
        return FleetOrchestrator(lake, self.config, cache_dir=self.ctx.work / cache)

    def check_cold(self, report, label: str) -> None:
        check_report(self.ctx, label, report, self.n_units)
        if self.reference is not None:
            compare_units(self.ctx, f"{label} vs stored reference", report_units(report),
                          self.reference)

    def check_warm(self, cold, warm, label: str) -> None:
        check_report(self.ctx, label, warm, self.n_units)
        self.ctx.checks.op(
            warm.cache_summary()["unit_hits"] == self.n_units
            and [_comparable(o) for o in warm.outcomes] == [_comparable(o) for o in cold.outcomes],
            f"{label}: warm report differs from the cold one beyond timings",
        )

    # -- untraced -------------------------------------------------------- #

    def round(self, index: int) -> dict:
        with (self.fresh_fleet(f"lake{index}") as (lake, setup_s),
              self.orchestrate(lake, f"cache{index}") as orchestrator):
            cold = orchestrator.run()
            warms = [orchestrator.run() for _ in range(WARM_RERUNS)]
        self.check_cold(cold, f"round {index} cold")
        for warm in warms:
            self.check_warm(cold, warm, f"round {index} warm")
        return {
            "units": report_units(cold),
            "setup_s": setup_s,
            "rss": self.last_rss,
            "cold_s": cold.wall_seconds,
            "warm_s": [w.wall_seconds for w in warms],
            "per_model_s": [o.wall_seconds / o.n_predictions
                            for o in cold.outcomes if o.n_predictions],
        }

    def direct_reference(self) -> dict[str, dict]:
        """For a seed the stored reference lacks: every unit driven through
        the orchestrator's public calls on a fresh lake, outside timing."""
        with self.fresh_fleet("lake-reference") as (lake, _setup_s):
            return drive_units(lake.root, lake.current_generation(), self.config, self.ctx)

    @staticmethod
    def slots(rounds: list[dict]) -> dict[str, float]:
        """The end-to-end metrics over ``rounds`` (a whole run, or one round)."""
        return {
            "setup_s": median([r["setup_s"] for r in rounds]),
            "peak_rss_mb": rounds[-1]["rss"],
            "cold_ms": median([r["cold_s"] for r in rounds]) * 1e3,
            "op_p50_ms": percentile([s for r in rounds for s in r["per_model_s"]], 50) * 1e3,
        }

    def run(self) -> Outcome:
        rounds = repeat_rounds(self.ctx.seconds, 2, self.round)
        if self.reference is None:
            reference = self.direct_reference()
            for i, r in enumerate(rounds):
                compare_units(self.ctx, f"round {i} cold vs direct drive", r["units"], reference)
        per_model = [s for r in rounds for s in r["per_model_s"]]
        out = Outcome(e2e=self.slots(rounds), per_round=[self.slots([r]) for r in rounds])
        out.named = [
            ("fleet_cold_s", out.e2e["cold_ms"] / 1e3, "s"),
            ("fleet_warm_s", percentile([s for r in rounds for s in r["warm_s"]], 50), "s"),
            ("cold_unit_ms_per_model_p50", percentile(per_model, 50) * 1e3, "ms"),
            ("cold_unit_ms_per_model_p90", percentile(per_model, 90) * 1e3, "ms"),
        ]
        out.facts = {"rounds": len(rounds), "units_per_round": self.n_units,
                     "per_model_samples": len(per_model), "warm_reruns_per_round": WARM_RERUNS}
        return out

    # -- traced ---------------------------------------------------------- #

    def run_traced(self) -> Outcome:
        with self.fresh_fleet("lake") as (lake, _setup_s):
            return self._traced(lake)

    def _traced(self, lake: DataLakeStore) -> Outcome:
        ctx, tracer = self.ctx, self.ctx.tracer
        tracer.enabled = True
        with self.orchestrate(lake, "cache") as orchestrator:
            with tracer.span("fleet.cold_run", "fleet") as run_span:
                cold = orchestrator.run()
            self._spans_from_report(cold, run_span.span)
            with tracer.span("fleet.warm_runs", "fleet"):
                warms = [orchestrator.run() for _ in range(WARM_RERUNS)]
        self.check_cold(cold, "traced cold")
        for warm in warms:
            self.check_warm(cold, warm, "traced warm")
        generation = lake.current_generation()
        started = time.perf_counter()
        with tracer.span("fleet.cold_drive", "fleet"):
            records = drive_units(lake.root, generation, self.config, ctx)
        traced_wall = time.perf_counter() - started
        tracer.enabled = False  # the same calls again, untraced: the overhead baseline
        started = time.perf_counter()
        drive_units(lake.root, generation, self.config, ctx)
        untraced_wall = time.perf_counter() - started
        tracer.enabled = True
        compare_units(ctx, "direct drive", records,
                      self.reference if self.reference is not None else report_units(cold))
        txlog_bytes, gen_files = dir_stats(lake.root / "_manifest")
        now = time.perf_counter()
        tracer.add("manifest.files", "lake", now, now, txlog_bytes=txlog_bytes, gen_files=gen_files)
        tracer.enabled = False

        spans = tracer.spans
        queries = [s for s in spans if s.name == "storage.query"]
        rollups = [s for s in spans if s.name == "storage.rollup"]
        busy = sum(o.wall_seconds for o in cold.outcomes)
        # Every timed call inside a driven unit: a unit's wall minus these
        # is the pipeline's own time outside its stages.
        attributed = ["manifest.open", "storage.fingerprint", "storage.query", "storage.rollup",
                      *(f"pipeline.{stage}" for stage in PIPELINE_COMPONENTS)]
        layers = {
            "storage.query_s": tracer.total("storage.query"),
            "storage.bytes_verified": sum(s.attrs["payload_bytes_verified"] for s in queries),
            "storage.bytes_stored": sum(s.attrs["payload_bytes_stored"] for s in queries),
            "storage.rollup_s": tracer.total("storage.rollup"),
            # Only the columnar reader answers chunks from stats: 0 on this CSV lake.
            "storage.chunks_answered_from_stats": sum(
                s.attrs.get("chunks_answered_from_stats", 0) for s in rollups),
            "storage.fingerprint_s": tracer.total("storage.fingerprint"),
            "artifacts.unit_hit_rate": sum(w.cache_summary()["unit_hits"] for w in warms)
            / (len(warms) * self.n_units),
            "artifacts.warm_run_ms": median([w.wall_seconds for w in warms]) * 1e3,
            "pipeline.unattributed_s": tracer.total("fleet.unit")
            - sum(tracer.total(name) for name in attributed),
            "executor.unit_busy_s": busy,
            "executor.idle_s": cold.wall_seconds - busy,
            "manifest.open_s": tracer.total("manifest.open"),
            "manifest.txlog_bytes": txlog_bytes,
            "manifest.gen_files": gen_files,
            "trace.overhead_pct": (traced_wall / untraced_wall - 1.0) * 100,
        }
        for stage, metric in STAGE_METRICS.items():
            layers[metric] = tracer.total(f"pipeline.{stage}")
        return Outcome(layers=layers)

    def _spans_from_report(self, report, run_span) -> None:
        """The executor's numbers as spans: one ``executor.unit`` per unit
        wall, laid from the run's start (the report gives durations, not
        clock times)."""
        for outcome in report.outcomes:
            self.ctx.tracer.add("executor.unit", f"{outcome.region}/w{outcome.week}",
                                run_span.start, run_span.start + outcome.wall_seconds,
                                parent=run_span.span_id, laid_from="run start", **outcome.load)


def run(ctx: Context) -> Outcome:
    workload = FleetWorkload(ctx)
    return workload.run_traced() if ctx.trace else workload.run()
