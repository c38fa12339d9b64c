"""``live_loop``: the streaming data plane, from collector batch to forecast.

One collector (one client, closed loop) streams regions x servers x days of
1-minute samples in 15-minute batches through ``LiveIngestor.ingest`` with
the ingestor's default fsync policy.  Every few simulated hours it runs a
tail-inclusive aggregate ``query`` per region, so reads sit beside writes.
At each day boundary it calls ``seal_due``, hands every seal to
``LiveServingBridge.on_sealed`` and asks each region for a one-day
``predict_batch`` (the backup-scheduling read).  A load shift flips the
level of a fixed share of region-days, so drift retrains are a known share
of the seals.  WAL append, the tail index, seal transactions, drift,
promotion and the serving cache do the work; model fit and CSV parsing do
almost none.
"""

from __future__ import annotations

import inspect
import shutil
import time
from statistics import median

import numpy as np

from harness import Context, Outcome, close, dir_stats, peak_rss_mb, percentile, repeat_rounds

from repro.serving import LiveServingBridge, PredictionService
from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.live import LiveIngestor
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import MINUTES_PER_DAY, week_index
from repro.timeseries.frame import ServerMetadata

MODEL = "persistent_previous_day"
FULL = {"regions": 2, "servers": 8, "days": 8}
TINY = {"regions": 1, "servers": 2, "days": 5}
BATCH_MINUTES = 15
#: A tail-inclusive aggregate query per region every this many hours.
TAIL_QUERY_HOURS = 4
#: Share of region-days (after each region's first) whose load level flips.
DRIFT_SHARE = 0.25
#: Load multiplier of the shifted level.
SHIFT_FACTOR = 2.5
#: Relative tolerance for unified sums against the client's own totals
#: (the lake folds in another order than the client adds).
SUM_REL_TOL = 1e-9
#: Set-ups timed per round.  The program's live set-up (lake, ingestor,
#: service, bridge, reader) takes a few hundred microseconds, so many are
#: timed and ``setup_s`` is the median of all of them in the run.
SETUP_REPEATS = 40
FSYNC_EVERY = inspect.signature(LiveIngestor.__init__).parameters["fsync_every"].default


class LiveWorkload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        size = TINY if ctx.tiny else FULL
        self.regions = [f"region-live-{i}" for i in range(size["regions"])]
        self.n_servers = size["servers"]
        self.days = size["days"]
        rng = np.random.default_rng(ctx.seed)
        # Drift schedule: exactly round(DRIFT_SHARE * candidates) flips.
        candidates = [(r, d) for r in self.regions for d in range(1, self.days)]
        n_flips = round(DRIFT_SHARE * len(candidates))
        picks = rng.choice(len(candidates), size=n_flips, replace=False) if n_flips else []
        self.flips = {candidates[i] for i in picks}
        self.base = {r: rng.uniform(20.0, 80.0, size=self.n_servers) for r in self.regions}
        self.noise_seed = int(rng.integers(2**31))
        # Made once, outside every timed set-up: each round streams the same batches.
        self.batches = self.inputs()
        self.metadata = {(r, s): ServerMetadata(server_id=f"srv-{s:03d}", region=r)
                         for r in self.regions for s in range(self.n_servers)}

    def expected_versions(self, region: str) -> list[int]:
        """Active version after each day's seal: v1 bootstraps on day 0,
        every level flip promotes the next version."""
        versions, version = [], 1
        for day in range(self.days):
            if (region, day) in self.flips:
                version += 1
            versions.append(version)
        return versions

    def inputs(self) -> dict:
        """Every batch of a round, generated from the seed."""
        rng = np.random.default_rng(self.noise_seed)
        batches = {}
        level = {r: 1.0 for r in self.regions}
        for day in range(self.days):
            for region in self.regions:
                if (region, day) in self.flips:
                    level[region] = SHIFT_FACTOR if level[region] == 1.0 else 1.0
            ts = np.arange(day * MINUTES_PER_DAY, (day + 1) * MINUTES_PER_DAY, dtype=np.int64)
            diurnal = 1.0 + 0.4 * np.sin(2.0 * np.pi * (ts % MINUTES_PER_DAY) / MINUTES_PER_DAY)
            for region in self.regions:
                for server in range(self.n_servers):
                    load = level[region] * self.base[region][server] * diurnal
                    load = np.maximum(load + rng.normal(0.0, 1.0, ts.size), 0.0)
                    batches[(region, server, day)] = (ts, load)
        return batches

    def round(self, index: int) -> dict:
        ctx, tracer = self.ctx, self.ctx.tracer
        root = ctx.work / f"live{index}"
        batches, metadata = self.batches, self.metadata
        setups = []
        for repeat in range(SETUP_REPEATS):  # the same fresh set-up each time; the last one is used
            if repeat:
                ingestor.close()
            shutil.rmtree(root, ignore_errors=True)
            started = time.perf_counter()
            with tracer.span("live.setup", "round"):
                store = DataLakeStore(root)
                ingestor = LiveIngestor(store, interval_minutes=1, chunk_minutes=MINUTES_PER_DAY)
                service = PredictionService()
                bridge = LiveServingBridge(store, service, model_name=MODEL)
                with tracer.span("manifest.open", "reader"):
                    reader = DataLakeStore(root)
                    reader.current_generation()
            setups.append(time.perf_counter() - started)

        totals = {key: [0, 0.0] for key in metadata}
        ingest_s: list[float] = []
        tail_s: list[float] = []
        fresh_s: list[float] = []
        served = hits = 0
        versions: dict[str, list[int]] = {r: [] for r in self.regions}
        slots_per_query = TAIL_QUERY_HOURS * 60 // BATCH_MINUTES
        loop_started = time.perf_counter()
        with ingestor:
            for day in range(self.days):
                acked = {}
                for slot in range(MINUTES_PER_DAY // BATCH_MINUTES):
                    lo, hi = slot * BATCH_MINUTES, (slot + 1) * BATCH_MINUTES
                    for region in self.regions:
                        key = ExtractKey(region=region, week=week_index(day * MINUTES_PER_DAY))
                        for server in range(self.n_servers):
                            ts, load = batches[(region, server, day)]
                            t0 = time.perf_counter()
                            with tracer.span("live.ingest", f"{region}/d{day}"):
                                ingestor.ingest(key, metadata[(region, server)],
                                                ts[lo:hi], load[lo:hi])
                            t1 = time.perf_counter()
                            ingest_s.append(t1 - t0)
                            total = totals[(region, server)]
                            total[0] += hi - lo
                            total[1] += float(load[lo:hi].sum())
                        acked[region] = time.perf_counter()
                    if (slot + 1) % slots_per_query == 0:
                        for region in self.regions:
                            op = f"{region}/d{day}"
                            tail_s.append(self.tail_query(reader, region, totals, op))
                with tracer.span("live.seal", f"d{day}") as span:
                    reports = ingestor.seal_due((day + 1) * MINUTES_PER_DAY)
                span.attrs["rows_sealed"] = sum(r.rows_sealed for r in reports)
                ctx.checks.op(sorted(r.region for r in reports) == self.regions,
                              f"day {day}: sealed {[r.region for r in reports]}")
                for report in reports:
                    with tracer.span("bridge.on_sealed", f"{report.region}/d{day}") as span:
                        event = bridge.on_sealed(report)
                    span.attrs["action"] = event.action
                    versions[report.region].append(event.active_version or 0)
                for region in self.regions:
                    with tracer.span("serving.predict_batch", f"{region}/d{day}"):
                        batch = service.predict_batch(region, n_points=MINUTES_PER_DAY)
                    fresh_s.append(time.perf_counter() - acked[region])
                    served += batch.n_served
                    hits += batch.cache_hits
                    ctx.checks.op(
                        batch.n_served == self.n_servers and not batch.failed and not batch.skipped
                        and batch.served_by_version == versions[region][-1],
                        f"{region} day {day}: served {batch.n_served}/{self.n_servers} by "
                        f"v{batch.served_by_version}, failed {batch.failed}, "
                        f"skipped {batch.skipped}",
                    )
        loop_s = time.perf_counter() - loop_started
        for region in self.regions:
            ctx.checks.op(versions[region] == self.expected_versions(region),
                          f"{region}: active versions {versions[region]} != "
                          f"schedule {self.expected_versions(region)}")
            self.tail_query(reader, region, totals, f"{region}/final")
        rows = sum(t[0] for t in totals.values())
        result = {
            "setups": setups, "ingest_s": ingest_s, "tail_s": tail_s, "fresh_s": fresh_s,
            "rows_per_s": rows / loop_s, "loop_s": loop_s, "served": served, "hits": hits,
            "rss": peak_rss_mb(),
        }
        result["txlog_bytes"], result["gen_files"] = dir_stats(root / "_manifest")
        now = time.perf_counter()
        tracer.add("manifest.files", "lake", now, now,
                   txlog_bytes=result["txlog_bytes"], gen_files=result["gen_files"])
        shutil.rmtree(root, ignore_errors=True)
        return result

    def tail_query(self, reader: DataLakeStore, region: str, totals: dict, op: str) -> float:
        """Unified (sealed + tail) per-server count and sum, checked against
        what the client ingested so far; returns the query's latency."""
        query = ExtractQuery(regions=(region,), aggregates=("count", "sum"), group_by=("server",))
        t0 = time.perf_counter()
        with self.ctx.tracer.span("storage.query", op) as span:
            answer = reader.query(query)
        elapsed = time.perf_counter() - t0
        span.attrs.update(answer.stats.as_dict())
        got = {group[0]: (int(v["count"]), float(v["sum"]))
               for group, v in answer.aggregates.items()}
        want = {f"srv-{s:03d}": totals[(region, s)] for s in range(self.n_servers)}
        ok = sorted(got) == sorted(want) and all(
            got[k][0] == want[k][0] and close(got[k][1], want[k][1], SUM_REL_TOL) for k in want)
        self.ctx.checks.op(ok, f"{op}: unified per-server totals {got} != ingested {want}")
        return elapsed

    @staticmethod
    def slots(rounds: list[dict]) -> dict[str, float]:
        """The end-to-end metrics over ``rounds`` (a whole run, or one round)."""
        return {
            "setup_s": median([s for r in rounds for s in r["setups"]]),
            "peak_rss_mb": rounds[-1]["rss"],
            "cold_ms": percentile([s for r in rounds for s in r["fresh_s"]], 50) * 1e3,
            "op_p50_ms": percentile([s for r in rounds for s in r["ingest_s"]], 50) * 1e3,
        }

    def outcome(self, rounds: list[dict]) -> Outcome:
        ingest = [s for r in rounds for s in r["ingest_s"]]
        tail = [s for r in rounds for s in r["tail_s"]]
        fresh = [s for r in rounds for s in r["fresh_s"]]
        out = Outcome(e2e=self.slots(rounds), per_round=[self.slots([r]) for r in rounds])
        out.named = [
            ("ingest_rows_per_s", median([r["rows_per_s"] for r in rounds]), "1/s"),
            ("ingest_p50_us", percentile(ingest, 50) * 1e6, "us"),
            ("ingest_p90_us", percentile(ingest, 90) * 1e6, "us"),
            ("tail_query_p50_ms", percentile(tail, 50) * 1e3, "ms"),
            ("freshness_p50_s", percentile(fresh, 50), "s"),
        ]
        out.facts = self.facts(rounds, ingest, tail, fresh)
        return out

    def facts(self, rounds, ingest, tail, fresh) -> dict:
        return {
            "rounds": len(rounds),
            "fsync_policy": f"LiveIngestor default fsync_every={FSYNC_EVERY}",
            "regions": len(self.regions), "servers_per_region": self.n_servers, "days": self.days,
            "drift_share": DRIFT_SHARE,
            "drifted_region_days": sorted(f"{r}/d{d}" for r, d in self.flips),
            "ingest_samples": len(ingest), "tail_query_samples": len(tail),
            "freshness_samples": len(fresh),
        }

    def run(self) -> Outcome:
        return self.outcome(repeat_rounds(self.ctx.seconds, 2, self.round))

    def run_traced(self) -> Outcome:
        tracer = self.ctx.tracer
        self.round(0)  # warms the process; not compared
        tracer.enabled = True
        traced = self.round(1)
        tracer.enabled = False
        baseline = self.round(2)
        ingest = tracer.durations("live.ingest")
        queries = [s for s in tracer.spans if s.name == "storage.query"]
        actions = [s.attrs["action"] for s in tracer.spans if s.name == "bridge.on_sealed"]
        retrains = sum(1 for a in actions if a == "retrain")
        return Outcome(layers={
            "storage.query_s": sum(s.seconds for s in queries),
            "storage.bytes_verified": sum(s.attrs["payload_bytes_verified"] for s in queries),
            "storage.bytes_stored": sum(s.attrs["payload_bytes_stored"] for s in queries),
            "storage.chunks_answered_from_stats": sum(
                s.attrs["chunks_answered_from_stats"] for s in queries),
            "manifest.open_s": tracer.total("manifest.open"),
            "manifest.txlog_bytes": traced["txlog_bytes"],
            "manifest.gen_files": traced["gen_files"],
            "live.ingest_s": sum(ingest),
            "live.ingest_p99_us": percentile(ingest, 99) * 1e6,
            "live.ingest_rows_per_s": len(ingest) * BATCH_MINUTES / sum(ingest),
            "live.seal_s": tracer.total("live.seal"),
            "live.rows_sealed": sum(
                s.attrs["rows_sealed"] for s in tracer.spans if s.name == "live.seal"),
            "live.tail_rows_scanned": sum(s.attrs["tail_rows_scanned"] for s in queries),
            "live.tail_query_p90_ms": percentile([s.seconds for s in queries], 90) * 1e3,
            "bridge.on_sealed_s": tracer.total("bridge.on_sealed"),
            "bridge.retrains": retrains,
            "bridge.retrain_share": retrains / len(actions),
            "serving.predict_batch_s": tracer.total("serving.predict_batch"),
            "serving.cache_hit_rate": traced["hits"] / traced["served"],
            "trace.overhead_pct": (traced["loop_s"] / baseline["loop_s"] - 1.0) * 100,
        })


def run(ctx: Context) -> Outcome:
    workload = LiveWorkload(ctx)
    return workload.run_traced() if ctx.trace else workload.run()
