"""``lake_churn``: manifest commit and open/recovery as history grows.

One client runs a seeded mix on a fresh ``.sgx`` lake of small extracts:
overwrites with new content, deletes (re-written by later writes), queries
on a long-lived handle, fresh-handle open plus first query (what every
fleet worker and CLI run pays), and an occasional ``collect_garbage``.
Every mutation publishes a generation and appends to the txlog, so history
grows through the round; that growth is the property under test.  The
pipeline is absent.

Each round has the same number of each op (only their order and content
come from the seed), so history grows identically under every seed.
"""

from __future__ import annotations

import shutil
import time
from statistics import median

import numpy as np

from harness import (SETUP_REPEATS, Context, Outcome, dir_stats, peak_rss_mb, percentile,
                     repeat_rounds)

from repro.storage.datalake import DataLakeStore, ExtractKey
from repro.storage.query import ExtractQuery
from repro.timeseries.calendar import MINUTES_PER_WEEK
from repro.timeseries.frame import LoadFrame, ServerMetadata
from repro.timeseries.series import LoadSeries

KEYS = [ExtractKey(region=f"region-{r}", week=w) for r in range(2) for w in range(4)]
SERVERS = 4
POINTS = 96
INTERVAL = 15
#: Ops per round by kind; ``gc`` runs at evenly spaced positions.
FULL = {"write": 480, "delete": 120, "query": 360, "open_query": 236, "gc": 4}
TINY = {"write": 16, "delete": 4, "query": 12, "open_query": 8, "gc": 1}


def make_frame(key: ExtractKey, values: np.ndarray) -> LoadFrame:
    frame = LoadFrame(interval_minutes=INTERVAL)
    start = key.week * MINUTES_PER_WEEK
    timestamps = np.arange(start, start + POINTS * INTERVAL, INTERVAL, dtype=np.int64)
    for s in range(SERVERS):
        frame.add_server(ServerMetadata(server_id=f"srv-{s}", region=key.region),
                         LoadSeries(timestamps, values[s], interval_minutes=INTERVAL))
    return frame


class ChurnWorkload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.mix = TINY if ctx.tiny else FULL

    def schedule(self, rng: np.random.Generator) -> list[str]:
        """The round's ops: fixed counts per kind, order from the seed,
        ``gc`` at evenly spaced positions."""
        ops = [kind for kind, n in self.mix.items() if kind != "gc" for _ in range(n)]
        order = [ops[i] for i in rng.permutation(len(ops))]
        n_gc = self.mix["gc"]
        for i in range(n_gc):
            order.insert((i + 1) * len(order) // (n_gc + 1), "gc")
        return order

    def check_read(self, answer, key: ExtractKey, model: dict, label: str) -> None:
        expected = model.get(key)
        if expected is None:
            ok = answer.stats.extracts_scanned == 0 and answer.rows == 0
        else:
            got = {sid: series.values for sid, _meta, series in answer.frame.items()}
            ok = sorted(got) == [f"srv-{s}" for s in range(SERVERS)] and all(
                np.array_equal(got[f"srv-{s}"], expected[s]) for s in range(SERVERS))
        self.ctx.checks.op(ok, f"{label} {key}: answer does not match the last committed "
                               f"write ({'deleted' if expected is None else 'present'})")

    def round(self, index: int) -> dict:
        ctx, tracer = self.ctx, self.ctx.tracer
        root = ctx.work / f"churn{index}"
        setups = []
        for _ in range(SETUP_REPEATS):  # the same fresh lake each time; the last one is used
            shutil.rmtree(root, ignore_errors=True)
            rng = np.random.default_rng([ctx.seed, index])
            model: dict[ExtractKey, np.ndarray] = {}
            started = time.perf_counter()
            with tracer.span("churn.setup", "round"):
                store = DataLakeStore(root, write_format="sgx")
                for key in KEYS:
                    model[key] = rng.uniform(0.0, 100.0, size=(SERVERS, POINTS))
                    store.write_extract(key, make_frame(key, model[key]))
            setups.append(time.perf_counter() - started)

        latency: dict[str, list[float]] = {"mutation": [], "query": [], "open_query": [], "gc": []}
        loop_started = time.perf_counter()
        for n, kind in enumerate(self.schedule(rng)):
            op = f"op-{n}"
            key = KEYS[int(rng.integers(len(KEYS)))]
            if kind == "delete":
                present = [k for k in KEYS if k in model]
                if not present:
                    kind = "write"
                else:
                    key = present[int(rng.integers(len(present)))]
            if kind == "write":
                values = rng.uniform(0.0, 100.0, size=(SERVERS, POINTS))
                frame = make_frame(key, values)
                t0 = time.perf_counter()
                with tracer.span("manifest.commit", op, kind="write"):
                    store.write_extract(key, frame)
                latency["mutation"].append(time.perf_counter() - t0)
                model[key] = values
            elif kind == "delete":
                t0 = time.perf_counter()
                with tracer.span("manifest.commit", op, kind="delete"):
                    store.delete_extract(key)
                latency["mutation"].append(time.perf_counter() - t0)
                del model[key]
            elif kind == "query":
                t0 = time.perf_counter()
                with tracer.span("storage.query", op) as span:
                    answer = store.query(ExtractQuery.for_key(key, interval_minutes=None))
                latency["query"].append(time.perf_counter() - t0)
                span.attrs.update(answer.stats.as_dict())
                self.check_read(answer, key, model, "long-lived query")
            elif kind == "open_query":
                t0 = time.perf_counter()
                with tracer.span("churn.open_query", op):
                    with tracer.span("manifest.open", op):
                        fresh = DataLakeStore(root)
                        fresh.current_generation()
                    with tracer.span("storage.query", op) as span:
                        answer = fresh.query(ExtractQuery.for_key(key, interval_minutes=None))
                latency["open_query"].append(time.perf_counter() - t0)
                span.attrs.update(answer.stats.as_dict())
                self.check_read(answer, key, model, "fresh-handle query")
            else:
                t0 = time.perf_counter()
                with tracer.span("manifest.gc", op):
                    store.collect_garbage()
                latency["gc"].append(time.perf_counter() - t0)
        loop_s = time.perf_counter() - loop_started
        # After the churn, every key reads back as its last committed write.
        final = DataLakeStore(root)
        for key in KEYS:
            self.check_read(final.query(ExtractQuery.for_key(key, interval_minutes=None)),
                            key, model, "final read")
        n_ops = sum(self.mix.values())
        result = {"setups": setups, "loop_s": loop_s, "ops_per_s": n_ops / loop_s,
                  "rss": peak_rss_mb(), **latency}
        result["txlog_bytes"], result["gen_files"] = dir_stats(root / "_manifest")
        now = time.perf_counter()
        tracer.add("manifest.files", "lake", now, now,
                   txlog_bytes=result["txlog_bytes"], gen_files=result["gen_files"])
        shutil.rmtree(root, ignore_errors=True)
        return result

    @staticmethod
    def slots(rounds: list[dict]) -> dict[str, float]:
        """The end-to-end metrics over ``rounds`` (a whole run, or one round)."""
        return {
            "setup_s": median([s for r in rounds for s in r["setups"]]),
            "peak_rss_mb": rounds[-1]["rss"],
            "cold_ms": percentile([s for r in rounds for s in r["open_query"]], 50) * 1e3,
            # The long-lived handle's query, not the mutation: a commit is 9
            # fsyncs and dozens of small-file syscalls, so a busy shared disk
            # moved the mutation p50 by a third between otherwise equal runs.
            # The mutation figures stay on the ``#`` lines and per layer.
            "op_p50_ms": percentile([s for r in rounds for s in r["query"]], 50) * 1e3,
        }

    def run(self) -> Outcome:
        rounds = repeat_rounds(self.ctx.seconds, 2, self.round)
        samples = {kind: [s for r in rounds for s in r[kind]]
                   for kind in ("mutation", "query", "open_query")}
        out = Outcome(e2e=self.slots(rounds), per_round=[self.slots([r]) for r in rounds])
        out.named = [
            ("mutation_p50_ms", percentile(samples["mutation"], 50) * 1e3, "ms"),
            ("mutation_p90_ms", percentile(samples["mutation"], 90) * 1e3, "ms"),
            ("open_query_p50_ms", percentile(samples["open_query"], 50) * 1e3, "ms"),
            ("query_p50_ms", percentile(samples["query"], 50) * 1e3, "ms"),
            ("ops_per_s", median([r["ops_per_s"] for r in rounds]), "1/s"),
        ]
        out.facts = {"rounds": len(rounds), "ops_per_round": dict(self.mix),
                     "txlog_bytes_at_round_end": rounds[0]["txlog_bytes"],
                     "gen_files_at_round_end": rounds[0]["gen_files"],
                     **{f"{kind}_samples": len(v) for kind, v in samples.items()}}
        return out

    def run_traced(self) -> Outcome:
        tracer = self.ctx.tracer
        self.round(0)  # warms the process; not compared
        tracer.enabled = True
        traced = self.round(1)
        tracer.enabled = False
        baseline = self.round(2)
        queries = [s for s in tracer.spans if s.name == "storage.query"]
        return Outcome(layers={
            "storage.query_s": sum(s.seconds for s in queries),
            "storage.bytes_verified": sum(s.attrs["payload_bytes_verified"] for s in queries),
            "storage.bytes_stored": sum(s.attrs["payload_bytes_stored"] for s in queries),
            "manifest.open_s": tracer.total("manifest.open"),
            "manifest.commit_s": tracer.total("manifest.commit"),
            "manifest.commit_p90_ms": percentile(tracer.durations("manifest.commit"), 90) * 1e3,
            "manifest.gc_s": tracer.total("manifest.gc"),
            "manifest.txlog_bytes": traced["txlog_bytes"],
            "manifest.gen_files": traced["gen_files"],
            "trace.overhead_pct": (traced["loop_s"] / baseline["loop_s"] - 1.0) * 100,
        })


def run(ctx: Context) -> Outcome:
    workload = ChurnWorkload(ctx)
    return workload.run_traced() if ctx.trace else workload.run()
