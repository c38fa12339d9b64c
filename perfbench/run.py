"""The repository's benchmark: one command, every workload, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate traced run whose spans (kept in memory, written at the
end to ``.perfbench/traces/``) give the per-layer metrics.  Metric names,
units and bounds come from ``BENCHMARK.json``; ``perfbench/README.md``
maps every metric to the layer and workload it belongs to.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (output checks, so ``failed / attempted`` is the
error rate) and ``metrics``.  Each workload runs in its own process, so
its ``peak_rss_mb`` covers that workload only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_cold", "live_loop", "lake_churn")
#: Seeds the self-check runs, to show the checks are not tied to one.  On
#: seed 0 the tiny fleet has a unit with no evaluable windows (NaN shares).
SELF_CHECK_SEEDS = (0, 1, 2)


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail("the program's sources (src/repro) are not in this checkout")
    spec = load_spec()
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    from harness import STATE_DIR, Context, Tracer, host_facts

    work = STATE_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)  # anything the program stages stays in the checkout
    ctx = Context(seed=seed, seconds=seconds, trace=trace, tiny=tiny, work=work,
                  tracer=Tracer(False))
    # Flush what earlier runs left to write back, so their deferred I/O is
    # not charged to this run.
    os.sync()
    started = time.perf_counter()
    try:
        if name == "fleet_cold":
            import fleet

            outcome = fleet.run(ctx)
        elif name == "live_loop":
            import live

            outcome = live.run(ctx)
        else:
            import churn

            outcome = churn.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started

    if trace:
        outcome.layers["trace.spans"] = len(ctx.tracer.spans)
    section = "per_layer" if trace else "end_to_end"
    values = outcome.layers if trace else outcome.e2e
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing and not trace:
        fail(f"{name} produced no value for {missing}", 1)
    # A layer the workload never calls into reads 0 in its traced run.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec[section]}
    checks = ctx.checks
    facts = {"workload": name, "seed": seed, "trace": int(trace), "tiny": tiny,
             "seconds_budget": seconds, "elapsed_s": round(elapsed, 3),
             **host_facts(), **outcome.facts}
    print(f"# host: {json.dumps(facts, sort_keys=True)}")
    for metric_name, value, unit in outcome.named:
        print(f"# {name}.{metric_name} = {value:.6g} {unit}")
    print(f"# {name}.error_rate = {checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed} failed of {checks.attempted} checked ops)")
    for i, slots in enumerate(outcome.per_round):
        print(f"# round {i}: " + " ".join(f"{k}={v:.6g}" for k, v in slots.items()))
    for message in checks.messages:
        print(f"# check failed: {message}")
    if trace:
        trace_path = STATE_DIR / "traces" / f"{name}-seed{seed}.jsonl"
        ctx.tracer.write(trace_path)
        print(f"# trace: {len(ctx.tracer.spans)} spans -> {trace_path.relative_to(ROOT)}")
    for metric_name, entry in metrics.items():
        print(f"# {metric_name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": metrics,
    }))
    return 0


def child_run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[int, str]:
    """One workload in its own process; returns (exit code, stdout)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout


def run_all(seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    status = 0
    for name in WORKLOADS:
        code, out = child_run(name, seed, seconds, trace, tiny)
        sys.stdout.write(out)
        status = status or code
    return status


def self_check() -> int:
    """Tiny sizes, every workload, both trace modes, three seeds: every named
    metric present with its unit and every output check passing."""
    spec = load_spec()
    problems: list[str] = []
    for seed in SELF_CHECK_SEEDS:
        for name in WORKLOADS:
            for trace in (False, True):
                label = f"{name} seed={seed} trace={int(trace)}"
                before = len(problems)
                code, out = child_run(name, seed, 1, trace, tiny=True)
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    problems.append(f"{label}: exit {code}")
                    continue
                result = json.loads(lines[-1])
                expected = spec["per_layer" if trace else "end_to_end"]
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label}: {result['failed']} of {result['attempted']} "
                                    "checks failed")
                if sorted(result["metrics"]) != sorted(m["name"] for m in expected):
                    problems.append(f"{label}: metric names differ from BENCHMARK.json")
                for m in expected:
                    entry = result["metrics"].get(m["name"], {})
                    if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), float):
                        problems.append(f"{label}: {m['name']} missing or without its unit")
                    elif not trace and entry["value"] <= 0:
                        problems.append(f"{label}: {m['name']} = {entry['value']} (must be > 0)")
                print(f"self-check {label}: {'ok' if len(problems) == before else 'FAIL'}")
    for problem in problems:
        print(f"self-check problem: {problem}")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check sizes")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny sizes and verify the output format")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.tiny)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
