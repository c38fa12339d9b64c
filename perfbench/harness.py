"""Shared machinery for the workloads: spans, samples, checks, host facts.

Everything here lives in the benchmark, outside the program under test.
Spans are recorded by the benchmark's own code around its calls into the
program's public functions; they are kept in memory and written once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch area inside the checkout: per-run work dirs and trace files.
STATE_DIR = ROOT / ".perfbench"


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


# ---------------------------------------------------------------------- #
# Tracing


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    op: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NoSpan:
    """What a disabled tracer hands out: a context manager doing nothing."""

    __slots__ = ()

    @property
    def attrs(self) -> dict:
        return {}

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class _OpenSpan:
    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    @property
    def attrs(self) -> dict:
        return self.span.attrs

    def __enter__(self) -> "_OpenSpan":
        self._tracer._stack.append(self.span.span_id)
        self.span.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.span.end = time.perf_counter()
        self._tracer._stack.pop()


class Tracer:
    """In-memory span recorder; ``enabled=False`` records nothing.

    ``span(name, op)`` nests under whatever span is open, so the parent
    is the call boundary that caused it.  ``op`` names the unit, region-day
    or client op the span belongs to.  ``add`` records a span whose
    interval was measured elsewhere (a worker process, a stage timing the
    program returned).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, op: str = "", **attrs: object):
        if not self.enabled:
            return _NO_SPAN
        span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, op, 0.0)
        span.attrs.update(attrs)
        self.spans.append(span)
        return _OpenSpan(self, span)

    def add(self, name: str, op: str, start: float, end: float,
            parent: int | None = None, **attrs: object) -> int:
        if not self.enabled:
            return -1
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(len(self.spans), parent, name, op, start, end, dict(attrs))
        self.spans.append(span)
        return span.span_id

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "name": s.name, "op": s.op,
                    "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {}),
                }, default=str) + "\n")


# ---------------------------------------------------------------------- #
# Output checks


class Checks:
    """Counts attempted operations and the ones that failed or answered
    wrongly; keeps the first few failure messages for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-9) -> bool:
    """Equal within tolerance; NaN (a share of nothing) matches only NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(abs_tol, rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------------- #
# Memory and host facts


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process, in MB."""
    with contextlib.suppress(OSError), open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts() -> dict[str, object]:
    import numpy

    blas_env = {
        name: os.environ[name]
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        if name in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_env": blas_env or "unset",
    }


def dir_stats(manifest_dir: Path) -> tuple[int, int]:
    """``(txlog bytes, gen-*.json files)`` of a lake's ``_manifest`` dir."""
    txlog = manifest_dir / "txlog.jsonl"
    size = txlog.stat().st_size if txlog.exists() else 0
    return size, sum(1 for _ in manifest_dir.glob("gen-*.json"))


# ---------------------------------------------------------------------- #
# Running a workload


@dataclass
class Context:
    """What one workload run is given: its seed, time budget and tracer."""

    seed: int
    seconds: float
    trace: bool
    #: Self-check sizes: every path runs, on inputs small enough to finish
    #: in a few seconds.
    tiny: bool
    work: Path
    checks: Checks = field(default_factory=Checks)
    tracer: Tracer = field(default_factory=lambda: Tracer(False))


@dataclass
class Outcome:
    """A workload's answer: end-to-end slots (untraced runs), per-layer
    metrics (traced runs), and the workload's own named figures for the report."""

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    named: list[tuple[str, float, str]] = field(default_factory=list)
    facts: dict[str, object] = field(default_factory=dict)
    #: The end-to-end slots of each round, to show within-run variation.
    per_round: list[dict[str, float]] = field(default_factory=list)


#: Set-ups timed per round where set-up is cheap; ``setup_s`` is the median
#: of every set-up in the run, so a few slow flushes do not decide it.
SETUP_REPEATS = 10


def repeat_rounds(seconds: float, min_rounds: int, run_round) -> list:
    """Call ``run_round(i)`` for i = 0, 1, ... until another round of the
    longest length seen so far would overrun ``seconds`` (at least
    ``min_rounds`` rounds).  Every round does the same fixed work, so
    faster code yields more samples, never different samples."""
    started = time.perf_counter()
    results = []
    longest = 0.0
    while True:
        round_started = time.perf_counter()
        results.append(run_round(len(results)))
        now = time.perf_counter()
        longest = max(longest, now - round_started)
        if len(results) >= min_rounds and (now - started) + longest > seconds:
            return results
