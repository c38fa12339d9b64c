"""Regenerate ``fleet_reference.json``, the fleet workloads' stored answers.

For each seed and fleet size, every unit is driven through the public
calls the orchestrator makes, on the workload's own lake, and its
prediction counts and accuracy summary are stored.  ``fleet_cold`` compares
its orchestrator reports against these records, so a change to the program
that alters any unit's answer fails the benchmark's output checks.  Run
from the root of a checkout, only when outputs are meant to change::

    python3 perfbench/make_reference.py 0 64
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import STATE_DIR, Context

import fleet


def main(first: int, stop: int) -> int:
    path = fleet.REFERENCE_PATH
    references = json.loads(path.read_text()) if path.exists() else {}
    work = STATE_DIR / "make-reference"
    for seed in range(first, stop):
        for tiny in (False, True):
            ctx = Context(seed=seed, seconds=0, trace=False, tiny=tiny, work=work)
            workload = fleet.FleetWorkload(ctx)
            records = workload.direct_reference()
            if ctx.checks.failed:
                print(f"seed {seed}: {ctx.checks.messages}", file=sys.stderr)
                return 1
            references[fleet.reference_key(workload.servers, workload.weeks, seed)] = records
            print(f"seed {seed} tiny={tiny}: {len(records)} units", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    # One line per seed and size, so a regenerated reference diffs by seed.
    lines = [f"{json.dumps(key)}: "
             f"{json.dumps(references[key], sort_keys=True, separators=(',', ':'))}"
             for key in sorted(references)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
