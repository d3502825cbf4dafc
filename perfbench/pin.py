"""Regenerate references.json from the code in this checkout.

    python3 perfbench/pin.py [--scale full|tiny] [--workload NAME]

Runs every op of every pool member once, requires each op's independent
checks (golden tables, cross-route equalities) to pass, and stores the
digest of its output.  Re-pin only when an output is meant to change, and
say so in the change that does it: the pinned digests are what the
benchmark's correctness gate compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


class EveryMember:
    """Stands in for the seeded rng: round i picks member i (mod its size)
    of each pool, so rounds 0..max_pool-1 cover every member."""

    def __init__(self, i: int):
        self.i = i

    def choice(self, pool):
        return pool[self.i % len(pool)]


def pin(scale: str, workload: str) -> dict:
    out_dir = ROOT / ".perfbench-run"
    out_dir.mkdir(exist_ok=True)
    rounds = max(len(v) for v in workloads.PARAMS[scale].values() if isinstance(v, tuple))
    refs = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        ctx = workloads.Context(ROOT, scale, Path(tmp), workloads.child_env(ROOT))
        workloads.SETUP[workload](ctx)
        for i in range(rounds):
            ops = workloads.OPS[workload](ctx, EveryMember(i))
            if all(op.key in refs for op in ops):
                break  # every pool member of this workload is pinned
            for op in ops:  # later ops may check against earlier results
                result = op.run()
                problems = op.check(result)
                if problems:
                    raise SystemExit(f"{scale}/{workload} {op.key}: {problems}")
                refs[op.key] = op.digest(result)
            print(f"pinned {scale}/{workload} round {i}", flush=True)
    return refs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", choices=workloads.SCALES, action="append")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    args = ap.parse_args()
    env = workloads.child_env(ROOT)
    if os.environ.get("PYTHONHASHSEED") != env["PYTHONHASHSEED"]:
        # pin under the same hermetic environment the benchmark runs in
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for scale in args.scale or workloads.SCALES:
        for workload in args.workload or workloads.WORKLOADS:
            refs.setdefault(scale, {})[workload] = pin(scale, workload)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
