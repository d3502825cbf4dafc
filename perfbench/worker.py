"""One pass of one workload, in a fresh process started by run.py.

A pass is the workload's set-up followed (unless --setup-only) by every
op, one at a time, each checked as soon as it returns.  The pass writes
its timings, problems and peak RSS as JSON to --out.

setup_s runs from --t0-ns (the parent's perf_counter_ns just before it
started this process; CLOCK_MONOTONIC is shared by all processes) to the
first op, so it includes interpreter start and the import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import time
from pathlib import Path

import workloads
from spans import Tracer

REFERENCES = Path(__file__).resolve().with_name("references.json")


def run_pass(args) -> dict:
    root = Path(args.root)
    ctx = workloads.Context(root, args.scale, Path(args.tmp), workloads.child_env(root))
    if args.trace:
        ctx.tracer = Tracer(args.run_id)
        ctx.spans_path = Path(args.spans)
        if args.workload != "cli_cold":
            ctx.tracer.install()

    def span(name, **attrs):
        return ctx.tracer.span(name, **attrs) if ctx.tracer else contextlib.nullcontext()

    with span("setup"):
        workloads.SETUP[args.workload](ctx)
    first = time.perf_counter_ns()
    out = {"setup_s": (first - args.t0_ns) / 1e9}
    if not args.setup_only:
        pinned = json.loads(REFERENCES.read_text()).get(args.scale, {}).get(args.workload)
        ops = []
        for op in workloads.build_ops(args.workload, ctx, args.seed):
            start = time.perf_counter()
            try:
                with span("op", key=op.key):
                    result = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                latency = time.perf_counter() - start
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                latency = time.perf_counter() - start
                # the checks' own calls into cyclodist are not the op's work
                with ctx.tracer.paused() if ctx.tracer else contextlib.nullcontext():
                    problems = workloads.verify(op, result, pinned)
            ops.append({"key": op.key, "latency_s": latency, "problems": problems})
        out["wall_s"] = (time.perf_counter_ns() - first) / 1e9
        out["ops"] = ops
        out["op_gmean_s"] = math.exp(statistics.fmean(math.log(o["latency_s"]) for o in ops))
        out["op_max_s"] = max(o["latency_s"] for o in ops)
    out["children"] = ctx.children
    out["peak_rss_kb"] = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                             + [c["maxrss_kb"] for c in ctx.children])
    if ctx.tracer:
        ctx.tracer.dump(ctx.spans_path)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--run-id", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = run_pass(args)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
