"""cyclodist benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {cli_cold,prime_scan,exact_frontier}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is taken from the
checkout's own ``src/`` (nothing is installed).  Every process runs alone:
this script waits on one worker at a time, and a worker on one CLI child
at a time.

--trace 0: passes (fresh worker each: set-up, then every op, checked)
until at least --seconds of op time is measured; then set-up-only workers
until SETUPS set-ups were timed.  Prints the end-to-end metrics.

--trace 1: one untraced pass and one traced pass.  Prints the per-layer
metrics computed from the traced pass's spans, and the tracing overhead
(traced wall_s minus untraced wall_s).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A run record with the environment block, every op's latency and every
problem found goes to .perfbench-run/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

SETUPS = 3  # set-ups timed per untraced run; setup_s is their median
RUN_BUDGET_S = 170  # every run must end within 180 s


def environment(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git metadata
    src = hashlib.sha256()
    for path in sorted((root / "src" / "cyclodist").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.out_dir = root / ".perfbench-run"
        self.env = workloads.child_env(root)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.out_dir))
        self.workers = 0

    def worker(self, *, setup_only=False, trace=False) -> dict:
        """Start one worker, wait for it alone, return its pass record."""
        self.workers += 1
        tag = f"w{self.workers}"
        tmp = self.tmp / tag
        tmp.mkdir()
        out = self.tmp / f"{tag}.json"
        argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
                "--root", str(self.root), "--workload", self.args.workload,
                "--scale", self.args.scale, "--seed", str(self.args.seed),
                "--tmp", str(tmp), "--out", str(out)]
        if setup_only:
            argv.append("--setup-only")
        if trace:
            argv += ["--trace", "1", "--spans", str(self.spans_path()),
                     "--run-id", f"{self.args.workload}-{self.args.seed}-{os.getpid()}"]
        loads = {"load_before": os.getloadavg()}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run budget exhausted")
        t0 = time.perf_counter_ns()
        code, usage = workloads.run_child(argv + ["--t0-ns", str(t0)], self.env,
                                          self.tmp / f"{tag}.log", timeout=remaining)
        if code != 0:
            log = (self.tmp / f"{tag}.err").read_text()
            raise RuntimeError(f"worker {tag} exited with {code}:\n{log}")
        record = json.loads(out.read_text())
        record.update(loads, load_after=os.getloadavg(), worker_maxrss_kb=usage.ru_maxrss,
                      setup_only=setup_only, traced=trace)
        return record

    def spans_path(self) -> Path:
        return self.out_dir / f"spans-{self.args.workload}.jsonl"

    def run(self):
        if self.args.trace:
            self.spans_path().write_text("")
            passes = [self.worker(), self.worker(trace=True)]
            setups = []
        else:
            passes = [self.worker()]
            while sum(p["wall_s"] for p in passes) < self.args.seconds:
                passes.append(self.worker())
            setups = [self.worker(setup_only=True)
                      for _ in range(max(0, SETUPS - len(passes)))]
        return passes, setups


def summarize(args, passes, setups, span_records):
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["problems"])
    if args.trace:
        untraced, traced = passes
        metrics = spans.aggregate(span_records)
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = spans.LAYER_METRICS
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(r["setup_s"] for r in passes + setups),
            "peak_rss_mb": max(max(r["peak_rss_kb"], r["worker_maxrss_kb"])
                               for r in passes + setups) / 1024,
            "op_gmean_s": statistics.median(p["op_gmean_s"] for p in passes),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_gmean_s": "s"}
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="tiny: small inputs, for the benchmark's own self-checks")
    args = ap.parse_args()

    root = here.parent
    if not (root / "src" / "cyclodist" / "__init__.py").is_file():
        print(f"perfbench: no cyclodist sources under {root / 'src'}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench-run"
    out_dir.mkdir(exist_ok=True)
    # the build: byte-compile once, outside every timed region
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "cyclodist"),
                    str(here)], env=workloads.child_env(root), check=True,
                   stdout=subprocess.DEVNULL)

    record = {"args": vars(args), "environment": environment(root),
              "load_before": os.getloadavg()}
    runner = Runner(args, root)
    try:
        passes, setups = runner.run()
        span_records = spans.load_spans(runner.spans_path()) if args.trace else []
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
    record.update(load_after=os.getloadavg(), passes=passes, setups=setups)
    result = summarize(args, passes, setups, span_records)
    record["result"] = result
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    for p in passes:
        for op in p["ops"]:
            for problem in op["problems"]:
                print(f"perfbench: FAILED {op['key']}: {problem}", file=sys.stderr)
    print("perfbench environment: " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
