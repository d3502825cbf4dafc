"""Self-checks of the benchmark, at tiny scale (about two minutes):

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    base = HERE.parent / ".perfbench-run"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(workload, trace=0, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


def copy_benchmark(dest):
    """A second checkout at dest holding BENCHMARK.json and perfbench/ only;
    returns the path of its run.py."""
    shutil.copy(HERE.parent / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    return dest / "perfbench" / "run.py"


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_smoke(workload):
    result = result_of(bench(workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_cli_goes_through_the_launcher():
    result = result_of(bench("cli_cold", trace=1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert metrics["cli.main.s"] > 0 and metrics["cli.startup_s"] > 0
    assert metrics["arith.cache_reads"] == 2 and metrics["arith.cache_hits"] == 1
    # op 3 loads the cached sieve and then builds a second one
    assert metrics["arith.sieve_pack.calls_max_process"] == 2


def test_traced_exact_frontier_builds_no_sieve():
    metrics = {n: m["value"] for n, m in result_of(bench("exact_frontier", trace=1))["metrics"].items()}
    assert metrics["arith.sieve_pack.calls"] == 0
    assert metrics["cyclotomic.cyclo_coeff.calls"] > 0
    assert metrics["densities_natural.partitions"] > 0


def test_reference_off_by_one_counts_as_failed(scratch):
    script = copy_benchmark(scratch)
    (scratch / "src").symlink_to(HERE.parent / "src", target_is_directory=True)
    refs_path = scratch / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["tiny"]["prime_scan"]["scan_primes(mu_pminus1,nprimes=10000)"]["counts"]["1"] += 1
    refs_path.write_text(json.dumps(refs))
    clean = result_of(bench("prime_scan"))
    broken = result_of(bench("prime_scan", script=script))
    assert clean["failed"] == 0 and clean["correct"]
    assert broken["attempted"] == clean["attempted"]
    assert broken["failed"] == 1 and not broken["correct"]


def test_op_that_raises_is_counted_not_fatal(scratch):
    script = copy_benchmark(scratch)
    shutil.copytree(HERE.parent / "src", scratch / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    with open(scratch / "src" / "cyclodist" / "densities_natural.py", "a") as fh:
        fh.write("\n\ndef mean_coeff(k):\n    raise RuntimeError('injected')\n")
    proc = bench("exact_frontier", script=script)
    result = result_of(proc)
    # ops 1 and 3 raise; ops 2 and 4 check against their results
    assert result["failed"] == 4 and not result["correct"] and result["attempted"] == 10
    assert proc.stderr.count("reference op") == 2


def test_refuses_to_run_without_the_sources(scratch):
    proc = bench("exact_frontier", script=copy_benchmark(scratch))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
