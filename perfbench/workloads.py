"""The three workloads: their set-up, their ops, and each op's output check.

Every op has a key naming its exact parameters.  ``references.json`` pins,
per scale and workload, a digest of each key's output at the commit that
defined the benchmark; ``pin.py`` regenerates it.  Besides the pinned
digest, ops carry independent checks against the golden tables and
between independent routes.  A check failure never skips or retries an
op: it is counted in ``failed``.

Pools.  The seed picks each marked parameter from a pool of members that
cost about the same (measured on a 2-core box; see README.md), so that the
seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

WORKLOADS = ("cli_cold", "prime_scan", "exact_frontier")
SCALES = ("full", "tiny")

# exact 10^6-prime counts of the slow test suite (tests/test_slow_reproductions.py)
SLOW_SUITE_COUNTS = {
    "scan_primes(mu_pminus1,nprimes=1000000)": {"-1": 187320, "0": 625881, "1": 186799},
    "scan_primes(s_k_mod_p,k=2,nprimes=1000000)": {"-1": 93939, "0": 626216, "1": 279845},
}
EMPIRICAL_TOLERANCE = 1e-3  # the golden tables' tolerance for 10^6-prime columns

PARAMS = {
    "full": {
        "nprimes": 10**6, "x": 10**7, "limit": 10**6, "sieve_limit": None,
        "c_ks": (15, 21, 30, 36),
        "K": (40,), "K_odd": (35, 37), "K_part": (48, 49),
        "value_set_k": 30, "prime_density_k": 20, "poly_n": 255255,
        "ramanujan_m": 200, "moller_k": 40,
        "cli_density_k": (15, 21, 36), "cli_valueset_k": (22, 24, 26),
        "cli_mean_k": 40, "cli_poly_n": 15015, "cli_coeff": (255255, 20),
    },
    "tiny": {
        "nprimes": 10**4, "x": 10**5, "limit": 10**4, "sieve_limit": 200_000,
        "c_ks": (15, 21, 30, 36),
        "K": (12,), "K_odd": (11, 13), "K_part": (20, 21),
        "value_set_k": 10, "prime_density_k": 8, "poly_n": 1155,
        "ramanujan_m": 20, "moller_k": 10,
        "cli_density_k": (15, 21, 36), "cli_valueset_k": (8, 9, 10),
        "cli_mean_k": 12, "cli_poly_n": 105, "cli_coeff": (105, 7),
    },
}


def sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], List[str]] = lambda result: []


@dataclass
class Context:
    """What set-up leaves behind for the ops of one pass."""

    root: Path
    scale: str
    tmp: Path
    env: dict
    tracer: object = None
    spans_path: Optional[Path] = None
    pack: object = None
    children: List[dict] = field(default_factory=list)  # rusage of CLI children


# -- child processes ----------------------------------------------------------------


def child_env(root: Path) -> dict:
    """Hermetic environment: the checkout's own sources, no sieve cache
    from the caller, single-threaded numpy/BLAS, fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("CYCLODIST_CACHE", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def run_child(argv, env, stdout_path: Path, timeout: float):
    """Run one process to completion; return (exit code, its own rusage).

    The rusage comes from os.wait4 on this child alone: RUSAGE_CHILDREN
    would keep the maximum over every child reaped so far."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class CliRun:
    """One cold ``python -m cyclodist.cli`` query (through the tracing
    launcher in the traced run)."""

    def __init__(self, ctx: Context, argv: List[str], name: str):
        self.ctx, self.argv, self.name = ctx, argv, name

    def __call__(self):
        ctx = self.ctx
        out = ctx.tmp / f"{self.name}.out"
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "cyclodist.cli", *self.argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("launcher.py")),
                   str(ctx.spans_path), ctx.tracer.run_id, self.name, ctx.tracer.current(),
                   *self.argv]
        code, usage = run_child(cmd, ctx.env, out, timeout=150)
        ctx.children.append({"op": self.name, "maxrss_kb": usage.ru_maxrss})
        return {"code": code, "stdout": out.read_bytes()}


def _cli_digest(result):
    return sha256(result["stdout"])


def _cli_check(result):
    return [] if result["code"] == 0 else [f"exit code {result['code']}"]


# -- cli_cold ------------------------------------------------------------------------


def setup_cli_cold(ctx: Context) -> None:
    warm = ctx.tmp / "warm"
    fill = CliRun(ctx, ["--cache-dir", str(warm), "empirical", "--stat", "mu", "--nprimes", "10"],
                  "setup")()
    if fill["code"] != 0 or not any(warm.glob("*.cpd1")):
        raise RuntimeError("warm-cache fill failed")


def ops_cli_cold(ctx: Context, rng: random.Random) -> List[Op]:
    """Both scales run the same queries; tiny only shrinks the exact
    arguments (the sieve-bound queries always use the default sieve)."""
    p = PARAMS[ctx.scale]
    warm, out_dir = str(ctx.tmp / "warm"), ctx.tmp / "reproduce"
    coeff_n, coeff_k = p["cli_coeff"]
    queries = [
        ["density", "prime", "--k", str(rng.choice(p["cli_density_k"]))],
        ["table", "--id", "1"],
        ["--cache-dir", warm, "table", "--id", "8"],
        ["table", "--id", "11"],
        ["valueset", "--k", str(rng.choice(p["cli_valueset_k"]))],
        ["mean", "--k", str(p["cli_mean_k"]), "--method", "partition"],
        ["poly", "--n", str(p["cli_poly_n"]), "--format", "json"],
        ["coeff", "--n", str(coeff_n), "--k", str(coeff_k), "--method", "partition"],
    ]
    ops = []
    for i, argv in enumerate(queries, 1):
        key = " ".join("<warm>" if a == warm else a for a in argv)
        ops.append(Op(key, CliRun(ctx, argv, f"op{i}"), _cli_digest, _cli_check))
    run = CliRun(ctx, ["reproduce-all", "--out-dir", str(out_dir)], f"op{len(ops) + 1}")
    ops.append(Op("reproduce-all --out-dir <tmp>",
                  lambda: dict(run(), artifacts=_artifact_hashes(out_dir)),
                  _reproduce_digest, _reproduce_check(out_dir)))
    return ops


def _artifact_hashes(out_dir: Path) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.glob("table*.json"))}


def _reproduce_digest(result):
    return {"stdout": sha256(result["stdout"]), "artifacts": result["artifacts"]}


def _reproduce_check(out_dir: Path):
    def check(result):
        problems = _cli_check(result)
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"manifest unreadable: {exc}"]
        if manifest.get("all_pass") is not True:
            problems.append("manifest does not report all_pass")
        return problems

    return check


# -- prime_scan ------------------------------------------------------------------------


def setup_prime_scan(ctx: Context) -> None:
    from cyclodist.arith import default_pack, sieve_pack

    limit = PARAMS[ctx.scale]["sieve_limit"]
    ctx.pack = sieve_pack(limit) if limit else default_pack()


def _counts(report) -> dict:
    return {"total": report.total, "counts": {str(v): c for v, c in sorted(report.counts.items())}}


def _golden(tid: str) -> dict:
    from cyclodist.tables import load_golden

    return load_golden(tid)


def _within(got: float, want: str, where: str) -> List[str]:
    if abs(got - float(want)) > EMPIRICAL_TOLERANCE:
        return [f"{where}: {got:.6f} vs golden {want}"]
    return []


def _check_slow_counts(key):
    def check(report):
        want = SLOW_SUITE_COUNTS.get(key)
        if want is not None and _counts(report)["counts"] != want:
            return [f"counts differ from the slow suite's {want}"]
        return []

    return check


def _check_c_pminus1(k: int, nprimes: int):
    def check(report):
        if nprimes != 10**6:
            return []
        if k == 15:
            folded = {}
            for v, c in report.counts.items():
                folded[abs(v)] = folded.get(abs(v), 0) + c
            gold = _golden("6")["empirical_1e6"]
            problems = []
            for v, want in gold.items():
                problems += _within(folded.get(int(v), 0) / report.total, want, f"T6[{v}]")
            return problems
        mean = sum(abs(v) * c for v, c in report.counts.items()) / report.total
        return _within(mean, _golden("7")["empirical_1e6"][str(k)], f"T7[{k}]")

    return check


def _check_s3_nu3(nprimes: int):
    def check(report):
        if nprimes != 10**6:
            return []
        row = next(r for r in _golden("9")["rows"] if r["label"] == "nu3(p-1)>=2")
        problems = []
        for v, want in row["empirical_1e6"].items():
            problems += _within(report.counts.get(int(v), 0) / report.total, want, f"T9[{v}]")
        return problems

    return check


def ops_prime_scan(ctx: Context, rng: random.Random) -> List[Op]:
    from cyclodist import empirics
    from cyclodist.densities_prime import ValuationConstraint

    p = PARAMS[ctx.scale]
    n, x, lim, pack = p["nprimes"], p["x"], p["limit"], ctx.pack
    ck = rng.choice(p["c_ks"])
    nu3 = ValuationConstraint(((3, ("ge", 2)),), squarefree_outside=False)

    def scan(key, *args, check=None, **kwargs):
        return Op(key, lambda: empirics.scan_primes(*args, pack=pack, **kwargs), _counts,
                  check or _check_slow_counts(key))

    def bulk(key, run):
        return Op(key, run, lambda res: {str(a): {str(v): c for v, c in sorted(cnt.items())}
                                         for a, cnt in res.items()})

    return [
        scan(f"scan_primes(mu_pminus1,nprimes={n})", "mu_pminus1", nprimes=n),
        scan(f"scan_primes(s_k_mod_p,k=2,nprimes={n})", "s_k_mod_p", k=2, nprimes=n),
        scan(f"scan_primes(c_pminus1,k={ck},nprimes={n})", "c_pminus1", k=ck, nprimes=n,
             check=_check_c_pminus1(ck, n)),
        scan(f"scan_primes(s_k_mod_p,k=3,nprimes={n},nu3>=2)", "s_k_mod_p", k=3, nprimes=n,
             constraint=nu3, check=_check_s3_nu3(n)),
        scan(f"scan_primes(a_pminus1,k=15,x={x})", "a_pminus1", k=15, x=x),
        bulk(f"count_cyclo_values((15,),{lim})",
             lambda: empirics.count_cyclo_values((15,), lim, pack)),
        bulk(f"count_ramanujan_values([2],{lim})",
             lambda: empirics.count_ramanujan_values([2], lim, pack)),
    ]


# -- exact_frontier --------------------------------------------------------------------


def setup_exact_frontier(ctx: Context) -> None:
    import cyclodist  # noqa: F401  (the import is this workload's whole set-up)


def _ek(ek) -> dict:
    return {"e": str(ek.e_k), "witness": ek.integrality_witness}


def _table(table) -> dict:
    return {"basis": table.basis.value, "conditional": table.conditional,
            "entries": {str(v): str(c) for v, c in table.entries}}


def ops_exact_frontier(ctx: Context, rng: random.Random) -> List[Op]:
    from cyclodist import cyclotomic, densities_natural as dn, densities_prime as dp, ramanujan

    p = PARAMS[ctx.scale]
    K, K_odd, K_part = rng.choice(p["K"]), rng.choice(p["K_odd"]), rng.choice(p["K_part"])
    vk, pk, n, mmax, mk = (p["value_set_k"], p["prime_density_k"], p["poly_n"],
                           p["ramanujan_m"], p["moller_k"])
    results = {}

    def keep(name, fn):
        def run():
            results[name] = fn()
            return results[name]

        return run

    def density_check(table):
        if "mean" not in results:
            return [f"reference op mean_coeff({K}) failed"]
        mean = results["mean"].e_k
        if table.moment(1) != mean:
            return [f"first moment {table.moment(1)} != e_{K} = {mean}"]
        return []

    def partition_check(pair):
        missing = [name for name in ("mean", "mean_odd") if name not in results]
        if missing:
            return [f"reference op {'/'.join(missing)} failed"]
        got = (pair[0].e_k, pair[1].e_k)
        want = (results["mean"].e_k, results["mean_odd"].e_k)
        return [] if got == want else [f"partition route {got} != divisor route {want}"]

    def value_set_check(reports):
        gold = _golden("2")["bounds"]
        return [f"B({r.k}) = {r.bound}, golden {gold[str(r.k)]}"
                for r in reports if str(r.k) in gold and r.bound != gold[str(r.k)]]

    def prime_density_check(pairs):
        gold = _golden("10")["rows"]
        problems = []
        for k, (table, mean) in enumerate(pairs, 1):
            want = gold.get(str(k))
            if want is None:
                continue
            got = {str(v): Fraction(c) for v, c in table.entries}
            if got != {v: Fraction(c) for v, c in want["density"].items()}:
                problems.append(f"T10[k={k}] density differs")
            if mean != Fraction(want["mean"]):
                problems.append(f"T10[k={k}] mean differs")
        return problems

    def poly_check(coeffs):
        from cyclodist.arith import euler_phi

        problems = []
        if len(coeffs) != euler_phi(n) + 1:
            problems.append(f"degree {len(coeffs) - 1} != phi({n})")
        if coeffs != coeffs[::-1]:
            problems.append("not palindromic")
        if coeffs[:41] != [cyclotomic.cyclo_coeff(n, i) for i in range(41)]:
            problems.append("disagrees with cyclo_coeff below index 41")
        return problems

    def moller_check(entries):
        g3, g11 = _golden("3")["e"], _golden("11")["entries"]
        problems = []
        for e in entries:
            if str(e.k) in g3 and str(e.e_k) != g3[str(e.k)]:
                problems.append(f"e_{e.k} = {e.e_k}, table 3 has {g3[str(e.k)]}")
            if str(e.k) in g11 and str(e.e_k) != g11[str(e.k)]["e"]:
                problems.append(f"e_{e.k} = {e.e_k}, table 11 has {g11[str(e.k)]['e']}")
        return problems

    return [
        Op(f"mean_coeff({K})", keep("mean", lambda: dn.mean_coeff(K)), _ek),
        Op(f"coeff_density({K})", lambda: dn.coeff_density(K), _table, density_check),
        Op(f"mean_coeff({K_odd})", keep("mean_odd", lambda: dn.mean_coeff(K_odd)), _ek),
        Op(f"mean_coeff_partition({K},{K_odd})",
           lambda: (dn.mean_coeff_partition(K), dn.mean_coeff_partition(K_odd)),
           lambda pair: [_ek(e) for e in pair], partition_check),
        Op(f"mean_coeff_partition({K_part})", lambda: dn.mean_coeff_partition(K_part), _ek),
        Op(f"value_set(2..{vk})", lambda: [cyclotomic.value_set(k) for k in range(2, vk + 1)],
           lambda reps: sha256([[r.k, r.bound, sorted(r.full_set), sorted(r.odd_set),
                                 sorted(r.even_set)] for r in reps]), value_set_check),
        Op(f"coeff_prime_density(1..{pk})",
           lambda: [dp.coeff_prime_density(k) for k in range(1, pk + 1)],
           lambda pairs: sha256([[_table(t), str(m)] for t, m in pairs]), prime_density_check),
        Op(f"cyclo_poly({n})", lambda: cyclotomic.cyclo_poly(n), sha256, poly_check),
        Op(f"ramanujan_densities(1..{mmax})",
           lambda: [(ramanujan.natural_density_of_ramanujan(m), dp.ramanujan_prime_density(m))
                    for m in range(1, mmax + 1)],
           lambda pairs: sha256([[_table(a), _table(b)] for a, b in pairs])),
        Op(f"moller_conjecture_scan({mk})", lambda: dn.moller_conjecture_scan(mk),
           lambda entries: sha256([[e.k, str(e.e_k), e.sign_ok, e.range_ok] for e in entries]),
           moller_check),
    ]


SETUP = {"cli_cold": setup_cli_cold, "prime_scan": setup_prime_scan,
         "exact_frontier": setup_exact_frontier}
OPS = {"cli_cold": ops_cli_cold, "prime_scan": ops_prime_scan,
       "exact_frontier": ops_exact_frontier}


def build_ops(workload: str, ctx: Context, seed: int) -> List[Op]:
    return OPS[workload](ctx, random.Random(f"{workload}:{seed}"))


def verify(op: Op, result, pinned: Optional[dict]) -> List[str]:
    """Problems with one op's output: pinned digest first, then the op's
    own independent checks.  A digest or check that raises is a problem of
    the op too, so it is counted, never fatal to the run."""
    problems = []
    try:
        if pinned is None or op.key not in pinned:
            problems.append("no pinned reference")
        elif op.digest(result) != pinned[op.key]:
            problems.append("output differs from the pinned reference")
        problems += op.check(result)
    except Exception as exc:
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    return problems
