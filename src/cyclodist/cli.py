"""Command-line front end.

Subcommands: coeff, poly, valueset, rama, mean, density, moment,
s-density, a-density, constants, empirical, oracle, table, reproduce-all.
Output formats: markdown (default), csv, json.  Exit codes: 2 usage/domain
error, 3 resource budget exceeded, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional

from . import tables
from .arith import sieve_limit_for, sieve_pack
from .cyclotomic import (
    cyclo_coeff,
    cyclo_coeff_partition,
    cyclo_coeff_series,
    cyclo_poly,
    value_set,
)
from .densities_natural import coeff_density, mean_coeff, mean_coeff_partition
from .densities_prime import (
    ValuationConstraint,
    artin_constant,
    check_kfree_order,
    coeff_prime_density,
    ramanujan_prime_density,
    ramanujan_prime_moment,
    s_small_density,
    shifted_prime_kfree_density,
    sieve_limit_for_precision,
)
from .density import DensityTable, basis_numeric
from .empirics import primitive_roots, scan_primes, symmetric_functions_mod_p
from .errors import InternalConsistencyError, ResourceBudgetError
from .ramanujan import natural_density_of_ramanujan, natural_moment_of_ramanujan, ramanujan_sum, ramanujan_sum_direct


def _emit_rows(columns: List[str], rows: List[List[str]], fmt: str, payload) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(tables.render_rows(columns, rows, fmt), end="")


_COEFF_METHODS = {
    "recurrence": cyclo_coeff,
    "series": cyclo_coeff_series,
    "partition": cyclo_coeff_partition,
}


def _density_rows(table: DensityTable):
    b = basis_numeric(table.basis)
    columns = ["value", "coeff", "basis", "numeric"]
    rows = [
        [str(v), str(c), table.basis.value, f"{float(c) * b:.6f}"]
        for v, c in table.entries
    ]
    payload = json.loads(table.to_json())
    return columns, rows, payload


def _parse_constraint(spec: str) -> ValuationConstraint:
    entries = []
    for part in spec.split(","):
        m = re.fullmatch(r"nu(\d+)(>=|<=|=)(\d+)", part.strip())
        if not m:
            raise ValueError(f"cannot parse conditioning {part!r} (use e.g. nu2=2, nu3>=1)")
        q, op, e = int(m.group(1)), m.group(2), int(m.group(3))
        if op == "=":
            entries.append((q, e))
        elif op == ">=":
            entries.append((q, ("ge", e)))
        else:
            if q == 2 and e == 1:
                entries.append((q, 1))  # odd p always have nu_2(p-1) >= 1
            elif e == 0:
                entries.append((q, 0))
            else:
                raise ValueError("only nu2<=1 and nuQ<=0 upper bounds are supported")
    return ValuationConstraint(tuple(sorted(entries)), squarefree_outside=False)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclodist",
        description="Exact Ramanujan-sum / cyclotomic-coefficient distributions",
    )
    ap.add_argument("--cache-dir", default=None,
                    help="compare each sieve built with its file here (or in $CYCLODIST_CACHE), rewrite it if it "
                         "differs; never loaded, saves no time, kept while the cli_cold benchmark passes it")
    sub = ap.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=("markdown", "csv", "json"), default="markdown")
        return p

    p = sub.add_parser("coeff", help="one cyclotomic coefficient a_n(k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=tuple(_COEFF_METHODS), default="recurrence")

    p = fmt(sub.add_parser("poly", help="all coefficients of Phi_n"))
    p.add_argument("--n", type=int, required=True)

    p = fmt(sub.add_parser("valueset", help="attained coefficient values at index k"))
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("rama", help="Ramanujan sum c_n(m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--direct", action="store_true", help="use the root-of-unity oracle")

    p = fmt(sub.add_parser("mean", help="scaled mean e_k of a_n(k)"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("divisor", "partition"), default="divisor")

    p = fmt(sub.add_parser("density", help="value densities"))
    p.add_argument("side", choices=("natural", "prime"))
    p.add_argument("--k", type=int, help="coefficient index (natural: a_n(k); prime: c_(p-1)(k))")
    p.add_argument("--m", type=int, help="natural-side Ramanujan argument c_n(m)")
    p.add_argument("--signed", action="store_true", help="prime side: signed values (conditional)")

    p = fmt(sub.add_parser("moment", help="moments of Ramanujan sums"))
    p.add_argument("side", choices=("natural", "prime"))
    p.add_argument("--k", type=int, help="prime side: c_(p-1)(k)")
    p.add_argument("--m", type=int, help="natural side: c_n(m)")
    p.add_argument("--order", type=int, help="natural side: moment order")
    p.add_argument("--z", type=str, help="prime side: moment order z > 0, z != 1")

    p = fmt(sub.add_parser("s-density", help="distribution of s_k(p) mod p, k <= 4"))
    p.add_argument("--k", type=int, required=True)

    p = fmt(sub.add_parser("a-density", help="distribution of a_(p-1)(k) over primes"))
    p.add_argument("--k", type=int, required=True)

    p = fmt(sub.add_parser("constants", help="Artin constant and shifted-prime k-free densities"))
    p.add_argument("--precision", type=float, default=1e-8)
    p.add_argument("--kfree", type=int, default=None, help="also print the (r=1, k) k-free density")

    p = fmt(sub.add_parser("empirical", help="deterministic prime scans"))
    p.add_argument("--stat", required=True,
                   help="mu | c | a | sK | SK | kfree | conj1 (or full names)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="shift for kfree")
    p.add_argument("--kfree-order", type=int, default=2)
    p.add_argument("--nprimes", type=int, default=None)
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--cond", type=str, default=None, help="e.g. nu2=2 or nu3>=2")

    p = fmt(sub.add_parser("oracle", help="primitive-root oracles"))
    p.add_argument("kind", choices=("sym", "roots"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--kmax", type=int, default=4)

    p = fmt(sub.add_parser("table", help="reproduce a numbered reference table"))
    p.add_argument("--id", required=True, choices=tables.TABLE_IDS)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--out", type=str, default=None, help="write JSON artifact here")
    p.add_argument("--full", action="store_true", help="include 10^6-prime columns")

    p = sub.add_parser("reproduce-all", help="rebuild all tables and check against golden values")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--full", action="store_true")
    return ap


_STAT_ALIASES = {
    "mu": "mu_pminus1",
    "c": "c_pminus1",
    "a": "a_pminus1",
    "s": "s_k_mod_p",
    "kfree": "kfree_shift",
    "conj1": "conjecture1",
}


def _resolve_stat(stat: str, k: Optional[int]):
    if stat in _STAT_ALIASES:
        return _STAT_ALIASES[stat], k
    m = re.fullmatch(r"([sS])(\d+)", stat)
    if m:
        return ("s_k_mod_p" if m.group(1) == "s" else "S_k_mod_p"), int(m.group(2))
    if stat == "S":
        return "S_k_mod_p", k
    return stat, k


def _run(args) -> int:
    cmd = args.command

    if cmd == "coeff":
        print(_COEFF_METHODS[args.method](args.n, args.k))
    elif cmd == "poly":
        coeffs = cyclo_poly(args.n)
        _emit_rows(["k", "a_n(k)"],
                   [[str(i), str(c)] for i, c in enumerate(coeffs)],
                   args.format, payload={"n": args.n, "coefficients": coeffs})
    elif cmd == "valueset":
        report = value_set(args.k)
        payload = {
            "k": report.k,
            "bound": report.bound,
            "full_set": sorted(report.full_set),
            "odd_set": sorted(report.odd_set),
            "even_set": sorted(report.even_set),
        }
        _emit_rows(
            ["field", "value"],
            [[key, str(val)] for key, val in payload.items()],
            args.format, payload=payload)
    elif cmd == "rama":
        print(ramanujan_sum_direct(args.n, args.m) if args.direct
              else ramanujan_sum(args.n, args.m))
    elif cmd == "mean":
        ek = mean_coeff(args.k) if args.method == "divisor" else mean_coeff_partition(args.k)
        payload = {"k": ek.k, "e_k": str(ek.e_k), "witness": ek.integrality_witness}
        _emit_rows(["k", "e_k", "k*prod(p+1)*e_k"],
                   [[str(ek.k), str(ek.e_k), str(ek.integrality_witness)]],
                   args.format, payload=payload)
    elif cmd == "density":
        if args.side == "natural":
            if args.m is not None:
                table = natural_density_of_ramanujan(args.m)
            elif args.k is not None:
                table = coeff_density(args.k)
            else:
                raise ValueError("density natural needs --k (coefficients) or --m (Ramanujan sums)")
        else:
            if args.k is None:
                raise ValueError("density prime needs --k")
            table = ramanujan_prime_density(args.k, signed=args.signed)
        cols, rows, payload = _density_rows(table)
        _emit_rows(cols, rows, args.format, payload=payload)
    elif cmd == "moment":
        if args.side == "natural":
            if args.m is None or args.order is None:
                raise ValueError("moment natural needs --m and --order")
            coeff, basis = natural_moment_of_ramanujan(args.m, args.order)
            payload = {"m": args.m, "order": args.order, "coeff": str(coeff), "basis": basis.value,
                       "numeric": float(coeff) * basis_numeric(basis)}
        else:
            if args.k is None or args.z is None:
                raise ValueError("moment prime needs --k and --z")
            z = Fraction(args.z)
            coeff, basis = ramanujan_prime_moment(args.k, z)
            payload = {"k": args.k, "z": str(z), "coeff": str(coeff), "basis": basis.value,
                       "numeric": float(coeff) * basis_numeric(basis)}
        _emit_rows(list(payload), [[str(v) for v in payload.values()]],
                   args.format, payload=payload)
    elif cmd == "s-density":
        cols, rows, payload = _density_rows(s_small_density(args.k))
        _emit_rows(cols, rows, args.format, payload=payload)
    elif cmd == "a-density":
        table, mean = coeff_prime_density(args.k)
        cols, rows, payload = _density_rows(table)
        payload["mean_over_A"] = str(mean)
        rows.append(["mean/A", str(mean), table.basis.value,
                     f"{float(mean) * basis_numeric(table.basis):.6f}"])
        _emit_rows(cols, rows, args.format, payload=payload)
    elif cmd == "constants":
        if args.kfree is not None:
            check_kfree_order(args.kfree)
        pack = sieve_pack(sieve_limit_for_precision(args.precision), args.cache_dir)
        a = artin_constant(args.precision, pack=pack)
        rows = [["artin", f"{a.value:.10f}", f"{a.tail_bound:.3g}", str(a.truncation_prime)]]
        payload = {"artin": {"value": a.value, "tail_bound": a.tail_bound,
                             "truncation_prime": a.truncation_prime}}
        if args.kfree is not None:
            m = shifted_prime_kfree_density(1, args.kfree, pack=pack)
            rows.append([f"kfree(r=1,k={args.kfree})", f"{m.value:.10f}",
                         f"{m.tail_bound:.3g}", str(m.truncation_prime)])
            payload["kfree"] = {"value": m.value, "tail_bound": m.tail_bound}
        _emit_rows(["constant", "value", "tail_bound", "truncation_prime"], rows,
                   args.format, payload=payload)
    elif cmd == "empirical":
        stat, k = _resolve_stat(args.stat, args.k)
        constraint = _parse_constraint(args.cond) if args.cond else None
        limit = sieve_limit_for(nprimes=args.nprimes, x=args.x, shift=args.r)
        report = scan_primes(
            stat, k=k, shift=args.r, kfree_order=args.kfree_order, nprimes=args.nprimes,
            x=args.x, constraint=constraint, pack=sieve_pack(limit, args.cache_dir))
        rows = [[str(r["value"]), str(r["count"]), f"{r['frequency']:.6f}"] for r in report.rows()]
        payload = {
            "statistic": report.statistic, "bound": report.bound,
            "total": report.total, "conditioning": report.conditioning,
            "counts": {str(v): c for v, c in sorted(report.counts.items())},
        }
        _emit_rows(["value", "count", "frequency"], rows, args.format, payload=payload)
    elif cmd == "oracle":
        if args.kind == "roots":
            roots = primitive_roots(args.p, pack=None)
            _emit_rows(["primitive roots mod " + str(args.p)],
                       [[str(g)] for g in roots], args.format,
                       payload={"p": args.p, "roots": roots})
        else:
            s, S = symmetric_functions_mod_p(args.p, args.kmax)
            rows = [[str(i + 1), str(s[i]), str(S[i])] for i in range(args.kmax)]
            _emit_rows(["k", "s_k mod p", "S_k mod p"], rows, args.format,
                       payload={"p": args.p, "s": s, "S": S})
    elif cmd == "table":
        limit = tables.sieve_limit([args.id], args.full)
        artifact = tables.build_table(args.id, full=args.full, kmax=args.kmax,
                                      pack=sieve_pack(limit, args.cache_dir) if limit else None)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(artifact.to_json())
        if args.format == "json":
            print(artifact.to_json())
        elif args.format == "csv":
            print(artifact.to_csv(), end="")
        else:
            print(artifact.to_markdown())
    elif cmd == "reproduce-all":
        limit = tables.sieve_limit(tables.TABLE_IDS, args.full)
        manifest = tables.reproduce_all(args.out_dir, args.full, sieve_pack(limit, args.cache_dir))
        for tid, entry in sorted(manifest["tables"].items(), key=lambda kv: int(kv[0])):
            print(f"table {tid}: {entry['status']}")
            for d in entry["diffs"]:
                print(f"  {d}")
        if not manifest["all_pass"]:
            print("FAIL: reproduction diverges from golden values", file=sys.stderr)
            return 1
        print("all tables reproduced")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ResourceBudgetError, OSError) as exc:
        # filesystem failures (unwritable out-dir etc.) count as resource errors
        print(f"resource budget: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
