import json
import math
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cyclodist import cyclotomic, ramanujan
from cyclodist.arith import factorize, read_sieve_cache, sieve_limit_for, sieve_pack, write_sieve_cache
from cyclodist.cli import main
from cyclodist.cyclotomic import cyclo_coeff
from cyclodist.densities_prime import ValuationConstraint
from cyclodist.empirics import symmetric_residue
from cyclodist.tables import (
    KMAX_TABLES,
    TABLE_IDS,
    build_table,
    compare_to_golden,
    load_golden,
    reproduce_all,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_all_tables_match_golden(pack):
    for tid in TABLE_IDS:
        artifact = build_table(tid, pack=pack)
        diffs = compare_to_golden(artifact)
        assert not diffs, (tid, diffs)
    # a table built to a smaller kmax is compared only as far as it goes
    assert compare_to_golden(build_table("3", kmax=5)) == []


@pytest.mark.parametrize("kmax", [None, pytest.param(61, marks=pytest.mark.slow)])
@pytest.mark.parametrize("tid", KMAX_TABLES)
def test_kmax_tables_build_one_lattice(tid, kmax, lattice_builds):
    # each kmax table asks for its top k first, so the lattice kept for it
    # serves the sweep's every k (at 61, about 1.5 s a table on 2 cores)
    top = kmax or {"2": 30, "3": 20, "4": 16, "10": 10, "11": 30}[tid]
    assert len(build_table(tid, kmax=kmax).rows) >= top
    assert lattice_builds == [top]


# Corruptions of one artifact each, as (action, path into the artifact's data):
# "bump" changes an exact leaf, "nudge" moves a theory_numeric leaf by 2e-6,
# "add" puts an unexpected value key into a map, "drop" deletes a key and
# "stratum" appends a copy of a row under a new label.
_CORRUPTIONS = {
    "1": [("bump", ("rows", 0, "counts", "-1")), ("bump", ("rows", 2, "freq", "0")),
          ("add", ("rows", 1, "counts")), ("drop", ("rows", 0, "freq", "1")),
          ("drop", ("rows", 1, "counts")), ("drop", ("rows", 2, "freq"))],
    "2": [("bump", ("bounds", "17")), ("drop", ("bounds", "5"))],
    "3": [("bump", ("e", "15")), ("drop", ("e", "5"))],
    "4": [("bump", ("zeta2_delta", "7", "-2")), ("add", ("zeta2_delta", "7")),
          ("drop", ("zeta2_delta", "7", "1"))],
    "6": [("bump", ("entries", "1")), ("bump", ("nonzero_mass",)), ("bump", ("k",)),
          ("nudge", ("theory_numeric", "0")), ("add", ("entries",)),
          ("add", ("theory_numeric",)), ("drop", ("entries", "15")),
          ("drop", ("theory_numeric", "4"))],
    "7": [("bump", ("means", "21")), ("nudge", ("theory_numeric", "24")),
          ("add", ("means",)), ("drop", ("means", "8"))],
    "8": [("bump", ("rows", 0, "entries", "1", 1)), ("bump", ("rows", 2, "mass", 0)),
          ("nudge", ("rows", 1, "theory_numeric", "0")), ("stratum", ("rows",)),
          ("drop", ("rows", 0, "entries", "0")), ("nudge", ("rows", 0, "empirical_1e4", "0")),
          ("add", ("rows", 2, "empirical_1e4"))],
    "9": [("bump", ("rows", 3, "entries", "0", 1)), ("nudge", ("rows", 2, "theory_numeric", "1")),
          ("stratum", ("rows",)), ("drop", ("rows", 1, "theory_numeric", "-1")),
          ("nudge", ("rows", 3, "empirical_1e4", "1")), ("drop", ("rows", 2, "empirical_1e4", "-1"))],
    "10": [("bump", ("rows", "7", "mean")), ("bump", ("rows", "7", "density", "2")),
           ("add", ("rows", "7", "density")), ("drop", ("rows", "7", "density", "2"))],
    "11": [("bump", ("entries", "11", "bracket")), ("bump", ("entries", "11", "e")),
           ("add", ("entries", "11", "V")), ("drop", ("entries", "11", "V", "-2"))],
}


def _corrupt(data: dict, action: str, path: tuple) -> dict:
    *head, last = path
    node = data
    for key in head:
        node = node[key]
    value = node[last]
    if action == "bump":
        node[last] = value + 1 if isinstance(value, int) else str(Fraction(value) + 1)
    elif action == "nudge":
        node[last] = f"{float(value) + 2e-6:.6f}"
    elif action == "add":
        value["99"] = "1/7"
    elif action == "drop":
        del node[last]
    else:  # "stratum"
        value.append(dict(value[-1], label="nu(p-1)>=9"))
    return data


@pytest.mark.parametrize("tid", TABLE_IDS)
def test_compare_to_golden_flags_corruption(tid, pack):
    artifact = build_table(tid, pack=pack)
    text = artifact.to_json()
    assert compare_to_golden(replace(artifact, data=json.loads(text)["data"])) == []
    for action, path in _CORRUPTIONS[tid]:
        data = _corrupt(json.loads(text)["data"], action, path)
        assert compare_to_golden(replace(artifact, data=data)), (action, path)


_STRATA = {
    "nu2(p-1)<=1": ((2, 1),),
    "nu2(p-1)>=2": ((2, ("ge", 2)),),
    "nu3(p-1)=0": ((3, 0),),
    "nu3(p-1)=1": ((3, 1),),
    "nu3(p-1)>=2": ((3, ("ge", 2)),),
    "total": (),
}


def test_empirical_1e4_golden_by_scalar_route(pack):
    # the 10^4-prime strata of tables 8 and 9, recounted prime by prime
    # from s_k(p) = (-1)^k a_(p-1)(k) mod p, zero for k > phi(p-1)
    primes = pack.primes[:10_000].tolist()
    for tid, k in (("8", 2), ("9", 3)):
        values = []
        for p in primes:
            fn = factorize(p - 1)
            v = 0 if k > fn.phi() else symmetric_residue((-1) ** k * cyclo_coeff(fn, k), p)
            values.append((fn.factors, v))
        rows = load_golden(tid)["rows"]
        for row in rows:
            c = ValuationConstraint(_STRATA[row["label"]], squarefree_outside=False)
            counts = {}
            for factors, v in values:
                if c.matches(factors):
                    counts[v] = counts.get(v, 0) + 1
            want = {str(v): f"{n / 10**4:.6f}" for v, n in sorted(counts.items())}
            assert row["empirical_1e4"] == want, (tid, row["label"])
        assert {r["label"] for r in rows} <= set(_STRATA)


def test_artifact_renderers(pack):
    artifact = build_table("3")
    md = artifact.to_markdown()
    assert "| k | e_k |" in md and "2287/20160" in md
    csv_text = artifact.to_csv()
    assert csv_text.splitlines()[0] == "k,e_k"
    payload = json.loads(artifact.to_json())
    assert payload["table_id"] == "3"
    assert payload["provenance"] == "unconditional"
    t10 = json.loads(build_table("10").to_json())
    assert t10["provenance"] == "Conjecture-1-conditional"


def test_reproduce_all(tmp_path, pack):
    manifest = reproduce_all(tmp_path, pack=pack)
    assert manifest["all_pass"]
    assert len(manifest["tables"]) >= 10
    for tid, entry in manifest["tables"].items():
        assert entry["status"] == "pass", (tid, entry["diffs"])
        assert (tmp_path / f"table{tid}.json").exists()
    assert (tmp_path / "manifest.json").exists()


def test_cli_coeff(capsys):
    code, out, _ = run_cli(capsys, "coeff", "--n", "105", "--k", "7")
    assert code == 0 and out.strip() == "-2"
    for method in ("series", "partition"):
        code, out, _ = run_cli(capsys, "coeff", "--n", "105", "--k", "7", "--method", method)
        assert code == 0 and out.strip() == "-2"
    # poly is a subcommand of its own, not a coefficient method
    with pytest.raises(SystemExit) as exc:
        main(["coeff", "--n", "105", "--k", "7", "--method", "poly"])
    assert exc.value.code == 2


def test_cli_rama(capsys):
    code, out, _ = run_cli(capsys, "rama", "--n", "4", "--m", "2")
    assert code == 0 and out.strip() == "-2"
    code, out, _ = run_cli(capsys, "rama", "--n", "4", "--m", "2", "--direct")
    assert code == 0 and out.strip() == "-2"


def test_cli_poly(capsys):
    code, out, _ = run_cli(capsys, "poly", "--n", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 0, -1, 0, 1]
    # the bytes the rendering of tables and of every other query prints
    code, out, _ = run_cli(capsys, "poly", "--n", "6")
    assert out == "| k | a_n(k) |\n| --- | --- |\n| 0 | 1 |\n| 1 | -1 |\n| 2 | 1 |\n"
    code, out, _ = run_cli(capsys, "poly", "--n", "6", "--format", "csv")
    assert out == "k,a_n(k)\n0,1\n1,-1\n2,1\n"
    code, out, _ = run_cli(capsys, "table", "--id", "3", "--kmax", "1")
    assert out == ("**Scaled average e_k of the k-th cyclotomic coefficient** (unconditional)"
                   "\n\n| k | e_k |\n| --- | --- |\n| 1 | 0 |\n\n")
    code, out, _ = run_cli(capsys, "table", "--id", "3", "--kmax", "1", "--format", "csv")
    assert out == "k,e_k\n1,0\n"


def test_cli_mean_and_density(capsys):
    code, out, _ = run_cli(capsys, "mean", "--k", "15", "--format", "json")
    assert code == 0 and json.loads(out)["e_k"] == "2287/20160"
    code, out, _ = run_cli(capsys, "density", "prime", "--k", "15", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,coeff,basis,numeric"
    assert lines[1].startswith("1,9/19,ARTIN,0.177137")
    code, out, _ = run_cli(capsys, "density", "natural", "--k", "7", "--format", "json")
    payload = json.loads(out)
    assert payload["conditional"] is False
    code, out, _ = run_cli(capsys, "density", "natural", "--m", "2", "--format", "json")
    assert len(json.loads(out)["entries"]) == 4


def test_cli_moments(capsys):
    code, out, _ = run_cli(capsys, "moment", "prime", "--k", "2", "--z", "2", "--format", "json")
    assert code == 0 and json.loads(out)["coeff"] == "3"
    code, out, _ = run_cli(capsys, "moment", "natural", "--m", "2", "--order", "2", "--format", "json")
    assert code == 0 and json.loads(out)["coeff"] == "5/3"
    # the mean is the z = 1 moment: Table 7's 2A and 27A/5
    for k, want in (("2", "2"), ("12", "27/5")):
        code, out, _ = run_cli(capsys, "moment", "prime", "--k", k, "--z", "1", "--format", "json")
        assert code == 0 and json.loads(out)["coeff"] == want, k


def test_cli_moment_past_the_float_range_is_a_budget_refusal(capsys):
    # exact coefficients whose numeric field overflows a float, and a float
    # power q^(z-1) that overflows while the moment is computed: an
    # OverflowError escaping main would fail this test with its traceback
    for query in (("natural", "--m", "2", "--order", "2000"),
                  ("natural", "--m", "6", "--order", "400"),
                  ("prime", "--k", "2", "--z", "1100"),
                  ("prime", "--k", "2", "--z", "5000.5")):
        code, out, err = run_cli(capsys, "moment", *query)
        assert code == 3 and out == "" and "float range" in err, query


def test_cli_moment_past_its_bit_budget_exits_3(capsys):
    # order 10^5 at m = 720720 builds integers of about 3.4 x 10^6 bits: the
    # CLI once refused it as past the float range only after 0.83 s
    # (natural) and 2.8 s (prime) of exact work, and 16 s at order 10^6
    for query in (("natural", "--m", "720720", "--order", "100000"),
                  ("prime", "--k", "720720", "--z", "100000"),
                  ("natural", "--m", "720720", "--order", "1000000"),
                  ("prime", "--k", "720720", "--z", "1000000")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "moment", *query)
        assert code == 3 and out == "" and "524288 budget" in err, query
        assert time.perf_counter() - start < 1, query
    # an odd natural order is exactly 0 at any size
    code, out, _ = run_cli(capsys, "moment", "natural", "--m", "720720", "--order", "1000001",
                           "--format", "json")
    assert code == 0 and json.loads(out)["coeff"] == "0"


def test_cli_moment_of_an_order_past_the_float_range_exits_3(capsys):
    # the budget once multiplied the order by a float, so an order past
    # 1.8e308 escaped main as an OverflowError; m = 1 builds 0 bits at any order
    huge = str(10**400)
    for query in (("natural", "--m", "6", "--order", huge), ("prime", "--k", "2", "--z", "1e400"),
                  ("prime", "--k", "2", "--z", huge)):
        code, out, err = run_cli(capsys, "moment", *query)
        assert code == 3 and out == "" and "524288 budget" in err, query
    for query in (("natural", "--m", "1", "--order", huge), ("prime", "--k", "1", "--z", "1e400")):
        code, out, _ = run_cli(capsys, "moment", *query, "--format", "json")
        assert code == 0 and json.loads(out)["coeff"] == "1", query


def test_cli_valueset(capsys):
    code, out, _ = run_cli(capsys, "valueset", "--k", "7", "--format", "json")
    payload = json.loads(out)
    assert payload["bound"] == 2 and payload["full_set"] == [-2, -1, 0, 1, 2]


def test_cli_a_and_s_density(capsys):
    code, out, _ = run_cli(capsys, "a-density", "--k", "7", "--format", "json")
    payload = json.loads(out)
    assert payload["mean_over_A"] == "1/190"
    code, out, _ = run_cli(capsys, "s-density", "--k", "2", "--format", "json")
    assert json.loads(out)["conditional"] is True


def test_cli_constants(capsys):
    code, out, _ = run_cli(capsys, "constants", "--format", "json")
    payload = json.loads(out)
    assert abs(payload["artin"]["value"] - 0.3739558136) < 1e-7
    assert payload["artin"]["tail_bound"] <= 1e-8


def test_cli_empirical(capsys, pack):
    code, out, _ = run_cli(capsys, "empirical", "--stat", "s2", "--nprimes", "10000",
                           "--format", "csv")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
    assert rows["-1"][1] == "930" and rows["0"][1] == "6261" and rows["1"][1] == "2809"
    assert rows["-1"][2] == "0.093000"
    code, out, _ = run_cli(capsys, "empirical", "--stat", "c", "--k", "15",
                           "--nprimes", "1000", "--cond", "nu2=2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conditioning"] is not None
    assert payload["total"] == 1000


def test_cli_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "sym", "--p", "7", "--kmax", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["s"] == [1, 1, 0, 0]
    code, out, _ = run_cli(capsys, "oracle", "roots", "--p", "7", "--format", "json")
    assert json.loads(out)["roots"] == [3, 5]


def test_cli_tables(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "table", "--id", "3", "--kmax", "20")
    assert code == 0 and "2287/20160" in out
    out_file = tmp_path / "t3.json"
    code, _, _ = run_cli(capsys, "table", "--id", "3", "--kmax", "5", "--out", str(out_file))
    assert code == 0 and json.loads(out_file.read_text())["table_id"] == "3"
    code, out, _ = run_cli(capsys, "table", "--id", "11", "--kmax", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["data"]["entries"]["7"]["bracket"] == 224


def test_cli_reproduce_all(capsys, tmp_path, pack):
    code, out, _ = run_cli(capsys, "reproduce-all", "--out-dir", str(tmp_path))
    assert code == 0
    assert "all tables reproduced" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["all_pass"] and len(manifest["tables"]) >= 10


def test_cli_exit_codes(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
    for cmd in ("valueset", "s-density"):
        code, _, err = run_cli(capsys, cmd, "--k", "62")
        assert code == 3 and "resource" in err.lower(), cmd
    code, _, err = run_cli(capsys, "mean", "--k", "81", "--method", "partition")
    assert code == 3 and "resource" in err.lower()
    code, out, _ = run_cli(capsys, "moment", "prime", "--k", "2", "--z", "1")
    assert code == 0 and out
    code, out, err = run_cli(capsys, "moment", "prime", "--k", "2", "--z", "1/0")
    assert code == 2 and out == "" and "zero denominator" in err
    # an odd order is no excuse for an m that does not exist
    for m in ("-3", "0"):
        for order in ("1", "2"):
            code, out, err = run_cli(capsys, "moment", "natural", "--m", m, "--order", order)
            assert code == 2 and out == "", (m, order)
    code, _, err = run_cli(capsys, "empirical", "--stat", "c", "--nprimes", "10")
    assert code == 2  # missing k
    code, _, err = run_cli(capsys, "empirical", "--stat", "a", "--k", "81", "--nprimes", "10")
    assert code == 3 and "k <= 80" in err
    # c_(p-1)(k) reads no coefficient profile: no cap on k
    code, out, _ = run_cli(capsys, "empirical", "--stat", "c", "--k", "100", "--nprimes", "10")
    assert code == 0 and out
    code, _, err = run_cli(capsys, "empirical", "--stat", "mu", "--nprimes", "10",
                           "--cond", "garbage")
    assert code == 2
    code, _, err = run_cli(capsys, "empirical", "--stat", "mu", "--nprimes", "10",
                           "--cond", "nu4=0")  # a valuation at 4 is no valuation
    assert code == 2 and "primes" in err
    # a negative k is refused by every method
    for method in ("recurrence", "series", "partition"):
        code, out, err = run_cli(capsys, "coeff", "--n", "7", "--k", "-1", "--method", method)
        assert code == 2 and out == "" and "k must be >= 0" in err, method
    for table_id in KMAX_TABLES:  # no header-only table for kmax < 1
        for kmax in ("0", "-2"):
            code, out, err = run_cli(capsys, "table", "--id", table_id, "--kmax", kmax)
            assert code == 2 and out == "" and "kmax must be >= 1" in err, (table_id, kmax)

    # past the profile cap every table that takes kmax is a budget refusal,
    # made before any coefficient lattice is built
    def no_lattice(*args):
        raise AssertionError("lattice built for a refused kmax")

    monkeypatch.setattr(cyclotomic, "_profile_lattice", no_lattice)
    for table_id in KMAX_TABLES:
        code, out, err = run_cli(capsys, "table", "--id", table_id, "--kmax", "62")
        assert code == 3 and out == "" and "resource" in err.lower(), table_id
    code, out, err = run_cli(capsys, "empirical", "--stat", "mu", "--x", "-5")
    assert code == 2 and out == "" and "x must be >= 0" in err
    code, out, err = run_cli(capsys, "oracle", "sym", "--p", "7", "--kmax", "-1")
    assert code == 2 and out == "" and "kmax must be >= 1" in err
    # --full exists only for the tables that scan primes
    code, _, err = run_cli(capsys, "table", "--id", "3", "--kmax", "3", "--full")
    assert code == 2 and "full" in err
    with pytest.raises(ValueError):
        build_table("11", full=True)


def test_cli_constants_refuses_kfree_before_the_sieve(capsys, sieve_builds):
    # 0 is an order too, not "unset"; each is refused before any sieve is built
    for order in ("0", "1", "-3"):
        code, out, err = run_cli(capsys, "constants", "--kfree", order)
        assert code == 2 and out == "" and "powerfree order" in err, order
    assert sieve_builds == []


def test_cli_ramanujan_fold_past_its_budget_exits_3(capsys):
    # prod_(p<=37) p^3 has a fold of 5^12 rows: its value tables are refused
    # at once, where they once ran out of memory and exited 1; its moments,
    # closed forms checked per prime, build no table and are answered
    m = str(math.prod(p**3 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))
    for argv in (("density", "natural", "--m", m), ("density", "prime", "--k", m),
                 ("moment", "natural", "--m", m, "--order", "2"),
                 ("moment", "prime", "--k", m, "--z", "1")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        if argv[0] == "density":
            assert code == 3 and out == "" and "244140625 rows" in err, argv
        else:
            assert code == 0 and out, argv
        assert time.perf_counter() - start < 1, argv


def test_cli_ramanujan_fold_of_a_wide_m_exits_3(capsys, monkeypatch):
    # 2^630 3^630 has 399,424 rows of 13 x 128 bits: refused at once, before
    # any row is built, where it once took 17 s at a 663 MB peak
    monkeypatch.setattr(ramanujan, "_local_value", None)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "density", "natural", "--m", str(2**630 * 3**630))
    assert code == 3 and out == "" and "399424 rows of 13 x 128 bits" in err
    assert time.perf_counter() - start < 1


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclodist.cli", "coeff", "--n", "6", "--k", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "-1"


def test_cli_output_determinism(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "empirical", "--stat", "s2",
                               "--nprimes", "2000", "--format", "csv")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_conditional_labels(pack):
    conditional = {"8", "9", "10"}
    for tid in TABLE_IDS:
        artifact = build_table(tid, pack=pack)
        assert artifact.conditional == (tid in conditional), tid


def test_cli_rational_moment(capsys):
    code, out, _ = run_cli(capsys, "moment", "prime", "--k", "2", "--z", "5/2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(json.loads(out)["coeff"], str)
    lo = float(payload["numeric"])
    assert lo > 0


def test_cli_reproduce_all_unwritable(capsys, tmp_path):
    # out-dir nested under a regular file cannot be created (even by root)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run_cli(capsys, "reproduce-all", "--out-dir", str(blocker / "sub"))
    assert code == 3 and "resource" in err.lower()


def test_cli_rejects_both_bounds(capsys):
    code, _, err = run_cli(capsys, "empirical", "--stat", "mu", "--nprimes", "10",
                           "--x", "100")
    assert code == 2


def test_cli_sieve_sized_to_the_query(capsys, tmp_path, sieve_builds):
    # queries that need no primes build no sieve at all
    assert run_cli(capsys, "density", "prime", "--k", "15")[0] == 0
    assert run_cli(capsys, "table", "--id", "11")[0] == 0
    assert run_cli(capsys, "table", "--id", "6")[0] == 0
    assert sieve_builds == []
    # 10^4-prime scans stay far below the 2*10^7 default
    assert run_cli(capsys, "table", "--id", "1")[0] == 0
    assert run_cli(capsys, "reproduce-all", "--out-dir", str(tmp_path / "out"))[0] == 0
    assert sieve_builds and max(sieve_builds) <= 200_000


def test_cli_cache_dir_sized_to_the_query(capsys, tmp_path, sieve_builds):
    # --cache-dir writes the prime list of the query's own sieve, named by
    # its limit, and the same query without it prints the same
    cache = tmp_path / "new" / "dir"
    code, out, _ = run_cli(capsys, "--cache-dir", str(cache), "empirical", "--stat", "s2",
                           "--nprimes", "1000", "--format", "csv")
    assert code == 0
    limit = sieve_limit_for(nprimes=1000)
    assert sieve_builds == [limit]
    assert [f.name for f in cache.iterdir()] == [f"sieve_{limit}.cpd1"]
    cached = read_sieve_cache(cache / f"sieve_{limit}.cpd1", limit)
    assert np.array_equal(cached, sieve_pack(limit).primes)
    assert run_cli(capsys, "empirical", "--stat", "s2", "--nprimes", "1000",
                   "--format", "csv")[:2] == (0, out)


def test_cli_cache_dir_replaces_a_corrupt_file(capsys, tmp_path):
    # whatever the file held is replaced by the fresh list, through a
    # temporary file that does not outlive the write, and stdout does not move
    limit = sieve_limit_for(nprimes=1000)
    path = tmp_path / f"sieve_{limit}.cpd1"
    good = sieve_pack(limit).primes.tolist()
    _, want, _ = run_cli(capsys, "empirical", "--stat", "mu", "--nprimes", "1000")
    corruptions = {
        "truncated": good[:-100],
        "extra composite": sorted(good + [91]),
        "descending order": good[::-1],
    }
    for label, primes in corruptions.items():
        write_sieve_cache(path, limit, primes)
        code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "empirical", "--stat", "mu",
                               "--nprimes", "1000")
        assert (code, out) == (0, want), label
        assert read_sieve_cache(path, limit).tolist() == good, label
        assert [f.name for f in tmp_path.iterdir()] == [path.name], label


def test_no_environment_variable_turns_a_cache_on(capsys, tmp_path, monkeypatch):
    # the cache directory once came from an environment variable as well: no
    # module reads the environment now, and neither sieve_pack nor a query
    # without --cache-dir writes a file
    for path in Path(cyclotomic.__file__).parent.glob("*.py"):
        assert not re.search(r"environ|getenv", path.read_text()), path.name
    monkeypatch.chdir(tmp_path)
    sieve_pack(5000)
    assert run_cli(capsys, "empirical", "--stat", "mu", "--nprimes", "10")[0] == 0
    assert list(tmp_path.iterdir()) == []


def test_cli_unwritable_cache_dir_exits_3(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for cache in (blocker, blocker / "sub"):
        code, out, err = run_cli(capsys, "--cache-dir", str(cache), "empirical", "--stat", "mu",
                                 "--nprimes", "10")
        assert (code, out) == (3, ""), cache
        assert err.startswith("resource budget:"), cache
    assert [f.name for f in tmp_path.iterdir()] == ["file"]


def test_cli_bad_precision_goal_builds_no_sieve(capsys, tmp_path, sieve_builds):
    # the goal is refused before the 2*10^7 sieve (or any cache file) exists:
    # an invalid goal is a usage error, an unreachable one a budget overrun
    for flags in ([], ["--cache-dir", str(tmp_path)]):
        for goal in ("0", "-1", "nan"):
            code, out, err = run_cli(capsys, *flags, "constants", "--precision", goal)
            assert code == 2 and out == "" and "precision goal" in err, (flags, goal)
        code, out, err = run_cli(capsys, *flags, "constants", "--precision", "1e-11")
        assert code == 3 and out == "" and "precision goal" in err, flags
    assert sieve_builds == []
    assert list(tmp_path.glob("*.cpd1")) == []


def test_cli_empirical_needs_a_range(capsys, sieve_builds):
    code, _, err = run_cli(capsys, "empirical", "--stat", "mu")
    assert code == 2 and "nprimes" in err
    assert sieve_builds == []


def test_cli_coefficient_scans_refuse_past_the_cap_before_the_sieve(capsys, sieve_builds):
    for stat in ("a", "s"):
        code, out, err = run_cli(capsys, "empirical", "--stat", stat, "--k", "81",
                                 "--nprimes", "10")
        assert code == 3 and out == "" and "k <= 80" in err, stat
    assert sieve_builds == []
    # k = 62 is past the profile cap, which the scans no longer read
    code, out, _ = run_cli(capsys, "empirical", "--stat", "a", "--k", "62", "--nprimes", "10")
    assert code == 0 and out
