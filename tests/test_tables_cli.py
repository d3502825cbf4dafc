import json
import subprocess
import sys

import pytest

from cyclodist.arith import sieve_limit_for
from cyclodist.cli import main
from cyclodist.tables import TABLE_IDS, build_table, compare_to_golden, reproduce_all


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_all_tables_match_golden(pack):
    for tid in TABLE_IDS:
        artifact = build_table(tid, pack=pack)
        diffs = compare_to_golden(artifact)
        assert not diffs, (tid, diffs)


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
    for method in ("series", "partition", "poly"):
        code, out, _ = run_cli(capsys, "coeff", "--n", "105", "--k", "7", "--method", method)
        assert code == 0 and out.strip() == "-2"


def test_cli_rama(capsys):
    code, out, _ = run_cli(capsys, "rama", "--n", "4", "--m", "2")
    assert code == 0 and out.strip() == "-2"
    code, out, _ = run_cli(capsys, "rama", "--n", "4", "--m", "2", "--direct")
    assert code == 0 and out.strip() == "-2"


def test_cli_poly(capsys):
    code, out, _ = run_cli(capsys, "poly", "--n", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 0, -1, 0, 1]


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
    code, _, _ = run_cli(capsys, "table3", "--kmax", "5", "--out", str(out_file))
    assert code == 0 and json.loads(out_file.read_text())["table_id"] == "3"
    code, out, _ = run_cli(capsys, "table11", "--kmax", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["data"]["entries"]["7"]["bracket"] == 224


def test_cli_reproduce_all(capsys, tmp_path, pack):
    code, out, _ = run_cli(capsys, "reproduce-all", "--out-dir", str(tmp_path))
    assert code == 0
    assert "all tables reproduced" in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["all_pass"] and len(manifest["tables"]) >= 10


def test_cli_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "valueset", "--k", "55")
    assert code == 3 and "resource" in err.lower()
    code, _, err = run_cli(capsys, "moment", "prime", "--k", "2", "--z", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "empirical", "--stat", "c", "--nprimes", "10")
    assert code == 2  # missing k
    code, _, err = run_cli(capsys, "empirical", "--stat", "mu", "--nprimes", "10",
                           "--cond", "garbage")
    assert code == 2


def test_cli_cache_dir(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "--sieve-limit", "20000", "--cache-dir", str(tmp_path),
                         "constants", "--precision", "0.01")
    assert code == 0
    assert list(tmp_path.glob("sieve_20000.cpd1"))
    # second run loads from the cache
    code, out, _ = run_cli(capsys, "--sieve-limit", "20000", "--cache-dir", str(tmp_path),
                           "constants", "--precision", "0.01", "--format", "json")
    assert code == 0 and json.loads(out)["artin"]["truncation_prime"] == 19997


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
    code, out, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "empirical", "--stat", "s2",
                           "--nprimes", "1000", "--format", "csv")
    assert code == 0
    limit = sieve_limit_for(nprimes=1000)
    assert [f.name for f in tmp_path.glob("*.cpd1")] == [f"sieve_{limit}.cpd1"]
    code, again, _ = run_cli(capsys, "--cache-dir", str(tmp_path), "empirical", "--stat", "s2",
                             "--nprimes", "1000", "--format", "csv")
    assert code == 0 and again == out
    assert sieve_builds == [limit, limit]  # a build, then a verified load


def test_cli_empirical_needs_a_range(capsys, sieve_builds):
    code, _, err = run_cli(capsys, "empirical", "--stat", "mu")
    assert code == 2 and "nprimes" in err
    assert sieve_builds == []
