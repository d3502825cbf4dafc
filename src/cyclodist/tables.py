"""Reference-table artifacts and their golden comparisons.

Each builder recomputes one numbered table from scratch and packages it as
a :class:`TableArtifact` (exact fraction strings plus 6-decimal numeric
strings).  The theory columns are computed, never copied: the T8/T9 strata
come from the coefficient profile of a_(p-1)(k) under each valuation
constraint (:func:`cyclodist.densities_prime.s_small_density`) and the
constraint's valuation density.  Golden copies of the printed tables live
in ``golden/*.json``.
``compare_to_golden`` walks a golden file next to the artifact's data, the
same way for every table:

- leaves under ``theory_numeric`` compare within 1e-6 and leaves under
  ``empirical_1e6`` (the 10^6-prime columns of ``full`` mode) within 1e-3;
  every other leaf compares exactly, as ``str(got) == str(want)``;
- in a scan column (``counts``, ``freq``, ``empirical_1e6``) a value no
  prime took counts as zero;
- row lists pair their rows by ``nprimes`` or ``label``;
- wherever values are keyed by integers, a key the golden file lacks is
  reported as unexpected;
- golden rows the artifact lacks (a smaller scale) are skipped, tables
  that take ``kmax`` are compared for k up to the smaller of the two kmax,
  and ``empirical_1e6`` is skipped outside ``full`` mode.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .arith import SievePack, sieve_limit_for
from .cyclotomic import PROFILE_MAX_K, coeff_profile, value_set
from .densities_natural import coeff_density, mean_coeff, partition_means
from .densities_prime import (
    ValuationConstraint,
    coeff_prime_density,
    ramanujan_prime_density,
    ramanujan_prime_mean_abs,
    s_small_density,
    valuation_profile_density,
)
from .density import Basis, basis_numeric
from .empirics import scan_primes
from .errors import ResourceBudgetError

TABLE_IDS = ("1", "2", "3", "4", "6", "7", "8", "9", "10", "11")
# Builders of these tables scan primes and take `full` and `pack` (tables 6
# and 7 scan only with `full`); the others take `kmax`.
SCAN_TABLES = ("1", "6", "7", "8", "9")
KMAX_TABLES = tuple(t for t in TABLE_IDS if t not in SCAN_TABLES)

SCAN_SCALE = 10_000
FULL_SCALE = 1_000_000


@dataclass(frozen=True)
class TableArtifact:
    """One reproduced table: render-ready columns/rows plus the structured
    data used for golden comparison."""

    table_id: str
    title: str
    conditional: bool
    columns: List[str]
    rows: List[List[str]]
    data: dict

    def to_json(self) -> str:
        payload = {
            "table_id": self.table_id,
            "title": self.title,
            "provenance": "Conjecture-1-conditional" if self.conditional else "unconditional",
            "columns": self.columns,
            "rows": self.rows,
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def to_csv(self) -> str:
        return render_rows(self.columns, self.rows, "csv")

    def to_markdown(self) -> str:
        note = "conditional on Möbius sign equidistribution over shifted primes" \
            if self.conditional else "unconditional"
        return f"**{self.title}** ({note})\n\n" + render_rows(self.columns, self.rows, "markdown")


def render_rows(columns: List[str], rows: List[list], fmt: str) -> str:
    """The rows under their column names as csv, or (any other `fmt`) as a
    markdown table; every line ends in a newline."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
        return buf.getvalue()
    lines = ["| " + " | ".join(columns) + " |", "|" + "|".join(" --- " for _ in columns) + "|"]
    lines += ["| " + " | ".join(map(str, r)) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def load_golden(table_id: str) -> dict:
    ref = resources.files("cyclodist") / "golden" / f"table{table_id}.json"
    return json.loads(ref.read_text())


def _fmt6(x: float) -> str:
    return f"{x:.6f}"


def sieve_limit(table_ids: Iterable[str], full: bool = False) -> Optional[int]:
    """Sieve limit covering the prime scans behind the listed tables, or
    None when none of them scans primes: tables 1, 8 and 9 scan up to
    SCAN_SCALE primes, and with `full` they and tables 6 and 7 scan
    FULL_SCALE.  Builders given no pack size the shared one per scan; this
    is for callers that build a pack up front."""
    scanning = SCAN_TABLES if full else ("1", "8", "9")
    if not any(t in scanning for t in table_ids):
        return None
    return sieve_limit_for(nprimes=FULL_SCALE if full else SCAN_SCALE)


# -- builders -----------------------------------------------------------------


def build_table1(full: bool = False, pack: Optional[SievePack] = None) -> TableArtifact:
    scales = [100, 1000, SCAN_SCALE] + ([100_000, FULL_SCALE] if full else [])
    rows = []
    data = {"rows": []}
    for n in scales:
        rep = scan_primes("s_k_mod_p", k=2, nprimes=n, pack=pack)
        freq = {str(v): _fmt6(c / n) for v, c in sorted(rep.counts.items())}
        counts = {str(v): c for v, c in sorted(rep.counts.items())}
        rows.append([str(n), freq.get("-1", "0"), freq.get("0", "0"), freq.get("1", "0")])
        data["rows"].append({"nprimes": n, "freq": freq, "counts": counts})
    return TableArtifact(
        "1",
        "Value distribution of s_2(p) mod p over the first N primes",
        False,
        ["N", "s2 = -1", "s2 = 0", "s2 = 1"],
        rows,
        data,
    )


def build_table2(kmax: int = 30) -> TableArtifact:
    bounds = {str(k): value_set(k).bound for k in range(1, kmax + 1)}
    rows = [[k, str(v)] for k, v in bounds.items()]
    return TableArtifact(
        "2", "Maximal coefficient size B(k)", False, ["k", "B(k)"], rows,
        {"bounds": bounds},
    )


def build_table3(kmax: int = 20) -> TableArtifact:
    e = {str(k): str(mean_coeff(k).e_k) for k in range(1, kmax + 1)}
    rows = [[k, v] for k, v in e.items()]
    return TableArtifact(
        "3", "Scaled average e_k of the k-th cyclotomic coefficient", False,
        ["k", "e_k"], rows, {"e": e},
    )


def build_table4(kmax: int = 16) -> TableArtifact:
    data = {}
    rows = []
    for k in range(1, kmax + 1):
        table = coeff_density(k)
        entry = {str(v): str(c) for v, c in table.entries}
        data[str(k)] = entry
        rows.append(
            [str(k)] + [entry.get(v, "0") for v in ("-2", "-1", "1", "2")]
        )
    return TableArtifact(
        "4", "zeta(2) * density of coefficient values a_n(k) = v", False,
        ["k", "v=-2", "v=-1", "v=1", "v=2"], rows, {"zeta2_delta": data},
    )


def build_table6(full: bool = False, pack: Optional[SievePack] = None) -> TableArtifact:
    table = ramanujan_prime_density(15)
    a_val = basis_numeric(Basis.ARTIN)
    entries = {str(v): str(c) for v, c in table.entries}
    numeric = {str(v): _fmt6(float(c) * a_val) for v, c in table.entries}
    numeric["0"] = _fmt6(1 - float(table.nonzero_mass()) * a_val)
    data = {
        "k": 15,
        "entries": entries,
        "nonzero_mass": str(table.nonzero_mass()),
        "theory_numeric": numeric,
    }
    empirical = {}
    if full:
        rep = scan_primes("c_pminus1", k=15, nprimes=FULL_SCALE, pack=pack)
        folded: Dict[int, int] = {}
        for v, c in rep.counts.items():
            folded[abs(v)] = folded.get(abs(v), 0) + c
        empirical = {str(v): _fmt6(c / rep.total) for v, c in sorted(folded.items())}
        data["empirical_1e6"] = empirical
    rows = []
    for v in sorted([0] + [int(v) for v in entries]):
        exact = (_linear_in_a_str(Fraction(1), -table.nonzero_mass()) if v == 0
                 else f"({entries[str(v)]}) A")
        row = [str(v), exact, numeric[str(v)]]
        if full:
            row.append(empirical.get(str(v), ""))
        rows.append(row)
    cols = ["|c|", "density", "numeric"] + (["empirical"] if full else [])
    return TableArtifact(
        "6", "Density of values of |c_(p-1)(15)| over primes", False, cols, rows, data,
    )


def build_table7(full: bool = False, pack: Optional[SievePack] = None) -> TableArtifact:
    ks = (8, 21, 24, 27, 30, 36)
    a_val = basis_numeric(Basis.ARTIN)
    means = {str(k): str(ramanujan_prime_mean_abs(k)[0]) for k in ks}
    numeric = {k: _fmt6(float(Fraction(c)) * a_val) for k, c in means.items()}
    data = {"means": means, "theory_numeric": numeric}
    empirical = {}
    if full:
        for k in ks:
            rep = scan_primes("c_pminus1", k=k, nprimes=FULL_SCALE, pack=pack)
            mean = sum(abs(v) * c for v, c in rep.counts.items()) / rep.total
            empirical[str(k)] = _fmt6(mean)
        data["empirical_1e6"] = empirical
    rows = []
    for k in ks:
        row = [str(k), f"({means[str(k)]}) A", numeric[str(k)]]
        if full:
            row.append(empirical[str(k)])
        rows.append(row)
    cols = ["k", "mean |c_(p-1)(k)|", "numeric"] + (["empirical"] if full else [])
    return TableArtifact("7", "Average of |c_(p-1)(k)| over primes", False, cols, rows, data)


def _stratified_rows(k: int, strata, full: bool, pack: Optional[SievePack]):
    """Rows for the conditioned distributions of s_k(p) mod p.

    Each stratum is (label, constraint or None for all primes).  Its theory
    is c0 + c1 * A per value: the s_k table under the constraint gives c1
    for v = -1, 1, and v = 0 gets the stratum's mass (the valuation density
    of the constraint, or 1) less the table's nonzero mass.  A 10^4-prime
    scan column is always attached, the 10^6-prime column (the one compared
    against the printed empirics) only in full mode.
    """
    a_val = basis_numeric(Basis.ARTIN)
    rows = []
    data_rows = []
    for label, constraint in strata:
        table = s_small_density(k, constraint)
        mass = Fraction(1)
        if constraint is not None:
            mass = valuation_profile_density(constraint).coefficient
        entries = {
            "-1": (Fraction(0), table.coefficient(-1)),
            "0": (mass, -table.nonzero_mass()),
            "1": (Fraction(0), table.coefficient(1)),
        }
        numeric = {
            v: _fmt6(float(c0) + float(c1) * a_val) for v, (c0, c1) in entries.items()
        }
        drow = {
            "label": label,
            "entries": {v: (str(c0), str(c1)) for v, (c0, c1) in entries.items()},
            "mass": (str(mass), "0"),
            "theory_numeric": numeric,
        }
        rep = scan_primes(
            "s_k_mod_p", k=k, nprimes=SCAN_SCALE, constraint=constraint, pack=pack
        )
        drow["empirical_1e4"] = {
            str(v): _fmt6(c / rep.total) for v, c in sorted(rep.counts.items())
        }
        if full:
            rep = scan_primes(
                "s_k_mod_p", k=k, nprimes=FULL_SCALE, constraint=constraint, pack=pack
            )
            drow["empirical_1e6"] = {
                str(v): _fmt6(c / rep.total) for v, c in sorted(rep.counts.items())
            }
        data_rows.append(drow)
        cells = [label]
        for v in ("-1", "0", "1"):
            c0, c1 = entries[v]
            cells.append(_linear_in_a_str(c0, c1) + f" = {numeric[v]}")
        rows.append(cells)
    return rows, data_rows


def _linear_in_a_str(c0: Fraction, c1: Fraction) -> str:
    if c1 == 0:
        return str(c0)
    if c0 == 0:
        return "A" if c1 == 1 else f"({c1}) A"
    sign = "+" if c1 > 0 else "-"
    mag = abs(c1)
    a_part = "A" if mag == 1 else f"({mag}) A"
    return f"{c0} {sign} {a_part}"


def build_table8(full: bool = False, pack: Optional[SievePack] = None) -> TableArtifact:
    strata = [
        # odd p have nu_2(p-1) >= 1, so "<= 1" is exactly "= 1"
        ("nu2(p-1)<=1", ValuationConstraint(((2, 1),), squarefree_outside=False)),
        ("nu2(p-1)>=2", ValuationConstraint(((2, ("ge", 2)),), squarefree_outside=False)),
        ("total", None),
    ]
    rows, data_rows = _stratified_rows(2, strata, full, pack)
    return TableArtifact(
        "8",
        "Value distribution of s_2(p) mod p by nu_2(p-1)",
        True,
        ["stratum", "s2 = -1", "s2 = 0", "s2 = 1"],
        rows,
        {"statistic": "s_2(p) mod p", "rows": data_rows},
    )


def build_table9(full: bool = False, pack: Optional[SievePack] = None) -> TableArtifact:
    strata = [
        ("nu3(p-1)=0", ValuationConstraint(((3, 0),), squarefree_outside=False)),
        ("nu3(p-1)=1", ValuationConstraint(((3, 1),), squarefree_outside=False)),
        ("nu3(p-1)>=2", ValuationConstraint(((3, ("ge", 2)),), squarefree_outside=False)),
        ("total", None),
    ]
    rows, data_rows = _stratified_rows(3, strata, full, pack)
    return TableArtifact(
        "9",
        "Value distribution of s_3(p) mod p by nu_3(p-1)",
        True,
        ["stratum", "s3 = -1", "s3 = 0", "s3 = 1"],
        rows,
        {"statistic": "s_3(p) mod p", "rows": data_rows},
    )


def build_table10(kmax: int = 10) -> TableArtifact:
    data = {"rows": {}}
    rows = []
    for k in range(1, kmax + 1):
        table, mean = coeff_prime_density(k)
        entry = {
            "density": {str(v): str(c) for v, c in table.entries},
            "mean": str(mean),
        }
        data["rows"][str(k)] = entry
        rows.append(
            [str(k)]
            + [entry["density"].get(v, "0") for v in ("-2", "-1", "1", "2")]
            + [entry["mean"]]
        )
    return TableArtifact(
        "10",
        "Conjectural value distribution of a_(p-1)(k): density/A and mean/A",
        True,
        ["k", "v=-2", "v=-1", "v=1", "v=2", "mean"],
        rows,
        data,
    )


def build_table11(kmax: int = 30) -> TableArtifact:
    data = {"entries": {}}
    rows = []
    for k, ek in enumerate(partition_means(kmax), 1):
        table = coeff_density(k)
        entry = {
            "e": str(ek.e_k),
            "bracket": ek.integrality_witness,
            "V": {str(v): str(c) for v, c in table.entries},
        }
        data["entries"][str(k)] = entry
        rows.append([str(k), entry["e"], str(entry["bracket"])])
        for v, c in table.entries:
            rows.append([f"  V_{k}[{v:+d}]", str(c), _fmt6(float(c) * 6 / math.pi**2)])
    return TableArtifact(
        "11",
        "Value distribution of a_n(k): e_k, integer witness, and zeta(2)*densities",
        False,
        ["k / value", "exact", "numeric"],
        rows,
        data,
    )


_BUILDERS = {
    "1": build_table1,
    "2": build_table2,
    "3": build_table3,
    "4": build_table4,
    "6": build_table6,
    "7": build_table7,
    "8": build_table8,
    "9": build_table9,
    "10": build_table10,
    "11": build_table11,
}


def build_table(table_id: str, full: bool = False, kmax: Optional[int] = None,
                pack: Optional[SievePack] = None) -> TableArtifact:
    if table_id not in _BUILDERS:
        raise ValueError(f"unknown table id {table_id!r}; known: {TABLE_IDS}")
    if table_id in SCAN_TABLES:
        if kmax is not None:
            raise ValueError(f"table {table_id} does not take kmax")
        return _BUILDERS[table_id](full=full, pack=pack)
    if full:
        raise ValueError(f"table {table_id} has no full mode")
    builder = _BUILDERS[table_id]
    kmax = builder.__defaults__[0] if kmax is None else kmax  # its one parameter
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if kmax > PROFILE_MAX_K:
        raise ResourceBudgetError(f"table {table_id}: profiles stop at kmax <= {PROFILE_MAX_K}")
    if kmax >= 2:  # the lattice kept for the top k serves the sweep's every k
        coeff_profile(kmax)
    return builder(kmax=kmax)


# -- golden comparison -----------------------------------------------------------

# Leaves under these keys compare within a tolerance, all others exactly.
_TOLERANCES = {"theory_numeric": 1e-6, "empirical_1e6": 1e-3}
# Scan columns list only the values some prime took.
_SCAN_COLUMNS = ("counts", "freq", "empirical_1e6")
# Row lists pair their rows by the first of these keys a golden row has.
_ROW_KEYS = ("nprimes", "label")


def _children(node, row_key: Optional[str]) -> Optional[dict]:
    """A list as a map keyed by `row_key` (rows) or position; None for a leaf."""
    if isinstance(node, dict):
        return node
    if isinstance(node, (list, tuple)):
        return {str(v[row_key] if row_key else i): v for i, v in enumerate(node)}
    return None


def _is_int(key: str) -> bool:
    return key.lstrip("-").isdigit()


def _diff(diffs: List[str], where: str, got, want, tol: Optional[float] = None,
          scan: bool = False, by_k: bool = False) -> None:
    """Append to `diffs` every way `got` departs from the golden `want`.

    `tol` is the tolerance of the enclosing key, `scan` marks a scan column,
    and `by_k` says that the outermost integer-keyed map below is keyed by
    k (a table that takes kmax)."""
    if not isinstance(want, (dict, list)):
        off = str(got) != str(want) if tol is None else abs(float(got) - float(want)) > tol
        if off:
            diffs.append(f"{where}: got {got!r}, want {want!r}" + (f" (tol {tol})" if tol else ""))
        return
    rows = bool(want) and isinstance(want, list) and isinstance(want[0], dict)
    row_key = next(k for k in _ROW_KEYS if k in want[0]) if rows else None
    gold, mine = _children(want, row_key), _children(got, row_key)
    if mine is None:
        diffs.append(f"{where}: got {got!r}, want {want!r}")
        return
    int_keyed = all(_is_int(k) for k in gold)
    if rows:
        # a golden row the artifact lacks is from a larger scale
        gold = {k: w for k, w in gold.items() if k in mine}
    elif by_k and int_keyed:
        # compare k up to the smaller of the artifact's and the golden kmax
        top = min(max(map(int, gold)), max((int(k) for k in mine if _is_int(k)), default=0))
        gold = {k: w for k, w in gold.items() if int(k) <= top}
        mine = {k: g for k, g in mine.items() if not _is_int(k) or int(k) <= top}
        by_k = False
    for key, w in gold.items():
        here = f"{where}[{key}]"
        if key in mine:
            _diff(diffs, here, mine[key], w, _TOLERANCES.get(key, tol),
                  key in _SCAN_COLUMNS, by_k)
        elif scan:
            _diff(diffs, here, 0, w, tol or 0.0)
        elif key != "empirical_1e6":  # built only in full mode
            diffs.append(f"{here}: missing")
    if rows or int_keyed:
        diffs.extend(f"{where}[{key}]: unexpected" for key in mine if key not in gold)


def compare_to_golden(artifact: TableArtifact) -> List[str]:
    """Diffs between a rebuilt table and the printed reference values;
    empty result means the reproduction passes."""
    diffs: List[str] = []
    _diff(diffs, f"T{artifact.table_id}", artifact.data, load_golden(artifact.table_id),
          by_k=artifact.table_id in KMAX_TABLES)
    return diffs


def reproduce_all(out_dir, full: bool = False, pack: Optional[SievePack] = None) -> dict:
    """Rebuild every table, write one JSON artifact per table plus a
    manifest of pass/fail against the golden values."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"full": full, "tables": {}, "all_pass": True}
    for tid in TABLE_IDS:
        artifact = build_table(tid, full=full and tid in SCAN_TABLES, pack=pack)
        path = out / f"table{tid}.json"
        path.write_text(artifact.to_json())
        diffs = compare_to_golden(artifact)
        manifest["tables"][tid] = {
            "status": "pass" if not diffs else "fail",
            "artifact": str(path),
            "diffs": diffs,
        }
        if diffs:
            manifest["all_pass"] = False
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest
