"""Print one SHA-256 over the value counts of a fixed set of empirical scans.

Run it once against each of two source trees, for example

    PYTHONPATH=base/src python .github/scripts/scan_digest.py
    PYTHONPATH=head/src python .github/scripts/scan_digest.py

and compare the two lines: any change to a count, a total, a statistic
label or a conditioning string changes the digest.  It covers every
statistic of `scan_primes` over the first 10^5 primes (two blocks of
2^16), with and without a valuation constraint (one of them, for
conjecture1 only, prescribing nu_3(p - 1) >= 11), and the bulk counts of
a_n(k) and c_n(m) over n <= 10^5.  It uses only public names that every
tree since the split-profile fold has.
"""

import hashlib
import json

from cyclodist.densities_prime import ValuationConstraint
from cyclodist.empirics import STATISTICS, count_cyclo_values, count_ramanujan_values, scan_primes

NPRIMES = 10**5
LIMIT = 10**5
ARGS = {
    "mu_pminus1": [{}],
    # 720720 = 2^4·3^2·5·7·11·13 keeps new parts n_S coming past the first
    # block; m = 2^80 is past int64, and c_(p-1)(m) is then as large as the
    # 2-part of p - 1 allows; 3^11 and 5^7·7^5 have caps past the 2^16
    # residue tables (3^12, 5^8, 7^6), so their parts run the deep path
    "c_pminus1": [{"k": k} for k in (1, 2, 12, 15, 30, 61, 100, 720720, 2**80,
                                     3**11, 5**7 * 7**5)],
    "a_pminus1": [{"k": k} for k in (1, 2, 15, 30, 61)],
    "s_k_mod_p": [{"k": k} for k in (1, 2, 3, 15, 30, 61)],
    "S_k_mod_p": [{"k": k} for k in (1, 2, 12, 30, 100, 720720, 3**11, 5**7 * 7**5)],
    # orders 2 (μ) and 3, 4, 7 (floor-quotient tests); shift 1 makes p = 2 give m = 1
    "kfree_shift": [{"shift": s, "kfree_order": r}
                    for s, r in ((1, 2), (-1, 2), (2, 3), (-2, 2), (1, 4), (3, 4), (-3, 7), (1, 7))],
    "conjecture1": [{}],
}
# with 2 and without it, and every kind of exponent prescription
CONSTRAINTS = [
    ((2, ("ge", 2)), (3, 0)), ((3, 1),), ((2, 1), (5, 0)), ((2, 3), (3, ("ge", 1)), (7, 1)),
]
# exact valuations past the 3^10 residue table: conjecture1 only
DEEP_CONSTRAINT = ((3, ("ge", 11)),)
# 62 and 80 lie past the profile cap (61); 80 is the coefficient scans' own cap
KS = (1, 2, 15, 40, 62, 80)
MS = (1, 2, 12, 720)


def _record(report):
    return [report.statistic, report.bound, report.conditioning, report.total,
            sorted(report.counts.items())]


def main():
    constraints = [None] + [ValuationConstraint(entries, squarefree_outside=outside)
                            for entries in CONSTRAINTS for outside in (False, True)]
    records = []
    for statistic in STATISTICS:
        for constraint in constraints:
            if statistic == "conjecture1" and constraint is None:
                continue
            for args in ARGS[statistic]:
                records.append(_record(scan_primes(statistic, nprimes=NPRIMES,
                                                   constraint=constraint, **args)))
    for outside in (False, True):
        records.append(_record(scan_primes(
            "conjecture1", nprimes=NPRIMES,
            constraint=ValuationConstraint(DEEP_CONSTRAINT, squarefree_outside=outside))))
    for counts in (count_cyclo_values(KS, LIMIT), count_ramanujan_values(MS, LIMIT)):
        records += [[a, sorted(counts[a].items())] for a in sorted(counts)]
    print(hashlib.sha256(json.dumps(records).encode()).hexdigest(), len(records))


if __name__ == "__main__":
    main()
