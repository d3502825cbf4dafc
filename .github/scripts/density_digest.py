"""Print one SHA-256 over a fixed set of exact density tables.

Run it once against each of two source trees, for example

    PYTHONPATH=base/src python .github/scripts/density_digest.py
    PYTHONPATH=head/src python .github/scripts/density_digest.py

and compare the two lines: any change to a value, a coefficient, a basis,
a statistic label or a conditional flag changes the digest.  It also
hashes every e_k of the partition route to its cap (k <= 80, most of which
no divisor-route table reaches) with its integrality witness, and the flags
of the Möller conjecture scan to k = 79.  It uses only public names that
every tree since the split-profile fold has.

A second line hashes the value sets for k = 61 down to 2 and the partition
route's e_k lists for a descending run of kmax, each asked for after every
table above.  A tree that keeps the largest lattice and the longest walk
serves these from what it kept; a tree that keeps neither rebuilds each one,
so the two lines agree only if the kept structures answer as fresh builds.
"""

import hashlib
import json

from cyclodist.cyclotomic import value_set
from cyclodist.densities_natural import coeff_density, moller_conjecture_scan, partition_means
from cyclodist.densities_prime import (ValuationConstraint, coeff_prime_density,
                                       ramanujan_prime_density, s_small_density)
from cyclodist.ramanujan import natural_density_of_ramanujan

COEFF_KS = list(range(1, 46)) + [50, 53, 61]
PARTITION_K = 80  # the partition route's cap
VALUE_SET_KS = range(61, 1, -1)
PARTITION_KS = (80, 79, 61, 49, 48, 40, 35, 12, 2, 1, 0, -3)  # descending, then empty
# 2**61 * 105: the prime 2 alone breaks the int64 head bound and c_n(m)
# takes 1276 values over 1701 rows, so the fold sums per row in Python ints
RAMANUJAN_MS = list(range(1, 301)) + [720720, 9699690, 2**80, 2**61 * 105, 3**50 * 5**3, 10**25]
CONSTRAINTS = [
    ((2, 1),), ((2, ("ge", 2)),), ((2, 2), (3, 1)), ((3, 0),), ((3, 1),),
    ((3, ("ge", 2)),), ((2, ("ge", 1)), (5, 0)), ((2, 3), (3, ("ge", 1)), (7, 1)),
]
# at these k the Artin-basis fold sums its largest primes (29 among them) in
# Python ints, 1 prime at k = 30 and 8 at k = 61; the constraints below read
# nu_29 there, so they zero weights inside that tail
TAIL_KS = (30, 45, 61)
TAIL_CONSTRAINTS = [((2, 2), (29, 0)), ((3, ("ge", 1)), (29, ("ge", 1)))]


def _record(table):
    return [table.statistic, table.basis.value, table.conditional,
            [[v, str(c)] for v, c in table.entries]]


def main():
    records = []
    for k in COEFF_KS:
        table, mean = coeff_prime_density(k)
        records += [_record(coeff_density(k)), _record(table), str(mean)]
    for entries in CONSTRAINTS:
        for outside in (False, True):
            constraint = ValuationConstraint(entries, squarefree_outside=outside)
            for k in range(max(q for q, _ in entries), 13):
                table, mean = coeff_prime_density(k, constraint)
                records += [_record(table), str(mean)]
                if k <= 4:
                    records.append(_record(s_small_density(k, constraint)))
    for entries in TAIL_CONSTRAINTS:
        constraint = ValuationConstraint(entries, squarefree_outside=False)
        for k in TAIL_KS:
            table, mean = coeff_prime_density(k, constraint)
            records += [_record(table), str(mean)]
    for m in RAMANUJAN_MS:
        records += [_record(natural_density_of_ramanujan(m)),
                    _record(ramanujan_prime_density(m, signed=True)),
                    _record(ramanujan_prime_density(m))]
    records += [[ek.k, str(ek.e_k), ek.integrality_witness]
                for ek in partition_means(PARTITION_K)]
    records += [[e.k, str(e.e_k), e.sign_ok, e.range_ok]
                for e in moller_conjecture_scan(PARTITION_K - 1)]
    print(hashlib.sha256(json.dumps(records).encode()).hexdigest(), len(records))
    kept = [[r.k, r.bound, sorted(r.full_set), sorted(r.odd_set), sorted(r.even_set)]
            for r in map(value_set, VALUE_SET_KS)]
    kept += [[kmax, [[ek.k, str(ek.e_k), ek.integrality_witness] for ek in partition_means(kmax)]]
             for kmax in PARTITION_KS]
    print(hashlib.sha256(json.dumps(kept).encode()).hexdigest(), len(kept))


if __name__ == "__main__":
    main()
