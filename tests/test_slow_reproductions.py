"""10^6-prime (and 10^7-integer) reproductions, gated behind -m slow.

Exact theory columns are compared string-for-string elsewhere; here the
printed empirical columns are matched within 1e-3 and the deterministic
10^6-prime counts exactly."""

import pytest

from cyclodist.empirics import count_ramanujan_values, scan_primes
from cyclodist.ramanujan import natural_density_of_ramanujan
from cyclodist.tables import build_table, compare_to_golden

pytestmark = pytest.mark.slow


def test_table1_millionth_row(pack):
    rep = scan_primes("s_k_mod_p", k=2, nprimes=10**6, pack=pack)
    assert rep.counts == {-1: 93939, 0: 626216, 1: 279845}


def test_mu_scan_at_scale(pack):
    rep = scan_primes("mu_pminus1", nprimes=10**6, pack=pack)
    assert rep.counts == {-1: 187320, 0: 625881, 1: 186799}


@pytest.mark.parametrize("tid", ["1", "6", "7", "8", "9"])
def test_full_tables_against_printed_empirics(tid, pack):
    artifact = build_table(tid, full=True, pack=pack)
    diffs = compare_to_golden(artifact)
    assert not diffs, diffs


def test_wintner_brute_force_m2(pack):
    counts = count_ramanujan_values([2], 10**7, pack)[2]
    table = natural_density_of_ramanujan(2)
    for v in set(table.values) | {0}:
        freq = counts.get(v, 0) / 10**7
        assert abs(freq - table.numeric(v)) < 0.002, v
