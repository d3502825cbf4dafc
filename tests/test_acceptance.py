"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line and enforcing its stated tolerance and runtime budget."""

import time
from fractions import Fraction

import numpy as np

from cyclodist.arith import factorize
from cyclodist.cyclotomic import (
    construct_coeff_value,
    cyclo_coeff,
    cyclo_coeff_partition,
    cyclo_coeff_prefix,
    cyclo_coeff_series,
    cyclo_poly,
    value_set,
)
from cyclodist.densities_natural import coeff_density, mean_coeff, mean_coeff_partition
from cyclodist.densities_prime import (
    ValuationConstraint,
    artin_constant,
    coeff_prime_density,
    ramanujan_prime_density,
    ramanujan_prime_moment,
)
from cyclodist.empirics import (
    count_ramanujan_values,
    scan_primes,
    symmetric_functions_mod_p,
)
from cyclodist.ramanujan import (
    natural_density_of_ramanujan,
    natural_moment_of_ramanujan,
    ramanujan_sum,
)
from cyclodist.tables import load_golden


def _report(n: int, detail: str) -> None:
    print(f"acceptance criterion {n:2d}: PASS — {detail}")


def test_criterion_01_exact_mean_reproduction():
    start = time.monotonic()
    golden3 = load_golden("3")["e"]
    for k in range(1, 21):
        assert str(mean_coeff(k).e_k) == golden3[str(k)], k
    golden11 = load_golden("11")["entries"]
    for k in range(1, 31):
        assert str(mean_coeff_partition(k).e_k) == golden11[str(k)]["e"], k
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"{elapsed:.1f}s budget overrun"
    _report(1, f"e_k matches reference tables for k<=20 (divisor) and k<=30 "
               f"(partition), string-exact, in {elapsed:.1f}s")


def test_criterion_02_moller_counterexample():
    start = time.monotonic()
    diff = mean_coeff_partition(34).e_k - mean_coeff_partition(35).e_k
    assert diff == Fraction(-18059, 4626720)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"{elapsed:.1f}s budget overrun"
    _report(2, f"e_34 - e_35 = -18059/4626720 exactly, in {elapsed:.1f}s")


def test_criterion_03_coefficient_densities():
    golden4 = load_golden("4")["zeta2_delta"]
    golden11 = load_golden("11")["entries"]
    for k in range(1, 17):
        got = {str(v): str(c) for v, c in coeff_density(k).entries}
        assert got == golden4[str(k)], k
        assert got == golden11[str(k)]["V"], k
    _report(3, "zeta(2)*densities of a_n(k) match the reference rows for "
               "k = 1..16, string-exact")


def test_criterion_04_value_set_bounds():
    start = time.monotonic()
    golden2 = load_golden("2")["bounds"]
    for k in range(1, 31):
        assert value_set(k).bound == golden2[str(k)], k
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"{elapsed:.1f}s budget overrun"
    _report(4, f"B(k) matches the reference table for k = 1..30 in {elapsed:.1f}s")


def test_criterion_05_prime_density_table(pack):
    golden = load_golden("6")
    table = ramanujan_prime_density(15)
    got = {str(v): str(c) for v, c in table.entries}
    assert got == golden["entries"]
    a = artin_constant(1e-8, pack=pack)
    assert a.tail_bound <= 1e-8
    for v, want in golden["theory_numeric"].items():
        mine = (1 - float(table.nonzero_mass()) * a.value) if v == "0" \
            else float(table.coefficient(int(v))) * a.value
        assert abs(mine - float(want)) <= 1e-6, v
    _report(5, "|c_(p-1)(15)| densities match all nine A-multiples exactly and "
               "the printed numerics within 1e-6")


def test_criterion_06_prime_mean_table():
    golden = load_golden("7")["means"]
    for k, want in golden.items():
        coeff, _ = ramanujan_prime_moment(int(k), 1)
        assert coeff == Fraction(want), k
    _report(6, "mean |c_(p-1)(k)| equals 4A, 693A/205, 36A/5, 17A/5, 126A/19, "
               "39A/5 for k in {8,21,24,27,30,36}")


def test_criterion_07_conditional_coefficient_distribution():
    golden = load_golden("10")["rows"]
    for k in range(1, 11):
        table, mean = coeff_prime_density(k)
        got = {str(v): str(c) for v, c in table.entries}
        want = golden[str(k)]
        assert {v: Fraction(c) for v, c in got.items()} == \
            {v: Fraction(c) for v, c in want["density"].items()}, k
        assert mean == Fraction(want["mean"]), k
    assert -2 not in coeff_prime_density(7)[0].as_dict()
    _report(7, "a_(p-1)(k) densities and means match for k = 1..10, including "
               "the absent -2 at k = 7")


def test_criterion_08_artin_constant(pack):
    a = artin_constant(1e-8, pack=pack)
    assert abs(a.value - 0.3739558136) <= 1e-7
    assert a.tail_bound <= 1e-8
    _report(8, f"A = {a.value:.10f} within 1e-7 of the reference digits; "
               f"documented tail bound {a.tail_bound:.2e}")


def test_criterion_09_deterministic_scan_reproduction(pack):
    start = time.monotonic()
    rep4 = scan_primes("s_k_mod_p", k=2, nprimes=10**4, pack=pack)
    assert rep4.counts == {-1: 930, 0: 6261, 1: 2809}
    assert {v: f"{c / rep4.total:.6f}" for v, c in rep4.counts.items()} == {
        -1: "0.093000", 0: "0.626100", 1: "0.280900"
    }
    rep5 = scan_primes("s_k_mod_p", k=2, nprimes=10**5, pack=pack)
    assert rep5.counts == {-1: 9412, 0: 62733, 1: 27855}
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"{elapsed:.1f}s budget overrun"
    _report(9, f"s_2 scans give exactly 0.093000/0.626100/0.280900 at 10^4 and "
               f"0.094120/0.627330/0.278550 at 10^5 primes, in {elapsed:.1f}s")


def test_criterion_10_congruence_suite(pack):
    checked = 0
    for p in pack.primes[: pack.prime_count(2000)].tolist():
        fn = factorize(p - 1)
        t = fn.phi()
        kmax = min(8, t)
        s, S = symmetric_functions_mod_p(p, kmax)
        for k in range(1, kmax + 1):
            assert S[k - 1] == ramanujan_sum(fn, k) % p, (p, k)
            assert s[k - 1] == ((-1) ** k * cyclo_coeff(fn, k)) % p, (p, k)
            checked += 2
    _report(10, f"{checked} primitive-root congruences verified for p <= 2000, "
                "k <= min(8, phi(p-1)); zero failures")


def test_criterion_11_cross_algorithm_equivalence():
    checked = 0
    for n in range(2, 2001):
        fn = factorize(n)
        if not fn.is_squarefree():
            continue
        prefix = cyclo_coeff_prefix(fn, 20)
        for k in range(0, 21):
            a = prefix[k]
            assert a == cyclo_coeff_series(fn, k), (n, k)
            assert a == cyclo_coeff_partition(fn, k), (n, k)
            checked += 1
    for n in range(1, 501):
        fn = factorize(n)
        coeffs = cyclo_poly(fn)
        assert cyclo_coeff_prefix(fn, len(coeffs) - 1) == coeffs, n
    _report(11, f"recurrence/series/partition agree on {checked} squarefree "
                "coefficients and match full expansions for n <= 500")


def test_criterion_12_value_distribution_suite(pack):
    # exact mass bookkeeping for m <= 50
    for m in range(1, 51):
        table = natural_density_of_ramanujan(m)
        fm = factorize(m)
        closed = Fraction(1)
        for q, nu in fm.factors:
            local = sum(Fraction(1, q**e) for e in range(nu + 2))
            closed *= local / (1 + Fraction(1, q))
        assert table.nonzero_mass() == closed, m
        for order in (2, 4, 6):
            assert natural_moment_of_ramanujan(m, order)[0] == table.moment(order), (m, order)
    # empirical frequencies over n <= 10^6
    ms = (1, 2, 3, 4, 6, 12)
    counts = count_ramanujan_values(ms, 10**6, pack)
    for m in ms:
        table = natural_density_of_ramanujan(m)
        values = set(table.values)
        assert set(counts[m]) <= values | {0}, m
        for v in values | {0}:
            freq = counts[m].get(v, 0) / 10**6
            assert abs(freq - table.numeric(v)) < 0.005, (m, v)
    _report(12, "c_n(m) masses exact for m <= 50; frequencies over n <= 10^6 "
                "within 0.005 for m in {1,2,3,4,6,12}; moments consistent")


def test_criterion_13_shifted_prime_suite(pack):
    a = artin_constant(1e-8, pack=pack).value
    primes = pack.primes[: pack.prime_count(16_000_000)]
    squarefree = int(np.count_nonzero(pack.mu(primes - 1)))
    assert abs(squarefree / len(primes) - a) < 0.005
    for e, coeff in ((1, Fraction(1)), (2, Fraction(1, 2))):
        rep = scan_primes(
            "conjecture1", nprimes=10**5,
            constraint=ValuationConstraint(((2, e),)), pack=pack,
        )
        mass = (rep.counts.get(1, 0) + rep.counts.get(-1, 0)) / rep.total
        assert abs(mass - float(coeff) * a) < 0.01, e
    _report(13, f"{squarefree}/{len(primes)} primes below 1.6e7 have squarefree "
                "p-1 (within 0.005 of A); valuation-profile masses match within 0.01")


def test_criterion_14_witness_constructor():
    start = time.monotonic()
    for v in range(-10, 11):
        n, k = construct_coeff_value(v)
        assert cyclo_coeff(n, k) == v, v
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"{elapsed:.1f}s budget overrun"
    _report(14, f"verified witnesses for every v in [-10, 10] in {elapsed:.1f}s")
