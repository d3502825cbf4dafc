"""Empirical frequencies against exact densities at moderate scan scales
(the 10^6-prime table columns live in the slow suite)."""

import json
from fractions import Fraction

import pytest

from cyclodist.densities_natural import coeff_density
from cyclodist.densities_prime import artin_constant, ramanujan_prime_density, ramanujan_prime_moment
from cyclodist.empirics import count_cyclo_values, scan_primes
from cyclodist.ramanujan import natural_density_of_ramanujan


def test_coefficient_frequencies_over_integers(pack):
    counts = count_cyclo_values((2, 3, 7), 10**6, pack)
    for k in (2, 3, 7):
        table = coeff_density(k)
        values = set(table.values)
        assert set(counts[k]) <= values | {0}, k
        for v in values | {0}:
            freq = counts[k].get(v, 0) / 10**6
            assert abs(freq - table.numeric(v)) < 0.005, (k, v)


@pytest.mark.xfail(
    strict=True,
    reason="a_n(15) has divisor support up to M_15 = 450450, so at n <= 10^6 "
    "the v = 0 frequency still sits 0.0098 from its density (0.0042 at "
    "4*10^6, 0.0023 at 10^7); the 0.005-at-10^6 claim is not attainable",
)
def test_coefficient_frequencies_k15_at_1e6(pack):
    counts = count_cyclo_values((15,), 10**6, pack)[15]
    table = coeff_density(15)
    for v in set(table.values) | {0}:
        assert abs(counts.get(v, 0) / 10**6 - table.numeric(v)) < 0.005, v


def test_coefficient_frequencies_k15_converged(pack):
    limit = 4 * 10**6
    counts = count_cyclo_values((15,), limit, pack)[15]
    table = coeff_density(15)
    assert set(counts) <= set(table.values) | {0}
    for v in set(table.values) | {0}:
        assert abs(counts.get(v, 0) / limit - table.numeric(v)) < 0.005, v


def test_prime_c15_frequencies(pack):
    a = artin_constant(1e-8, pack=pack).value
    rep = scan_primes("c_pminus1", k=15, nprimes=10**5, pack=pack)
    folded = {}
    for v, c in rep.counts.items():
        folded[abs(v)] = folded.get(abs(v), 0) + c
    table = ramanujan_prime_density(15)
    for v, coeff in table.entries:
        assert abs(folded.get(v, 0) / rep.total - float(coeff) * a) < 0.01, v
    assert abs(folded.get(0, 0) / rep.total - (1 - float(table.nonzero_mass()) * a)) < 0.01


def test_prime_mean_abs_frequencies(pack):
    a = artin_constant(1e-8, pack=pack).value
    for k in (8, 21, 24, 27, 30, 36):
        rep = scan_primes("c_pminus1", k=k, nprimes=10**5, pack=pack)
        mean = sum(abs(v) * c for v, c in rep.counts.items()) / rep.total
        want = float(ramanujan_prime_moment(k, 1)[0]) * a
        assert abs(mean - want) / want < 0.01, k


def test_density_json_record_shape():
    table = natural_density_of_ramanujan(2)
    payload = table.payload()
    assert json.loads(json.dumps(payload)) == payload  # plain ints, floats and strings
    assert payload["conditional"] is False
    for record in payload["entries"]:
        assert set(record) == {"value", "coeff", "basis", "numeric"}
        assert record["basis"] == "SIX_OVER_PI2"
        Fraction(record["coeff"])  # parseable reduced fraction
    signed = ramanujan_prime_density(2, signed=True).payload()
    assert signed["conditional"] is True
    assert all(r["basis"] == "ARTIN" for r in signed["entries"])
