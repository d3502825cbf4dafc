import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cyclodist import densities_natural
from cyclodist.arith import small_primes
from cyclodist.cyclotomic import value_set
from cyclodist.densities_natural import (
    PARTITION_MAX_K,
    _make_ek,
    _part_sets,
    _partition_walk,
    coeff_density,
    mean_coeff,
    mean_coeff_partition,
    moller_conjecture_scan,
    partition_means,
    squarefree_coprime_density,
)
from cyclodist.densities_prime import coeff_prime_density
from cyclodist.density import Basis, DensityTable
from cyclodist.errors import ResourceBudgetError


def test_mean_examples():
    assert mean_coeff(1).e_k == 0
    assert mean_coeff(2).e_k == Fraction(1, 2)
    assert mean_coeff(7).e_k == Fraction(1, 18)
    assert mean_coeff(10).e_k == Fraction(31, 160)
    assert mean_coeff(16).e_k == Fraction(733, 4032)


def test_mean_partition_examples():
    assert mean_coeff_partition(7).e_k == Fraction(1, 18)
    assert mean_coeff_partition(30).e_k == Fraction(45893, 241920)
    diff = mean_coeff_partition(34).e_k - mean_coeff_partition(35).e_k
    assert diff == Fraction(-18059, 4626720)


def test_methods_agree_through_30():
    for ek in partition_means(30):
        assert mean_coeff(ek.k).e_k == ek.e_k, ek.k


@pytest.mark.slow
def test_methods_agree_31_to_40():
    for ek in partition_means(40)[30:]:
        assert mean_coeff(ek.k).e_k == ek.e_k, ek.k


@pytest.mark.slow
def test_methods_agree_41_to_61():
    # every k the divisor route reaches past 40; B(k) there is not pinned
    for ek in partition_means(61)[40:]:
        assert mean_coeff(ek.k).e_k == ek.e_k, ek.k


def _partitions(k, max_part):
    """Every partition of k into parts <= max_part, as {part: multiplicity}."""
    if k == 0:
        yield {}
        return
    for part in range(min(k, max_part), 0, -1):
        for mult in range(k // part, 0, -1):
            for rest in _partitions(k - part * mult, part - 1):
                yield {part: mult, **rest}


_PRIMES_TO_60 = small_primes(60)


def _exponents(n):
    """Prime exponents of n, for n whose prime factors are at most 60."""
    return {p: e for p in _PRIMES_TO_60 if (e := _valuation(n, p))}


def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _partition_term(partition):
    """eps(lambda) / (2 denom(lambda)) read straight off the per-partition
    formula in the mean_coeff_partition docstring."""
    parts = list(partition)
    lcm, gcd = math.lcm(*parts), math.gcd(*parts)
    plus = minus = 1
    for j, mult in partition.items():
        quotient = _exponents(lcm // j)
        if any(e >= 2 for e in quotient.values()):
            return Fraction(0)
        mu_j = (-1) ** len(quotient)
        # (-1)^n C(mu, n): 1 at n = 0, -mu at n = 1; for n >= 2 it is 0 at
        # mu = 1 and 1 at mu = -1
        plus *= -mu_j if mult == 1 else (mu_j == -1)
        minus *= mu_j if mult == 1 else (mu_j == 1)
    denom = gcd
    for p in _exponents(lcm // gcd):
        denom *= p + 1
    return Fraction(plus + minus, 2 * denom)


def test_partition_means_match_per_partition_sum():
    got = partition_means(30)
    assert [ek.k for ek in got] == list(range(1, 31))
    for ek in got:
        want = sum((_partition_term(lam) for lam in _partitions(ek.k, ek.k)), Fraction(0))
        assert ek.e_k == want, ek.k


def test_partition_means_truncate():
    rng = random.Random(20)
    for _ in range(6):
        K = rng.randint(2, 50)
        k = rng.randint(1, K - 1)
        assert _partition_walk(K)[k - 1] == _partition_walk(k)[-1], (k, K)
    assert _partition_walk(0) == []


def test_kept_partition_means(monkeypatch):
    # one walk to k = 80 serves every smaller kmax, and what it serves is
    # what a fresh walk to that kmax gives, as a list of the caller's own
    walks = []

    def recording(kmax):
        walks.append(kmax)
        return _partition_walk(kmax)

    monkeypatch.setattr(densities_natural, "_kept_means", [])
    monkeypatch.setattr(densities_natural, "_partition_walk", recording)
    full = partition_means(80)
    assert [ek.k for ek in full] == list(range(1, 81))
    for k in (79, 48, 35, 12, 1):
        assert partition_means(k) == _partition_walk(k), k
    assert partition_means(0) == partition_means(-3) == []
    want = list(full)
    full.clear()
    part = partition_means(40)
    part[0] = None
    assert partition_means(80) == want and partition_means(40) == want[:40]
    assert walks == [80]


def _walked_sets(kmax):
    """{D: (sum, denominator, D+, D-)} for every set the partition walk keeps."""
    walked = {}
    for s, denom, plus, minus in _part_sets(kmax):
        parts = frozenset(plus + minus)
        assert parts not in walked and len(parts) == len(plus) + len(minus), parts
        walked[parts] = (s, denom, plus, minus)
    return walked


def _per_part_data(parts):
    """None when L/j is not squarefree for some part j, else (sum, denominator,
    D+, D-) as the walk yields them, each part's sign mu(L/j) read off its
    own quotient and the denominator G * prod_(p | L/G) (p + 1) off L/G."""
    lcm, gcd = math.lcm(*parts), math.gcd(*parts)
    plus, minus = [], []
    for j in sorted(parts, reverse=True):
        quotient = _exponents(lcm // j)
        if any(e >= 2 for e in quotient.values()):
            return None
        (minus if len(quotient) % 2 else plus).append(j)
    denom = gcd
    for p in _exponents(lcm // gcd):
        denom *= p + 1
    return sum(parts), denom, tuple(plus), tuple(minus)


def _random_sets(rng, count, kmax):
    """`count` distinct random sets of distinct parts with sum <= kmax."""
    out = set()
    while len(out) < count:
        parts = rng.sample(range(1, kmax + 1), rng.randint(1, 6))
        if sum(parts) <= kmax:
            out.add(frozenset(parts))
    return sorted(out, key=sorted)


def test_walk_state_matches_per_part_definition():
    walked = _walked_sets(60)
    for parts, got in walked.items():
        assert got == _per_part_data(parts), sorted(parts)
    # and the walk misses no set the per-part definition keeps
    sample = _random_sets(random.Random(23), 2000, 60)
    for parts in sample:
        assert walked.get(parts) == _per_part_data(parts), sorted(parts)
    assert 300 < sum(parts in walked for parts in sample) < 1700


def test_pruned_sets_have_pruned_supersets():
    # the walk skips a pruned set with its subtree: L/G is not squarefree
    # there, and adding a part keeps it so; in the walk's terms, every subset
    # of a kept set is kept
    walked = _walked_sets(60)
    for parts in walked:
        for j in parts:
            assert len(parts) == 1 or parts - {j} in walked, (sorted(parts), j)
    rng = random.Random(7)
    pruned = 0
    for parts in _random_sets(rng, 2000, 60):
        if parts in walked:
            continue
        pruned += 1
        lcm, gcd = math.lcm(*parts), math.gcd(*parts)
        assert any(e >= 2 for e in _exponents(lcm // gcd).values()), sorted(parts)
        for j in range(1, 61 - sum(parts)):
            assert parts | {j} not in walked, (sorted(parts), j)
    assert pruned > 60


def test_density_mean_consistency():
    # sum_v v * zeta(2) delta(v) = e_k, exactly
    for k in range(2, 31):
        assert coeff_density(k).moment(1) == mean_coeff(k).e_k, k


def test_density_examples():
    assert coeff_density(2).as_dict() == {-1: Fraction(1, 12), 1: Fraction(7, 12)}
    assert coeff_density(7).as_dict() == {
        -2: Fraction(1, 576),
        -1: Fraction(577, 2688),
        1: Fraction(731, 2688),
        2: Fraction(1, 1152),
    }
    assert coeff_density(15).as_dict() == {
        -2: Fraction(13, 32256),
        -1: Fraction(1345, 7168),
        1: Fraction(97247, 322560),
        2: Fraction(13, 64512),
    }
    assert coeff_density(1).as_dict() == {-1: Fraction(1, 2), 1: Fraction(1, 2)}


def test_density_tables_validate():
    for k in range(1, 31):  # each table is checked when it is built
        assert coeff_density(k).basis is Basis.SIX_OVER_PI2


SIX = Basis.SIX_OVER_PI2


@pytest.mark.parametrize("values, nums, denom, basis, error", [
    pytest.param((1,), (0.5,), 1, Basis.ONE, TypeError, id="float"),
    pytest.param((1,), (0.1,), 1, Basis.ONE, TypeError, id="float-0.1"),
    pytest.param((1,), (0.0,), 1, Basis.ONE, TypeError, id="float-zero"),
    pytest.param((1,), (1.0,), 1, Basis.ONE, TypeError, id="float-one"),
    pytest.param((1,), (True,), 2, Basis.ONE, TypeError, id="bool"),
    # a numpy integer is no plain int: the int64 fold must hand over Python ints
    pytest.param((1,), (np.int64(1),), 2, Basis.ONE, TypeError, id="int"),
    pytest.param((1,), (np.int64(0),), 2, Basis.ONE, TypeError, id="int-zero"),
    pytest.param((1,), ("1",), 2, Basis.ONE, TypeError, id="str"),
    pytest.param((1,), (Decimal("1"),), 2, Basis.ONE, TypeError, id="decimal"),
    pytest.param((1,), (Fraction(1, 2),), 1, Basis.ONE, TypeError, id="fraction"),
    pytest.param((-1, 1), (2, 0.25), 4, Basis.ONE, TypeError, id="float-after-fraction"),
    pytest.param((1,), (1,), 2.0, SIX, TypeError, id="denom-float"),
    pytest.param((1,), (1,), True, SIX, TypeError, id="denom-bool"),
    pytest.param((1,), (1,), 0, SIX, ValueError, id="denom-zero"),
    pytest.param((1,), (1,), -2, SIX, ValueError, id="denom-negative"),
    pytest.param((1, 2), (1,), 4, Basis.ONE, ValueError, id="more-values"),
    pytest.param((1,), (1, 1), 4, Basis.ONE, ValueError, id="more-nums"),
    pytest.param((1,), (0,), 2, Basis.ONE, ValueError, id="zero"),
    pytest.param((1, 2), (2, -1), 4, Basis.ONE, ValueError, id="negative"),
    pytest.param((1, 1), (1, 1), 4, Basis.ONE, ValueError, id="repeated"),
    pytest.param((2, 1), (1, 1), 4, Basis.ONE, ValueError, id="decreasing"),
    pytest.param((-1, 1), (3, 2), 4, Basis.ONE, ValueError, id="over-one"),
    # 1 + 1e-11 is past the float rounding the other bases allow, 1e-12
    pytest.param((1,), (10**11 + 1,), 10**11, Basis.ONE, ValueError, id="just-over-one"),
    # on Basis.ONE the mass is exact: 1 + 1e-15 would pass a float check
    pytest.param((1,), (10**15 + 1,), 10**15, Basis.ONE, ValueError, id="exactly-over-one"),
    # on the basis 6/pi^2 a coefficient may reach pi^2/6 = 1.644...
    pytest.param((1,), (17,), 10, SIX, ValueError, id="over-six-over-pi2"),
    pytest.param((1,), (10**400,), 1, SIX, ValueError, id="past-float-range"),
])
def test_density_table_refuses_invalid(values, nums, denom, basis, error):
    with pytest.raises(error):
        DensityTable("bad", basis, values, nums, denom)


def test_density_table_accepts_full_mass():
    table = DensityTable("full", Basis.ONE, (-1, 1), (1, 1), 2)
    assert table.nonzero_mass() == 1 and table.numeric(0) == 0
    table = DensityTable("ok", SIX, (1,), (16,), 10)
    assert table.entries == ((1, Fraction(8, 5)),)
    assert DensityTable("empty", Basis.ARTIN, (), (), 1).numeric(0) == 1
    # a mass of pi^2/6 on 6/pi^2 may round past 1 by far less than 1e-12
    denom = 10**20
    num = math.floor(Fraction(math.pi**2 / 6) * denom) + 10**6
    assert 1 < num / denom * (6 / math.pi**2) < 1 + 1e-12
    assert DensityTable("full", SIX, (1,), (num,), denom).nonzero_mass() == Fraction(num, denom)


def test_density_table_prints_reduced_fractions():
    table = DensityTable("f", Basis.ONE, (-1, 1), (2, 6), 8)
    assert [r["coeff"] for r in table.payload()["entries"]] == ["1/4", "3/4"]
    assert [str(c) for _, c in table.entries] == ["1/4", "3/4"]
    assert table.payload()["zero_mass_numeric"] == 0 and str(table.nonzero_mass()) == "1"


def test_density_table_readers_match_its_entries():
    # each reader works on the one denominator; the entries are the
    # reduced Fractions, summed here one by one
    rng = random.Random(36)
    for trial in range(300):
        values = sorted(rng.sample(range(-40, 41), rng.randint(0, 8)))
        nums = [rng.randint(1, 50) for _ in values]
        denom = sum(nums) + rng.randint(0, 50) or 1
        table = DensityTable("f", Basis.ONE, tuple(values), tuple(nums), denom)
        entries = dict(table.entries)
        assert table.nonzero_mass() == sum(entries.values(), Fraction(0)), trial
        for order in (1, 2, 3):
            want = sum((Fraction(v) ** order * c for v, c in entries.items()), Fraction(0))
            assert table.moment(order) == want, (trial, order)
        lo, hi = min(values, default=0), max(values, default=0)
        for v in {lo - 1, hi + 1, *range(lo, hi + 1)}:
            assert table.coefficient(v) == entries.get(v, 0), (trial, v)


def test_doubling_halves_density_outside_odd_set():
    # 2 delta(v) = delta(-v) exactly when v is not attained at odd n
    for k in range(3, 26, 2):
        table = coeff_density(k).as_dict()
        odd_values = value_set(k).odd_set
        for v in table:
            lhs = 2 * table.get(v, Fraction(0))
            rhs = table.get(-v, Fraction(0))
            assert (lhs == rhs) == (v not in odd_values), (k, v)


def test_integrality_witness():
    assert mean_coeff(2).integrality_witness == 3
    assert mean_coeff(7).integrality_witness == 224
    assert mean_coeff(8).integrality_witness == 1344
    for k in range(1, 41):
        ek = mean_coeff(k)  # construction raises unless e_k * k * prod(p+1) is integral
        prod_p_plus_1 = math.prod(p + 1 for p in small_primes(k))
        assert ek.integrality_witness == ek.e_k * k * prod_p_plus_1
        # the always-proved doubled form is then integral a fortiori
        assert (ek.e_k * 2 * k * prod_p_plus_1).denominator == 1


def test_moller_scan_no_violation_through_32():
    scan = moller_conjecture_scan(32)
    assert all(entry.sign_ok for entry in scan)
    assert all(entry.range_ok for entry in scan)


def test_moller_scan_counterexamples_at_33_and_34():
    # e_34 is anomalously low, so the alternating pattern breaks on both
    # sides of it: at k = 33 (odd k expects a rise) and at k = 34 (even k
    # expects a fall, and e_34 - e_35 = -18059/4626720 < 0).
    scan = moller_conjecture_scan(35)
    flags = {entry.k: entry.sign_ok for entry in scan}
    assert flags[33] is False
    assert flags[34] is False
    assert flags[35] is True
    assert all(flags[k] for k in range(1, 33))
    assert all(entry.range_ok for entry in scan)


def test_moller_scan_range_through_61():
    scan = moller_conjecture_scan(61)
    assert all(entry.range_ok for entry in scan)
    sign_violations = [entry.k for entry in scan if not entry.sign_ok]
    assert sign_violations == [33, 34, 45]


@pytest.mark.slow
def test_moller_scan_range_to_partition_cap():
    # past k = 61 no second route checks the values, so none is pinned
    scan = moller_conjecture_scan(PARTITION_MAX_K - 1)
    assert len(scan) == PARTITION_MAX_K - 1
    assert all(entry.range_ok for entry in scan)
    for entry in scan:
        _make_ek(entry.k, entry.e_k)  # raises unless e_k * k * prod(p+1) is integral


def test_squarefree_coprime_density():
    assert squarefree_coprime_density(1) == (Fraction(1), Basis.SIX_OVER_PI2)
    assert squarefree_coprime_density(2)[0] == Fraction(2, 3)
    assert squarefree_coprime_density(6)[0] == Fraction(1, 2)


def test_coefficient_densities_refuse_k_below_1():
    # the one check is the coefficient profile's: a usage error, not a budget overrun
    for k in (0, -3):
        with pytest.raises(ValueError, match="requires k >= 1"):
            coeff_density(k)
        with pytest.raises(ValueError, match="requires k >= 1"):
            coeff_prime_density(k)


def test_budgets():
    with pytest.raises(ResourceBudgetError):
        mean_coeff(62)
    with pytest.raises(ResourceBudgetError):
        mean_coeff_partition(100)
