import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cyclodist import arith, densities_prime
from cyclodist.densities_prime import (
    ValuationConstraint,
    artin_constant,
    artin_constant_accelerated,
    coeff_prime_density,
    ramanujan_prime_density,
    ramanujan_prime_moment,
    s_small_density,
    shifted_prime_kfree_density,
    sieve_limit_for_precision,
    valuation_profile_density,
)
from cyclodist.density import Basis, basis_numeric
from cyclodist.errors import ResourceBudgetError

A_REFERENCE = 0.3739558136
#: Wrench (1961), to 20 places
A_DIGITS = 0.37395581361920228805


def test_artin_constant(pack):
    a = artin_constant(1e-8, pack=pack)
    assert abs(a.value - A_REFERENCE) <= 1e-7
    assert a.tail_bound <= 1e-8
    assert a.truncation_prime == int(pack.primes[-1])
    coarse = artin_constant(1e-4, pack=pack)
    assert abs(coarse.value - A_REFERENCE) <= 1e-4


def test_euler_products_hold_little_beyond_a_block(pack):
    # the log-sums run over blocks of _BLOCK primes: no temporary spans the
    # 1.27 million primes of the default pack (10 MB per float64 array)
    bound = 8 * densities_prime._BLOCK * 8
    for run in (lambda: artin_constant(1e-8, pack=pack),
                lambda: shifted_prime_kfree_density(1, 2, pack=pack),
                lambda: shifted_prime_kfree_density(-6, 3, pack=pack)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


def test_artin_partial_products_decrease(pack):
    primes = pack.primes[:2000].astype(float)
    partials = np.cumprod(1.0 - 1.0 / (primes * (primes - 1.0)))
    assert np.all(np.diff(partials) < 0)
    assert partials[-1] > artin_constant(1e-8, pack=pack).value


def test_artin_unreachable_precision(pack):
    with pytest.raises(ResourceBudgetError):
        artin_constant(1e-10, pack=pack)


def test_artin_invalid_precision_builds_no_sieve(monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieve built for an invalid precision goal")

    monkeypatch.setattr(arith, "sieve_pack", no_sieve)
    monkeypatch.setattr(arith, "_default_pack", None)
    for goal in (0, -1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="precision goal"):
            artin_constant(goal)
    # a goal past the budget's reach is refused before the sieve, too
    with pytest.raises(ResourceBudgetError, match="precision goal"):
        artin_constant(1e-11)


def test_sieve_limit_for_precision_is_minimal():
    # the default goal keeps the default sieve, so `constants` output is unchanged
    for goal in (1e-8, 0.5):
        assert sieve_limit_for_precision(goal) == arith.DEFAULT_SIEVE_LIMIT
    for goal in (7e-9, 5e-9, 1e-9, 4.4e-10):
        limit = sieve_limit_for_precision(goal)
        assert densities_prime._tail_bound(limit) <= goal < densities_prime._tail_bound(limit - 1)
    assert densities_prime._tail_bound(arith.MAX_SIEVE_LIMIT) > 4.3e-10
    for goal in (4.3e-10, 1e-11):
        with pytest.raises(ResourceBudgetError):
            sieve_limit_for_precision(goal)
    for goal in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="precision goal"):
            sieve_limit_for_precision(goal)


def test_artin_accelerated_within_proven_bound(pack):
    a = artin_constant_accelerated()
    assert abs(a.value - A_DIGITS) <= a.tail_bound <= 1e-10
    assert a.truncation_prime == 99_991
    # the sieve truncation is the independent check of the same number
    sieved = artin_constant(1e-8, pack=pack)
    assert abs(a.value - sieved.value) <= a.tail_bound + sieved.tail_bound


@pytest.mark.parametrize("cutoff", [4, 6, 10, 100, 1000, 10_000])
def test_artin_accelerated_bound_is_proven_not_fitted(monkeypatch, cutoff):
    # at coarse cutoffs the truncation error is large, and still within
    # the bound, on the side the proof gives
    monkeypatch.setattr(densities_prime, "_ARTIN_CUTOFF", cutoff)
    coarse = artin_constant_accelerated()
    assert 0 <= coarse.value - A_DIGITS <= coarse.tail_bound


def test_artin_basis_builds_no_sieve(monkeypatch, sieve_builds):
    def refuse(*args, **kwargs):
        raise AssertionError("basis_numeric(ARTIN) built a sieve")

    monkeypatch.setattr(arith, "sieve_pack", refuse)
    assert basis_numeric(Basis.ARTIN) == artin_constant_accelerated().value
    assert ramanujan_prime_density(15).numeric(1) > 0
    assert sieve_builds == []


def test_shifted_kfree_density(pack):
    squarefree = shifted_prime_kfree_density(1, 2, pack=pack)
    assert abs(squarefree.value - artin_constant(1e-8, pack=pack).value) < 1e-12
    cubefree = shifted_prime_kfree_density(1, 3, pack=pack)
    assert abs(cubefree.value - 0.6975) < 5e-4
    skip2 = shifted_prime_kfree_density(2, 2, pack=pack)
    assert abs(skip2.value - squarefree.value / (1 - 1 / 2)) < 1e-9
    with pytest.raises(ValueError):
        shifted_prime_kfree_density(0, 2, pack=pack)
    with pytest.raises(ValueError):
        shifted_prime_kfree_density(1, 1, pack=pack)


def test_valuation_profile_densities():
    d1 = valuation_profile_density(ValuationConstraint(((2, 1),)))
    assert (d1.coefficient, d1.basis) == (Fraction(1), Basis.ARTIN)
    d2 = valuation_profile_density(ValuationConstraint(((2, 2),)))
    assert d2.coefficient == Fraction(1, 2)
    d0 = valuation_profile_density(ValuationConstraint(((2, 0),)))
    assert d0.coefficient == 0  # p - 1 is even for every odd prime
    ge2 = valuation_profile_density(ValuationConstraint(((2, ("ge", 2)),)))
    assert ge2.coefficient == Fraction(1)  # geometric tail 1/2 over local 1/2
    plain = valuation_profile_density(
        ValuationConstraint(((3, 1),), squarefree_outside=False)
    )
    assert (plain.coefficient, plain.basis) == (Fraction(1, 3), Basis.ONE)


def test_constraint_validation_and_matching():
    with pytest.raises(ValueError):
        ValuationConstraint(((3, 1), (2, 1)))  # not increasing
    c = ValuationConstraint(((2, 2), (3, ("ge", 1))))
    assert c.matches(((2, 2), (3, 1), (7, 1)))
    assert not c.matches(((2, 1), (3, 1)))
    assert not c.matches(((2, 2),))
    assert c.allows(5, 3) and c.allows(3, 4) and not c.allows(2, 3)
    # the lookup table built at construction is not a field: equality, hash
    # and repr are those of the entries and the flag alone
    same = ValuationConstraint(((2, 2), (3, ("ge", 1))))
    assert c == same and hash(c) == hash(same)
    assert c != ValuationConstraint(c.entries, squarefree_outside=False)
    assert repr(c) == ("ValuationConstraint(entries=((2, 2), (3, ('ge', 1))), "
                       "squarefree_outside=True)")


def test_prime_density_table6():
    table = ramanujan_prime_density(15)
    assert not table.conditional
    assert table.as_dict() == {
        1: Fraction(9, 19),
        2: Fraction(6, 19),
        3: Fraction(2, 19),
        4: Fraction(12, 95),
        5: Fraction(12, 475),
        8: Fraction(8, 95),
        10: Fraction(8, 475),
        12: Fraction(8, 285),
        15: Fraction(8, 1425),
    }
    assert table.nonzero_mass() == Fraction(561, 475)


def test_prime_density_signed():
    t1 = ramanujan_prime_density(1, signed=True)
    assert t1.conditional
    assert t1.as_dict() == {-1: Fraction(1, 2), 1: Fraction(1, 2)}
    for k in (2, 6, 12, 15, 30):
        signed = ramanujan_prime_density(k, signed=True).as_dict()
        unsigned = ramanujan_prime_density(k).as_dict()
        # per-profile mirror symmetry and consistency with |c| masses
        assert signed == {-v: c for v, c in signed.items()}
        folded = {}
        for v, c in signed.items():
            folded[abs(v)] = folded.get(abs(v), Fraction(0)) + c
        assert folded == unsigned


def test_prime_mean_abs_table7():
    expectations = {
        8: Fraction(4),
        21: Fraction(693, 205),
        24: Fraction(36, 5),
        27: Fraction(17, 5),
        30: Fraction(126, 19),
        36: Fraction(39, 5),
        1: Fraction(1),
    }
    for k, want in expectations.items():
        coeff, basis = ramanujan_prime_moment(k, 1)
        assert (coeff, basis) == (want, Basis.ARTIN), k


def test_prime_mean_multiplicative_in_k():
    coeffs = {k: ramanujan_prime_moment(k, 1)[0] for k in range(1, 37)}
    for k1 in range(1, 37):
        for k2 in range(1, 37):
            if k1 * k2 <= 36 and math.gcd(k1, k2) == 1:
                assert coeffs[k1 * k2] == coeffs[k1] * coeffs[k2]


def test_prime_moments():
    assert ramanujan_prime_moment(1, 5)[0] == Fraction(1)
    assert ramanujan_prime_moment(2, 2)[0] == Fraction(3)
    lo = ramanujan_prime_moment(2, 1 - 1e-6)[0]
    hi = ramanujan_prime_moment(2, 1 + 1e-6)[0]
    # z = 1 is the removable singularity of the geometric ratio: its limit
    mean = ramanujan_prime_moment(2, 1)[0]
    assert mean == 2 and ramanujan_prime_moment(2, Fraction(1))[0] == mean
    assert ramanujan_prime_moment(2, 1.0) == (mean, Basis.ARTIN)  # an integer float is exact
    assert abs(lo - mean) < 1e-5 and abs(hi - mean) < 1e-5
    assert ramanujan_prime_moment(12, 1)[0] == Fraction(27, 5)
    for z in (0, -1, -0.5):
        with pytest.raises(ValueError):
            ramanujan_prime_moment(2, z)
    # past the float range: a power raises, a product would turn inf
    for k, z in ((2, 5000.5), (3, 600.5)):
        with pytest.raises(ResourceBudgetError, match="past the float range"):
            ramanujan_prime_moment(k, z)


def test_prime_moment_density_consistency():
    for k in range(1, 37):
        table = ramanujan_prime_density(k)
        for z in range(1, 7):
            assert table.moment(z) == ramanujan_prime_moment(k, z)[0], (k, z)


def test_s_small_densities():
    assert s_small_density(1).as_dict() == {-1: Fraction(1, 2), 1: Fraction(1, 2)}
    assert s_small_density(2).as_dict() == {-1: Fraction(1, 4), 1: Fraction(3, 4)}
    assert s_small_density(3).as_dict() == {-1: Fraction(1, 15), 1: Fraction(17, 30)}
    assert s_small_density(4).as_dict() == {-1: Fraction(13, 40), 1: Fraction(27, 40)}
    for k in (1, 2, 3, 4):
        table = s_small_density(k)
        assert table.conditional
    # past k = 4 it is still the a_(p-1)(k) table, mirrored for odd k
    stratum = ValuationConstraint(((2, ("ge", 2)), (3, 1)))
    for k in range(5, 21):
        for constraint in (None, stratum):
            a_table, _ = coeff_prime_density(k, constraint)
            sign = -1 if k % 2 else 1
            want = {sign * v: c for v, c in a_table.as_dict().items()}
            assert s_small_density(k, constraint).as_dict() == want, (k, constraint)


def test_s_small_matches_coefficient_distribution():
    # s_k(p) = (-1)^k a_(p-1)(k) mod p: equal tables for even k, mirrored odd
    for k in (2, 3, 4):
        s_table = s_small_density(k).as_dict()
        a_table, _ = coeff_prime_density(k)
        a_map = a_table.as_dict()
        if k % 2 == 0:
            assert s_table == a_map
        else:
            assert s_table == {-v: c for v, c in a_map.items()}


def test_coeff_prime_density_examples():
    table, mean = coeff_prime_density(3)
    assert table.as_dict() == {-1: Fraction(17, 30), 1: Fraction(1, 15)}
    assert mean == Fraction(-1, 2)
    table7, mean7 = coeff_prime_density(7)
    assert table7.as_dict() == {
        -1: Fraction(13989, 54530),
        1: Fraction(358, 1435),
        2: Fraction(24, 3895),
    }
    assert -2 not in table7.as_dict()
    assert mean7 == Fraction(1, 190)
    table2, mean2 = coeff_prime_density(2)
    assert table2.as_dict() == {-1: Fraction(1, 4), 1: Fraction(3, 4)}
    assert mean2 == Fraction(1, 2)
    assert table7.conditional


def test_contradictory_constraint_diagnostic():
    d = valuation_profile_density(ValuationConstraint(((2, 0),)))
    assert d.coefficient == 0
    assert d.note is not None and "never occurs" in d.note
    ok = valuation_profile_density(ValuationConstraint(((2, 1),)))
    assert ok.note is None
