import itertools
import math
import random
from fractions import Fraction

import pytest

from cyclodist import ramanujan
from cyclodist.arith import factorize, is_prime_int
from cyclodist.density import Basis
from cyclodist.errors import ResourceBudgetError
from cyclodist.ramanujan import (
    _DIRECT_LIMIT,
    natural_density_of_ramanujan,
    natural_moment_of_ramanujan,
    ramanujan_split,
    ramanujan_sum,
    ramanujan_sum_direct,
)


def test_holder_examples():
    assert ramanujan_sum(1, 5) == 1
    assert ramanujan_sum(6, 1) == 1  # = mu(6)
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum(7, 7) == 6


def test_direct_oracle_examples():
    assert ramanujan_sum_direct(4, 2) == -2
    assert ramanujan_sum_direct(12, 12) == 4
    assert ramanujan_sum_direct(5, 1) == -1
    with pytest.raises(ResourceBudgetError):
        ramanujan_sum_direct(200_000, 1)


def test_holder_matches_direct_oracle():
    for n in range(1, 501):
        fn = factorize(n)
        for m in range(1, 501):
            assert ramanujan_sum(fn, m) == ramanujan_sum_direct(n, m), (n, m)


def test_value_bounds():
    for n in range(1, 400):
        fn = factorize(n)
        phi = fn.phi()
        for m in range(1, 400):
            c = ramanujan_sum(fn, m)
            g = math.gcd(n, m)
            assert -g <= c <= g
            assert -phi <= c <= phi


def test_evenness():
    for n in range(1, 1001):
        fn = factorize(n)
        for m in range(1, 1001):
            assert ramanujan_sum(fn, m) == ramanujan_sum(fn, math.gcd(n, m))


def test_multiplicative_in_n(pack):
    pairs = [(a, b) for a in range(1, 61) for b in range(1, 61) if math.gcd(a, b) == 1]
    rng = random.Random(5)
    while len(pairs) < 4600:
        a, b = rng.randrange(1, 1001), rng.randrange(1, 1001)
        if math.gcd(a, b) == 1:
            pairs.append((a, b))
    for a, b in pairs:
        for m in (1, 2, 6, 9, 30):
            assert ramanujan_sum(a * b, m) == ramanujan_sum(a, m) * ramanujan_sum(b, m)


def test_semi_multiplicative_in_m():
    rng = random.Random(11)
    for _ in range(4000):
        n = rng.randrange(1, 1001)
        m1, m2 = rng.randrange(1, 1001), rng.randrange(1, 1001)
        fn = factorize(n)
        lhs = ramanujan_sum(fn, m1) * ramanujan_sum(fn, m2)
        rhs = ramanujan_sum(fn, math.gcd(m1, m2)) * ramanujan_sum(fn, math.lcm(m1, m2))
        assert lhs == rhs, (n, m1, m2)


def test_orthogonality():
    # (1/r) sum_m c_r1(m) c_r2(m) = phi(r1) [r1 = r2] over divisors of r
    for r in range(1, 61):
        divs = factorize(r).divisors()
        tables = {d: [ramanujan_sum(d, m) for m in range(1, r + 1)] for d in divs}
        for r1 in divs:
            for r2 in divs:
                total = sum(a * b for a, b in zip(tables[r1], tables[r2]))
                want = factorize(r1).phi() * r if r1 == r2 else 0
                assert total == want, (r, r1, r2)


def test_density_m1():
    table = natural_density_of_ramanujan(1)
    assert table.as_dict() == {-1: Fraction(1, 2), 1: Fraction(1, 2)}
    assert table.basis is Basis.SIX_OVER_PI2
    table.validate()


def test_density_m2():
    # +-1 carries 3/pi^2 each, +-2 carries 1/(2 pi^2) each
    table = natural_density_of_ramanujan(2)
    assert table.as_dict() == {
        -2: Fraction(1, 12),
        -1: Fraction(1, 2),
        1: Fraction(1, 2),
        2: Fraction(1, 12),
    }
    table.validate()


def test_density_total_mass_m_to_50():
    for m in range(1, 51):
        natural_density_of_ramanujan(m).validate()


def test_split_pair_matches_direct_oracle():
    # the pair behind the exact densities, at every n_S of the fold, by its
    # position i in the caps grid (the order of itertools.product): sign +1
    # is c_(n_S)(m), sign -1 is c_(n_S b)(m) for a prime b not dividing m
    # (checked wherever n_S b is in the oracle's range)
    for m in range(1, 201):
        caps, pairs = ramanujan_split(m)
        b = next(p for p in itertools.count(2) if is_prime_int(p) and m % p)
        for i, exps in enumerate(itertools.product(*(range(cap + 1) for _, cap in caps))):
            n_s = math.prod(q**e for (q, _), e in zip(caps, exps))
            plus, minus = pairs[i]
            assert plus == ramanujan_sum_direct(n_s, m), (m, n_s)
            if n_s * b <= _DIRECT_LIMIT:
                assert minus == ramanujan_sum_direct(n_s * b, m), (m, n_s)


def test_split_refuses_past_its_row_budget(monkeypatch):
    # prod_(p<=37) p^3 has 5^12 rows, which once ran out of memory
    m = math.prod(p**3 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    with pytest.raises(ResourceBudgetError, match="244140625 rows"):
        natural_density_of_ramanujan(m)
    # the rows prod_(q | m) (nu_q(m) + 2) are counted before any is built
    monkeypatch.setattr(ramanujan, "RAMANUJAN_FOLD_MAX_ROWS", 12)
    assert len(ramanujan_split(12)[1]) == 12  # (2 + 2) (1 + 2) rows: at the budget
    monkeypatch.setattr(ramanujan, "_local_value", None)
    with pytest.raises(ResourceBudgetError, match="16 rows"):
        ramanujan_split(36)


def test_density_symmetry():
    for m in range(1, 51):
        table = natural_density_of_ramanujan(m).as_dict()
        assert table == {-v: c for v, c in table.items()}


def test_moments():
    coeff, basis = natural_moment_of_ramanujan(1, 2)
    assert (coeff, basis) == (Fraction(1), Basis.SIX_OVER_PI2)
    coeff, basis = natural_moment_of_ramanujan(1, 3)
    assert coeff == 0
    coeff, basis = natural_moment_of_ramanujan(2, 2)
    assert coeff == Fraction(5, 3)


def test_moment_density_consistency():
    # the closed form asserts equality with the density table internally
    for m in range(1, 51):
        for order in (2, 4, 6):
            coeff, _ = natural_moment_of_ramanujan(m, order)
            assert coeff > 0
        for order in (1, 3, 5):
            assert natural_moment_of_ramanujan(m, order)[0] == 0
    # an odd order has moment 0, but only for an m that exists
    for m in (-3, 0):
        for order in (1, 2):
            with pytest.raises(ValueError):
                natural_moment_of_ramanujan(m, order)
