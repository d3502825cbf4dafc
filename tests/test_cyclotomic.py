import itertools
import math
import random

import numpy as np
import pytest

from cyclodist import cyclotomic
from cyclodist.arith import (
    FactoredNat,
    euler_phi,
    factorize,
    least_prime_above,
    small_primes,
)
from cyclodist.cyclotomic import (
    _lift,
    _profile_lattice,
    bertrand_triple,
    coeff_profile,
    construct_coeff_value,
    cyclo_coeff,
    cyclo_coeff_pairs,
    cyclo_coeff_partition,
    cyclo_coeff_prefix,
    cyclo_coeff_series,
    cyclo_poly,
    partition_count,
    support_modulus,
    value_set,
)
from cyclodist.errors import InternalConsistencyError, ResourceBudgetError
from cyclodist.ramanujan import ramanujan_sum


def test_coeff_examples():
    assert cyclo_coeff(105, 7) == -2
    assert cyclo_coeff(6, 1) == -1  # -mu(6)
    assert cyclo_coeff(7, 3) == 1
    assert cyclo_coeff(1, 0) == -1 and cyclo_coeff(1, 1) == 1


def test_series_examples():
    assert cyclo_coeff_series(105, 7) == -2
    # Phi_15 = X^8 - X^7 + X^5 - X^4 + X^3 - X + 1: no X^2 term
    assert cyclo_coeff_series(15, 2) == 0
    assert cyclo_coeff_series(2, 0) == 1
    with pytest.raises(ValueError):
        cyclo_coeff_series(12, 3)  # not squarefree


def test_partition_examples():
    assert cyclo_coeff_partition(105, 7) == -2
    assert cyclo_coeff_partition(3, 2) == 1  # mu(n)(mu(n)-1)/2 - mu(n/2)
    assert cyclo_coeff_partition(6, 1) == -1
    assert type(cyclo_coeff_partition(105, 7)) is int  # not np.int64
    with pytest.raises(ResourceBudgetError):
        cyclo_coeff_partition(2 * 9_999_991, 200_000)  # k <= phi, but over budget


def test_partition_route_at_a_large_primorial():
    # 2^19 divisors, of which the walk pruned at k visits only those <= k
    fn = FactoredNat.from_factors([(p, 1) for p in small_primes(67)])
    for k in range(13):
        assert cyclo_coeff_partition(fn, k) == cyclo_coeff(fn, k), k


def test_partition_zero_above_degree():
    for n in range(2, 300):
        phi = euler_phi(n)
        assert [cyclo_coeff_partition(n, k) for k in range(phi + 1, phi + 6)] == [0] * 5, n


def test_index2_closed_form():
    def mu_ratio(n, d):
        return factorize(n // d).mobius() if n % d == 0 else 0

    for n in range(2, 200):
        mu = factorize(n).mobius()
        want = mu * (mu - 1) // 2 - mu_ratio(n, 2)
        assert cyclo_coeff_partition(n, 2) == want == cyclo_coeff(n, 2)


def test_poly_examples():
    assert cyclo_poly(1) == [-1, 1]
    assert cyclo_poly(6) == [1, -1, 1]
    assert cyclo_poly(12) == [1, 0, -1, 0, 1]
    assert cyclo_poly(15) == [1, -1, 0, 1, -1, 1, 0, -1, 1]
    assert all(type(c) is int for c in cyclo_poly(105))  # not np.int64
    with pytest.raises(ResourceBudgetError):
        cyclo_poly(9_999_991 * 2)  # phi too large


def test_poly_refuses_broken_expansion(monkeypatch):
    real = cyclotomic._divisor_product
    for bumps in ([1], [0, -1]):  # monic but not palindromic; the reverse

        def broken(fn, top):
            out = real(fn, top)
            out[bumps] += 1
            return out

        monkeypatch.setattr(cyclotomic, "_divisor_product", broken)
        with pytest.raises(InternalConsistencyError):
            cyclo_poly(105)


def test_poly_monic_palindromic():
    for n in range(2, 1001):
        coeffs = cyclo_poly(n)
        assert coeffs[-1] == 1
        assert coeffs == coeffs[::-1]  # a_n(k) = a_n(phi(n) - k)
        assert len(coeffs) == euler_phi(n) + 1


def test_poly_255255():
    # phi = 92,160, height 532: expanded in int64 rows (about 0.025 s),
    # which must still hand back Python ints
    coeffs = cyclo_poly(255255)
    assert len(coeffs) == 92_161 and coeffs == coeffs[::-1]
    assert all(type(c) is int for c in coeffs)
    assert max(map(abs, coeffs)) == 532
    assert coeffs[:300] == cyclo_coeff_prefix(255255, 299)


def test_prefix_matches_poly(pack):
    for n in range(1, 501):
        coeffs = cyclo_poly(n)
        assert cyclo_coeff_prefix(n, len(coeffs) - 1) == coeffs


def test_kernel_reduction():
    for n in range(2, 2001):
        fn = factorize(n)
        gamma = fn.radical()
        if gamma == n:
            continue
        quot = n // gamma
        for k in range(0, 25):
            want = cyclo_coeff(gamma, k * gamma // n) if k % quot == 0 else 0
            assert cyclo_coeff(fn, k) == want, (n, k)


def test_doubling(pack):
    for n in range(3, 1000, 2):
        for k in range(0, 13):
            assert cyclo_coeff(2 * n, k) == (-1) ** k * cyclo_coeff(n, k), (n, k)


def test_log_derivative_recurrence():
    # k a_n(k) = -sum_(m<k) a_n(m) c_n(k-m), through the full degree
    for n in range(2, 501):
        fn = factorize(n)
        phi = fn.phi()
        coeffs = cyclo_coeff_prefix(fn, phi)
        c = [0] + [ramanujan_sum(fn, m) for m in range(1, phi + 1)]
        for k in range(1, phi + 1):
            acc = sum(coeffs[m] * c[k - m] for m in range(k))
            assert -acc == k * coeffs[k], (n, k)


def test_nicol_polynomial_identity():
    # sum_m c_n(m) X^(m-1) * Phi_n = (X^n - 1) * Phi_n'
    for n in range(2, 61):
        fn = factorize(n)
        phi_poly = cyclo_poly(fn)
        c_poly = [ramanujan_sum(fn, m) for m in range(1, n + 1)]
        lhs = [0] * (len(c_poly) + len(phi_poly) - 1)
        for i, a in enumerate(c_poly):
            for j, b in enumerate(phi_poly):
                lhs[i + j] += a * b
        deriv = [j * phi_poly[j] for j in range(1, len(phi_poly))]
        rhs = [0] * (n + len(deriv))
        for j, d in enumerate(deriv):
            rhs[j + n] += d
            rhs[j] -= d
        width = max(len(lhs), len(rhs))
        assert lhs + [0] * (width - len(lhs)) == rhs + [0] * (width - len(rhs)), n


def test_value_set_examples():
    report = value_set(7)
    assert report.bound == 2
    assert report.full_set == frozenset({-2, -1, 0, 1, 2})
    assert report.full_set - report.even_set == {-2}
    assert value_set(1).full_set == frozenset({-1, 0, 1})
    assert value_set(1).bound == 1
    with pytest.raises(ResourceBudgetError):
        value_set(62)


def test_value_set_parity_structure():
    # difference between the full and even-n value sets, odd k
    expected = {
        7: {-2}, 11: {-2}, 13: {-2}, 15: {-2}, 17: {-3},
        19: {-3}, 21: {-3}, 23: {-4, -3}, 25: {-3},
    }
    for k, diff in expected.items():
        report = value_set(k)
        assert report.full_set - report.even_set == diff, k
        assert report.even_set <= report.full_set
        assert report.odd_set <= report.full_set
        assert report.odd_set | report.even_set == report.full_set


def test_minus_two_attained_for_k_ge_13():
    for k in range(13, 26):
        assert {-2, -1, 0, 1} <= value_set(k).full_set, k


def test_coeff_profile_k2():
    profile = coeff_profile(2)  # M_2 = 4: rows d = 1, 2, 4
    assert profile.entries.tolist() == [[0, 1], [0, 1], [1, -1]]
    assert profile.q == 3


def test_coeff_profile_counts():
    profile = coeff_profile(7)
    assert profile.entries.shape == (24, 2)  # tau(1470) = 24
    assert profile.entries.dtype == np.int8
    assert not profile.entries.flags.writeable  # shared by every caller of the cache
    for k in (1, 0, -3):  # an invalid k is a usage error, not a budget overrun
        with pytest.raises(ValueError):
            coeff_profile(k)
    with pytest.raises(ResourceBudgetError):
        coeff_profile(62)


def test_coeff_profile_entries_match_direct():
    # the profile is read off the lattice lift; cyclo_coeff is the recurrence.
    # Row i is the divisor at position i of the caps grid, the first prime
    # most significant: the order of iter_divisors_factored and of
    # itertools.product over the exponent ranges
    for k in range(2, 31):
        profile = coeff_profile(k)
        caps = profile.m_k.factors
        divisors = list(profile.m_k.iter_divisors_factored())
        grid = [math.prod(p**e for (p, _), e in zip(caps, exps))
                for exps in itertools.product(*(range(cap + 1) for _, cap in caps))]
        assert [d.value for d in divisors] == grid, k
        assert len(profile.entries) == len(divisors), k
        for d, row in zip(divisors, profile.entries.tolist()):
            want = [cyclo_coeff(d, k), cyclo_coeff(d.times_prime(profile.q), k)]
            assert row == want, (k, d.value)


def test_value_set_matches_direct():
    # B(k) with its parity split is {0} plus a_d(k) and a_dq(k) over the
    # d | M_k, grouped by the parity of d
    for k in range(2, 31):
        q = least_prime_above(k)
        full, odd, even = {0}, {0}, {0}
        for d in support_modulus(k).iter_divisors_factored():
            values = {cyclo_coeff(d, k), cyclo_coeff(d.times_prime(q), k)}
            full |= values
            (odd if d.value % 2 else even).update(values)
        report = value_set(k)
        assert (report.full_set, report.odd_set, report.even_set) == (full, odd, even), k


def test_random_lattice_rows_above_40():
    # rows of the k = 41..61 lattices against the recurrence and the
    # partition sum: F[r] = Phi_r and G[r] = 1/Phi_r = Phi_(rq)/Phi_r(0)
    rng = random.Random(61)
    for k in rng.sample(range(41, 62), 2):
        primes = small_primes(k)
        q = least_prime_above(k)
        F, G = _profile_lattice(primes, k)
        for row in [0] + rng.sample(range(1, len(F)), 8):
            r = math.prod(p for i, p in enumerate(primes) if row >> i & 1)
            sign = -1 if r == 1 else 1
            for j in [0, 1, k] + rng.sample(range(2, k), 5):
                if r > 1:
                    assert F[row, j] == cyclo_coeff(r, j) == cyclo_coeff_partition(r, j), (k, r, j)
                want = sign * cyclo_coeff(r * q, j)
                assert G[row, j] == want == sign * cyclo_coeff_partition(r * q, j), (k, r, j)


def test_kept_lattice_serves_every_smaller_k(lattice_builds, monkeypatch):
    # each k's profile and value set from a lattice built at that k alone ...
    fresh = {}
    for k in range(2, 41):
        monkeypatch.setattr(cyclotomic, "_kept_lattice", None)
        fresh[k] = (coeff_profile(k).entries, value_set(k))
    assert lattice_builds == list(range(2, 41))
    # ... equal what the kept k = 40 lattice serves, read in descending
    # order; its corner for k is a fresh build at k, shape and all
    for k in range(40, 1, -1):
        F, G = cyclotomic._lattice(k)
        want_F, want_G = _profile_lattice(small_primes(k), k)
        assert np.array_equal(F, want_F) and np.array_equal(G, want_G), k
        assert np.array_equal(coeff_profile(k).entries, fresh[k][0]), k
        assert value_set(k) == fresh[k][1], k
    assert lattice_builds == list(range(2, 41))  # the descending pass built nothing


def test_kept_lattice_grows_and_survives_refusals(lattice_builds):
    for k in range(2, 21):  # ascending: one build per k, none kept through the next
        coeff_profile(k)
    assert lattice_builds == list(range(2, 21))
    kept = cyclotomic._kept_lattice
    assert kept[0] == 20
    with pytest.raises(ResourceBudgetError):
        coeff_profile(62)
    with pytest.raises(ValueError):
        coeff_profile(1)
    assert lattice_builds == list(range(2, 21)) and cyclotomic._kept_lattice is kept
    for series in kept[1:] + cyclotomic._lattice(7):
        assert not series.flags.writeable
        with pytest.raises(ValueError):
            series[0, 0] = 0
    coeff_profile(23)
    assert lattice_builds[-1] == 23 and cyclotomic._kept_lattice[0] == 23


def test_lift_refuses_overflowing_rows():
    # (k//p + 1) * max^2 must fit the accumulator: 2 * (2^32)^2 does not fit int64
    F = np.array([[-1, 2**32, 0, 0]], dtype=np.int64)
    G = np.zeros_like(F)
    with pytest.raises(InternalConsistencyError):
        _lift(F, G, 2, 3)
    # 2 * (2^30)^2 does, and agrees with Python-int rows
    F[0, 1] = 2**30
    G[0] = [1, -(2**30), 5, 0]
    got = _lift(F, G, 2, 3)
    want = _lift(F.astype(object), G.astype(object), 2, 3)
    assert all((a == b).all() for a, b in zip(got, want))


def test_random_squarefree_cross_routes():
    # recurrence = series = partition = full expansion on random squarefree n
    rng = random.Random(2025)
    primes = small_primes(50)
    checked = 0
    while checked < 40:
        fn = factorize(math.prod(rng.sample(primes, rng.randint(1, 5))))
        if fn.phi() > 6000:
            continue
        checked += 1
        poly = cyclo_poly(fn)
        for k in rng.sample(range(min(len(poly) + 3, 80)), min(len(poly) + 3, 8)):
            want = poly[k] if k < len(poly) else 0
            assert cyclo_coeff(fn, k) == want, (fn.value, k)
            assert cyclo_coeff_series(fn, k) == want, (fn.value, k)
            assert cyclo_coeff_partition(fn, k) == want, (fn.value, k)


def test_random_cross_routes_with_square_factors():
    # the partition route is the divisor product that cyclo_poly also
    # expands, so it is checked here against the recurrence (and, on
    # squarefree n, the lift) on random n < 10^6, square factors included
    rng = random.Random(2026)
    squareful = 0
    for _ in range(300):
        fn = factorize(rng.randrange(2, 10**6))
        squareful += not fn.is_squarefree()
        for k in rng.sample(range(81), 6):
            want = cyclo_coeff(fn, k)
            assert cyclo_coeff_partition(fn, k) == want, (fn.value, k)
            if fn.is_squarefree():
                assert cyclo_coeff_series(fn, k) == want, (fn.value, k)
    assert squareful > 100


def test_divisor_product_matches_recurrence():
    # the divisor product, in int64 rows at these heights, against the
    # recurrence on random n < 10^6 truncated at random top <= phi(n), 400
    rng = random.Random(2027)
    squareful = 0
    for _ in range(200):
        fn = factorize(rng.randrange(2, 10**6))
        squareful += not fn.is_squarefree()
        top = rng.randint(0, min(fn.phi(), 400))
        out = cyclotomic._divisor_product(fn, top)
        assert out.tolist() == cyclo_coeff_prefix(fn, top), (fn.value, top)
    assert squareful > 50


def _phi(n: int, k: int) -> int:
    """a_n(k) by the partition route, with Phi_1 = X - 1 for n = 1."""
    if n == 1:
        return (-1, 1)[k] if k <= 1 else 0
    return cyclo_coeff_partition(n, k)


def test_coeff_pairs_match_the_series_and_partition_routes():
    # random keys n = R t over the primes <= k, t | R^e with e up to the
    # scans' caps, so t divides k or does not; n = 1 and k = 1 included
    rng = random.Random(2028)
    ks = [1, 2, 3, 4, 6, 12, 24, 30, 61, 62, 80] + rng.sample(range(5, 81), 8)
    for k in ks:
        primes, q = small_primes(k), least_prime_above(k)
        keys = [1]
        while len(keys) < 30:
            n = 1
            for p in rng.sample(primes, rng.randint(0, min(len(primes), 6))):
                n *= p ** rng.choice((1, 1, 1, 2, 3))
            if n < 2**31:
                keys.append(n)
        pairs = cyclo_coeff_pairs(np.array(keys), k).tolist()
        assert pairs == [[_phi(n, k), _phi(n * q, k)] for n in keys], k
        for n, (a, b) in zip(keys, pairs):
            if n > 1 and factorize(n).is_squarefree():
                assert [cyclo_coeff_series(n, k), cyclo_coeff_series(n * q, k)] == [a, b], (n, k)
    assert cyclo_coeff_pairs(np.array([1]), 1).tolist() == [[1, 1]]  # Phi_1 = X - 1, Phi_2 = X + 1


def test_recurrence_refuses_an_inexact_division():
    # T = (., 0, 1) gives b_1 = 0 and b_2 = -1/2
    with pytest.raises(InternalConsistencyError, match="step 2"):
        cyclotomic._recurrence(np.array([[0, 0, 1]], dtype=np.int64))


def test_recurrence_leaves_int64_when_the_bound_does(monkeypatch):
    # T_i = -60 for every i gives (1 - X)^-60, whose X^j coefficient is
    # binom(59 + j, j), past int64 from j = 21 on: int64 rows would wrap
    T = np.full((2, 61), -60, dtype=np.int64)
    b = cyclotomic._recurrence(T)
    assert b.dtype == object
    want = [math.comb(59 + j, j) for j in range(61)]
    assert b.tolist() == [want, want] and want[20] < 2**63 <= want[21]
    # 3*5*...*29 at k = 8000 stays in int64, far faster than Python ints
    n = math.prod(small_primes(29)[1:])
    assert cyclo_coeff(n, 8000) == cyclo_coeff_partition(n, 8000)
    # with the switch point lowered, the rows turn to Python ints after a
    # few steps and finish with the same values
    fn = factorize(255255)
    want = cyclo_coeff_prefix(fn, 300)
    real, rows = cyclotomic._recurrence, []
    monkeypatch.setattr(cyclotomic, "_recurrence", lambda T: rows.append(real(T)) or rows[-1])
    monkeypatch.setattr(cyclotomic, "_INT64_MAX", 10**4)
    assert cyclo_coeff_prefix(fn, 300) == want
    assert rows[0].dtype == object


def _primorial_200() -> FactoredNat:
    return FactoredNat.from_factors([(p, 1) for p in small_primes(200)])


def test_recurrence_bounds_step_j_by_the_reach_of_T_to_j():
    # |T_1| + |T_2| reaches 2^62 at step 2, whose sum 2^62 + 2^62 passes
    # int64: the bound must hold for any T, and must apply at that step
    b = cyclotomic._recurrence(np.array([[0, -(2**31), -(2**62)]], dtype=np.int64))
    assert b.dtype == object
    assert b.tolist() == [[1, 2**31, 2**62]]


def test_primorial_row_stays_int64_to_3300():
    # every sum of the row of prod_(p<=200) p to step 3300 fits int64, and
    # the bound of the recurrence must see that
    fn = _primorial_200()
    T = cyclotomic._log_rows(np.ones((1, len(fn.factors)), bool), fn.primes(), 3300)
    b = cyclotomic._recurrence(T)
    assert b.dtype == np.int64
    assert b[0].tolist() == cyclotomic._divisor_product(fn, 3300).tolist()


def test_divisor_product_leaves_int64_when_the_bound_does():
    # at k = 3000 the height bound of a prefix sum passes 2^63, so the row
    # must finish in Python ints, and still equal the recurrence
    fn = _primorial_200()
    out = cyclotomic._divisor_product(fn, 3000)
    assert out.dtype == object
    assert out.tolist() == cyclo_coeff_prefix(fn, 3000)


@pytest.mark.slow
def test_divisor_product_past_int64():
    # k = 8937 is the first index at which a coefficient of prod_(p<=200) p
    # leaves int64, where int64 rows would wrap
    fn = _primorial_200()
    out = cyclotomic._divisor_product(fn, 8937).tolist()
    assert max(map(abs, out[:-1])) < 2**63 <= abs(out[-1])
    assert out == cyclo_coeff_prefix(fn, 8937)


def test_construct_examples():
    assert construct_coeff_value(-2) == (105, 7)
    assert construct_coeff_value(0) == (4, 1)
    assert construct_coeff_value(2) == (210, 7)


def test_bertrand_triples():
    assert bertrand_triple(13) == (7, 11, 13)
    assert bertrand_triple(30) == (19, 23, 29)
    with pytest.raises(ValueError):
        bertrand_triple(12)
    primes = small_primes(300)
    for k in range(13, 301):
        p1, p2, p3 = bertrand_triple(k)
        i = primes.index(p1)
        assert primes[i : i + 3] == [p1, p2, p3]  # consecutive (odd) primes
        assert p1 > 2 and p3 <= k < p1 + p2


def test_partition_enumeration():
    # p(k) = the ways to write k with parts 1..k, each used any number of times
    ways = [1] + [0] * 25
    for part in range(1, 26):
        for r in range(part, 26):
            ways[r] += ways[r - part]
    assert [partition_count(k) for k in range(26)] == ways
    assert partition_count(61) == 1_121_505


def test_order_divisibility_detects_cyclotomic_roots():
    # p | Phi_m(a) iff a has order m mod p (p prime, p not dividing m)
    for p in small_primes(200):
        divisors_pm1 = factorize(p - 1).divisors()
        polys = {m: cyclo_poly(m) for m in divisors_pm1}
        orders = {}
        for a in range(1, p):
            cur, j = a % p, 1
            while cur != 1:
                cur = cur * a % p
                j += 1
            orders[a] = j
        for m in divisors_pm1:
            if p % m == 0:
                continue
            for a in range(1, p):
                value = 0
                for coeff in reversed(polys[m]):
                    value = (value * a + coeff) % p
                assert (value == 0) == (orders[a] == m), (p, m, a)


def test_small_values_always_attained():
    for k in range(1, 21):
        assert {-1, 0, 1} <= value_set(k).full_set, k


def test_expansion_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = __import__("random").Random(2024)
    ns = {1, 2, 105, 120, 210, 4096} | {rng.randrange(2, 5000) for _ in range(40)}
    for n in sorted(ns):
        reference = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert cyclo_poly(n) == [int(c) for c in reference], n
