import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cyclodist.arith import (
    DEFAULT_SIEVE_LIMIT,
    ExactRational,
    FactoredNat,
    SievePack,
    _sieve_arrays_numpy,
    default_pack,
    divisors,
    euler_phi,
    factorize,
    is_kth_powerfree,
    is_prime_int,
    mobius,
    read_sieve_cache,
    sieve_limit_for,
    sieve_pack,
    write_sieve_cache,
)
from cyclodist.errors import ResourceBudgetError


def trial_factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def spf_entry(n, factors):
    """The SPF table's entry for n with prime factorization `factors`: the
    least prime factor of a composite n, 0 at a prime and at n < 2."""
    return 0 if factors in ((), ((n, 1),)) else factors[0][0]


def odd_entries(full, limit):
    """The odd layout of a table `full` over [0..limit]: its entries at the
    odd n, and at an even limit the pad for limit + 1, which holds 0."""
    odd = full[1::2]
    return np.append(odd, np.zeros(1, odd.dtype)) if limit % 2 == 0 else odd


def test_sieve_small_primes():
    pk = sieve_pack(10)
    assert pk.primes.tolist() == [2, 3, 5, 7]


def test_sieve_mobius_30(pack):
    assert pack.mu([30, 1, 4, 2, 6]).tolist() == [-1, 1, 0, -1, 1]


def test_mu_against_trial_division():
    # every case of the reader: odd n, n = 2o and 4 | n, and the top of
    # the sieve, at even and odd limits; an even limit has the pad
    ps = [n for n in range(2, 3000) if is_prime_int(n)]
    checked = 0
    for limit in (2, 3, 4, 5, 6, 7, 30, 31, 1000, 1001, 2**18, 2**18 + 1):
        pk = sieve_pack(limit)
        assert len(pk.mobius) == len(pk.smallest_prime_factor) == limit // 2 + 1, limit
        ns = {1, 2, 3, 4, limit, limit - 1}
        ns |= {m for p in ps for m in (2 * p, 4 * p)}
        ns |= {2 * p * q for p in ps[:30] for q in ps[:30] if p < q}
        ns = sorted(n for n in ns if 1 <= n <= limit)
        want = [FactoredNat(n, trial_factor(n)).mobius() for n in ns]
        assert pk.mu(np.array(ns, dtype=np.int32)).tolist() == want, limit
        assert pk.mu(np.array(ns)).tolist() == want, limit
        checked += len(ns)
    assert checked > 3000


def test_pack_refuses_tables_in_another_layout():
    # full-length tables (entry n for every n) would read as odd tables
    # without any error; so would a table one entry short, a wrong dtype,
    # or a pad whose μ is not 0
    spf, mu, primes = _sieve_arrays_numpy(100)
    full_mu = np.array([0] + [factorize(n).mobius() for n in range(1, 101)], dtype=np.int8)
    full_spf = np.array([spf_entry(n, trial_factor(n)) for n in range(101)], dtype=np.uint16)
    assert SievePack(100, spf, mu, primes).mu(np.arange(1, 101)).tolist() == full_mu[1:].tolist()
    pad = mu.copy()
    pad[-1] = 1
    bad = [(full_spf, full_mu), (spf, full_mu), (full_spf, mu), (spf[:-1], mu[:-1]),
           (spf, mu.astype(np.int16)), (spf.astype(np.int32), mu), (spf, pad)]
    for spf_bad, mu_bad in bad:
        with pytest.raises(ValueError):
            SievePack(100, spf_bad, mu_bad, primes)
    spf, mu, primes = _sieve_arrays_numpy(101)  # an odd limit has no pad
    assert mu[-1] == factorize(101).mobius() == -1
    SievePack(101, spf, mu, primes)


def test_millionth_prime(pack):
    # the 10^6-th prime is 15485863, i.e. pi(15485863) = 10^6
    assert pack.prime_count(15_485_863) == 10**6
    assert pack.primes[10**6 - 1] == 15_485_863


def test_sieve_agrees_with_trial_division(pack):
    for n in [*range(1, 20_001, 2), *range(20_001, 100_001, 2 * 97)]:
        assert pack.smallest_prime_factor[n >> 1] == spf_entry(n, trial_factor(n)), n


def test_mobius_array_matches_definition(pack):
    got = pack.mu(np.arange(1, 100_001)).tolist()
    assert got == [factorize(n).mobius() for n in range(1, 100_001)]


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(105).factors == ((3, 1), (5, 1), (7, 1))
    f = factorize(1_257_984)
    assert math.prod(p**e for p, e in f.factors) == 1_257_984
    with pytest.raises(ValueError):
        factorize(0)


def test_factored_nat_validation():
    with pytest.raises(ValueError):
        FactoredNat(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        FactoredNat(6, ((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        FactoredNat.from_factors(((4, 1),))  # 4 not prime


def test_mobius_phi_examples():
    assert mobius(1) == 1 and mobius(4) == 0 and mobius(6) == 1
    assert euler_phi(1) == 1 and euler_phi(12) == 4
    assert euler_phi(6) == 2  # primitive-root count for p = 7


def test_multiplicativity_of_mobius_and_phi():
    for m in range(1, 101):
        for n in range(1, 101):
            if math.gcd(m, n) == 1:
                assert mobius(m * n) == mobius(m) * mobius(n)
                assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
    rng = random.Random(7)
    checked = 0
    while checked < 2000:
        m, n = rng.randrange(1, 10_001), rng.randrange(1, 10_001)
        if math.gcd(m, n) == 1:
            assert mobius(m * n) == mobius(m) * mobius(n)
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
            checked += 1


def test_mobius_divisor_sum_is_unit_detector(pack):
    for n in range(1, 10_001):
        total = int(pack.mu(divisors(n)).sum())
        assert total == (1 if n == 1 else 0)


def test_phi_doubling_ratio():
    for n in range(1, 10_001):
        ratio = euler_phi(2 * n) / euler_phi(n)
        assert ratio == (2 if n % 2 == 0 else 1)


def test_kth_powerfree():
    assert not is_kth_powerfree(8, 2)
    assert is_kth_powerfree(12, 3)
    squarefree_count = sum(1 for n in range(1, 101) if is_kth_powerfree(n, 2))
    assert squarefree_count == 61
    with pytest.raises(ValueError):
        is_kth_powerfree(10, 1)


def test_kth_powerfree_mobius_identity():
    # sum over d with d^k | n of mu(d) is the k-free indicator
    for k in (2, 3):
        for n in range(1, 5001):
            total = sum(mobius(d) for d in range(1, n + 1) if n % d**k == 0)
            assert (total == 1) == is_kth_powerfree(n, k)
            assert total in (0, 1)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert len(divisors(1470)) == 24  # 1470 = 2*3*5*7^2
    d = divisors(360)
    assert d == sorted(d) and len(d) == len(set(d))


def test_divisors_against_trial_division():
    # divisors() is the walk of iter_divisors_factored, sorted: checked
    # here against trial division, independently of the walk
    for n in range(1, 3001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_iter_divisors_factored():
    fn = factorize(360)
    vals = sorted(d.value for d in fn.iter_divisors_factored())
    assert vals == divisors(360)


def test_iter_divisors_factored_pruned_at_a_bound():
    # the pruned walk is the full walk filtered to d <= upto, order included
    rng = random.Random(19)
    for _ in range(60):
        fn = factorize(math.prod(rng.choice((2, 3, 5, 7, 11, 13, 101))
                                 for _ in range(rng.randrange(0, 9))))
        full = list(fn.iter_divisors_factored())
        for upto in (0, 1, 2, rng.randrange(1, fn.value + 2), fn.value, fn.value + 1):
            pruned = list(fn.iter_divisors_factored(upto=upto))
            assert pruned == [d for d in full if d.value <= upto], (fn.value, upto)


def test_exact_rational_invariants():
    rng = random.Random(42)
    vals = [Fraction(rng.randrange(-50, 51), rng.randrange(1, 50)) for _ in range(40)]
    acc = Fraction(1, 3)
    for _ in range(10_000):
        op = rng.randrange(3)
        v = vals[rng.randrange(len(vals))]
        acc = acc + v if op == 0 else acc - v if op == 1 else acc * v
        assert math.gcd(acc.numerator, acc.denominator) == 1
        assert acc.denominator >= 1
    a, b, c = Fraction(3, 7), Fraction(-5, 11), Fraction(13, 4)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a and (a * b) * c == a * (b * c)
    with pytest.raises(ZeroDivisionError):
        a / Fraction(0)
    assert ExactRational is Fraction


def test_sieve_budget():
    with pytest.raises(ResourceBudgetError):
        sieve_pack(10**10)


def test_sieve_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.cpd1"
    write_sieve_cache(path, 100, [2, 3, 5, 7])
    assert read_sieve_cache(path, 100).tolist() == [2, 3, 5, 7]
    assert read_sieve_cache(path, 200) is None  # limit mismatch
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    assert read_sieve_cache(path, 100) is None  # corrupted magic


def test_sieve_pack_uses_cache_dir(tmp_path):
    pk1 = sieve_pack(10_000, cache_dir=tmp_path)
    cache_files = list(tmp_path.glob("*.cpd1"))
    assert len(cache_files) == 1
    pk2 = sieve_pack(10_000, cache_dir=tmp_path)
    assert pk2.primes.tolist() == pk1.primes.tolist()
    assert pk2.smallest_prime_factor.tolist() == pk1.smallest_prime_factor.tolist()
    assert pk2.mobius.tolist() == pk1.mobius.tolist()


def test_sieve_pack_leaves_a_correct_cache_file_alone(tmp_path):
    sieve_pack(10_000, cache_dir=tmp_path)
    path = tmp_path / "sieve_10000.cpd1"
    before = path.stat()
    cached = sieve_pack(10_000, cache_dir=tmp_path)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    fresh = sieve_pack(10_000)
    for name in ("smallest_prime_factor", "mobius", "primes"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name


def test_sieve_pack_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CYCLODIST_CACHE", str(tmp_path))
    sieve_pack(5000)
    assert list(tmp_path.glob("sieve_5000.cpd1"))


def test_numpy_sieve_fallback_matches_linear():
    # the sieve against the independent routes: Miller-Rabin for the prime
    # list, trial division for smallest prime factors and Möbius values
    spf, mu, primes = _sieve_arrays_numpy(50_000)
    assert spf.dtype == np.uint16 and primes.dtype == np.int32
    assert primes.tolist() == [n for n in range(50_001) if is_prime_int(n)]
    want_spf = np.array([spf_entry(n, factorize(n).factors) if n else 0
                         for n in range(50_001)], dtype=np.uint16)
    want_mu = np.array([factorize(n).mobius() if n else 0 for n in range(50_001)],
                       dtype=np.int8)
    assert np.array_equal(spf, odd_entries(want_spf, 50_000))
    assert np.array_equal(mu, odd_entries(want_mu, 50_000))


def test_sieve_cache_rejects_corrupt_prime_list(tmp_path):
    fresh = sieve_pack(100_000)
    path = tmp_path / "sieve_100000.cpd1"
    good = fresh.primes.tolist()
    corruptions = {
        "truncated": good[:-100],
        "missing small prime": [p for p in good if p != 3],
        "extra composite": sorted(good + [91]),
        "composites below sqrt(limit)": sorted(good + [4, 221]),
        "descending order": good[::-1],
    }
    for label, primes in corruptions.items():
        write_sieve_cache(path, 100_000, primes)
        pk = sieve_pack(100_000, cache_dir=tmp_path)
        assert pk.prime_count(100_000) == 9592, label
        assert (pk.smallest_prime_factor == fresh.smallest_prime_factor).all(), label
        assert (pk.mobius == fresh.mobius).all(), label
        # the rejected file was rewritten in place, with no temporary left over
        assert read_sieve_cache(path, 100_000).tolist() == good, label
        assert [f.name for f in tmp_path.iterdir()] == [path.name], label


def test_sieve_across_a_partial_segment():
    # the last marking segment holds only 5000 entries, and the μ pass
    # changes block size at every power of two up to _SEGMENT; check both
    # ends of the range, the segment boundary and every n within 50 of a
    # power of two by trial division
    from cyclodist.arith import _SEGMENT

    def check(limit, ns):
        spf, mu, primes = _sieve_arrays_numpy(limit)
        assert len(mu) == limit // 2 + 1 and mu[0] == 1 and spf.dtype == np.uint16
        got = SievePack(limit, spf, mu, primes).mu(np.array(ns)).tolist()
        for n, mu_n in zip(ns, got):
            fn = FactoredNat(n, trial_factor(n))
            assert mu_n == fn.mobius(), n
            assert n % 2 == 0 or spf[n >> 1] == spf_entry(n, fn.factors), n

    limit = _SEGMENT + 4_999
    check(limit, [*range(1, 5_001), *range(_SEGMENT - 5_000, limit + 1)])
    limit = 1 << 21
    check(limit, [n for j in range(1, 22)
                  for n in range(max(1, (1 << j) - 50), min(limit, (1 << j) + 50) + 1)])


def _replaced_sieve(limit):
    """The build the segmented one replaced: ascending marking of unmarked
    positions only, then μ by dividing each small prime out of n segment
    by segment (a squarefree n left with a cofactor > 1 has one more prime
    factor, above sqrt(limit))."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    root = math.isqrt(limit)
    for p in range(2, root + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    primes = np.flatnonzero(spf[2:] == 0).astype(np.int64) + 2
    spf[primes] = primes
    segment = 1 << 18
    mu = np.ones(limit + 1, dtype=np.int8)
    small = primes[primes <= root].tolist()
    for lo in range(0, limit + 1, segment):
        seg = mu[lo : lo + segment]
        rem = np.arange(lo, lo + len(seg), dtype=np.int32)
        for p in small:
            start = -lo % p
            seg[start::p] *= -1
            rem[start::p] //= p
            seg[-lo % (p * p) :: p * p] = 0
        seg[rem > 1] *= -1
    mu[0] = 0
    return spf, mu, primes


def test_sieve_matches_the_replaced_build(pack):
    from cyclodist.arith import _MU_BLOCK

    rng = random.Random(2003)
    limits = [2, 3, 4, 5, 10, 100, 1000, 65536, 2**18 - 1, 2**18, 2**18 + 1,
              2**19 + 1, 1_100_000, 16_400_000]
    # both sides of the first and second full μ blocks, in n
    limits += [2 * _MU_BLOCK + d for d in (-1, 1, 2, 3)]
    limits += [4 * _MU_BLOCK + d for d in (-1, 0, 1, 3)]
    limits += [rng.randrange(2, 3_000_001) for _ in range(20)]
    for limit in [*limits, pack.limit]:
        if limit == pack.limit:  # the session's 2*10^7 build
            got = (pack.smallest_prime_factor, pack.mobius, pack.primes)
        else:
            got = _sieve_arrays_numpy(limit)
        want = _replaced_sieve(limit)
        want[0][want[2]] = 0  # the replaced build kept p at a prime p
        spf, mu = odd_entries(want[0], limit), odd_entries(want[1], limit)
        assert got[0].dtype == np.uint16 and np.array_equal(got[0], spf), limit
        assert got[1].dtype == np.int8 and np.array_equal(got[1], mu), limit
        assert got[2].dtype == np.int32 and np.array_equal(got[2], want[2]), limit


def test_sieve_spot_checks_against_trial_division(pack):
    rng = np.random.default_rng(1985)
    ns = rng.integers(2, pack.limit + 1, size=20_000)
    for n, mu_n in zip(ns.tolist(), pack.mu(ns).tolist()):
        fn = FactoredNat(n, trial_factor(n))
        assert n % 2 == 0 or pack.smallest_prime_factor[n >> 1] == spf_entry(n, fn.factors), n
        assert mu_n == fn.mobius(), n


def _traced_peak(run):
    """The peak of the memory that tracemalloc sees while `run()` runs; numpy
    reports its array buffers to it."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sieve_build_holds_little_beyond_its_tables():
    # no step of the build allocates in proportion to the limit besides the
    # three tables: its peak is theirs plus O(block) buffers
    pk, peak = _traced_peak(lambda: sieve_pack(4_000_000))
    tables = sum(t.nbytes for t in (pk.smallest_prime_factor, pk.mobius, pk.primes))
    assert peak <= 1.15 * tables, (peak, tables)


def test_prime_count_searches_in_int32(pack):
    # a Python int or an int64 would cast the whole int32 table for the search
    xs = (-2**40, -1, 0, 1, 2, 3, 4, 15_485_863, 10**7, pack.limit)
    assert [pack.prime_count(x) for x in xs] == [0, 0, 0, 0, 1, 2, 2, 10**6, 664_579,
                                                  len(pack.primes)]
    for x in (pack.limit + 1, 2**31, 2**40):
        with pytest.raises(ValueError):
            pack.prime_count(x)
    count, peak = _traced_peak(lambda: pack.prime_count(10**7))
    assert count == 664_579 and peak < 1024, peak


def test_spf_is_zero_exactly_at_the_primes(pack):
    # over the odd n: 1 (entry 0), the odd primes, and the pad of the even
    # limit 2*10^7
    spf = pack.smallest_prime_factor
    assert spf.dtype == np.uint16 and pack.limit % 2 == 0
    want = np.concatenate(([0], pack.primes[1:] >> 1, [pack.limit // 2]))
    assert np.array_equal(np.flatnonzero(spf == 0), want)


def test_factoring_past_uint16(pack):
    # primes past 2^16 (the 10^6-th prime among them), the square of the
    # largest siever, and the limit itself: factorize and _kfree at the top
    # of the sieve
    from cyclodist.arith import small_primes
    from cyclodist.empirics import _kfree

    top = small_primes(math.isqrt(pack.limit))[-1]
    ns = [65_537, 15_485_863, 19_999_999, top * top, pack.limit]
    assert [trial_factor(n) for n in ns[:3]] == [((n, 1),) for n in ns[:3]]
    for n in ns:
        assert factorize(n).factors == trial_factor(n), n
    for order in (2, 3):
        want = [int(all(e < order for _, e in trial_factor(n))) for n in ns]
        assert _kfree(np.array(ns), order, pack).tolist() == want, order


def test_sieve_refuses_a_limit_past_int32(monkeypatch):
    # the build runs μ in int32 and stores least factors in uint16; a raised
    # budget must fail before any table is allocated
    from cyclodist import arith

    monkeypatch.setattr(arith, "MAX_SIEVE_LIMIT", 2**40)
    monkeypatch.setattr(arith, "small_primes", lambda n: pytest.fail("the sieve started"))
    with pytest.raises(ResourceBudgetError, match="int32"):
        sieve_pack(2**31)


def test_sieve_limit_for_covers_the_nth_prime(pack):
    assert pack.limit == DEFAULT_SIEVE_LIMIT  # default_pack() with no argument
    n_max = len(pack.primes)
    limits = np.array([sieve_limit_for(nprimes=n) for n in range(1, n_max + 1)])
    assert (limits >= pack.primes).all()
    assert sieve_limit_for(nprimes=0) >= 2
    assert sieve_limit_for(nprimes=10_000) < 2 * pack.primes[10_000 - 1]
    assert sieve_limit_for(x=1000) == 1000
    assert sieve_limit_for(x=0) == sieve_limit_for(x=1) == 2  # legal, no primes
    assert sieve_limit_for(nprimes=10, shift=-7) == sieve_limit_for(nprimes=10) + 7
    for bad in ({}, {"nprimes": 10, "x": 100}, {"nprimes": -1}, {"x": -5}):
        with pytest.raises(ValueError):
            sieve_limit_for(**bad)


def test_default_pack_builds_the_limit_asked_for(sieve_builds):
    small = default_pack(1000)
    assert small.limit == 1000
    assert default_pack(500) is small
    assert default_pack(5000).limit == 5000
    assert sieve_builds == [1000, 5000]
