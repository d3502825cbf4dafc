import builtins
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cyclodist import cyclotomic, empirics
from cyclodist.arith import (MAX_SIEVE_LIMIT, factorize, least_prime_above, mobius, sieve_pack,
                             small_primes)
from cyclodist.cli import main
from cyclodist.cyclotomic import cyclo_coeff
from cyclodist.densities_prime import ValuationConstraint, artin_constant
from cyclodist.empirics import (
    STATISTICS,
    _coeff_values,
    _ramanujan_values,
    count_ramanujan_values,
    count_squarefree_coprime,
    count_cyclo_values,
    mertens_coprime,
    primitive_roots,
    scan_primes,
    symmetric_functions_mod_p,
    symmetric_residue,
)
from cyclodist.errors import InternalConsistencyError, ResourceBudgetError
from cyclodist.ramanujan import ramanujan_split, ramanujan_sum


def _values(values_of, a, pack, ns):
    """f(n) for an array of n, through the engine as a bulk count runs it:
    the split at the caps of `values_of(a)`, then its value map, whose
    table is read after the codes."""
    caps, value = values_of(a)
    codes, read = value(*empirics._Split(caps, None, pack)(np.asarray(ns)))
    return np.take(read(), codes).tolist()


def _s_k(p, k, pack):
    """s_k(p) mod p through the scan's split, value map and residue step."""
    caps, value = _coeff_values(k)
    ns, key, mu = empirics._Split(caps, None, pack)(np.array([p - 1]))
    codes, read = value(ns, key, mu)
    codes, table = empirics._s_k_codes(ns + 1, k, codes, read())
    return table[codes[0]]


def test_symmetric_residue():
    assert symmetric_residue(5, 7) == -2
    assert symmetric_residue(3, 7) == 3
    assert symmetric_residue(-1, 11) == -1
    assert [symmetric_residue(r, 5) for r in range(5)] == [0, 1, 2, -2, -1]
    # elementwise on arrays, with an array of moduli too
    vs, ps = np.array([5, 3, -1, 4, -7]), np.array([7, 7, 11, 5, 5])
    assert symmetric_residue(vs, ps).tolist() == [-2, 3, -1, -1, -2]
    # p = 2 maps into (-1, 1] too: -1 and 1 both to 1
    assert [symmetric_residue(v, 2) for v in (-2, -1, 0, 1, 2, 3)] == [0, 1, 0, 1, 0, 1]


def test_symmetric_residue_range():
    # the residue lies in (-p/2, p/2] and is congruent to v, for every
    # modulus p <= 50 and every v within a few periods of 0, scalar and array
    for p in range(2, 51):
        vs = np.arange(-3 * p, 3 * p + 1)
        rs = symmetric_residue(vs, p)
        assert ((-p < 2 * rs) & (2 * rs <= p)).all(), p
        assert ((rs - vs) % p == 0).all(), p
        assert [symmetric_residue(int(v), p) for v in vs] == rs.tolist(), p


def test_residue_scans_match_the_oracle_from_p_2(pack):
    # s_k and S_k mod p over the first 25 primes, 2 included, one prime at a
    # time (the scan over the first n primes less the scan over n - 1),
    # against the symmetric residues of the primitive-root oracle
    primes = pack.primes[:25].tolist()
    for k in (1, 2, 3):
        for stat, at in (("s_k_mod_p", 0), ("S_k_mod_p", 1)):
            before = Counter()
            for n, p in enumerate(primes, 1):
                counts = Counter(scan_primes(stat, k=k, nprimes=n, pack=pack).counts)
                got = counts - before
                want = symmetric_residue(symmetric_functions_mod_p(p, k)[at][k - 1], p)
                assert got == Counter({want: 1}), (stat, k, p)
                before = counts


def test_primitive_roots_examples():
    assert primitive_roots(7) == [3, 5]
    assert primitive_roots(2) == [1]
    assert primitive_roots(5) == [2, 3]
    with pytest.raises(ValueError):
        primitive_roots(8)
    with pytest.raises(ResourceBudgetError):
        primitive_roots(1_000_003)


def test_primitive_roots_are_exactly_the_generators():
    for p in small_primes(300):
        roots = set(primitive_roots(p))
        assert len(roots) == factorize(p - 1).phi() if p > 2 else 1
        for a in range(1, p):
            cur, order = a % p, 1
            while cur != 1:
                cur = cur * a % p
                order += 1
            assert (order == p - 1) == (a in roots), (p, a)


def test_symmetric_functions_examples():
    s, S = symmetric_functions_mod_p(7, 2)
    assert s == [1, 1]  # 3 + 5 = 8, 3 * 5 = 15
    assert S == [1, 6]
    s, S = symmetric_functions_mod_p(5, 1)
    assert S[0] == 0  # mu(4) = 0 mod 5


def test_symmetric_functions_check_newton_identity(monkeypatch, capsys):
    # a wrong power sum S_1 = 3 + 5 + 2 = 3 mod 7 breaks Newton's identity
    # at k = 1 (s_1 = 1): an error, under python -O too, and exit code 4
    monkeypatch.setattr(empirics, "pow", lambda g, k, p: builtins.pow(g, k, p) + (k == 1),
                        raising=False)
    with pytest.raises(InternalConsistencyError, match="Newton"):
        symmetric_functions_mod_p(7, 2)
    assert main(["oracle", "sym", "--p", "7", "--kmax", "2"]) == 4
    assert "Newton" in capsys.readouterr().err


def test_symmetric_function_boundaries(pack):
    # product of all roots is 1 mod p for p >= 5 (-1 for p = 3, where the
    # lone root is 2); beyond phi(p-1) everything vanishes.  The scan side
    # must agree with the oracle at both boundaries.
    for p in small_primes(300):
        t = factorize(p - 1).phi() if p > 2 else 1
        s, _ = symmetric_functions_mod_p(p, t + 2)
        if p == 3:
            assert s[t - 1] == 2, p
        else:
            assert s[t - 1] == 1 % p, p
        assert s[t] == 0 and s[t + 1] == 0, p
        for k in (t, t + 1, t + 2):
            want = symmetric_residue(s[k - 1], p)
            assert _s_k(p, k, pack) == want, (p, k)


def test_congruences_small():
    # S_k = c_(p-1)(k) and s_k = (-1)^k a_(p-1)(k) mod p, oracle side
    for p in small_primes(200):
        t = factorize(p - 1).phi() if p > 2 else 1
        kmax = min(8, t)
        s, S = symmetric_functions_mod_p(p, kmax)
        fn = factorize(p - 1)
        for k in range(1, kmax + 1):
            assert S[k - 1] == ramanujan_sum(fn, k) % p, (p, k)
            assert s[k - 1] == ((-1) ** k * cyclo_coeff(fn, k)) % p, (p, k)


def test_scan_table1_counts(pack):
    counts = scan_primes("s_k_mod_p", k=2, nprimes=100, pack=pack).counts
    assert counts == {-1: 11, 0: 61, 1: 28}
    counts = scan_primes("s_k_mod_p", k=2, nprimes=1000, pack=pack).counts
    assert counts == {-1: 99, 0: 625, 1: 276}


def test_scan_report_invariants(pack):
    report = scan_primes("mu_pminus1", nprimes=5000, pack=pack)
    assert report.total == 5000
    assert sum(report.counts.values()) == 5000
    freqs = report.frequencies()
    assert sum(freqs.values()) == 1
    assert all(isinstance(f, Fraction) for f in freqs.values())


def test_scan_bounds_validation(pack):
    with pytest.raises(ValueError):
        scan_primes("mu_pminus1", pack=pack)
    with pytest.raises(ValueError):
        scan_primes("mu_pminus1", nprimes=10, x=100, pack=pack)
    with pytest.raises(ValueError):
        scan_primes("c_pminus1", nprimes=10, pack=pack)  # missing k
    with pytest.raises(ValueError):
        scan_primes("nonsense", nprimes=10, pack=pack)
    with pytest.raises(ValueError, match="x must be >= 0"):
        scan_primes("mu_pminus1", x=-5, pack=pack)
    for x in (0, 1):  # legal bounds below the first prime
        assert scan_primes("mu_pminus1", x=x, pack=pack).total == 0
    with pytest.raises(ResourceBudgetError):
        scan_primes("mu_pminus1", nprimes=10**8, pack=pack)


def _every_scan(pack, nprimes):
    """Reports of every statistic, with and without a constraint, and both
    bulk counts.  s_k at k = 1 has the p = 2 fix-up; S_k at k = 720720
    has a residue code past the table in the first block and new parts
    n_S in later ones."""
    out = {}
    args = {"mu_pminus1": [{}], "c_pminus1": [{"k": 12}], "a_pminus1": [{"k": 15}],
            "s_k_mod_p": [{"k": 3}, {"k": 1}], "S_k_mod_p": [{"k": 2}, {"k": 720720}],
            "kfree_shift": [{"shift": 1, "kfree_order": 2}, {"shift": -1, "kfree_order": 3}],
            "conjecture1": [{}]}
    for stat in STATISTICS:
        for c in (None, ValuationConstraint(((2, ("ge", 2)), (3, 0)))):
            for i, kwargs in enumerate(args[stat]):
                if stat != "conjecture1" or c is not None:
                    out[stat, c, i] = scan_primes(stat, nprimes=nprimes, constraint=c,
                                                  pack=pack, **kwargs)
    out["cyclo"] = count_cyclo_values((1, 6, 15), nprimes, pack)
    out["rama"] = count_ramanujan_values((2, 12), nprimes, pack)
    return out


def test_scan_merge(pack, monkeypatch):
    # per-block counts merge to the counts of one block, for every
    # statistic and with blocks that end anywhere
    whole = _every_scan(pack, 5000)
    monkeypatch.setattr(empirics, "_BLOCK", 997)
    blocked = _every_scan(pack, 5000)
    assert blocked == whole
    assert all(r.total == 5000 for key, r in whole.items() if isinstance(key, tuple))


def test_counts_do_not_depend_on_the_batch_chunks(pack, monkeypatch):
    # the rows of a scan's new keys are evaluated in chunks of _CHUNK keys
    # per divisor t of k, once per scan or once per block
    def scans():
        out = _every_scan(pack, 3000)
        for stat in ("a_pminus1", "s_k_mod_p"):
            out[stat, 61] = scan_primes(stat, k=61, nprimes=20000, pack=pack)
        out["cyclo", 62] = count_cyclo_values((62, 24), 20000, pack)
        return out

    whole = scans()
    for chunk in (1, 3):
        monkeypatch.setattr(cyclotomic, "_CHUNK", chunk)
        assert scans() == whole, chunk


def test_engine_with_every_key_in_one_bucket(pack, monkeypatch):
    # with one bucket, key 0's, every live key misses; with two, the live
    # keys that land in bucket 1 share it with the one key that holds it.
    # Counts must not change, in one block or in many
    monkeypatch.setattr(empirics, "_BLOCK", 997)
    wide = _every_scan(pack, 5000)
    live = np.flatnonzero(pack.mu(np.arange(4000))).tolist()
    dead = [n * 2**7 for n in range(1, 300)]
    for bits in (0, 1):
        monkeypatch.setattr(empirics, "_HASH_BITS", bits)
        assert _every_scan(pack, 5000) == wide, bits
        # bucket 0 is never taken, so the dead entries never miss, even
        # after live keys have been seen
        maps = ((_coeff_values(15), lambda f: cyclo_coeff(f, 15)),
                (_ramanujan_values(12), lambda f: ramanujan_sum(f, 12)))
        for (caps, value), direct in maps:
            split = empirics._Split(caps, None, pack)
            for block in (live, dead, live, dead):
                before = value.misses
                codes, read = value(*split(np.array(block)))
                assert np.take(read(), codes).tolist() == [direct(factorize(n)) for n in block]
                if block is dead:
                    assert value.misses == before
                elif bits == 0:
                    assert value.misses == before + len(live)


def test_scans_sort_nothing(pack, monkeypatch):
    # a block is keyed and counted in linear time: no scan may sort, which
    # also keeps numpy's sort code out of a process that only scans
    def refuse(*args, **kwargs):
        raise AssertionError("a scan sorted")

    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(empirics, "_BLOCK", 997)
    _every_scan(pack, 3000)


def test_scan_c_statistic_matches_direct(pack):
    report = scan_primes("c_pminus1", k=12, nprimes=2000, pack=pack)
    total = 0
    for i, p in enumerate(pack.primes[:2000].tolist()):
        total += ramanujan_sum(factorize(p - 1), 12)
    assert report.signed_sum() == total


def test_scan_S_residues(pack):
    rep = scan_primes("S_k_mod_p", k=2, nprimes=500, pack=pack)
    direct = {}
    for p in pack.primes[:500].tolist():
        v = symmetric_residue(ramanujan_sum(factorize(p - 1), 2), p)
        direct[v] = direct.get(v, 0) + 1
    assert rep.counts == direct


def test_ramanujan_scans_past_the_profile_cap(pack):
    # c_(p-1)(k) and S_k need no coefficient profile, so no profile cap; nor
    # do a_(p-1)(k) and s_k, which stop at their own cap
    k = 100
    primes = pack.primes[:1000].tolist()
    values = [ramanujan_sum(factorize(p - 1), k) for p in primes]
    for stat, want in (("c_pminus1", values),
                       ("S_k_mod_p", [symmetric_residue(v, p) for v, p in zip(values, primes)])):
        assert scan_primes(stat, k=k, nprimes=1000, pack=pack).counts == Counter(want), stat
    k = 62
    values = [cyclo_coeff(factorize(p - 1), k) for p in primes]
    for stat, want in (("a_pminus1", values),
                       ("s_k_mod_p", [symmetric_residue(v, p) for v, p in zip(values, primes)])):
        assert scan_primes(stat, k=k, nprimes=1000, pack=pack).counts == Counter(want), stat
    for stat in ("a_pminus1", "s_k_mod_p"):
        with pytest.raises(ResourceBudgetError):
            scan_primes(stat, k=empirics.COEFF_SCAN_MAX_K + 1, nprimes=10, pack=pack)


def test_coefficient_scans_refuse_past_the_cap_before_any_sieve(sieve_builds):
    over = empirics.COEFF_SCAN_MAX_K + 1
    for refused in (lambda: scan_primes("a_pminus1", k=over, nprimes=10),
                    lambda: scan_primes("s_k_mod_p", k=over, x=10**6),
                    lambda: count_cyclo_values([15, over], 10**6)):
        with pytest.raises(ResourceBudgetError, match=f"k <= {over - 1}"):
            refused()
    assert sieve_builds == []


def test_coeff_evaluator_matches_cyclo_coeff(pack):
    ns = np.arange(1, 3001)
    for k in (1, 2, 3, 7, 15):
        got = _values(_coeff_values, k, pack, ns)
        assert got == [cyclo_coeff(factorize(n), k) for n in range(1, 3001)], k


def test_evaluators_match_direct_random(pack):
    rng = random.Random(2024)
    ns = [rng.randrange(1, 10**5 + 1) for _ in range(600)]
    ns += [2**16, 3**10, 2**5 * 3**4 * 5**3]  # valuations above every cap
    arr = np.array(ns)
    for k in (1, 2, 6, 13, 24, 40):
        got = _values(_coeff_values, k, pack, arr)
        assert got == [cyclo_coeff(factorize(n), k) for n in ns], k
    for m in (1, 2, 12, 15, 36, 210, 1024):
        got = _values(_ramanujan_values, m, pack, arr)
        assert got == [ramanujan_sum(factorize(n), m) for n in ns], m


def test_engine_above_every_cap(pack):
    # n built with each prime of S raised up to two past its cap, times a
    # random cofactor: the engine against the scalar routes
    rng = random.Random(77)

    def draws(caps):
        ns = []
        for _ in range(300):
            n = 1
            for p, cap in caps.items():
                e = rng.randrange(cap + 3)
                if n * p**e <= pack.limit:
                    n *= p**e
            ns.append(n * rng.randrange(1, pack.limit // n + 1))
        ns += [p ** (cap + 1) for p, cap in caps.items() if p ** (cap + 1) <= pack.limit]
        return ns

    for k in (2, 6, 13, 24, 40, 61):
        ns = draws({p: int(np.log(k) / np.log(p) + 1e-9) + 1 for p in small_primes(k)})
        got = _values(_coeff_values, k, pack, ns)
        assert got == [cyclo_coeff(factorize(n), k) for n in ns], k
    # caps past the 2^16 residue tables (3^12, 5^8, 7^6), a 2-cap past
    # int32, and a prime of m past int32 (it divides no entry)
    for m in (2, 12, 36, 210, 1024, 3**11, 5**7 * 7**5, 2**80, 3 * (2**31 + 11)):
        ns = draws({q: e + 1 for q, e in factorize(m).factors})
        got = _values(_ramanujan_values, m, pack, ns)
        assert got == [ramanujan_sum(factorize(n), m) for n in ns], m


def _peel_loop(n, primes):
    exps = []
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps.append(e)
    return exps, n


def test_parts_against_a_loop():
    # the residue-table parts (the 2-part from the lowest set bit, an odd p
    # by one gather over Z/p^t) against trial division, for every cap from
    # 0 to past the table depth and with none; n = p^t and p^t * q at the
    # depth t of p's table run the deep path, and so do their multiples
    rng = random.Random(16)
    ns = [1] + [2**j for j in range(29)] + [3**18, 5**12]
    ns += [MAX_SIEVE_LIMIT, MAX_SIEVE_LIMIT - 1]
    ns += [MAX_SIEVE_LIMIT // m * m for m in (2**10, 3**8, 2**5 * 3**4 * 5**3, 7**6, 9699690)]
    ns += [rng.randrange(1, MAX_SIEVE_LIMIT + 1) for _ in range(500)]
    ns += [rng.randrange(1, 10**4) * rng.choice((1, 2**9, 3**6, 5**4, 7**3)) for _ in range(500)]
    # 65537 has no stored table; the least prime past the limit divides no entry
    past = least_prime_above(MAX_SIEVE_LIMIT)
    for primes in ((2,), (3,), (2, 3), (3, 5, 7), (5, 13), tuple(small_primes(61)),
                   (7, 65537, past)):
        block = list(ns)
        depth = {p: max(int(math.log(empirics._RESIDUE_TABLE, p) + 1e-9), 1) for p in primes}
        for p, t in depth.items():
            for m in (p**t, p ** (t + 1), p ** (2 * t), p**t * 1009, p**t * 3 * 1013):
                block += [m * j for j in (1, 2, p + 1) if m * j <= MAX_SIEVE_LIMIT]
        want = [_peel_loop(n, primes) for n in block]
        arr = np.array(block, dtype=np.int32)
        key = np.ones_like(arr)
        for i, p in enumerate(primes):
            exps = [e[i] for e, _ in want]
            for cap in list(range(depth[p] + 3)) + [31, 40, 81, None]:
                got = empirics._part_reader(p, cap, MAX_SIEVE_LIMIT)(arr).tolist()
                assert got == [p**e if cap is None or e <= cap else 0 for e in exps], (p, cap)
            key *= empirics._part_reader(p, None, MAX_SIEVE_LIMIT)(arr)
            assert empirics._part_reader(p, 2, MAX_SIEVE_LIMIT)(arr[:0]).tolist() == []
        assert (arr // key).tolist() == [r for _, r in want], primes


def test_engine_on_all_dead_and_all_live_blocks(pack):
    # a block where f vanishes everywhere (a valuation over its cap, or a
    # square in the cofactor) maps every entry to key 0; a block of
    # squarefree n has no dead entry at all
    live = np.flatnonzero(pack.mu(np.arange(4000))).tolist()
    dead = [n * 2**7 for n in range(1, 300)] + [n * 3**5 for n in range(1, 300)]
    dead += [n * q * q for n in range(1, 200) for q in (67, 101)]
    maps = [(_coeff_values, k, lambda f, k=k: cyclo_coeff(f, k)) for k in (2, 15, 40)]
    maps += [(_ramanujan_values, m, lambda f, m=m: ramanujan_sum(f, m)) for m in (2, 12, 720)]
    for values_of, a, direct in maps:
        for block in (live, dead):
            got = _values(values_of, a, pack, block)
            assert got == [direct(factorize(n)) for n in block]
        assert not any(got)


def test_engine_refuses_a_pack_past_int32():
    # checked from the limit alone, once per value map of a bulk count and
    # once per scan: the stubs have no tables, and a count up to 0 evaluates
    # no block
    fits, past = SimpleNamespace(limit=2**31 - 1), SimpleNamespace(limit=2**31)
    assert count_cyclo_values([15], 0, fits) == {15: {}}
    assert count_ramanujan_values([12], 0, fits) == {12: {}}
    for make in (lambda: count_cyclo_values([15], 0, past),
                 lambda: count_ramanujan_values([12], 0, past),
                 lambda: scan_primes("mu_pminus1", nprimes=10, pack=past)):
        with pytest.raises(InternalConsistencyError):
            make()


def test_scan_a_statistic(pack):
    rep = scan_primes("a_pminus1", k=2, nprimes=3000, pack=pack)
    direct = {}
    for p in pack.primes[:3000].tolist():
        v = cyclo_coeff(factorize(p - 1), 2)
        direct[v] = direct.get(v, 0) + 1
    assert rep.counts == direct


def test_kfree_shift_scan(pack):
    rep = scan_primes("kfree_shift", shift=1, kfree_order=2, x=10**6, pack=pack)
    a = artin_constant(1e-8, pack=pack).value
    frac = rep.counts[1] / rep.total
    assert abs(frac - a) < 0.01
    rep3 = scan_primes("kfree_shift", shift=-1, kfree_order=3, nprimes=10**5, pack=pack)
    cube = rep3.counts[1] / rep3.total
    assert 0.5 < cube < 1.0


def test_kfree_shift_past_int32(pack):
    # the primes p <= shift are left out; a shift past the sieve, or past
    # int32, leaves out all of them, and p - shift past the sieve is refused
    for shift, left in ((int(pack.primes[499]), 500), (pack.limit, 1000), (2**31, 1000),
                        (2**40, 1000)):
        rep = scan_primes("kfree_shift", shift=shift, kfree_order=2, nprimes=1000, pack=pack)
        assert sum(rep.counts.values()) == 1000 - left and rep.total == 1000, shift
    for shift in (-pack.limit, -2**31, -2**40):
        with pytest.raises(ResourceBudgetError):
            scan_primes("kfree_shift", shift=shift, kfree_order=2, nprimes=1000, pack=pack)


def test_kfree_matches_trial_division(pack):
    # seeded draws against factorize for orders 2..8: m = 1, q^r, q^r - 1 and
    # q^r * s for r <= order + 1, and the largest q with q^order <= the limit
    # (the last prime peeled), in blocks up to the limit and alone; and a
    # block below 2^order, where no q^order fits
    rng = random.Random(2003)
    primes = small_primes(math.isqrt(pack.limit))
    for order in range(2, 9):
        top = max(q for q in primes if q**order <= pack.limit) ** order
        ms = [1, top, pack.limit] + [rng.randint(1, pack.limit) for _ in range(200)]
        for r in range(1, order + 2):
            fits = [q for q in primes if q**r <= pack.limit]
            for q in rng.sample(fits, min(20, len(fits))):
                ms += [q**r, q**r - 1, q**r * rng.randint(1, pack.limit // q**r)]
        for block in (ms, [top], list(range(1, 2**order))):
            want = [int(all(e < order for _, e in factorize(m).factors)) for m in block]
            got = empirics._kfree(np.array(block), order, pack).tolist()
            assert got == want, (order, [m for m, g, w in zip(block, got, want) if g != w])


def test_conjecture1_scan(pack):
    rep = scan_primes(
        "conjecture1",
        nprimes=10**5,
        constraint=ValuationConstraint(()),
        pack=pack,
    )
    assert abs(rep.signed_sum()) / rep.total < 0.02
    # valuation-profile masses: nu_2(p-1) = 1 carries ~A, = 2 carries ~A/2
    a = artin_constant(1e-8, pack=pack).value
    for e, coeff in ((1, 1.0), (2, 0.5)):
        repc = scan_primes(
            "conjecture1",
            nprimes=10**5,
            constraint=ValuationConstraint(((2, e),)),
            pack=pack,
        )
        squarefree_mass = (repc.counts.get(1, 0) + repc.counts.get(-1, 0)) / repc.total
        assert abs(squarefree_mass - coeff * a) < 0.01, e



def test_conjecture1_and_kfree_match_scalar(pack):
    # per prime by trial division, against the array scans over 2*10^4
    # primes; squarefree_outside keeps only the p whose p - 1 is squarefree
    # off the constraint primes, so conjecture1 then never reads 0
    primes = pack.primes[:20_000].tolist()
    factored = [factorize(p - 1).factors for p in primes]
    for entries in ((), ((2, 1),), ((2, ("ge", 2)), (3, 0))):
        for outside_sf in (True, False):
            c = ValuationConstraint(entries, squarefree_outside=outside_sf)
            want = {"conjecture1": {}, "mu_pminus1": {}}
            for factors in factored:
                outside = [e for q, e in factors if q not in c.primes()]
                v = 0 if any(e >= 2 for e in outside) else (-1) ** len(outside)
                if c.matches(factors) and (v or not outside_sf):
                    mu = 0 if any(e >= 2 for _, e in factors) else (-1) ** len(factors)
                    for stat, val in (("conjecture1", v), ("mu_pminus1", mu)):
                        want[stat][val] = want[stat].get(val, 0) + 1
            for stat, counts in want.items():
                rep = scan_primes(stat, nprimes=20_000, constraint=c, pack=pack)
                assert rep.counts == counts and rep.total == 20_000, (stat, entries, outside_sf)
    for shift, order in ((1, 2), (-1, 3), (3, 2), (100, 2)):
        want = {}
        for p in primes:
            if p - shift >= 1:
                v = int(all(e < order for _, e in factorize(p - shift).factors))
                want[v] = want.get(v, 0) + 1
        rep = scan_primes("kfree_shift", shift=shift, kfree_order=order, nprimes=20_000,
                          pack=pack)
        assert rep.counts == want and rep.total == 20_000, (shift, order)


def test_constrained_value_scans_match_scalar(pack, monkeypatch):
    # every value statistic, with k or m drawn from a fixed set, under a
    # constraint at a prime outside S (where mu of the part flips the sign
    # of the cofactor), at one of S and one outside, and at a prime of S
    # prescribed exactly past its cap, with and without squarefree_outside:
    # the array scans against factorize, ValuationConstraint.matches and the
    # scalar values over 2*10^4 primes.  The engine factors no key past a
    # cap: a part at a constraint prime of S is capped like any part of S
    rng = random.Random(24)
    primes = pack.primes[:20_000].tolist()
    factored = [factorize(p - 1) for p in primes]
    keys = []
    monkeypatch.setattr(empirics, "factorize", lambda n: keys.append(n) or factorize(n))
    scalar = {
        "a_pminus1": lambda f, p, k: cyclo_coeff(f, k),
        "c_pminus1": lambda f, p, k: ramanujan_sum(f, k),
        "s_k_mod_p": lambda f, p, k: symmetric_residue((-1) ** k * cyclo_coeff(f, k), p),
        "S_k_mod_p": lambda f, p, k: symmetric_residue(ramanujan_sum(f, k), p),
    }
    for stat, value in scalar.items():
        coeff = stat in ("a_pminus1", "s_k_mod_p")
        for k in rng.sample((1, 2, 3, 12, 15, 30), 2):
            caps = (_coeff_values if coeff else _ramanujan_values)(k)[0]
            values = [value(f, p, k) for f, p in zip(factored, primes)]
            out = next(q for q in small_primes(100) if q not in caps)
            entries = [((out, 1),)]
            if caps:
                inside, low = rng.choice(sorted(caps)), min(caps)
                entries += [tuple(sorted(((inside, rng.randrange(3)), (out, ("ge", 1))))),
                            ((low, caps[low] + 1),)]
            for entry in entries:
                c = ValuationConstraint(entry)
                kept = [(v, all(e < 2 for q, e in f.factors if q not in c.primes()))
                        for f, v in zip(factored, values) if c.matches(f.factors)]
                for outside_sf in (False, True):
                    c = ValuationConstraint(entry, squarefree_outside=outside_sf)
                    want = Counter(v for v, sf in kept if sf or not outside_sf)
                    del keys[:]
                    rep = scan_primes(stat, k=k, nprimes=20_000, constraint=c, pack=pack)
                    assert rep.counts == want and rep.total == 20_000, (stat, k, entry, outside_sf)
                    assert all(e <= caps[q] for n in keys for q, e in factorize(n).factors), (
                        stat, k, entry)

def test_mobius_sums(pack):
    assert count_squarefree_coprime(100, 1, pack) == 61
    assert count_squarefree_coprime(10, 2, pack) == 4  # 1, 3, 5, 7
    assert count_squarefree_coprime(0, 5, pack) == 0
    assert mertens_coprime(1, 1, pack) == 1
    assert mertens_coprime(2, 1, pack) == 0
    m = mertens_coprime(10**6, 1, pack)
    assert abs(m) / 10**6 < 0.001
    for r in (2, 6, 30):
        assert abs(mertens_coprime(10**6, r, pack)) / 10**6 < 0.03


def test_coprime_window_against_brute_force(pack, monkeypatch):
    mu = [0] + [mobius(m) for m in range(1, 3001)]
    rng = random.Random(5)
    xs = [0, 1, 2, 3000] + [rng.randrange(3, 3000) for _ in range(16)]
    for r in (1, 2, 4, 12, 18, 30, 49, 360, 1001, 2**10):
        for x in xs:
            window = [mu[m] for m in range(1, x + 1) if math.gcd(m, r) == 1]
            assert count_squarefree_coprime(x, r, pack) == sum(map(abs, window)), (x, r)
            assert mertens_coprime(x, r, pack) == sum(window), (x, r)

    def no_sieve(*args, **kwargs):
        raise AssertionError("sieve built for x = 0")

    monkeypatch.setattr(empirics, "default_pack", no_sieve)
    assert count_squarefree_coprime(0, 12) == 0 and mertens_coprime(0, 12) == 0


def test_count_ramanujan_values_small(pack):
    counts = count_ramanujan_values([2, 6], 3000, pack)
    direct = {2: {}, 6: {}}
    for n in range(1, 3001):
        fn = factorize(n)
        for m in (2, 6):
            v = ramanujan_sum(fn, m)
            direct[m][v] = direct[m].get(v, 0) + 1
    assert dict(counts[2]) == direct[2]
    assert dict(counts[6]) == direct[6]


def test_count_ramanujan_values_past_the_fold_budget(pack):
    # a scan reads only the caps of c_n(m), not the fold's rows: an m whose
    # fold is refused (5^12 rows) is still counted
    m = math.prod(p**3 for p in small_primes(37))
    with pytest.raises(ResourceBudgetError):
        ramanujan_split(m)
    counts = count_ramanujan_values([m], 2000, pack)[m]
    assert dict(counts) == Counter(ramanujan_sum(factorize(n), m) for n in range(1, 2001))


def test_count_cyclo_values_small(pack):
    counts = count_cyclo_values([2, 7], 3000, pack)
    direct = {2: {}, 7: {}}
    for n in range(1, 3001):
        fn = factorize(n)
        for k in (2, 7):
            v = cyclo_coeff(fn, k)
            direct[k][v] = direct[k].get(v, 0) + 1
    assert dict(counts[2]) == direct[2]
    assert dict(counts[7]) == direct[7]


def test_bulk_counts_up_to_an_even_sieve_limit():
    # n = limit = 2^7 * 25 is dead for every map here, and with 2 in S a
    # dead entry reads entry limit / 2 of the odd tables, the pad; m = 3
    # and 15 leave 2 out of S, so an even cofactor reads μ through
    # SievePack.mu
    limit = 3200
    pk = sieve_pack(limit)
    factored = [factorize(n) for n in range(1, limit + 1)]
    ks, ms = (1, 2, 15), (2, 3, 12, 15)
    counts = count_cyclo_values(ks, limit, pk)
    for k in ks:
        assert counts[k] == Counter(cyclo_coeff(f, k) for f in factored), k
    counts = count_ramanujan_values(ms, limit, pk)
    for m in ms:
        assert counts[m] == Counter(ramanujan_sum(f, m) for f in factored), m


def test_bulk_counts_refuse_bad_arguments(sieve_builds):
    # a_n(0) = 1 for n >= 2 and c_n(m) needs m >= 1: no count for either,
    # and a negative limit is no empty range; limit 0 is legal
    for bad in (lambda: count_cyclo_values([0], 30), lambda: count_cyclo_values([3, -1], 30),
                lambda: count_cyclo_values([5], -7), lambda: count_ramanujan_values([0], 30),
                lambda: count_ramanujan_values([3], -1)):
        with pytest.raises(ValueError):
            bad()
    assert sieve_builds == []
    assert count_cyclo_values([5], 0) == {5: {}}
    assert count_ramanujan_values([3], 0) == {3: {}}


def test_table8_table9_conditioning(pack):
    a = artin_constant(1e-8, pack=pack).value
    # s_2 strata by nu_2(p-1); joint frequencies over all scanned primes
    rows = {
        (2, 1): {0: 0.5 - a / 2, 1: a / 2},
        (2, ("ge", 2)): {-1: a / 4, 0: 0.5 - a / 2, 1: a / 4},
    }
    for (q, spec), want in rows.items():
        rep = scan_primes(
            "s_k_mod_p", k=2, nprimes=10**5,
            constraint=ValuationConstraint(((q, spec),), squarefree_outside=False),
            pack=pack,
        )
        for v, dens in want.items():
            assert abs(rep.counts.get(v, 0) / rep.total - dens) < 0.01, (spec, v)
    # s_3 strata by nu_3(p-1)
    rows3 = {
        (3, 0): {0: 0.5 - 0.3 * a, 1: 0.3 * a},
        (3, 1): {0: 1 / 3 - a / 5, 1: a / 5},
        (3, ("ge", 2)): {-1: a / 15, 0: 1 / 6 - 2 * a / 15, 1: a / 15},
    }
    for (q, spec), want in rows3.items():
        rep = scan_primes(
            "s_k_mod_p", k=3, nprimes=10**5,
            constraint=ValuationConstraint(((q, spec),), squarefree_outside=False),
            pack=pack,
        )
        for v, dens in want.items():
            assert abs(rep.counts.get(v, 0) / rep.total - dens) < 0.01, (spec, v)


@pytest.mark.slow
def test_mu_scan_millionth(pack):
    rep = scan_primes("mu_pminus1", nprimes=10**6, pack=pack)
    assert rep.counts == {-1: 187320, 0: 625881, 1: 186799}


def test_root_product_boundary_full_range(pack):
    # s_t(p) with t = phi(p-1) is the product of all primitive roots:
    # 1 mod p for p >= 5, 2 for p = 3, 1 for p = 2; the scan side must
    # reproduce it for every p <= 2000.
    for p in pack.primes[: pack.prime_count(2000)].tolist():
        fn = factorize(p - 1)
        t = fn.phi()
        product = 1
        for g in primitive_roots(p):
            product = product * g % p
        want = 1 if p != 3 else 2
        assert product == want, p
        assert _s_k(p, t, pack) == symmetric_residue(product, p), p
        assert _s_k(p, t + 1, pack) == 0, p
