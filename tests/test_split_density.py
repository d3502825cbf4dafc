"""The split-profile fold against the per-table routes it replaced.

Each oracle below is a test-local copy of a route that computed one
density table on its own: the exponent-product enumeration for c_n(m)
over n and over p - 1 (values from Hölder's closed form through mu and
phi), the scale/d weights for a_n(k), and the even-d prefactor weights
for a_(p-1)(k).  They share no code with `density.split_density`.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cyclodist import density
from cyclodist.arith import euler_phi, factorize, mobius, small_primes
from cyclodist.cyclotomic import coeff_profile
from cyclodist.densities_natural import coeff_density
from cyclodist.densities_prime import (
    ValuationConstraint,
    coeff_prime_density,
    ramanujan_prime_density,
    s_small_density,
)
from cyclodist.density import Basis, split_density
from cyclodist.ramanujan import natural_density_of_ramanujan, natural_moment_of_ramanujan
from cyclodist.tables import build_table

HALF = Fraction(1, 2)


def _merge(pairs):
    acc = {}
    for v, c in pairs:
        if v:
            acc[v] = acc.get(v, 0) + c
    return {v: c for v, c in acc.items() if c}


def _hoelder(n, m):
    """c_n(m) = mu(n/g) phi(n) / phi(n/g), g = gcd(n, m)."""
    g = math.gcd(n, m)
    return mobius(n // g) * euler_phi(n) // euler_phi(n // g)


def _delta(q, e):
    """Density of primes p with nu_q(p-1) = e."""
    return 1 - Fraction(1, q - 1) if e == 0 else Fraction(1, q**e)


def _ramanujan_profiles(m, over_primes):
    """(value, weight) per exponent vector at the primes of m, both signs."""
    qs = factorize(m).factors
    for combo in itertools.product(*(range(nu + 2) for _, nu in qs)):
        n_s, weight = 1, HALF
        for (q, _), e in zip(qs, combo):
            n_s *= q**e
            if over_primes:
                weight *= _delta(q, e) / (1 - Fraction(1, q * (q - 1)))
            else:
                weight *= Fraction(1, q**e) / (1 + Fraction(1, q))
        c = _hoelder(n_s, m)
        yield c, weight
        yield -c, weight


def _coeff_natural(k):
    profile = coeff_profile(k)
    scale = HALF
    for p in small_primes(k):
        scale /= 1 + Fraction(1, p)
    pairs = []
    for fd, (a, aq) in zip(profile.m_k.iter_divisors_factored(), profile.entries.tolist()):
        pairs += [(a, scale / fd.value), (aq, scale / fd.value)]
    return _merge(pairs)


def _coeff_prime(k):
    profile = coeff_profile(k)
    prefactor = Fraction(1)
    for q in small_primes(k)[1:]:
        prefactor *= Fraction(q * (q - 2), q * q - q - 1)
    pairs, mean = [], Fraction(0)
    for fd, (a, aq) in zip(profile.m_k.iter_divisors_factored(), profile.entries.tolist()):
        if fd.value % 2:
            continue
        w = prefactor / fd.value
        for q, _ in fd.factors:
            if q > 2:
                w *= Fraction(q - 1, q - 2)
        pairs += [(a, w), (aq, w)]
        mean += (a + aq) * w
    return _merge(pairs), mean


def test_coefficient_tables_match_old_routes():
    assert coeff_density(1).as_dict() == {-1: HALF, 1: HALF}
    assert coeff_prime_density(1)[0].as_dict() == {-1: HALF, 1: HALF}
    for k in range(2, 25):
        assert coeff_density(k).as_dict() == _coeff_natural(k), k
        table, mean = coeff_prime_density(k)
        want, want_mean = _coeff_prime(k)
        assert table.as_dict() == want, k
        assert mean == want_mean, k


def test_ramanujan_tables_match_old_routes():
    rng = random.Random(2003)
    ms = [1, 2, 12, 360] + [rng.randint(1, 2000) for _ in range(40)]
    for m in ms:
        natural = _merge(_ramanujan_profiles(m, over_primes=False))
        assert natural_density_of_ramanujan(m).as_dict() == natural, m
        pairs = list(_ramanujan_profiles(m, over_primes=True))
        assert ramanujan_prime_density(m, signed=True).as_dict() == _merge(pairs), m
        unsigned = _merge((abs(v), c) for v, c in pairs)
        assert ramanujan_prime_density(m).as_dict() == unsigned, m


def test_ramanujan_tables_exact_past_int64():
    # c_n(m) reaches m itself, far past int64 here
    for m in (2**80, 10**25):
        natural = natural_density_of_ramanujan(m)
        assert natural.as_dict() == _merge(_ramanujan_profiles(m, over_primes=False)), m
        assert max(natural.values) == m and min(natural.values) == -m
        assert natural_moment_of_ramanujan(m, 2)[0] == natural.moment(2), m
        pairs = list(_ramanujan_profiles(m, over_primes=True))
        assert ramanujan_prime_density(m, signed=True).as_dict() == _merge(pairs), m
        assert ramanujan_prime_density(m).as_dict() == _merge((abs(v), c) for v, c in pairs), m


def _oracle_weight(basis, q, e):
    """Density, relative to the basis, of nu_q = e with a cofactor
    squarefree at q."""
    if basis is Basis.SIX_OVER_PI2:
        return Fraction(1, q**e) / (1 + Fraction(1, q))
    return _delta(q, e) / (1 - Fraction(1, q * (q - 1)))


def _random_pairs(rng, rows):
    """A (rows, 2) table as int8 at its edges, wide int64 or Python ints."""
    kind = rng.choice(("int8", "int64", "object"))
    if kind == "int8":
        pool = [-128, -127, -1, 0, 0, 1, 2, 127]
    elif kind == "int64":
        pool = [0, 0, -1, 5, 2**40, -(2**40) + 3, 2**62, -(2**63)]
    else:
        pool = [0, -1, 3, 2**80, -(2**80), 10**25 + 1, -(2**63) - 1]
    pool = rng.sample(pool, rng.randint(1, len(pool)))  # few values, or many
    dtype = object if kind == "object" else np.dtype(kind)
    return np.array([[rng.choice(pool) for _ in range(2)] for _ in range(rows)], dtype=dtype)


def _numerator_sum(basis, q, cap, keep=None):
    """sum_e num_q(e): the local weights e <= cap (0 where keep refuses)
    as numerators over their least common denominator."""
    local = [_oracle_weight(basis, q, e) if keep is None or keep(q, e) else Fraction(0)
             for e in range(cap + 1)]
    den = math.lcm(*(w.denominator for w in local))
    return sum(w * den for w in local)


def _head_length(basis, caps, keep, bound):
    """The primes of the head: the longest leading run whose largest
    per-value sum over both signs, 2 prod sum_e num_q(e), is at most bound."""
    head, total = 0, 2
    for q, cap in caps:
        total *= _numerator_sum(basis, q, cap, keep)
        if total > bound:
            break
        head += 1
    return head


def test_split_density_matches_brute_force(monkeypatch):
    # every value, position, weight and the entry order against a Fraction
    # sum over itertools.product (first prime of caps most significant).
    # int8 pairs take the int64 head/tail fold, with the head's int64 bound
    # lowered so that every split of caps into int64 head and Python-int
    # tail is taken; int64 and object pairs always take the per-row fold
    rng = random.Random(15)
    seen = set()
    for trial in range(600):
        primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 4))
        caps = [(q, rng.randint(0, 3)) for q in primes]
        grid = list(itertools.product(*(range(cap + 1) for _, cap in caps)))
        pairs = _random_pairs(rng, len(grid))
        basis = rng.choice((Basis.SIX_OVER_PI2, Basis.ARTIN))
        allowed = {(q, e) for q, cap in caps for e in range(cap + 1) if rng.random() < 0.75}
        keep = rng.choice((None, lambda q, e: (q, e) in allowed))
        bounds = [2 * math.prod(_numerator_sum(basis, q, cap, keep) for q, cap in caps[:j])
                  for j in range(len(caps) + 1)]
        bound = rng.choice(bounds + [2**63 - 1, 1])
        monkeypatch.setattr(density, "_INT64_MAX", bound)
        head = None
        if pairs.dtype != np.int8:
            seen.add(("per row", pairs.dtype))
        else:
            head = _head_length(basis, caps, keep, bound)
            seen.add(("all head" if head == len(caps) else "all tail" if not head else "mixed",
                      pairs.dtype))
            tail = caps[head:]
            if tail and any(cap >= 2 for _, cap in tail):
                seen.add("tail cap >= 2")
            if tail and keep is not None and any(not keep(q, e) for q, cap in tail
                                                 for e in range(cap + 1)):
                seen.add("keep zeroes a tail weight")
        want = {}
        for exps, row in zip(grid, pairs.tolist()):
            if keep is not None and not all(keep(q, e) for (q, _), e in zip(caps, exps)):
                continue
            weight = HALF * math.prod(_oracle_weight(basis, q, e) for (q, _), e in zip(caps, exps))
            for v in row:
                want[v] = want.get(v, 0) + weight
        want = tuple(sorted((v, c) for v, c in want.items() if v and c))
        got = split_density("f", basis, caps, pairs, keep=keep)
        assert got.entries == want, (trial, caps, head, pairs.dtype, basis)
    int8 = np.dtype(np.int8)
    assert seen >= {("all head", int8), ("mixed", int8), ("all tail", int8),
                    ("per row", np.dtype(np.int64)), ("per row", np.dtype(object))}
    assert {"tail cap >= 2", "keep zeroes a tail weight"} <= seen


def test_split_density_refuses_pairs_that_are_not_integers():
    # the dtype picks the fold: float pairs once folded silently into float
    # values, and bool pairs are no statistic's values either
    caps = [(2, 1)]
    for dtype in (np.float64, np.float32, np.complex128, bool, np.str_):
        pairs = np.ones((2, 2), dtype=dtype)
        with pytest.raises(TypeError, match="integer or object pairs"):
            split_density("f", Basis.SIX_OVER_PI2, caps, pairs)
    for dtype in (np.int8, np.int16, np.int64, np.uint8, np.uint64, object):
        pairs = np.ones((2, 2), dtype=dtype)
        assert split_density("f", Basis.SIX_OVER_PI2, caps, pairs).entries == ((1, Fraction(1)),)


def test_split_density_head_bound_counts_both_signs():
    # prod sum_e num_q(e) over these caps fits in int64 but twice it does
    # not: with every value 1 on both signs, a head of all three primes
    # would wrap in its int64 sums
    caps = [(23, 3), (41, 3), (59, 3)]
    head_sum = math.prod(_numerator_sum(Basis.ARTIN, q, cap) for q, cap in caps)
    assert head_sum <= 2**63 - 1 < 2 * head_sum
    pairs = np.ones((64, 2), dtype=np.int8)
    want = math.prod(sum(_oracle_weight(Basis.ARTIN, q, e) for e in range(cap + 1))
                     for q, cap in caps)
    assert split_density("f", Basis.ARTIN, caps, pairs).entries == ((1, want),)


def test_split_density_with_many_values_folds_per_row():
    # at nu_2(m) >= 61 the prime 2 alone breaks the head's int64 bound, and
    # c_n(m) takes nearly one value per row: a table of every (row, value)
    # would hold 1701 x 1276 entries here, the per-row fold a few per row
    m = 2**61 * 3 * 5 * 7
    tracemalloc.start()
    try:
        table = natural_density_of_ramanujan(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.as_dict() == _merge(_ramanujan_profiles(m, over_primes=False))
    assert len(table.entries) == 1276
    assert peak < 4 * 2**20, peak


def _python_int_fold(basis, caps, pairs):
    """The split-profile fold with one Python-int weight numerator per row."""
    denom, weights = 2, np.ones(1, dtype=object)
    for q, cap in caps:
        local = [_oracle_weight(basis, q, e) for e in range(cap + 1)]
        den = math.lcm(*(w.denominator for w in local))
        nums = np.array([int(w * den) for w in local], dtype=object)
        weights = np.multiply.outer(weights, nums).ravel()
        denom *= den
    sums = {}
    for row, weight in zip(pairs.tolist(), weights.tolist()):
        for v in row:
            sums[v] = sums.get(v, 0) + weight
    return tuple(sorted((v, Fraction(num, denom)) for v, num in sums.items() if v and num))


@pytest.mark.slow
@pytest.mark.parametrize("k", [43, 50, 60, 61])
def test_coefficient_folds_with_a_tail_match_python_ints(k):
    # the fold over p - 1 has a tail from k = 29 on, the fold over n from
    # k = 44 on (at k = 43 its head holds every prime)
    profile = coeff_profile(k)
    caps, pairs = profile.m_k.factors, profile.entries
    assert coeff_density(k).entries == _python_int_fold(Basis.SIX_OVER_PI2, caps, pairs)
    assert coeff_prime_density(k)[0].entries == _python_int_fold(Basis.ARTIN, caps, pairs)


def _constraint(*entries):
    return ValuationConstraint(tuple(entries), squarefree_outside=False)


@pytest.mark.parametrize("tid", ["8", "9"])
def test_table_strata_sum_to_total(tid, pack):
    rows = build_table(tid, pack=pack).data["rows"]
    strata, total = rows[:-1], rows[-1]
    assert total["label"] == "total"
    for v, want in total["entries"].items():
        got = [sum(Fraction(row["entries"][v][i]) for row in strata) for i in (0, 1)]
        assert got == [Fraction(w) for w in want], (tid, v)
    assert sum(Fraction(row["mass"][0]) for row in strata) == Fraction(total["mass"][0])


def test_constraint_prime_above_k_is_refused():
    with pytest.raises(ValueError):
        coeff_prime_density(3, _constraint((5, 0)))
    with pytest.raises(ValueError):
        s_small_density(1, _constraint((2, 1)))
