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
from fractions import Fraction

import numpy as np
import pytest

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
        assert max(natural.values()) == m and min(natural.values()) == -m
        natural_moment_of_ramanujan(m, 2)  # checks the closed form against the table
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
    dtype = object if kind == "object" else np.dtype(kind)
    return np.array([[rng.choice(pool) for _ in range(2)] for _ in range(rows)], dtype=dtype)


def test_split_density_matches_brute_force():
    # every value, position and weight against a Fraction sum over
    # itertools.product (first prime of caps most significant)
    rng = random.Random(15)
    for trial in range(300):
        primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 4))
        caps = [(q, rng.randint(0, 3)) for q in primes]
        grid = list(itertools.product(*(range(cap + 1) for _, cap in caps)))
        pairs = _random_pairs(rng, len(grid))
        basis = rng.choice((Basis.SIX_OVER_PI2, Basis.ARTIN))
        allowed = {(q, e) for q, cap in caps for e in range(cap + 1) if rng.random() < 0.75}
        keep = rng.choice((None, lambda q, e: (q, e) in allowed))
        want = {}
        for exps, row in zip(grid, pairs.tolist()):
            if keep is not None and not all(keep(q, e) for (q, _), e in zip(caps, exps)):
                continue
            weight = HALF * math.prod(_oracle_weight(basis, q, e) for (q, _), e in zip(caps, exps))
            for v in row:
                want[v] = want.get(v, 0) + weight
        want = {v: c for v, c in want.items() if v and c}
        got = split_density("f", basis, caps, pairs, keep=keep)
        assert got.as_dict() == want, (trial, caps, pairs.dtype, basis)


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
