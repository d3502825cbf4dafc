"""Coefficients of cyclotomic polynomials by three independent routes.

Writing Phi_n(X) = sum_k a_n(k) X^k (degree phi(n), monic), a single
coefficient a_n(k) is computed by

* :func:`cyclo_coeff` — reduction to the squarefree kernel followed by the
  log-derivative recurrence b_j = -(1/j) sum b_m T_(j-m) with
  T_r = mu(n) mu((r,d)) phi((r,d)), d the part of n supported on primes <= k;
* :func:`cyclo_coeff_series` — truncated power-series expansion of
  prod_(d|n) (1 - X^d)^(mu(n/d));
* :func:`cyclo_coeff_partition` — the partition sum
  sum over (sum j*n_j = k) of prod_j (-1)^(n_j) * binom(mu(n/j), n_j).

The three paths share no code, which is what makes their agreement a real
test.  The module also computes the value set B(k) = {a_n(k) : n} with its
even/odd-n refinement, witnesses (n, k) realising any prescribed integer
coefficient, and triples of consecutive odd primes p1 < p2 < p3 with
p3 <= k < p1 + p2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

from .arith import (
    FactoredLike,
    FactoredNat,
    as_factored,
    factorize,
    least_prime_above,
    small_primes,
)
from .errors import InternalConsistencyError, ResourceBudgetError

#: Largest k for which the divisor profile of M_k is built (divisor counts
#: grow like 2^pi(k)); caps value sets, divisor-route densities and means,
#: and the coefficient scans.
PROFILE_MAX_K = 40
CYCLO_POLY_MAX_DEGREE = 100_000


@lru_cache(maxsize=None)
def _mu_phi_small(r: int) -> Tuple[int, int]:
    """(mu(r), phi(r)); only hit with r <= max k."""
    fr = factorize(r)
    return fr.mobius(), fr.phi()


def _squarefree_kernel(fn: FactoredNat) -> FactoredNat:
    fac = tuple((p, 1) for p, _ in fn.factors)
    return FactoredNat(fn.radical(), fac)


def _recurrence(fn: FactoredNat, kmax: int) -> List[int]:
    """[a_n(0), ..., a_n(kmax)] for squarefree n >= 2 by the log-derivative
    recurrence b_j = -(1/j) sum_(m<j) b_m T_(j-m).  Every division must be
    exact; a remainder raises InternalConsistencyError (it would mean a
    bug, not bad input)."""
    top = min(kmax, fn.phi())
    mu_n = -1 if len(fn.factors) % 2 else 1
    d = 1
    for p, _ in fn.factors:
        if p <= top:
            d *= p
    T = [0] * (top + 1)
    for r in range(1, top + 1):
        mu_g, phi_g = _mu_phi_small(math.gcd(r, d))
        T[r] = mu_n * mu_g * phi_g
    b = [1] + [0] * kmax
    for j in range(1, top + 1):
        q, rem = divmod(-sum(map(operator.mul, b[:j], T[j:0:-1])), j)
        if rem:
            raise InternalConsistencyError(
                f"inexact division at step {j} of the coefficient recurrence "
                f"(n={fn.value})"
            )
        b[j] = q
    return b


def cyclo_coeff(n: FactoredLike, k: int) -> int:
    """a_n(k) via kernel reduction and the log-derivative recurrence.

    Conventions: a_n(k) = 0 for k > phi(n); Phi_1 = X - 1 handled as an
    explicit table."""
    if k < 0:
        raise ValueError("coefficient index k must be >= 0")
    fn = as_factored(n)
    if fn.value == 1:
        return (-1, 1)[k] if k <= 1 else 0
    gamma = fn.radical()
    if gamma != fn.value:
        quot = fn.value // gamma
        if k % quot:
            return 0
        fn, k = _squarefree_kernel(fn), k // quot
    if k > fn.phi():
        return 0
    return _recurrence(fn, k)[k]


def cyclo_coeff_prefix(n: FactoredLike, kmax: int) -> List[int]:
    """[a_n(0), ..., a_n(kmax)] in one recurrence pass (the per-index
    work of cyclo_coeff amortized; same kernel reduction, same exactness
    checks)."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    fn = as_factored(n)
    if fn.value == 1:
        return [-1, 1][: kmax + 1] + [0] * max(0, kmax - 1)
    gamma = fn.radical()
    quot = fn.value // gamma
    kernel = _squarefree_kernel(fn) if quot > 1 else fn
    inner = _recurrence(kernel, min(kmax // quot, kernel.phi()))
    out = [0] * (kmax + 1)
    for j, c in enumerate(inner):
        if j * quot <= kmax:
            out[j * quot] = c
    return out


def cyclo_coeff_series(n: FactoredLike, k: int) -> int:
    """a_n(k) for squarefree n >= 2 by multiplying the truncated series of
    (1 - X^d)^(+-1) over divisors d <= k of n."""
    if k < 0:
        raise ValueError("coefficient index k must be >= 0")
    fn = as_factored(n)
    if fn.value < 2 or not fn.is_squarefree():
        raise ValueError("series path requires squarefree n >= 2 (reduce first)")
    mu_n = -1 if len(fn.factors) % 2 else 1
    poly = [0] * (k + 1)
    poly[0] = 1
    for d in fn.iter_divisors_factored():
        dv = d.value
        if dv > k:
            continue
        sign = mu_n * d.mobius()  # mu(n/d) for squarefree n
        if sign == 1:
            for t in range(k, dv - 1, -1):
                poly[t] -= poly[t - dv]
        else:
            for t in range(dv, k + 1):
                poly[t] += poly[t - dv]
    return poly[k]


def cyclo_coeff_partition(n: FactoredLike, k: int) -> int:
    """a_n(k) for n >= 2 as a sum over partitions of k.

    Only parts j | n with mu(n/j) != 0 can contribute; a part with
    mu(n/j) = +1 contributes factor -1 and may appear at most once, while a
    part with mu(n/j) = -1 contributes factor +1 at any multiplicity."""
    if k < 0:
        raise ValueError("coefficient index k must be >= 0")
    fn = as_factored(n)
    if fn.value < 2:
        raise ValueError("partition path requires n >= 2")
    if k == 0:
        return 1
    parts: List[Tuple[int, int]] = []
    for d in fn.iter_divisors_factored():
        if d.value > k:
            continue
        mu_cof = _mu_quotient(fn, d)
        if mu_cof:
            parts.append((d.value, mu_cof))
    parts.sort(reverse=True)

    memo: Dict[Tuple[int, int], int] = {}

    def rec(i: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        if i == len(parts):
            return 0
        key = (i, remaining)
        got = memo.get(key)
        if got is not None:
            return got
        j, mu_j = parts[i]
        total = rec(i + 1, remaining)
        if mu_j == 1:
            if remaining >= j:
                total -= rec(i + 1, remaining - j)
        else:
            t = remaining - j
            while t >= 0:
                total += rec(i + 1, t)
                t -= j
        memo[key] = total
        return total

    return rec(0, k)


def _mu_quotient(fn: FactoredNat, d: FactoredNat) -> int:
    """mu(n/d) for d | n, from the exponent difference."""
    exps = dict(d.factors)
    count = 0
    for p, e in fn.factors:
        rem = e - exps.get(p, 0)
        if rem >= 2:
            return 0
        count += rem
    return -1 if count % 2 else 1


def cyclo_poly(n: FactoredLike) -> List[int]:
    """All phi(n)+1 coefficients of Phi_n, low degree first, by exact
    polynomial multiplication and division over the divisor product."""
    fn = as_factored(n)
    if fn.value == 1:
        return [-1, 1]
    if fn.phi() > CYCLO_POLY_MAX_DEGREE:
        raise ResourceBudgetError(
            f"phi({fn.value}) = {fn.phi()} exceeds the {CYCLO_POLY_MAX_DEGREE} "
            "degree budget"
        )
    numer: List[int] = []
    denom: List[int] = []
    for d in fn.iter_divisors_factored():
        sign = _mu_quotient(fn, d)
        if sign == 1:
            numer.append(d.value)
        elif sign == -1:
            denom.append(d.value)
    poly = [1]
    for d in numer:
        poly = _mul_xd_minus_1(poly, d)
    for d in denom:
        poly = _div_xd_minus_1(poly, d)
    if len(poly) != fn.phi() + 1 or poly[-1] != 1:
        raise InternalConsistencyError(f"bad expansion degree for n={fn.value}")
    return poly


def _mul_xd_minus_1(poly: List[int], d: int) -> List[int]:
    out = [0] * (len(poly) + d)
    for i, c in enumerate(poly):
        out[i + d] += c
        out[i] -= c
    return out


def _div_xd_minus_1(poly: List[int], d: int) -> List[int]:
    # q * (X^d - 1) = poly  =>  q[i] = q[i-d] - poly[i]
    out_len = len(poly) - d
    q = [0] * out_len
    for i in range(out_len):
        prev = q[i - d] if i >= d else 0
        q[i] = prev - poly[i]
    for i in range(out_len, len(poly)):
        prev = q[i - d] if i - d < out_len else 0
        if poly[i] != prev:
            raise InternalConsistencyError("nonzero remainder in cyclotomic division")
    return q


# -- partitions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_count(k: int) -> int:
    """p(k) by Euler's pentagonal recurrence."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > k and g2 > k:
            break
        sign = -1 if j % 2 == 0 else 1
        if g1 <= k:
            total += sign * partition_count(k - g1)
        if g2 <= k:
            total += sign * partition_count(k - g2)
        j += 1
    return total


# -- value sets ----------------------------------------------------------------


@dataclass(frozen=True)
class ValueSetReport:
    """Attained coefficient values at index k: the full set, its even-n and
    odd-n refinements, and the maximum absolute value B(k)."""

    k: int
    full_set: FrozenSet[int]
    odd_set: FrozenSet[int]
    even_set: FrozenSet[int]
    bound: int


@dataclass(frozen=True)
class CoeffProfile:
    """For fixed k: the pair (a_d(k), a_(d*q)(k)) over every divisor d of
    M_k = k * prod_(p<=k) p, with q the least prime above k.  These pairs
    determine the mean and value distribution of a_n(k) over n."""

    k: int
    q: int
    m_k: FactoredNat
    entries: Dict[int, Tuple[int, int]]  # d -> (a_d(k), a_dq(k))


def support_modulus(k: int) -> FactoredNat:
    """M_k = k * prod_(p<=k) p with its factorization."""
    fk = as_factored(k)
    exps = dict(fk.factors)
    for p in small_primes(k):
        exps[p] = exps.get(p, 0) + 1
    fac = tuple(sorted(exps.items()))
    val = 1
    for p, e in fac:
        val *= p**e
    return FactoredNat(val, fac)


@lru_cache(maxsize=1)
def coeff_profile(k: int) -> CoeffProfile:
    """Divisor-indexed coefficient pairs behind the exact distribution of
    a_n(k), for 2 <= k <= PROFILE_MAX_K.  The last profile is kept, since
    the mean, the densities and the value set of one k all fold over it.

    Only the divisors d with nu_2(d) != 1 are evaluated: for odd d the
    entry at 2d follows from Phi_(2d)(X) = Phi_d(-X), which for k >= 2
    gives a_(2d)(k) = (-1)^k a_d(k) (and likewise for dq)."""
    if not 2 <= k <= PROFILE_MAX_K:
        if k == 1:
            raise ValueError("k = 1 is special-cased by callers")
        raise ResourceBudgetError(f"coefficient profile limited to k <= {PROFILE_MAX_K}")
    m_k = support_modulus(k)
    q = least_prime_above(k)
    entries: Dict[int, Tuple[int, int]] = {}
    for d in m_k.iter_divisors_factored():
        if d.nu(2) != 1:
            entries[d.value] = (cyclo_coeff(d, k), cyclo_coeff(d.times_prime(q), k))
    sign = -1 if k % 2 else 1
    for d, (a, aq) in list(entries.items()):
        if d % 2:
            entries[2 * d] = (sign * a, sign * aq)
    return CoeffProfile(k, q, m_k, entries)


def value_set(k: int) -> ValueSetReport:
    """The set of values a_n(k) takes over all n, split by parity of n.

    For k >= 2 every value is already attained on {d, dq : d | M_k}; the
    index-1 coefficient is -mu(n) for n > 1, handled as an explicit case."""
    if k < 1:
        raise ValueError("value_set requires k >= 1")
    if k == 1:
        s = frozenset({-1, 0, 1})
        return ValueSetReport(1, s, s, s, 1)
    profile = coeff_profile(k)
    full = {0}
    odd = {0}
    even = {0}
    for d, (a, aq) in profile.entries.items():
        full.update((a, aq))
        (even if d % 2 == 0 else odd).update((a, aq))
    bound = max(abs(v) for v in full)
    return ValueSetReport(k, frozenset(full), frozenset(odd), frozenset(even), bound)


# -- constructive witnesses -----------------------------------------------------


def _consecutive_odd_primes(s: int) -> List[int]:
    """First window of s consecutive odd primes p_1 < ... < p_s with
    p_1 + p_2 > p_s (exists for every s by the prime number theorem)."""
    limit = 1000
    while True:
        primes = small_primes(limit)[1:]  # drop 2
        for i in range(len(primes) - s + 1):
            window = primes[i : i + s]
            if window[0] + window[1] > window[-1]:
                return window
        limit *= 2


def construct_coeff_value(v: int) -> Tuple[int, int]:
    """A witness (n, k) with a_n(k) = v, for any integer v.

    v <= -2 uses n = p_1 ... p_s (times an extra prime q > p_s when s is
    even) with s = 1 - v consecutive odd primes satisfying p_1 + p_2 > p_s
    and k = p_s, which realises a_n(k) = 1 - s; v >= 2 doubles the odd
    witness for -v, flipping the sign at odd k.  The returned pair is
    verified against cyclo_coeff before being handed back."""
    if v == 0:
        witness = (4, 1)
    elif v == 1:
        witness = (3, 1)
    elif v == -1:
        witness = (6, 1)
    else:
        s = 1 - v if v < 0 else v + 1
        window = _consecutive_odd_primes(s)
        k = window[-1]
        n = 1
        for p in window:
            n *= p
        if s % 2 == 0:
            n *= least_prime_above(k)
        if v > 0:
            n *= 2
        witness = (n, k)
    n, k = witness
    if cyclo_coeff(n, k) != v:
        raise InternalConsistencyError(f"witness ({n}, {k}) does not realise {v}")
    return witness


def bertrand_triple(k: int) -> Tuple[int, int, int]:
    """Consecutive odd primes p1 < p2 < p3 with p3 <= k < p1 + p2; defined
    for k >= 13."""
    if k < 13:
        raise ValueError("bertrand_triple requires k >= 13")
    primes = small_primes(k)
    idx = len(primes) - 1
    while idx >= 3:
        p1, p2, p3 = primes[idx - 2], primes[idx - 1], primes[idx]
        if p1 + p2 > k:
            return (p1, p2, p3)
        idx -= 1
    raise InternalConsistencyError(f"no consecutive-prime triple found for k={k}")
