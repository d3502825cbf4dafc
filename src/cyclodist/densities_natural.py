"""Exact means and value densities of cyclotomic coefficients over n.

The scaled mean e_k = zeta(2) * M_n(a_n(k)) is an explicit rational.  It
is computed by two fully independent routes:

* the divisor-profile route: the first moment of the per-value density
  table, i.e. a weighted sum of (a_d(k) + a_(d*q)(k))/d over the divisors
  d of M_k = k * prod_(p<=k) p;
* the partition route: a sum over the partitions lambda of k involving
  only lcm/gcd of the parts and Möbius values.  These depend only on the
  set D of distinct parts, and the sum over the multiplicities of D is a
  pair of coin-change counts, so one walk over the sets D with sum(D) <= K
  gives every e_k for k <= K.  A set whose lcm has a non-squarefree
  quotient by one of its parts contributes nothing, and neither does any
  superset (adding parts only raises the exponents of the lcm), so the
  walk prunes it with its whole subtree.  This reaches far beyond the
  divisor route (7.8*10^4 sets for every k <= 80 against 2^pi(k)
  divisors for one k).

Per-value densities delta(a_n(k) = v) are one split-profile fold over the
same divisor profiles (:func:`coeff_split`), stored in Table convention:
coefficient zeta(2)*delta on the basis 6/pi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from .arith import FactoredLike, as_factored, factorize, small_primes
from .cyclotomic import coeff_profile
from .density import Basis, DensityTable, split_density
from .errors import InternalConsistencyError, ResourceBudgetError

PARTITION_MAX_K = 80  # the walk to k = 80 visits about 7.8*10^4 distinct-part sets


@dataclass(frozen=True)
class EkValue:
    """e_k = zeta(2) * mean of a_n(k), with the integer witness
    e_k * k * prod_(p<=k) (p+1) (observed integral well beyond k = 61; the
    doubled form 2k * prod always is)."""

    k: int
    e_k: Fraction
    integrality_witness: int


def _prod_p_plus_1(k: int) -> int:
    out = 1
    for p in small_primes(k):
        out *= p + 1
    return out


def _make_ek(k: int, e_k: Fraction) -> EkValue:
    witness = e_k * k * _prod_p_plus_1(k)
    if witness.denominator != 1:
        raise InternalConsistencyError(
            f"e_{k} * k * prod(p+1) unexpectedly non-integral: {witness}"
        )
    return EkValue(k, e_k, int(witness))


def mean_coeff(k: int) -> EkValue:
    """e_k as the first moment of the divisor-profile density table."""
    if k < 1:
        raise ValueError("mean_coeff requires k >= 1")
    return _make_ek(k, coeff_density(k).moment(1))


# -- partition route ----------------------------------------------------------


@lru_cache(maxsize=None)
def _exponents_small(n: int) -> Tuple[Tuple[int, int], ...]:
    return factorize(n).factors


def _support_data(parts: Tuple[int, ...]):
    """Per distinct-part-set data (computed once per set, since a walk
    visits each set once): None when L/j is not squarefree for some
    part j, L the lcm of the parts (no contribution), else
    (mu values of lcm/part aligned with parts, denominator G * prod_(p | L/G) (p+1))."""
    part_exps = [dict(_exponents_small(j)) for j in parts]
    exps: Dict[int, int] = {}
    for pe in part_exps:
        for p, e in pe.items():
            if exps.get(p, 0) < e:
                exps[p] = e
    g = parts[0]
    for j in parts[1:]:
        g = math.gcd(g, j)
    mus = []
    for pe in part_exps:
        cnt = 0
        for p, e in exps.items():
            rem = e - pe.get(p, 0)
            if rem >= 2:
                return None
            cnt += rem
        mus.append(-1 if cnt % 2 else 1)
    denom = g
    g_exps = dict(_exponents_small(g))
    for p, e in exps.items():
        if e > g_exps.get(p, 0):
            denom *= p + 1
    return tuple(mus), denom


def _coin_counts(coins: List[int], rmax: int) -> List[int]:
    """[P(coins, r) for r = 0..rmax]: the ways to write r as a sum of the
    coins, each used any number of times."""
    ways = [1] + [0] * rmax
    for c in coins:
        for r in range(c, rmax + 1):
            ways[r] += ways[r - c]
    return ways


def partition_means(kmax: int) -> List[EkValue]:
    """[e_1, ..., e_kmax] by one depth-first walk over the sets D of distinct
    parts with sum(D) <= kmax (see :func:`mean_coeff_partition`).

    Children add a part smaller than the last one.  A set whose
    :func:`_support_data` is None is skipped with its whole subtree: adding
    parts only raises the exponents of L = lcm(D), while the part whose
    quotient L/j is not squarefree stays in the set.  A surviving D with
    s = sum(D) splits into D+ and D- by mu_j; summed over every multiplicity
    vector of D with total k = s + r, eps is

        (-1)^|D+| * P(D-, r) + (-1)^|D-| * P(D+, r),

    since the first product is nonzero only when every D+ part occurs once
    (the D- parts are then free), and the second with the roles swapped."""
    if kmax > PARTITION_MAX_K:
        raise ResourceBudgetError(
            f"partition route capped at k <= {PARTITION_MAX_K}, asked for {kmax}"
        )
    # integer eps sums per k, bucketed per denominator; one Fraction pass per k
    buckets: List[Dict[int, int]] = [{} for _ in range(kmax + 1)]

    def visit(parts: Tuple[int, ...], s: int) -> None:
        data = _support_data(parts)
        if data is None:
            return
        mus, denom = data
        plus = [j for j, mu in zip(parts, mus) if mu == 1]
        minus = [j for j, mu in zip(parts, mus) if mu == -1]
        room = kmax - s
        sign_plus = -1 if len(plus) % 2 else 1
        sign_minus = -1 if len(minus) % 2 else 1
        ways_minus = _coin_counts(minus, room)
        ways_plus = _coin_counts(plus, room)
        for r in range(room + 1):
            eps = sign_plus * ways_minus[r] + sign_minus * ways_plus[r]
            if eps:
                bucket = buckets[s + r]
                bucket[denom] = bucket.get(denom, 0) + eps
        for j in range(min(parts[-1] - 1, room), 0, -1):
            visit(parts + (j,), s + j)

    for top in range(1, kmax + 1):
        visit((top,), top)
    out = []
    for k in range(1, kmax + 1):
        e_k = sum((Fraction(num, 2 * den) for den, num in buckets[k].items()), Fraction(0))
        out.append(_make_ek(k, e_k))
    return out


def mean_coeff_partition(k: int) -> EkValue:
    """e_k as (1/2) * sum over partitions of k of eps(lambda) / denom(lambda).

    For a partition with distinct parts k_j (multiplicity n_j), L = lcm and
    G = gcd of the parts, and mu_j = mu(L/k_j):

        eps = prod_j (-1)^(n_j) C(mu_j, n_j) + prod_j (-1)^(n_j) C(-mu_j, n_j)
        denom = G * prod_(p | L/G) (p + 1)

    where (-1)^n C(1, n) is 1, -1, 0 for n = 0, 1, >= 2 and
    (-1)^n C(-1, n) = 1 — so each of the two products is (+-1 or 0) read off
    from which parts have multiplicity 1.  denom and the mu_j depend only on
    the set D of distinct parts, so the sum is taken per D, with the
    multiplicities summed in closed form (:func:`partition_means`): no
    partition is enumerated."""
    if k < 1:
        raise ValueError("mean_coeff_partition requires k >= 1")
    return partition_means(k)[-1]


# -- per-value densities --------------------------------------------------------


def coeff_split(k: int) -> Tuple[Tuple[Tuple[int, int], ...], Callable]:
    """(caps, pair) of a_n(k) for :func:`cyclodist.density.split_density`.

    S is the primes p <= k, capped at the exponents of M_k.  For
    n = n_S * b with b squarefree and coprime to M_k, a_n(k) is a_(n_S)(k)
    when mu(b) = +1 and a_(n_S*q)(k) when mu(b) = -1 (the pair of the
    coefficient profile), and every other n has a_n(k) = 0.  For k = 1, S
    is empty and a_n(1) = -mu(n) (n > 1)."""
    if k == 1:
        return (), lambda n_s: (-1, 1)
    profile = coeff_profile(k)
    return profile.m_k.factors, profile.entries.__getitem__


def coeff_density(k: int) -> DensityTable:
    """Exact density of each nonzero value of a_n(k) over n, stored as
    zeta(2)*delta on the basis 6/pi^2 (so entries can be compared to the
    reference tables string-for-string)."""
    if k < 1:
        raise ValueError("coeff_density requires k >= 1")
    caps, pair = coeff_split(k)
    return split_density(f"a_n({k})", Basis.SIX_OVER_PI2, caps, pair)


def squarefree_coprime_density(r: FactoredLike) -> Tuple[Fraction, Basis]:
    """Density of squarefree integers coprime to r: (6/pi^2) / prod_(p|r) (1 + 1/p)."""
    fr = as_factored(r)
    coeff = Fraction(1)
    for p, _ in fr.factors:
        coeff /= 1 + Fraction(1, p)
    return coeff, Basis.SIX_OVER_PI2


@dataclass(frozen=True)
class MollerScanEntry:
    k: int
    e_k: Fraction
    sign_ok: bool  # (-1)^k (e_k - e_(k+1)) > 0
    range_ok: bool  # 0 <= e_k <= 1/2


def moller_conjecture_scan(kmax: int) -> List[MollerScanEntry]:
    """Probe the two conjectured monotonicity/range properties of e_k for
    k = 1..kmax (e_(kmax+1) is computed internally for the last sign flag)."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    evals = [ek.e_k for ek in partition_means(kmax + 1)]
    out = []
    for k in range(1, kmax + 1):
        e_k, e_next = evals[k - 1], evals[k]
        sign = (e_k - e_next) if k % 2 == 0 else (e_next - e_k)
        out.append(
            MollerScanEntry(
                k=k,
                e_k=e_k,
                sign_ok=sign > 0,
                range_ok=Fraction(0) <= e_k <= Fraction(1, 2),
            )
        )
    return out
