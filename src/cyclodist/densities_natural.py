"""Exact means and value densities of cyclotomic coefficients over n.

The scaled mean e_k = zeta(2) * M_n(a_n(k)) is an explicit rational.  It
is computed by two fully independent routes:

* the divisor-profile route: the first moment of the per-value density
  table, i.e. a weighted sum of (a_d(k) + a_(d*q)(k))/d over the divisors
  d of M_k = k * prod_(p<=k) p;
* the partition route: a sum over the partitions lambda of k involving
  only lcm/gcd of the parts and Möbius values.  These depend only on the
  set D of distinct parts, and the sum over the multiplicities of D is a
  pair of coin-change counts, memoised per coin tuple, so one walk over
  the sets D with sum(D) <= K gives every e_k for k <= K (the longest walk
  is kept for the process and serves every smaller K).  Each set takes
  lcm, gcd, denominator and Möbius split from its parent.  A set with
  L/G (lcm over gcd) not squarefree contributes nothing, and neither does
  any superset, so the walk prunes its whole subtree.  This reaches far
  beyond the divisor route (63,488 sets for every k <= 80 against 2^pi(k)
  divisors for one k).

Per-value densities delta(a_n(k) = v) are one split-profile fold over the
same divisor profiles, k = 1 included (:func:`coeff_density`), stored in
Table convention: coefficient zeta(2)*delta on the basis 6/pi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .arith import FactoredLike, as_factored, factorize, small_primes
from .cyclotomic import coeff_profile
from .density import Basis, DensityTable, _local_weight, split_density
from .errors import InternalConsistencyError, ResourceBudgetError

PARTITION_MAX_K = 80  # the walk to k = 80 keeps 63,488 distinct-part sets


@dataclass(frozen=True)
class EkValue:
    """e_k = zeta(2) * mean of a_n(k), with the integer witness
    e_k * k * prod_(p<=k) (p+1) (observed integral well beyond k = 61; the
    doubled form 2k * prod always is)."""

    k: int
    e_k: Fraction
    integrality_witness: int


def _make_ek(k: int, e_k: Fraction) -> EkValue:
    witness = e_k * k * math.prod(p + 1 for p in small_primes(k))
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


def _part_sets(kmax: int) -> Iterator[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]]:
    """Yield (sum(D), G * prod_(p | L/G) (p + 1), D+, D-) for every set D
    of distinct parts with sum(D) <= kmax and L/j squarefree for every part
    j, with L = lcm D, G = gcd D and D+/D- the parts with mu(L/j) = +1/-1.

    Since nu_p(G) is the least nu_p over the parts, every L/j is squarefree
    exactly when L/G is, and adding a part only raises nu_p(L) - nu_p(G): a
    set whose L/G does not divide the primorial is pruned with its subtree.
    A child adds a part j' below the last one and carries its state over:
    L'/L and G/G' (at most kmax) divide the squarefree L'/G', so
    mu(L'/G') = mu(L/G) mu(L'/L) mu(G/G'), every old sign is multiplied by
    mu(L'/L) (kept when j' | L, swapping D+ and D- at mu = -1), and the new
    part gets mu(L'/j') = mu(L'/G') mu(j'/G')."""
    mu_of, psi_of = [0] * (kmax + 1), [0] * (kmax + 1)
    for n in range(1, kmax + 1):
        f = factorize(n)
        mu_of[n], psi_of[n] = f.mobius(), math.prod(p + 1 for p, _ in f.factors)
    primorial = math.prod(small_primes(kmax))
    # (last part, sum, L, G, mu(L/G), prod_(p | L/G) (p + 1), D+, D-)
    stack = [(top, top, top, top, 1, 1, (top,), ()) for top in range(1, kmax + 1)]
    while stack:
        last, s, lcm, gcd, sign, psi, plus, minus = stack.pop()
        yield s, gcd * psi, plus, minus
        for j in range(min(last - 1, kmax - s), 0, -1):
            new_gcd = math.gcd(gcd, j)
            raised = j // math.gcd(lcm, j)
            new_lcm = lcm * raised
            if primorial % (new_lcm // new_gcd):
                continue
            dropped = gcd // new_gcd
            new_sign = sign * mu_of[raised] * mu_of[dropped]
            new_plus, new_minus = (minus, plus) if mu_of[raised] < 0 else (plus, minus)
            if new_sign * mu_of[j // new_gcd] > 0:
                new_plus += (j,)
            else:
                new_minus += (j,)
            stack.append((j, s + j, new_lcm, new_gcd, new_sign,
                          psi * psi_of[raised] * psi_of[dropped], new_plus, new_minus))


# e_1 .. e_K of the longest walk so far (see partition_means)
_kept_means: List[EkValue] = []


def partition_means(kmax: int) -> List[EkValue]:
    """[e_1, ..., e_kmax] (empty for kmax <= 0), as a fresh list.  The
    longest walk so far is kept for the process and serves every smaller
    kmax, since e_k does not depend on the walk's bound (to k = 80 it holds
    80 values); a larger kmax walks again (:func:`_partition_walk`)."""
    global _kept_means
    if kmax > PARTITION_MAX_K:
        raise ResourceBudgetError(
            f"partition route capped at k <= {PARTITION_MAX_K}, asked for {kmax}"
        )
    if kmax > len(_kept_means):
        _kept_means = _partition_walk(kmax)
    return _kept_means[: max(kmax, 0)]


def _partition_walk(kmax: int) -> List[EkValue]:
    """[e_1, ..., e_kmax] by one walk over the sets D of :func:`_part_sets`
    (see :func:`mean_coeff_partition`).  A set with s = sum(D) contributes,
    summed over every multiplicity vector of D with total k = s + r,

        eps = (-1)^|D+| * P(D-, r) + (-1)^|D-| * P(D+, r),

    since the first product is nonzero only when every D+ part occurs once
    (the D- parts are then free), and the second with the roles swapped.
    The coin counts P(C, r) are memoised per coin tuple C (3,530 tuples to
    k = 80), each made from its prefix's row by one coin pass, and each set
    adds its eps into one integer row per denominator."""
    coins: Dict[Tuple[int, ...], List[int]] = {(): [1] + [0] * kmax}

    def counts(c: Tuple[int, ...]) -> List[int]:
        """[P(c, r) for r <= kmax - sum(c)]: the ways to write r as a sum
        of the coins c, each used any number of times."""
        row = coins.get(c)
        if row is None:  # the set holding c's prefix was yielded, and counted, first
            row = coins[c[:-1]][: kmax + 1 - sum(c)]
            j = c[-1]
            for r in range(j, len(row)):
                row[r] += row[r - j]
            coins[c] = row
        return row

    rows: Dict[int, List[int]] = {}  # denominator -> eps sums at k = 0..kmax
    for s, denom, plus, minus in _part_sets(kmax):
        row = rows.get(denom)
        if row is None:
            row = rows[denom] = [0] * (kmax + 1)
        sign_plus = -1 if len(plus) % 2 else 1
        sign_minus = -1 if len(minus) % 2 else 1
        for k, ways_minus, ways_plus in zip(range(s, kmax + 1), counts(minus), counts(plus)):
            row[k] += sign_plus * ways_minus + sign_minus * ways_plus
    out = []
    for k in range(1, kmax + 1):
        terms = [(row[k], den) for den, row in rows.items() if row[k]]
        common = math.lcm(*(den for _, den in terms))
        e_k = Fraction(sum(num * (common // den) for num, den in terms), 2 * common)
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


def coeff_density(k: int) -> DensityTable:
    """Exact density of each nonzero value of a_n(k) over n, stored as
    zeta(2)*delta on the basis 6/pi^2 (so entries can be compared to the
    reference tables string-for-string): the fold over the primes p <= k,
    capped at M_k, of the coefficient profile's read-only int8 pairs.  For
    n = n_S * b with b squarefree and coprime to M_k, a_n(k) is a_(n_S)(k)
    if mu(b) = +1, a_(n_S*q)(k) if mu(b) = -1, and every other n has
    a_n(k) = 0 (at k = 1, S is empty and a_n(1) = -mu(n) for n > 1)."""
    profile = coeff_profile(k)
    return split_density(f"a_n({k})", Basis.SIX_OVER_PI2, profile.m_k.factors, profile.entries)


def squarefree_coprime_density(r: FactoredLike) -> Tuple[Fraction, Basis]:
    """Density of squarefree integers coprime to r: (6/pi^2) / prod_(p|r) (1 + 1/p),
    the product of the fold's weights of the classes nu_p = 0."""
    weights = (_local_weight(Basis.SIX_OVER_PI2, p, 0) for p in as_factored(r).primes())
    return math.prod(weights, start=Fraction(1)), Basis.SIX_OVER_PI2


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
