"""Deterministic empirical scans over primes and integers.

Every counting routine here is exact, reproducible bit-for-bit, and
ignorant of the theory it is used to validate: values of c_n(m) and
a_n(k) come from one memoised reduction of n to its part at a finite
prime set plus the Möbius value of the cofactor (see :class:`_SplitEvaluator`),
and the k-th symmetric functions of primitive roots from an explicit
expansion over the roots themselves (the one genuinely independent oracle
for the congruence suite).

Counts are reported as :class:`EmpiricalReport`: per-value counts, the
number of primes scanned, and exact rational frequencies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .arith import (
    FactoredNat,
    SievePack,
    as_factored,
    default_pack,
    is_prime_int,
    least_prime_above,
    sieve_limit_for,
    small_primes,
)
from .cyclotomic import PROFILE_MAX_K, cyclo_coeff
from .densities_prime import ValuationConstraint
from .errors import ResourceBudgetError
from .ramanujan import ramanujan_sum

PRIMITIVE_ROOT_LIMIT = 1_000_000
SYMMETRIC_ORACLE_LIMIT = 100_000

STATISTICS = (
    "mu_pminus1",
    "c_pminus1",
    "a_pminus1",
    "s_k_mod_p",
    "S_k_mod_p",
    "kfree_shift",
    "conjecture1",
)


def symmetric_residue(v: int, p: int) -> int:
    """Residue of v mod p mapped into (-p/2, p/2]: r stays put when
    r <= (p-1)/2, otherwise r - p.  Unambiguous for |true value| < p/2;
    primes p <= 2|v| alias and are excluded from frequency comparisons."""
    r = v % p
    return r if r <= (p - 1) // 2 else r - p


@dataclass(frozen=True)
class EmpiricalReport:
    """Exact counts of a statistic over a scanned prime (or integer) range.

    `total` is the number of primes scanned; with conditioning, `counts`
    only includes matching primes, so frequencies stay normalized by the
    full scan (sum(counts.values()) <= total)."""

    statistic: str
    bound: str
    counts: Dict[int, int]
    total: int
    conditioning: Optional[str] = None

    def matched(self) -> int:
        return sum(self.counts.values())

    def frequency(self, v: int) -> Fraction:
        return Fraction(self.counts.get(v, 0), self.total)

    def frequencies(self) -> Dict[int, Fraction]:
        return {v: Fraction(c, self.total) for v, c in sorted(self.counts.items())}

    def signed_sum(self) -> int:
        return sum(v * c for v, c in self.counts.items())

    def rows(self) -> List[dict]:
        return [
            {"value": v, "count": c, "frequency": float(Fraction(c, self.total))}
            for v, c in sorted(self.counts.items())
        ]


def merge_reports(a: EmpiricalReport, b: EmpiricalReport) -> EmpiricalReport:
    """Associative, commutative block merge (same statistic and conditioning)."""
    if (a.statistic, a.conditioning) != (b.statistic, b.conditioning):
        raise ValueError("cannot merge reports of different statistics")
    counts = Counter(a.counts)
    counts.update(b.counts)
    return EmpiricalReport(
        a.statistic,
        f"{a.bound}+{b.bound}",
        dict(counts),
        a.total + b.total,
        a.conditioning,
    )


def _phi_from_factors(factors: Sequence[Tuple[int, int]]) -> int:
    out = 1
    for p, e in factors:
        out *= (p - 1) * p ** (e - 1)
    return out


class _SplitEvaluator:
    """f(n) for 1 <= n <= pack.limit, where f depends only on n_S, the part
    of n supported on a finite prime set S, and on mu(c) for the cofactor
    c = n / n_S: f(n) = pair(n_S)[0] if mu(c) = 1, pair(n_S)[1] if
    mu(c) = -1, and 0 if mu(c) = 0 or nu_p(n) exceeds caps[p] for some p
    in S (where f must vanish).  The pair is memoised per n_S."""

    def __init__(
        self,
        caps: Dict[int, int],
        pair: Callable[[FactoredNat], Tuple[int, int]],
        pack: SievePack,
    ):
        self.caps = sorted(caps.items())
        self.pair = pair
        self.mobius = pack.mobius
        self.memo: Dict[int, Tuple[int, int]] = {}

    def __call__(self, n: int) -> int:
        ns_factors = []
        ns = 1
        for p, cap in self.caps:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                if e > cap:
                    return 0
                ns_factors.append((p, e))
                ns *= p**e
        mu_c = int(self.mobius[n])
        if mu_c == 0:
            return 0
        pair = self.memo.get(ns)
        if pair is None:
            pair = self.memo[ns] = self.pair(FactoredNat(ns, tuple(ns_factors)))
        return pair[0] if mu_c == 1 else pair[1]


def _coeff_evaluator(k: int, pack: SievePack) -> Callable[[int], int]:
    """n -> a_n(k).  S = primes <= k; nu_p(n) > floor(log_p k) + 1 makes
    n / rad(n) exceed k, so a_n(k) = 0.  A squarefree cofactor coprime to
    S acts like 1 or like q, the least prime above k.  k = 1 is special:
    a_1(1) = 1 while a_n(1) = -mu(n) for n > 1."""
    if k == 1:
        mobius = pack.mobius
        return lambda n: 1 if n == 1 else -int(mobius[n])
    q = least_prime_above(k)
    caps = {p: int(math.log(k, p) + 1e-9) + 1 for p in small_primes(k)}
    return _SplitEvaluator(
        caps, lambda f: (cyclo_coeff(f, k), cyclo_coeff(f.times_prime(q), k)), pack
    )


def _ramanujan_evaluator(m: int, pack: SievePack) -> Callable[[int], int]:
    """n -> c_n(m).  S = primes dividing m; nu_p(n) >= nu_p(m) + 2 gives 0,
    and a squarefree cofactor c coprime to m contributes c_c(m) = mu(c)."""

    def pair(f: FactoredNat) -> Tuple[int, int]:
        c = ramanujan_sum(f, m)
        return c, -c

    caps = {q: nu + 1 for q, nu in as_factored(m).factors}
    return _SplitEvaluator(caps, pair, pack)


def s_k_residue(p: int, k: int, factors, coeff: Callable[[int], int]) -> int:
    """s_k(p) mod p in symmetric-residue form, by case analysis on
    t = phi(p-1): zero above t, else (-1)^k a_(p-1)(k).

    The latter congruence covers the k = t boundary as well (it evaluates
    to +1 for p >= 5 and to -1 for p = 3, where the lone primitive root 2
    makes the product of roots -1, not +1).  p = 2 has the single root 1,
    so every s_k(2) with k <= 1 is 1.  `coeff` maps n to a_n(k)."""
    t = _phi_from_factors(factors)
    if k > t:
        return 0
    if p == 2:
        return 1
    v = coeff(p - 1)
    if k % 2:
        v = -v
    return symmetric_residue(v, p)


def _select_primes(
    pack: SievePack, nprimes: Optional[int], x: Optional[int]
) -> Tuple[np.ndarray, str]:
    if nprimes is not None:
        if nprimes > len(pack.primes):
            raise ResourceBudgetError(
                f"first {nprimes} primes exceed sieve capacity pi({pack.limit}) = "
                f"{len(pack.primes)}"
            )
        return pack.primes[:nprimes], f"nprimes={nprimes}"
    if x > pack.limit:
        raise ResourceBudgetError(f"x = {x} exceeds sieve limit {pack.limit}")
    return pack.primes[: pack.prime_count(x)], f"x={x}"


def scan_primes(
    statistic: str,
    *,
    k: Optional[int] = None,
    shift: Optional[int] = None,
    kfree_order: Optional[int] = None,
    nprimes: Optional[int] = None,
    x: Optional[int] = None,
    constraint: Optional[ValuationConstraint] = None,
    pack: Optional[SievePack] = None,
) -> EmpiricalReport:
    """Count a per-prime statistic over the first N primes or primes <= x.

    Statistics: mu_pminus1; c_pminus1 and a_pminus1 (exact integer values,
    needs k); s_k_mod_p and S_k_mod_p (symmetric residues, needs k);
    kfree_shift (1 iff p - shift is kfree_order-free); conjecture1 (the
    relaxed Möbius value of p - 1 on primes matching the valuation
    constraint).  An optional constraint restricts any statistic; skipped
    primes still count toward `total`.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    limit = sieve_limit_for(nprimes=nprimes, x=x, shift=shift)
    pack = pack or default_pack(limit)
    primes, bound = _select_primes(pack, nprimes, x)
    needs_k = statistic in ("c_pminus1", "a_pminus1", "s_k_mod_p", "S_k_mod_p")
    if needs_k:
        if k is None or k < 1:
            raise ValueError(f"statistic {statistic} requires k >= 1")
        if k > PROFILE_MAX_K:
            raise ResourceBudgetError(
                f"coefficient statistics capped at k <= {PROFILE_MAX_K}"
            )
    if statistic == "kfree_shift":
        if shift is None or shift == 0 or kfree_order is None or kfree_order < 2:
            raise ValueError("kfree_shift requires shift != 0 and kfree_order >= 2")
        top = int(primes[-1]) if len(primes) else 0
        if top - shift > pack.limit:
            raise ResourceBudgetError("p - shift exceeds sieve range")
    if statistic == "conjecture1" and constraint is None:
        raise ValueError("conjecture1 requires a valuation constraint")

    mob = pack.mobius
    counts: Counter = Counter()
    value = None
    if statistic in ("c_pminus1", "S_k_mod_p"):
        value = _ramanujan_evaluator(k, pack)
    elif statistic in ("a_pminus1", "s_k_mod_p"):
        value = _coeff_evaluator(k, pack)
    needs_factors = constraint is not None or statistic in ("s_k_mod_p", "conjecture1")
    cond_primes = constraint.primes() if constraint is not None else ()

    total = 0
    for p in primes.tolist():
        total += 1
        factors = pack.factor(p - 1) if needs_factors else None
        if constraint is not None and not constraint.matches(factors):
            continue
        if statistic == "mu_pminus1":
            counts[int(mob[p - 1])] += 1
        elif statistic in ("c_pminus1", "a_pminus1"):
            counts[value(p - 1)] += 1
        elif statistic == "S_k_mod_p":
            counts[symmetric_residue(value(p - 1), p)] += 1
        elif statistic == "s_k_mod_p":
            counts[s_k_residue(p, k, factors, value)] += 1
        elif statistic == "kfree_shift":
            m = p - shift
            if m < 1:
                continue
            counts[1 if all(e < kfree_order for _, e in pack.factor(m)) else 0] += 1
        else:  # conjecture1
            outside = [(q, e) for q, e in factors if q not in cond_primes]
            if any(e >= 2 for _, e in outside):
                counts[0] += 1
            else:
                counts[-1 if len(outside) % 2 else 1] += 1

    label = statistic if not needs_k else f"{statistic}[k={k}]"
    if statistic == "kfree_shift":
        label = f"kfree_shift[r={shift},k={kfree_order}]"
    return EmpiricalReport(
        label,
        bound,
        dict(counts),
        total,
        conditioning=repr(constraint) if constraint is not None else None,
    )


# -- primitive-root oracles -------------------------------------------------------


def primitive_roots(p: int, pack: Optional[SievePack] = None) -> List[int]:
    """All phi(p-1) primitive roots mod p in [1, p-1], by explicit order
    checks (p <= 10^6)."""
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    if p > PRIMITIVE_ROOT_LIMIT:
        raise ResourceBudgetError(f"primitive-root oracle capped at p <= {PRIMITIVE_ROOT_LIMIT}")
    if p == 2:
        return [1]
    n = p - 1
    qs = [q for q, _ in as_factored(n, pack).factors]
    g = None
    for cand in range(2, p):
        if all(pow(cand, n // q, p) != 1 for q in qs):
            g = cand
            break
    roots = []
    cur = 1
    for j in range(1, n + 1):
        cur = cur * g % p
        if math.gcd(j, n) == 1:
            roots.append(cur)
    roots.sort()
    return roots


def symmetric_functions_mod_p(
    p: int, kmax: int, pack: Optional[SievePack] = None
) -> Tuple[List[int], List[int]]:
    """(s_1..s_kmax, S_1..S_kmax) mod p: the elementary symmetric functions
    and power sums of the primitive roots mod p, residues in [0, p).

    s comes from expanding prod_i (X - g_i) coefficient by coefficient, S
    from modular power sums; Newton's identity
    k s_k = sum_(i=1..k) (-1)^(i-1) s_(k-i) S_i ties the two together and
    is asserted internally."""
    if p > SYMMETRIC_ORACLE_LIMIT:
        raise ResourceBudgetError(f"symmetric oracle capped at p <= {SYMMETRIC_ORACLE_LIMIT}")
    roots = primitive_roots(p, pack)
    t = len(roots)
    if kmax > t + 2:
        raise ValueError(f"kmax limited to phi(p-1) + 2 = {t + 2}")
    e = [0] * (kmax + 1)
    e[0] = 1
    for g in roots:
        top = min(kmax, t)
        for j in range(top, 0, -1):
            e[j] = (e[j] + g * e[j - 1]) % p
    S = [0] * (kmax + 1)
    for kk in range(1, kmax + 1):
        S[kk] = sum(pow(g, kk, p) for g in roots) % p
    for kk in range(1, kmax + 1):
        newton = sum((-1) ** (i - 1) * e[kk - i] * S[i] for i in range(1, kk + 1)) % p
        assert (kk * e[kk] - newton) % p == 0, (p, kk)
    return e[1:], S[1:]


# -- Möbius sums over integers -----------------------------------------------------


def _coprime_mask(x: int, r_primes: Iterable[int]) -> np.ndarray:
    mask = np.ones(x + 1, dtype=bool)
    mask[0] = False
    for q in r_primes:
        mask[q::q] = False
    return mask


def count_squarefree_coprime(x: int, r, pack: Optional[SievePack] = None) -> int:
    """#{m <= x : m squarefree, gcd(m, r) = 1}, exact."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return 0
    pack = pack or default_pack(x)
    if x > pack.limit:
        raise ResourceBudgetError(f"x = {x} exceeds sieve limit")
    mask = _coprime_mask(x, as_factored(r).primes())
    return int(np.count_nonzero(mask & (pack.mobius[: x + 1] != 0)))


def mertens_coprime(x: int, r, pack: Optional[SievePack] = None) -> int:
    """sum_(m <= x, gcd(m, r) = 1) mu(m), exact signed sum."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return 0
    pack = pack or default_pack(x)
    if x > pack.limit:
        raise ResourceBudgetError(f"x = {x} exceeds sieve limit")
    mask = _coprime_mask(x, as_factored(r).primes())
    return int(pack.mobius[: x + 1][mask].sum(dtype=np.int64))


# -- bulk integer scans (value counts over n <= limit) ------------------------------


def count_ramanujan_values(
    ms: Sequence[int], limit: int, pack: Optional[SievePack] = None
) -> Dict[int, Counter]:
    """Counts of c_n(m) over 1 <= n <= limit for each m, in one pass.

    Per n only the exponents at primes dividing m and the Möbius value of
    the remaining cofactor matter (see _ramanujan_evaluator)."""
    pack = pack or default_pack(limit)
    if limit > pack.limit:
        raise ResourceBudgetError(f"limit {limit} exceeds sieve capacity")
    evaluators = {m: _ramanujan_evaluator(m, pack) for m in ms}
    counts: Dict[int, Counter] = {m: Counter() for m in ms}
    for n in range(1, limit + 1):
        for m, ev in evaluators.items():
            counts[m][ev(n)] += 1
    return counts


def count_cyclo_values(
    ks: Sequence[int], limit: int, pack: Optional[SievePack] = None
) -> Dict[int, Counter]:
    """Counts of a_n(k) over 1 <= n <= limit for each k, in one pass,
    via the memoised evaluators (see _coeff_evaluator)."""
    pack = pack or default_pack(limit)
    if limit > pack.limit:
        raise ResourceBudgetError(f"limit {limit} exceeds sieve capacity")
    evaluators = {k: _coeff_evaluator(k, pack) for k in ks}
    counts: Dict[int, Counter] = {k: Counter() for k in ks}
    for n in range(1, limit + 1):
        for k, ev in evaluators.items():
            counts[k][ev(n)] += 1
    return counts
