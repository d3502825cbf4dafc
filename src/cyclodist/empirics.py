"""Deterministic empirical scans over primes and integers.

Every counting routine here is exact, reproducible bit-for-bit, and
ignorant of the theory it is used to validate (it shares only the value
maps `cyclo_coeff` and `ramanujan_sum`, never density weights).  A scan is
a numpy pass over blocks of `_BLOCK` primes p (or integers n); values of
a_n(k) and c_n(m), n = p - 1 for primes, depend only on the part n_S of n
at a finite prime set S and on μ of the cofactor n / n_S, and one engine
(:func:`_split_values`) evaluates them for a whole block at a time.
Conditioning is a mask on peeled exponents.  The k-th symmetric functions
of primitive roots come from an explicit expansion over the roots
themselves (the one genuinely independent oracle for the congruence
suite).

The engine works in int32.  Every entry is at most the sieve limit, and
every sieve limit (`MAX_SIEVE_LIMIT` = 3·10^8) is below 2^31; a pack past
that is refused once per scan or value map, never checked per block.
It divides with `//` and never with `%`: numpy divides an array by a
scalar through a precomputed multiply-and-shift, which on int32 is about
ten times as fast as the true division behind `%`, so a divisibility test
is q = r // p, q * p == r, and q is kept as the quotient.  Each entry of a
block gets the key n_S, or 0 where the value must vanish; n_S >= 1, so 0
is free, and its table row (0, 0) spares the boolean compressions that
would otherwise drop the dead entries of every block.

Counts are reported as :class:`EmpiricalReport`: per-value counts, the
number of primes scanned, and exact rational frequencies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .arith import (
    FactoredNat,
    SievePack,
    as_factored,
    default_pack,
    factorize,
    is_prime_int,
    least_prime_above,
    sieve_limit_for,
    small_primes,
)
from .cyclotomic import PROFILE_MAX_K, cyclo_coeff
from .densities_prime import ValuationConstraint
from .errors import InternalConsistencyError, ResourceBudgetError
from .ramanujan import ramanujan_split, ramanujan_sum

PRIMITIVE_ROOT_LIMIT = 1_000_000
SYMMETRIC_ORACLE_LIMIT = 100_000

#: entries per block of a scan
_BLOCK = 1 << 16

STATISTICS = (
    "mu_pminus1",
    "c_pminus1",
    "a_pminus1",
    "s_k_mod_p",
    "S_k_mod_p",
    "kfree_shift",
    "conjecture1",
)


def symmetric_residue(v, p):
    """Residue of v mod p mapped into (-p/2, p/2]: r stays put when
    r <= (p-1)/2, otherwise r - p.  Unambiguous for |true value| < p/2;
    primes p <= 2|v| alias and are excluded from frequency comparisons.
    Works elementwise on integer arrays as well."""
    r = v % p
    return r - p * (r > (p - 1) // 2)


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

    def frequencies(self) -> Dict[int, Fraction]:
        return {v: Fraction(c, self.total) for v, c in sorted(self.counts.items())}

    def signed_sum(self) -> int:
        return sum(v * c for v, c in self.counts.items())

    def rows(self) -> List[dict]:
        return [
            {"value": v, "count": c, "frequency": float(Fraction(c, self.total))}
            for v, c in sorted(self.counts.items())
        ]


# -- the array engine ---------------------------------------------------------------


def _peel(ns: np.ndarray, primes: Sequence[int]) -> Tuple[List[np.ndarray], np.ndarray]:
    """The valuations (int8) of the entries of `ns` (1 <= n < 2^31) at each
    of `primes`, and what is left of the entries (int32) once those primes
    are divided out.

    nu_2 comes from the lowest set bit r & -r: a power of two, which
    float32 holds exactly, with nu_2 + 127 in its exponent field; one right
    shift removes it.  An odd p is peeled by floor quotients over the
    shrinking set of entries it still divides, never by `%` (see the
    module docstring)."""
    rest = ns.astype(np.int32)
    exps = []
    for p in primes:
        if p == 2:
            e = ((rest & -rest).astype(np.float32).view(np.int32) >> 23) - 127
            rest >>= e
            exps.append(e.astype(np.int8))
            continue
        e = np.zeros(len(rest), dtype=np.int8)
        q = rest // p
        idx = np.flatnonzero(q * p == rest)
        q = q[idx]
        while idx.size:
            rest[idx] = q
            e[idx] += 1
            r, q = q, q // p
            hit = q * p == r
            idx, q = idx[hit], q[hit]
        exps.append(e)
    return exps, rest


def _require_int32(pack: SievePack) -> None:
    """The scan engine runs in int32; every sieve limit up to
    `MAX_SIEVE_LIMIT` fits, a hand-built larger pack does not."""
    if pack.limit >= 2**31:
        raise InternalConsistencyError(
            f"sieve limit {pack.limit} does not fit the int32 scan engine")


def _split_values(caps: Dict[int, int], pair: Callable[[FactoredNat], Tuple[int, int]],
                  pack: SievePack) -> Callable[[np.ndarray], np.ndarray]:
    """The array map n -> f(n) for 1 <= n <= pack.limit, where f depends
    only on n_S, the part of n supported on the primes S of `caps`, and on
    mu(c) for the cofactor c = n / n_S: f(n) = pair(n_S)[0] if mu(c) = 1,
    pair(n_S)[1] if mu(c) = -1, and 0 if mu(c) = 0 or nu_p(n) exceeds
    caps[p] for some p in S (where f must vanish).  The pair is memoised
    per n_S across the calls of the returned map.

    Every entry of a block is keyed, the dead ones (f must vanish) by 0:
    n_S >= 1, so key 0 is free and its memo row is (0, 0).  The output is
    one gather from the flattened table of rows."""
    _require_int32(pack)
    primes = sorted(caps)
    memo: Dict[int, Tuple[int, int]] = {0: (0, 0)}

    def values(ns: np.ndarray) -> np.ndarray:
        exps, rest = _peel(ns, primes)
        mu = pack.mobius[rest]
        live = mu != 0
        for p, e in zip(primes, exps):
            live &= e <= caps[p]
        key = ns.astype(np.int32) // rest
        key *= live
        keys, inv = np.unique(key, return_inverse=True)
        keys = keys.tolist()
        for k in keys:
            if k not in memo:
                memo[k] = pair(factorize(k, pack))
        table = np.array([memo[k] for k in keys], dtype=np.int64)
        return table.ravel()[2 * inv + (mu < 0)]

    return values


def _coeff_values(k: int, pack: SievePack) -> Callable[[np.ndarray], np.ndarray]:
    """n -> a_n(k) on arrays.  S = primes <= k; nu_p(n) > floor(log_p k) + 1
    makes n / rad(n) exceed k, so a_n(k) = 0.  A squarefree cofactor coprime
    to S acts like 1 or like q, the least prime above k.  k = 1 is special:
    a_1(1) = 1 while a_n(1) = -mu(n) for n > 1."""
    if k == 1:
        return lambda ns: np.where(ns == 1, 1, -pack.mobius[ns].astype(np.int64))
    q = least_prime_above(k)
    caps = {p: int(math.log(k, p) + 1e-9) + 1 for p in small_primes(k)}
    return _split_values(caps, lambda f: (cyclo_coeff(f, k), cyclo_coeff(f.times_prime(q), k)),
                         pack)


def _ramanujan_values(m: int, pack: SievePack) -> Callable[[np.ndarray], np.ndarray]:
    """n -> c_n(m) on arrays: the caps of :func:`cyclodist.ramanujan.ramanujan_split`,
    c_(n_S)(m) by :func:`cyclodist.ramanujan.ramanujan_sum`."""
    caps, _ = ramanujan_split(m)
    return _split_values(dict(caps), lambda f: (ramanujan_sum(f, m), -ramanujan_sum(f, m)), pack)


def _s_k_values(ps: np.ndarray, k: int, coeff: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """s_k(p) mod p for an array of primes, `coeff` the map n -> a_n(k):
    s_k(p) = (-1)^k a_(p-1)(k) mod p.  This covers k > phi(p-1), where
    both sides vanish (Phi_(p-1) has degree phi(p-1)), and the k = phi(p-1)
    boundary (+1 for p >= 5, -1 for p = 3, whose lone primitive root 2
    makes the product of roots -1).  The one exception is p = 2 with
    k = 1: its single root 1 gives s_1(2) = 1, while a_1(1) = 1 gives -1."""
    a = coeff(ps - 1)
    out = symmetric_residue(-a if k % 2 else a, ps)
    if k == 1:
        out[ps == 2] = 1
    return out


def _kfree(ms: np.ndarray, order: int, spf: np.ndarray) -> np.ndarray:
    """1 where no q^order divides m (m >= 1), else 0: every m is peeled one
    prime q at a time by floor quotients in int32, q = spf[rest] or, where
    that is 0, the (prime) rest itself.  A division by 0 raises."""
    out = np.ones(len(ms), dtype=np.int64)
    idx = np.flatnonzero(ms > 1)
    r = ms[idx].astype(np.int32)
    with np.errstate(divide="raise"):
        while idx.size:
            q = spf[r] + r * (spf[r] == 0)
            r //= q  # q divides r
            e = np.ones(len(idx), dtype=np.int32)
            live = np.arange(len(idx))
            while live.size:
                quo = r[live] // q[live]
                hit = quo * q[live] == r[live]
                live = live[hit]
                r[live] = quo[hit]
                e[live] += 1
            out[idx[e >= order]] = 0
            idx, r = idx[r > 1], r[r > 1]
    return out


def _count_blocks(size: int, block: Callable[[int, int], np.ndarray]) -> Dict[int, int]:
    """Counts of the values `block(lo, hi)` returns for the blocks
    [lo, hi) of range(size), as Python ints in increasing value order."""
    counts: Counter = Counter()
    for lo in range(0, size, _BLOCK):
        values, hits = np.unique(block(lo, min(lo + _BLOCK, size)), return_counts=True)
        counts.update(dict(zip(values.tolist(), hits.tolist())))
    return dict(sorted(counts.items()))


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
    constraint).  An optional constraint restricts any statistic to the
    primes whose p - 1 it matches, squarefree outside its primes unless
    `squarefree_outside` is off; skipped primes still count toward `total`.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    limit = sieve_limit_for(nprimes=nprimes, x=x, shift=shift)
    pack = pack or default_pack(limit)
    _require_int32(pack)
    primes, bound = _select_primes(pack, nprimes, x)
    needs_k = statistic in ("c_pminus1", "a_pminus1", "s_k_mod_p", "S_k_mod_p")
    if needs_k:
        if k is None or k < 1:
            raise ValueError(f"statistic {statistic} requires k >= 1")
        if k > PROFILE_MAX_K and statistic in ("a_pminus1", "s_k_mod_p"):
            raise ResourceBudgetError(f"coefficient statistics capped at k <= {PROFILE_MAX_K}")
    if statistic == "kfree_shift":
        if shift is None or shift == 0 or kfree_order is None or kfree_order < 2:
            raise ValueError("kfree_shift requires shift != 0 and kfree_order >= 2")
        top = int(primes[-1]) if len(primes) else 0
        if top - shift > pack.limit:
            raise ResourceBudgetError("p - shift exceeds sieve range")
    if statistic == "conjecture1" and constraint is None:
        raise ValueError("conjecture1 requires a valuation constraint")

    value = None
    if statistic in ("c_pminus1", "S_k_mod_p"):
        value = _ramanujan_values(k, pack)
    elif statistic in ("a_pminus1", "s_k_mod_p"):
        value = _coeff_values(k, pack)

    def block(lo: int, hi: int) -> np.ndarray:
        ps = primes[lo:hi]
        ns = ps - 1
        keep = np.ones(len(ps), dtype=bool)
        if constraint is not None:
            exps, rest = _peel(ns, constraint.primes())
            for q, e in zip(constraint.primes(), exps):
                keep &= constraint.allows(q, e)
            if constraint.squarefree_outside:
                keep &= pack.mobius[rest] != 0
        if statistic == "mu_pminus1":
            vals = pack.mobius[ns]
        elif statistic in ("c_pminus1", "a_pminus1"):
            vals = value(ns)
        elif statistic == "S_k_mod_p":
            vals = symmetric_residue(value(ns), ps)
        elif statistic == "s_k_mod_p":
            vals = _s_k_values(ps, k, value)
        elif statistic == "kfree_shift":
            ms = ps - shift
            keep &= ms >= 1
            vals = _kfree(np.maximum(ms, 1), kfree_order, pack.smallest_prime_factor)
        else:  # conjecture1: mu of p - 1 without the constraint primes
            vals = pack.mobius[rest]
        return vals[keep]

    label = statistic if not needs_k else f"{statistic}[k={k}]"
    if statistic == "kfree_shift":
        label = f"kfree_shift[r={shift},k={kfree_order}]"
    return EmpiricalReport(
        label,
        bound,
        _count_blocks(len(primes), block),
        len(primes),
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
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
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


def _coprime_mobius(x: int, r, pack: Optional[SievePack]) -> np.ndarray:
    """mu(m) for the m <= x coprime to r; x = 0 builds no sieve."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return np.zeros(0, dtype=np.int8)
    pack = pack or default_pack(x)
    if x > pack.limit:
        raise ResourceBudgetError(f"x = {x} exceeds sieve limit")
    mask = np.ones(x + 1, dtype=bool)
    mask[0] = False
    for q in as_factored(r).primes():
        mask[q::q] = False
    return pack.mobius[: x + 1][mask]


def count_squarefree_coprime(x: int, r, pack: Optional[SievePack] = None) -> int:
    """#{m <= x : m squarefree, gcd(m, r) = 1}, exact."""
    return int(np.count_nonzero(_coprime_mobius(x, r, pack)))


def mertens_coprime(x: int, r, pack: Optional[SievePack] = None) -> int:
    """sum_(m <= x, gcd(m, r) = 1) mu(m), exact signed sum."""
    return int(_coprime_mobius(x, r, pack).sum(dtype=np.int64))


# -- bulk integer scans (value counts over n <= limit) ------------------------------


def _count_integers(
    values_of: Callable[[int, SievePack], Callable[[np.ndarray], np.ndarray]],
    args: Sequence[int], limit: int, pack: Optional[SievePack],
) -> Dict[int, Counter]:
    if limit < 0 or min(args, default=1) < 1:
        raise ValueError("bulk counts need limit >= 0 and every k or m >= 1")
    pack = pack or default_pack(limit)
    if limit > pack.limit:
        raise ResourceBudgetError(f"limit {limit} exceeds sieve capacity")
    return {a: Counter(_count_blocks(limit, lambda lo, hi, f=values_of(a, pack):
                                     f(np.arange(lo + 1, hi + 1)))) for a in args}


def count_ramanujan_values(
    ms: Sequence[int], limit: int, pack: Optional[SievePack] = None
) -> Dict[int, Counter]:
    """Counts of c_n(m) over 1 <= n <= limit for each m."""
    return _count_integers(_ramanujan_values, ms, limit, pack)


def count_cyclo_values(
    ks: Sequence[int], limit: int, pack: Optional[SievePack] = None
) -> Dict[int, Counter]:
    """Counts of a_n(k) over 1 <= n <= limit for each k."""
    return _count_integers(_coeff_values, ks, limit, pack)
