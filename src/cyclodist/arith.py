"""Sieves, factorization, and elementary multiplicative functions.

Everything downstream runs on exact integers and `fractions.Fraction`
(re-exported here as :data:`ExactRational`).  The two workhorses are

* :class:`SievePack` — the Möbius table and the prime list up to a limit,
  built once by a segmented sieve of Eratosthenes over the odd numbers,
  in blocks that need no temporary the size of a table, and shared
  read-only across the package.  Its tables hold odd n only:
  μ at an even n follows from μ(2o) = -μ(o) and μ(4m) = 0, and
  :meth:`SievePack.mu` reads μ at any n.  The build keeps least prime
  factors one block at a time; a pack marks a full table of them only when
  asked (by the benchmark's ``spans._describe_sieve`` and CI's
  ``sieve_digest.py``).  A pack never factors;
* :class:`FactoredNat` — a natural number carried together with its full
  prime factorization (from :func:`factorize`, trial division, the one
  factoring route), the input of every multiplicative-function evaluation
  (φ, μ, divisor enumeration, ...).

A pack is always built afresh: the prime-list file of
:func:`write_sieve_cache` is written only by the CLI's ``--cache-dir``,
and nothing here reads it (ROADMAP item 1).

All values are immutable after construction and every function here is
pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ResourceBudgetError

#: Exact rational numbers.  `fractions.Fraction` already guarantees the two
#: invariants we need (gcd(|num|, den) = 1 and den >= 1 after every
#: operation, sign carried by the numerator) and raises ZeroDivisionError on
#: division by zero, so it is used directly rather than wrapped.
ExactRational = Fraction

#: Default sieve limit: covers the 10^6-th prime (15 485 863) with headroom.
DEFAULT_SIEVE_LIMIT = 20_000_000

#: Hard memory budget: 0.5 bytes per entry (int8 μ over the odd n) and 4
#: per prime (int32), held twice while the build copies the primes out of a
#: buffer sized by a bound on π(limit): 292 MB at this limit.  The build's
#: peak is these plus O(block) bytes.  The build refuses limit >= 2^31
#: (int32 primes), so isqrt(limit) < 2^16.
MAX_SIEVE_LIMIT = 300_000_000

CACHE_MAGIC = b"CPD1"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: the least strong pseudoprime to every base in _MR_WITNESSES (OEIS A014233)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3*10^24; a larger n is
    refused with ValueError.  The bases 2..37 alone pass the composite
    318665857834031151167461 = 399165290221 * 798330580441."""
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is past {_MR_EXACT_BELOW}, where Miller-Rabin to the bases "
                         f"{_MR_WITNESSES} is no longer exact")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: entries per block of the marking pass (512 KB of uint16, so a block stays in cache)
_SEGMENT = 1 << 18
#: entries per block of the μ pass (its largest temporary is 128 KB of int32)
_MU_BLOCK = 1 << 15


def _spf_segments(limit: int, sievers: list) -> Iterator[tuple]:
    """Yield (lo, seg) for the blocks of _SEGMENT entries over the odd n = 2i
    + 1 <= limit: seg holds, at entry i - lo, the least prime factor of a
    composite n, and 0 at a prime and at 1.  Every seg is a view of one
    buffer, cleared and marked afresh for each block.  The odd sievers p <=
    sqrt(limit) write p at their odd multiples from p^2 on, the entries i =
    (p - 1) / 2 mod p, largest p first, so the least prime factor writes
    last."""
    end = (limit + 1) // 2
    buf = np.empty(min(_SEGMENT, end), dtype=np.uint16)
    for lo in range(0, end, _SEGMENT):
        seg = buf[: min(_SEGMENT, end - lo)]
        seg.fill(0)
        top = bisect.bisect_right(sievers, math.isqrt(2 * (lo + len(seg)) - 1))
        for p in reversed(sievers[:top]):
            seg[max(p * p >> 1, lo + ((p >> 1) - lo) % p) - lo :: p] = p
        yield lo, seg


def _sieve_arrays_numpy(limit: int):
    """Segmented Eratosthenes over the odd n = 2i + 1 <= limit: (mu, primes),
    entry i of mu standing for n = 2i + 1, the primes int32, 2 first.  mu has
    limit // 2 + 1 entries, so that n // 2 is an index for every n <= limit;
    at an even limit the last stands for limit + 1 and is a pad holding 0.

    μ starts at 1, with 0 at the odd multiples of p^2 for each siever p, one
    strided write per siever: every odd n <= limit that is not squarefree
    has such a p^2 | n.  Each block of `_spf_segments` is then read while
    it is in cache: its primes are the entries holding 0, and μ over it
    multiplies entry i by -1 times entry i // p, with p the least prime
    factor of n: n = p m with m odd gives i // p = m >> 1, the entry of m,
    which is squarefree when n is; a prime takes p = 1 and reads its own 1.
    μ runs in sub-blocks [lo, lo + min(lo, _MU_BLOCK)) from lo = 1: as m <=
    n/3, each read falls below the sub-block, on a final entry.  The build's
    peak is μ, the prime buffer and the primes' copy, plus O(block)."""
    if limit >= 1 << 31:  # the int32 primes; it implies isqrt(limit) < 2^16
        raise ResourceBudgetError(f"sieve limit {limit} does not fit the int32 primes")
    sievers = small_primes(math.isqrt(limit))[1:]
    end = (limit + 1) // 2  # past the entry of the largest odd n <= limit
    mu = np.ones(limit // 2 + 1, dtype=np.int8)
    mu[end:] = 0  # the pad, limit + 1, at an even limit
    for p in sievers:
        mu[p * p >> 1 :: p * p] = 0
    # π(limit) < 1.25506 limit / ln limit (Rosser and Schoenfeld).  Freeing one
    # buffer (6 MB at 2*10^7), not a list of chunks, lifts glibc's mmap threshold:
    # later scans then reuse heap for their MB-sized blocks, not fresh mmaps.
    primes = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int32)
    primes[0], count = 2, 1
    for lo, seg in _spf_segments(limit, sievers):
        first, hi = max(lo, 1), lo + len(seg)
        odd = np.flatnonzero(seg[first - lo :] == 0)
        primes[count : count + len(odd)] = 2 * odd + (2 * first + 1)
        count += len(odd)
        while first < hi:
            top = min(first + min(first, _MU_BLOCK), hi)
            at = np.arange(first, top, dtype=np.int32)
            at //= np.maximum(seg[first - lo : top - lo], 1)
            mu[first:top] *= -mu.take(at)
            first = top
    return mu, primes[:count].copy()


@dataclass(frozen=True, eq=False)
class SievePack:
    """Read-only sieve tables over the odd n <= limit.

    Entry i of ``mobius`` (int8) is μ(2i + 1); it has limit // 2 + 1
    entries, the last of them, at an even limit, a pad for limit + 1 that
    holds 0.  :meth:`mu` gives μ at any n <= limit.  ``primes`` (int32)
    lists all π(limit) primes in increasing order; a scan reads only μ and
    the primes.  A μ table of the wrong length or dtype, or a pad with μ !=
    0, is refused.  Identity semantics (eq=False): packs are shared, not
    compared element-wise.
    """

    limit: int
    mobius: np.ndarray
    primes: np.ndarray

    def __post_init__(self):
        size = self.limit // 2 + 1
        if self.mobius.dtype != np.int8 or self.mobius.shape != (size,):
            raise ValueError(f"mobius must be int8 over the odd n, {size} entries at limit "
                             f"{self.limit}; got {self.mobius.dtype} {self.mobius.shape}")
        if self.limit % 2 == 0 and self.mobius[-1] != 0:
            raise ValueError(f"the pad entry for {self.limit + 1} must hold μ = 0")
        for arr in (self.mobius, self.primes):
            arr.setflags(write=False)

    @functools.cached_property
    def smallest_prime_factor(self) -> np.ndarray:
        """uint16 over the odd n, laid out as ``mobius``: the least prime
        divisor of a composite 2i + 1, 0 for a prime, for 1 and for the pad;
        marked again by the build's segments.  Nothing in the package reads
        it; the benchmark's ``spans._describe_sieve`` and CI's
        ``sieve_digest.py`` do."""
        spf = np.zeros(self.limit // 2 + 1, dtype=np.uint16)
        for lo, seg in _spf_segments(self.limit, small_primes(math.isqrt(self.limit))[1:]):
            spf[lo : lo + len(seg)] = seg
        spf.setflags(write=False)
        return spf

    def mu(self, ns) -> np.ndarray:
        """μ(n) as int8 for an integer array of 1 <= n <= limit.  An odd n
        reads entry n >> 1; n = 2o with o odd reads o's entry, o >> 1 = n >>
        2, times -1; 4 | n reads the same entry times 0.  The factor is
        (n mod 2) - [n mod 4 = 2], in int8: a gather from a 4-entry table
        costs more than these array operations."""
        ns = np.asarray(ns)
        low = (ns & 3).astype(np.int8)
        odd = low & 1
        mu = np.take(self.mobius, ns >> (2 - odd))
        mu *= odd - (low == 2)
        return mu

    def prime_count(self, x: int) -> int:
        """pi(x) for x <= limit, 0 for any x < 2.  The search takes x as an
        int32 scalar: a Python int would cast the whole table to int64."""
        if x > self.limit:
            raise ValueError(f"{x} exceeds sieve limit {self.limit}")
        return int(np.searchsorted(self.primes, np.int32(max(x, 0)), side="right"))


def write_sieve_cache(path, limit: int, primes: Sequence[int]) -> None:
    """Binary cache: magic "CPD1", 8-byte little-endian limit, then each
    prime as an 8-byte little-endian value.  Written to a temporary file
    that replaces `path` only once complete, so readers never see a
    partial file."""
    arr = np.asarray(primes, dtype="<u8")
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<Q", limit))
            fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_sieve_cache(path, limit: int) -> Optional[np.ndarray]:
    """Return the cached prime list, or None unless the header matches the
    requested limit exactly."""
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != CACHE_MAGIC:
                return None
            (cached_limit,) = struct.unpack("<Q", fh.read(8))
            if cached_limit != limit:
                return None
            data = fh.read()
    except OSError:
        return None
    if len(data) % 8:
        return None
    return np.frombuffer(data, dtype="<u8").astype(np.int64)


def sieve_pack(limit: int = DEFAULT_SIEVE_LIMIT) -> SievePack:
    """Build the shared sieve tables up to `limit`, always afresh; no file
    is read or written."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceBudgetError(f"sieve limit {limit} exceeds memory budget {MAX_SIEVE_LIMIT}")
    return SievePack(limit, *_sieve_arrays_numpy(limit))


_default_pack: Optional[SievePack] = None


def default_pack(limit: Optional[int] = None) -> SievePack:
    """Process-wide shared pack covering at least `limit` (default
    DEFAULT_SIEVE_LIMIT).

    The pack is built for exactly the limit asked for, so callers pass the
    limit their request needs (see `sieve_limit_for`).  A later request
    that the shared pack already covers reuses it, a larger one replaces it
    by a pack of the larger limit."""
    global _default_pack
    want = DEFAULT_SIEVE_LIMIT if limit is None else max(limit, 2)
    if _default_pack is None or _default_pack.limit < want:
        _default_pack = sieve_pack(want)
    return _default_pack


def sieve_limit_for(
    nprimes: Optional[int] = None, x: Optional[int] = None, shift: Optional[int] = None
) -> int:
    """A sieve limit that a scan over the first `nprimes` primes, or over
    the primes p <= `x`, is sure to fit in; exactly one of the two is given.

    p_n < n (ln n + ln ln n) for n >= 6 (Rosser), and p_5 = 11 covers
    smaller n.  A scan of p - `shift` needs |shift| more."""
    if (nprimes is None) == (x is None):
        raise ValueError("specify exactly one of nprimes= or x=")
    if nprimes is not None:
        if nprimes < 0:
            raise ValueError("nprimes must be >= 0")
        limit = 11
        if nprimes >= 6:
            limit = int(nprimes * (math.log(nprimes) + math.log(math.log(nprimes)))) + 1
    else:
        if x < 0:
            raise ValueError("x must be >= 0")
        limit = max(x, 2)
    return limit + abs(shift or 0)


def small_primes(limit: int) -> list:
    """Plain prime list for small limits; avoids touching the big pack."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i in range(2, limit + 1) if sieve[i]]


def least_prime_above(k: int) -> int:
    n = k + 1
    while not is_prime_int(n):
        n += 1
    return n


@dataclass(frozen=True)
class FactoredNat:
    """A natural number with its prime factorization.

    `factors` is a tuple of (prime, exponent >= 1) pairs in strictly
    increasing prime order whose product equals `value`.  Construction
    checks ordering and the product; `from_factors` additionally verifies
    primality of each listed prime.
    """

    value: int
    factors: tuple

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("FactoredNat requires value >= 1")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError(f"factors out of order or bad exponent: {self.factors}")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors {self.factors} do not multiply to {self.value}")

    @classmethod
    def from_factors(cls, factors: Iterable) -> "FactoredNat":
        factors = tuple((int(p), int(e)) for p, e in factors)
        for p, _ in factors:
            if not is_prime_int(p):
                raise ValueError(f"{p} is not prime")
        value = 1
        for p, e in factors:
            value *= p**e
        return cls(value, factors)

    # -- elementary multiplicative data -------------------------------------

    def phi(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= (p - 1) * p ** (e - 1)
        return out

    def mobius(self) -> int:
        if any(e >= 2 for _, e in self.factors):
            return 0
        return -1 if len(self.factors) % 2 else 1

    def radical(self) -> int:
        out = 1
        for p, _ in self.factors:
            out *= p
        return out

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def primes(self) -> tuple:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list:
        """All divisors in increasing order (count = prod(e_i + 1))."""
        return sorted(d.value for d in self.iter_divisors_factored())

    def iter_divisors_factored(self, upto: Optional[int] = None) -> Iterator["FactoredNat"]:
        """Divisors as FactoredNats (unsorted); no re-factorization cost.

        With `upto`, only the divisors d <= upto, in the same order: a
        branch stops as soon as its running value exceeds the bound."""
        base = self.factors
        k = len(base)
        bound = self.value if upto is None else upto

        def rec(i: int, value: int, acc: list):
            if value > bound:
                return
            if i == k:
                yield FactoredNat(value, tuple(acc))
                return
            p, e = base[i]
            yield from rec(i + 1, value, acc)
            pk = 1
            for j in range(1, e + 1):
                pk *= p
                acc.append((p, j))
                yield from rec(i + 1, value * pk, acc)
                acc.pop()

        yield from rec(0, 1, [])

    def times_prime(self, q: int, e: int = 1) -> "FactoredNat":
        """Multiply by q^e, merging into the factor list."""
        out = []
        done = False
        for p, pe in self.factors:
            if p == q:
                out.append((p, pe + e))
                done = True
            elif p > q and not done:
                out.append((q, e))
                out.append((p, pe))
                done = True
            else:
                out.append((p, pe))
        if not done:
            out.append((q, e))
        return FactoredNat(self.value * q**e, tuple(out))

    def __int__(self) -> int:
        return self.value


FactoredLike = Union[int, FactoredNat]


def _trial_division(n: int) -> tuple:
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    # wheel over 6k +/- 1: a factorize call costs about 7 µs at n <= 2.3*10^5
    # and about 35 µs near 2*10^7 (Python 3.11); nothing bounds n yet
    # (ROADMAP item 8)
    while d * d <= n:
        for q in (d, d + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                out.append((q, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    out.sort()
    return tuple(out)


def factorize(n: int) -> FactoredNat:
    """Factor n >= 1 by deterministic trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    return FactoredNat(n, _trial_division(n))


def as_factored(n: FactoredLike) -> FactoredNat:
    if isinstance(n, FactoredNat):
        return n
    return factorize(int(n))


def mobius(n: FactoredLike) -> int:
    """Möbius function: 0 if some p^2 | n, else (-1)^(number of prime factors)."""
    return as_factored(n).mobius()


def euler_phi(n: FactoredLike) -> int:
    """Euler totient: n * prod_{p | n} (1 - 1/p)."""
    return as_factored(n).phi()


def is_kth_powerfree(n: FactoredLike, k: int) -> bool:
    """True iff no p^k divides n (k >= 2);  equals sum_{d^k | n} mu(d)."""
    if k < 2:
        raise ValueError("powerfree check requires k >= 2")
    return all(e < k for _, e in as_factored(n).factors)


def divisors(n: FactoredLike) -> list:
    """All divisors of n in increasing order."""
    return as_factored(n).divisors()
