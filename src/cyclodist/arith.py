"""Sieves, factorization, and elementary multiplicative functions.

Everything downstream runs on exact integers and `fractions.Fraction`
(re-exported here as :data:`ExactRational`).  The two workhorses are

* :class:`SievePack` — the Möbius table and the prime list up to a limit,
  built once by a segmented sieve of Eratosthenes over the odd numbers,
  in blocks that need no temporary the size of a table, and shared
  read-only across the package.  Its tables hold odd n only:
  μ at an even n follows from μ(2o) = -μ(o) and μ(4m) = 0, and
  :meth:`SievePack.mu` reads μ at any n.  Its smallest-prime-factor table
  is a build intermediate: only the μ pass reads it, and it stays a field
  while the benchmark's ``spans._describe_sieve`` and CI's
  ``sieve_digest.py`` read it.  A pack never factors;
* :class:`FactoredNat` — a natural number carried together with its full
  prime factorization (from :func:`factorize`, trial division, the one
  factoring route), the input of every multiplicative-function evaluation
  (φ, μ, divisor enumeration, ...).

All values are immutable after construction and every function here is
pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import bisect
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

#: Hard memory budget: 1.5 bytes per entry (uint16 SPF and int8 μ over the
#: odd n), 4 per prime (int32).  The build's peak is these tables plus
#: O(block) bytes, so the budget counts all of it.  The build refuses limit
#: >= 2^31 (int32 primes), so isqrt(limit) < 2^16.
MAX_SIEVE_LIMIT = 300_000_000

CACHE_MAGIC = b"CPD1"
CACHE_ENV_VAR = "CYCLODIST_CACHE"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3*10^24."""
    if n < 2:
        return False
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
#: entries per block of the μ pass (its largest temporary is 256 KB of intp)
_MU_BLOCK = 1 << 15


def _sieve_arrays_numpy(limit: int):
    """Segmented Eratosthenes over the odd n = 2i + 1 <= limit: (spf, mu,
    primes), entry i of spf and mu standing for n = 2i + 1.

    Both tables have limit // 2 + 1 entries, so that n // 2 is an index for
    every n <= limit; at an even limit the last entry stands for limit + 1
    and is a pad holding 0 in both.  Block by block, the odd sievers p <=
    sqrt(limit) write p at their odd multiples from p^2 on, the entries i =
    (p - 1) / 2 mod p, largest p first and unmasked, so each odd composite
    keeps its least prime factor and each prime keeps 0; the block's primes
    are then read off while it is in cache.  The primes are int32, 2 first.

    μ starts at 1, with 0 at the odd multiples of p^2 for each siever p, one
    strided write per siever: every odd n <= limit that is not squarefree
    has such a p^2 | n.  Blocks [lo, lo + min(lo, _MU_BLOCK)) in increasing
    order then multiply entry i by -1 times entry i // p, with p the least
    prime factor of n: n = p m with m odd gives i // p = m >> 1, the entry
    of m, which is squarefree when n is and lies below lo as m <= n/3, so
    it is final.  At a prime n, p is taken as 1 and the entry reads its own
    1.  Each block's temporaries are O(_MU_BLOCK), so the build's peak is
    the three tables plus O(block)."""
    if limit >= 1 << 31:  # the int32 primes; it implies isqrt(limit) < 2^16
        raise ResourceBudgetError(f"sieve limit {limit} does not fit the int32 primes")
    sievers = small_primes(math.isqrt(limit))[1:]
    size = limit // 2 + 1
    end = (limit + 1) // 2  # past the entry of the largest odd n <= limit
    spf = np.zeros(size, dtype=np.uint16)
    # π(limit) < 1.25506 limit / ln limit (Rosser and Schoenfeld).  Freeing one
    # buffer (6 MB at 2*10^7), not a list of chunks, lifts glibc's mmap threshold:
    # later scans then reuse heap for their MB-sized blocks, not fresh mmaps.
    primes = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int32)
    primes[0], count = 2, 1
    for lo in range(0, size, _SEGMENT):
        seg = spf[lo : lo + _SEGMENT]
        top = bisect.bisect_right(sievers, math.isqrt(2 * (lo + len(seg)) - 1))
        for p in reversed(sievers[:top]):
            seg[max(p * p >> 1, lo + ((p >> 1) - lo) % p) - lo :: p] = p
        first = max(lo, 1)
        odd = np.flatnonzero(seg[first - lo : end - lo] == 0)
        primes[count : count + len(odd)] = 2 * odd + (2 * first + 1)
        count += len(odd)
    primes = primes[:count].copy()
    mu = np.ones(size, dtype=np.int8)
    for p in sievers:
        mu[p * p >> 1 :: p * p] = 0
    lo = 1
    while lo < size:
        hi = min(lo + min(lo, _MU_BLOCK), size)
        at = np.arange(lo, hi, dtype=np.int32)
        at //= np.maximum(spf[lo:hi], 1)
        mu[lo:hi] *= -mu.take(at)
        lo = hi
    if limit % 2 == 0:  # the pad, limit + 1
        spf[-1] = mu[-1] = 0
    return spf, mu, primes


@dataclass(frozen=True, eq=False)
class SievePack:
    """Read-only sieve tables over the odd n <= limit.

    Entry i of ``mobius`` (int8) is μ(2i + 1), and entry i of
    ``smallest_prime_factor`` (uint16) is the least prime divisor of a
    composite 2i + 1, 0 for a prime and for 1; each has limit // 2 + 1
    entries, the last of them, at an even limit, a pad for limit + 1 that
    holds 0.  :meth:`mu` gives μ at any n <= limit.  ``primes`` (int32)
    lists all π(limit) primes in increasing order; a scan reads only μ and
    the primes, and in the package only the build's μ pass reads the least
    prime factors.  A table of the wrong length or dtype, or a pad with μ
    != 0, is refused.  Identity semantics (eq=False): packs are shared, not
    compared element-wise.
    """

    limit: int
    smallest_prime_factor: np.ndarray
    mobius: np.ndarray
    primes: np.ndarray

    def __post_init__(self):
        size = self.limit // 2 + 1
        for name, dtype in (("smallest_prime_factor", np.uint16), ("mobius", np.int8)):
            arr = getattr(self, name)
            if arr.dtype != dtype or arr.shape != (size,):
                raise ValueError(f"{name} must be {np.dtype(dtype)} over the odd n, "
                                 f"{size} entries at limit {self.limit}; got {arr.dtype} "
                                 f"{arr.shape}")
        if self.limit % 2 == 0 and self.mobius[-1] != 0:
            raise ValueError(f"the pad entry for {self.limit + 1} must hold μ = 0")
        for arr in (self.smallest_prime_factor, self.mobius, self.primes):
            arr.setflags(write=False)

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


def _resolve_cache_dir(cache_dir) -> Optional[Path]:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


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


def sieve_pack(limit: int = DEFAULT_SIEVE_LIMIT, cache_dir=None) -> SievePack:
    """Build the shared sieve tables up to `limit`.

    With a cache directory (the argument or the CYCLODIST_CACHE environment
    variable), the fresh prime list is then compared with the file
    sieve_<limit>.cpd1 there, which is (re)written, when possible, unless
    it holds exactly that list.  No sieve is ever built from the file, so
    it saves no time; it stays only while the benchmark's `cli_cold`
    workload passes --cache-dir (ROADMAP item 1).
    """
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceBudgetError(
            f"sieve limit {limit} exceeds memory budget {MAX_SIEVE_LIMIT}"
        )
    spf, mu, primes = _sieve_arrays_numpy(limit)
    cdir = _resolve_cache_dir(cache_dir)
    if cdir is not None:
        path = cdir / f"sieve_{limit}.cpd1"
        cached = read_sieve_cache(path, limit)
        if cached is None or not np.array_equal(cached, primes):
            try:
                cdir.mkdir(parents=True, exist_ok=True)
                write_sieve_cache(path, limit, primes)
            except OSError:
                pass
    return SievePack(limit, spf, mu, primes)


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
