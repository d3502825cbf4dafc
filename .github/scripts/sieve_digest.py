"""Print one SHA-256 over the sieve tables at a fixed set of limits.

Run it once against each of two source trees, for example

    PYTHONPATH=base/src python .github/scripts/sieve_digest.py
    PYTHONPATH=head/src python .github/scripts/sieve_digest.py

and compare the two lines: any change to a Möbius value, a prime or a
least prime factor changes the digest.  The tables are hashed over every
n in [0..limit], whichever layout the tree stores: a table of limit + 1
entries holds every n, and any other is over the odd n = 2i + 1 only, so
μ at an even n is expanded by μ(2o) = -μ(o) and μ(4m) = 0, and the least
prime factor of an even n >= 4 is 2.  The smallest-prime-factor table is
hashed in one convention, n itself at a prime n, as little-endian int32,
whatever the tree stores at primes and whatever its dtype; μ is hashed as
int8 and the primes as little-endian int64.  The limits cover the smallest sieves, both
sides of the 2^18 block boundary, both sides of n = 2^16 and 2^17, where
the μ pass's first and second full blocks of 2^15 odd entries start, the
sieve of a 10^4-prime scan and the default 2*10^7 sieve.  It uses only
`sieve_pack` and the `SievePack` fields, which every tree since the
segmented build has.
"""

import hashlib

import numpy as np

from cyclodist.arith import sieve_pack

LIMITS = (2, 3, 10, 2**16 - 1, 2**16, 2**16 + 1, 2**17 - 1, 2**17 + 1, 2**18 - 1, 2**18,
          2**18 + 1, 110_000, 20_000_000)
CHUNK = 1 << 20  # entries converted at a time, so the 2*10^7 table is never copied whole


def full_mobius(pack):
    """μ over [0..limit] as int8."""
    mu = pack.mobius.astype(np.int8)
    if len(mu) == pack.limit + 1:
        return mu
    full = np.zeros(pack.limit + 1, dtype=np.int8)
    full[1::2] = mu[: len(full[1::2])]
    full[2::4] = -mu[: len(full[2::4])]
    return full


def full_spf(pack, lo):
    """The least prime factors over [lo, lo + CHUNK) as little-endian int32,
    0 at a prime and at n < 2."""
    spf = pack.smallest_prime_factor
    if len(spf) == pack.limit + 1:
        return spf[lo : lo + CHUNK].astype("<i4")
    n = np.arange(lo, min(lo + CHUNK, pack.limit + 1))
    return np.where(n & 1, spf[n >> 1], 2 * (n >= 4)).astype("<i4")


def main():
    digest = hashlib.sha256()
    for limit in LIMITS:
        pack = sieve_pack(limit)
        primes = pack.primes.astype("<i8")
        digest.update(f"{limit}:{len(primes)}".encode())
        digest.update(primes.tobytes())
        digest.update(full_mobius(pack).tobytes())
        for lo in range(0, limit + 1, CHUNK):
            spf = full_spf(pack, lo)
            at = primes[np.searchsorted(primes, lo) : np.searchsorted(primes, lo + CHUNK)]
            spf[at - lo] = at
            digest.update(spf.tobytes())
        del pack
    print(digest.hexdigest(), len(LIMITS))


if __name__ == "__main__":
    main()
