"""Print one SHA-256 over the sieve tables at a fixed set of limits.

Run it once against each of two source trees, for example

    PYTHONPATH=base/src python .github/scripts/sieve_digest.py
    PYTHONPATH=head/src python .github/scripts/sieve_digest.py

and compare the two lines: any change to a Möbius value, a prime or a
least prime factor changes the digest.  The smallest-prime-factor table
is hashed in one convention, n itself at a prime n, as little-endian
int32, whatever the tree stores at primes and whatever its dtype, so that
trees with different table layouts compare; μ is hashed as int8 and the
primes as little-endian int64.  The limits cover the smallest sieves, both
sides of the 2^18 block boundary, the sieve of a 10^4-prime scan and the
default 2*10^7 sieve.  It uses only `sieve_pack` and the `SievePack`
fields, which every tree since the segmented build has.
"""

import hashlib

import numpy as np

from cyclodist.arith import sieve_pack

LIMITS = (2, 3, 10, 2**18 - 1, 2**18, 2**18 + 1, 110_000, 20_000_000)
CHUNK = 1 << 20  # entries converted at a time, so the 2*10^7 table is never copied whole


def main():
    digest = hashlib.sha256()
    for limit in LIMITS:
        pack = sieve_pack(limit)
        primes = pack.primes.astype("<i8")
        digest.update(f"{limit}:{len(primes)}".encode())
        digest.update(primes.tobytes())
        digest.update(pack.mobius.astype(np.int8).tobytes())
        for lo in range(0, limit + 1, CHUNK):
            spf = pack.smallest_prime_factor[lo : lo + CHUNK].astype("<i4")
            at = primes[np.searchsorted(primes, lo) : np.searchsorted(primes, lo + CHUNK)]
            spf[at - lo] = at
            digest.update(spf.tobytes())
        del pack
    print(digest.hexdigest(), len(LIMITS))


if __name__ == "__main__":
    main()
