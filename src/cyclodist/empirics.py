"""Deterministic empirical scans over primes and integers.

Every counting routine here is exact, reproducible bit-for-bit, and
ignorant of the theory it is used to validate (it shares only the value
maps, the recurrence of `cyclo_coeff` and `ramanujan_sum`, never density
weights).  A scan is a numpy pass over blocks of `_BLOCK` primes p (or
integers n); values of a_n(k) and c_n(m), n = p - 1 for primes, depend
only on the part n_S of n at a finite prime set S and on μ of the
cofactor n / n_S.  The k-th symmetric functions of primitive roots come
from an explicit expansion over the roots themselves (the one genuinely
independent oracle for the congruence suite).

Conditioning is one split pass (:class:`_Split`) with the statistic's
values.  Each part p^ν_p(n) at P = S ∪ Q, Q the primes of a valuation
constraint, is one gather (:func:`_part_reader`), read once: the exact
parts at Q first, whose valuations mask the block, then the parts at S
for the entries the mask keeps.  μ is read once, of n / n_P, and μ of
n / n_Q (for `squarefree_outside`) and of n / n_S (for the values) is
that times μ of the parts left out.  `mu_pminus1` is the split at S = ∅
and `conjecture1` the split at S = Q.  A scan reads only two sieve
tables, μ and the prime list.

The engine works in int32.  Every entry is at most the sieve limit, and
every sieve limit (`MAX_SIEVE_LIMIT` = 3·10^8) is below 2^31; a pack past
that is refused once per scan or split, never checked per block.  It
divides with `//` and never with `%`: numpy divides an array by a scalar
through a precomputed multiply-and-shift, which on int32 is about ten
times as fast as the true division behind `%`, so r mod d is
r - r // d * d.  Every gather by an int32 or uint32 index goes through
`np.take`, which keeps numpy's bounds check and skips the generic
indexing path: over the 2^16 int32 entries p - 1 of a block of
consecutive primes (2 cores, numpy 2.4.6), a gather from a 2197-entry
table takes 210 µs as `f[idx]` and 80 µs as `np.take`, and one from the
2·10^7 μ table the same.

No block is sorted.  Each kept entry gets the key n_S, or 0 where the
value must vanish; n_S >= 1, so 0 is free, and its row (0, 0) spares the
boolean compressions that would otherwise drop the dead entries.  A key
has a slot, found in linear time through a fixed table of 2^`_HASH_BITS`
buckets (:class:`_SplitValues`), and an entry's code 2·slot + [μ < 0]
indexes the value map's table of rows, which only grows, so a code keeps
its value for the whole scan.  A block is counted by one `np.bincount` of
its codes, the hits are summed per code over the blocks, and the table is
read once, at the end (:func:`_count_blocks`).  Only then are the rows of
the keys filled: for a_n(k) by one batched int64 recurrence over every
new key (:func:`cyclodist.cyclotomic.cyclo_coeff_pairs`, about k^2/2
vector steps in all), for c_n(m) by `ramanujan_sum` on each key, factored
by trial division.  The μ statistics count codes μ + 1 over (-1, 0, 1)
and `kfree_shift` codes 0/1.  A residue mod p needs the values, so
`s_k_mod_p` and `S_k_mod_p` read the table in every block: a residue
keeps the code of its value v wherever 2|v| < p, and the other entries
get extra codes past the table, which hold for their block only; every
residue lies in (-p/2, p/2], so at p = 2 it is 0 or 1.

Counts are reported as :class:`EmpiricalReport`: per-value counts, the
number of primes scanned, and exact rational frequencies.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .arith import (
    SievePack,
    as_factored,
    default_pack,
    factorize,
    is_prime_int,
    sieve_limit_for,
    small_primes,
)
from .cyclotomic import cyclo_coeff_pairs
from .densities_prime import ValuationConstraint
from .errors import InternalConsistencyError, ResourceBudgetError
from .ramanujan import ramanujan_caps, ramanujan_sum

PRIMITIVE_ROOT_LIMIT = 1_000_000
SYMMETRIC_ORACLE_LIMIT = 100_000
#: largest k of the coefficient scans (a_pminus1, s_k_mod_p and
#: count_cyclo_values), refused before any sieve is built: their values
#: cost about k^2/2 vector steps over the new keys n_S, and at k = 80 over
#: 10^6 primes or integers a scan takes 0.2-0.5 s once the sieve is built
#: and peaks at most about 10 MB above it (2 cores)
COEFF_SCAN_MAX_K = 80

#: entries per block of a scan
_BLOCK = 1 << 16
#: entries of a residue table over Z/p^t, at most (see :func:`_part_reader`)
_RESIDUE_TABLE = 1 << 16
#: a value map finds the slot of a key n_S among 2^_HASH_BITS buckets
_HASH_BITS = 16
_HASH_MUL = np.uint32(0x9E3779B1)  # odd, about 2^32 / golden ratio
#: codes of mu (mu + 1), of a_n(1) and of a 0/1 flag, and their values
_MU_TABLE = np.array([-1, 0, 1], dtype=np.int64)
_A1_TABLE = np.array([1, 0, -1, 1], dtype=np.int64)
_FLAG_TABLE = np.array([0, 1], dtype=np.int64)
#: a table of values, or a reader that returns one (see :func:`_count_blocks`)
_Table = Union[np.ndarray, Callable[[], np.ndarray]]

STATISTICS = (
    "mu_pminus1",
    "c_pminus1",
    "a_pminus1",
    "s_k_mod_p",
    "S_k_mod_p",
    "kfree_shift",
    "conjecture1",
)
_K_STATISTICS = ("c_pminus1", "a_pminus1", "s_k_mod_p", "S_k_mod_p")


def symmetric_residue(v, p):
    """Residue of v mod p mapped into (-p/2, p/2]: r = v mod p stays put
    when 2r <= p, otherwise r - p; so at p = 2 it is 0 or 1.  Unambiguous
    for |true value| < p/2; primes p <= 2|v| alias and are excluded from
    frequency comparisons.  Works elementwise on integer arrays as well."""
    r = v % p
    return r - p * (2 * r > p)


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


def _part_reader(p: int, cap: Optional[int], limit: int) -> Callable[[np.ndarray], np.ndarray]:
    """n -> p^nu_p(n) on int32 entries 1 <= n <= limit < 2^31, as int32,
    and 0 where nu_p(n) > cap (a cap of None keeps every valuation).

    The 2-part is the lowest set bit n & -n.  An odd p reads a table f over
    Z/p^t, t = cap + 1 lowered until p^t <= _RESIDUE_TABLE: f[r] = p^nu_p(r)
    and f[0] = 0, so the part of n is f[n - n // p^t * p^t], one scalar
    floor quotient and one gather.  When t = cap + 1, a 0 is the dead entry
    itself.  Otherwise the rare entries with p^t | n go down the same table
    on n // p^t (the deep path), and a part past p^cap is then set to 0.  A
    p above _RESIDUE_TABLE has t = 1 and f = 1 off 0, which is not stored;
    a p above the limit divides no entry.  A part is compared with p^cap
    only where p^cap <= limit, since no part reaches a larger one: a cap
    past int32 (m = 2^80) needs no test."""
    top = p**cap if cap is not None and p**cap <= limit else None
    if p > limit:
        return np.ones_like
    if p == 2:
        def two_part(ns: np.ndarray) -> np.ndarray:
            low = ns & -ns
            if top is not None:
                low *= low <= top
            return low

        return two_part
    t = 1
    while (cap is None or t <= cap) and p ** (t + 1) <= _RESIDUE_TABLE:
        t += 1
    final, mod, table = cap is not None and t == cap + 1, p**t, None
    if mod <= _RESIDUE_TABLE:
        table = np.ones(mod, dtype=np.int32)
        for j in range(1, t):
            table[:: p**j] = p**j
        table[0] = 0

    def part(ns: np.ndarray, capped: bool = True) -> np.ndarray:
        r = ns - ns // mod * mod
        parts = (r != 0).astype(np.int32) if table is None else np.take(table, r)
        if final and capped:
            return parts
        deep = np.flatnonzero(parts == 0)
        if deep.size:
            d = mod * part(np.take(ns, deep) // mod, capped=False)
            if capped and top is not None:
                d *= d <= top
            parts[deep] = d
        return parts

    return part


def _require_int32(pack: SievePack) -> None:
    """The scan engine runs in int32; every sieve limit up to
    `MAX_SIEVE_LIMIT` fits, a hand-built larger pack does not."""
    if pack.limit >= 2**31:
        raise InternalConsistencyError(
            f"sieve limit {pack.limit} does not fit the int32 scan engine")


def _buckets(keys: np.ndarray, bits: int) -> np.ndarray:
    """The buckets of int32 `keys` among 2^bits: the top `bits` bits of
    key * _HASH_MUL mod 2^32.  Key 0 lands in bucket 0."""
    return (keys.view(np.uint32) * _HASH_MUL) >> np.uint32(32 - bits)


class _Split:
    """A block of n, 1 <= n <= pack.limit, split at P = S ∪ Q, S the primes
    of `caps` and Q those of `constraint`.  Each part p^nu_p(n) at P is
    read once (:func:`_part_reader`): exact at Q, 0 past its cap at a
    prime only of S (every cap is at least 1, or None for no cap).  Their
    product n_P divides n, and mu of the cofactor n / n_P is read once.

    The valuation mask comes first: nu_q(n) is read off the exact q-part,
    since no two powers q^e <= limit share a bit length, by np.frexp and a
    32-entry table, and `ValuationConstraint.allows` keeps or drops each
    entry; the rest is read for the entries it keeps.  mu of n / n_S is mu
    of n / n_P times mu of each part at a prime only of Q (1 at 1, -1 at q,
    0 otherwise).  `squarefree_outside` drops the entries where
    mu(n / n_Q) = 0, that is where a part at a prime only of S passes p or
    mu(n / n_P) = 0; so there such a part is capped at 1, and
    mu(n / n_Q) != 0 where n_P != 0 and mu(n / n_P) != 0.  The key n_S
    takes the exact part at a prime of S ∩ Q up to p^cap and is 0 past it,
    like a part only of S."""

    def __init__(self, caps: Dict[int, Optional[int]],
                 constraint: Optional[ValuationConstraint], pack: SievePack):
        _require_int32(pack)
        self.pack, self.constraint = pack, constraint
        qs = constraint.primes() if constraint is not None else ()
        self.exact = []
        for q in qs:
            nu, e, power = np.zeros(32, dtype=np.int8), 0, 1
            while power <= pack.limit:
                nu[power.bit_length()], e, power = e, e + 1, power * q
            self.exact.append((q, _part_reader(q, None, pack.limit), nu))
        self.squarefree = constraint is not None and constraint.squarefree_outside
        self.capped = [(p, _part_reader(p, 1 if self.squarefree else caps[p], pack.limit))
                       for p in sorted(caps) if p not in qs]
        # the primes of S ∩ Q, with p^cap where a part can pass it, and only of Q
        self.tops = {q: q ** caps[q] if caps[q] is not None and q ** caps[q] <= pack.limit
                     else None for q in qs if q in caps}
        self.outside = [q for q in qs if q not in caps]
        self.odd_cofactors = 2 in caps or 2 in qs

    def __call__(self, ns: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """(the kept entries n, their key n_S or None where S is empty,
        mu(n / n_S) as int8)."""
        ns = ns.astype(np.int32, copy=False)
        exact = {}
        if self.exact:
            keep = np.ones(len(ns), dtype=bool)
            for q, part, nu in self.exact:
                exact[q] = part(ns)
                keep &= self.constraint.allows(q, np.take(nu, np.frexp(exact[q])[1]))
            kept = np.flatnonzero(keep)
            ns = np.take(ns, kept)
            exact = {q: np.take(a, kept) for q, a in exact.items()}
        key = np.ones_like(ns) if self.capped or self.tops else None
        for _, part in self.capped:
            key *= part(ns)
        for q in self.tops:
            key *= exact[q]
        n_p = key
        for q in self.outside:
            n_p = exact[q] if n_p is None else n_p * exact[q]
        # the float quotient is exact; where n_P is 0 (a part past its cap) mu
        # is read at n and never used.  With 2 in P a live cofactor c is odd
        # and reads entry c >> 1, and n reads entry n >> 1 <= limit // 2
        cofactor = ns if n_p is None else (ns / np.maximum(n_p, 1)).astype(np.int32)
        mu = (np.take(self.pack.mobius, cofactor >> 1) if self.odd_cofactors
              else self.pack.mu(cofactor))
        if self.squarefree:
            # a bool mask: np.flatnonzero reads one about twice as fast as int8
            live = np.flatnonzero((mu != 0) & (n_p != 0) if self.capped else mu != 0)
        for q in self.outside:
            mu *= (exact[q] == 1).view(np.int8) - (exact[q] == q).view(np.int8)
        for q, top in self.tops.items():
            if top is not None:
                key *= exact[q] <= top
        if self.squarefree:
            ns, mu = np.take(ns, live), np.take(mu, live)
            key = None if key is None else np.take(key, live)
        return ns, key, mu


class _SplitValues:
    """A value map: called on a split block (n, n_S, mu(c)), c = n / n_S,
    it gives the codes of f(n) and `read`, which returns the table they
    index.  f depends only on n_S and mu(c): rows(n_S)[0] if mu(c) = 1,
    rows(n_S)[1] if mu(c) = -1, and 0 if mu(c) = 0 or nu_p(n) passes the
    cap of some p in S (key 0, free since n_S >= 1, with row (0, 0)).
    `slots` maps each key seen so far to its slot, slot s holds its row at
    2s and 2s + 1 of the append-only `table`, and the code of an entry is
    2·slot + [mu < 0], so a code keeps its value for the whole scan.

    A new key takes its slot at once, but its row waits: `read` first fills
    the rows of every waiting key by one call of `rows` on their array.  A
    scan that reads the table only after its last block evaluates all of
    its keys in one batch; one that reads it per block, in one per block.

    No block is sorted.  A key finds its slot in `bucket_slot`, at the
    bucket :func:`_buckets` gives it, and the find holds only where
    `slot_key` of that slot is the key.  Free buckets hold 0, the slot of
    key 0; bucket 0, where key 0 lands, is never taken, so the dead
    entries, often most of a block, always find their slot.  An entry
    misses when its key is new or its bucket is held by another key;
    `misses` counts those entries."""

    def __init__(self, rows: Callable[[np.ndarray], np.ndarray]):
        self.rows = rows
        self.bits = _HASH_BITS
        self.bucket_slot = np.zeros(1 << self.bits, dtype=np.int32)
        self.slot_key = np.zeros(1, dtype=np.int32)
        self.table = np.zeros(2, dtype=np.int64)
        self.slots: Dict[int, int] = {0: 0}
        self.misses = 0

    def __call__(self, ns: np.ndarray, key: np.ndarray,
                 mu: np.ndarray) -> Tuple[np.ndarray, Callable[[], np.ndarray]]:
        key *= mu != 0
        slot = np.take(self.bucket_slot, _buckets(key, self.bits))
        miss = np.flatnonzero(np.take(self.slot_key, slot) != key)
        if miss.size:
            slot[miss] = self._resolve(key[miss])
        slot <<= 1
        slot += mu < 0
        return slot, self.read

    def read(self) -> np.ndarray:
        """The table, with the rows of the keys that waited for them."""
        done = len(self.table) // 2
        if done < len(self.slot_key):
            self.table = np.concatenate((self.table, self.rows(self.slot_key[done:]).ravel()))
        return self.table

    def _resolve(self, keys: np.ndarray) -> np.ndarray:
        """The slots of `keys`: new keys are appended and take their free
        buckets, then every key is found again through the buckets, and
        only those that still miss are looked up one by one."""
        self.misses += len(keys)
        new = list(set(keys.tolist()) - self.slots.keys())
        if new:
            first = len(self.slots)
            self.slots.update(zip(new, range(first, first + len(new))))
            new_keys = np.array(new, dtype=np.int32)
            self.slot_key = np.concatenate((self.slot_key, new_keys))
            buckets = _buckets(new_keys, self.bits)
            free = (np.take(self.bucket_slot, buckets) == 0) & (buckets != 0)
            self.bucket_slot[buckets[free]] = np.arange(first, first + len(new),
                                                        dtype=np.int32)[free]
        slot = np.take(self.bucket_slot, _buckets(keys, self.bits))
        still = np.flatnonzero(np.take(self.slot_key, slot) != keys)
        if still.size:
            slot[still] = [self.slots[k] for k in keys[still].tolist()]
        return slot


def _mu_codes(ns: np.ndarray, key: Optional[np.ndarray],
              mu: np.ndarray) -> Tuple[np.ndarray, Callable[[], np.ndarray]]:
    """A value map (see :class:`_SplitValues`): the codes of mu itself."""
    return mu + 1, lambda: _MU_TABLE


def _coeff_values(k: int) -> Tuple[Dict[int, int], Callable]:
    """The caps and the value map of n -> a_n(k).  S = primes <= k;
    nu_p(n) > floor(log_p k) + 1 makes n / rad(n) exceed k, so a_n(k) = 0.
    A squarefree cofactor coprime to S acts like 1 or like q, the least
    prime above k, and the rows (a_(n_S)(k), a_(n_S q)(k)) of the keys come
    from :func:`cyclodist.cyclotomic.cyclo_coeff_pairs`.  k = 1 is special:
    a_1(1) = 1 while a_n(1) = -mu(n) for n > 1, so S is empty and the codes
    are those of mu, with 3 at n = 1."""
    if k == 1:
        def codes(ns: np.ndarray, key: None,
                  mu: np.ndarray) -> Tuple[np.ndarray, Callable[[], np.ndarray]]:
            c = mu + 1
            c[ns == 1] = 3
            return c, lambda: _A1_TABLE

        return {}, codes
    caps = {p: int(math.log(k, p) + 1e-9) + 1 for p in small_primes(k)}
    return caps, _SplitValues(lambda keys: cyclo_coeff_pairs(keys, k))


def _ramanujan_values(m: int) -> Tuple[Dict[int, int], Callable]:
    """The caps and the value map of n -> c_n(m): the caps by
    :func:`cyclodist.ramanujan.ramanujan_caps`, c_(n_S)(m) by
    :func:`cyclodist.ramanujan.ramanujan_sum`, one key at a time;
    c_n(1) = mu(n) has the codes of mu."""
    if m == 1:
        return {}, _mu_codes
    caps = ramanujan_caps(m)

    def rows(keys: np.ndarray) -> np.ndarray:
        values = [ramanujan_sum(factorize(n), m) for n in keys.tolist()]
        return np.array(values, dtype=np.int64)[:, None] * np.array([1, -1])

    return dict(caps), _SplitValues(rows)


def _residues(ps: np.ndarray, codes: np.ndarray,
              table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Codes and table of the symmetric residues of table[codes] mod ps.
    A value v with 2|v| < p is its own residue and keeps its code; every
    other entry gets an extra code past `table`, whose value is its
    residue.  Extra codes index the returned table only: they belong to
    this block, and the next block's table may hold other values there."""
    if not len(ps) or 2 * int(np.abs(table).max()) < ps.min():
        return codes, table
    values = np.take(table, codes)
    alias = np.flatnonzero(2 * np.abs(values) >= ps)
    if not alias.size:
        return codes, table
    codes = codes.astype(np.int32, copy=False)
    codes[alias] = np.arange(len(table), len(table) + alias.size)
    return codes, np.concatenate((table, symmetric_residue(values[alias], ps[alias])))


def _s_k_codes(ps: np.ndarray, k: int, codes: np.ndarray,
               table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Codes and table of s_k(p) mod p for an array of primes, from the
    codes of a_(p-1)(k) and their table: s_k(p) = (-1)^k a_(p-1)(k) mod p.
    This covers k > phi(p-1), where both sides vanish (Phi_(p-1) has degree
    phi(p-1)), and the k = phi(p-1) boundary (+1 for p >= 5, -1 for p = 3,
    whose lone primitive root 2 makes the product of roots -1), and p = 2,
    whose single root 1 gives s_1(2) = 1, the residue of -a_1(1) = -1."""
    return _residues(ps, codes, -table if k % 2 else table)


def _kfree(ms: np.ndarray, order: int, pack: SievePack) -> np.ndarray:
    """1 where no q^order divides m (1 <= m <= pack.limit), else 0, as int8
    codes into (0, 1).  Order 2 reads μ(m) != 0; a higher order tests
    (m // d) * d != m for each d = q^order <= max(ms), q prime."""
    if order == 2:
        return (pack.mu(ms) != 0).view(np.int8)
    top = int(ms.max(initial=1))
    root = int(top ** (1 / order)) + 1
    free = np.ones(len(ms), dtype=bool)
    rest = ms.astype(np.int32)
    for q in pack.primes[: pack.prime_count(root)].tolist():
        d = q**order
        if d <= top:
            free &= rest // d * d != rest
    return free.view(np.int8)


def _count_blocks(size: int, block: Callable[[int, int], Tuple[np.ndarray, _Table]]
                  ) -> Dict[int, int]:
    """Counts of the values over the blocks [lo, hi) of range(size), as
    Python ints in increasing value order.  `block(lo, hi)` gives the
    codes of the block's entries and their table: an array holds for that
    block only and is read at once; a reader (a callable) returns a table
    that only grows, whose codes keep their values, so its hits are summed
    per code over every block and it is read once, after the last block.
    Only the codes hit are resolved to values (several codes may share one)."""
    counts: Dict[int, int] = {}

    def fold(hits: np.ndarray, table: np.ndarray) -> None:
        seen = hits > 0
        for v, c in zip(table[: len(hits)][seen].tolist(), hits[seen].tolist()):
            counts[v] = counts.get(v, 0) + c

    total, read = np.zeros(0, dtype=np.int64), None
    for lo in range(0, size, _BLOCK):
        codes, table = block(lo, min(lo + _BLOCK, size))
        hits = np.bincount(codes)
        if not callable(table):
            fold(hits, table)
            continue
        read = table
        if len(hits) > len(total):
            total = np.concatenate((total, np.zeros(len(hits) - len(total), dtype=np.int64)))
        total[: len(hits)] += hits
    if read is not None:
        fold(total, read())
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


def _check_coeff_k(k: int) -> None:
    if k > COEFF_SCAN_MAX_K:
        raise ResourceBudgetError(f"coefficient scans capped at k <= {COEFF_SCAN_MAX_K}")


def check_scan(statistic: str, *, k: Optional[int] = None, shift: Optional[int] = None,
               kfree_order: Optional[int] = None,
               constraint: Optional[ValuationConstraint] = None) -> None:
    """Refuse the arguments of a :func:`scan_primes` call that cannot run,
    before any sieve is built: an unknown statistic, a missing argument,
    or a coefficient scan past COEFF_SCAN_MAX_K."""
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    if statistic in _K_STATISTICS:
        if k is None or k < 1:
            raise ValueError(f"statistic {statistic} requires k >= 1")
        if statistic in ("a_pminus1", "s_k_mod_p"):
            _check_coeff_k(k)
    if statistic == "kfree_shift":
        if shift is None or shift == 0 or kfree_order is None or kfree_order < 2:
            raise ValueError("kfree_shift requires shift != 0 and kfree_order >= 2")
    if statistic == "conjecture1" and constraint is None:
        raise ValueError("conjecture1 requires a valuation constraint")


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
    check_scan(statistic, k=k, shift=shift, kfree_order=kfree_order, constraint=constraint)
    limit = sieve_limit_for(nprimes=nprimes, x=x, shift=shift)
    pack = pack or default_pack(limit)
    _require_int32(pack)
    primes, bound = _select_primes(pack, nprimes, x)
    if statistic == "kfree_shift":
        top = int(primes[-1]) if len(primes) else 0
        if top - shift > pack.limit:
            raise ResourceBudgetError("p - shift exceeds sieve range")

    caps, value = {}, _mu_codes  # mu_pminus1 is the split at S = {}
    if statistic in ("c_pminus1", "S_k_mod_p"):
        caps, value = _ramanujan_values(k)
    elif statistic in ("a_pminus1", "s_k_mod_p"):
        caps, value = _coeff_values(k)
    elif statistic == "conjecture1":  # mu of p - 1 off the constraint primes: S = Q
        caps = dict.fromkeys(constraint.primes())
    split = _Split(caps, constraint, pack)

    # kfree_shift counts only the primes p > shift, which leaves out a prefix
    skip = 0
    if statistic == "kfree_shift":  # primes is a prefix of pack.primes
        skip = min(pack.prime_count(min(shift, pack.limit)), len(primes))

    def block(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        ps = primes[max(lo, skip):hi]
        if statistic == "kfree_shift":
            if constraint is not None:
                ps = split(ps - 1)[0] + 1
            # in int64, since a shift may lie past int32
            return _kfree(ps.astype(np.int64) - shift, kfree_order, pack), lambda: _FLAG_TABLE
        ns, key, mu = split(ps - 1)
        codes, read = value(ns, key, mu)
        ps = ps if constraint is None else ns + 1  # the primes the constraint keeps
        if statistic == "S_k_mod_p":
            return _residues(ps, codes, read())
        if statistic == "s_k_mod_p":
            return _s_k_codes(ps, k, codes, read())
        return codes, read

    label = f"{statistic}[k={k}]" if statistic in _K_STATISTICS else statistic
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


def primitive_roots(p: int) -> List[int]:
    """All phi(p-1) primitive roots mod p in [1, p-1], by explicit order
    checks (p <= 10^6)."""
    if not is_prime_int(p):
        raise ValueError(f"{p} is not prime")
    if p > PRIMITIVE_ROOT_LIMIT:
        raise ResourceBudgetError(f"primitive-root oracle capped at p <= {PRIMITIVE_ROOT_LIMIT}")
    if p == 2:
        return [1]
    n = p - 1
    qs = factorize(n).primes()
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


def symmetric_functions_mod_p(p: int, kmax: int) -> Tuple[List[int], List[int]]:
    """(s_1..s_kmax, S_1..S_kmax) mod p: the elementary symmetric functions
    and power sums of the primitive roots mod p, residues in [0, p).

    s comes from expanding prod_i (X - g_i) coefficient by coefficient, S
    from modular power sums; Newton's identity
    k s_k = sum_(i=1..k) (-1)^(i-1) s_(k-i) S_i ties the two together, and
    a k at which it fails raises InternalConsistencyError."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if p > SYMMETRIC_ORACLE_LIMIT:
        raise ResourceBudgetError(f"symmetric oracle capped at p <= {SYMMETRIC_ORACLE_LIMIT}")
    roots = primitive_roots(p)
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
        if (kk * e[kk] - newton) % p:
            raise InternalConsistencyError(f"Newton's identity fails at p={p}, k={kk}")
    return e[1:], S[1:]


# -- Möbius sums over integers -----------------------------------------------------


def _coprime_mobius(x: int, r, pack: Optional[SievePack]) -> np.ndarray:
    """mu(m) for the m <= x coprime to r, odd m first and without the m
    that 4 divides (mu is 0 there); x = 0 builds no sieve.  The odd m <= x
    are the first (x + 1) // 2 entries of the odd table, m = 2o with o odd
    has mu(m) = -mu(o) over its first (x // 2 + 1) // 2, and an odd q
    divides the entries i = (q - 1) / 2 mod q."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return np.zeros(0, dtype=np.int8)
    pack = pack or default_pack(x)
    if x > pack.limit:
        raise ResourceBudgetError(f"x = {x} exceeds sieve limit")
    qs = as_factored(r).primes()
    mus = [pack.mobius[: (x + 1) // 2]]
    if 2 not in qs:
        mus.append(-pack.mobius[: (x // 2 + 1) // 2])
    out = []
    for mu in mus:
        mask = np.ones(len(mu), dtype=bool)
        for q in qs:
            if q != 2:
                mask[q >> 1 :: q] = False
        out.append(mu[mask])
    return np.concatenate(out)


def count_squarefree_coprime(x: int, r, pack: Optional[SievePack] = None) -> int:
    """#{m <= x : m squarefree, gcd(m, r) = 1}, exact."""
    return int(np.count_nonzero(_coprime_mobius(x, r, pack)))


def mertens_coprime(x: int, r, pack: Optional[SievePack] = None) -> int:
    """sum_(m <= x, gcd(m, r) = 1) mu(m), exact signed sum."""
    return int(_coprime_mobius(x, r, pack).sum(dtype=np.int64))


# -- bulk integer scans (value counts over n <= limit) ------------------------------


def _count_integers(
    values_of: Callable[[int], Tuple[Dict[int, int], Callable]],
    args: Sequence[int], limit: int, pack: Optional[SievePack],
) -> Dict[int, Counter]:
    if limit < 0 or min(args, default=1) < 1:
        raise ValueError("bulk counts need limit >= 0 and every k or m >= 1")
    pack = pack or default_pack(limit)
    if limit > pack.limit:
        raise ResourceBudgetError(f"limit {limit} exceeds sieve capacity")

    def count(caps: Dict[int, int], value: Callable) -> Counter:
        split = _Split(caps, None, pack)
        return Counter(_count_blocks(
            limit, lambda lo, hi: value(*split(np.arange(lo + 1, hi + 1)))))

    return {a: count(*values_of(a)) for a in args}


def count_ramanujan_values(
    ms: Sequence[int], limit: int, pack: Optional[SievePack] = None
) -> Dict[int, Counter]:
    """Counts of c_n(m) over 1 <= n <= limit for each m."""
    return _count_integers(_ramanujan_values, ms, limit, pack)


def count_cyclo_values(
    ks: Sequence[int], limit: int, pack: Optional[SievePack] = None
) -> Dict[int, Counter]:
    """Counts of a_n(k) over 1 <= n <= limit for each k <= COEFF_SCAN_MAX_K."""
    for k in ks:
        _check_coeff_k(k)
    return _count_integers(_coeff_values, ks, limit, pack)
