"""Coefficients of cyclotomic polynomials by three independent routes.

Writing Phi_n(X) = sum_k a_n(k) X^k (degree phi(n), monic), a single
coefficient a_n(k) is computed by

* :func:`cyclo_coeff` — reduction to the squarefree kernel r followed by
  the log-derivative recurrence b_j = -(1/j) sum b_m T_(j-m) with
  T_i = mu(r) mu(g) phi(g), g = gcd(i, r); the same recurrence runs over
  many rows at once in int64 (:func:`_recurrence`), which is how
  :func:`cyclo_coeff_pairs` evaluates a scan's keys in one batch;
* :func:`cyclo_coeff_series` — the lattice lift of truncated series
  (Arnold & Monagan, *Calculating cyclotomic polynomials*, Math. Comp. 80,
  2011): Phi_dp = Phi_d(X^p) / Phi_d(X) mod X^(k+1) is carried with its
  inverse, one prime at a time, so no step divides (:func:`_lift`);
* :func:`cyclo_coeff_partition` — the divisor product
  Phi_n = prod_(d|n) (1 - X^d)^mu(n/d) for n >= 2, expanded as a truncated
  power series (Arnold & Monagan's sparse power series): truncated at X^k
  it is the partition sum over (sum j*n_j = k) of
  prod_j (-1)^(n_j) * binom(mu(n/j), n_j), and at full degree it is
  :func:`cyclo_poly` (:func:`_divisor_product` serves both, in int64 with an
  exact fallback to Python ints; Phi_255255 takes about 0.012 s).

The three paths share no code, which is what makes their agreement a real
test.  The coefficient profile behind the value sets and the divisor-route
densities runs the lift over every squarefree divisor of prod_(p<=k) p at
once (:func:`coeff_profile`), so the other two routes check it.  The module
also computes the value set B(k) = {a_n(k) : n} with its
even/odd-n refinement, witnesses (n, k) realising any prescribed integer
coefficient, and triples of consecutive odd primes p1 < p2 < p3 with
p3 <= k < p1 + p2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from .arith import (
    FactoredLike,
    FactoredNat,
    as_factored,
    least_prime_above,
    small_primes,
)
from .errors import InternalConsistencyError, ResourceBudgetError

#: Largest k for which the divisor profile of M_k is built: its lattice has
#: 2^pi(k) rows, 2^18 at k = 61 (32.5 MB of int8, kept for the process), a
#: build there takes about 0.25 s and a density fold peaks at about 77 MB on
#: 2 cores.  Caps value sets and divisor-route densities and means.
PROFILE_MAX_K = 61
CYCLO_POLY_MAX_DEGREE = 100_000


_INT64_MAX = int(np.iinfo(np.int64).max)
#: keys per chunk of :func:`cyclo_coeff_pairs`: two recurrence rows each
_CHUNK = 512


def _height(*blocks: np.ndarray) -> int:
    """max |coefficient| over the blocks."""
    return max(max(int(b.max()), -int(b.min())) for b in blocks)


def _int64_bound(height: int, growth: int, *blocks: np.ndarray) -> int:
    """The one int64 rule.  With `height` >= 1 bounding max|value| of `blocks`:
    a bound h on it with h * growth <= _INT64_MAX, the blocks measured only if
    `height` fails; else 0, and the rows turn to Python ints (0 stays 0)."""
    if height * growth > _INT64_MAX and blocks:
        height = _height(*blocks)
    return height if height * growth <= _INT64_MAX else 0


def _kernel_reduction(n: FactoredLike) -> Tuple[FactoredNat, int]:
    """(n, t) with t = n / rad n: a_n(k) = a_(rad n)(k/t) if t | k, else 0.
    :func:`_kernel_row` reads only the primes of n, so rad n is never built."""
    fn = as_factored(n)
    return fn, fn.value // fn.radical()


def _log_rows(divides: np.ndarray, primes: List[int], top: int) -> np.ndarray:
    """Rows T_0..T_top of the recurrence, one per squarefree r, given which
    of `primes`, among them every prime of r, divide r:
    T_i = mu(r) mu(g) phi(g) = mu(r) prod_(p | g) (1 - p), g = gcd(i, r).
    A prime q > top of r changes only mu(r), so r and rq have opposite rows."""
    mu = 1 - 2 * (divides.sum(axis=1, dtype=np.int64) % 2)
    T = np.repeat(mu[:, None], top + 1, axis=1)
    factors = np.where(divides, 1 - np.array(primes, dtype=np.int64), 1)
    for i, p in enumerate(primes):
        if p <= top:
            T[:, p::p] *= factors[:, i, None]
    return T


def _recurrence(T: np.ndarray) -> np.ndarray:
    """Rows [b_0, ..., b_top] with b_0 = 1 and the log-derivative recurrence
    b_j = -(1/j) sum_(m<j) b_m T_(j-m), one step per j over every row of
    T at once; for the rows of :func:`_log_rows` these are the coefficients
    of prod_(d | r) (1 - X^d)^mu(r/d) mod X^(top+1), Phi_r for r >= 2 and
    -Phi_1 = 1 - X for r = 1.

    Heights: with |b_m| <= H for m < j, the sum of step j is at most
    H reach_j, reach_j = sum_(i<=j) max |T_i| over the rows, and |b_j| <=
    H reach_j / j.  :func:`_int64_bound` carries H, so the rows run in int64
    while H reach_j fits and turn to Python ints, once, if not.  Each step's
    sums are kept, and after the last step every b_j must give back its sum
    exactly as j b_j; a remainder raises InternalConsistencyError (it would
    mean a bug, not bad input).  Memory is a few arrays of the shape of T,
    so a batch comes in chunks (:func:`cyclo_coeff_pairs`)."""
    rows, width = T.shape
    top = width - 1
    b, sums, minus_T = np.zeros_like(T), np.zeros((width, rows, 1, 1), T.dtype), -T[:, ::-1]
    b[:, 0] = 1
    reach = np.abs(T).max(axis=0).astype(object).cumsum().tolist()  # Python ints: no wrap

    def views():
        return b[:, None, :], minus_T[:, :, None], b.T[:, :, None, None]

    prefix, terms, column = views()
    bound = 1  # >= |b_m| for m < j; 0 once in Python ints
    for j in range(1, width):
        bound = _int64_bound(bound, reach[j], b)  # measures all of b: b_m = 0 for m >= j
        if not bound and b.dtype != object:
            b, sums, minus_T = (a.astype(object) for a in (b, sums, minus_T))
            prefix, terms, column = views()
        # sum_(m<j) b_m * -T_(j-m), as minus_T[:, top - j + m] = -T_(j-m)
        np.matmul(prefix[:, :, :j], terms[:, top - j : top], out=sums[j])
        np.floor_divide(sums[j], j, out=column[j])
        bound = max(bound, bound * reach[j] // j)
    inexact = np.flatnonzero(b[:, 1:] * np.arange(1, width) != sums[1:, :, 0, 0].T)
    if inexact.size:
        raise InternalConsistencyError(
            f"inexact division at step {inexact[0] % top + 1} of the coefficient recurrence")
    return b


def _kernel_row(fn: FactoredNat, kmax: int) -> List[int]:
    """[a_r(0), ..., a_r(kmax)] for the squarefree kernel r = rad n of
    n >= 2: one row of :func:`_recurrence`, run to min(kmax, phi(r)), past
    which Phi_r has no coefficient."""
    top = min(kmax, math.prod(p - 1 for p, _ in fn.factors))
    row = _recurrence(_log_rows(np.ones((1, len(fn.factors)), bool), fn.primes(), top))[0]
    return row.tolist() + [0] * (kmax - top)


def cyclo_coeff(n: FactoredLike, k: int) -> int:
    """a_n(k) via kernel reduction and the log-derivative recurrence.

    Conventions: a_n(k) = 0 for k > phi(n); Phi_1 = X - 1 handled as an
    explicit table."""
    if k < 0:
        raise ValueError("coefficient index k must be >= 0")
    fn, t = _kernel_reduction(n)
    if fn.value == 1:
        return (-1, 1)[k] if k <= 1 else 0
    if k % t or k > fn.phi():
        return 0
    return _kernel_row(fn, k // t)[k // t]


def cyclo_coeff_prefix(n: FactoredLike, kmax: int) -> List[int]:
    """[a_n(0), ..., a_n(kmax)] in one recurrence pass (the per-index
    work of cyclo_coeff amortized; same kernel reduction, same exactness
    checks)."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    fn, t = _kernel_reduction(n)
    if fn.value == 1:
        return [-1, 1][: kmax + 1] + [0] * max(0, kmax - 1)
    out = [0] * (kmax + 1)
    out[::t] = _kernel_row(fn, kmax // t)
    return out


def cyclo_coeff_pairs(keys: np.ndarray, k: int) -> np.ndarray:
    """(a_n(k), a_(nq)(k)) for each n >= 1 of the integer array `keys`,
    every prime of n at most k and q the least prime above k, as an int64
    array of shape (len(keys), 2): the values that a scan's keys n_S take
    (:mod:`cyclodist.empirics`), in one batched recurrence.

    The radical R and t = n / R of each key come from one pass over the
    primes <= k, and a_n(k) = a_R(k/t) where t | k, else 0.  The keys that
    share t form one batch, run to column k/t in chunks of _CHUNK keys
    (no sort: one pass per divisor t of k).  Each key gives two rows: T of
    R (:func:`_log_rows`), and -T, which is the row of Rq.  For n = 1 the
    first row is -Phi_1, so its sign is flipped."""
    keys = np.asarray(keys, dtype=np.int64)
    primes = small_primes(k)
    rad = np.ones_like(keys)
    for p in primes:
        rad[keys % p == 0] *= p
    t = keys // rad
    out = np.zeros((len(keys), 2), dtype=np.int64)
    for d in as_factored(k).divisors():
        col = k // d
        batch = np.flatnonzero(t == d)
        for lo in range(0, len(batch), _CHUNK):
            idx = batch[lo : lo + _CHUNK]
            divides = np.take(rad, idx)[:, None] % np.array(primes, dtype=np.int64) == 0
            T = _log_rows(divides, primes, col)
            b = _recurrence(np.concatenate((T, -T)))[:, col]
            out[idx, 0], out[idx, 1] = b[: len(idx)], b[len(idx) :]
    out[keys == 1, 0] *= -1
    return out


def _phi_1_rows(rows: int, k: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """(F, G), each rows x (k+1), with row 0 holding Phi_1 = X - 1 and
    1/Phi_1 = -sum X^i mod X^(k+1) and the other rows zero."""
    F = np.zeros((rows, k + 1), dtype)
    G = np.zeros((rows, k + 1), dtype)
    F[0, 0] = -1
    if k >= 1:
        F[0, 1] = 1
    G[0, :] = -1
    return F, G


def _lift(F: np.ndarray, G: np.ndarray, p: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rows Phi_dp and 1/Phi_dp mod X^(k+1) from rows F = Phi_d and
    G = 1/Phi_d mod X^(k+1), for d coprime to the prime p.

    Phi_dp = Phi_d(X^p) / Phi_d(X) = Phi_d(X^p) * G and 1/Phi_dp = F * G(X^p),
    each a product with a series of floor(k/p) + 1 terms, so nothing is
    divided.  Integer rows run in int64, which must hold (floor(k/p) + 1) H^2,
    H = max|coefficient| (<= 128 in the lattice's int8 rows, else measured),
    or InternalConsistencyError (it would wrap silently); object rows are exact."""
    terms = k // p + 1
    if F.dtype.kind == "i":
        top = 128 if F.dtype == np.int8 else max(_height(F, G), 1)
        if not _int64_bound(top, terms * top):
            raise InternalConsistencyError(
                f"lift by p={p} at k={k}: coefficients up to {top} overflow int64")
        F, G = F.astype(np.int64, copy=False), G.astype(np.int64, copy=False)
    F_dp = np.zeros_like(F)
    G_dp = np.zeros_like(G)
    for j in range(terms):
        s = j * p
        F_dp[:, s:] += F[:, j : j + 1] * G[:, : k + 1 - s]
        G_dp[:, s:] += G[:, j : j + 1] * F[:, : k + 1 - s]
    return F_dp, G_dp


def cyclo_coeff_series(n: FactoredLike, k: int) -> int:
    """a_n(k) for squarefree n >= 2 from the truncated series of Phi_n and
    1/Phi_n: one :func:`_lift` per prime p <= k of n, starting from Phi_1.

    A prime q > k of n enters only through Phi_(mq) = Phi_m(0)/Phi_m mod
    X^(k+1), so their count c picks Phi_s or 1/Phi_s (s the part of n at
    the primes <= k), times Phi_s(0) = -1 when s = 1 (then c >= 1).  The
    row holds Python ints, so no k is too large for exact arithmetic."""
    if k < 0:
        raise ValueError("coefficient index k must be >= 0")
    fn = as_factored(n)
    if fn.value < 2 or not fn.is_squarefree():
        raise ValueError("series path requires squarefree n >= 2 (reduce first)")
    F, G = _phi_1_rows(1, k, object)
    above = 0
    for p, _ in fn.factors:
        if p <= k:
            F, G = _lift(F, G, p, k)
        else:
            above += 1
    sign = -1 if above == len(fn.factors) else 1
    return sign * int((G if above % 2 else F)[0, k])


def cyclo_coeff_partition(n: FactoredLike, k: int) -> int:
    """a_n(k) for n >= 2 from the divisor product truncated at X^k.

    Expanded term by term, this coefficient is the partition sum over k
    with parts j | n, mu(n/j) != 0: a part with mu(n/j) = +1 contributes
    factor -1 and appears at most once, one with mu(n/j) = -1 contributes
    +1 at any multiplicity."""
    if k < 0:
        raise ValueError("coefficient index k must be >= 0")
    fn = as_factored(n)
    if fn.value < 2:
        raise ValueError("partition path requires n >= 2")
    if k > fn.phi():
        return 0
    return int(_divisor_product(fn, k)[k])


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


def _divisor_product(fn: FactoredNat, top: int) -> np.ndarray:
    """Coefficients X^0..X^top of prod_(d | n, d <= top) (1 - X^d)^mu(n/d),
    which is Phi_n mod X^(top+1) for n >= 2 (the signs of the factors
    X^d - 1 cancel, as sum_(d|n) mu(n/d) = 0), exact at any height: int64
    while that provably holds every coefficient, then Python ints.

    Times 1 - X^d is one shifted subtract, at most doubling the height
    H = max|coefficient|; times 1/(1 - X^d) = sum_j X^(jd) is a prefix sum
    along each residue class mod d, at most H * (top//d + 1), checked by
    :func:`_int64_bound` on a carried H.  The divisors d <= top come in the
    order iter_divisors_factored yields them, which mixes the two kinds of
    factor: at n = 255255 no intermediate coefficient exceeds 1,200, while
    all subtractions first reach 61,341 and all prefix sums first 10^40."""
    if top > CYCLO_POLY_MAX_DEGREE:
        raise ResourceBudgetError(
            f"Phi_{fn.value} to degree {top} exceeds the {CYCLO_POLY_MAX_DEGREE} "
            "degree budget"
        )
    out = np.zeros(top + 1, dtype=np.int64)
    out[0] = bound = 1  # bound >= H; 0 once in Python ints
    for fd in fn.iter_divisors_factored(upto=top):
        d = fd.value
        mu = _mu_quotient(fn, fd)
        if mu == 0:
            continue
        growth = 2 if mu == 1 else top // d + 1
        bound = _int64_bound(bound, growth, out) * growth
        if not bound and out.dtype != object:
            out = out.astype(object)
        if mu == 1:
            out[d:] = out[d:] - out[:-d]
        else:
            classes = np.concatenate([out, np.zeros(-(top + 1) % d, dtype=out.dtype)])
            classes = classes.reshape(-1, d)
            if len(classes) > d:
                classes = classes.cumsum(axis=0)
            else:  # few long rows: cumsum(axis=0) would step down each column
                for i in range(1, len(classes)):
                    classes[i] += classes[i - 1]
            out = classes.ravel()[: top + 1]
    return out


def cyclo_poly(n: FactoredLike) -> List[int]:
    """All phi(n)+1 coefficients of Phi_n, low degree first: the divisor
    product to full degree, which must come out monic and palindromic."""
    fn = as_factored(n)
    if fn.value == 1:
        return [-1, 1]
    poly = _divisor_product(fn, fn.phi()).tolist()
    if poly[-1] != 1 or poly != poly[::-1]:
        raise InternalConsistencyError(
            f"expansion of Phi_{fn.value} is not monic and palindromic"
        )
    return poly


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
    determine the mean and value distribution of a_n(k) over n.  Row i of
    `entries` is the divisor at position i of the caps grid `m_k.factors`
    (the first prime most significant, as in FactoredNat.iter_divisors_factored
    and :func:`cyclodist.density.split_density`); row 0 is d = 1."""

    k: int
    q: int
    m_k: FactoredNat
    entries: np.ndarray  # int8, shape (tau(M_k), 2): row i -> (a_d(k), a_dq(k))


def support_modulus(k: int) -> FactoredNat:
    """M_k = k * prod_(p<=k) p with its factorization."""
    return reduce(FactoredNat.times_prime, small_primes(k), as_factored(k))


_LIFT_BLOCK = 4096  # rows per int64 block of a lattice lift


def _profile_lattice(primes: List[int], k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Phi_r and 1/Phi_r mod X^(k+1) for every squarefree r over `primes`,
    as int8 rows indexed by bitmask (bit i set iff primes[i] divides r).

    The rows with largest prime primes[i] are one :func:`_lift` of the 2^i
    rows before them, in blocks it widens to int64; storing a value outside
    int8 raises InternalConsistencyError instead of wrapping."""
    F, G = _phi_1_rows(1 << len(primes), k, np.int8)
    for i, p in enumerate(primes):
        half = 1 << i
        for lo in range(0, half, _LIFT_BLOCK):
            hi = min(lo + _LIFT_BLOCK, half)
            F_p, G_p = _lift(F[lo:hi], G[lo:hi], p, k)
            if _height(F_p, G_p) > np.iinfo(np.int8).max:
                raise InternalConsistencyError(f"lattice coefficient at k={k} overflows int8")
            F[half + lo : half + hi] = F_p
            G[half + lo : half + hi] = G_p
    return F, G


# (K, F, G): the largest lattice built so far, read-only (see _lattice)
_kept_lattice: Optional[Tuple[int, np.ndarray, np.ndarray]] = None


def _lattice(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """What _profile_lattice(small_primes(k), k) returns, as read-only views
    of the kept lattice of some K >= k: its first 2^pi(k) rows are the r
    over the primes <= k, and its first k + 1 columns are the series mod
    X^(k+1), as truncation commutes with the products of the lift.  For
    k > K the kept lattice is dropped before the build at k, so the two
    never coexist."""
    global _kept_lattice
    primes = small_primes(k)
    if _kept_lattice is None or _kept_lattice[0] < k:
        _kept_lattice = None
        F, G = _profile_lattice(primes, k)
        F.flags.writeable = G.flags.writeable = False
        _kept_lattice = (k, F, G)
    rows = 1 << len(primes)
    return tuple(series[:rows, : k + 1] for series in _kept_lattice[1:])


@lru_cache(maxsize=1)
def coeff_profile(k: int) -> CoeffProfile:
    """Divisor-indexed coefficient pairs behind the exact distribution of
    a_n(k), for 2 <= k <= PROFILE_MAX_K.  The last profile is kept, since
    the mean, the densities and the value set of one k all fold over it.

    Every divisor of M_k is d = r * t with r = rad(d) squarefree over the
    primes <= k and t = d / r dividing k (an exponent of M_k is at most
    nu_p(k) + 1).  So a_d(k) = a_r(k/t), read from the lattice of
    :func:`_profile_lattice`, and a_(dq)(k) = Phi_r(0) * [X^(k/t)] 1/Phi_r,
    since Phi_(rq) = Phi_r(0)/Phi_r mod X^(k+1) for the prime q > k.  Only
    the columns k/t of the first 2^pi(k) rows are read out; the bitmask of r
    and the column of t are tabulated by position as outer products over the
    caps.  The lattice is built once for the largest k asked so far and kept
    for the process (:func:`_lattice`), so a sweep over k builds it once
    if it starts at the top.  At k = 61 it holds 2^18 rows of each series
    (32.5 MB of int8), a build takes about 0.25 s, and a density fold there
    peaks the process at about 77 MB (2 cores)."""
    if k < 2:
        raise ValueError("coefficient profile requires k >= 2 (k = 1 is special-cased by callers)")
    if k > PROFILE_MAX_K:
        raise ResourceBudgetError(f"coefficient profile limited to k <= {PROFILE_MAX_K}")
    m_k = support_modulus(k)
    quots = as_factored(k).divisors()
    F, G = (rows[:, [k // t for t in quots]] for rows in _lattice(k))
    mask, t = np.zeros(1, np.int64), np.ones(1, np.int64)
    for i, (p, cap) in enumerate(m_k.factors):
        e = np.arange(cap + 1)
        mask = np.add.outer(mask, np.minimum(e, 1) << i).ravel()
        t = np.multiply.outer(t, p ** np.maximum(e - 1, 0)).ravel()
    col = np.searchsorted(quots, t)
    entries = np.stack((F[mask, col], G[mask, col]), axis=1)
    entries[0, 1] = -entries[0, 1]  # Phi_1(0) = -1
    entries.flags.writeable = False  # every caller of the cache shares it
    return CoeffProfile(k, least_prime_above(k), m_k, entries)


def _distinct_int8(rows: np.ndarray) -> List[int]:
    """The distinct values of int8 rows: the byte values that occur, counted
    by np.bincount and read back as int8 (no sort, no list of every entry)."""
    seen = np.flatnonzero(np.bincount(rows.ravel().view(np.uint8), minlength=256))
    return seen.astype(np.uint8).view(np.int8).tolist()


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
    odd_rows = len(profile.entries) // (profile.m_k.factors[0][1] + 1)  # nu_2(d) = 0: 2 leads
    odd, even = (frozenset({0, *_distinct_int8(rows)}) for rows in
                 (profile.entries[:odd_rows], profile.entries[odd_rows:]))
    full = odd | even
    return ValueSetReport(k, full, odd, even, max(abs(v) for v in full))


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
