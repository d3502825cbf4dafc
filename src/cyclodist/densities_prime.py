"""Densities and averages over shifted primes p - 1.

Everything here is an exact rational multiple of the Artin constant

    A = prod_p (1 - 1/(p(p-1))) = 0.3739558136...,

which is also the density of primes p with p - 1 squarefree.  The local
ingredients are the valuation densities delta(nu_q(p-1) = e) (1 - 1/(q-1)
for e = 0, q^-e for e >= 1) and the requirement that the cofactor of p - 1
outside a finite prime set be squarefree.  Signed statements (splitting a
value class between +v and -v) additionally assume that Möbius signs over
such shifted-prime classes equidistribute; those outputs carry an explicit
``conditional`` flag.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .arith import (DEFAULT_SIEVE_LIMIT, MAX_SIEVE_LIMIT, FactoredLike, SievePack, as_factored,
                    default_pack, is_prime_int, small_primes)
from .cyclotomic import coeff_profile
from .density import (Basis, DensityTable, ExponentSpec, artin_local_factor,
                      local_valuation_density, split_density)
from .errors import InternalConsistencyError, ResourceBudgetError
from .ramanujan import _local_moment, _moment_budget, ramanujan_split

#: pi(x) < 1.25506 x / log x (Rosser-Schoenfeld) turns, via partial
#: summation, into  sum_(p > P) 1/(p(p-1)) <= 2.52 / (P log P).
_TAIL_CONSTANT = 2.52
#: slack for float rounding in the truncated product accumulation
_FLOAT_SLACK = 1e-12
#: primes per block of a truncated product's log-sum
_BLOCK = 1 << 16


@dataclass(frozen=True)
class EulerProductConstant:
    """A truncated Euler product with a proven bound on the truncation error."""

    value: float
    truncation_prime: int
    tail_bound: float


def _log_product(primes: np.ndarray, log_factor: Callable[[np.ndarray], np.ndarray]) -> float:
    """exp of the sum of log_factor(p) over `primes`, summed in float64 one
    block of _BLOCK primes at a time, so no temporary spans the prime list."""
    total = 0.0
    for lo in range(0, len(primes), _BLOCK):
        total += float(log_factor(primes[lo : lo + _BLOCK].astype(np.float64)).sum())
    return float(np.exp(total))


def _tail_bound(limit: int) -> float:
    return _TAIL_CONSTANT / (limit * math.log(limit)) + _FLOAT_SLACK


def sieve_limit_for_precision(precision_goal: float) -> int:
    """max(DEFAULT_SIEVE_LIMIT, the least L with _tail_bound(L) <= goal); a
    goal that is not positive and finite, or past MAX_SIEVE_LIMIT, is
    refused before any sieve is built."""
    if not 0 < precision_goal < math.inf:
        raise ValueError(f"precision goal must be positive and finite, got {precision_goal}")
    limits = range(DEFAULT_SIEVE_LIMIT, MAX_SIEVE_LIMIT + 1)  # the bound falls as L grows
    i = bisect.bisect_left(limits, True, key=lambda limit: _tail_bound(limit) <= precision_goal)
    if i == len(limits):
        raise ResourceBudgetError(f"precision goal {precision_goal:.3g} is past the sieve budget")
    return limits[i]


def check_kfree_order(k: int) -> None:
    """Refuse a powerfree order below 2."""
    if k < 2:
        raise ValueError("powerfree order k must be >= 2")


def artin_constant(
    precision_goal: float = 1e-8, pack: Optional[SievePack] = None
) -> EulerProductConstant:
    """A = prod_p (1 - 1/(p(p-1))) truncated over the pack's primes: the
    value `constants` reports, and the independent check of
    `artin_constant_accelerated`, which every density table uses.

    The documented tail estimate 2.52/(P log P) must not exceed the goal,
    otherwise the given sieve cannot reach the precision and the request
    is refused; without a pack, the shared one covers the limit of
    :func:`sieve_limit_for_precision`, which refuses a bad goal before any
    sieve is built."""
    limit = sieve_limit_for_precision(precision_goal)
    pack = pack or default_pack(limit)
    bound = _tail_bound(pack.limit)
    if bound > precision_goal:
        raise ResourceBudgetError(
            f"tail bound {bound:.3g} at sieve limit {pack.limit} exceeds "
            f"precision goal {precision_goal:.3g}"
        )
    value = _log_product(pack.primes, lambda p: np.log1p(-1.0 / (p * (p - 1.0))))
    return EulerProductConstant(value, int(pack.primes[-1]), bound)


#: primes up to this cutoff enter the accelerated product for A
_ARTIN_CUTOFF = 100_000


def artin_constant_accelerated() -> EulerProductConstant:
    """A without a sieve, by dividing out zeta(2) (Wrench, Math. Comp. 15,
    1961):

        (1 - 1/(p(p-1))) / (1 - p^-2) = 1 - 1/((p-1)^2 (p+1)),

    so A = (6/pi^2) prod_p (1 - 1/((p-1)^2 (p+1))), whose factors approach 1
    like p^-3.  The product runs over the primes p <= N = _ARTIN_CUTOFF
    (even).  Every omitted factor has x = 1/((p-1)^2 (p+1)) < 1/(p-1)^3
    with p - 1 = 2j even and j >= N/2, and -log(1 - x) <= 2x for x <= 1/2,
    so the omitted log-product is at most
    (2/8) sum_(j >= N/2) j^-3 <= 1/(2 (N-2)^2).  The truncated value
    exceeds A by a factor e^t with t at most that, i.e. by at most t
    since the value is below 1."""
    primes = small_primes(_ARTIN_CUTOFF)
    value = 6.0 / math.pi**2 * _log_product(
        np.array(primes), lambda p: np.log1p(-1.0 / ((p - 1.0) ** 2 * (p + 1.0))))
    bound = 1.0 / (2.0 * (_ARTIN_CUTOFF - 2) ** 2) + _FLOAT_SLACK
    return EulerProductConstant(value, primes[-1], bound)


def shifted_prime_kfree_density(
    r: int, k: int, pack: Optional[SievePack] = None
) -> EulerProductConstant:
    """Density of primes q with q - r k-th-power-free:
    prod_(p not dividing r) (1 - 1/(p^(k-1) (p-1)))."""
    if r == 0:
        raise ValueError("shift r must be nonzero")
    check_kfree_order(k)
    pack = pack or default_pack()
    qs = as_factored(abs(r)).primes()

    def log_factor(p: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            terms = np.log1p(-1.0 / (p ** (k - 1) * (p - 1.0)))
        mask = np.isfinite(terms)
        for q in qs:
            mask &= p != q
        return terms[mask]

    value = _log_product(pack.primes, log_factor)
    return EulerProductConstant(value, int(pack.primes[-1]), _tail_bound(pack.limit))


# -- valuation profiles ----------------------------------------------------------


@dataclass(frozen=True)
class ValuationConstraint:
    """Prescribed valuations nu_q(p-1) at finitely many primes q, plus the
    condition that p - 1 be squarefree outside those primes.

    Each exponent is either an exact value e >= 0 or ("ge", E)."""

    entries: Tuple[Tuple[int, ExponentSpec], ...]
    squarefree_outside: bool = True

    def __post_init__(self):
        last = 1
        for q, spec in self.entries:
            if q <= last or not is_prime_int(q):
                raise ValueError("constraint primes must be distinct, increasing primes")
            last = q
            if isinstance(spec, tuple):
                tag, e = spec
                if tag != "ge" or e < 0:
                    raise ValueError(f"bad exponent spec {spec}")
            elif spec < 0:
                raise ValueError("exponents must be >= 0")
        # q -> spec, built once; not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "_specs", dict(self.entries))

    def allows(self, q: int, e: int) -> bool:
        """Does nu_q(p-1) = e satisfy the prescription at q (if any)?"""
        spec = self._specs.get(q)
        if isinstance(spec, tuple):
            return e >= spec[1]
        return spec is None or e == spec

    def matches(self, factors: Sequence[Tuple[int, int]]) -> bool:
        """Does a factorization of p - 1 satisfy the valuation part?"""
        exps = dict(factors)
        return all(self.allows(q, exps.get(q, 0)) for q in self._specs)

    def primes(self) -> Tuple[int, ...]:
        return tuple(q for q, _ in self.entries)


@dataclass(frozen=True)
class ProfileDensity:
    coefficient: Fraction
    basis: Basis
    note: Optional[str] = None


def valuation_profile_density(constraint: ValuationConstraint) -> ProfileDensity:
    """Density of primes p whose p - 1 satisfies the constraint.

    With the squarefree-outside condition the result is the exact rational
    multiple of A obtained by dividing out the constrained primes' local
    Artin factors; without it only the local valuation densities remain
    (basis 1).  Contradictory prescriptions (e.g. nu_2(p-1) = 0) come out
    as coefficient 0."""
    coeff = Fraction(1)
    note = None
    for q, spec in constraint.entries:
        local = local_valuation_density(q, spec)
        if local == 0:
            note = f"nu_{q}(p-1) = {spec} never occurs (local density 0)"
        coeff *= local
    if not constraint.squarefree_outside:
        return ProfileDensity(coeff, Basis.ONE, note)
    for q, _ in constraint.entries:
        coeff /= artin_local_factor(q)
    return ProfileDensity(coeff, Basis.ARTIN, note)


# -- Ramanujan sums over shifted primes -------------------------------------------


def ramanujan_prime_density(k: FactoredLike, signed: bool = False) -> DensityTable:
    """Value distribution of c_(p-1)(k) over primes p, basis A.

    Unsigned (|c|) is unconditional; `signed` splits every profile evenly
    between the two Möbius signs of the cofactor and is flagged
    conditional."""
    fk = as_factored(k)
    caps, pairs = ramanujan_split(fk)
    if signed:
        return split_density(f"c_(p-1)({fk.value})", Basis.ARTIN, caps, pairs, conditional=True)
    return split_density(f"|c_(p-1)({fk.value})|", Basis.ARTIN, caps, np.abs(pairs))


def ramanujan_prime_moment(
    k: FactoredLike, z: Union[int, float, Fraction]
) -> Tuple[Union[Fraction, float], Basis]:
    """z-th absolute moment of c_(p-1)(k) over primes, as a multiple of A:

        prod_(q|k) (1 + (q^(nu(z-1)) - 1)(q-1)[(q-1)^z + q^(z-1) - 1]
                        / ((q^2 - q - 1)(q^(z-1) - 1)))

    Exact rational for integer z (a float with an integer value among them),
    the ratio (q^(nu(z-1)) - 1) / (q^(z-1) - 1) taken as the integer
    sum_(i<nu) q^(i(z-1)), which is nu at z = 1, the mean; each factor checked
    against :func:`cyclodist.ramanujan._local_moment`, and refused past
    :data:`cyclodist.ramanujan.MOMENT_MAX_BITS`.  Floating point otherwise
    (per-factor error ~1e-12), refused past the float range."""
    if isinstance(z, float) and z.is_integer() or isinstance(z, Rational) and z.denominator == 1:
        z = int(z)
    if not z > 0:
        raise ValueError("moment order z must be positive")
    fk = as_factored(k)
    if isinstance(z, int):
        _moment_budget(fk, z)
        coeff = Fraction(1)
        for q, nu in fk.factors:
            ratio = sum(q ** (i * (z - 1)) for i in range(nu))
            factor = 1 + Fraction(ratio * (q - 1) * ((q - 1) ** z + q ** (z - 1) - 1), q * q - q - 1)
            if factor != _local_moment(Basis.ARTIN, q, nu, z):
                raise InternalConsistencyError(f"moment factor mismatch at q={q}, nu={nu}, z={z}")
            coeff *= factor
        return coeff, Basis.ARTIN
    z = float(z)
    coeff = 1.0
    try:
        for q, nu in fk.factors:
            qz = float(q) ** (z - 1)
            coeff *= 1 + ((qz**nu - 1) * (q - 1) * (float(q - 1) ** z + qz - 1)
                          / ((q * q - q - 1) * (qz - 1)))
    except OverflowError:  # a float power past the range raises; a float product turns inf
        coeff = math.inf
    if not math.isfinite(coeff):
        raise ResourceBudgetError(f"the z = {z} moment of |c_(p-1)(k)| is past the float range")
    return coeff, Basis.ARTIN


# -- a_(p-1)(k) and the elementary symmetric functions of primitive roots ----------


def coeff_prime_density(
    k: int, constraint: Optional[ValuationConstraint] = None
) -> Tuple[DensityTable, Fraction]:
    """Value distribution and mean of a_(p-1)(k) over primes p, as
    multiples of A (table coefficients are delta/A), optionally among the
    primes whose p - 1 meets the valuation part of `constraint`, which may
    only name primes <= k.  Conditional on the Möbius sign-equidistribution
    conjecture.

    The fold of :func:`cyclodist.densities_natural.coeff_density` over
    p - 1: the caps of M_k and the pairs of :func:`coeff_profile`, weighted
    by the valuation densities of p - 1, which vanish for odd divisors."""
    profile = coeff_profile(k)
    caps = profile.m_k.factors
    keep = None
    if constraint is not None:
        outside = set(constraint.primes()) - {q for q, _ in caps}
        if outside:
            raise ValueError(
                f"a_(p-1)({k}) does not depend on nu_q(p-1) for q in {sorted(outside)}"
            )
        keep = constraint.allows
    table = split_density(
        f"a_(p-1)({k})", Basis.ARTIN, caps, profile.entries, keep=keep, conditional=True
    )
    return table, table.moment(1)


def s_small_density(
    k: int, constraint: Optional[ValuationConstraint] = None
) -> DensityTable:
    """Distribution of the k-th elementary symmetric function of the
    primitive roots mod p, reduced to the symmetric residue range
    (optionally under a valuation constraint, as in
    :func:`coeff_prime_density`).  The primitive roots are the roots of
    Phi_(p-1) mod p, so s_k(p) = (-1)^k a_(p-1)(k) mod p, whose symmetric
    residue is (-1)^k a_(p-1)(k) itself once p > 2 B(k): the table of
    a_(p-1)(k), mirrored for odd k, for every k the coefficient profile
    covers.  Sign splits are conditional."""
    table, _ = coeff_prime_density(k, constraint)
    values, nums = table.values, table.nums
    if k % 2:
        values, nums = tuple(-v for v in reversed(values)), nums[::-1]
    return DensityTable(f"s_{k}(p) mod p", Basis.ARTIN, values, nums, table.denom, conditional=True)
