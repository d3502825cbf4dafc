"""Exact density tables.

A :class:`DensityTable` maps each nonzero value v of a statistic to an
exact rational coefficient on a symbolic basis: 1, 6/pi^2 (natural
densities over the integers), or the Artin constant A (relative densities
over the primes).  The v = 0 entry is implicit: its mass is whatever is
left to bring the total to 1.

Every exact table is one :func:`split_density` fold: the statistics of n
(or of p - 1) studied here depend only on the part n_S at a finite prime
set S and on the Möbius sign of the cofactor, so their distribution is a
sum of local valuation weights over the exponent vectors at S.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .cyclotomic import _INT64_MAX, _distinct_int8


class Basis(enum.Enum):
    ONE = "ONE"
    SIX_OVER_PI2 = "SIX_OVER_PI2"
    ARTIN = "ARTIN"


@lru_cache(maxsize=1)
def _artin_default() -> float:
    # local import: densities_prime depends on this module
    from .densities_prime import artin_constant_accelerated

    return artin_constant_accelerated().value


def basis_numeric(basis: Basis) -> float:
    if basis is Basis.ONE:
        return 1.0
    if basis is Basis.SIX_OVER_PI2:
        return 6.0 / math.pi**2
    return _artin_default()


@dataclass(frozen=True)
class DensityTable:
    """Nonzero-value densities of an integer statistic: values[i] has the
    density nums[i] / denom times `basis`, the integer numerators and the one
    denominator of the fold.  `entries`, the reduced (value, Fraction) pairs,
    is made when first read.  `conditional` flags tables that rest on the
    unproved sign-equidistribution conjecture for Möbius values over
    shifted primes.

    A table is checked when it is built: each num and denom is a plain int
    (not a bool), or TypeError; one num per value, strictly increasing
    values, positive nums and denom, and a nonzero mass of at most 1 (exact
    on Basis.ONE, else a float product within 1 + 1e-12, a mass past the
    float range too much), or ValueError.
    """

    statistic: str
    basis: Basis
    values: Tuple[int, ...]
    nums: Tuple[int, ...]
    denom: int
    conditional: bool = False

    def __post_init__(self):
        for n in (*self.nums, self.denom):
            if type(n) is not int:
                raise TypeError(f"density numerator or denominator {n!r} is not an int")
        if len(self.values) != len(self.nums):
            raise ValueError("density table has not one numerator per value")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("density table values are not strictly increasing")
        if self.denom <= 0 or any(n <= 0 for n in self.nums):
            raise ValueError("density table carries a non-positive numerator or denominator")
        total = sum(self.nums)
        try:
            over = (total > self.denom if self.basis is Basis.ONE
                    else total / self.denom * basis_numeric(self.basis) > 1 + 1e-12)
        except OverflowError:  # a mass past the float range
            over = True
        if over:
            raise ValueError(f"density table nonzero mass {total}/{self.denom} exceeds 1")

    @cached_property
    def entries(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple((v, Fraction(n, self.denom)) for v, n in zip(self.values, self.nums))

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.entries)

    def coefficient(self, v: int) -> Fraction:
        i = bisect_left(self.values, v)
        if i < len(self.values) and self.values[i] == v:
            return Fraction(self.nums[i], self.denom)
        return Fraction(0)

    def nonzero_mass(self) -> Fraction:
        """Total coefficient of all nonzero values (on `basis`)."""
        return Fraction(sum(self.nums), self.denom)

    def numeric(self, v: int) -> float:
        b = basis_numeric(self.basis)
        if v == 0:
            return 1.0 - float(self.nonzero_mass()) * b
        return float(self.coefficient(v)) * b

    def moment(self, order: int) -> Fraction:
        """sum_v v^order * coefficient(v), exact, on `basis` (the implicit
        v = 0 entry contributes nothing for order >= 1)."""
        if order < 1:
            raise ValueError("moment order must be >= 1")
        return Fraction(sum(v**order * n for v, n in zip(self.values, self.nums)), self.denom)

    def payload(self) -> dict:
        """The table as JSON-ready data, one record per nonzero value."""
        b = basis_numeric(self.basis)
        entries = [{"value": v, "coeff": str(c), "basis": self.basis.value, "numeric": float(c) * b}
                   for v, c in self.entries]
        return {"statistic": self.statistic, "conditional": self.conditional, "entries": entries,
                "zero_mass_numeric": self.numeric(0)}


# -- the split-profile fold ---------------------------------------------------------

ExponentSpec = Union[int, Tuple[str, int]]  # e or ("ge", E)


def local_valuation_density(q: int, spec: ExponentSpec) -> Fraction:
    """delta(nu_q(p-1) = e) = 1 - 1/(q-1) (e = 0) or q^-e (e >= 1);
    tail classes ("ge", E) sum the geometric series."""
    if isinstance(spec, tuple):
        e = spec[1]
        if e == 0:
            return Fraction(1)
        return Fraction(1, q ** (e - 1) * (q - 1))
    if spec == 0:
        return 1 - Fraction(1, q - 1)
    return Fraction(1, q**spec)


def artin_local_factor(q: int) -> Fraction:
    return 1 - Fraction(1, q * (q - 1))


@lru_cache(maxsize=None)
def _local_weight(basis: Basis, q: int, e: int) -> Fraction:
    """Density, relative to the basis, of the class nu_q = e with the
    cofactor squarefree at q: over n, q^-e / (1 + 1/q) on 6/pi^2; over
    p - 1, delta(nu_q(p-1) = e) / (1 - 1/(q(q-1))) on A."""
    if basis is Basis.SIX_OVER_PI2:
        return Fraction(1, q**e) / (1 + Fraction(1, q))
    if basis is Basis.ARTIN:
        return local_valuation_density(q, e) / artin_local_factor(q)
    raise ValueError(f"no split-profile weights on basis {basis.value}")


def split_density(
    statistic: str,
    basis: Basis,
    caps: Sequence[Tuple[int, int]],
    pairs: np.ndarray,
    keep: Optional[Callable[[int, int], bool]] = None,
    conditional: bool = False,
) -> DensityTable:
    """Value distribution of a statistic of n (basis 6/pi^2) or of p - 1
    (basis A) that depends only on n_S, the part of n at the primes q of
    `caps`, and on the Möbius sign of the cofactor n / n_S.

    Every exponent vector with e_q <= cap_q carries the density
    prod_q w(q, e_q) of its class with a squarefree cofactor
    (:func:`_local_weight`; 0 where `keep(q, e_q)` is false), split evenly
    between the two signs.  `pairs`, an integer or object array of shape
    (prod_q (cap_q + 1), 2), holds in row i the values for sign +1 and -1 at
    the vector whose exponents are the mixed-radix digits of i, the first
    prime of `caps` most significant (the order of itertools.product over
    the ranges 0..cap_q).  Exponents past a cap, and cofactors that are not
    squarefree, must give the value 0, whose mass stays implicit.

    Each prime's weights are integer numerators num_q(e) over one common
    denominator; the dtype of `pairs` picks the fold, and one that is neither
    integer nor object raises TypeError.  The table keeps each value's
    numerator over that denominator.

    * int8 pairs (the coefficient profiles) are folded in int64.  The head
      is the longest leading run of primes for which 2 prod_(q in head)
      sum_e num_q(e), the largest sum one value can collect over the head's
      cells and both signs, stays within _INT64_MAX; the tail is the rest,
      the largest primes, which vary fastest in row order.  So the pairs are
      a (H, T, 2) view, H head cells by T tail cells, and the head weights
      are summed per (tail cell, value) into a T x V int64 table by one
      np.add.at, V the number of distinct values, then contracted with the
      tail weights in Python ints.  At k = 61 the profile has V = 27, and
      T = 12 over n or 384 over p - 1; the head covers every prime (T = 1)
      up to k = 43 over n and k = 28 over p - 1.
    * Other pairs (c_n(m), nearly one value per row, unbounded) are folded
      row by row in Python ints: the row's weight numerator, the product of
      its primes' numerators, is added to a dict keyed by value once per
      sign, and a row of weight 0 adds nothing."""
    if not (np.issubdtype(pairs.dtype, np.integer) or pairs.dtype == object):
        raise TypeError(f"split_density folds integer or object pairs, not {pairs.dtype}")
    denom, nums = 2, []
    for q, cap in caps:
        local = [_local_weight(basis, q, e) if keep is None or keep(q, e) else Fraction(0)
                 for e in range(cap + 1)]
        den = math.lcm(*(w.denominator for w in local))
        nums.append([w.numerator * (den // w.denominator) for w in local])
        denom *= den
    if pairs.dtype != np.int8:
        weights = [1]
        for num in nums:
            weights = [w * x for w in weights for x in num]
        sums = {}
        for w, (plus, minus) in zip(weights, pairs.tolist()):
            if w:
                sums[plus] = sums.get(plus, 0) + w
                sums[minus] = sums.get(minus, 0) + w
        items = sums.items()
    else:
        split, bound = 0, 2
        for num in nums:
            bound *= sum(num)
            if bound > _INT64_MAX:
                break
            split += 1
        values = _distinct_int8(pairs)  # at most 256
        code = np.zeros(256, dtype=np.intp)
        code[np.array(values, dtype=np.int8).view(np.uint8)] = np.arange(len(values))
        head, tail = np.ones(1, dtype=np.int64), np.ones(1, dtype=object)
        for num in nums[:split]:
            head = np.multiply.outer(head, np.array(num, dtype=np.int64)).ravel()
        for num in nums[split:]:
            tail = np.multiply.outer(tail, np.array(num, dtype=object)).ravel()
        at = code[pairs.view(np.uint8)].reshape(len(head), len(tail), 2)
        at += (np.arange(len(tail)) * len(values))[:, None]
        sums = np.zeros(len(tail) * len(values), dtype=np.int64)
        np.add.at(sums, at.ravel(), np.repeat(head, 2 * len(tail)))
        items = zip(values, (tail @ sums.reshape(len(tail), len(values)).astype(object)).tolist())
    kept = sorted((v, num) for v, num in items if v and num)
    return DensityTable(statistic, basis, tuple(v for v, _ in kept), tuple(num for _, num in kept),
                        denom, conditional)
