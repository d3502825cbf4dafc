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
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np


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
    """Nonzero-value densities of an integer statistic.

    `entries` maps value -> exact coefficient; every entry shares `basis`,
    so the density of v is entries[v] * basis.  `conditional` flags tables
    that rest on the unproved sign-equidistribution conjecture for Möbius
    values over shifted primes.
    """

    statistic: str
    basis: Basis
    entries: Tuple[Tuple[int, Fraction], ...]
    conditional: bool = False

    @classmethod
    def from_dict(
        cls,
        statistic: str,
        basis: Basis,
        mapping: Dict[int, Fraction],
        conditional: bool = False,
    ) -> "DensityTable":
        for c in mapping.values():  # Fraction(0.1) is the binary expansion of 0.1
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError(f"density coefficient {c!r} is not an int or a Fraction")
        items = tuple(
            (int(v), c if isinstance(c, Fraction) else Fraction(c))
            for v, c in sorted(mapping.items()) if c != 0
        )
        table = cls(statistic, basis, items, conditional)
        table.validate()
        return table

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.entries)

    def coefficient(self, v: int) -> Fraction:
        for value, coeff in self.entries:
            if value == v:
                return coeff
        return Fraction(0)

    def values(self) -> list:
        return [v for v, _ in self.entries]

    def nonzero_mass(self) -> Fraction:
        """Total coefficient of all nonzero values (on `basis`)."""
        den = math.lcm(*(c.denominator for _, c in self.entries))
        return Fraction(sum(c.numerator * (den // c.denominator) for _, c in self.entries), den)

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
        return sum((Fraction(v) ** order * c for v, c in self.entries), Fraction(0))

    def records(self) -> list:
        b = basis_numeric(self.basis)
        out = []
        for v, c in self.entries:
            out.append(
                {
                    "value": v,
                    "coeff": str(c),
                    "basis": self.basis.value,
                    "numeric": float(c) * b,
                }
            )
        return out

    def to_json(self) -> str:
        payload = {
            "statistic": self.statistic,
            "conditional": self.conditional,
            "entries": self.records(),
            "zero_mass_numeric": self.numeric(0),
        }
        return json.dumps(payload, sort_keys=True)

    def validate(self, tol: float = 1e-12) -> None:
        """Check the type invariants: every stored coefficient is positive
        and the numeric nonzero mass lies in [0, 1] (up to `tol`), so the
        implicit v = 0 entry gets a mass in [0, 1] as well."""
        if any(c.numerator <= 0 for _, c in self.entries):
            raise ValueError("density table carries a non-positive coefficient")
        mass = float(self.nonzero_mass()) * basis_numeric(self.basis)
        if not -tol <= mass <= 1 + tol:
            raise ValueError(f"density table nonzero mass {mass} outside [0, 1]")


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
    between the two signs.  `pairs`, an integer array of shape
    (prod_q (cap_q + 1), 2), holds in row i the values for sign +1 and -1 at
    the vector whose exponents are the mixed-radix digits of i, the first
    prime of `caps` most significant (the order of itertools.product over
    the ranges 0..cap_q).  Exponents past a cap, and cofactors that are not
    squarefree, must give the value 0, whose mass stays implicit.  Weights
    are an outer product of integer numerators over one common denominator,
    summed per value, so each value costs one Fraction at the end."""
    denom = 2
    weights = np.ones(1, dtype=object)
    for q, cap in caps:
        local = [_local_weight(basis, q, e) if keep is None or keep(q, e) else Fraction(0)
                 for e in range(cap + 1)]
        den = math.lcm(*(w.denominator for w in local))
        nums = np.array([w.numerator * (den // w.denominator) for w in local], dtype=object)
        weights = np.multiply.outer(weights, nums).ravel()
        denom *= den
    values = sorted(set(pairs.ravel().tolist()))  # no arithmetic on the entries: int8 wraps
    sums = np.zeros(len(values), dtype=object)
    at = np.searchsorted(np.array(values, dtype=pairs.dtype), pairs.ravel())
    np.add.at(sums, at, np.repeat(weights, 2))
    return DensityTable.from_dict(
        statistic,
        basis,
        {v: Fraction(num, denom) for v, num in zip(values, sums.tolist()) if v},
        conditional,
    )
