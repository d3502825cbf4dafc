"""Exact density tables.

A :class:`DensityTable` maps each nonzero value v of a statistic to an
exact rational coefficient on a symbolic basis: 1, 6/pi^2 (natural
densities over the integers), or the Artin constant A (relative densities
over the primes).  The v = 0 entry is implicit: its mass is whatever is
left to bring the total to 1.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple


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
        items = tuple(
            (int(v), Fraction(c)) for v, c in sorted(mapping.items()) if c != 0
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
        return sum((c for _, c in self.entries), Fraction(0))

    def numeric(self, v: int, basis_value: Optional[float] = None) -> float:
        b = basis_value if basis_value is not None else basis_numeric(self.basis)
        if v == 0:
            return 1.0 - float(self.nonzero_mass()) * b
        return float(self.coefficient(v)) * b

    def zero_mass_numeric(self, basis_value: Optional[float] = None) -> float:
        return self.numeric(0, basis_value)

    def moment(self, order: int) -> Fraction:
        """sum_v v^order * coefficient(v), exact, on `basis` (the implicit
        v = 0 entry contributes nothing for order >= 1)."""
        if order < 1:
            raise ValueError("moment order must be >= 1")
        return sum((Fraction(v) ** order * c for v, c in self.entries), Fraction(0))

    def records(self, basis_value: Optional[float] = None) -> list:
        b = basis_value if basis_value is not None else basis_numeric(self.basis)
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

    def to_json(self, basis_value: Optional[float] = None, **dump_kwargs) -> str:
        payload = {
            "statistic": self.statistic,
            "conditional": self.conditional,
            "entries": self.records(basis_value),
            "zero_mass_numeric": self.zero_mass_numeric(basis_value),
        }
        dump_kwargs.setdefault("sort_keys", True)
        return json.dumps(payload, **dump_kwargs)

    def validate(self, tol: float = 1e-12) -> None:
        """Check the type invariants: every stored coefficient is positive
        and the numeric nonzero mass lies in [0, 1] (up to `tol`), so the
        implicit v = 0 entry gets a mass in [0, 1] as well."""
        if any(c <= 0 for _, c in self.entries):
            raise ValueError("density table carries a non-positive coefficient")
        mass = float(self.nonzero_mass()) * basis_numeric(self.basis)
        if not -tol <= mass <= 1 + tol:
            raise ValueError(f"density table nonzero mass {mass} outside [0, 1]")


def merge_values(pairs: Iterable[Tuple[int, Fraction]]) -> Dict[int, Fraction]:
    """Sum coefficients of coinciding values; drop zero totals and v = 0."""
    acc: Dict[int, Fraction] = {}
    for v, c in pairs:
        if v == 0:
            continue
        acc[v] = acc.get(v, Fraction(0)) + c
    return {v: c for v, c in acc.items() if c != 0}
