"""Ramanujan sums c_n(m) and their value distribution over n.

c_n(m) = sum of e^(2*pi*i*m*k/n) over 1 <= k <= n coprime to n.  The fast
evaluation path is Hölder's closed form

    c_n(m) = mu(n/(n,m)) * phi(n) / phi(n/(n,m)),

always an integer.  A root-of-unity summation oracle is kept alongside as
an independent check.  For fixed m the sequence n -> c_n(m) has an
asymptotic distribution; its exact point masses are one split-profile fold
(:func:`cyclodist.density.split_density`) and its moments are closed-form
Euler products, checked against the point masses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .arith import FactoredLike, as_factored
from .density import Basis, DensityTable, split_density
from .errors import InternalConsistencyError, OraclePrecisionError, ResourceBudgetError

_DIRECT_LIMIT = 100_000
_ROUND_TOLERANCE = 0.4
#: most rows, prod_(q | m) (nu_q(m) + 2), of the fold of c_n(m): each costs
#: about 6 us and 0.45 KB (m = prod_(p<=19) p^3, 390,625 rows: 2.3-2.8 s
#: at a 180 MB peak on 2 cores; 5^9 rows take about 44 s)
RAMANUJAN_FOLD_MAX_ROWS = 400_000


def _local_value(q: int, e: int, nu: int) -> int:
    """Hölder's local factor c_{q^e}(q^nu): 1, phi(q^e), -q^nu or 0
    depending on e vs nu."""
    if e == 0:
        return 1
    if e <= nu:
        return (q - 1) * q ** (e - 1)
    if e == nu + 1:
        return -(q**nu)
    return 0


def ramanujan_sum(n: FactoredLike, m: int) -> int:
    """c_n(m) by Hölder's formula, exact integer arithmetic throughout."""
    if m < 1:
        raise ValueError("ramanujan_sum requires m >= 1")
    fn = as_factored(n)
    out = 1
    for q, e in fn.factors:
        a = 0
        mm = m
        while mm % q == 0:
            mm //= q
            a += 1
        # the cofactor of m coprime to q is invisible to the local factor
        out *= _local_value(q, e, a)
        if not out:
            return 0
    return out


@lru_cache(maxsize=4096)
def _coprime_residues(n: int) -> np.ndarray:
    ks = np.arange(1, n + 1, dtype=np.int64)
    return ks[np.gcd(ks, n) == 1]


def ramanujan_sum_direct(n: int, m: int) -> int:
    """Oracle: sum the primitive n-th roots of unity raised to the m-th
    power and round the real part.  Refuses to round once accumulated
    floating error could be ambiguous."""
    if n < 1 or m < 1:
        raise ValueError("ramanujan_sum_direct requires n, m >= 1")
    if n > _DIRECT_LIMIT:
        raise ResourceBudgetError(f"direct oracle capped at n <= {_DIRECT_LIMIT}")
    ks = _coprime_residues(n)
    angles = (2.0 * math.pi * m / n) * ks
    real = float(np.cos(angles).sum())
    imag = float(np.sin(angles).sum())
    nearest = round(real)
    if abs(imag) >= _ROUND_TOLERANCE or abs(real - nearest) >= _ROUND_TOLERANCE:
        raise OraclePrecisionError(
            f"root-of-unity sum for (n={n}, m={m}) too far from an integer: "
            f"{real} + {imag}i"
        )
    return int(nearest)


# -- value distribution over the integers -----------------------------------


def ramanujan_caps(m: FactoredLike) -> List[Tuple[int, int]]:
    """The caps (q, nu_q(m) + 1) over the primes q of m: c_n(m) vanishes
    once nu_q(n) >= nu_q(m) + 2."""
    return [(q, nu + 1) for q, nu in as_factored(m).factors]


def ramanujan_split(m: FactoredLike) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    """(caps, pairs) of c_n(m) for :func:`cyclodist.density.split_density`.

    With n = n_S * b, S the primes of m and b coprime to m,
    c_n(m) = mu(b) * c_(n_S)(m) by Hölder's local factors, and S is capped
    by :func:`ramanujan_caps`.  Row i is (c, -c) for c = c_(n_S)(m) at
    position i of the caps grid (the first prime of m most significant): the
    local factors multiplied out, as Python ints (dtype object), since
    c_n(m) is unbounded.  More than RAMANUJAN_FOLD_MAX_ROWS rows raise
    ResourceBudgetError before any is built."""
    fm = as_factored(m)
    caps = ramanujan_caps(fm)
    rows = math.prod(cap + 1 for _, cap in caps)
    if rows > RAMANUJAN_FOLD_MAX_ROWS:
        raise ResourceBudgetError(
            f"the fold of c_n({fm.value}) has {rows} rows, past the {RAMANUJAN_FOLD_MAX_ROWS} budget")
    table = np.ones(1, dtype=object)
    for q, nu in fm.factors:
        local = np.array([_local_value(q, e, nu) for e in range(nu + 2)], dtype=object)
        table = np.multiply.outer(table, local).ravel()
    return caps, np.stack((table, -table), axis=1)


def natural_density_of_ramanujan(m: FactoredLike) -> DensityTable:
    """Exact density of each nonzero value of c_n(m) over the integers n,
    as coefficients on the basis 6/pi^2; coinciding values merge by
    summation, and v = 0 carries the complementary mass."""
    fm = as_factored(m)
    caps, pairs = ramanujan_split(fm)
    return split_density(f"c_n({fm.value})", Basis.SIX_OVER_PI2, caps, pairs)


def _local_moment_factor(q: int, nu: int, order: int) -> Fraction:
    """Per-prime factor of the even-order moment at s = 1:
    (1 + sum_{i<=nu} phi(q^i)^order / q^i + q^(order*nu) / q^(nu+1)) / (1 + 1/q)."""
    total = Fraction(1)
    for i in range(1, nu + 1):
        total += Fraction(((q - 1) * q ** (i - 1)) ** order, q**i)
    total += Fraction(q ** (order * nu), q ** (nu + 1))
    return total / (1 + Fraction(1, q))


def natural_moment_of_ramanujan(m: FactoredLike, order: int) -> Tuple[Fraction, Basis]:
    """Mean of c_n(m)^order over n: exactly 0 for odd order, and an exact
    rational multiple of 6/pi^2 for even order.  The closed form is checked
    against the density table before returning."""
    if order < 1:
        raise ValueError("moment order must be >= 1")
    fm = as_factored(m)
    if order % 2 == 1:
        return Fraction(0), Basis.ONE
    coeff = Fraction(1)
    for q, nu in fm.factors:
        coeff *= _local_moment_factor(q, nu, order)
    from_table = natural_density_of_ramanujan(fm).moment(order)
    if from_table != coeff:
        raise InternalConsistencyError(
            f"moment mismatch for m={fm.value}, order={order}: "
            f"{coeff} vs density sum {from_table}"
        )
    return coeff, Basis.SIX_OVER_PI2
