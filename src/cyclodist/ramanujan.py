"""Ramanujan sums c_n(m) and their value distribution over n.

c_n(m) = sum of e^(2*pi*i*m*k/n) over 1 <= k <= n coprime to n.  The fast
evaluation path is Hölder's closed form

    c_n(m) = mu(n/(n,m)) * phi(n) / phi(n/(n,m)),

always an integer.  A root-of-unity summation oracle is kept alongside as
an independent check.  For fixed m the sequence n -> c_n(m) has an
asymptotic distribution; its exact point masses are one split-profile fold
(:func:`cyclodist.density.split_density`) and its moments are closed-form
Euler products, checked prime by prime against the fold (:func:`_local_moment`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .arith import FactoredLike, FactoredNat, as_factored
from .density import Basis, DensityTable, _local_weight, split_density
from .errors import InternalConsistencyError, OraclePrecisionError, ResourceBudgetError

_DIRECT_LIMIT = 100_000
_ROUND_TOLERANCE = 0.4
#: most rows, prod_(q | m) (nu_q(m) + 2), of the fold of c_n(m), a row
#: counted once per 128 bits of m, as its Python ints grow with m.  Fresh
#: processes on 2 cores, natural fold: prod_(p<=19) p^3, 390,625 rows of 70
#: bits, 2.22-2.64 s at a 157 MB peak; 2^1500 3^18, 30,040 rows of 12 x 128
#: bits, 0.65-0.89 s at 66 MB; 2^630 3^630, 399,424 rows of 13 x 128 bits and
#: refused, would take 12.9 s at 614 MB
RAMANUJAN_FOLD_MAX_ROWS = 400_000
#: most bits, order * sum_(q | m) (nu_q(m) + 1) log2 q, of the powers an exact
#: moment of c_n(m) or |c_(p-1)(m)| builds.  Fresh processes on 2 cores, one
#: call each: both sides take about the same time, at 2^19 bits at most 0.11 s
#: (m = prod_(p<=19) p^3, order 4332; 0.08 s at m = 2^60 and 0.01 s at m = 2),
#: and at 2^20 bits at most 0.16 s (m = 2^60)
MOMENT_MAX_BITS = 2**19


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


@lru_cache(maxsize=1)  # one n, for a sweep over m: at most 10^5 int64, 800 KB
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
    local factors multiplied out in a Python list, since c_n(m) is unbounded,
    and handed over as one (rows, 2) array of dtype object, which
    split_density folds one row at a time.  More than RAMANUJAN_FOLD_MAX_ROWS
    rows, each counted once per 128 bits of m, raise ResourceBudgetError
    before any is built."""
    fm = as_factored(m)
    caps = ramanujan_caps(fm)
    rows = math.prod(cap + 1 for _, cap in caps)
    width = -(-fm.value.bit_length() // 128)  # 128-bit words of m, at least 1
    if rows * width > RAMANUJAN_FOLD_MAX_ROWS:
        raise ResourceBudgetError(f"the fold of c_n({fm.value}) has {rows} rows of {width} x 128 "
                                  f"bits, past the {RAMANUJAN_FOLD_MAX_ROWS} budget")
    row = [1]
    for q, nu in fm.factors:
        local = [_local_value(q, e, nu) for e in range(nu + 2)]
        row = [c * x for c in row for x in local]
    pairs = np.empty((len(row), 2), dtype=object)
    pairs[:, 0] = row
    np.negative(pairs[:, 0], out=pairs[:, 1])
    return caps, pairs


def natural_density_of_ramanujan(m: FactoredLike) -> DensityTable:
    """Exact density of each nonzero value of c_n(m) over the integers n,
    as coefficients on the basis 6/pi^2; coinciding values merge by
    summation, and v = 0 carries the complementary mass."""
    fm = as_factored(m)
    caps, pairs = ramanujan_split(fm)
    return split_density(f"c_n({fm.value})", Basis.SIX_OVER_PI2, caps, pairs)


def _local_moment(basis: Basis, q: int, nu: int, z: int) -> Fraction:
    """sum_(e <= nu+1) w(q, e) |c_(q^e)(q^nu)|^z, w the fold's weights on `basis`
    (:func:`cyclodist.density._local_weight`): the factor at q of the fold's
    z-th absolute moment, over n or over p - 1, without building a row."""
    return sum((_local_weight(basis, q, e) * abs(_local_value(q, e, nu)) ** z
                for e in range(nu + 2)), Fraction(0))


def _local_moment_factor(q: int, nu: int, order: int) -> Fraction:
    """Per-prime factor of the even-order moment at s = 1:
    (1 + sum_{i<=nu} phi(q^i)^order / q^i + q^(order*nu) / q^(nu+1)) / (1 + 1/q)."""
    total = Fraction(1)
    for i in range(1, nu + 1):
        total += Fraction(((q - 1) * q ** (i - 1)) ** order, q**i)
    total += Fraction(q ** (order * nu), q ** (nu + 1))
    return total / (1 + Fraction(1, q))


def _moment_budget(fm: FactoredNat, order: int) -> None:
    """Refuse, before any power is built, an exact moment of order `order` at
    m = `fm` past MOMENT_MAX_BITS.  Each prime of m adds at least 2 bits per
    unit of order, so an order past the budget is refused as it is, before it
    meets a float; m = 1 builds 0 bits at any order."""
    bits = min(order, MOMENT_MAX_BITS + 1) * sum((nu + 1) * math.log2(q) for q, nu in fm.factors)
    if bits > MOMENT_MAX_BITS:
        size = order if order <= MOMENT_MAX_BITS else f">= 2^{order.bit_length() - 1}"
        raise ResourceBudgetError(f"the moment of order {size} at m = {fm.value} builds integers of "
                                  f"about {bits:.0f} bits or more, past the {MOMENT_MAX_BITS} budget")


def natural_moment_of_ramanujan(m: FactoredLike, order: int) -> Tuple[Fraction, Basis]:
    """Mean of c_n(m)^order over n: exactly 0 for odd order, and an exact
    rational multiple of 6/pi^2 for even order.  Each prime's closed-form
    factor is checked against :func:`_local_moment` before returning; an even
    order past :data:`MOMENT_MAX_BITS` raises ResourceBudgetError."""
    if order < 1:
        raise ValueError("moment order must be >= 1")
    fm = as_factored(m)
    if order % 2 == 1:
        return Fraction(0), Basis.ONE
    _moment_budget(fm, order)
    coeff = Fraction(1)
    for q, nu in fm.factors:
        local = _local_moment_factor(q, nu, order)
        if local != _local_moment(Basis.SIX_OVER_PI2, q, nu, order):
            raise InternalConsistencyError(f"moment factor mismatch at q={q}, nu={nu}, order={order}")
        coeff *= local
    return coeff, Basis.SIX_OVER_PI2
