from fractions import Fraction

import pytest

from cyclodist.cyclotomic import value_set
from cyclodist.densities_natural import (
    coeff_density,
    mean_coeff,
    mean_coeff_partition,
    moller_conjecture_scan,
    squarefree_coprime_density,
)
from cyclodist.density import Basis, DensityTable
from cyclodist.errors import ResourceBudgetError


def test_mean_examples():
    assert mean_coeff(1).e_k == 0
    assert mean_coeff(2).e_k == Fraction(1, 2)
    assert mean_coeff(7).e_k == Fraction(1, 18)
    assert mean_coeff(10).e_k == Fraction(31, 160)
    assert mean_coeff(16).e_k == Fraction(733, 4032)


def test_mean_partition_examples():
    assert mean_coeff_partition(7).e_k == Fraction(1, 18)
    assert mean_coeff_partition(30).e_k == Fraction(45893, 241920)
    diff = mean_coeff_partition(34).e_k - mean_coeff_partition(35).e_k
    assert diff == Fraction(-18059, 4626720)


def test_methods_agree_through_30():
    for k in range(2, 31):
        assert mean_coeff(k).e_k == mean_coeff_partition(k).e_k, k


def test_density_mean_consistency():
    # sum_v v * zeta(2) delta(v) = e_k, exactly
    for k in range(2, 31):
        assert coeff_density(k).moment(1) == mean_coeff(k).e_k, k


def test_density_examples():
    assert coeff_density(2).as_dict() == {-1: Fraction(1, 12), 1: Fraction(7, 12)}
    assert coeff_density(7).as_dict() == {
        -2: Fraction(1, 576),
        -1: Fraction(577, 2688),
        1: Fraction(731, 2688),
        2: Fraction(1, 1152),
    }
    assert coeff_density(15).as_dict() == {
        -2: Fraction(13, 32256),
        -1: Fraction(1345, 7168),
        1: Fraction(97247, 322560),
        2: Fraction(13, 64512),
    }
    assert coeff_density(1).as_dict() == {-1: Fraction(1, 2), 1: Fraction(1, 2)}


def test_density_tables_validate():
    for k in range(1, 31):
        table = coeff_density(k)
        assert table.basis is Basis.SIX_OVER_PI2
        table.validate()


def test_validate_rejects_bad_tables():
    with pytest.raises(ValueError):
        DensityTable.from_dict("neg", Basis.ONE, {1: Fraction(1, 2), 2: Fraction(-1, 4)}).validate()
    with pytest.raises(ValueError):
        DensityTable("zero", Basis.ONE, ((1, Fraction(0)),)).validate()
    with pytest.raises(ValueError):
        DensityTable.from_dict("over", Basis.ONE, {-1: Fraction(3, 4), 1: Fraction(1, 2)}).validate()
    # on the basis 6/pi^2 a coefficient may reach pi^2/6 = 1.644...
    with pytest.raises(ValueError):
        DensityTable.from_dict("over", Basis.SIX_OVER_PI2, {1: Fraction(17, 10)}).validate()
    DensityTable.from_dict("ok", Basis.SIX_OVER_PI2, {1: Fraction(16, 10)}).validate()
    DensityTable.from_dict("full", Basis.ONE, {-1: Fraction(1, 2), 1: Fraction(1, 2)}).validate()


def test_doubling_halves_density_outside_odd_set():
    # 2 delta(v) = delta(-v) exactly when v is not attained at odd n
    for k in range(3, 26, 2):
        table = coeff_density(k).as_dict()
        odd_values = value_set(k).odd_set
        for v in table:
            lhs = 2 * table.get(v, Fraction(0))
            rhs = table.get(-v, Fraction(0))
            assert (lhs == rhs) == (v not in odd_values), (k, v)


def test_integrality_witness():
    from cyclodist.densities_natural import _prod_p_plus_1

    assert mean_coeff(2).integrality_witness == 3
    assert mean_coeff(7).integrality_witness == 224
    assert mean_coeff(8).integrality_witness == 1344
    for k in range(1, 41):
        ek = mean_coeff(k)  # construction raises unless e_k * k * prod(p+1) is integral
        assert ek.integrality_witness == ek.e_k * k * _prod_p_plus_1(k)
        # the always-proved doubled form is then integral a fortiori
        assert (ek.e_k * 2 * k * _prod_p_plus_1(k)).denominator == 1


def test_moller_scan_no_violation_through_32():
    scan = moller_conjecture_scan(32)
    assert all(entry.sign_ok for entry in scan)
    assert all(entry.range_ok for entry in scan)


def test_moller_scan_counterexamples_at_33_and_34():
    # e_34 is anomalously low, so the alternating pattern breaks on both
    # sides of it: at k = 33 (odd k expects a rise) and at k = 34 (even k
    # expects a fall, and e_34 - e_35 = -18059/4626720 < 0).
    scan = moller_conjecture_scan(35)
    flags = {entry.k: entry.sign_ok for entry in scan}
    assert flags[33] is False
    assert flags[34] is False
    assert flags[35] is True
    assert all(flags[k] for k in range(1, 33))
    assert all(entry.range_ok for entry in scan)


@pytest.mark.slow
def test_moller_scan_range_through_61():
    scan = moller_conjecture_scan(61)
    assert all(entry.range_ok for entry in scan)
    sign_violations = [entry.k for entry in scan if not entry.sign_ok]
    assert sign_violations == [33, 34, 45]


def test_squarefree_coprime_density():
    assert squarefree_coprime_density(1) == (Fraction(1), Basis.SIX_OVER_PI2)
    assert squarefree_coprime_density(2)[0] == Fraction(2, 3)
    assert squarefree_coprime_density(6)[0] == Fraction(1, 2)


def test_budgets():
    with pytest.raises(ResourceBudgetError):
        mean_coeff(41)
    with pytest.raises(ResourceBudgetError):
        mean_coeff_partition(100)
