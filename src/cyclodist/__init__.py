"""cyclodist: exact arithmetic for Ramanujan sums, cyclotomic-polynomial
coefficients, and their value-distribution densities over the integers and
over shifted primes p - 1."""

from .arith import (
    DEFAULT_SIEVE_LIMIT,
    ExactRational,
    FactoredNat,
    SievePack,
    default_pack,
    divisors,
    euler_phi,
    factorize,
    is_kth_powerfree,
    mobius,
    read_sieve_cache,
    sieve_pack,
    write_sieve_cache,
)
from .cyclotomic import (
    CoeffProfile,
    ValueSetReport,
    bertrand_triple,
    coeff_profile,
    construct_coeff_value,
    cyclo_coeff,
    cyclo_coeff_partition,
    cyclo_coeff_series,
    cyclo_poly,
    value_set,
)
from .densities_natural import (
    EkValue,
    coeff_density,
    mean_coeff,
    mean_coeff_partition,
    moller_conjecture_scan,
    partition_means,
    squarefree_coprime_density,
)
from .densities_prime import (
    EulerProductConstant,
    ValuationConstraint,
    artin_constant,
    coeff_prime_density,
    ramanujan_prime_density,
    ramanujan_prime_moment,
    s_small_density,
    shifted_prime_kfree_density,
    valuation_profile_density,
)
from .density import Basis, DensityTable
from .empirics import (
    EmpiricalReport,
    count_squarefree_coprime,
    mertens_coprime,
    primitive_roots,
    scan_primes,
    symmetric_functions_mod_p,
    symmetric_residue,
)
from .errors import InternalConsistencyError, OraclePrecisionError, ResourceBudgetError
from .ramanujan import (
    natural_density_of_ramanujan,
    natural_moment_of_ramanujan,
    ramanujan_sum,
    ramanujan_sum_direct,
)

__version__ = "0.1.0"
