"""Exact combinatorics of matroidal square-free monomial ideals.

Recognition (basis exchange), linear quotients and the index q(I) = n - d,
primary decomposition and unmixedness bounds, Schmitt-Vogel layered
certificates for the arithmetical rank with an independent Groebner-basis
oracle, and exhaustive small-case enumeration with theorem batteries.
"""

from .decomposition import (
    MultipartitePartition,
    PrimeDecomposition,
    contraction,
    degree2_partition,
    height,
    is_unmixed,
    minimal_primes,
    multipartite_signature,
    recognize_var_block_product,
    recognize_veronese,
    unmixed_bounds_report,
)
from .enumeration import (
    BatteryResult,
    ScanReport,
    canonical_form,
    conjecture_scan,
    enumerate_matroidal,
    relabel_ideal,
    theorem_battery,
)
from .ideals import (
    MAX_VARS,
    UNIT,
    Ideal,
    InvariantViolation,
    Monomial,
    NonSquareFreeProductError,
    SupportOverlapError,
    colon_by_var,
    contains,
    format_ideal,
    has_full_support,
    is_unit_ideal,
    is_zero_ideal,
    minimal_generators,
    mono,
    mono_degree,
    mono_divides,
    mono_str,
    mono_vars,
    parse_ideal,
    parse_mono,
    product,
    star_product,
    support,
    support_mask,
)
from .matroids import (
    ExchangeWitness,
    MatroidCheck,
    MatroidalIdeal,
    NotMatroidalError,
    as_matroidal,
    check_matroidal,
    pivot,
    transfer_fibers_equal,
    var_block_product,
    veronese,
)
from .oracle import (
    BudgetExceededError,
    Poly,
    RadicalCertificate,
    RadicalCheck,
    buchberger,
    parse_poly,
    poly_str,
    reduce,
    s_polynomial,
    verify_radical_cert,
)
from .quotients import (
    QuotientOrdering,
    analyze,
    colon_step_vars,
    depth,
    find_ordering,
    is_cohen_macaulay,
    proj_dim,
    q_index,
)
from .svrank import (
    AraBounds,
    SearchResult,
    SVCheck,
    SVPartition,
    ara_bounds,
    construct_certificate,
    degree2_cert,
    product_cert,
    search_cert,
    sv_sums,
    variable_cert,
    verify_sv,
    veronese_cert,
)

__version__ = "0.1.0"
