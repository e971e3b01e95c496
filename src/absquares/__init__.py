"""Abelian squares in infinite words: exact counting, growth bounds, search.

The package splits into exact word machinery (`words`, `counting`),
generators for the classical infinite words (`substitutions`, `sturmian`),
exact quadratic arithmetic backing the rotation analysis (`quadratic`,
`discrepancy`), empirical study helpers (`analysis`), and exhaustive
finite-word search (`search`).  The `cli` module exposes all of it as the
``absquares`` command.
"""

from types import ModuleType as _ModuleType

from .words import (
    Alphabet,
    BINARY_01,
    BINARY_AB,
    ParikhVector,
    Word,
    infer_alphabet,
    is_abelian_kpower,
    is_abelian_square,
    is_balanced,
    parikh,
    read_word_file,
    write_word_file,
)
from .counting import (
    ASFProfile,
    FactorIndex,
    InequivalentProfile,
    asf_profile,
    asf_profile_brute,
    distinct_factors,
    factor_counts_stable,
    inequivalent_profile,
    inequivalent_profile_brute,
)
from .substitutions import (
    FixedPointSpec,
    Substitution,
    THUE_MORSE,
    boundary_counts,
    fixed_point_prefix,
    read_substitution_file,
    thue_morse_prefix,
    tm_abelian_square_lift,
    tm_complexity,
)
from .quadratic import (
    ContinuedFraction,
    GOLDEN_ANGLE,
    PHI,
    QI,
    QuadraticIrrational,
    SILVER_ANGLE,
    cf_expand,
    cf_value,
    convergents,
    parse_angle,
    parse_cf,
)
from .sturmian import (
    SturmianSpec,
    fibonacci_word,
    interval_partition,
    sturmian_asf,
    sturmian_asf_range,
    sturmian_prefix,
)
from .discrepancy import (
    CertificateReport,
    DiscrepancyReport,
    PointSequence,
    certificate_sweep,
    check_kn2,
    discrepancy,
    discrepancy_bruteforce,
    growth_certificate,
    kn2_bound,
    rotation_discrepancy,
    rotation_orbit,
)
from .analysis import (
    RandomBaselineReport,
    RichnessReport,
    TripleBlockReport,
    fit_exponent,
    random_baseline,
    recurrence_index_estimate,
    richness_report,
    triple_block,
)
from .search import (
    AlphabetComparison,
    SearchResult,
    compare_alphabets,
    full_enumeration_max,
    max_asf,
    max_inequivalent,
    witness_value,
)

__version__ = "0.1.0"

# every name imported above, so the export list cannot drift from the imports
__all__ = [name for name, value in globals().items() if not name.startswith("_")
           and not isinstance(value, _ModuleType)] + ["__version__"]
