"""Exact multiplicities of m-primary monomial ideals.

Monomial ideals are finite antichains of exponent vectors; everything
downstream -- colengths, Hilbert-Samuel and mixed multiplicities,
Buchsbaum-Rim multiplicities of direct-sum submodules, integral closures --
is computed in exact integer (or rational) arithmetic.  A seeded harness
re-verifies a family of Lech-type inequalities on random instances.
"""

from .buchsbaum_rim import (
    DirectSumModule,
    br_direct,
    br_via_mixed,
    composition_count,
    module,
    module_colength,
    scale_by_m,
)
from .closure import integral_closure, newton_polyhedron_member
from .errors import (
    DimensionMismatchError,
    ImpossibleValueError,
    NotMPrimaryError,
    ParseError,
    StabilizationError,
)
from .expr import format_ideal, parse_ideal, parse_module
from .harness import (
    CHECK_NAMES,
    CorpusConfig,
    InequalityReport,
    Tally,
    check_additivity,
    check_lech_classical,
    check_lech_mixed,
    check_main_br,
    check_main_mixed,
    check_prop_dim2,
    check_prop_dim3,
    fuzz,
    gen_random_mprimary,
    run_suite,
    write_jsonl,
    write_summary_csv,
)
from .lengths import ProductSampler, colength, colength_naive
from .monomial import (
    MonomialIdeal,
    box_bounds,
    contains,
    ideal,
    ideal_contains,
    is_m_primary,
    m_ideal,
    m_power,
    minimalize,
    power,
    product,
    unit_ideal,
)
from .multiplicity import (
    DifferenceTable,
    hilbert_samuel,
    hyperplane_section_multiplicity,
    mixed_difference_table,
    mixed_multiplicity,
    stabilize,
)

__version__ = "0.1.0"

__all__ = [
    "MonomialIdeal",
    "DirectSumModule",
    "DifferenceTable",
    "ProductSampler",
    "CorpusConfig",
    "InequalityReport",
    "Tally",
    "CHECK_NAMES",
    "ideal",
    "unit_ideal",
    "m_ideal",
    "m_power",
    "minimalize",
    "product",
    "power",
    "contains",
    "ideal_contains",
    "is_m_primary",
    "box_bounds",
    "integral_closure",
    "newton_polyhedron_member",
    "parse_ideal",
    "parse_module",
    "format_ideal",
    "colength",
    "colength_naive",
    "hilbert_samuel",
    "mixed_multiplicity",
    "mixed_difference_table",
    "hyperplane_section_multiplicity",
    "stabilize",
    "module",
    "module_colength",
    "br_direct",
    "br_via_mixed",
    "scale_by_m",
    "composition_count",
    "gen_random_mprimary",
    "run_suite",
    "fuzz",
    "write_jsonl",
    "write_summary_csv",
    "check_lech_classical",
    "check_lech_mixed",
    "check_main_mixed",
    "check_main_br",
    "check_prop_dim2",
    "check_prop_dim3",
    "check_additivity",
    "DimensionMismatchError",
    "ImpossibleValueError",
    "NotMPrimaryError",
    "ParseError",
    "StabilizationError",
    "__version__",
]
