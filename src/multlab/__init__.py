"""Exact multiplicities of m-primary monomial ideals.

Monomial ideals are finite antichains of exponent vectors; everything
downstream -- colengths, Hilbert-Samuel and mixed multiplicities,
Buchsbaum-Rim multiplicities of direct-sum submodules, integral closures --
is computed in exact integer (or rational) arithmetic.  A seeded harness
re-verifies a family of Lech-type inequalities on random instances.

`import multlab` loads the calculator.  The harness loads on first use of
one of its names, `multlab.harness` included; it seeds its draws through
the interpreter's built-in SHA-256, so no OpenSSL library is loaded.
"""

import sys
from importlib import import_module, util

__version__ = "0.1.0"

# every public name once, beside the module that defines it
_EXPORTS = {
    "buchsbaum_rim": ("DirectSumModule", "br_direct", "br_via_mixed", "composition_count",
                      "module", "module_colength", "scale_by_m"),
    "closure": ("integral_closure", "newton_polyhedron_member"),
    "errors": ("DimensionMismatchError", "ImpossibleValueError", "NotMPrimaryError",
               "ParseError", "StabilizationError"),
    "expr": ("format_ideal", "parse_ideal", "parse_module"),
    "lengths": ("ProductSampler", "colength", "colength_naive"),
    "monomial": ("MonomialIdeal", "box_bounds", "contains", "ideal", "ideal_contains",
                 "is_m_primary", "m_ideal", "m_power", "minimalize", "power", "product",
                 "unit_ideal"),
    "multiplicity": ("DifferenceTable", "hilbert_samuel", "hyperplane_section_multiplicity",
                     "mixed_difference_table", "mixed_multiplicity", "stabilize"),
    "harness": ("CHECK_NAMES", "CorpusConfig", "InequalityReport", "Tally", "check_additivity",
                "check_lech_classical", "check_lech_mixed", "check_main_br", "check_main_mixed",
                "check_prop_dim2", "check_prop_dim3", "fuzz", "gen_random_mprimary", "run_suite",
                "write_jsonl", "write_summary_csv"),
}
__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

# the calculator modules import one another, so any entry point loads them all
for _module, _names in _EXPORTS.items():
    if _module != "harness":
        _source = import_module(f".{_module}", __name__)
        globals().update({name: getattr(_source, name) for name in _names})
del _module, _names, _source

# `multlab.harness` stands in `sys.modules` from here on, where code that
# patches modules by name (bench/tracer.py) looks it up, but its code runs
# when one of its attributes is first read
_spec = util.find_spec(f"{__name__}.harness")
_spec.loader = util.LazyLoader(_spec.loader)
harness = sys.modules[_spec.name] = util.module_from_spec(_spec)
_spec.loader.exec_module(harness)
del _spec


def __getattr__(name):
    if name in _EXPORTS["harness"]:
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
