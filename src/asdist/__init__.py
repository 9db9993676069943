"""Distribution of elementary abelian p-extensions of global function
fields: exact conductor counts, generating Dirichlet series, zeta-function
factorization, Tauberian asymptotics, and a brute-force cross-check oracle."""

# Building the import-time heap (mostly sympy and mpmath) sets off over a
# hundred collections that find almost nothing to free.  Import with the
# collector paused, then move the new heap straight to the oldest generation
# (freeze then unfreeze, a list splice), so the first young collection
# afterwards does not walk it either.  The move is skipped when anything is
# frozen already, so a host's frozen objects stay frozen (on CPython 3.12 the
# collector itself parks immortal objects there).  The collector's on/off
# state is restored.
import gc as _gc

_collecting = _gc.isenabled()
_unfrozen = _gc.get_freeze_count() == 0
_gc.disable()
try:
    from .counting import (
        DivisorModule,
        GroupSpec,
        Place,
        conductor_count,
        exceptional_modules,
        product_count,
        subgroup_count_poly,
        wild_exponent,
    )
    from .dirichlet import (
        PoleReport,
        RationalFunctionT,
        conductor_series,
        counting_function,
        discriminant_view,
        error_term_series,
        euler_component_series,
        exponent_comparison,
        holomorphic_factor_at_abscissa,
        holomorphic_factor_value,
        pole_analysis,
        zeta_factor_rational,
    )
    from .errors import (
        BudgetExceededError,
        ConsistencyError,
        ModelError,
        PrecisionError,
        UnsupportedInputError,
    )
    from .field import (
        FieldModel,
        make_field_model,
        rational_field,
    )
    from .oracle import (
        ASRep,
        GF,
        counts_by_degree,
        enumerate_classes,
        irreducibles_up_to,
        oracle_counts,
    )
    from .series import TruncatedSeries
    from .tauberian import (
        AsymptoticEstimate,
        MeromorphicModel,
        closed_form_constant,
        predict_partial_sums,
        principal_parts,
        tauberian_constant,
        zeta_factor_poles,
    )
finally:
    if _unfrozen:
        _gc.freeze()
        _gc.unfreeze()
    if _collecting:
        _gc.enable()
    del _gc, _collecting, _unfrozen

__version__ = "1.0.0"