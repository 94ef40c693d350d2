"""Exact counting of full-rank k x k column submatrices over GF(2)."""

from .codes import (DEFAULT_MAX_ENUM_DIM, WeightEnumerator, dual_of, effective_distance,
                    macwilliams, min_weight, weight_enumerator)
from .counting import (DEFAULT_BUDGET, BruteForceResult, CountReport, SubsetIndex, analyze,
                       basis_count, brute_force_counts, complement_duality_check,
                       condition_check, row_op_invariance_check, singular_count_formula)
from .errors import (BudgetError, ConditionError, ConsistencyError, DimensionError,
                     FormatError, Gf2CountError, IndexSetError, RankError)
from .gf2 import BitMatrix, SystematicForm, parse_matrix, permute_columns, rank, systematic_form

__version__ = "0.1.0"

__all__ = [
    "BitMatrix", "SystematicForm", "parse_matrix", "rank", "systematic_form", "permute_columns",
    "WeightEnumerator", "weight_enumerator", "macwilliams", "min_weight", "dual_of",
    "effective_distance",
    "CountReport", "BruteForceResult", "SubsetIndex", "analyze", "basis_count",
    "brute_force_counts", "condition_check", "singular_count_formula",
    "complement_duality_check", "row_op_invariance_check",
    "DEFAULT_BUDGET", "DEFAULT_MAX_ENUM_DIM",
    "Gf2CountError", "FormatError", "DimensionError", "IndexSetError", "RankError",
    "ConditionError", "BudgetError", "ConsistencyError",
]
