"""Twisted Dedekind sums attached to pairs of primitive Dirichlet characters.

Layout:
    characters  character tables, Gauss sums, L(2, chi)
    contfrac    continued fractions, partial-quotient counts
    dedekind    S(a, c) by double sum and by the analytic route
    stats       sweeps, moments, CSV/JSONL emission
    cli         command-line front end (console script: nfds)
"""

from .characters import (
    DirichletCharacter,
    character_from_index,
    character_product,
    enumerate_characters,
    gauss_sum,
    is_primitive,
    l2_principal,
    l2_value,
    legendre_character,
)
from .contfrac import (
    ContinuedFraction,
    digit_symmetry_delta,
    expand,
    g_count,
    hensley_prediction,
    matrix_factorization,
    max_partial_quotient,
    phi_count,
    quotient_counts,
    reverse_denominator_expansion,
    to_parity_form,
)
from .dedekind import (
    DedekindSumResult,
    GammaMatrix,
    beta_constant,
    complete_matrix,
    dw_exact,
    f_eval,
    korobov_sum_1,
    korobov_sum_2,
    phi_eval,
    s_analytic,
    s_analytic_table,
    s_double_sum,
    s_double_sum_exact,
    s_double_sum_table,
)
from .errors import (
    CertificationError,
    CoprimalityError,
    DivisibilityError,
    ParityError,
    PrimitivityError,
    ValidationError,
)
from .stats import (
    LargevalRecord,
    ScanConfig,
    ScanRecord,
    emit,
    largeval_sweep,
    read_records,
    scan_F,
    second_moment,
    summarize,
)

__version__ = "0.1.0"
