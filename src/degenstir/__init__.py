"""Exact computation and identity checking for truncated degenerate
Stirling numbers, degenerate Bernoulli polynomials, and friends, over the
field of rational functions in the deformation parameter."""

from .bernoulli import (
    bell_partial,
    bell_partial_enum,
    degen_bernoulli,
    k_lambda,
    trunc_degen_bernoulli,
)
from .core import (
    degen_exp,
    degen_log,
    falling_factorial,
    gen_falling,
    int_falling,
    one_falling,
)
from .errors import (
    BothZero,
    DegenstirError,
    DivisionByZero,
    DomainViolation,
    InputTooShort,
    ModeMismatch,
    NonzeroConstantTerm,
    PoleAtLambda,
    PrecisionExceeded,
    ValuationTooHigh,
    ZeroDivisorSeries,
)
from .field import (
    FieldElem,
    LambdaPoly,
    as_elem,
    as_rational,
    const,
    lam_elem,
    poly_gcd,
    poly_str,
    rational_str,
)
from .identities import (
    AS_DERIVED,
    AS_PRINTED,
    DEFAULT_RANGES,
    IDENTITY_TAGS,
    IdentityReport,
    all_derived_equal,
    sweep,
    verify_beta_closed,
    verify_delta,
    verify_expansion,
    verify_thm3,
    verify_thm4,
    verify_thm5,
    verify_thm6,
    verify_thm7,
    verify_thm8,
)
from .series import Series
from .stirling import (
    build_triangle,
    stirling1_degen,
    stirling1r_gf,
    stirling2_degen,
    stirling2r_binomial,
    stirling2r_gf,
)

__version__ = "0.1.0"
