"""Exact fractional moments of GMC on the unit interval, with cross-checks.

Closed-form moment formulas built on the double gamma function, a spectral
sampler for the log-correlated field, a deterministic parallel Monte Carlo
engine, and a verification harness tying them together.
"""

from .errors import (
    BoundsError,
    ConvergenceError,
    DegenerateCError,
    DegenerateParamsError,
    DomainError,
    GmcError,
    GridError,
    PoleError,
    ResolutionError,
)
from .exactlaw import (
    GmcParams,
    ObservableKind,
    ShiftKind,
    bounds_check,
    c_of_p,
    derivative_martingale_moment,
    exact_moment,
    hyp_triple,
    law_decomposition_log_moment,
    log_exact_moment,
    predict_observable,
    reflection_boundary_1d,
    reflection_bulk_2d,
    selberg_product,
    shift_ratio,
)
from .field import QuadGrid, cell_weights, replicate_rng
from .montecarlo import (
    McConfig,
    McEstimate,
    SmallDeviationResult,
    TailFit,
    config_for,
    mc_moment,
    mc_moments,
    mc_small_deviation,
    mc_tail_fit,
)
from .specfun import (
    Beta22Params,
    DoubleGamma,
    HypTriple,
    barnes_g,
    connection_coeffs,
    double_gamma_evaluator,
    gammaln_signed,
    hyp2f1_negative,
    log_double_gamma,
)
from .verify import (
    CheckReport,
    IdentityGridSpec,
    quadrature_identity_check,
    reports_to_csv,
    reports_to_json,
    run_identity_suite,
    verify_observable_prediction,
)

__version__ = "0.1.0"
