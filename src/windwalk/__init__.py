"""Exact drift and variance of the word-length random walk on the
two-chamber window groupoid, with simulation and oracle cross-checks."""

from .chain import (
    KernelError,
    TransitionKernel,
    asymmetric_kernel,
    one_parameter_kernel,
    simulate,
    symmetric_kernel,
    validate_kernel,
)
from .groupoid import (
    Arc,
    CompositionError,
    Metric,
    Word,
    append,
    compose,
    custom_metric,
    fenced_metric,
    inverse,
    metric_length,
    unit,
    word_from_str,
    word_metric,
)
from .limits import (
    DegenerateSystemError,
    LimitConstants,
    compute_limits,
    det_h,
    kms_phi,
    limit_constants,
    perron_jet,
    spectral_radius_k,
)
from .montecarlo import McReport, verify_clt, verify_lazy_walk, verify_lln
from .oracle import (
    ClosedFormCase,
    TruncatedSeries,
    closed_form,
    dp_hitting_series,
    dp_return_series,
    dp_truncated_G,
)
from .solver import (
    RDerivatives,
    RSolution,
    SolverError,
    solve_r,
    solve_r_derivatives,
    transience_root,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
