"""Exact drift and variance of the word-length random walk on the
two-chamber window groupoid, with simulation and oracle cross-checks."""

from types import ModuleType as _ModuleType

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
    kms_phi,
    limit_constants,
    limits_from_jets,
    perron_jet,
)
from .montecarlo import McReport, verify_clt, verify_lln
from .oracle import (
    ClosedFormCase,
    closed_form,
    dp_hitting_series,
    dp_return_series,
    dp_truncated_G,
)
from .solver import RDerivatives, RSolution, SolverError, solve_r, solve_r_derivatives

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "1.0.0"
