"""Uniform deviation machinery for smooth statistics of bounded classes.

The library estimates how far a nonlinear statistic of a sample can sit
below its expectation, uniformly over a finite class of [0, 1]-valued
functions, and verifies the pieces the estimate is made of: Rademacher and
Gaussian averages of the class image, derivative constants of the
statistic, sub-Gaussian tail bounds, and the assembled deviation bound
with its empirical constant.
"""

__version__ = "0.1.0"

from .classes import (
    AffineClippedMember,
    FunctionClass,
    LookupMember,
    ThresholdMember,
    constant_member,
    identity_member,
    lookup_member,
    random_lookup_class,
    separation_labels,
)
from .complexity import (
    ComparisonReport,
    ComplexityEstimate,
    comparison_report,
    gaussian_mc,
    rademacher_exact,
    rademacher_mc,
)
from .derivative_bounds import (
    ConstantsDetail,
    ConstantsReport,
    closed_form_constants,
    estimate_constants_numeric,
    fd_gradient,
    fd_hessian,
    u_statistic_constant_bounds,
)
from .deviation import (
    DeviationReport,
    ExpectationOracle,
    ProcessProbe,
    SwingReport,
    SymmetrizationReport,
    TailReport,
    assemble_bound,
    bounded_difference_tail,
    deviation_experiment,
    expectation_oracle,
    squared_swing_sum,
    swap_process_probe,
    symmetrization_check_mean,
    tail_term,
    tail_term_variant,
    uniform_deviation,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericError,
    OverrideRequiredError,
    ResourceError,
    UniboundError,
    UnsupportedStatisticError,
)
from .functionals import (
    Kernel,
    Statistic,
    class_separation_statistic,
    constant_kernel,
    identity_kernel,
    mean_statistic,
    product_kernel,
    sample_variance_statistic,
    smoothed_min_kernel,
    squared_difference_kernel,
    u_statistic,
)
from .rng import as_stream, standard_normals, stream
from .spaces import (
    CoordinateDistribution,
    ProductLaw,
    SampleSpace,
    SampleVector,
    bernoulli,
    beta_family,
    draw_batch,
    finite_space,
    finite_weights,
    iid_law,
    interval_space,
    point_mass_law,
    sample,
    uniform_on,
    vector_from_values,
)

__all__ = [name for name in dir() if not name.startswith("_")]
