"""Oscillatory-integral decay toolkit.

Numerically verifies decay estimates for integrals of e^{i*lambda*f(x)} and
their behaviour under composition of the phase with normalised polynomials:
high-accuracy oscillatory quadrature, sublevel-set measures, root-proximity
covers with empirical cover constants, machine-checkable bound certificates
built from the constructive decomposition, and decay-exponent fitting.
"""

from .certificates import (
    CertPiece,
    Certificate,
    CertificateParams,
    PowerTransform,
    certify_1d,
    certify_1d_sweep,
    certify_2d,
    certify_2d_sweep,
    default_snd_constant,
    derivpush_bound,
    ibp_bound,
)
from .decay import (
    DecayFit,
    DecaySample,
    fit_decay,
    fit_log_model,
    geometric_grid,
)
from .errors import (
    ConfigError,
    InsufficientSpanError,
    NoiseDominatedError,
    NonconvergentTailError,
    NotNormalizedError,
    NotSndError,
    OscintError,
    PanelBudgetError,
    PartitionOverflowError,
    PreconditionError,
    RootConvergenceError,
    SliceOverflowError,
)
from .phases import (
    Interval,
    Phase2D,
    PhaseFunction,
    PhaseMeta,
    PlanarDomain,
    closure_phase,
    compose_with_polynomial,
    compose_with_power,
    exponential,
    monomial,
    monomial_sin,
    monotone_partition,
    phase2d_from_config,
    phase_from_config,
    polynomial_phase,
    product_phase,
    sign_partition,
    sine,
    unit_square,
    xy_phase,
    xy_quad_phase,
)
from .polynomials import (
    ClassifyReport,
    Polynomial,
    RootSet,
    SndConstant,
    YoungCover,
    classify,
    cover_ratio,
    cover_violations,
    cover_violations_rows,
    degenerating_family,
    derivative,
    estimate_B,
    monic_sublevel_cover,
    roots,
    sample_snd,
    snd_sublevel_cover,
    young_cover,
)
from .quadrature import (
    QuadConfig,
    QuadResult,
    adaptive_quad,
    osc_integrate_1d,
    osc_integrate_1d_sweep,
    osc_integrate_2d,
    osc_integrate_2d_sweep,
)
from .sublevel import (
    OscToSublevelConstant,
    SublevelResult,
    osc_to_sublevel_constant,
    sublevel_1d,
    sublevel_2d,
    sublevel_2d_sweep,
)

__version__ = "0.1.0"
