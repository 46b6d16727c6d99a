"""Numerical analyzer for finite continuous-time Markov chains.

Computes spectral gaps, exact weighted-norm convergence curves of the
transition semigroup, certified exponential convergence rates and
constants, and numerically verifies the weight-conjugation identities
the convergence theory rests on, with a Monte-Carlo sampler as an
independent stochastic cross-check.
"""

from .chain_core import (
    REV_TOL,
    ROW_TOL,
    STAT_TOL,
    SUM_TOL,
    FAMILIES,
    ChainSpec,
    Distribution,
    RateMatrix,
    Tolerances,
    TruncatedChain,
    WeightFunction,
    build_birth_death,
    build_example21,
    build_example22,
    chain_spec,
    distribution,
    dual,
    is_reversible,
    load_chain_file,
    parse_chain_dict,
    reversibilize,
    stationary,
    truncate,
    validate,
    weight_function,
)
from .errors import (
    EigenFailure,
    ErgorateError,
    InsufficientData,
    InvalidBeta,
    NegativeRate,
    NoDrift,
    NoiseFloor,
    NonConservative,
    Overflow,
    Reducible,
    SingularSystem,
    TooLarge,
    ZeroRate,
)
from .htransform import (
    HFunction,
    LemmaReport,
    TransformedSemigroup,
    check_lemma31,
    check_lemma32,
    check_lemma33,
    h_function,
    measured_l2_rate,
    transform,
)
from .montecarlo import (
    EmpiricalDecay,
    TrajectoryEnsemble,
    empirical_fnorm,
    empirical_law,
    empirical_to_csv,
    sample_paths,
)
from .semigroup import (
    DecayCurve,
    Propagator,
    RateFit,
    SemigroupSnapshot,
    decay_curve,
    decay_curve_to_csv,
    default_time_grid,
    expm,
    f_norm,
    fit_rate,
    mu_ft_norm,
    opnorm_inf_to_1,
    opnorm_inf_to_2,
)
from .spectral import (
    EIG_TOL,
    DriftReport,
    SpectralReport,
    drift_condition,
    eigenvalues,
    ergodicity_constant,
    gap,
    spectral_report,
    true_decay_rate,
)

__version__ = "0.1.0"
