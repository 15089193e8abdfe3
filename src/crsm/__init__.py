"""Max-stable random sup-measures and Choquet random sup-measures on
finite carriers: capacity calculus, nonlinear integrals, tail dependence
functionals, exact LePage simulation and the statistical checks tying
them together."""

__version__ = "0.1.0"

from .carrier import (
    Carrier,
    CarrierSizeError,
    TorusTag,
    enumerate_subsets,
    sup_integral,
)
from .setfun import (
    Capacity,
    MobiusMeasure,
    capacity_from_measure,
    check_complete_alternation_direct,
    classify,
    mobius_inverse,
    successive_difference,
)
from .integrals import (
    choquet_integral,
    comonotone_additivity_check,
    comonotone_formula,
    comonotonic,
    extremal_integral,
    extremal_integral_setform,
)
from .tdf import (
    ChoquetTDF,
    DiscreteMeasure,
    LebesgueTDF,
    SpectralTDF,
    check_max_complete_alternation,
    crsm_envelope,
    dominates,
    dual_greedy,
    dual_oracle,
    extremal_coefficients,
    joint_cdf,
)
from .transforms import (
    BernsteinFunction,
    check_stationary,
    compose_capacity,
    distortion_capacity,
    exchangeable_capacity,
    subset_size_capacity,
    torus_storm_capacity,
)
from .simulate import (
    Coupling,
    MaxTermsExceeded,
    SampleBatch,
    SimConfig,
    SpectralSampler,
    argmax_independence_test,
    argmax_set,
    continuity_bound_check,
    couple,
    frechet_scale_estimate,
    independence_on_disjoint,
    simulate_crsm,
    simulate_model,
    simulate_spectral,
    substream,
)
from .verify import CheckResult, verify_model

__all__ = [name for name in dir() if not name.startswith("_")]
