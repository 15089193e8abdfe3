"""Max-stable random sup-measures and Choquet random sup-measures on
finite carriers: capacity calculus, nonlinear integrals, tail dependence
functionals, exact simulation and the statistical checks tying
them together.

Each public name is imported from its module on first access (PEP 562),
so `import crsm` loads no module and a caller of the lattice calculus
never loads the samplers."""

import importlib

__version__ = "0.1.0"
# the random stream layout of crsm.simulate, read without loading it
STREAM_VERSION = 2

# module -> the public names it exports here
_EXPORTS = {
    "carrier": (
        "Carrier", "CarrierSizeError", "TorusTag",
    ),
    "setfun": (
        "Capacity", "MobiusMeasure", "capacity_from_measure",
        "check_complete_alternation_direct", "classify", "mobius_inverse",
        "successive_difference",
    ),
    "integrals": (
        "choquet_integral", "comonotone_additivity_check", "comonotone_formula",
        "comonotonic", "extremal_integral", "extremal_integral_setform",
    ),
    "tdf": (
        "SpectralTDF",
        "check_max_complete_alternation", "crsm_envelope", "dominates",
        "dual_greedy", "dual_oracle", "extremal_coefficients", "joint_cdf",
    ),
    "transforms": (
        "BernsteinFunction", "check_stationary", "compose_capacity",
        "distortion_capacity", "exchangeable_capacity", "subset_size_capacity",
        "torus_storm_capacity",
    ),
    "simulate": (
        "Coupling", "MaxTermsExceeded", "SampleBatch", "SimConfig",
        "SpectralSampler", "couple", "simulate_crsm", "simulate_model",
        "simulate_spectral", "substream",
    ),
    "verify": (
        "CheckResult", "argmax_independence_test", "argmax_set",
        "continuity_bound_check", "frechet_scale_estimate",
        "independence_on_disjoint", "verify_model",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
