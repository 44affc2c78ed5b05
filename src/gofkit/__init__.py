"""Kernel-embedding goodness-of-fit tests: MMD, moderated MMD and an
adaptive max-over-grid variant, plus spectral kernel machinery, null
calibration, alternative samplers and a replication harness.

The alternative samplers' names import ``gofkit.dists`` on first use, so
that a decision loads only the modules it runs.
"""
from .calibrate import (
    NullCalibration,
    chisq_mix_quantile,
    empirical_null_quantile,
    normal_calibration,
    normal_quantile,
)
from .embedding import (
    AdaptiveStat,
    RhoGrid,
    Sample,
    TestReport,
    adaptive_grid,
    adaptive_stat,
    eta_sq,
    eta_sq_gram,
    mmd_vstat,
    null_calibration,
    rho_schedule,
    run_test,
    studentized_stat,
    theory_threshold,
)
from .spectrum import (
    DecompositionError,
    ModeratedSpectrum,
    NystromBasis,
    Quadrature,
    SampleSummary,
    SpectralBasis,
    SphereZonalBasis,
    cosine_basis,
    effective_variance,
    estimate_decay_exponent,
    gauss_legendre_01,
    load_spectrum,
    null_sampler,
    nystrom_decompose,
    save_spectrum,
    sphere_zonal_spectrum,
    tensor_product_basis,
)

__version__ = "0.24.0"

__all__ = [
    "AdaptiveStat",
    "AlternativeSpec",
    "DecompositionError",
    "ModeratedSpectrum",
    "NullCalibration",
    "NystromBasis",
    "Quadrature",
    "RhoGrid",
    "Sample",
    "SampleSummary",
    "SpectralBasis",
    "SphereZonalBasis",
    "TestReport",
    "adaptive_grid",
    "adaptive_stat",
    "chisq_mix_quantile",
    "cosine_basis",
    "density",
    "effective_variance",
    "empirical_null_quantile",
    "estimate_decay_exponent",
    "eta_sq",
    "eta_sq_gram",
    "gauss_legendre_01",
    "least_favorable",
    "load_spectrum",
    "mmd_vstat",
    "normal_calibration",
    "normal_quantile",
    "null_calibration",
    "null_sampler",
    "nystrom_decompose",
    "rho_schedule",
    "run_test",
    "sample",
    "save_spectrum",
    "sphere_zonal_spectrum",
    "studentized_stat",
    "tensor_product_basis",
    "theory_threshold",
]


def __getattr__(name):
    # read from dists on every access and never stored here, so that it is
    # whatever dists holds now
    if name in ("AlternativeSpec", "density", "least_favorable", "sample"):
        from . import dists

        return getattr(dists, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
