"""Harmonic-oscillator eigenspace projections, caustic scaling limits, and
Kac-Rice nodal statistics of Gaussian random Hermite eigenfunctions."""

__version__ = "0.1.0"

from .semiclassical import (  # noqa: F401
    ResourceLimitError,
    SemiclassicalLevel,
    TrackedReal,
    eigenspace_dim,
    hermite_all,
    hermite_deriv_all,
    level_new,
    multi_indices,
    rescale_to_unit,
)
from .projector import (  # noqa: F401
    CovarianceJet,
    covariance_jet,
    covariance_jet_batch,
    pi_exact,
    pi_exact_batch,
    pi_mehler,
)
from .airy import ai, ai_k, ai_k_asymptotic  # noqa: F401
from .scaled_kernel import (  # noqa: F401
    CausticFrame,
    compose_pi0,
    pi0,
    pi0_airy,
    pi0_airy_batch,
    pi0_contour,
)
from .densities import (  # noqa: F401
    KacRiceMatrix,
    Region,
    RegimeQuery,
    caustic_crossing_constant,
    caustic_intersection_density,
    density_regime,
    density_regime_batch,
    kac_rice_density,
    kac_rice_density_batch,
    omega_caustic_scaled,
    omega_exact,
    omega_exact_batch,
    tube_mass,
)
from .montecarlo import (  # noqa: F401
    EnsembleSpec,
    NodalEstimate,
    RandomEigenfunction,
    caustic_crossings,
    caustic_crossings_ensemble,
    nodal_length,
    nodal_length_ensemble,
    radial_zero_profile,
    sample_field,
)
