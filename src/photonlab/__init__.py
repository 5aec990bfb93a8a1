"""Desk-scale numerical laboratory for single-photon fields.

Natural units (hbar = c = epsilon_0 = 1) everywhere; SI scale factors are
applied only when results are exported.
"""

__version__ = "0.1.0"

from .mode_space import (  # noqa: F401
    HELICITIES,
    PhotonSpectrum,
    SpatialGrid,
    SpectralSummary,
    WaveVectorGrid,
    build_basis,
    circular_spectrum,
    evolve,
    gaussian_spectrum,
    localized_spectrum,
    normalize,
    scalar_product,
    spectral_summary,
)
from .field_synthesis import FieldSnapshot, synthesize  # noqa: F401
