"""Simulation and analysis of two-photon Mach-Zehnder interference.

Photon pairs from collinear degenerate down-conversion enter one input
port of a Mach-Zehnder interferometer, either balanced (equal mirror
parity in both arms) or mirror-unbalanced (one arm applies a transverse
flip x -> -x).  The package evaluates singles and coincidence
interferograms two independent ways -- closed forms and a brute-force
discrete-mode simulator -- and extracts visibilities, fringe periods and
dip widths from the scans.
"""

from .errors import (
    AsymmetricSpectrum,
    BiphotonError,
    EmptyOrNegative,
    GridMismatch,
    InvalidRates,
    NoDip,
    NoFringe,
    NonFiniteSpectrum,
    UnderResolved,
    UnderSampled,
    UnknownElement,
    ZeroDensity,
)
from .spectral import (
    EnvelopeEvaluator,
    FrequencyGrid,
    Gaussian,
    Rectangular,
    SpectralDensity,
    Tabulated,
    default_frequency_grid,
    normalize,
)
from .spatial import (
    ParityOverlap,
    SpatialAmplitude,
    SpatialGrid,
    default_spatial_grid,
    flip_overlap,
    gaussian_amplitude,
    hermite_gauss1_amplitude,
    pump_parity_overlap,
)
from .states import (
    AntiCorrelated,
    CorrelatedPump,
    GeneralSpatial,
    GeneralSpectral,
    TwoPhotonState,
    default_spdc_state,
    exchange_overlaps,
    reduced_spatial_operator,
)
from .interferometer import (
    Interferogram,
    InterferometerConfig,
    MZI,
    MZIM,
    intensity_mzim,
    rates,
    scan,
    scan_configs,
)
from .modesim import (
    BeamSplitter,
    Branch,
    BranchSumState,
    Delay,
    SpatialFlip,
    apply_pipeline,
    build_initial_state,
    build_pipeline,
    coincidence_rate,
    oracle_scan,
    singles_rate,
    total_norm,
)
from .analysis import (
    VisibilityReport,
    fringe_period,
    hom_dip_fwhm,
    report,
    visibility,
)

__version__ = "0.1.0"
