"""Exception hierarchy for the biphoton package."""


class BiphotonError(Exception):
    """Base class for all errors raised by this package."""


# -- spectral engine ---------------------------------------------------------

class ZeroDensity(BiphotonError):
    """Spectral density integrates to (numerically) zero, or to no finite
    value, on the working grid."""


# -- closed-form interferometer ----------------------------------------------

class AsymmetricSpectrum(BiphotonError):
    """Spectral density uneven and spatial amplitude exchange asymmetric:
    the symmetrised state is no product, so no closed form applies."""


class UnderSampled(BiphotonError):
    """Scan step too coarse for the pump fringes, or reach too far for the frequency grid."""


class InvalidRates(BiphotonError):
    """An interferogram rate trace holds a negative or non-finite value."""


# -- discrete-mode simulator ---------------------------------------------------

class UnknownElement(BiphotonError):
    """Pipeline element type is not recognised."""


# -- analysis ------------------------------------------------------------------

class EmptyOrNegative(BiphotonError):
    """Samples are empty, contain negative rates, or have no positive maximum."""


class UnderResolved(BiphotonError):
    """Too few samples per fringe period for a reliable estimate."""


class NoFringe(BiphotonError):
    """No oscillatory component above the detection threshold."""


class NoDip(BiphotonError):
    """Envelope-extracted trace has no dip of significant depth."""


class NonFiniteSpectrum(BiphotonError):
    """A trace holds a non-finite rate, or rates so large its spectrum would overflow."""


class GridMismatch(BiphotonError):
    """A trace and its delay grid differ in length, or a window holds no sample."""
