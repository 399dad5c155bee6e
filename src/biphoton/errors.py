"""Exception classes of the biphoton package.

There is one class per way a caller handles an error.  An engine failure
that no caller tells apart raises BiphotonError with a message naming
what failed; ``cli.main`` maps it to exit 2.  A subclass exists only
because some caller catches it by type: ``cli.load_config`` catches
UnderSampled, and ``analysis.report`` reads NoFringe and NoDip as an
absent period or dip width.
"""


class BiphotonError(Exception):
    """Base class for all errors raised by this package."""


class UnderSampled(BiphotonError):
    """Scan step too coarse for the pump fringes, or reach too far for the frequency grid."""


class NoFringe(BiphotonError):
    """No oscillatory component above the detection threshold."""


class NoDip(BiphotonError):
    """Envelope-extracted trace has no dip of significant depth."""
