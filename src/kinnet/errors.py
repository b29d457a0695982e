"""Exception hierarchy and floating-point policy shared across the package."""

import numpy as np


def _ieee_policy():
    """The package's one policy for IEEE floating-point exceptions: overflow,
    division by zero and invalid operations give inf or nan silently.

    Each numeric entry point that checks non-finite values itself runs under
    it: the NetworkBounds that NetworkSpec builds at construction,
    operators._gain_factors, spectral.spectral_radius,
    spectral.spectral_abscissa, simulator.run and analysis.fit_decay. There a
    non-finite value is either refused, as a KinnetError that names what
    passed the float range, or is the answer, as an unstable run's records
    or a radius of inf are; it is never a NumPy warning. Everything else
    keeps NumPy's defaults, so an unplanned overflow still shows.

    A fresh context per call, since one errstate cannot be entered twice
    while it is open; as a decorator it enters once per call.
    """
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


class KinnetError(Exception):
    """Base class for all package errors."""


class SchemaError(KinnetError):
    """Config document is missing a field or has an ill-typed value."""


class ValidationError(KinnetError):
    """A network invariant is violated; message names the field and circle."""


class DomainError(KinnetError):
    """Argument outside its physical domain (e.g. position off the circle)."""


class HistoryGapError(KinnetError):
    """Trace history buffer does not cover the full delay interval."""


class BracketError(KinnetError):
    """No sign change of r(gain) - 1 found while expanding the bracket."""


class PreconditionError(KinnetError):
    """Operation precondition unmet (e.g. mass-preserving flag not set)."""


class SmallGainViolation(KinnetError):
    """ISS constants requested while the junction norm is >= 1, or ISS
    verification requested while the certificate (carried when known) does
    not say ISS."""

    def __init__(self, msg, certificate=None):
        super().__init__(msg)
        self.certificate = certificate


class CflError(KinnetError):
    """Time step exceeds the characteristic CFL bound dx_min / v_max."""


class ExtinctionFlag(KinnetError):
    """Trajectory norm hit exact zero: finite exit, decay rate infinite."""
