"""Exception hierarchy shared across the package."""


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


class MissingEnvelope(KinnetError):
    """ISS verification requested without an unforced companion run."""


class CflError(KinnetError):
    """Time step exceeds the characteristic CFL bound dx_min / v_max."""


class ExtinctionFlag(KinnetError):
    """Trajectory norm hit exact zero: finite exit, decay rate infinite."""
