"""Exception types shared across the package.

Every failure mode that a caller might reasonably catch gets its own
class; all inherit from ConduxError so `except ConduxError` catches
anything raised deliberately by this package.
"""

from __future__ import annotations


class ConduxError(Exception):
    """Base class for all errors raised by condux."""


class ConfigError(ConduxError):
    """Malformed or inconsistent configuration input."""


class NumericalBlowup(ConduxError):
    """A state, input, or matrix entry became non-finite during integration."""

    def __init__(self, t: float, detail: str = ""):
        self.t = t
        msg = f"non-finite value at t={t!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class GainFloorViolated(ConduxError):
    """|df/du| fell below the model's gain floor, so f_inv is ill-posed there."""


class NoCrossings(ConduxError):
    """Poincare section was never crossed in the allotted time."""


class PeriodUnstable(ConduxError):
    """No attracting periodic orbit: too few returns, or Newton shooting failed
    or closed an orbit that does not attract."""


class PeriodMismatch(ConduxError):
    """Detected period disagrees with the one implied by the input signal."""


class ZeroLeadingCoefficient(ConduxError):
    """Polynomial handed to the Routh test has a vanishing leading coefficient."""


class TangentDegenerate(ConduxError):
    """Limit-cycle tangent direction could not be resolved from the data."""


class NoStabilizingAmplitude(ConduxError):
    """Amplitude search exhausted its bracket without finding a stable design."""


class RangeViolation(ConduxError):
    """Reference trajectory leaves the region where the certificate applies."""


class QuadratureNonConvergence(ConduxError):
    """Numerical quadrature failed to reach the requested tolerance."""


class ZeroResponse(ConduxError):
    """Harmonic response is numerically zero, so amplitude matching is undefined."""


class InverseNotContracting(ConduxError):
    """Inverse subsystem's periodic multiplier is not inside the unit circle."""


class AntiderivativeMismatch(ConduxError):
    """Stated antiderivative disagrees with its integrand under differentiation."""
