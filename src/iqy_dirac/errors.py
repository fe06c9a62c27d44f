"""Exception types shared across the package."""


class IqyDiracError(Exception):
    """Base class for all package errors."""


class NegativeRadicand(IqyDiracError):
    """A square-root argument is negative beyond the floating-point tolerance."""


class DegreeCapExceeded(IqyDiracError):
    """Polynomial degree above the certified recurrence range."""


class DomainError(IqyDiracError):
    """Evaluation point outside the admissible range of the working variable."""


class ZeroKappa(IqyDiracError):
    """The spin-orbit quantum number must be a nonzero integer."""


class EnergyAtThreshold(IqyDiracError):
    """Companion-component denominator vanishes at the symmetry threshold."""


class ExponentNotReal(NegativeRadicand):
    """A wavefunction exponent is complex for the requested energy."""


class EmptyWindow(IqyDiracError):
    """Requested energy window misses a state's scan interval, or the strict domain is empty."""


class NoRoot(IqyDiracError):
    """No converged energy root is available for the requested state."""


class NonpositiveR(IqyDiracError):
    """Radial coordinate must be strictly positive."""


class SeedUndefined(IqyDiracError):
    """Asymptotic boundary seed is undefined for the trial energy."""


class NoRootInWindow(IqyDiracError):
    """Shooting scan found no eigenvalue bracket inside the window."""


class NodeMismatch(IqyDiracError):
    """Converged shooting eigenvalue has the wrong interior node count."""


class ConfigError(IqyDiracError):
    """Invalid run configuration."""


class IoError(IqyDiracError):
    """File input/output failure."""
