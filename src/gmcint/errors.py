"""Exception types shared across the package."""


class GmcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GmcError):
    """Argument outside the domain of definition of an operation."""


class PoleError(DomainError):
    """Gamma-type function evaluated at (or too close to) a pole."""


class BoundsError(GmcError):
    """Parameter quadruple violates the moment-existence bounds."""


class ConvergenceError(GmcError):
    """A series failed to converge, or a quadrature panel failed its error test."""


class DegenerateCError(GmcError):
    """Hypergeometric lower parameter is a nonpositive integer."""


class DegenerateParamsError(GmcError):
    """Connection-formula parameters too close to an integer degeneracy."""


class GridError(GmcError):
    """Quadrature grid too coarse for the requested number of field modes."""


class ResolutionError(GmcError):
    """An empirical estimate has too few events to be meaningful."""
