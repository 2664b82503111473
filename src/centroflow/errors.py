"""Exception types shared across the package."""


class CentroflowError(Exception):
    """Base class for all package-specific errors."""


class NonPositive(CentroflowError):
    """Support samples must be strictly positive (origin interior)."""


class NonConvex(CentroflowError):
    """Curvature h'' + h fails strict positivity somewhere on the grid."""


class AsymmetricData(CentroflowError):
    """Antipodal support samples differ: every body must be origin-symmetric."""


class UnderResolved(CentroflowError):
    """An operator's result is not a valid body on any grid it may use."""


class GridMismatch(CentroflowError):
    """Binary operation applied to bodies with different grid sizes."""


class ConvexityLost(CentroflowError):
    """Time stepping lost strict convexity.  Signals a step-size failure,
    not a property of the evolution itself."""

    def __init__(self, t, message=""):
        self.t = t
        super().__init__(message or f"convexity lost at t={t:.9g}")


class StepUnderflow(CentroflowError):
    """Step size not above 1e-16 max(t, tau), tau = min(h^3 S) the body's own
    time scale (a scale-free floor: a scaled body flows as the original), or inf."""
