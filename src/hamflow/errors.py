"""Exception taxonomy shared across the package.

Every error raised on a contract violation is a subclass of HamflowError, so
callers (and the CLI) can distinguish usage problems from genuine numerical
failures.
"""

from __future__ import annotations


class HamflowError(Exception):
    """Base class for all package-specific errors."""


class JetOrderError(HamflowError):
    """A derivative order was requested that the jet does not carry."""


class DimensionMismatch(HamflowError):
    """Operands live on charts of incompatible dimension."""


class SingularMetric(HamflowError):
    """Metric matrix is singular or not positive definite at a sample."""


class DegenerateForm(HamflowError):
    """A 2-form that must be nondegenerate has a (near-)zero Pfaffian."""


class EmptyDomainSuspected(HamflowError):
    """Rejection sampling acceptance ratio fell below the plausibility floor."""


class BoundaryNotFound(HamflowError):
    """No boundary crossing was located from any sampled interior ray."""


class IneffectiveAction(HamflowError):
    """Circle action weights share a common factor, so the action is not effective."""


class BadStructureConstant(HamflowError):
    """Surface potential level produces the wrong sub-level topology."""


class MomentMapMismatch(HamflowError):
    """Constructed model fails its own moment-map identity at seeded samples."""


class SurfaceBlowupUnsupported(HamflowError):
    """Blow-up construction requested at a point of a positive-dimensional fixed set."""


class NotLegendrian(HamflowError):
    """Gluing was requested along an orbit that is not a Legendrian circle."""


class CollarTooDeep(HamflowError):
    """Gluing collar depth exceeds the validity range of the boundary coordinates."""


class BadRamp(HamflowError):
    """Collar width of the disc-bundle lid lies outside (0, 0.3]."""


class StiffFlow(HamflowError):
    """Adaptive integrator step size collapsed below its floor."""


class ImmediateExit(HamflowError):
    """Gradient trajectory started on the boundary pointing strictly outward."""


class NotCritical(HamflowError):
    """Hessian classification requested at a point that is not critical."""


class UnsupportedBase(HamflowError):
    """Handle attachment has no standard-neighborhood fit for this base model."""
