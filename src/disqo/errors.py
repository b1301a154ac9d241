"""Exception types shared across the package."""

from __future__ import annotations


class DisqoError(Exception):
    """Base class for all package-specific errors."""


class InvalidEdge(DisqoError):
    """An edge references a node out of range, or is a self-loop/duplicate."""


class DisconnectedGraph(DisqoError):
    """The communication graph is not connected."""


class DimensionMismatch(DisqoError):
    """Array shapes are inconsistent with the declared problem dimensions."""


class NonConvexObjective(DisqoError):
    """The summed Hessian has a significantly negative eigenvalue."""


class NonPsdHessian(DisqoError):
    """A QP Hessian is not positive semidefinite."""


class EmptyLocalSet(DisqoError):
    """A local polyhedron B_i x <= m_i has no feasible point."""


class UnknownAgent(DisqoError):
    """An agent index is out of range."""


class Infeasible(DisqoError):
    """The optimization problem has no feasible point."""


class Unbounded(DisqoError):
    """The objective is unbounded below on the feasible set."""


class MaxIterReached(DisqoError):
    """An iterative method hit its iteration budget before converging."""


class InfeasibleWithoutAgent(DisqoError):
    """Removing an agent leaves the coupled problem infeasible."""


class InfeasibleInitialPoint(DisqoError):
    """A supplied starting point violates a local constraint set."""


class ConventionMismatch(DisqoError):
    """A dual vector does not satisfy the stationarity system in the sign tested."""


class NoPathExists(DisqoError):
    """A demander cannot be reached from any supplier."""


class ActiveSetChanged(DisqoError):
    """A closed-form perturbation result is invalid because the active set moved."""


class InvalidConfig(DisqoError):
    """A configuration file is malformed, incomplete, or has a bad value."""


class DecompositionMismatch(DisqoError):
    """The algorithmic and actual decompositions sum to different total objectives."""
