"""disqo: distributed solving of constraint-coupled quadratic programs plus
incentive-payment mechanisms (per-unit shadow prices and lump-sum externality
payments) computed from the resulting primal/dual solutions.

Modules
-------
graphs       communication topologies and lazy-Metropolis mixing weights
qp           dense convex-QP kernel: a solve is a function of its linear term and guess
problem      coupled-problem containers, centralized reference solver, duals
admm         the distributed consensus-tracking solver (plain + accelerated)
transport    commodity-transport instances: templates, generator, (de)serialization
star         closed-form oracle for single-demander star networks
mechanisms   shadow-pricing and externality payments, misreport experiments
cli          command-line front end (``disqo`` entry point)
"""

import importlib

from . import admm, errors, graphs, mechanisms, problem, qp, star, transport
from .admm import SolverParams, SolveResult, solve
from .errors import DisqoError
from .graphs import CommGraph, build_graph, metropolis_weights
from .mechanisms import (
    misreport_portfolio,
    misreport_sweep,
    sp_for_problem,
    vcg_ic_check,
    vcg_payments,
)
from .problem import CoupledProblem, ReportedProblem, assemble_problem, centralized_solve
from .star import StarInstance, random_star, star_optimum, star_prices_utilities
from .transport import TransportInstance, build_instance, load_instance, random_instance, save_instance

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``cli`` is loaded on first use: importing it here would put it in
    # ``sys.modules`` before ``python -m disqo.cli`` runs it as ``__main__``,
    # which makes runpy warn on every such call.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "admm",
    "assemble_problem",
    "build_graph",
    "build_instance",
    "centralized_solve",
    "cli",
    "CommGraph",
    "CoupledProblem",
    "DisqoError",
    "errors",
    "graphs",
    "load_instance",
    "mechanisms",
    "metropolis_weights",
    "misreport_portfolio",
    "misreport_sweep",
    "problem",
    "qp",
    "random_instance",
    "random_star",
    "ReportedProblem",
    "save_instance",
    "solve",
    "SolveResult",
    "SolverParams",
    "sp_for_problem",
    "star",
    "star_optimum",
    "star_prices_utilities",
    "StarInstance",
    "transport",
    "TransportInstance",
    "vcg_ic_check",
    "vcg_payments",
]
