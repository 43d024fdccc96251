"""Equilibrium mean-variance investment with controllable attention.

Numerical solver for the closed-loop equilibrium of a mean-variance
investor in a market whose coefficients switch with a hidden regime chain,
observed through a signal whose precision (attention) is itself a costly
control.  The coupled value/auxiliary-mean recursion is solved by backward
induction on a locally consistent approximating chain over the joint
wealth-belief lattice, and verified against independent Monte-Carlo
simulation of both the chain and the filtered dynamics.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, SchemeError
from .lattice import GridSpec, Lattice, build_grid
from .market import RegimeModel, example_model, validate_model
from .oracle import (ConstantPolicy, FeedbackPolicy, McSummary,
                     marginal_check, simulate_chain, simulate_sde)
from .solver import (ControlGrid, SolutionFields, ratio_policy, solve,
                     spike_margins, step_back)

__all__ = [
    "ConfigError", "DomainError", "SchemeError",
    "GridSpec", "Lattice", "build_grid",
    "RegimeModel", "example_model", "validate_model",
    "ConstantPolicy", "FeedbackPolicy", "McSummary", "marginal_check",
    "simulate_chain", "simulate_sde",
    "ControlGrid", "SolutionFields", "ratio_policy", "solve",
    "spike_margins", "step_back",
    "__version__",
]
