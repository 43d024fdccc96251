"""Equilibrium mean-variance investment with controllable attention.

Numerical solver for the closed-loop equilibrium of a mean-variance
investor in a market whose coefficients switch with a hidden regime chain,
observed through a signal whose precision (attention) is itself a costly
control.  The coupled value/auxiliary-mean recursion is solved by backward
induction on a locally consistent approximating chain over the joint
wealth-belief lattice, and verified against independent Monte-Carlo
simulation of both the chain and the filtered dynamics.

Import from the modules (``attnmv.solver``, ``attnmv.oracle``, ...); the
package root exports only ``__version__``.
"""

__version__ = "0.1.0"
