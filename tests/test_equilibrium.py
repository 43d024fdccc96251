"""Exact equilibrium oracles for the solved policy.

Both oracles share only the transition law (``build_stencil_batch``) with
the solver.  They score a control by the mean-variance functional of the
README, taken on the chain's exact terminal law:

* paper-literal: ``J = Var - (gamma/2) Mean``, minimized;
* mean-minus-variance: ``J = Mean - (gamma/2) Var``, maximized.

The stored policy is an equilibrium when no single (slice, node) pair
gains by a one-step deviation, all later decisions kept as stored.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attnmv.cli import load_config
from attnmv.kernel import build_stencil_batch
from attnmv.lattice import GridSpec
from attnmv.market import example_model
from attnmv.solver import ControlGrid, solve

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

# sense: +1 where J is minimized, -1 where it is maximized
FUNCTIONALS = {
    "paper-literal": (1.0, lambda mean, var, gamma: var - 0.5 * gamma * mean),
    "mean-minus-variance": (-1.0,
                            lambda mean, var, gamma: mean - 0.5 * gamma * var),
}


def epoch_laws(model, lat, grid):
    """Stencil batch of every coefficient epoch, built from the model."""
    u_arr, pi_arr = grid.enumerate()
    return [build_stencil_batch(model, lat, float(t), u_arr, pi_arr)
            for t in model.time_breaks]


def deviation_scan(model, fields):
    """Propagate g = E[X_T] and h = E[X_T^2] backward under the stored
    policy and score every control of every (slice, node) pair.

    Returns the largest gain of a one-step deviation, the number of pairs
    gaining more than 1e-12 * max(1, |J|), and (g, h) at slice 0.
    """
    sense, J = FUNCTIONALS[model.objective_convention]
    gamma = model.risk_aversion
    lat = fields.lat
    laws = epoch_laws(model, lat, fields.grid)
    nodes = np.arange(lat.n_nodes)
    g, h = lat.x.copy(), lat.x * lat.x
    worst, flagged = 0.0, 0
    for n in range(fields.spec.n_steps - 1, -1, -1):
        batch = laws[model.epoch_of(n * fields.spec.h2)]
        Eg = np.einsum("con,no->cn", batch.probs, g[lat.neighbors])
        Eh = np.einsum("con,no->cn", batch.probs, h[lat.neighbors])
        score = np.where(batch.valid, sense * J(Eg, Eh - Eg * Eg, gamma),
                         np.inf)
        row = fields.policy[n]
        assert batch.valid[row, nodes].all()
        stored = score[row, nodes]
        gain = stored - score.min(axis=0)
        worst = max(worst, float(gain.max()))
        flagged += int((gain > 1e-12 * np.maximum(1.0, np.abs(stored))).sum())
        g, h = Eg[row, nodes], Eh[row, nodes]
    return worst, flagged, g, h


@pytest.fixture(scope="module", params=sorted(FUNCTIONALS))
def default_solution(request):
    cfg = load_config(CONFIG)
    model = replace(cfg.model, objective_convention=request.param)
    return model, solve(model, cfg.grid_spec(), cfg.control_grid())


def test_default_policy_admits_no_profitable_deviation(default_solution):
    model, fields = default_solution
    worst, flagged, _, _ = deviation_scan(model, fields)
    pairs = fields.spec.n_steps * fields.lat.n_nodes
    assert flagged == 0, f"{flagged} of {pairs} pairs improvable, " \
        f"largest gain {worst:.3e}"


def test_default_value_is_functional_of_moments(default_solution):
    model, fields = default_solution
    _, J = FUNCTIONALS[model.objective_convention]
    _, _, g, h = deviation_scan(model, fields)
    np.testing.assert_allclose(fields.g[0], g, rtol=0.0, atol=1e-12)
    err = np.abs(fields.V[0] - J(g, h - g * g, model.risk_aversion))
    assert err.max() <= 1e-10


def dense(lat, probs):
    """Dense (n, n) transition matrix of one control's law (n_out, n)."""
    P = np.zeros((lat.n_nodes, lat.n_nodes))
    rows = np.broadcast_to(np.arange(lat.n_nodes)[:, None], lat.neighbors.shape)
    np.add.at(P, (rows, lat.neighbors), probs.T)
    return P


@pytest.mark.parametrize("convention", sorted(FUNCTIONALS))
def test_brute_force_single_node_deviations(convention):
    # 8 x 6 = 48 nodes, 4 slices, 9 controls; h2 large enough that the
    # controls' terminal laws differ well above roundoff
    sense, J = FUNCTIONALS[convention]
    spec = GridSpec(h1=0.2, h2=0.01, x_min=0.0, x_max=1.4, n_steps=4)
    model = example_model(T=0.04, objective_convention=convention)
    grid = ControlGrid.regular(d=1, u_max=1.0, du=0.5,
                               pi_min=model.attention_min,
                               pi_max=model.attention_max, n_pi=3)
    fields = solve(model, spec, grid)
    lat = fields.lat
    assert lat.n_nodes == 48
    laws = epoch_laws(model, lat, grid)
    n_c, N, gamma = grid.n_controls, spec.n_steps, model.risk_aversion
    tail = np.eye(lat.n_nodes)           # stored-policy law from slice n+1 on
    for n in range(N - 1, -1, -1):
        batch = laws[model.epoch_of(n * spec.h2)]
        P = np.stack([dense(lat, batch.probs[c]) for c in range(n_c)])
        terminal = P @ tail                 # (c, start node, terminal node)
        mean = terminal @ lat.x
        var = terminal @ (lat.x * lat.x) - mean * mean
        score = np.where(batch.valid, sense * J(mean, var, gamma), np.inf)
        for node in range(lat.n_nodes):
            c = int(fields.policy[n, node])
            assert batch.valid[c, node]
            tol = 1e-12 * max(1.0, abs(score[c, node]))
            assert abs(fields.V[n, node] - sense * score[c, node]) <= tol
            for dev in range(n_c):
                assert score[c, node] <= score[dev, node] + tol, \
                    (n, node, c, dev)
        stored = P[fields.policy[n], np.arange(lat.n_nodes)]
        tail = stored @ tail
