import hashlib

import numpy as np
import pytest

from attnmv.errors import ConfigError, SchemeError
from attnmv.kernel import _coefficients, build_stencil_batch
from attnmv.lattice import GridSpec, build_grid
from attnmv.market import example_model
from attnmv.solver import (ControlGrid, SolutionFields, StencilCache,
                           _candidates, _corrections, g_residuals,
                           ratio_policy, solve, spike_margins, step_back)


def frozen_model():
    return example_model(generator=[[0.0, 0.0], [0.0, 0.0]], riskfree=0.0,
                         drift=[[0.0], [0.0]], signal_levels=[1.0, 1.0],
                         cost_coeff=0.0, T=0.01)


def frozen_grid(model, n_pi=3):
    return ControlGrid.regular(d=1, u_max=0.0, du=1.0,
                               pi_min=model.attention_min,
                               pi_max=model.attention_max, n_pi=n_pi)


def small_spec(n_steps=10, h2=0.001):
    return GridSpec(h1=0.2, h2=h2, x_min=0.0, x_max=4.0, n_steps=n_steps)


def one_control(mdl, lat, u, pi):
    """Cache and stencil batch of a grid whose row 1 is the control (u, pi).

    A control grid must hold the zero position, so row 0 is (0, pi).
    """
    cache = StencilCache(mdl, lat, ControlGrid(u_levels=[[0.0], [u]],
                                               pi_levels=[pi]))
    return cache, cache.batch(0.0)


def correction(mdl, lat, node, u, pi, g_next):
    cache, batch = one_control(mdl, lat, u, pi)
    return float(_corrections(cache, batch, np.asarray(g_next, float))[1, node])


def candidate(mdl, lat, node, u, pi, V_next, g_next):
    cache, batch = one_control(mdl, lat, u, pi)
    return float(_candidates(cache, batch, np.asarray(V_next, float),
                             np.asarray(g_next, float))[1, node])


def step_from(mdl, lat, grid, V_next, g_next):
    """One backward step from (V_next, g_next) on the whole lattice."""
    n = lat.n_nodes
    fields = SolutionFields(model=mdl, spec=lat.spec, lat=lat, grid=grid,
                            V=np.stack([np.empty(n), V_next]),
                            g=np.stack([np.empty(n), g_next]),
                            policy=np.empty((1, n), dtype=np.int32))
    step_back(mdl, fields, 0)
    return fields


# -- control grid ------------------------------------------------------------

def test_control_grid_enumeration_order():
    cg = ControlGrid.regular(d=1, u_max=1.0, du=0.5, pi_min=0.1, pi_max=0.3,
                             n_pi=3)
    u, pi = cg.enumerate()
    pairs = list(zip(u[:, 0].tolist(), pi.tolist()))
    assert pairs == sorted(pairs)
    assert cg.n_controls == 9
    assert np.any(np.all(cg.u_levels == 0.0, axis=1))
    assert pi.min() == 0.1 and pi.max() == 0.3


def test_control_grid_requires_zero():
    with pytest.raises(Exception):
        ControlGrid(u_levels=np.array([[1.0]]), pi_levels=np.array([0.5]))


# -- g correction ------------------------------------------------------------

def test_g_correction_affine_vanishes(worked_setup):
    mdl, lat, node = worked_setup
    g_aff = 3.0 + 2.0 * lat.x + 0.7 * lat.phi[:, 0]
    assert correction(mdl, lat, node, 2.0, 1.0, g_aff) == pytest.approx(
        0.0, abs=1e-12)


def test_g_correction_scales_with_gamma(worked_setup):
    mdl, lat, node = worked_setup
    g_quad = lat.x ** 2
    base = correction(mdl, lat, node, 2.0, 1.0, g_quad)
    half = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]], riskfree=0.0,
                         drift=[[0.05], [0.05]], vol=[[[0.1]], [[0.1]]],
                         cost_coeff=0.0, risk_aversion=0.25)
    assert correction(half, lat, node, 2.0, 1.0, g_quad) == pytest.approx(
        base / 2, rel=1e-12)


def test_g_correction_quadratic_exact():
    # sbar^2 = 0.04, gamma = 0.5, h2 = 0.001, D2_x x^2 = 2 exactly, no
    # belief diffusion: correction is -2e-5
    mdl = example_model(vol=[[[0.2]], [[0.2]]], signal_levels=[1.0, 1.0],
                        risk_aversion=0.5)
    lat = build_grid(small_spec(), 2)
    node = int(lat.index_of(5, np.array([1])))
    val = correction(mdl, lat, node, 1.0, 1.0, lat.x ** 2)
    assert val == pytest.approx(-2e-5, rel=1e-12)


# -- candidate values ----------------------------------------------------------

def test_candidate_constant_field(worked_setup):
    mdl, lat, node = worked_setup
    V = np.full(lat.n_nodes, 7.25)
    g = 1.0 + 0.5 * lat.x
    assert candidate(mdl, lat, node, 2.0, 1.0, V, g) == pytest.approx(
        7.25, abs=1e-12)


def test_candidate_frozen_identity():
    mdl = frozen_model()
    lat = build_grid(small_spec(), 2)
    node = int(lat.index_of(5, np.array([2])))
    V = np.sin(lat.x) + lat.phi[:, 0]
    g_aff = lat.x.copy()
    val = candidate(mdl, lat, node, 0.0, 1.0, V, g_aff)
    assert val == pytest.approx(V[node], abs=1e-15)


def test_candidate_linear_reproduces_drift(worked_setup):
    mdl, lat, node = worked_setup
    V = lat.x.copy()          # linear in wealth only
    g_lin = lat.x.copy()
    val = candidate(mdl, lat, node, 2.0, 1.0, V, g_lin)
    assert val == pytest.approx(lat.x[node] + 0.1 * lat.spec.h2, abs=1e-15)


# -- per-node optimization -----------------------------------------------------

def test_optimize_singleton_grid(worked_setup):
    mdl, lat, node = worked_setup
    cg = ControlGrid(u_levels=np.array([[0.0]]), pi_levels=np.array([1.0]))
    V = lat.x.copy()
    g = lat.x.copy()
    f = step_from(mdl, lat, cg, V, g)
    assert f.policy_u(0)[node, 0] == 0.0 and f.policy_pi(0)[node] == 1.0
    assert f.V[0][node] == pytest.approx(candidate(mdl, lat, node, 0.0, 1.0,
                                                   V, g))


def test_optimize_tie_break_frozen():
    mdl = frozen_model()
    lat = build_grid(small_spec(), 2)
    cg = frozen_grid(mdl, n_pi=4)
    node = int(lat.index_of(3, np.array([4])))
    V = lat.x + 0.3 * lat.phi[:, 0]
    g = 2.0 - lat.x
    f = step_from(mdl, lat, cg, V, g)
    assert f.policy_u(0)[node, 0] == 0.0
    assert f.policy_pi(0)[node] == mdl.attention_min


def test_optimize_picks_strictly_better_control(default_model):
    # positive attention cost makes high attention strictly cheaper for the
    # minimizer at positive wealth, so it must be chosen over low attention
    lat = build_grid(small_spec(), 2)
    cg = ControlGrid(u_levels=np.array([[0.0]]),
                     pi_levels=np.array([default_model.attention_min, 2.0]))
    node = int(lat.index_of(10, np.array([1])))
    V = lat.x.copy()
    g = lat.x.copy()
    f = step_from(default_model, lat, cg, V, g)
    assert f.policy_pi(0)[node] == 2.0
    lo = candidate(default_model, lat, node, 0.0, default_model.attention_min,
                   V, g)
    assert f.V[0][node] < lo


# -- stepping and solving ------------------------------------------------------

def test_step_back_constant_g(default_controls):
    # unit stencil mass: a constant g slice propagates unchanged
    spec = small_spec(n_steps=1)
    mdl = example_model(T=0.001)
    f2 = solve(mdl, spec, default_controls)
    f2.g[1][:] = 5.5
    step_back(mdl, f2, 0)
    np.testing.assert_allclose(f2.g[0], 5.5, atol=1e-12)


def test_step_back_linear_g_bond_growth():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]],
                        signal_levels=[1.0, 1.0], riskfree=0.05,
                        drift=[[0.05], [0.05]], cost_coeff=0.0, T=0.001)
    spec = small_spec(n_steps=1)
    cg = frozen_grid(mdl)
    fields = solve(mdl, spec, cg)
    lat = fields.lat
    interior = lat.ix < lat.n_x - 1
    np.testing.assert_allclose(fields.g[0][interior],
                               lat.x[interior] * (1 + 0.05 * spec.h2),
                               rtol=1e-14)


def test_solve_frozen_propagates_terminal():
    mdl = frozen_model()
    spec = small_spec(n_steps=10)
    fields = solve(mdl, spec, frozen_grid(mdl))
    np.testing.assert_array_equal(fields.V[0], fields.lat.x)
    np.testing.assert_array_equal(fields.g[0], fields.lat.x)
    assert np.all(fields.policy_pi(0) == mdl.attention_min)
    assert np.all(fields.policy_u(0) == 0.0)


def test_terminal_identities(short_fields):
    _, _, fields = short_fields
    np.testing.assert_array_equal(fields.V[-1], fields.lat.x)
    np.testing.assert_array_equal(fields.g[-1], fields.lat.x)


def test_one_step_brute_force_oracle(default_model):
    """Exhaustive scalar enumeration reproduces one backward step."""
    spec = small_spec(n_steps=1, h2=0.001)
    mdl = example_model(T=0.001)
    cg = ControlGrid.regular(d=1, u_max=1.0, du=0.5,
                             pi_min=mdl.attention_min,
                             pi_max=mdl.attention_max, n_pi=3)
    fields = solve(mdl, spec, cg)
    lat = fields.lat
    u_arr, pi_arr = cg.enumerate()
    # each control's law from its own one-control build
    laws = [build_stencil_batch(mdl, lat, 0.0, u_arr[ci:ci + 1],
                                pi_arr[ci:ci + 1], strict=True).probs[0]
            for ci in range(len(pi_arr))]
    for node in range(0, lat.n_nodes, 7):
        best_val, best_ci = None, None
        for ci in range(len(pi_arr)):
            val = float(laws[ci][:, node] @ lat.x[lat.neighbors[node]])
            # terminal g is linear, the correction vanishes
            if best_val is None or val < best_val:
                best_val, best_ci = val, ci
        assert fields.V[0][node] == pytest.approx(best_val, abs=1e-12)
        assert int(fields.policy[0][node]) == best_ci


def test_correction_matches_stencil_weight_identity(worked_setup):
    """The correction equals the weight-form expression built from the
    stencil itself: for two regimes,
    gamma * [ g(y)(1 - p_stay - (|qtil| + |bbar|) h2/h1)
              + (g(x+h1) + g(x-h1)) (bbar+ h2 - p2+ h1)/h1
              + (g(phi+h1) + g(phi-h1)) (qtil+ h2 - p3+ h1)/h1 ]
    collapses to the central-difference form because the upwind parts
    cancel inside the weights.
    """
    mdl, lat, node = worked_setup
    rng = np.random.default_rng(17)
    g_vals = np.exp(0.3 * lat.x) + np.sin(2.0 * lat.phi[:, 0]) \
        + rng.normal(scale=0.05, size=lat.n_nodes)
    for u, pi in [(2.0, 1.0), (0.7, 0.4), (0.0, 2.0)]:
        cache, batch = one_control(mdl, lat, u, pi)
        assert batch.valid[1, node]
        p = batch.probs[1, :, node]         # stay, x+, x-, phi+, phi-
        from attnmv.filtering import filter_drift
        phi = lat.phi[node]
        bbar = float(_coefficients(mdl, lat, 0.0, np.array([[u]]),
                                   np.array([pi]))[1][0, node])
        qtil = float(filter_drift(mdl, phi)[0])
        h1, h2 = lat.spec.h1, lat.spec.h2
        gamma = mdl.risk_aversion
        nbr = lat.neighbors[node]
        wx = (max(bbar, 0.0) * h2 - p[1] * h1) / h1
        wphi = (max(qtil, 0.0) * h2 - p[3] * h1) / h1
        wself = 1.0 - p[0] - (abs(qtil) + abs(bbar)) * h2 / h1
        printed = gamma * (g_vals[node] * wself
                           + (g_vals[nbr[1]] + g_vals[nbr[2]]) * wx
                           + (g_vals[nbr[3]] + g_vals[nbr[4]]) * wphi)
        direct = float(_corrections(cache, batch, g_vals)[1, node])
        assert printed == pytest.approx(direct, rel=1e-10, abs=1e-18)


def test_g_matches_exact_mean_recursion():
    """Independent oracle: when the solved policy is the same control at
    every node, the chain's conditional means are affine in the state, so
    the exact scalar recursion for (mean wealth, mean belief) reproduces g
    to roundoff.  Negative excess returns in both regimes make the
    minimizer take the full risky position everywhere.
    """
    mdl = example_model(T=0.2, drift=[[0.0], [0.01]],
                        attention_min=1.0, attention_max=1.0)
    spec = small_spec(n_steps=200)
    u0, pi0 = 0.5, 1.0
    cg = ControlGrid.regular(d=1, u_max=u0, du=u0, pi_min=pi0, pi_max=pi0,
                             n_pi=1)
    fields = solve(mdl, spec, cg)
    lat = fields.lat
    # uniform (u0, pi0) except the clamped x=0 column, whose occupancy from
    # the start state is ~1e-20 (10 net down-moves at ~3e-4 each)
    assert np.all(fields.policy[:, lat.ix >= 1] == 1)
    start = int(lat.index_of(10, np.array([1])))    # x=2, phi=0.2

    q = mdl.generator
    r = mdl.riskfree_at(0.0)[0]
    th = mdl.theta_at(0.0)[:, 0]
    k = mdl.cost_coeff
    xbar, pbar = 2.0, 0.2
    for _ in range(spec.n_steps):
        theta_mix = pbar * th[0] + (1 - pbar) * th[1]
        xbar += ((r - k * pi0 * pi0) * xbar + theta_mix * u0) * spec.h2
        pbar += (q[0, 0] * pbar + q[1, 0] * (1 - pbar)) * spec.h2
    assert fields.g[0][start] == pytest.approx(xbar, abs=1e-10)


def test_two_step_brute_force_with_active_correction():
    """Second backward step against scalar enumeration at nodes where the
    boundary kink makes the correction term nonzero."""
    mdl = example_model(T=0.002)
    spec = small_spec(n_steps=2)
    cg = ControlGrid.regular(d=1, u_max=1.0, du=0.5,
                             pi_min=mdl.attention_min,
                             pi_max=mdl.attention_max, n_pi=2)
    fields = solve(mdl, spec, cg)
    lat = fields.lat
    cache = StencilCache(mdl, lat, cg)
    batch = cache.batch(spec.h2)
    corr = _corrections(cache, batch, fields.g[1])
    cand = _candidates(cache, batch, fields.V[1], fields.g[1])
    # nodes adjacent to the upper wealth boundary carry a g kink
    band = np.nonzero(lat.ix >= lat.n_x - 3)[0]
    active = False
    for node in band:
        best = None
        for ci in range(cg.n_controls):
            active = active or corr[ci, node] != 0.0
            val = float(cand[ci, node])
            if best is None or val < best:
                best = val
        assert fields.V[0][node] == pytest.approx(best, rel=1e-12, abs=1e-15)
    assert active          # the correction actually participated


def test_g_propagation_identity(short_fields):
    mdl, spec, fields = short_fields
    worst = max(float(g_residuals(mdl, fields, n).max())
                for n in range(spec.n_steps))
    assert worst <= 1e-12


def test_spike_margins_nonnegative(short_fields):
    mdl, spec, fields = short_fields
    for n in (0, spec.n_steps // 2, spec.n_steps - 1):
        assert spike_margins(mdl, fields, n).min() >= -1e-12


def test_spike_check_scalar_and_corruption(short_fields):
    mdl, spec, fields = short_fields
    lat = fields.lat
    node = int(lat.index_of(10, np.array([1])))
    assert spike_margins(mdl, fields, 100)[node] >= -1e-12
    # corrupt: force lowest attention where high attention is optimal
    row = fields.policy[100].copy()
    assert row[node] % len(fields.grid.pi_levels) != 0
    row[node] = (row[node] // len(fields.grid.pi_levels)) * \
        len(fields.grid.pi_levels)
    margins = spike_margins(mdl, fields, 100, policy_row=row)
    assert margins[node] < 0.0


def test_monotone_in_control_grid():
    mdl = example_model(T=0.05)
    spec = small_spec(n_steps=50)
    coarse = ControlGrid.regular(d=1, u_max=2.0, du=0.5,
                                 pi_min=mdl.attention_min,
                                 pi_max=mdl.attention_max, n_pi=5)
    fine = ControlGrid.regular(d=1, u_max=2.0, du=0.25,
                               pi_min=mdl.attention_min,
                               pi_max=mdl.attention_max, n_pi=9)
    fu, fp = fine.enumerate()
    cu, cp = coarse.enumerate()
    coarse_set = {(float(a), float(b)) for a, b in zip(cu[:, 0], cp)}
    assert coarse_set <= {(float(a), float(b)) for a, b in zip(fu[:, 0], fp)}
    v_coarse = solve(mdl, spec, coarse).V[0]
    v_fine = solve(mdl, spec, fine).V[0]
    assert np.all(v_fine <= v_coarse + 1e-12)


def test_time_dependent_rate_epochs():
    # frozen belief, u=0: g compounds the piecewise rate exactly
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]],
                        signal_levels=[1.0, 1.0], cost_coeff=0.0, T=0.04,
                        riskfree={"times": [0.0, 0.02],
                                  "values": [[0.02, 0.02], [0.07, 0.07]]},
                        drift=[[0.02], [0.02]])
    spec = small_spec(n_steps=40)
    fields = solve(mdl, spec, frozen_grid(mdl))
    lat = fields.lat
    # the top-boundary kink contaminates one cell per step inward with a
    # factor ~bbar*h2/h1 per cell; eight cells in it is below roundoff
    deep = lat.ix <= lat.n_x - 9
    growth = (1 + 0.02 * spec.h2) ** 20 * (1 + 0.07 * spec.h2) ** 20
    np.testing.assert_allclose(fields.g[0][deep], lat.x[deep] * growth,
                               rtol=1e-13)


def test_solve_deterministic(default_controls):
    mdl = example_model(T=0.02)
    spec = small_spec(n_steps=20)
    a = solve(mdl, spec, default_controls)
    b = solve(mdl, spec, default_controls)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.policy, b.policy)


def test_solve_reuses_cache(default_controls):
    mdl = example_model(T=0.02)
    spec = small_spec(n_steps=20)
    cache = StencilCache(mdl, build_grid(spec, mdl.m), default_controls)
    a = solve(mdl, spec, default_controls, cache=cache)
    assert a.lat is cache.lat and list(cache.batches) == [0]
    b = solve(mdl, spec, default_controls)
    assert np.array_equal(a.V, b.V) and np.array_equal(a.g, b.g)
    assert np.array_equal(a.policy, b.policy)


def test_solve_rejects_foreign_cache(default_controls):
    mdl = example_model(T=0.02)
    spec = small_spec(n_steps=20)
    cache = StencilCache(mdl, build_grid(spec, mdl.m), default_controls)
    for args in [(mdl.with_cost(0.2), spec, default_controls),
                 (mdl, spec, frozen_grid(mdl)),
                 (mdl, small_spec(n_steps=10, h2=0.002), default_controls)]:
        with pytest.raises(ConfigError, match="stencil cache built for"):
            solve(*args, cache=cache)


def test_ratio_policy(short_fields):
    _, _, fields = short_fields
    lat = fields.lat
    w, defined = ratio_policy(fields, 0)
    zero_w = lat.ix == 0
    assert not defined[zero_w].any()
    assert np.isnan(w[zero_w]).all()
    node = int(lat.index_of(10, np.array([1])))
    u = fields.policy_u(0)[node, 0]
    assert w[node, 0] == pytest.approx(u / 2.0)


def three_regime_model(**overrides):
    cfg = dict(m=3, generator=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5],
                               [1.0, 1.5, -2.5]],
               riskfree=0.03, drift=[[0.08], [0.05], [0.02]],
               vol=[[[0.2]], [[0.3]], [[0.4]]],
               signal_levels=[0.0, 1.0, 2.0], T=0.01)
    cfg.update(overrides)
    return example_model(**cfg)


def test_masked_controls_solve_pin():
    # three regimes with informative signals: some (control, node) laws are
    # invalid and masked with +inf; the SHA-256 of V, g and the policy was
    # recorded before the scalar candidate path was deleted
    mdl = three_regime_model()
    spec = small_spec(n_steps=10)
    cg = ControlGrid(u_levels=[[0.0], [1.0]], pi_levels=[0.0, 0.5, 2.0])
    fields = solve(mdl, spec, cg)
    valid = StencilCache(mdl, fields.lat, cg).batch(0.0).valid
    assert 0 < valid.sum() < valid.size
    digest = hashlib.sha256()
    for a in (fields.V, fields.g, fields.policy):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == ("f8d6450b268986abe46a80d80d05fa42"
                                  "ae341def5e1e6e9f99ce725dffb3604d")
    for n in range(spec.n_steps):
        assert spike_margins(mdl, fields, n).min() >= 0.0
        assert g_residuals(mdl, fields, n).max() == 0.0


def test_no_valid_control_blames_dominance_not_step(default_controls):
    # every control at node 7 keeps a self mass near 1, so the failure is a
    # negative belief weight and no smaller h2 can help
    mdl = three_regime_model()
    spec = small_spec(n_steps=10)
    with pytest.raises(SchemeError) as exc:
        solve(mdl, spec, default_controls)
    err = exc.value
    assert (err.node, err.shrink) == (7, None)
    assert "slice 9" in str(err)
    assert "no time-step reduction can fix this" in str(err)
    batch = StencilCache(mdl, build_grid(spec, 3), default_controls).batch(0.0)
    assert not batch.valid[:, 7].any()
    assert batch.probs[:, 0, 7].min() >= 0.97


def test_no_valid_control_step_too_large(default_controls):
    # h2/h1^2 = 20: every control's self mass is negative somewhere
    mdl = example_model(T=0.05)
    spec = GridSpec(h1=0.05, h2=0.05, x_min=0.0, x_max=4.0, n_steps=1)
    with pytest.raises(SchemeError) as exc:
        solve(mdl, spec, default_controls)
    err = exc.value
    assert 0.0 < err.shrink < 1.0
    assert "step-size condition" in str(err)
    assert f"{err.shrink:.6g}" in str(err)
    # shrinking h2 by the reported factor gives the node a valid control
    fixed = GridSpec(h1=0.05, h2=0.05 * err.shrink * 0.999, x_min=0.0,
                     x_max=4.0, n_steps=1)
    u_arr, pi_arr = default_controls.enumerate()
    batch = build_stencil_batch(mdl, build_grid(fixed, 2), 0.0, u_arr, pi_arr)
    assert batch.valid[:, err.node].any()
