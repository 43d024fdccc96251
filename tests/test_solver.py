import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from attnmv.errors import ConfigError, SchemeError
from attnmv.kernel import build_stencil_batch
from attnmv.lattice import GridSpec, build_grid
from attnmv.market import compose_objective, example_model
from attnmv.solver import (ControlGrid, SolutionFields, StencilCache,
                           _candidates, _select, g_residuals, ratio_policy,
                           solve, spike_margins, step_back)


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


def candidate(mdl, lat, node, u, pi, V_next, g_next):
    cache, batch = one_control(mdl, lat, u, pi)
    return float(_candidates(cache, batch, np.asarray(V_next, float),
                             np.asarray(g_next, float))[1, node])


def terminal_value(mdl, lat):
    """J(x, 0): the objective of a sure terminal wealth x."""
    return compose_objective(lat.x, 0.0, mdl.risk_aversion,
                             mdl.objective_convention)


def step_from(mdl, lat, grid, V_next, g_next):
    """One backward step from (V_next, g_next) on the whole lattice."""
    n = lat.n_nodes
    fields = SolutionFields(model=mdl, spec=lat.spec, lat=lat, grid=grid,
                            V=np.stack([np.empty(n), V_next]),
                            g=np.stack([np.empty(n), g_next]),
                            policy=np.empty((1, n), dtype=np.int32))
    step_back(mdl, fields, 0, StencilCache(mdl, lat, grid))
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


# -- candidate values ----------------------------------------------------------

# one-step wealth variance at the worked node under (u=2, pi=1):
# (sbar^2 + |bbar| h1) h2 - (bbar h2)^2 on the default grid
WORKED_VAR = (0.04 + 0.1 * 0.2) * 0.001 - (0.1 * 0.001) ** 2


def test_candidate_constant_field(worked_setup):
    # paper-literal: b = J(0, 1) = 1, so the candidate is E[V] + Var[g]
    mdl, lat, node = worked_setup
    V = np.full(lat.n_nodes, 7.25)
    g = 1.0 + 0.5 * lat.x
    assert candidate(mdl, lat, node, 2.0, 1.0, V, g) == pytest.approx(
        7.25 + 0.25 * WORKED_VAR, abs=1e-12)


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
    assert val == pytest.approx(lat.x[node] + 0.1 * lat.spec.h2 + WORKED_VAR,
                                abs=1e-15)


def test_candidate_mean_minus_variance_sense(worked_setup):
    # b = J(0, 1) = -gamma/2 < 0, so the candidate is -E[V] + (gamma/2) Var[g]
    mdl, lat, node = worked_setup
    mdl = replace(mdl, objective_convention="mean-minus-variance")
    val = candidate(mdl, lat, node, 2.0, 1.0, lat.x, lat.x)
    assert val == pytest.approx(-(lat.x[node] + 0.1 * lat.spec.h2)
                                + 0.25 * WORKED_VAR, abs=1e-15)


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
    step_back(mdl, f2, 0, StencilCache(mdl, f2.lat, default_controls))
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
    np.testing.assert_array_equal(fields.V[0], terminal_value(mdl, fields.lat))
    np.testing.assert_array_equal(fields.g[0], fields.lat.x)
    assert np.all(fields.policy_pi(0) == mdl.attention_min)
    assert np.all(fields.policy_u(0) == 0.0)


def test_terminal_identities(short_fields):
    mdl, _, fields = short_fields
    np.testing.assert_array_equal(fields.V[-1], terminal_value(mdl, fields.lat))
    np.testing.assert_array_equal(fields.g[-1], fields.lat.x)


def test_g_matches_exact_mean_recursion():
    """Independent oracle: when the solved policy is the same control at
    every node, the chain's conditional means are affine in the state, so
    the exact scalar recursion for (mean wealth, mean belief) reproduces g
    to roundoff.  Excess returns of 0.27 and 0.17 outweigh the variance
    of the full position under the paper-literal objective with gamma = 2,
    so it is the solved control at every node.
    """
    mdl = example_model(T=0.2, drift=[[0.3], [0.2]], risk_aversion=2.0,
                        attention_min=1.0, attention_max=1.0)
    spec = small_spec(n_steps=200)
    u0, pi0 = 0.5, 1.0
    cg = ControlGrid.regular(d=1, u_max=u0, du=u0, pi_min=pi0, pi_max=pi0,
                             n_pi=1)
    fields = solve(mdl, spec, cg)
    lat = fields.lat
    assert np.all(fields.policy == 1)
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


def test_g_propagation_identity(short_fields):
    mdl, spec, fields = short_fields
    cache = StencilCache(mdl, fields.lat, fields.grid)
    worst = max(float(g_residuals(mdl, fields, n, cache).max())
                for n in range(spec.n_steps))
    assert worst <= 1e-12


def test_spike_margins_nonnegative(short_fields):
    mdl, spec, fields = short_fields
    cache = StencilCache(mdl, fields.lat, fields.grid)
    for n in (0, spec.n_steps // 2, spec.n_steps - 1):
        assert spike_margins(mdl, fields, n, cache).min() >= -1e-12


def test_spike_check_scalar_and_corruption(short_fields):
    mdl, spec, fields = short_fields
    lat = fields.lat
    node = int(lat.index_of(10, np.array([1])))
    cache = StencilCache(mdl, lat, fields.grid)
    assert spike_margins(mdl, fields, 100, cache)[node] >= -1e-12
    # corrupt: force the highest attention where the lowest is optimal
    n_pi = len(fields.grid.pi_levels)
    corrupt = replace(fields, policy=fields.policy.copy())
    assert corrupt.policy[100, node] % n_pi == 0
    corrupt.policy[100, node] += n_pi - 1
    margins = spike_margins(mdl, corrupt, 100, cache)
    assert margins[node] < 0.0


def test_monotone_in_control_grid():
    # At slice N-1 both grids share V_N = J(x, 0), so the step is a per-node
    # optimum and a control superset can only help.  Earlier slices are an
    # equilibrium, not an optimum: at T = 0.5 the t=0 values of the fine grid
    # are worse at 6 nodes, so the claim is made at slice N-1 only.
    coarse = ControlGrid.regular(d=1, u_max=2.0, du=0.5, pi_min=0.001,
                                 pi_max=2.0, n_pi=5)
    fine = ControlGrid.regular(d=1, u_max=2.0, du=0.25, pi_min=0.001,
                               pi_max=2.0, n_pi=9)
    fu, fp = fine.enumerate()
    cu, cp = coarse.enumerate()
    coarse_set = {(float(a), float(b)) for a, b in zip(cu[:, 0], cp)}
    assert coarse_set <= {(float(a), float(b)) for a, b in zip(fu[:, 0], fp)}
    for T in (0.05, 0.5):
        mdl = example_model(T=T)
        assert (mdl.attention_min, mdl.attention_max) == (0.001, 2.0)
        assert mdl.objective_convention == "paper-literal"     # minimized
        spec = small_spec(n_steps=round(T / 0.001))
        v_coarse = solve(mdl, spec, coarse).V[spec.n_steps - 1]
        v_fine = solve(mdl, spec, fine).V[spec.n_steps - 1]
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
    w = ratio_policy(fields, 0)
    zero_w = lat.ix == 0
    assert np.isnan(w[zero_w]).all()
    assert not np.isnan(w[~zero_w]).any()
    node = int(lat.index_of(10, np.array([1])))
    u = fields.policy_u(0)[node, 0]
    assert w[node, 0] == pytest.approx(u / 2.0)


def test_terminal_slice_has_nan_policy(short_fields):
    _, spec, fields = short_fields
    n_nodes, d = fields.lat.n_nodes, fields.grid.u_levels.shape[1]
    u = fields.policy_u(spec.n_steps)
    assert u.shape == (n_nodes, d) and np.isnan(u).all()
    assert fields.policy_pi(spec.n_steps).shape == (n_nodes,)
    assert np.isnan(fields.policy_pi(spec.n_steps)).all()
    assert np.isnan(ratio_policy(fields, spec.n_steps)).all()


def test_slice_checks_reject_a_foreign_model(short_fields):
    # each read the cache's model and answered for it without a word
    mdl, spec, fields = short_fields
    cache = StencilCache(mdl, fields.lat, fields.grid)
    other = mdl.with_cost(mdl.cost_coeff)
    V0 = fields.V[0].copy()
    for fn in (step_back, spike_margins, g_residuals):
        with pytest.raises(ConfigError,
                           match="stencil cache built for another model"):
            fn(other, fields, 0, cache)
    assert np.array_equal(fields.V[0], V0) and cache.batches == {}


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
    # recorded when candidates became the stencil's variance of g
    mdl = three_regime_model()
    spec = small_spec(n_steps=10)
    cg = ControlGrid(u_levels=[[0.0], [1.0]], pi_levels=[0.0, 0.5, 2.0])
    fields = solve(mdl, spec, cg)
    cache = StencilCache(mdl, fields.lat, cg)
    valid = cache.batch(0.0).valid
    assert 0 < valid.sum() < valid.size
    # one epoch; the four controls with pi > 0 are invalid at the beliefs
    # (0.2, 0.2), (0.2, 0.4), (0.4, 0.4) and (0.6, 0.2) at all 21 wealths
    assert fields.masked_pairs == 4 * 4 * 21 == (~valid).sum()
    digest = hashlib.sha256()
    for a in (fields.V, fields.g, fields.policy):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == ("2c1213ca91dc9046ce800487bfe22b86"
                                  "23b183a4be675dadfbd90cc52e7cc7b9")
    for n in range(spec.n_steps):
        assert spike_margins(mdl, fields, n, cache).min() >= 0.0
        assert g_residuals(mdl, fields, n, cache).max() == 0.0


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


def test_epoch_summaries_survive_eviction(default_controls):
    # the middle epoch's large volatility breaks the step-size condition
    # for some controls, so only it masks pairs; solve's summaries must
    # cover every epoch once, though its cache holds one batch at the end
    # and the post-hoc passes build every epoch again
    times = [0.0, 0.004, 0.007]
    mdl = example_model(T=0.01, riskfree={"times": times,
                                          "values": [[0.03, 0.02]] * 3},
                        vol={"times": times,
                             "values": [[[[0.2]], [[0.35]]],
                                        [[[4.0]], [[4.0]]],
                                        [[[0.3]], [[0.3]]]]})
    spec = small_spec(n_steps=10)
    u_arr, pi_arr = default_controls.enumerate()
    fresh = [build_stencil_batch(mdl, build_grid(spec, 2), float(t), u_arr,
                                 pi_arr) for t in times]
    masked = [int((~b.valid).sum()) for b in fresh]
    assert masked[0] == masked[2] == 0 < masked[1]
    want = (max(b.max_mass for b in fresh),
            max(b.stay_residual for b in fresh), sum(masked))
    cache = StencilCache(mdl, build_grid(spec, 2), default_controls)
    for _ in range(2):
        fields = solve(mdl, spec, default_controls, cache=cache)
        assert (fields.cfl_max_mass, fields.stay_residual,
                fields.masked_pairs) == want
        assert list(cache.batches) == [0]
        for n in range(spec.n_steps):
            spike_margins(mdl, fields, n, cache)
        assert list(cache.batches) == [2]


def test_solve_memory_does_not_grow_with_epochs():
    # 300 coefficient epochs, one per slice: a cache holding every epoch's
    # batch needs ~270 batches here.  Bound: the solved fields plus three
    # batches, which must hold the resident batch, the workspace of a
    # build, the lattice's belief rows and the per-epoch summary table.
    n_steps = 300
    times = [0.001 * i for i in range(n_steps)]
    mdl = three_regime_model(
        T=0.001 * n_steps,
        riskfree={"times": times, "values": [[0.03 + 1e-5 * i, 0.02, 0.01]
                                             for i in range(n_steps)]})
    spec = GridSpec(h1=0.25, h2=0.001, x_min=0.0, x_max=2.0,
                    n_steps=n_steps)
    cg = ControlGrid(u_levels=[[0.0], [1.0], [2.0], [3.0]],
                     pi_levels=[0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    cache = StencilCache(mdl, build_grid(spec, 3), cg)
    tracemalloc.start()
    try:
        fields = solve(mdl, spec, cg, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch = cache.batch(0.0)
    assert len(cache.batches) == 1 and len(cache.epochs) == n_steps
    field_bytes = sum(a.nbytes for a in (fields.V, fields.g, fields.policy,
                                         fields.clamped_mass))
    assert peak < field_bytes + 3 * (batch.probs.nbytes + batch.valid.nbytes)


def test_select_matches_take_along_axis():
    # the selected laws are C-contiguous: the g einsum over a transposed
    # view sums in another order
    rng = np.random.default_rng(5)
    for n_c, n_out, n in [(1, 5, 1), (3, 5, 7), (24, 15, 135)]:
        probs = rng.random((n_c, n_out, n))
        for dtype in (np.int64, np.int32):
            idx = rng.integers(n_c, size=n).astype(dtype)
            got = _select(probs, idx,
                          np.arange(n_out * n).reshape(n_out, n))
            want = np.take_along_axis(probs, idx[None, None, :], axis=0)[0]
            assert got.flags.c_contiguous
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_outcome_major_contractions_keep_the_bits():
    # the solver gathers through the outcome-major table, so einsum's inner
    # loop runs over contiguous nodes; it still adds the outcomes in index
    # order, so each sum has the bits of the node-major contraction
    rng = np.random.default_rng(26)
    shapes = [(1, 1, 1), (25, 5, 1), (3, 15, 1), (25, 5, 126), (105, 9, 401)]
    shapes += [(int(rng.integers(1, 30)), int(rng.integers(1, 16)),
                int(rng.integers(1, 401))) for _ in range(80)]
    for n_c, n_out, n in shapes:
        probs = rng.random((n_c, n_out, n)) \
            * 10.0 ** rng.uniform(-8, 8, (n_c, n_out, n))
        plane = rng.standard_normal((n, n_out)) \
            * 10.0 ** rng.uniform(-8, 8, (n, n_out))
        plane_t = np.ascontiguousarray(plane.T)
        want = np.einsum("con,no->cn", probs, plane)
        got = np.einsum("con,on->cn", probs, plane_t)
        assert got.tobytes() == want.tobytes(), (n_c, n_out, n)
        sel = _select(probs, rng.integers(n_c, size=n),
                      np.arange(n_out * n).reshape(n_out, n))
        want = np.einsum("on,no->n", sel, plane)
        got = np.einsum("on,on->n", sel, plane_t)
        assert got.tobytes() == want.tobytes(), (n_c, n_out, n)
