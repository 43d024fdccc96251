import hashlib

import numpy as np
import pytest

from attnmv.errors import SchemeError
from attnmv.kernel import (build_stencil_batch, consistency_sweep,
                           _coefficients, _moment_deviations)
from attnmv.lattice import GridSpec, build_grid
from attnmv.market import example_model
from attnmv.solver import ControlGrid


def scalar_stencil_2regime(mdl, h1, h2, x, phi, u, pi, t=0.0):
    """Literal transcription of the two-regime transition weights.

    Independent scalar arithmetic used as the oracle for the vectorized
    construction.
    """
    r = mdl.riskfree_at(t)
    th = mdl.theta_at(t)[:, 0]
    sg = mdl.vol_at(t)[:, 0, 0]
    q = mdl.generator
    z = mdl.signal_levels
    p1v, p2v = phi, 1.0 - phi
    bbar = p1v * (r[0] * x + th[0] * u) + p2v * (r[1] * x + th[1] * u) \
        - mdl.cost_coeff * pi * pi * x
    sbar = (p1v * sg[0] + p2v * sg[1]) * u
    ssT = sbar * sbar
    qtil = q[0, 0] * p1v + q[1, 0] * p2v
    zbar = z[0] * p1v + z[1] * p2v
    av = pi * (phi * (z[0] - zbar)) ** 2
    c = h2 / (h1 * h1)
    p2p = (ssT + 2 * max(bbar, 0.0) * h1) * c / 2
    p2m = (ssT + 2 * max(-bbar, 0.0) * h1) * c / 2
    p3p = (av / 2 + max(qtil, 0.0) * h1) * c
    p3m = (av / 2 + max(-qtil, 0.0) * h1) * c
    return {"stay": 1 - p2p - p2m - p3p - p3m,
            "x+": p2p, "x-": p2m, "phi+": p3p, "phi-": p3m}


def one_control(mdl, lat, u, pi, t=0.0):
    """Raw tables of the single control ``(u, pi)``: row 0 of each output."""
    probs, bbar, qtil, ssT, a = _coefficients(
        mdl, lat, t, np.array([u], dtype=float), np.array([pi], dtype=float))
    return probs[0], bbar[0], qtil, ssT[0], a[0]


def law(mdl, lat, node, u, pi, t=0.0):
    """Validated law of one (node, control): a column of a one-control batch.

    Outcome order: stay, wealth +-h1, belief coordinate i +-h1, then the
    paired belief moves (three or more regimes).
    """
    batch = build_stencil_batch(mdl, lat, t, np.array([u], dtype=float),
                                np.array([pi], dtype=float))
    assert batch.valid[0, node]
    return batch.probs[0, :, node]


# wealth 0..10 and beliefs in steps of 0.1: node (x, phi) is index_of(10x, 10phi)
WIDE = GridSpec(h1=0.1, h2=0.001, x_min=0.0, x_max=10.0, n_steps=2000)


def at(lat, x, phi):
    return int(lat.index_of(round(x / lat.spec.h1),
                            np.array([round(phi / lat.spec.h1)])))


def test_drift_bar_hand_value():
    # regimes/controls chosen so the aggregated drift is -0.488
    mdl = example_model(riskfree=[0.03, 0.05], drift=[[0.08], [0.07]],
                        cost_coeff=0.1)
    lat = build_grid(WIDE, 2)
    bbar = one_control(mdl, lat, [2.0], 1.0)[1]
    assert bbar[at(lat, 10.0, 0.2)] == pytest.approx(-0.488, abs=1e-12)


def test_drift_bar_pure_bond_and_zero():
    mdl = example_model(riskfree=0.04, cost_coeff=0.0)
    lat = build_grid(WIDE, 2)
    bbar = one_control(mdl, lat, [0.0], 1.0)[1]
    assert bbar[at(lat, 5.0, 0.3)] == pytest.approx(0.2)
    assert bbar[at(lat, 0.0, 0.3)] == 0.0


def test_diffusion_bar_sq_hand_value():
    mdl = example_model(vol=[[[0.2]], [[0.3]]])
    lat = build_grid(WIDE, 2)
    ssT = one_control(mdl, lat, [2.0], 1.0)[3]
    assert ssT[at(lat, 1.0, 0.2)] == pytest.approx(0.3136, abs=1e-14)
    assert one_control(mdl, lat, [0.0], 1.0)[3][at(lat, 1.0, 0.2)] == 0.0
    assert ssT[at(lat, 1.0, 1.0)] == pytest.approx(0.16)


def test_worked_stencil_values(worked_setup):
    mdl, lat, node = worked_setup
    p = law(mdl, lat, node, [2.0], 1.0)
    assert p[1] == pytest.approx(0.001, abs=1e-15)
    assert p[2] == pytest.approx(0.0005, abs=1e-15)
    assert p[3] == pytest.approx(0.00732, abs=1e-15)
    assert p[4] == pytest.approx(0.00032, abs=1e-15)
    assert p[0] == pytest.approx(0.99086, abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(p[5:] == 0)


def test_worked_stencil_one_step_means(worked_setup):
    mdl, lat, node = worked_setup
    p = law(mdl, lat, node, [2.0], 1.0)
    h1, h2 = lat.spec.h1, lat.spec.h2
    assert (p[1] - p[2]) * h1 == pytest.approx(0.1 * h2, abs=1e-15)
    assert (p[3] - p[4]) * h1 == pytest.approx(1.4 * h2, abs=1e-15)


def test_matches_scalar_oracle(worked_setup):
    mdl, lat, _ = worked_setup
    rng = np.random.default_rng(3)
    for _ in range(50):
        node = int(rng.integers(lat.n_nodes))
        u = float(rng.uniform(0, 2))
        pi = float(rng.uniform(mdl.attention_min, mdl.attention_max))
        x, phi = lat.x[node], lat.phi[node]
        p = law(mdl, lat, node, [u], pi)
        ref = scalar_stencil_2regime(mdl, lat.spec.h1, lat.spec.h2,
                                     x, float(phi[0]), u, pi)
        assert p[1] == pytest.approx(ref["x+"], rel=1e-12, abs=1e-18)
        assert p[2] == pytest.approx(ref["x-"], rel=1e-12, abs=1e-18)
        assert p[3] == pytest.approx(ref["phi+"], rel=1e-12, abs=1e-18)
        assert p[4] == pytest.approx(ref["phi-"], rel=1e-12, abs=1e-18)
        assert p[0] == pytest.approx(ref["stay"], rel=1e-12)


def test_frozen_dynamics_stay_one():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]], riskfree=0.0,
                        drift=[[0.0], [0.0]], signal_levels=[1.0, 1.0],
                        cost_coeff=0.0)
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=2000)
    lat = build_grid(spec, 2)
    p = law(mdl, lat, 42, [0.0], 1.0)
    assert p[0] == 1.0
    assert p.sum() == 1.0
    mean_dev, second_dev = _moment_deviations(mdl, lat, 0.0, np.array([[0.0]]),
                                              np.array([1.0]))
    assert mean_dev[0, 42] == 0.0 and second_dev[0, 42] == 0.0


def test_mass_exact_for_all_default_controls(default_model, default_lattice,
                                             default_controls):
    u_arr, pi_arr = default_controls.enumerate()
    batch = build_stencil_batch(default_model, default_lattice, 0.0,
                                u_arr, pi_arr, strict=True)
    mass = batch.probs.sum(axis=1)
    assert np.abs(mass - 1.0).max() <= 1e-14
    assert batch.probs.min() >= 0.0
    assert batch.probs.max() <= 1.0
    assert batch.stay_residual <= 1e-14


def test_monotone_in_volatility(worked_setup):
    mdl, lat, node = worked_setup
    bumped = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]], riskfree=0.0,
                           drift=[[0.05], [0.05]], vol=[[[0.15]], [[0.15]]],
                           cost_coeff=0.0)
    lo = law(mdl, lat, node, [2.0], 1.0)
    hi = law(bumped, lat, node, [2.0], 1.0)
    assert hi[1] + hi[2] > lo[1] + lo[2]
    assert hi[0] < lo[0]


def test_deterministic_rebuild(default_model, default_lattice, default_controls):
    u_arr, pi_arr = default_controls.enumerate()
    a = build_stencil_batch(default_model, default_lattice, 0.0, u_arr, pi_arr)
    b = build_stencil_batch(default_model, default_lattice, 0.0, u_arr, pi_arr)
    assert np.array_equal(a.probs, b.probs)


def test_cfl_error_reports_shrink_factor(worked_setup):
    mdl, lat, node = worked_setup
    spec = GridSpec(h1=0.2, h2=0.5, x_min=0.0, x_max=4.0, n_steps=4)
    big = build_grid(spec, 2)
    with pytest.raises(SchemeError) as exc:
        build_stencil_batch(mdl, big, 0.0, np.array([[2.0]]), np.array([1.0]),
                            strict=True)
    err = exc.value
    assert err.shrink is not None and 0 < err.shrink < 1
    # shrinking h2 by the reported factor (rounded down) restores validity
    n_fix = int(np.ceil(4 / err.shrink))
    h2_fix = spec.h2 * err.shrink * (4 / n_fix)
    fixed = GridSpec(h1=0.2, h2=h2_fix * 0.999, x_min=0.0, x_max=4.0, n_steps=4)
    batch = build_stencil_batch(mdl, build_grid(fixed, 2), 0.0,
                                np.array([[2.0]]), np.array([1.0]), strict=True)
    assert batch.probs[0, 0, node] >= 0.0


def test_local_consistency_default_sweep(default_model, default_lattice,
                                         default_controls):
    u_arr, pi_arr = default_controls.enumerate()
    rep = consistency_sweep(default_model, default_lattice, 0.0, u_arr, pi_arr)
    assert rep.mean_dev <= 1e-12
    assert rep.second_scale <= 5.0


def three_regime_model(**overrides):
    cfg = dict(m=3, generator=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5],
                               [1.0, 1.5, -2.5]],
               riskfree=0.03, drift=[[0.08], [0.05], [0.02]],
               vol=[[[0.2]], [[0.3]], [[0.4]]],
               signal_levels=[0.0, 1.0, 2.0])
    cfg.update(overrides)
    return example_model(**cfg)


def test_three_regime_uninformative_signal_valid():
    mdl = three_regime_model(signal_levels=[1.0, 1.0, 1.0])
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=2000)
    lat = build_grid(spec, 3)
    node = int(lat.index_of(5, np.array([1, 1])))
    p = law(mdl, lat, node, [1.0], 1.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(p[7:] == 0.0)             # paired belief moves
    mean_dev, second_dev = _moment_deviations(mdl, lat, 0.0, np.array([[1.0]]),
                                              np.array([1.0]))
    assert mean_dev[0, node] <= 1e-12
    assert second_dev[0, node] / (spec.h1 * spec.h2) <= 5.0


def test_three_regime_dominance_failure_raises():
    # interior belief with an informative signal: off-diagonal covariance
    # exceeds a diagonal entry, which no time-step reduction can repair
    mdl = three_regime_model()
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=2000)
    lat = build_grid(spec, 3)
    node = int(lat.index_of(5, np.array([2, 2])))
    u, pi = np.array([[0.0]]), np.array([2.0])
    assert not build_stencil_batch(mdl, lat, 0.0, u, pi).valid[0, node]
    with pytest.raises(SchemeError) as exc:
        build_stencil_batch(mdl, lat, 0.0, u, pi, strict=True)
    assert exc.value.shrink is None


def test_three_regime_raw_closure_and_moments():
    # the algebraic mass closure and exact one-step mean hold even where
    # the law is not a valid probability (negative diagonal entries)
    mdl = three_regime_model()
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=2000)
    lat = build_grid(spec, 3)
    probs, bbar, qtil, ssT, a = _coefficients(mdl, lat, 0.0,
                                              np.array([[1.0]]), np.array([2.0]))
    probs, bbar, ssT, a = probs[0], bbar[0], ssT[0], a[0]
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-14)
    mean = np.einsum("on,od->nd", probs, lat.displacements)
    target = np.concatenate([bbar[:, None], qtil], axis=1) * spec.h2
    np.testing.assert_allclose(mean, target, atol=1e-15)
    second = np.einsum("on,od,oe->nde", probs, lat.displacements,
                       lat.displacements)
    second -= mean[:, :, None] * mean[:, None, :]
    target2 = np.zeros_like(second)
    target2[:, 0, 0] = ssT * spec.h2
    target2[:, 1:, 1:] = a * spec.h2
    assert np.abs(second - target2).max() <= 5 * spec.h1 * spec.h2


def test_three_regime_near_vertex_cross_terms_valid():
    # belief concentrated on one informative regime keeps diagonal dominance
    mdl = three_regime_model(generator=[[-4.0, 2.0, 2.0], [2.0, -4.0, 2.0],
                                        [2.0, 2.0, -4.0]])
    spec = GridSpec(h1=0.1, h2=0.0005, x_min=0.0, x_max=4.0, n_steps=4000)
    lat = build_grid(spec, 3)
    node = int(lat.index_of(5, np.array([9, 1])))   # phi = (0.9, 0.1)
    p = law(mdl, lat, node, [0.5], 0.05)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[7:].max() > 0.0                # paired belief moves
    md, sd = _moment_deviations(mdl, lat, 0.0, np.array([[0.5]]),
                                np.array([0.05]))
    assert md[0, node] <= 1e-12
    assert sd[0, node] <= 5 * spec.h1 * spec.h2


# Exact pins, recorded before the per-control loops of the stencil batch and
# the moment sweep were replaced by one control-vectorized builder.

def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("m, pins", [
    (2, ("a535be03359982183524f4bde6d53b98fbfb11e8dbc58e543e04f61e8297fedd",
         "e4f7da0b5f721d827d563ae71f45a8feab60b1d07b87b63c6cd1680cabd38668",
         0.027099999999999996, 1.1102230246251565e-16,
         6.505213034913027e-19, 0.00029775000000000005)),
    (3, ("567a65ef32f1af93f281cbe2ad2c27b8533272dda99effc73fef15db1d68b315",
         "8d239a418a8f1bc96e09a123dea32ae2ad687eaa2018d76405c5922950e8fc71",
         0.03652, 1.1102230246251565e-16,
         6.505213034913027e-19, 0.000396)),
])
def test_batch_and_sweep_pins(m, pins, default_spec, default_controls):
    mdl = example_model() if m == 2 else three_regime_model()
    lat = build_grid(default_spec, m)
    u_arr, pi_arr = default_controls.enumerate()
    batch = build_stencil_batch(mdl, lat, 0.0, u_arr, pi_arr, strict=(m == 2))
    rep = consistency_sweep(mdl, lat, 0.0, u_arr, pi_arr)
    assert (_sha(batch.probs), _sha(batch.valid),
            batch.max_mass, batch.stay_residual,
            rep.mean_dev, rep.second_dev) == pins


@pytest.mark.parametrize("m, h2, u_max, pi_levels, fields, message", [
    # diagonal dominance fails at control 1; control 0 has no attention
    (3, 0.001, 1.0, [0.0, 0.5, 2.0], (1, 7, 6, -0.00010000000000000002, None),
     "negative transition weight at node 7, outcome 6, control 1 "
     "(-1.000e-04); belief diffusion not diagonally dominant, no time-step "
     "reduction can fix this"),
    # time step too large from control 6 on
    (2, 0.05, 4.0, None, (6, 120, 0, -0.019999899999999737, 0.980392252979633),
     "self-transition probability at node 120, control 6 is negative "
     "(-2.000e-02): time step too large; h2 must be at most 0.980392 "
     "times its value"),
    # control 0's self mass fails before control 1's body weights
    (3, 0.08, 1.0, [0.0, 0.5, 2.0],
     (0, 440, 0, -0.24799999999999978, 0.8012820512820514),
     "self-transition probability at node 440, control 0 is negative "
     "(-2.480e-01): time step too large; h2 must be at most 0.801282 "
     "times its value"),
])
def test_strict_batch_error_pins(m, h2, u_max, pi_levels, fields, message):
    mdl = example_model() if m == 2 else three_regime_model()
    lat = build_grid(GridSpec(h1=0.2, h2=h2, x_min=0.0, x_max=4.0,
                              n_steps=2), m)
    if pi_levels is None:
        cg = ControlGrid.regular(d=1, u_max=u_max, du=1.0,
                                 pi_min=mdl.attention_min,
                                 pi_max=mdl.attention_max, n_pi=3)
    else:
        cg = ControlGrid(u_levels=np.arange(u_max + 1.0)[:, None],
                         pi_levels=np.array(pi_levels))
    u_arr, pi_arr = cg.enumerate()
    with pytest.raises(SchemeError) as exc:
        build_stencil_batch(mdl, lat, 0.0, u_arr, pi_arr, strict=True)
    err = exc.value
    assert (err.control, err.node, err.entry, err.value, err.shrink) == fields
    assert str(err) == message
