import hashlib
from dataclasses import replace

import numpy as np
import pytest

import attnmv.kernel
import kernel_reference as ref
from attnmv.errors import SchemeError
from attnmv.kernel import (ConsistencyReport, build_stencil_batch,
                           consistency_sweep)
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
    probs, bbar, qtil, ssT, v, *_ = ref.coefficients(
        mdl, lat, t, np.array([u], dtype=float), np.array([pi], dtype=float))
    return probs[0], bbar[0], qtil, ssT[0], v[:, 0]


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
    mean_dev, second_dev = ref.moment_deviations(
        mdl, lat, 0.0, np.array([[0.0]]), np.array([1.0]))
    assert mean_dev[0, 42] == 0.0 and second_dev[0, 42] == 0.0
    assert consistency_sweep(mdl, lat, 0.0, np.array([[0.0]]),
                             np.array([1.0])) == ConsistencyReport(0.0, 0.0)


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
    spec = default_lattice.spec
    assert rep.second_dev <= 5.0 * spec.h1 * spec.h2


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
    mean_dev, second_dev = ref.moment_deviations(
        mdl, lat, 0.0, np.array([[1.0]]), np.array([1.0]))
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
    probs, bbar, qtil, ssT, v, *_ = ref.coefficients(
        mdl, lat, 0.0, np.array([[1.0]]), np.array([2.0]))
    probs, bbar, ssT, v = probs[0], bbar[0], ssT[0], v[:, 0]
    a = v.T[:, :, None] * v.T[:, None, :]                  # (n, mm, mm)
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
    md, sd = ref.moment_deviations(mdl, lat, 0.0, np.array([[0.5]]),
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


def piecewise_model(m):
    """Piecewise-constant coefficients: 12 epochs (m=2) or 4 epochs (m=3).

    The m=3 market has informative signals, so some laws are masked.
    """
    if m == 2:
        times = [0.125 * i for i in range(12)]
        return example_model(
            riskfree={"times": times,
                      "values": [[0.03 + 0.002 * i, 0.025 - 0.001 * i]
                                 for i in range(12)]},
            drift={"times": times,
                   "values": [[[0.08 - 0.003 * i], [0.035 + 0.002 * i]]
                              for i in range(12)]},
            vol={"times": times[::3],
                 "values": [[[[0.2 + 0.01 * i]], [[0.35 - 0.02 * i]]]
                            for i in range(0, 12, 3)]})
    times = [0.0, 0.4, 0.9, 1.5]
    return three_regime_model(
        riskfree={"times": times,
                  "values": [[0.03, 0.02, 0.01], [0.04, 0.03, 0.0],
                             [0.02, 0.02, 0.02], [0.05, 0.01, 0.03]]},
        drift={"times": times,
               "values": [[[0.08], [0.05], [0.02]], [[0.09], [0.04], [-0.01]],
                          [[0.06], [0.06], [0.03]], [[0.1], [0.02], [0.0]]]},
        vol={"times": times[:2],
             "values": [[[[0.2]], [[0.3]], [[0.4]]],
                        [[[0.25]], [[0.15]], [[0.5]]]]})


# SHA-256 per epoch of the batch's probs and valid bytes followed by
# (max_mass, stay_residual, mean_dev, second_dev) as float64 bytes, recorded
# before the builder and the sweep stopped reducing over short trailing axes
EPOCH_PINS = {
    2: ["50d32588745dad6448222e44bc388abbb653f4b602e215fa49db28bf75329c61",
        "cd7bde56024b67f096f9fdf2c3744e4dc05538903ed72b27a537ce8b4c078665",
        "d71b5f07446da6f1f4755889428b70a6d9d055a80edf71428fd796e3ef25c92b",
        "5036997305742d31ef95807f7fde6006204b11f833c09f94a4072286e42a9550",
        "355af626394d0fa655e644bbee72e6bce0736ccd09c0891613f27bc087532ff9",
        "6430f6397bc423e4758530335d520935f7f6cd637321e6b2552b73d749237426",
        "b3ed4c8e45b4614eca9888b90d3412baf32e5fc836bd84d59fdbaa2591ca5911",
        "5e887a767a21b681ccdd9dab094035700b4dcfc72700081119536f32740eae55",
        "62237e5b3d3953b40e1302666790ed3521bf6266a1f9d1151d7010cb58a1de5c",
        "643bce20087e240205ff9e0d0476360e7eb89c41b97858ddfc2e7d49300735c9",
        "5ce25133c82e2ad8fca5b5d753e9fcd3cd057d24a6e4240858937f172632803c",
        "c9ac992ec3c187e6cf32a87464e58a7167c678d545c2b459de6ca7be16569776"],
    3: ["a645cc8491474029b2f90370585a5b62e480bfa196d1709a01bf6276d38883cc",
        "d49e281c98fa8b487561f3190b191c980de2b6ad717a016ee3ff58b9b9ede306",
        "5a575876862244f8c632c5669e765a4d4120982cef3084e0c3c20b97f6a21830",
        "ea2273958fd5e661e15f688e15e0b94f8763747710d6ec3312f5e7cfdd0f83f1"],
}


@pytest.mark.parametrize("m", [2, 3])
def test_multi_epoch_batch_and_sweep_pins(m, default_spec, default_controls):
    mdl = piecewise_model(m)
    lat = build_grid(default_spec, m)
    u_arr, pi_arr = default_controls.enumerate()
    digests, masked = [], 0
    for t in mdl.time_breaks:
        batch = build_stencil_batch(mdl, lat, float(t), u_arr, pi_arr,
                                    strict=(m == 2))
        rep = consistency_sweep(mdl, lat, float(t), u_arr, pi_arr)
        scalars = np.array([batch.max_mass, batch.stay_residual,
                            rep.mean_dev, rep.second_dev])
        digests.append(hashlib.sha256(
            batch.probs.tobytes() + batch.valid.tobytes()
            + scalars.tobytes()).hexdigest())
        masked += int((~batch.valid).sum())
    assert digests == EPOCH_PINS[m]
    assert (masked > 0) == (m == 3)


@pytest.mark.parametrize("m", [2, 3])
def test_shared_belief_rows_never_stale(m, default_spec, default_controls):
    # one lattice serves models that differ from the base only in the
    # generator, only in the signal levels, only in the attention levels,
    # only in the cost coefficient, only in one epoch's drift or only in
    # one epoch's riskfree rate, each between two base builds of the same
    # epoch; every batch and sweep must equal a build on a lattice of its
    # own
    base = piecewise_model(m)
    gen = base.generator.copy()
    gen[0, 0] -= 0.5
    gen[0, 1] += 0.5
    drift = base.drift.copy()
    drift[1] += 0.01
    riskfree = base.riskfree.copy()
    riskfree[1] += 0.01
    other_pi = ControlGrid.regular(d=1, u_max=2.0, du=0.5, pi_min=0.01,
                                   pi_max=1.0, n_pi=5)
    changed = [(replace(base, generator=gen), default_controls),
               (replace(base, signal_levels=base.signal_levels * 1.5),
                default_controls),
               (base, other_pi),
               (replace(base, cost_coeff=3.0 * base.cost_coeff),
                default_controls),
               (replace(base, drift=drift), default_controls),
               (replace(base, riskfree=riskfree), default_controls)]
    shared = build_grid(default_spec, m)
    runs = [(base, default_controls)]
    for variant in changed:
        runs += [variant, (base, default_controls)]
    for t in base.time_breaks:
        for mdl, cg in runs:
            u_arr, pi_arr = cg.enumerate()
            got = build_stencil_batch(mdl, shared, float(t), u_arr, pi_arr)
            fresh = build_grid(default_spec, m)
            want = build_stencil_batch(mdl, fresh, float(t), u_arr, pi_arr)
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.valid.tobytes() == want.valid.tobytes()
            assert (got.max_mass, got.stay_residual) \
                == (want.max_mass, want.stay_residual)
            assert consistency_sweep(mdl, shared, float(t), u_arr, pi_arr) \
                == consistency_sweep(mdl, fresh, float(t), u_arr, pi_arr)


def reference_deviations(mdl, lat, t, u_arr, pi_arr):
    """Moment deviations by a loop over (control, node) and the catalog.

    Shares only the raw coefficients with the reference builder: the
    moments are Python sums over ``lat.displacements``.
    """
    probs, bbar, qtil, ssT, v, *_ = ref.coefficients(
        mdl, lat, t, u_arr, pi_arr)
    h2 = lat.spec.h2
    disp = lat.displacements.tolist()
    n_c, n_out, n_nodes = probs.shape
    dims = range(len(disp[0]))
    mean_dev = np.zeros((n_c, n_nodes))
    second_dev = np.zeros((n_c, n_nodes))
    for c in range(n_c):
        for n in range(n_nodes):
            p = probs[c, :, n].tolist()
            drift = [bbar[c, n]] + list(qtil[n])
            noise = [0.0] + list(v[:, c, n])
            mean = [sum(p[o] * disp[o][i] for o in range(n_out)) for i in dims]
            mean_dev[c, n] = max(abs(mean[i] - drift[i] * h2) for i in dims)
            second_dev[c, n] = max(
                abs(sum(p[o] * disp[o][i] * disp[o][j] for o in range(n_out))
                    - mean[i] * mean[j]
                    - (ssT[c, n] if i == j == 0 else noise[i] * noise[j]) * h2)
                for i in dims for j in dims)
    return mean_dev, second_dev


SMALL = GridSpec(h1=0.25, h2=0.001, x_min=0.0, x_max=2.0, n_steps=10)
SMALL_U = np.array([[0.0], [0.0], [1.0], [1.0], [2.5], [2.5]])
SMALL_PI = np.array([0.0, 1.5, 0.3, 2.0, 0.001, 1.0])


@pytest.mark.parametrize("m", [2, 3])
def test_sweep_matches_reference_loop(m):
    mdl = piecewise_model(m)
    lat = build_grid(SMALL, m)
    for t in mdl.time_breaks[:2]:
        mean_dev, second_dev = ref.moment_deviations(mdl, lat, float(t),
                                                     SMALL_U, SMALL_PI)
        ref_mean, ref_second = reference_deviations(mdl, lat, float(t),
                                                    SMALL_U, SMALL_PI)
        np.testing.assert_allclose(mean_dev, ref_mean, rtol=0, atol=1e-17)
        np.testing.assert_allclose(second_dev, ref_second, rtol=1e-12,
                                   atol=1e-17)
        rep = consistency_sweep(mdl, lat, float(t), SMALL_U, SMALL_PI)
        assert rep.mean_dev <= 1e-12
        assert rep.second_dev == pytest.approx(ref_second.max(), rel=1e-12)
        assert rep.second_dev > 1e-5          # the O(h1 h2) belief terms


@pytest.mark.parametrize("m, src, dst", [(2, 1, 2), (2, 3, 4), (3, 5, 6),
                                         (3, 7, 9)])
def test_sweep_sees_weight_moved_between_outcomes(m, src, dst, monkeypatch):
    # a law that keeps its mass but moves 1e-6 from one outcome to another
    # has a one-step mean off by 2e-6 h1 along some coordinate; the wealth
    # outcomes reach the sweep per epoch, the belief outcomes once per
    # lattice
    def shifted(o, p):
        return p - 1e-6 if o == src else p + 1e-6 if o == dst else p

    wealth_rows = attnmv.kernel._wealth_rows
    belief_rows = attnmv.kernel._belief_rows
    raw = ref.coefficients

    def moved_wealth_rows(*args):
        w = wealth_rows(*args)
        return w._replace(up=shifted(1, w.up), down=shifted(2, w.down))

    def moved_belief_rows(*args):
        rows = belief_rows(*args)
        planes = [shifted(o, rows.raw[:, o - 3])
                  for o in range(3, rows.raw.shape[1] + 3)]
        return rows._replace(raw=np.stack(planes, axis=1))

    def moved_raw(*args):
        probs, *rest = raw(*args)
        probs[:, src] -= 1e-6
        probs[:, dst] += 1e-6
        return (probs, *rest)

    monkeypatch.setattr(attnmv.kernel, "_wealth_rows", moved_wealth_rows)
    monkeypatch.setattr(attnmv.kernel, "_belief_rows", moved_belief_rows)
    monkeypatch.setattr(ref, "coefficients", moved_raw)
    mdl = piecewise_model(m)
    lat = build_grid(SMALL, m)
    rep = consistency_sweep(mdl, lat, 0.0, SMALL_U, SMALL_PI)
    assert rep.mean_dev > 1e-12
    assert rep.mean_dev == pytest.approx(2e-6 * SMALL.h1, rel=1e-6)
    ref_mean, ref_second = reference_deviations(mdl, lat, 0.0, SMALL_U,
                                                SMALL_PI)
    assert rep.mean_dev == pytest.approx(ref_mean.max(), rel=1e-12)
    assert rep.second_dev == pytest.approx(ref_second.max(), rel=1e-12)


def test_sweep_sees_a_moved_belief_cross_moment(monkeypatch):
    # moving weight w from +-(e1+e2) to +-(e1-e2) keeps every mean and
    # every diagonal second moment and lowers only E[d1 d2], by 4 w h1^2
    moves = {7: -1e-2, 8: -1e-2, 9: 1e-2, 10: 1e-2}
    belief_rows = attnmv.kernel._belief_rows
    raw = ref.coefficients

    def moved_belief_rows(*args):
        rows = belief_rows(*args)
        moved = rows.raw.copy()
        for o, dw in moves.items():
            moved[:, o - 3] += dw
        return rows._replace(raw=moved)

    def moved_raw(*args):
        probs, *rest = raw(*args)
        for o, dw in moves.items():
            probs[:, o] += dw
        return (probs, *rest)

    mdl = piecewise_model(3)
    before = consistency_sweep(mdl, build_grid(SMALL, 3), 0.0, SMALL_U,
                               SMALL_PI)
    monkeypatch.setattr(attnmv.kernel, "_belief_rows", moved_belief_rows)
    monkeypatch.setattr(ref, "coefficients", moved_raw)
    lat = build_grid(SMALL, 3)
    rep = consistency_sweep(mdl, lat, 0.0, SMALL_U, SMALL_PI)
    assert rep.mean_dev <= 1e-12
    assert rep.second_dev > before.second_dev + 3e-2 * SMALL.h1 ** 2
    _, ref_second = reference_deviations(mdl, lat, 0.0, SMALL_U, SMALL_PI)
    assert rep.second_dev == pytest.approx(ref_second.max(), rel=1e-12)


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


# The split builder and sweep against the whole-law reference

def split_model(m, d):
    """``m`` regimes, ``d`` correlated assets, five coefficient epochs.

    The riskfree rate and the drift change at every break, the volatility
    only at the second and the fourth.
    """
    times = [0.0, 0.2, 0.4, 0.6, 0.8]
    drift = [[0.08 - 0.02 * i + 0.01 * l for l in range(d)] for i in range(m)]

    def vol(scale):
        return [[[(0.2 + 0.1 * i) * scale if l == j else 0.05 * (l > j)
                  for j in range(d)] for l in range(d)] for i in range(m)]

    return example_model(
        m=m, d=d, T=1.0,
        generator=[[-1.0, 1.0], [1.5, -1.5]] if m == 2 else
        [[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 1.5, -2.5]],
        signal_levels=[0.0, 1.0] if m == 2 else [0.0, 1.0, 2.0],
        riskfree={"times": times,
                  "values": [[0.03 + 0.005 * k - 0.002 * i for i in range(m)]
                             for k in range(5)]},
        drift={"times": times,
               "values": [[[v * (1.0 + 0.1 * k) for v in row] for row in drift]
                          for k in range(5)]},
        vol={"times": [0.0, 0.2, 0.6],
             "values": [vol(1.0), vol(1.3), vol(0.8)]})


def split_controls(d):
    return ControlGrid.regular(d=d, u_max=2.0, du=1.0, pi_min=0.0,
                               pi_max=2.0, n_pi=3).enumerate()


def batch_bytes(builder, *args, **kwargs):
    """A batch as bytes and floats, or the fields of the error it raises."""
    try:
        b = builder(*args, **kwargs)
    except SchemeError as err:
        return (str(err), err.node, err.control, err.entry, err.value,
                err.shrink)
    return (b.probs.tobytes(), b.valid.tobytes(),
            np.array([b.max_mass, b.stay_residual]).tobytes())


def report_bytes(rep):
    return np.array([rep.mean_dev, rep.second_dev]).tobytes()


def assert_matches_whole_law(mdl, lat, t, u_arr, pi_arr):
    for strict in (False, True):
        assert batch_bytes(build_stencil_batch, mdl, lat, t, u_arr, pi_arr,
                           strict=strict) \
            == batch_bytes(ref.build_stencil_batch, mdl, lat, t, u_arr,
                           pi_arr, strict=strict)
    assert report_bytes(consistency_sweep(mdl, lat, t, u_arr, pi_arr)) \
        == report_bytes(ref.consistency_sweep(mdl, lat, t, u_arr, pi_arr))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [2, 3])
def test_split_build_and_sweep_match_whole_law(m, d):
    mdl = split_model(m, d)
    lat = build_grid(SMALL, m)
    u_arr, pi_arr = split_controls(d)
    masked = 0
    for t in mdl.time_breaks:
        assert_matches_whole_law(mdl, lat, float(t), u_arr, pi_arr)
        masked += int((~build_stencil_batch(mdl, lat, float(t), u_arr,
                                            pi_arr).valid).sum())
    # three regimes with an informative signal mask laws, so the strict
    # builds raise and the masked builds carry invalid pairs
    assert (masked > 0) == (m == 3)


@pytest.mark.parametrize("m", [2, 3])
def test_volatility_term_never_stale(m):
    # one lattice serves models that differ from the base only in the
    # volatility, then only in the positions, each between two base runs
    base = split_model(m, 2)
    u_arr, pi_arr = split_controls(2)
    lat = build_grid(SMALL, m)
    runs = [(base, u_arr), (replace(base, vol=base.vol * 1.5), u_arr),
            (base, u_arr), (base, u_arr[::-1] * 0.5), (base, u_arr)]
    for mdl, u in runs:
        for t in mdl.time_breaks:
            assert_matches_whole_law(mdl, lat, float(t), u, pi_arr)
