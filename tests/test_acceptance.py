"""End-to-end acceptance suite for the default market and grid.

Each test implements one release criterion at its stated tolerance and
prints a one-line PASS/FAIL verdict (visible with ``pytest -s`` or in the
captured output of a failing run).  Heavy artifacts (the default solve and
the refinement ladder) are shared session-wide.

Criteria:
 1 stencil validity on the full control grid (mass 1, entries in [0,1])
 2 local consistency of one-step moments at every node/control
 3 terminal and propagation identities of the solved fields
 4 equilibrium spike property, plus corrupted-policy detection
 5 chain Monte-Carlo mean against the auxiliary function g
 6 chain vs SDE weak agreement across the refinement ladder, under
   mean-minus-variance so that the SDE wealth carries noise
 7 filter marginal against the matrix-exponential oracle
 8 refinement Cauchy test at the evaluation point
 9 qualitative cost-sweep shape checks on the emitted figure data
10 bit-identical artifacts across repeated runs
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from attnmv.cli import load_config, main
from attnmv.kernel import build_stencil_batch, consistency_sweep
from attnmv.market import compose_objective, example_model
from attnmv.oracle import FeedbackPolicy, marginal_check, simulate_chain, \
    simulate_sde
from attnmv.solver import StencilCache, g_residuals, solve, spike_margins

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"
N_PATHS = 100_000
LADDER = [(0.4, 0.004), (0.2, 0.001), (0.1, 0.00025)]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return load_config(CONFIG)


@pytest.fixture(scope="module")
def default_run(cfg):
    """Solved default: h1=0.2, h2=0.001, gamma=0.5, attention in [0.001, 2]."""
    model = cfg.model
    spec = cfg.grid_spec()
    fields = solve(model, spec, cfg.control_grid())
    return model, spec, fields


@pytest.fixture(scope="module")
def ladder_fields(cfg):
    """Solved fields of every ladder rung under the configured convention."""
    model = cfg.model
    grid = cfg.control_grid()
    return [solve(model, cfg.grid_spec(h1=h1, h2=h2), grid)
            for h1, h2 in LADDER]


@pytest.fixture(scope="module")
def ladder_runs(cfg):
    """Chain and SDE summaries for every ladder rung under mean-minus-variance.

    Under the configured paper-literal convention the stored policy holds
    no risk (u = 0) along the paths from the evaluation node, so the SDE's
    terminal wealth carries no noise; mean-minus-variance holds risk there.
    """
    model = replace(cfg.model,
                    objective_convention="mean-minus-variance")
    grid = cfg.control_grid()
    out = []
    for h1, h2 in LADDER:
        spec = cfg.grid_spec(h1=h1, h2=h2)
        fields = solve(model, spec, grid)
        node = cfg.eval_node(fields.lat, refine=True)
        chain = simulate_chain(model, fields, node, 20_000, cfg.seed)
        sde = simulate_sde(model, FeedbackPolicy(fields), 0.0,
                           float(fields.lat.x[node]),
                           fields.lat.phi[node], 20_000, cfg.seed + 1,
                           h2=h2, x_bounds=(spec.x_min, spec.x_max))
        out.append((spec, chain, sde))
    return out


def test_criterion_01_stencil_validity(cfg, default_run):
    model, spec, fields = default_run
    u_arr, pi_arr = cfg.control_grid().enumerate()
    t0 = time.perf_counter()
    batch = build_stencil_batch(model, fields.lat, 0.0, u_arr, pi_arr,
                                strict=True)
    elapsed = time.perf_counter() - t0
    mass_err = float(np.abs(batch.probs.sum(axis=1) - 1.0).max())
    ok = (batch.probs.min() >= 0.0 and batch.probs.max() <= 1.0
          and mass_err <= 1e-10 and elapsed < 60.0)
    report(1, "stencil validity", ok,
           f"mass_err={mass_err:.2e} elapsed={elapsed:.2f}s")


def test_criterion_02_local_consistency(cfg, default_run):
    model, spec, fields = default_run
    u_arr, pi_arr = cfg.control_grid().enumerate()
    rep = consistency_sweep(model, fields.lat, 0.0, u_arr, pi_arr)
    ok = rep.mean_dev <= 1e-12 and rep.second_dev <= 5.0 * spec.h1 * spec.h2
    report(2, "local consistency", ok,
           f"mean_dev={rep.mean_dev:.2e} "
           f"second_dev/h1h2={rep.second_dev / (spec.h1 * spec.h2):.3f}")


def test_criterion_03_terminal_and_propagation(default_run):
    model, spec, fields = default_run
    lat = fields.lat
    V_T = compose_objective(lat.x, 0.0, model.risk_aversion,
                            model.objective_convention)
    terminal = np.array_equal(fields.V[-1], V_T) and \
        np.array_equal(fields.g[-1], lat.x)
    cache = StencilCache(model, lat, fields.grid)
    worst = max(float(g_residuals(model, fields, n, cache).max())
                for n in range(spec.n_steps))
    ok = terminal and worst <= 1e-12
    report(3, "terminal and propagation identities", ok,
           f"terminal_exact={terminal} g_residual_max={worst:.2e}")


def test_criterion_04_spike_property(default_run):
    model, spec, fields = default_run
    lat = fields.lat
    cache = StencilCache(model, lat, fields.grid)
    worst = min(
        float(spike_margins(model, fields, n, cache=cache).min())
        for n in range(spec.n_steps))
    # negative control: corrupt one node to the other attention extreme
    node = int(lat.index_of(10, np.array([1])))
    corrupt = replace(fields, policy=fields.policy.copy())
    row = corrupt.policy[1000]
    n_pi = len(fields.grid.pi_levels)
    row[node] = (row[node] // n_pi) * n_pi if row[node] % n_pi else row[node] + n_pi - 1
    corrupted = float(spike_margins(model, corrupt, 1000, cache=cache)[node])
    ok = worst >= -1e-12 and corrupted < 0.0
    report(4, "equilibrium spike property", ok,
           f"min_margin={worst:.2e} corrupted_margin={corrupted:.2e}")


def test_criterion_05_g_vs_chain(cfg, default_run):
    model, spec, fields = default_run
    start = cfg.eval_node(fields.lat)         # x=2, phi1=0.2
    t0 = time.perf_counter()
    mc = simulate_chain(model, fields, start, N_PATHS, cfg.seed)
    elapsed = time.perf_counter() - t0
    g0 = float(fields.g[0][start])
    dev = abs(mc.mean_XT - g0)
    # the wealth window must keep boundary occupancy negligible here
    ok = dev <= 3.0 * mc.se_mean and elapsed < 300.0 \
        and mc.boundary_hits < 0.01
    report(5, "chain Monte-Carlo matches g", ok,
           f"g0={g0:.6f} mean={mc.mean_XT:.6f} dev/se="
           f"{dev / mc.se_mean if mc.se_mean else 0.0:.2f} "
           f"boundary_hits={mc.boundary_hits:.4f} elapsed={elapsed:.1f}s")


def test_criterion_06_chain_vs_sde(ladder_runs):
    # the mean gap may exceed three joint standard errors by C (h1 + h2) at
    # most, with C declared here, not fitted to the rows it checks
    C = 0.05
    noise_floor = 1e-6
    rows = []
    for spec, chain, sde in ladder_runs:
        gap = abs(sde.mean_XT - chain.mean_XT)
        band = 3.0 * (sde.se_mean + chain.se_mean)
        rows.append((spec.h1 + spec.h2, gap, band, max(0.0, gap - band)))
    holds = all(gap <= band + C * step for step, gap, band, _ in rows)
    positive = [excess / step for step, _, _, excess in rows
                if excess / step > noise_floor]
    stable = len(positive) <= 1 or max(positive) <= 2.0 * min(positive)
    # a wealth path without noise would compare two deterministic numbers
    noisy = all(sde.var_XT > 0.0 for _, _, sde in ladder_runs)
    ok = holds and stable and noisy
    report(6, "chain vs SDE weak agreement", ok,
           f"C={C} " + " ".join(f"[gap={gap:.3g} band={band:.3g} "
                                f"excess={excess:.3g} sde_var={sde.var_XT:.3g}]"
                                for (_, gap, band, excess), (_, _, sde)
                                in zip(rows, ladder_runs)))


def test_criterion_07_filter_marginal(cfg):
    model = example_model(generator=[[-1.0, 1.0], [1.0, -1.0]])
    rep = marginal_check(model, np.array([1.0]), pi=1.0, t=0.5,
                         n_paths=N_PATHS, seed=cfg.seed, h2=0.001)
    target = 0.5 + 0.5 * np.exp(-1.0)
    ok = abs(rep.target[0] - target) <= 1e-12 and rep.dev_over_3se <= 1.0
    report(7, "filter marginal oracle", ok,
           f"mean={rep.mean[0]:.5f} target={target:.5f} "
           f"dev/3se={rep.dev_over_3se:.2f}")


def test_criterion_08_refinement_cauchy(cfg, ladder_fields):
    values = []
    for fields in ladder_fields:
        node = cfg.eval_node(fields.lat, refine=True)
        n_eval = cfg.eval_slice(fields.spec, refine=True)
        values.append(float(fields.V[n_eval][node]))
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    # first-order scheme: each diff within 0.05 h1 of the coarser rung
    ok = all(d <= 0.05 * f.spec.h1 for d, f in zip(diffs, ladder_fields)) \
        and diffs[-1] < cfg.refine_tol
    report(8, "refinement Cauchy test", ok,
           f"values={[round(v, 6) for v in values]} "
           f"diffs={[round(d, 6) for d in diffs]}")


def test_criterion_09_figure_shape_checks(cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    rc = main(["sweep-k", "--config", str(CONFIG), "--output-dir", str(out),
               "--sweep-k", "0.1,0.3,0.5"])
    assert rc == 0

    def col(table, name):
        return np.asarray(table[name])

    def violations(series):
        return int(np.sum(np.diff(series) < -1e-12))

    v = np.genfromtxt(out / "fig1_value.csv", delimiter=",", names=True)
    x = col(v, "x")
    upper = x >= (x.min() + x.max()) / 2.0
    # a dearer signal never helps: s V must not fall as k rises, with s = +1
    # where the objective is minimized and -1 where it is maximized
    model = cfg.model
    s = np.sign(compose_objective(0.0, 1.0, model.risk_aversion,
                                  model.objective_convention))
    sv = [s * col(v, c)[upper] for c in ("V_k01", "V_k03", "V_k05")]
    ordered = sum(int(np.sum(b < a - 1e-12)) for a, b in zip(sv, sv[1:])) <= 1
    w = np.genfromtxt(out / "fig2_ratio.csv", delimiter=",", names=True)
    w_ok = all(violations(col(w, c)[upper]) <= 1
               for c in ("w_k01", "w_k03", "w_k05"))
    p = np.genfromtxt(out / "fig3_attention.csv", delimiter=",", names=True)
    pi_ok = violations(col(p, "pi_k01")[upper]) <= 1
    ok = ordered and w_ok and pi_ok
    report(9, "qualitative figure checks", ok,
           f"value_order={bool(ordered)} ratio_monotone={w_ok} "
           f"attention_monotone={pi_ok}")


def test_criterion_10_determinism(tmp_path_factory):
    out = tmp_path_factory.mktemp("determinism")
    args = ["solve", "--config", str(CONFIG), "--output-dir", str(out)]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())
             if p.suffix in (".csv", ".json")}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())
              if p.suffix in (".csv", ".json")}
    ok = first and first == second
    report(10, "bit-identical artifacts", ok,
           f"files={sorted(first)}")
