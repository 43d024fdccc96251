import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from attnmv.errors import DomainError
from attnmv.lattice import GridSpec, build_grid
from attnmv.market import example_model
from attnmv.oracle import (ConstantPolicy, FeedbackPolicy, _chain_law, _expm,
                           _path_streams, marginal_check, simulate_chain,
                           simulate_sde, summarize, write_terminal_csv)
from attnmv.solver import ControlGrid, StencilCache, solve

# the largest batch of paths; tests lower it with monkeypatch.setattr to
# run several batches, and forked workers inherit the lowered value
MAX_BATCH = "attnmv.oracle._MAX_BATCH"


def test_objective_conventions():
    samples = np.array([1.0, 3.0])
    lit = summarize(samples, example_model(
        risk_aversion=0.5, objective_convention="paper-literal"), 0.0)
    assert lit.mean_XT == 2.0 and lit.var_XT == 1.0
    assert lit.objective == pytest.approx(0.5)
    mmv = summarize(samples, example_model(
        risk_aversion=0.5, objective_convention="mean-minus-variance"), 0.0)
    assert mmv.objective == pytest.approx(1.75)


def test_summary_standard_errors():
    mdl = example_model()
    rng = np.random.default_rng(0)
    s = summarize(rng.normal(5.0, 2.0, size=40_000), mdl, 0.0)
    assert s.se_mean == pytest.approx(2.0 / 200.0, rel=0.05)
    assert abs(s.mean_XT - 5.0) <= 4 * s.se_mean
    assert abs(s.var_XT - 4.0) <= 4 * s.se_var


def test_sde_frozen_constant_paths():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]], riskfree=0.0,
                        drift=[[0.0], [0.0]], signal_levels=[1.0, 1.0],
                        cost_coeff=0.0, T=0.1)
    mc = simulate_sde(mdl, ConstantPolicy([0.0], 1.0), 0.0, 2.0,
                      np.array([0.3]), 50, seed=1, h2=0.01,
                      x_bounds=(0.0, 4.0))
    assert mc.mean_XT == 2.0
    assert mc.var_XT == 0.0
    assert mc.boundary_hits == 0.0


def test_sde_pure_bond_growth():
    r0, T = 0.03, 0.2
    mdl = example_model(riskfree=r0, cost_coeff=0.0, T=T)
    mc = simulate_sde(mdl, ConstantPolicy([0.0], 1.0), 0.0, 2.0,
                      np.array([0.2]), 10, seed=1, h2=0.001,
                      x_bounds=(0.0, 4.0))
    exact = 2.0 * np.exp(r0 * T)
    assert abs(mc.mean_XT - exact) <= r0 * r0 * T * 0.001 * 2.0
    assert mc.var_XT == 0.0


def test_sde_counts_boundary_exits():
    mdl = example_model(riskfree=1.0, cost_coeff=0.0, T=2.0,
                        drift=[[1.0], [1.0]])
    mc = simulate_sde(mdl, ConstantPolicy([0.0], 1.0), 0.0, 2.0,
                      np.array([0.2]), 20, seed=1, h2=0.01,
                      x_bounds=(0.0, 4.0))
    assert mc.boundary_hits == 1.0          # deterministic growth escapes
    assert mc.mean_XT > 4.0                 # never clipped


def test_sde_seed_determinism(short_fields):
    mdl, spec, fields = short_fields
    pol = ConstantPolicy([1.0], 1.0)       # risky position: real noise
    kw = dict(t0=0.0, x0=2.0, phi0=np.array([0.2]), n_paths=500, seed=11,
              h2=spec.h2, x_bounds=(spec.x_min, spec.x_max))
    a = simulate_sde(mdl, pol, **kw)
    b = simulate_sde(mdl, pol, **kw)
    assert a == b
    assert a.var_XT > 0.0
    c = simulate_sde(mdl, pol, **{**kw, "seed": 12})
    assert c.mean_XT != a.mean_XT


def test_sde_batching_invariance(short_fields, monkeypatch):
    # per-path streams: summary independent of the batch partitioning
    mdl, spec, fields = short_fields
    pol = FeedbackPolicy(fields)
    kw = dict(t0=0.0, x0=2.0, phi0=np.array([0.2]), n_paths=300, seed=5,
              h2=spec.h2, x_bounds=(spec.x_min, spec.x_max))
    monkeypatch.setattr(MAX_BATCH, 37)
    a = simulate_sde(mdl, pol, **kw)
    monkeypatch.setattr(MAX_BATCH, 300)
    b = simulate_sde(mdl, pol, **kw)
    assert a == b


def _frozen_belief_model(m, d):
    # zero generator and zero signal levels: filter_step returns phi as is
    return example_model(
        m=m, d=d, T=0.02, generator=np.zeros((m, m)).tolist(),
        signal_levels=[0.0] * m, cost_coeff=0.1,
        riskfree=[0.03 + 0.01 * i for i in range(m)],
        drift=[[0.08 - 0.02 * i + 0.01 * l for l in range(d)]
               for i in range(m)],
        vol=[[[(0.2 + 0.05 * i) if l == j else 0.03 * (l + 1)
               for j in range(d)] for l in range(d)] for i in range(m)])


def _affine_control(x, d):
    # the same float operations for a path array and for one path's float
    u = [0.5 + 0.25 * (l + 1) * x for l in range(d)]
    return u, 0.5 * x + 0.25


def _scalar_sde(model, x0, phi0, n_paths, seed, h2, lo, hi):
    """Per-path Euler loop in Python floats, every sum in index order."""
    m, d, k = model.m, model.d, model.cost_coeff
    r = model.riskfree[0].tolist()
    theta = model.theta_at(0.0).tolist()
    vol = model.vol[0].tolist()
    n_steps = round(model.T / h2)
    w = [float(v) for v in phi0]
    last = w[0]
    for v in w[1:]:
        last = last + v
    w.append(1.0 - last)
    terminal, hits = [], 0
    for path in range(n_paths):
        dw = np.random.default_rng([seed, path]).standard_normal(
            (n_steps, d + 1)).tolist()
        x, out = x0, False
        for z in dw:
            u, pi = _affine_control(x, d)
            for i in range(m):
                ut = u[0] * theta[i][0]
                for l in range(1, d):
                    ut = ut + u[l] * theta[i][l]
                term = w[i] * (r[i] * x + ut)
                drift = term if i == 0 else drift + term
            for j in range(d):
                for i in range(m):
                    us = u[0] * vol[i][0][j]
                    for l in range(1, d):
                        us = us + u[l] * vol[i][l][j]
                    s_j = w[i] * us if i == 0 else s_j + w[i] * us
                noise = s_j * z[j] if j == 0 else noise + s_j * z[j]
            x = x + (drift - k * pi * pi * x) * h2 + noise * math.sqrt(h2)
            out = out or x < lo or x > hi
        terminal.append(x)
        hits += out
    return summarize(np.array(terminal), model, hits / n_paths)


@pytest.mark.parametrize("m, d", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_sde_matches_scalar_reference(monkeypatch, m, d):
    # the SDE's wealth step sums regimes, then positions, in index order;
    # with the belief frozen, a float loop over paths must agree bit for bit
    mdl = _frozen_belief_model(m, d)
    phi0 = np.array([0.25, 0.5][: m - 1])

    def policy(t, x, phi):
        u, pi = _affine_control(x, d)
        return np.stack(u, axis=1), pi

    kw = dict(n_paths=60, seed=17, h2=0.001)
    bounds = (0.95, 1.05)
    monkeypatch.setattr(MAX_BATCH, 25)
    mc = simulate_sde(mdl, policy, 0.0, 1.0, phi0, x_bounds=bounds, **kw)
    ref = _scalar_sde(mdl, 1.0, phi0, lo=bounds[0], hi=bounds[1], **kw)
    assert mc == ref
    assert mc.var_XT > 0.0 and 0.0 < mc.boundary_hits < 1.0


def test_chain_frozen_stays_put():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]], riskfree=0.0,
                        drift=[[0.0], [0.0]], signal_levels=[1.0, 1.0],
                        cost_coeff=0.0, T=0.01)
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=10)
    cg = ControlGrid.regular(d=1, u_max=0.0, du=1.0, pi_min=mdl.attention_min,
                             pi_max=mdl.attention_max, n_pi=2)
    fields = solve(mdl, spec, cg)
    start = int(fields.lat.index_of(10, np.array([2])))
    mc = simulate_chain(mdl, fields, start, 200, seed=3)
    assert mc.mean_XT == 2.0
    assert mc.var_XT == 0.0


def test_chain_mean_matches_g(short_fields):
    mdl, spec, fields = short_fields
    start = int(fields.lat.index_of(10, np.array([1])))
    mc = simulate_chain(mdl, fields, start, 30_000, seed=21)
    g0 = fields.g[0][start]
    assert abs(mc.mean_XT - g0) <= 3.0 * mc.se_mean


def test_chain_single_step_drift(worked_model):
    # one-step chain from the worked node: E[dx] = bbar * h2 = 1e-4
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=1)
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]], riskfree=0.0,
                        drift=[[0.05], [0.05]], vol=[[[0.1]], [[0.1]]],
                        cost_coeff=0.0, T=0.001)
    cg = ControlGrid(u_levels=np.array([[2.0], [0.0]]),
                     pi_levels=np.array([1.0]))
    fields = solve(mdl, spec, cg)
    start = int(fields.lat.index_of(5, np.array([1])))
    # force the worked control (u=2, pi=1) rather than the optimized one
    fields.policy[0][:] = 0
    mc = simulate_chain(mdl, fields, start, 60_000, seed=8)
    assert abs((mc.mean_XT - 1.0) - 1e-4) <= 3.0 * mc.se_mean
    assert mc.se_mean < 5e-5


def test_chain_seed_determinism(short_fields, monkeypatch):
    mdl, spec, fields = short_fields
    start = int(fields.lat.index_of(10, np.array([1])))
    a = simulate_chain(mdl, fields, start, 500, seed=2)
    b = simulate_chain(mdl, fields, start, 500, seed=2)
    assert a == b
    d = simulate_chain(mdl, fields, start, 500, seed=3)
    monkeypatch.setattr(MAX_BATCH, 123)
    c = simulate_chain(mdl, fields, start, 500, seed=3)
    assert c == d


def test_marginal_frozen_zero_deviation():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]],
                        signal_levels=[1.0, 1.0])
    rep = marginal_check(mdl, np.array([1.0]), pi=1.0, t=0.1, n_paths=100,
                         seed=4, h2=0.01)
    assert rep.max_dev == 0.0
    assert rep.dev_over_3se == 0.0


def test_marginal_symmetric_two_state():
    mdl = example_model(generator=[[-1.0, 1.0], [1.0, -1.0]])
    rep = marginal_check(mdl, np.array([1.0]), pi=1.0, t=0.5, n_paths=30_000,
                         seed=5)
    target = 0.5 + 0.5 * np.exp(-1.0)
    assert rep.target[0] == pytest.approx(target, abs=1e-12)
    assert rep.dev_over_3se <= 1.0


def test_marginal_matches_expm_oracle():
    mdl = example_model(generator=[[-0.7, 0.7], [1.3, -1.3]])
    rep = marginal_check(mdl, np.array([0.6]), pi=0.5, t=0.4, n_paths=20_000,
                         seed=6)
    manual = expm(mdl.generator.T * 0.4) @ np.array([0.6, 0.4])
    np.testing.assert_allclose(rep.target, manual, atol=1e-12)
    assert rep.dev_over_3se <= 1.0


def _random_generator(rng, m):
    # off-diagonal rates up to ~100, rows summing to zero
    q = rng.uniform(0.0, 1.0, (m, m)) * 10.0 ** rng.uniform(-1.0, 2.0, (m, 1))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def test_expm_matches_scipy_on_random_generators():
    rng = np.random.default_rng(2003)
    for _ in range(400):
        m = int(rng.integers(2, 6))
        q = _random_generator(rng, m)
        t = 10.0 ** rng.uniform(-3.0, math.log10(2.0))
        p0 = rng.dirichlet(np.ones(m))
        np.testing.assert_allclose(_expm(q.T * t) @ p0, expm(q.T * t) @ p0,
                                   rtol=0.0, atol=1e-12)


def test_expm_of_zero_and_of_a_vanishing_time():
    np.testing.assert_array_equal(_expm(np.zeros((3, 3))), np.eye(3))
    a = _random_generator(np.random.default_rng(7), 4).T
    rate = np.abs(a).sum(axis=1).max()
    p0 = np.array([0.1, 0.2, 0.3, 0.4])
    for t in (1e-6, 1e-10, 1e-15):
        p = _expm(a * t) @ p0
        np.testing.assert_allclose(p, expm(a * t) @ p0, rtol=0.0, atol=1e-15)
        # first order in t: the remainder is at most (rate t)^2
        np.testing.assert_allclose(p, p0 + (a @ p0) * t, rtol=0.0,
                                   atol=(rate * t) ** 2 + 1e-15)


def test_runtime_needs_no_scipy(tmp_path):
    # with scipy made unimportable, the CLI imports, solves the default
    # config, and the marginal oracle computes its target
    config = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from attnmv.cli import main\n"
        "from attnmv.market import example_model\n"
        "from attnmv.oracle import marginal_check\n"
        "assert main(['solve', '--config', sys.argv[1],\n"
        "             '--output-dir', sys.argv[2]]) == 0\n"
        "rep = marginal_check(example_model(), np.array([0.2]), 1.0, 0.1,\n"
        "                     300, seed=1)\n"
        "print(rep.target.tolist())\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, str(config),
                           str(tmp_path / "solve")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    target = json.loads(proc.stdout.splitlines()[-1])
    want = expm(example_model().generator.T * 0.1) @ np.array([0.2, 0.8])
    np.testing.assert_allclose(target, want, rtol=0.0, atol=1e-12)
    assert (tmp_path / "solve" / "manifest.json").is_file()


def test_marginal_short_time_stays_near_start():
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]])
    rep = marginal_check(mdl, np.array([0.4]), pi=1.0, t=0.001, n_paths=2000,
                         seed=7, h2=0.001)
    assert abs(rep.mean[0] - 0.4) <= 0.01


def test_terminal_wealth_csv(short_fields, tmp_path):
    mdl, spec, fields = short_fields
    start = int(fields.lat.index_of(10, np.array([1])))
    path = tmp_path / "terminal.csv"
    mc = simulate_chain(mdl, fields, start, 250, seed=9, terminal_csv=path)
    rows = path.read_text().splitlines()
    assert rows[0] == "x_T"
    samples = np.array([float(v) for v in rows[1:]])
    assert len(samples) == 250
    assert samples.mean() == pytest.approx(mc.mean_XT)


def test_feedback_policy_lookup(short_fields):
    mdl, spec, fields = short_fields
    pol = FeedbackPolicy(fields)
    u, pi = pol(0.0, np.array([2.05]), np.array([[0.21]]))
    node = int(fields.lat.index_of(10, np.array([1])))
    assert pi[0] == fields.policy_pi(0)[node]
    assert u[0, 0] == fields.policy_u(0)[node, 0]


def test_marginal_batching_invariance(monkeypatch):
    # per-path streams, summed once over all paths: the report does not
    # depend on the batch partitioning
    mdl = example_model(generator=[[-0.7, 0.7], [1.3, -1.3]])
    kw = dict(phi0=np.array([0.6]), pi=0.5, t=0.05, n_paths=300, seed=9)
    monkeypatch.setattr(MAX_BATCH, 37)
    a = marginal_check(mdl, **kw)
    monkeypatch.setattr(MAX_BATCH, 300)
    b = marginal_check(mdl, **kw)
    for name in ("target", "mean", "se"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert (a.max_dev, a.dev_over_3se) == (b.max_dev, b.dev_over_3se)


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1


needs_cpus = pytest.mark.skipif(_cpus() < 2,
                                reason="the affinity mask has one CPU")


class _PidPolicy(FeedbackPolicy):
    """The stored policy, noting in a file each process that calls it."""

    def __init__(self, fields, pid_file):
        super().__init__(fields)
        self.pid_file = pid_file

    def __call__(self, t, x, phi):
        with open(self.pid_file, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return super().__call__(t, x, phi)


def _pool_runs(out_dir):
    """The three oracles at 600 paths each (two batches on two CPUs).

    Returns their reports as JSON-ready dicts; writes the chain's terminal
    wealth and the PIDs that called the SDE policy under ``out_dir``.
    """
    out_dir = Path(out_dir)
    mdl = example_model(T=0.2)
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=200)
    cg = ControlGrid.regular(d=1, u_max=2.0, du=0.5, pi_min=mdl.attention_min,
                             pi_max=mdl.attention_max, n_pi=5)
    fields = solve(mdl, spec, cg)
    fields.policy[:] = 24                   # u=2, pi=2: the paths spread
    start = int(fields.lat.index_of(10, np.array([1])))
    out = {"chain": simulate_chain(
        mdl, fields, start, 600, seed=2,
        terminal_csv=out_dir / "terminal.csv").to_dict()}
    assert multiprocessing.active_children() == []
    out["sde"] = simulate_sde(
        mdl, _PidPolicy(fields, out_dir / "pids.txt"), 0.0, 2.0,
        np.array([0.2]), 600, seed=5, h2=spec.h2,
        x_bounds=(spec.x_min, spec.x_max)).to_dict()
    assert multiprocessing.active_children() == []
    rep = marginal_check(mdl, np.array([0.6]), pi=0.5, t=0.05, n_paths=600,
                         seed=9)
    assert multiprocessing.active_children() == []
    out["marginal"] = {name: getattr(rep, name).tolist()
                       for name in ("mean", "target", "se")}
    out["marginal"].update(max_dev=rep.max_dev, dev_over_3se=rep.dev_over_3se)
    return out


@needs_cpus
def test_worker_pool_matches_one_cpu(tmp_path):
    # the same runs in a process pinned to one CPU, where every batch runs
    # in-process, give equal reports and terminal samples
    pooled, alone = tmp_path / "pooled", tmp_path / "alone"
    pooled.mkdir()
    alone.mkdir()
    want = _pool_runs(pooled)
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import json, os, sys\n"
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              "import test_oracle\n"
              "print(json.dumps(test_oracle._pool_runs(sys.argv[1])))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), str(Path(__file__).resolve().parent)])}
    proc = subprocess.run([sys.executable, "-c", script, str(alone)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == want
    assert ((pooled / "terminal.csv").read_bytes()
            == (alone / "terminal.csv").read_bytes())
    # the default run walked its batches in at least two workers, the
    # pinned one in its own process only
    pids = set((pooled / "pids.txt").read_text().split())
    assert len(pids) >= 2 and str(os.getpid()) not in pids
    assert len(set((alone / "pids.txt").read_text().split())) == 1


@needs_cpus
def test_worker_errors_reach_the_caller():
    # pi outside the attention range fails in the first filter step of
    # every batch, in the workers and in-process alike
    mdl = example_model(T=0.1)
    args = (mdl, ConstantPolicy([0.0], 10.0), 0.0, 2.0, np.array([0.2]), 600)
    kw = dict(seed=1, h2=0.01, x_bounds=(0.0, 4.0))
    with pytest.raises(DomainError) as pooled:
        simulate_sde(*args, **kw)
    assert multiprocessing.active_children() == []
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        with pytest.raises(DomainError) as alone:
            simulate_sde(*args, **kw)
    finally:
        os.sched_setaffinity(0, mask)
    assert multiprocessing.active_children() == []
    assert type(pooled.value) is type(alone.value)
    assert str(pooled.value) == str(alone.value)
    assert "attention outside" in str(alone.value)


@pytest.mark.parametrize("n_paths, max_batch", [(0, 64), (1, 64),
                                                (2**32 + 1, 64)])
def test_oracles_reject_bad_counts_up_front(short_fields, monkeypatch,
                                            n_paths, max_batch):
    # rejected before any path is drawn or the chain's law is built, also
    # in batches of 64 paths: n_paths=0 gave NaN means, the chain and SDE
    # simulated every path before the summary raised, and the chain built
    # every epoch's batch first; a path index must fit the one entropy word
    # the seeding handles
    mdl, spec, fields = short_fields

    def no_streams(*args):
        raise AssertionError("a path was simulated or a batch built")
    monkeypatch.setattr("attnmv.oracle._path_streams", no_streams)
    monkeypatch.setattr("attnmv.solver.StencilCache.batch", no_streams)
    monkeypatch.setattr(MAX_BATCH, max_batch)
    start = int(fields.lat.index_of(10, np.array([1])))
    with pytest.raises(DomainError):
        simulate_chain(mdl, fields, start, n_paths, seed=1)
    with pytest.raises(DomainError):
        simulate_sde(mdl, ConstantPolicy([1.0], 1.0), 0.0, 2.0,
                     np.array([0.2]), n_paths, seed=1, h2=spec.h2,
                     x_bounds=(spec.x_min, spec.x_max))
    with pytest.raises(DomainError):
        marginal_check(mdl, np.array([0.2]), 1.0, 0.1, n_paths, seed=1)


@pytest.mark.parametrize("phi0, h2", [([1.2], 0.01), ([-0.1], 0.01),
                                      ([np.nan], 0.01), ([0.2], 0.0),
                                      ([0.2], np.nan), ([0.2], np.inf)],
                         ids=["phi0=1.2", "phi0=-0.1", "phi0=nan", "h2=0",
                              "h2=nan", "h2=inf"])
def test_oracles_reject_bad_start_up_front(monkeypatch, phi0, h2):
    # the start belief and the step size are checked once, at entry: the
    # steps themselves no longer check the belief, an off-simplex belief
    # used to fail only in the first step, a NaN belief not at all, and
    # h2 = 0 or NaN raised ZeroDivisionError or ValueError
    mdl = example_model(T=0.1)

    def no_streams(*args):
        raise AssertionError("a path was simulated")
    monkeypatch.setattr("attnmv.oracle._path_streams", no_streams)
    with pytest.raises(DomainError):
        simulate_sde(mdl, ConstantPolicy([1.0], 1.0), 0.0, 2.0,
                     np.array(phi0), 10, seed=1, h2=h2, x_bounds=(0.0, 4.0))
    with pytest.raises(DomainError):
        marginal_check(mdl, np.array(phi0), 1.0, 0.1, 10, seed=1, h2=h2)


@pytest.mark.parametrize("t0, x0, message", [
    (np.nan, 2.0, "t0"), (np.inf, 2.0, "t0"), (-0.01, 2.0, "t0"),
    (0.1, 2.0, "t0"), (0.0, np.nan, "x0"), (0.0, -np.inf, "x0"),
], ids=["t0=nan", "t0=inf", "t0<0", "t0=T", "x0=nan", "x0=-inf"])
def test_sde_rejects_bad_start_state_up_front(monkeypatch, t0, x0, message):
    # t0 = nan used to raise ValueError from the step count, and x0 = nan
    # simulated every path and returned NaN moments
    mdl = example_model(T=0.1)

    def no_streams(*args):
        raise AssertionError("a path was simulated")
    monkeypatch.setattr("attnmv.oracle._path_streams", no_streams)
    with pytest.raises(DomainError, match=message):
        simulate_sde(mdl, ConstantPolicy([1.0], 1.0), t0, x0,
                     np.array([0.2]), 10, seed=1, h2=0.01, x_bounds=(0.0, 4.0))


@pytest.mark.parametrize("pi", [10.0, 0.0, np.nan])
def test_marginal_rejects_bad_attention_up_front(monkeypatch, pi):
    # pi = 10 used to draw a batch of streams before the first filter step
    # raised, and pi = nan passed the step's range check
    mdl = example_model(T=0.1)

    def no_streams(*args):
        raise AssertionError("a path was simulated")
    monkeypatch.setattr("attnmv.oracle._path_streams", no_streams)
    with pytest.raises(DomainError, match="attention outside"):
        marginal_check(mdl, np.array([0.2]), pi, 0.1, 10, seed=1, h2=0.01)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_oracles_reject_bad_seed_up_front(short_fields, monkeypatch, seed):
    # numpy raised only when the first stream was seeded, and the chain
    # built every epoch's batch first; True passed the integer check as 1
    mdl, spec, fields = short_fields

    def no_streams(*args):
        raise AssertionError("a path was simulated or a batch built")
    monkeypatch.setattr("attnmv.oracle._path_streams", no_streams)
    monkeypatch.setattr("attnmv.solver.StencilCache.batch", no_streams)
    start = int(fields.lat.index_of(10, np.array([1])))
    with pytest.raises(DomainError, match="seed"):
        simulate_chain(mdl, fields, start, 10, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        simulate_sde(mdl, ConstantPolicy([1.0], 1.0), 0.0, 2.0,
                     np.array([0.2]), 10, seed=seed, h2=spec.h2,
                     x_bounds=(spec.x_min, spec.x_max))
    with pytest.raises(DomainError, match="seed"):
        marginal_check(mdl, np.array([0.2]), 1.0, 0.1, 10, seed=seed)


@pytest.mark.parametrize("start_node", [-1, 126, True, 2.0, "3"])
def test_chain_rejects_bad_start_node_up_front(short_fields, monkeypatch,
                                               start_node):
    # -1 used to simulate the last node and 126 (= n_nodes) raised
    # IndexError once the first batch was drawn
    mdl, spec, fields = short_fields
    assert fields.lat.n_nodes == 126

    def nothing_built(*args):
        raise AssertionError("a stencil batch or path was built")
    monkeypatch.setattr("attnmv.solver.StencilCache.batch", nothing_built)
    monkeypatch.setattr("attnmv.oracle._path_streams", nothing_built)
    with pytest.raises(DomainError, match="start_node"):
        simulate_chain(mdl, fields, start_node, 10, seed=1)


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**70 + 5, 2**130 + 1])
@pytest.mark.parametrize("first", [0, 11, 2**32 - 2])
@pytest.mark.parametrize("draw", ["random", "standard_normal"])
@pytest.mark.parametrize("shape", [(6,), (6, 2)])
def test_path_streams_equal_default_rng(seed, first, draw, shape):
    # the vectorized seeding must reproduce numpy's own; the last `first`
    # reaches the largest path index, 2**32 - 1
    count = min(5, 2**32 - first)
    rows = _path_streams(seed, first, count, shape, draw)
    for j in range(count):
        want = getattr(np.random.default_rng([seed, first + j]), draw)(shape)
        np.testing.assert_array_equal(rows[j], want)


# Exact pins, recorded before the oracles' step loops were rewritten for
# speed: a change to any path stream or to the step arithmetic moves them.
# The policies are forced or constant, so a change to the backward
# recursion leaves them alone.  The chain's pins were re-recorded when it
# began to sample its exact law with one uniform per path.

@pytest.fixture
def pin_fields():
    mdl = example_model(T=0.05)
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=50)
    cg = ControlGrid.regular(d=1, u_max=2.0, du=0.5, pi_min=mdl.attention_min,
                             pi_max=mdl.attention_max, n_pi=5)
    return mdl, spec, solve(mdl, spec, cg)


def _three_regimes(**overrides):
    return example_model(
        m=3, generator=[[-1.0, 0.6, 0.4], [0.5, -1.5, 1.0], [0.3, 0.7, -1.0]],
        riskfree=[0.03, 0.02, 0.04], drift=[[0.08], [0.035], [0.05]],
        vol=[[[0.2]], [[0.35]], [[0.25]]], signal_levels=[0.0, 1.0, 0.4],
        **overrides)


def test_chain_summary_pins(pin_fields, monkeypatch):
    mdl, spec, fields = pin_fields
    fields.policy[:] = 24                       # u=2, pi=2 on every slice
    mid = int(fields.lat.index_of(10, np.array([1])))
    edge = int(fields.lat.index_of(19, np.array([2])))
    monkeypatch.setattr(MAX_BATCH, 1000)
    mc = simulate_chain(mdl, fields, mid, 3000, seed=31)
    assert mc.to_dict() == {
        "n_paths": 3000, "mean_XT": 1.9712,
        "var_XT": 0.02615722666666668, "objective": -0.4666427733333333,
        "se_mean": 0.0029528080797023635, "se_var": 0.0009004635051709925,
        "boundary_hits": 0.0}
    mc = simulate_chain(mdl, fields, edge, 2000, seed=32)
    assert mc.to_dict() == {
        "n_paths": 2000, "mean_XT": 3.7358999999999996,
        "var_XT": 0.02663118999999999, "objective": -0.9073438099999999,
        "se_mean": 0.003649053986994437, "se_var": 0.0011871367395408982,
        "boundary_hits": 0.151}


@pytest.mark.parametrize("m", [2, 3])
def test_chain_outcome_zero_is_the_stay(m):
    # the kernel closes each law's mass in outcome 0, the stay, so outcome
    # 0 must lead every node back to itself
    lat = build_grid(GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0,
                              n_steps=1), m)
    np.testing.assert_array_equal(lat.neighbors[:, 0],
                                  np.arange(lat.n_nodes))


def test_chain_high_motion_pin(monkeypatch):
    # h2 near the step-size limit of u=2, pi=2: the stay weight is 0.16 at
    # the start node and below one half at most nodes
    mdl = example_model(T=0.36)
    spec = GridSpec(h1=0.2, h2=0.036, x_min=0.0, x_max=4.0, n_steps=10)
    cg = ControlGrid.regular(d=1, u_max=2.0, du=0.5, pi_min=mdl.attention_min,
                             pi_max=mdl.attention_max, n_pi=5)
    fields = solve(mdl, spec, cg)
    fields.policy[:] = 24
    start = int(fields.lat.index_of(10, np.array([0])))
    stay = StencilCache(mdl, fields.lat, cg).batch(0.0).probs[24, 0]
    assert stay[start] < 0.2 and np.median(stay) < 0.5
    monkeypatch.setattr(MAX_BATCH, 1500)
    mc = simulate_chain(mdl, fields, start, 4000, seed=41)
    assert mc.to_dict() == {
        "n_paths": 4000, "mean_XT": 1.77,
        "var_XT": 0.17012, "objective": -0.27238,
        "se_mean": 0.006521502894272148, "se_var": 0.0037916996057177324,
        "boundary_hits": 0.0}


def test_chain_boundary_start_pin(pin_fields):
    # a start at x = x_min and phi = 1: every path has hit the boundary
    mdl, spec, fields = pin_fields
    fields.policy[:] = 24
    corner = int(fields.lat.index_of(0, np.array([5])))
    mc = simulate_chain(mdl, fields, corner, 2000, seed=43)
    assert mc.to_dict() == {
        "n_paths": 2000, "mean_XT": 0.0238,
        "var_XT": 0.0045135600000000015, "objective": -0.001436439999999999,
        "se_mean": 0.0015022583000269963, "se_var": 0.00028898226978968806,
        "boundary_hits": 1.0}


def test_sde_summary_pins(pin_fields, monkeypatch):
    mdl, spec, fields = pin_fields
    # a control that varies with the slice and the node
    fields.policy[:] = ((7 * np.arange(fields.lat.n_nodes))[None, :]
                        + np.arange(spec.n_steps)[:, None]) % 25
    monkeypatch.setattr(MAX_BATCH, 150)
    mc = simulate_sde(mdl, FeedbackPolicy(fields), 0.0, 2.0, np.array([0.2]),
                      400, seed=35, h2=spec.h2, x_bounds=(1.95, 2.05))
    assert mc.to_dict() == {
        "n_paths": 400, "mean_XT": 1.985062848495655,
        "var_XT": 0.006815061121431102, "objective": -0.48945065100248264,
        "se_mean": 0.00412766917322328, "se_var": 0.0004004165801730772,
        "boundary_hits": 0.9125}
    epochs = example_model(
        T=0.05, riskfree={"times": [0.0, 0.02],
                          "values": [[0.03, 0.03], [0.05, 0.01]]},
        drift={"times": [0.0, 0.031],
               "values": [[[0.08], [0.035]], [[0.02], [0.09]]]})
    mc = simulate_sde(epochs, ConstantPolicy([1.5], 0.5), 0.0, 1.0,
                      np.array([0.7]), 400, seed=14, h2=0.001,
                      x_bounds=(0.0, 4.0))
    assert mc.to_dict() == {
        "n_paths": 400, "mean_XT": 1.007794908631519,
        "var_XT": 0.0072638734991138775, "objective": -0.24468485365876588,
        "se_mean": 0.004261418044241223, "se_var": 0.0005227169324438831,
        "boundary_hits": 0.0}
    # re-recorded when the wealth step began to sum regimes in index order:
    # einsum added three regimes as (p0 + p2) + p1, which moved var_XT,
    # se_mean and se_var by one ulp
    monkeypatch.undo()
    mc = simulate_sde(_three_regimes(T=0.05), ConstantPolicy([1.0], 1.5), 0.0,
                      2.0, np.array([0.3, 0.5]), 300, seed=15, h2=0.001,
                      x_bounds=(0.0, 4.0))
    assert mc.to_dict() == {
        "n_paths": 300, "mean_XT": 1.9808189357160264,
        "var_XT": 0.0044414386876347545, "objective": -0.49076329524137186,
        "se_mean": 0.00384770004359087, "se_var": 0.000348511399946913,
        "boundary_hits": 0.0}


# Re-recorded when marginal_check began to sum all paths' final beliefs at
# once instead of adding per-batch sums (the m=2 case runs in 5 batches).
# target, max_dev and dev_over_3se re-recorded when the exponential became
# oracle._expm in place of scipy's expm: target moved by one ulp.
def test_marginal_report_pins(monkeypatch):
    mdl = example_model(generator=[[-0.7, 0.7], [1.3, -1.3]])
    monkeypatch.setattr(MAX_BATCH, 700)
    rep = marginal_check(mdl, np.array([0.6]), pi=0.5, t=0.1, n_paths=3000,
                         seed=6)
    assert rep.mean.tolist() == [0.6081625439987507, 0.3918374560012486]
    assert rep.se.tolist() == [0.0008598605457757053, 0.0008598605457753555]
    assert rep.target.tolist() == [0.609063462346101, 0.3909365376538991]
    assert (rep.max_dev, rep.dev_over_3se) == (0.000900918347350288,
                                               0.3492497908629061)
    rep = marginal_check(_three_regimes(T=0.05), np.array([0.3, 0.5]), pi=1.5,
                         t=0.05, n_paths=2000, seed=7, h2=0.001)
    assert rep.mean.tolist() == [0.3010813085250145, 0.4788340310662444,
                                 0.22008466040874022]
    assert rep.se.tolist() == [0.0010287045336132006, 0.0012266570671796606,
                               0.00020311389116942145]
    assert rep.target.tolist() == [0.30038265848607676, 0.47963929567587016,
                                   0.2199780458380532]
    assert (rep.max_dev, rep.dev_over_3se) == (0.0008052646096257665,
                                               0.22638506850418322)


# The chain's law against two references built here: a dense per-slice
# recursion over the (node, hit) chain, and a walk of the chain one slice
# at a time, every path compared with its node's stay weight.

def _per_step_chain(model, fields, start, n_paths, seed):
    """Terminal wealth and boundary hits of a walk of the chain, one slice
    at a time; path ``i`` draws ``default_rng([seed, i])``."""
    lat, N = fields.lat, fields.spec.n_steps
    cache = StencilCache(model, lat, fields.grid)
    uni = np.stack([np.random.default_rng([seed, i]).random(N)
                    for i in range(n_paths)])
    on_x_boundary = (lat.ix == 0) | (lat.ix == lat.n_x - 1)
    nodes = np.full(n_paths, start, dtype=np.int64)
    hit = on_x_boundary[nodes]
    for n in range(N):
        probs = cache.batch(fields.time_of(n)).probs
        sel = np.take_along_axis(probs, fields.policy[n][None, None, :],
                                 axis=0)[0]
        thr = np.cumsum(sel, axis=0)[:-1]
        u = uni[:, n]
        moving = np.flatnonzero(thr[0][nodes] < u)
        at, um = nodes[moving], u[moving]
        flat = at * lat.n_out + 1
        for row in thr[1:]:
            flat += row[at] < um
        to = lat.neighbors.ravel()[flat]
        nodes[moving] = to
        hit[moving] |= on_x_boundary[to]
    return lat.x[nodes], int(hit.sum())


def _dense_law(model, fields, start):
    """The law over the 2n states (node, hit) after the last slice, from a
    dense (2n, 2n) transition matrix per slice."""
    lat = fields.lat
    n = lat.n_nodes
    edge = (lat.ix == 0) | (lat.ix == lat.n_x - 1)
    cache = StencilCache(model, lat, fields.grid)
    law = np.zeros(2 * n)
    law[start + n * edge[start]] = 1.0
    rows = np.repeat(np.arange(n), lat.n_out)
    dest = lat.neighbors.ravel()
    for k in range(fields.spec.n_steps):
        probs = cache.batch(fields.time_of(k)).probs
        w = probs[fields.policy[k], :, np.arange(n)].ravel()  # (n * n_out,)
        P = np.zeros((2 * n, 2 * n))
        # clear -> clear, or -> hit on landing at an edge node; hit -> hit
        np.add.at(P, (rows, dest + n * edge[dest]), w)
        np.add.at(P, (rows + n, dest + n), w)
        law = law @ P
    return law[:n], law[n:]


def _mixed_policy(fields, controls):
    # one of ``controls`` that varies with the slice and the node
    n_nodes, N = fields.lat.n_nodes, fields.spec.n_steps
    pick = ((7 * np.arange(n_nodes))[None, :] + np.arange(N)[:, None])
    return np.asarray(controls)[pick % len(controls)]


def _force_policy(model, fields, policy):
    """Store ``policy`` in ``fields`` and propagate ``g`` backward under it."""
    fields.policy[:] = policy
    cache = StencilCache(model, fields.lat, fields.grid)
    nodes = np.arange(fields.lat.n_nodes)
    for n in reversed(range(fields.spec.n_steps)):
        probs = cache.batch(fields.time_of(n)).probs
        fields.g[n] = (probs[fields.policy[n], :, nodes]
                       * fields.g[n + 1][fields.lat.neighbors]).sum(axis=1)


def _solved(model, h2, n_steps, cg=None):
    spec = GridSpec(h1=0.2, h2=h2, x_min=0.0, x_max=4.0, n_steps=n_steps)
    if cg is None:
        cg = ControlGrid.regular(d=1, u_max=2.0, du=0.5,
                                 pi_min=model.attention_min,
                                 pi_max=model.attention_max, n_pi=5)
    return solve(model, spec, cg)


def _epoch_model():
    # breaks at slices 50, 100, 170 and 299, the last on the final slice
    return example_model(
        T=0.3, riskfree={"times": [0.0, 0.05, 0.17],
                         "values": [[0.03, 0.03], [0.05, 0.01],
                                    [0.02, 0.04]]},
        drift={"times": [0.0, 0.1, 0.299],
               "values": [[[0.08], [0.035]], [[0.02], [0.09]],
                          [[0.06], [0.05]]]})


def _law_cases():
    """(name, model, fields, start node, paths)."""
    out = []
    mdl = _epoch_model()
    assert len(mdl.time_breaks) == 5
    fields = _solved(mdl, 0.001, 300)
    _force_policy(mdl, fields, _mixed_policy(fields, range(25)))
    mid = int(fields.lat.index_of(10, np.array([1])))
    out.append(("epochs-300-slices", mdl, fields, mid, 300))
    mdl = example_model(T=0.05)
    fields = _solved(mdl, 0.001, 50)
    _force_policy(mdl, fields, _mixed_policy(fields, range(25)))
    out.append(("50-slices", mdl, fields, mid, 257))
    corner = int(fields.lat.index_of(0, np.array([5])))
    out.append(("wealth-boundary-start", mdl, fields, corner, 300))
    mdl = example_model(T=0.36)                 # test_chain_high_motion_pin
    fields = _solved(mdl, 0.036, 10)
    _force_policy(mdl, fields, 24)
    out.append(("high-motion", mdl, fields,
                int(fields.lat.index_of(10, np.array([0]))), 400))
    # informative signals: only the controls with pi = 0 (0, 3 and 6) have
    # a valid law at every node
    mdl = _three_regimes(T=0.05)
    fields = _solved(mdl, 0.001, 50, ControlGrid(
        u_levels=[[0.0], [1.0], [2.0]], pi_levels=[0.0, 0.5, 2.0]))
    assert StencilCache(mdl, fields.lat, fields.grid).batch(0.0).valid[
        [0, 3, 6]].all()
    _force_policy(mdl, fields, _mixed_policy(fields, [0, 3, 6]))
    out.append(("three-regimes", mdl, fields,
                int(fields.lat.index_of(10, np.array([1, 2]))), 300))
    return out


LAW_CASES = ["epochs-300-slices", "50-slices", "wealth-boundary-start",
             "high-motion", "three-regimes"]


@pytest.fixture(scope="module")
def law_cases():
    return {case[0]: case[1:] for case in _law_cases()}


@pytest.mark.parametrize("name", LAW_CASES)
def test_chain_law_matches_dense_recursion(law_cases, name):
    mdl, fields, start, _ = law_cases[name]
    lat = fields.lat
    clear, hit = _chain_law(fields, start,
                            StencilCache(mdl, lat, fields.grid))
    want_clear, want_hit = _dense_law(mdl, fields, start)
    np.testing.assert_allclose(clear, want_clear, rtol=0, atol=1e-13)
    np.testing.assert_allclose(hit, want_hit, rtol=0, atol=1e-13)
    assert abs((clear + hit).sum() - 1.0) <= 1e-13
    assert abs((clear + hit) @ lat.x - fields.g[0][start]) <= 1e-12
    edge = (lat.ix == 0) | (lat.ix == lat.n_x - 1)
    assert not clear[edge].any()
    if name == "wealth-boundary-start":
        assert not clear.any()
    else:
        assert clear.sum() > 0.5


@pytest.mark.parametrize("name", LAW_CASES)
def test_chain_law_matches_a_walk_of_the_chain(law_cases, name):
    # the walk's mean within 4 standard errors of the exact mean, and its
    # hit fraction within 4 binomial standard errors of the exact one
    mdl, fields, start, n_paths = law_cases[name]
    lat = fields.lat
    clear, hit = _chain_law(fields, start,
                            StencilCache(mdl, lat, fields.grid))
    law = clear + hit
    mean = law @ lat.x
    var = law @ (lat.x - mean) ** 2
    p_hit = hit.sum()
    x, hits = _per_step_chain(mdl, fields, start, n_paths, seed=19)
    assert var > 0.0
    assert abs(x.mean() - mean) <= 4.0 * math.sqrt(var / n_paths)
    assert abs(hits / n_paths - p_hit) <= 4.0 * math.sqrt(
        p_hit * (1.0 - p_hit) / n_paths) + 1e-12


@pytest.mark.parametrize("name", LAW_CASES)
def test_chain_samples_the_law_by_inverse_cdf(law_cases, tmp_path,
                                              monkeypatch, name):
    # path i ends at the inverse CDF of the (node, hit) law at the first
    # uniform of default_rng([seed, i]), in two or more batches of paths
    mdl, fields, start, n_paths = law_cases[name]
    lat = fields.lat
    law = np.concatenate(_chain_law(fields, start,
                                    StencilCache(mdl, lat, fields.grid)))
    cdf = np.cumsum(law)
    u = np.array([np.random.default_rng([19, i]).random()
                  for i in range(n_paths)])
    k = np.searchsorted(cdf, u * cdf[-1], side="right")
    x = lat.x[k % lat.n_nodes]
    want = tmp_path / "want.csv"
    write_terminal_csv(want, x)
    got = tmp_path / "got.csv"
    monkeypatch.setattr(MAX_BATCH, 150)
    mc = simulate_chain(mdl, fields, start, n_paths, seed=19, terminal_csv=got)
    assert mc == summarize(x, mdl, int((k >= lat.n_nodes).sum()) / n_paths)
    assert got.read_bytes() == want.read_bytes()


def test_chain_builds_each_epoch_once_in_time_order(law_cases, monkeypatch):
    # the forward pass reads the slices in time order through a cache that
    # holds one epoch, so it builds each epoch once and holds one at a time
    import attnmv.solver
    mdl, fields, start, _ = law_cases["epochs-300-slices"]
    built, held = [], []
    build = attnmv.solver.build_stencil_batch
    batch = StencilCache.batch

    def counted(*args, **kwargs):
        built.append(args[2])
        return build(*args, **kwargs)

    def holding(self, t):
        out = batch(self, t)
        held.append(len(self.batches))
        return out
    monkeypatch.setattr(attnmv.solver, "build_stencil_batch", counted)
    monkeypatch.setattr(StencilCache, "batch", holding)
    simulate_chain(mdl, fields, start, 10, seed=1)
    assert built == mdl.time_breaks.tolist()
    assert len(held) == fields.spec.n_steps and max(held) == 1
    # a lent cache that holds the first epoch saves its build
    cache = StencilCache(mdl, fields.lat, fields.grid)
    cache.batch(0.0)
    built.clear()
    simulate_chain(mdl, fields, start, 10, seed=1, cache=cache)
    assert built == mdl.time_breaks.tolist()[1:]


def _chain_peak(n_steps):
    """Peak traced bytes of a 300-path chain run over ``n_steps`` slices,
    in this process, with the solve's cache lent, and the bytes of the
    (slices, n_out - 1, n_nodes) float64 threshold table that the chain
    once built for the whole horizon."""
    mdl = example_model(T=n_steps * 1e-3)
    spec = GridSpec(h1=0.2, h2=1e-3, x_min=0.0, x_max=4.0, n_steps=n_steps)
    cg = ControlGrid.regular(d=1, u_max=2.0, du=0.5,
                             pi_min=mdl.attention_min,
                             pi_max=mdl.attention_max, n_pi=5)
    cache = StencilCache(mdl, build_grid(spec, mdl.m), cg)
    fields = solve(mdl, spec, cg, cache=cache)
    lat = fields.lat
    start = int(lat.index_of(10, np.array([1])))
    tracemalloc.start()
    try:
        simulate_chain(mdl, fields, start, 300, seed=1, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, n_steps * (lat.n_out - 1) * lat.n_nodes * 8


def test_chain_memory_stays_below_the_slice_table():
    # The pass holds two law vectors and one slice's selected rows, and the
    # sampler one uniform per path, whatever the number of slices: 61 KB
    # measured at N = 250 and at N = 2000, where the slice table takes
    # 8.1 MB.  The block walk it replaced held each path's N uniforms,
    # 4.8 MB at N = 2000, and grew with N.
    pinned = hasattr(os, "sched_getaffinity")
    if pinned:                  # one batch, sampled in this process
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(mask)})
    try:
        (short, _), (long, table) = _chain_peak(250), _chain_peak(2000)
    finally:
        if pinned:
            os.sched_setaffinity(0, mask)
    assert long <= 1.1 * short, (short, long)
    assert long < table / 16, (long, table)
