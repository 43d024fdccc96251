"""Set-up, one iteration and the output checks of each workload.

A workload drives the package only through the public calls its CLI
subcommands and acceptance suite make.  Every call goes through a
``tracing.Calls`` object, which times it; the output checks and the
determinism digest run between calls, outside the timed region.

The checks hold under any correct backward recursion: they pin no value
of ``V`` or ``g``, only identities the solved fields must satisfy and
Monte-Carlo agreement within a band a correct program leaves with
probability below 1e-4 per check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from attnmv.cli import RunConfig, load_config
from attnmv.errors import ConfigError, DomainError, SchemeError
from attnmv.kernel import build_stencil_batch, consistency_sweep
from attnmv.lattice import Lattice, build_grid
from attnmv.market import validate_model
from attnmv.oracle import (FeedbackPolicy, marginal_check, simulate_chain,
                           simulate_sde)
from attnmv.solver import (ControlGrid, StencilCache, g_residuals, solve,
                           spike_margins)

import inputs

# errors a workload call may raise on bad output; each counts as a failed check
CALL_ERRORS = (SchemeError, DomainError, ConfigError)

G_RESIDUAL_TOL = 1e-12
SPIKE_TOL = -1e-12
MASS_TOL = 1e-10
MEAN_DEV_TOL = 1e-12
SECOND_DEV_FACTOR = 5.0          # second-moment deviation <= 5 h1 h2
# two-sided normal tail beyond 4 standard errors is 6.3e-5 < 1e-4
MC_Z_MAX = 4.0


@dataclass
class Setup:
    """What set-up hands to the timed iterations."""

    workload: str
    cfg: RunConfig
    lat: Lattice
    grid: ControlGrid
    load_config_s: float


def set_up(workload: str, config_path) -> Setup:
    """Config load and validation, lattice and control-grid construction."""
    t0 = perf_counter()
    cfg = load_config(config_path)
    load_config_s = perf_counter() - t0
    bad = validate_model(cfg.model)
    if bad:
        raise ConfigError("invalid model: " + "; ".join(bad))
    spec = cfg.grid_spec()
    spec.check_horizon(cfg.model.T)
    lat = build_grid(spec, cfg.model.m)
    return Setup(workload, cfg, lat, cfg.control_grid(), load_config_s)


@dataclass
class Checks:
    """Output checks attempted and failed, with their measured values."""

    attempted: int = 0
    failed: int = 0
    entries: list = field(default_factory=list)

    def record(self, name: str, ok: bool, **values) -> None:
        self.attempted += 1
        self.failed += not ok
        self.entries.append({"check": name, "ok": bool(ok), **values})


def finite_and_in_grid(fields) -> bool:
    """``V`` and ``g`` finite, policy indices inside the control grid."""
    pol = fields.policy
    return bool(np.isfinite(fields.V).all() and np.isfinite(fields.g).all()
                and pol.min() >= 0 and pol.max() < fields.grid.n_controls)


def check_fields(checks: Checks, model, fields, label: str) -> None:
    """Identities every solved field must satisfy, on every slice."""
    checks.record(f"{label}.finite_and_in_grid", finite_and_in_grid(fields))
    cache = StencilCache(model, fields.lat, fields.grid)
    n_steps = fields.spec.n_steps
    worst_g = max(float(g_residuals(model, fields, n, cache).max())
                  for n in range(n_steps))
    checks.record(f"{label}.g_residuals", worst_g <= G_RESIDUAL_TOL,
                  max=worst_g)
    worst_m = min(float(spike_margins(model, fields, n, cache=cache).min())
                  for n in range(n_steps))
    checks.record(f"{label}.spike_margins", worst_m >= SPIKE_TOL, min=worst_m)


class Digest:
    """SHA-256 over the outputs of one iteration, in call order."""

    def __init__(self):
        self.h = hashlib.sha256()

    def arrays(self, *arrays) -> None:
        for a in arrays:
            a = np.ascontiguousarray(a)
            self.h.update(f"{a.dtype.str}{a.shape}".encode())
            self.h.update(a.tobytes())

    def fields(self, fields) -> None:
        self.arrays(fields.V, fields.g, fields.policy)

    def obj(self, value) -> None:
        self.h.update(json.dumps(value, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def _mc_verify(s: Setup, calls, checks: Checks | None, digest: Digest) -> None:
    cfg = s.cfg
    model, spec = cfg.model, cfg.grid_spec()
    fields = calls("solver.solve", solve, model, spec, s.grid)
    digest.fields(fields)
    if checks is not None:
        check_fields(checks, model, fields, "solve")
    start = cfg.eval_node(fields.lat)
    x0, phi0 = float(fields.lat.x[start]), fields.lat.phi[start]

    chain = calls("oracle.simulate_chain", simulate_chain, model, fields,
                  start, inputs.CHAIN_PATHS, cfg.seed)
    calls.count("oracle.path_steps", inputs.CHAIN_PATHS * spec.n_steps)
    digest.obj(chain.to_dict())
    if checks is not None:
        g0 = float(fields.g[0][start])
        z = abs(chain.mean_XT - g0) / chain.se_mean if chain.se_mean else (
            0.0 if chain.mean_XT == g0 else math.inf)
        checks.record("chain_mean_vs_g", z <= MC_Z_MAX, z=z, g0=g0,
                      mean=chain.mean_XT, se=chain.se_mean)

    policy = calls.wrap("oracle.sde_policy", FeedbackPolicy(fields))
    sde = calls("oracle.simulate_sde", simulate_sde, model, policy, 0.0, x0,
                phi0, inputs.SDE_PATHS, cfg.seed + 1, h2=spec.h2,
                x_bounds=(spec.x_min, spec.x_max))
    calls.count("oracle.path_steps", inputs.SDE_PATHS * spec.n_steps)
    digest.obj(sde.to_dict())
    if checks is not None:
        checks.record("sde_summary_finite",
                      all(math.isfinite(v) for v in sde.to_dict().values()))

    rep = calls("oracle.marginal_check", marginal_check, model,
                np.asarray(cfg.eval_phi), model.attention_max,
                inputs.MARGINAL_T, inputs.MARGINAL_PATHS, cfg.seed + 2,
                h2=spec.h2)
    calls.count("oracle.path_steps", inputs.MARGINAL_PATHS
                * round(inputs.MARGINAL_T / spec.h2))
    digest.arrays(rep.mean, rep.target, rep.se)
    if checks is not None:
        z = 3.0 * rep.dev_over_3se
        checks.record("marginal_vs_expm", z <= MC_Z_MAX, z=z,
                      max_dev=rep.max_dev)


def _sweep_fine(s: Setup, calls, checks: Checks | None, digest: Digest) -> None:
    cfg = s.cfg
    spec = cfg.grid_spec()
    for k in cfg.sweep_k:
        model = cfg.model.with_cost(k)
        fields = calls("solver.solve", solve, model, spec, s.grid)
        digest.fields(fields)
        if checks is not None:
            check_fields(checks, model, fields, f"solve_k{k}")
        del fields


def _epochs_daily(s: Setup, calls, checks: Checks | None,
                  digest: Digest) -> None:
    """The check pipeline without Monte-Carlo, as ``attnmv check`` runs it."""
    cfg = s.cfg
    model, spec = cfg.model, cfg.grid_spec()
    u_arr, pi_arr = s.grid.enumerate()
    fields = calls("solver.solve", solve, model, spec, s.grid)
    digest.fields(fields)
    lat = fields.lat

    mass_err, worst_mean, worst_second = 0.0, 0.0, 0.0
    for t_epoch in model.time_breaks:
        batch = calls("kernel.build_stencil_batch", build_stencil_batch,
                      model, lat, float(t_epoch), u_arr, pi_arr, strict=True)
        mass_err = max(mass_err,
                       float(np.abs(batch.probs.sum(axis=1) - 1.0).max()))
        cons = calls("kernel.consistency_sweep", consistency_sweep, model,
                     lat, float(t_epoch), u_arr, pi_arr)
        worst_mean = max(worst_mean, cons.mean_dev)
        worst_second = max(worst_second, cons.second_dev)

    cache = StencilCache(model, lat, s.grid)
    worst_g = max(float(calls("solver.g_residuals", g_residuals, model,
                              fields, n, cache).max())
                  for n in range(spec.n_steps))
    worst_m = min(float(calls("solver.spike_margins", spike_margins, model,
                              fields, n, cache=cache).min())
                  for n in range(spec.n_steps))
    digest.obj([mass_err, worst_mean, worst_second, worst_g, worst_m])
    if checks is not None:
        checks.record("solve.finite_and_in_grid", finite_and_in_grid(fields))
        checks.record("solve.g_residuals", worst_g <= G_RESIDUAL_TOL,
                      max=worst_g)
        checks.record("solve.spike_margins", worst_m >= SPIKE_TOL, min=worst_m)
        checks.record("stencil_mass", mass_err <= MASS_TOL, max=mass_err)
        second_tol = SECOND_DEV_FACTOR * spec.h1 * spec.h2
        checks.record("local_consistency",
                      worst_mean <= MEAN_DEV_TOL and worst_second <= second_tol,
                      mean_dev=worst_mean, second_dev=worst_second,
                      second_tol=second_tol)


ITERATIONS = {
    "mc-verify": _mc_verify,
    "sweep-fine": _sweep_fine,
    "epochs-daily": _epochs_daily,
}


def iterate(s: Setup, calls, checks: Checks | None = None) -> str:
    """Run one iteration; return its determinism digest.

    The output checks run only when ``checks`` is given.
    """
    digest = Digest()
    ITERATIONS[s.workload](s, calls, checks, digest)
    return digest.hexdigest()
