"""Batch driver: solve, cost sweeps, property checks, grid refinement.

Artifacts are CSV (gridded data, row order = lattice enumeration order)
and JSON (manifests, reports), both reproducible bit-for-bit from the
configuration and seed.  Wall-clock timings go to stderr and a plain-text
sidecar so the CSV/JSON artifacts stay deterministic.

Exit codes: 0 success, 2 configuration error, 3 scheme (step-size) error,
4 property-suite failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (EXIT_CONFIG, EXIT_OK, EXIT_PROPERTY, EXIT_SCHEME,
                     ConfigError, DomainError, SchemeError)
from .kernel import build_stencil_batch, consistency_sweep
from .lattice import GridSpec, build_grid
from .market import (CONVENTIONS, RegimeModel, as_int, compose_objective,
                     example_model, validate_model)
from .oracle import _step_count, marginal_check, simulate_chain
from .solver import (ControlGrid, SolutionFields, StencilCache, g_residuals,
                     ratio_policy, solve, spike_margins)

log = logging.getLogger("attnmv")

DEFAULT_GRID = {"h1": 0.2, "h2": 0.001, "x_min": 0.0, "x_max": 4.0}
DEFAULT_CONTROLS = {"u_max": 2.0, "du": 0.5, "n_pi": 5}
DEFAULT_ORACLE = {"n_paths": 100_000, "seed": 20240901}
DEFAULT_EVAL = {"t": 1.0, "x": 2.0, "phi": [0.2]}
# defaults of the top-level keys
DEFAULT_RUN = {"sweep_k": [0.1, 0.3, 0.5],
               "ladder": [[0.4, 0.004], [0.2, 0.001], [0.1, 0.00025]],
               "slice_times": [0.0, 1.0],
               "refine_tol": 1e-2, "output_dir": "out"}


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults applied, flags merged)."""

    model: RegimeModel
    h1: float
    h2: float
    x_min: float
    x_max: float
    u_max: float
    du: float
    n_pi: int
    n_paths: int
    seed: int
    eval_t: float
    eval_x: float
    eval_phi: list[float]
    sweep_k: list[float]
    ladder: list[tuple[float, float]]
    slice_times: list[float]
    refine_tol: float
    output_dir: Path
    # separate evaluation point for refinement ladders whose coarse rungs
    # need not contain the main evaluation point
    refine_t: float | None = None
    refine_x: float | None = None
    refine_phi: list[float] | None = None
    debug_stencils: bool = False
    policy_override: Path | None = None
    dump_terminal: bool = False

    # -- derived objects -----------------------------------------------------

    def grid_spec(self, h1: float | None = None, h2: float | None = None) -> GridSpec:
        """The grid with steps ``h1``, ``h2`` (default: the configured ones).

        Its ``n_steps`` steps of ``h2`` must end at the horizon ``T``.
        """
        h1 = self.h1 if h1 is None else h1
        h2 = self.h2 if h2 is None else h2
        if not (math.isfinite(h2) and h2 > 0):
            raise ConfigError(f"h2 must be finite and > 0, got {h2}")
        n_steps = int(round(self.model.T / h2))
        spec = GridSpec(h1=h1, h2=h2, x_min=self.x_min, x_max=self.x_max,
                        n_steps=n_steps)
        spec.check_horizon(self.model.T)
        return spec

    def control_grid(self) -> ControlGrid:
        return ControlGrid.regular(
            d=self.model.d, u_max=self.u_max, du=self.du,
            pi_min=self.model.attention_min, pi_max=self.model.attention_max,
            n_pi=self.n_pi)

    def eval_node(self, lat, *, refine: bool = False) -> int:
        """Node at the evaluation point, which must be a lattice node."""
        x = self.refine_x if refine and self.refine_x is not None else self.eval_x
        phi = self.refine_phi if refine and self.refine_phi is not None else self.eval_phi
        if len(phi) != lat.m - 1:
            raise ConfigError(f"evaluation phi={phi} not on the grid: it needs "
                              f"{lat.m - 1} coordinates")
        with np.errstate(invalid="ignore"):     # a non-finite point fails below
            node = int(lat.nearest_node(x, phi)[0])
        if not math.isclose(lat.x[node], x, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigError(f"evaluation x={x} not on the grid")
        if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                   for a, b in zip(lat.phi[node], phi)):
            raise ConfigError(f"evaluation phi={phi} not on the grid")
        return node

    def eval_slice(self, spec: GridSpec, *, refine: bool = False) -> int:
        t = self.refine_t if refine and self.refine_t is not None else self.eval_t
        return _slice_of(spec, t, f"evaluation t={t}")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "grid": {"h1": self.h1, "h2": self.h2,
                     "x_min": self.x_min, "x_max": self.x_max,
                     "n_steps": int(round(self.model.T / self.h2))},
            "controls": {"u_max": self.u_max, "du": self.du, "n_pi": self.n_pi},
            "oracle": {"n_paths": self.n_paths, "seed": self.seed},
            "eval": {"t": self.eval_t, "x": self.eval_x, "phi": self.eval_phi},
            "refine_eval": {"t": self.refine_t, "x": self.refine_x,
                            "phi": self.refine_phi},
            "sweep_k": self.sweep_k,
            "ladder": [list(r) for r in self.ladder],
            "slice_times": self.slice_times,
            "refine_tol": self.refine_tol,
            "output_dir": str(self.output_dir),
            "version": __version__,
        }


def _slice_of(spec: GridSpec, t: float, what: str) -> int:
    """Index of the time slice at ``t``; ``what`` names ``t`` if it is off-grid."""
    if not math.isfinite(t):
        raise ConfigError(f"{what} not on the time grid")
    n = round(t / spec.h2)
    if not math.isclose(n * spec.h2, t, rel_tol=1e-9, abs_tol=1e-12) \
            or not 0 <= n <= spec.n_steps:
        raise ConfigError(f"{what} not on the time grid")
    return int(n)


def _eval_point(cfg: RunConfig, spec: GridSpec, *, refine: bool = False):
    """Lattice on ``spec`` with the evaluation node and slice found on it.

    Called before any solve, so an off-grid point costs no solve.
    """
    lat = build_grid(spec, cfg.model.m)
    return (lat, cfg.eval_node(lat, refine=refine),
            cfg.eval_slice(spec, refine=refine))


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as err:
        raise ConfigError(f"--{flag}: bad number list {text!r}; expected "
                          "comma-separated numbers") from err


def _parse_ladder(text: str) -> list[tuple[float, float]]:
    rungs = []
    for part in text.split(","):
        if not part:
            continue
        try:
            a, b = part.split(":")
            rungs.append((float(a), float(b)))
        except ValueError as err:
            raise ConfigError(f"bad ladder entry {part!r}; expected h1:h2") from err
    if not rungs:
        raise ConfigError("empty refinement ladder")
    return rungs


# (command-line flag, RunConfig field, argparse options, converter); a flag
# left unset keeps the configured value
_FLAGS = (
    ("output_dir", "output_dir", {"type": str}, Path),
    ("seed", "seed", {"type": int}, lambda v: as_int(v, "seed")),
    ("h1", "h1", {"type": float}, float), ("h2", "h2", {"type": float}, float),
    ("paths", "n_paths", {"type": int}, lambda v: as_int(v, "paths")),
    ("slice_times", "slice_times", {"type": str},
     lambda v: _floats(v, "slice-times")),
    ("sweep_k", "sweep_k", {"type": str}, lambda v: _floats(v, "sweep-k")),
    ("ladder", "ladder", {"type": str}, _parse_ladder),
    ("debug_stencils", "debug_stencils", {"action": "store_true"}, bool),
    ("policy_override", "policy_override", {"type": str}, Path),
    ("dump_terminal", "dump_terminal", {"action": "store_true"}, bool),
)


def _run_config(raw: dict, convention: str | None) -> RunConfig:
    """The configuration in the parsed file ``raw``, defaults filled in."""
    model = RegimeModel.from_dict(raw["model"]) if "model" in raw \
        else example_model()
    if convention is not None:
        model = replace(model, objective_convention=convention)
    bad = validate_model(model)
    if bad:
        raise ConfigError("invalid model: " + "; ".join(bad))

    grid = {**DEFAULT_GRID, **raw.get("grid", {})}
    controls = {**DEFAULT_CONTROLS, **raw.get("controls", {})}
    oracle = {**DEFAULT_ORACLE, **raw.get("oracle", {})}
    ev = {**DEFAULT_EVAL, **raw.get("eval", {})}
    top = {**DEFAULT_RUN, **raw}
    grid.pop("n_steps", None)   # derived from T and h2

    cfg = RunConfig(
        model=model,
        h1=float(grid["h1"]), h2=float(grid["h2"]),
        x_min=float(grid["x_min"]), x_max=float(grid["x_max"]),
        u_max=float(controls["u_max"]), du=float(controls["du"]),
        n_pi=as_int(controls["n_pi"], "controls.n_pi"),
        n_paths=as_int(oracle["n_paths"], "oracle.n_paths"),
        seed=as_int(oracle["seed"], "oracle.seed"),
        eval_t=float(ev["t"]), eval_x=float(ev["x"]),
        eval_phi=[float(v) for v in ev["phi"]],
        sweep_k=[float(k) for k in top["sweep_k"]],
        ladder=[tuple(map(float, r)) for r in top["ladder"]],
        slice_times=[float(t) for t in top["slice_times"]],
        refine_tol=float(top["refine_tol"]),
        output_dir=Path(top["output_dir"]),
    )
    rev = raw.get("refine_eval")
    if rev:
        cfg.refine_t = None if rev.get("t") is None else float(rev["t"])
        cfg.refine_x = None if rev.get("x") is None else float(rev["x"])
        cfg.refine_phi = (None if rev.get("phi") is None
                          else [float(v) for v in rev["phi"]])
    return cfg


def load_config(path: str | Path | None, overrides: argparse.Namespace | None = None,
                ) -> RunConfig:
    """Merge file config (if any), built-in defaults and CLI flags.

    A file that is not a JSON object, or an entry of the wrong type or
    a missing key, is a ConfigError naming the file.
    """
    raw: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {p} does not exist")
        try:
            with open(p) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as err:
            raise ConfigError(f"config file {p}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {p} must hold a JSON object, "
                              f"not a {type(raw).__name__}")
    # the flag, else the top-level key, overrides model.objective_convention
    convention = getattr(overrides, "convention", None) or raw.get("convention")
    try:
        cfg = _run_config(raw, convention)
    except ConfigError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError) as err:
        detail = f"missing key {err}" if isinstance(err, KeyError) else err
        raise ConfigError(f"config file {path}: {detail}") from err

    for flag, name, _, convert in _FLAGS:
        value = getattr(overrides, flag, None)
        if value is not None and value is not False:
            setattr(cfg, name, convert(value))
    # the oracles' own checks, made before any subcommand builds or solves
    if cfg.n_paths < 2:
        raise ConfigError(f"need n_paths >= 2, got {cfg.n_paths}")
    if cfg.seed < 0:
        raise ConfigError(
            f"seed must be a non-negative integer, got {cfg.seed!r}")
    return cfg


# ---------------------------------------------------------------------------
# deterministic artifact writers


def _fmt(v) -> str:
    f = float(v)
    if math.isnan(f):
        return "nan"
    return repr(f)


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    n = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def write_json(path: Path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _slice_table(fields: SolutionFields, n: int):
    """Header and columns of one solution slice in lattice order."""
    lat = fields.lat
    mm = lat.m - 1
    d = fields.grid.u_levels.shape[1]
    header = ["ix"] + [f"iphi{i + 1}" for i in range(mm)] + \
             ["x"] + [f"phi{i + 1}" for i in range(mm)] + ["V", "g"] + \
             [f"u{l + 1}" for l in range(d)] + ["pi"] + \
             [f"w{l + 1}" for l in range(d)]
    cols = [lat.ix.astype(float)] + [lat.iphi[:, i].astype(float) for i in range(mm)]
    cols += [lat.x] + [lat.phi[:, i] for i in range(mm)]
    cols += [fields.V[n], fields.g[n]]
    u, pi, w = fields.policy_u(n), fields.policy_pi(n), ratio_policy(fields, n)
    cols += [u[:, l] for l in range(d)] + [pi] + [w[:, l] for l in range(d)]
    return header, cols


def _dump_stencils(cfg: RunConfig, fields: SolutionFields, outdir: Path) -> None:
    lat = fields.lat
    u_arr, pi_arr = fields.grid.enumerate()
    batch = build_stencil_batch(cfg.model, lat, 0.0, u_arr, pi_arr)
    n_c = len(pi_arr)
    rows = n_c * lat.n_nodes
    node = np.tile(np.arange(lat.n_nodes), n_c).astype(float)
    ctrl = np.repeat(np.arange(n_c), lat.n_nodes).astype(float)
    header = ["control", "node", "pi"] + [f"p{o}" for o in range(lat.n_out)]
    cols = [ctrl, node, np.repeat(pi_arr, lat.n_nodes)]
    for o in range(lat.n_out):
        cols.append(batch.probs[:, o, :].reshape(rows))
    write_csv(outdir / "stencils_t0.csv", header, cols)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(cfg: RunConfig) -> int:
    outdir = cfg.output_dir
    model = cfg.model
    spec = cfg.grid_spec()
    grid = cfg.control_grid()
    lat, node, n_eval = _eval_point(cfg, spec)
    slices = [_slice_of(spec, t, f"slice time {t}") for t in cfg.slice_times]
    fields = solve(model, spec, grid, progress=True,
                   cache=StencilCache(model, lat, grid))

    artifacts = []
    for t, n in zip(cfg.slice_times, slices):
        header, cols = _slice_table(fields, n)
        name = f"slice_t{_fmt(t)}.csv"
        write_csv(outdir / name, header, cols)
        artifacts.append(name)
    if cfg.debug_stencils:
        _dump_stencils(cfg, fields, outdir)
        artifacts.append("stencils_t0.csv")

    manifest = {
        "config": cfg.to_dict(),
        "derived": {
            "n_nodes": lat.n_nodes,
            "n_controls": grid.n_controls,
            "cfl_max_nonstay_mass": fields.cfl_max_mass,
            "cfl_margin": 1.0 - fields.cfl_max_mass,
            "stay_mass_residual": fields.stay_residual,
            "masked_pairs": fields.masked_pairs,
            "boundary_clamped_mass_max": float(fields.clamped_mass.max()),
            "boundary_clamped_mass_mean": float(fields.clamped_mass.mean()),
            "V_eval": float(fields.V[n_eval][node]),
            "g_eval": float(fields.g[n_eval][node]),
            "V0_eval_state": float(fields.V[0][node]),
        },
        "artifacts": artifacts,
    }
    write_json(outdir / "manifest.json", manifest)
    return EXIT_OK


def cmd_sweep_k(cfg: RunConfig) -> int:
    if not cfg.sweep_k:
        raise ConfigError("sweep_k list is empty")
    outdir = cfg.output_dir
    spec = cfg.grid_spec()
    grid = cfg.control_grid()
    lat, node, n_eval = _eval_point(cfg, spec)
    # fixed belief, all x; every k solves on this lattice
    sel = lat.index_of(np.arange(lat.n_x), lat.iphi[node])
    models = [cfg.model.with_cost(k) for k in cfg.sweep_k]
    for k, model in zip(cfg.sweep_k, models):
        bad = validate_model(model)
        if bad:
            raise ConfigError(f"invalid model at k={k}: " + "; ".join(bad))

    v_cols, w_cols, pi_cols, surf_cols = [], [], [], []
    for model in models:
        fields = solve(model, spec, grid, cache=StencilCache(model, lat, grid))
        v_cols.append(fields.V[n_eval][sel])
        w = ratio_policy(fields, n_eval)
        w_cols.append(w[sel, 0] if model.d == 1 else
                      np.linalg.norm(w[sel], axis=1))
        pi_cols.append(fields.policy_pi(n_eval)[sel])
        surf_cols.append(fields.V[n_eval])

    x_col = lat.x[sel]
    tags = [f"k{_fmt(k)}" for k in cfg.sweep_k]
    write_csv(outdir / "fig1_value.csv", ["x"] + [f"V_{t}" for t in tags],
              [x_col] + v_cols)
    write_csv(outdir / "fig2_ratio.csv", ["x"] + [f"w_{t}" for t in tags],
              [x_col] + w_cols)
    write_csv(outdir / "fig3_attention.csv", ["x"] + [f"pi_{t}" for t in tags],
              [x_col] + pi_cols)
    mm = cfg.model.m - 1
    surf_header = ["x"] + [f"phi{i + 1}" for i in range(mm)] + \
                  [f"V_{t}" for t in tags]
    write_csv(outdir / "fig4_surface.csv", surf_header,
              [lat.x] + [lat.phi[:, i] for i in range(mm)] + surf_cols)
    manifest = {"config": cfg.to_dict(),
                "artifacts": ["fig1_value.csv", "fig2_ratio.csv",
                              "fig3_attention.csv", "fig4_surface.csv"]}
    write_json(outdir / "sweep_manifest.json", manifest)
    return EXIT_OK


def _policy_overrides(path: Path, n_steps: int, n_nodes: int,
                      n_controls: int) -> list[tuple[int, int, int]]:
    """The ``[n, node, control]`` entries of a policy-override file.

    The file must be an object whose ``overrides`` is a list of integer
    triples with ``0 <= n < n_steps``, ``0 <= node < n_nodes`` and
    ``0 <= control < n_controls``; anything else is a ConfigError.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        raise ConfigError(f"policy override {path}: {err}") from err
    entries = data.get("overrides") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ConfigError(f"policy override {path} must be an object whose "
                          "'overrides' is a list of [n, node, control]")
    limits = (n_steps, n_nodes, n_controls)
    out = []
    for entry in entries:
        # an integral float counts, a bool or a fraction does not
        if not (isinstance(entry, list) and len(entry) == 3 and all(
                type(v) in (int, float) and 0 <= v < lim
                and float(v).is_integer() for v, lim in zip(entry, limits))):
            raise ConfigError(
                f"policy override entry {entry!r} is not [n, node, control] "
                f"with 0 <= n < {n_steps}, 0 <= node < {n_nodes} and "
                f"0 <= control < {n_controls}")
        out.append(tuple(int(v) for v in entry))
    return out


def cmd_check(cfg: RunConfig) -> int:
    outdir = cfg.output_dir
    model = cfg.model
    spec = cfg.grid_spec()
    grid = cfg.control_grid()
    report: dict[str, dict] = {}

    def record(name, passed, **metrics):
        report[name] = {"pass": bool(passed), **metrics}
        log.info("check %-20s %s", name, "PASS" if passed else "FAIL")

    # a filter-marginal time that h2 does not divide fails before any
    # build, though only the last check uses it
    t_marg = min(0.5, model.T)
    _step_count(t_marg, spec.h2, "t")
    cache = StencilCache(model, build_grid(spec, model.m), grid)
    lat, u_arr, pi_arr = cache.lat, cache.u_arr, cache.pi_arr
    start = cfg.eval_node(lat)
    overrides = [] if cfg.policy_override is None else _policy_overrides(
        cfg.policy_override, spec.n_steps, lat.n_nodes, grid.n_controls)

    # one strict stencil batch and moment sweep per coefficient epoch, each
    # dropped after its checks; a batch that passes the strict build equals
    # the masked one that the solve's cache builds
    mass_err, max_mass = 0.0, 0.0
    worst_mean, worst_second = 0.0, 0.0
    for t_epoch in model.time_breaks:
        batch = build_stencil_batch(model, lat, float(t_epoch), u_arr, pi_arr,
                                    strict=True)
        mass_err = max(mass_err,
                       float(np.abs(batch.probs.sum(axis=1) - 1.0).max()))
        max_mass = max(max_mass, batch.max_mass)
        cons = consistency_sweep(model, lat, float(t_epoch), u_arr, pi_arr)
        worst_mean = max(worst_mean, cons.mean_dev)
        worst_second = max(worst_second, cons.second_dev)
    record("stencil_validity", mass_err <= 1e-10,
           mass_error=mass_err, max_nonstay_mass=max_mass)
    record("local_consistency",
           worst_mean <= 1e-12 and worst_second <= 5.0 * spec.h1 * spec.h2,
           mean_dev=worst_mean, second_dev=worst_second,
           second_dev_over_h1h2=worst_second / (spec.h1 * spec.h2))

    fields = solve(model, spec, grid, cache=cache)
    for n, node, ctrl in overrides:
        fields.policy[n, node] = ctrl

    V_T = compose_objective(lat.x, 0.0, model.risk_aversion,
                            model.objective_convention)
    term_ok = np.array_equal(fields.V[-1], V_T) and \
        np.array_equal(fields.g[-1], lat.x)
    # both checks in one pass over the slices, which builds each epoch once
    residuals, margins = [], []
    for n in range(spec.n_steps):
        residuals.append(float(g_residuals(model, fields, n, cache).max()))
        margins.append(float(spike_margins(model, fields, n, cache).min()))
    worst_g, worst_margin = max(residuals), min(margins)
    record("terminal_and_propagation", term_ok and worst_g <= 1e-12,
           terminal_exact=term_ok, g_residual_max=worst_g)
    record("spike_margins", worst_margin >= -1e-12, min_margin=worst_margin)

    terminal = outdir / "terminal_wealth.csv" if cfg.dump_terminal else None
    mc = simulate_chain(model, fields, start, cfg.n_paths, cfg.seed,
                        terminal_csv=terminal, cache=cache)
    g0 = float(fields.g[0][start])
    dev = abs(mc.mean_XT - g0)
    record("g_consistency_mc", dev <= 3.0 * mc.se_mean,
           g0=g0, chain_mean=mc.mean_XT, se_mean=mc.se_mean,
           boundary_hits=mc.boundary_hits)

    rep = marginal_check(model, np.asarray(cfg.eval_phi), model.attention_max,
                         t_marg, cfg.n_paths, cfg.seed + 1, h2=spec.h2)
    record("filter_marginal", rep.ok(), t=rep.t, max_dev=rep.max_dev,
           dev_over_3se=rep.dev_over_3se)

    write_json(outdir / "check_report.json",
               {"config": cfg.to_dict(), "properties": report})
    failures = [k for k, v in report.items() if not v["pass"]]
    if failures:
        print("failed properties: " + ", ".join(failures), file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_refine(cfg: RunConfig) -> int:
    if not cfg.ladder:
        raise ConfigError("refinement ladder is empty")
    outdir = cfg.output_dir
    model = cfg.model
    grid = cfg.control_grid()

    # the main grid, which the manifest records, and every rung's grid
    # and evaluation point are checked before the first solve
    cfg.grid_spec()
    rungs = [_eval_point(cfg, cfg.grid_spec(h1=h1, h2=h2), refine=True)
             for h1, h2 in cfg.ladder]
    values, diffs, bhits = [], [], []
    for (h1, h2), (lat, node, n_eval) in zip(cfg.ladder, rungs):
        cache = StencilCache(model, lat, grid)
        fields = solve(model, lat.spec, grid, cache=cache)
        values.append(float(fields.V[n_eval][node]))
        mc = simulate_chain(model, fields, node, min(cfg.n_paths, 20_000),
                            cfg.seed, cache=cache)
        bhits.append(mc.boundary_hits)
        diffs.append(float("nan") if len(values) < 2
                     else abs(values[-1] - values[-2]))
        log.info("rung (h1=%g, h2=%g): V=%.6g", h1, h2, values[-1])

    finite = [d for d in diffs if not math.isnan(d)]
    cauchy = bool(finite and finite[-1] < cfg.refine_tol)
    write_csv(outdir / "refine.csv",
              ["h1", "h2", "V_eval", "diff_prev", "boundary_hits"],
              [np.array([r[0] for r in cfg.ladder]),
               np.array([r[1] for r in cfg.ladder]),
               np.array(values), np.array(diffs), np.array(bhits)])
    write_json(outdir / "refine_manifest.json",
               {"config": cfg.to_dict(),
                "values": values, "diffs": diffs,
                "boundary_hits": bhits,
                "cauchy": cauchy, "tolerance": cfg.refine_tol})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="attnmv",
        description="Equilibrium mean-variance investment with costly "
                    "attention under a partially observed regime chain")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in [("solve", cmd_solve), ("sweep-k", cmd_sweep_k),
                     ("check", cmd_check), ("refine", cmd_refine)]:
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--convention", choices=CONVENTIONS)
        for flag, _, options, _ in _FLAGS:
            sp.add_argument("--" + flag.replace("_", "-"), **options)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its wall time goes to stderr and ``timing.txt``."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        code = args.func(cfg)
    except (ConfigError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemeError as err:
        print(f"scheme error: {err}", file=sys.stderr)
        return EXIT_SCHEME
    elapsed = time.perf_counter() - start
    log.info("%s finished in %.2f s", args.command, elapsed)
    with open(cfg.output_dir / "timing.txt", "w") as fh:
        fh.write(f"{args.command} wall time: {elapsed:.3f} s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
