"""Workload inputs, generated from the benchmark seed.

Standard library only: inputs are made before the set-up clock starts, so
generating them must not import numpy or the package.  The program sees
only the config file written from these dicts.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("mc-verify", "sweep-fine", "epochs-daily")
# The workloads BENCHMARK.json lists.  sweep-fine runs by hand only: with
# three workloads, the run length that fits the benchmark's time budget left
# its run-to-run wall_s spread above the bound on a shared 2-core host.
BENCHMARKED = ("mc-verify", "epochs-daily")

# The shipped default market and grid (configs/default.json when the
# benchmark was defined).  Embedded so that editing the shipped config does
# not silently change a workload.
DEFAULT_MODEL = {
    "m": 2,
    "d": 1,
    "T": 2.0,
    "generator": [[-1.0, 1.0], [1.5, -1.5]],
    "riskfree": 0.03,
    "drift": [[0.08], [0.035]],
    "vol": [[[0.2]], [[0.35]]],
    "signal_levels": [0.0, 1.0],
    "cost_coeff": 0.1,
    "attention_min": 0.001,
    "attention_max": 2.0,
    "risk_aversion": 0.5,
    "objective_convention": "paper-literal",
}
DEFAULT_GRID = {"h1": 0.2, "h2": 0.001, "x_min": 0.0, "x_max": 4.0}
FINE_GRID = {"h1": 0.1, "h2": 0.00025, "x_min": 0.0, "x_max": 4.0}
CONTROLS = {"u_max": 2.0, "du": 0.5, "n_pi": 5}
EVAL = {"t": 1.0, "x": 2.0, "phi": [0.2]}
SWEEP_K = [0.1, 0.3, 0.5]

# Monte-Carlo path counts of one mc-verify iteration: a sixth of the
# acceptance suite's, so that a run holds several iterations for a median
# while the oracles keep ~95% of the time and the solver's share stays small.
CHAIN_PATHS = 16000
SDE_PATHS = 4000
MARGINAL_PATHS = 16000
MARGINAL_T = 0.5

# epochs-daily: daily breakpoints; each coefficient walks in steps of
# STEP around its default and reflects at +-half_width steps.
DAYS_PER_YEAR = 365
STEP = 1e-4
RATE_HALF_WIDTH = 100           # riskfree in [0.02, 0.04]
BULL_HALF_WIDTH = 100           # bull excess return in [0.04, 0.06]
BEAR_HALF_WIDTH = 50            # bear excess return in [0.0, 0.01]


def _bounded_walk(rng: random.Random, n: int, half_width: int) -> list[int]:
    """Integer random walk of n points from 0, reflected at +-half_width."""
    k, out = 0, []
    for _ in range(n):
        out.append(k)
        k += rng.randrange(3) - 1
        if abs(k) > half_width:
            k = (2 * half_width - abs(k)) * (1 if k > 0 else -1)
    return out


def daily_tables(seed: int, T: float) -> dict:
    """Piecewise-constant riskfree and drift tables with daily breakpoints.

    Excess returns walk separately from the rate, so both regimes keep a
    nonnegative excess return, as in the default market.
    """
    rng = random.Random(seed)
    n = round(T * DAYS_PER_YEAR)
    times = [i / DAYS_PER_YEAR for i in range(n)]
    rate = _bounded_walk(rng, n, RATE_HALF_WIDTH)
    bull = _bounded_walk(rng, n, BULL_HALF_WIDTH)
    bear = _bounded_walk(rng, n, BEAR_HALF_WIDTH)
    r0 = DEFAULT_MODEL["riskfree"]
    th_bull = DEFAULT_MODEL["drift"][0][0] - r0
    th_bear = DEFAULT_MODEL["drift"][1][0] - r0
    riskfree, drift = [], []
    for kr, kb, ke in zip(rate, bull, bear):
        r = round(r0 + kr * STEP, 10)
        riskfree.append([r, r])
        drift.append([[round(r + th_bull + kb * STEP, 10)],
                      [round(r + th_bear + ke * STEP, 10)]])
    return {"riskfree": {"times": times, "values": riskfree},
            "drift": {"times": times, "values": drift}}


def make_config(workload: str, seed: int) -> dict:
    """The config dict one run of ``workload`` hands to ``load_config``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    model = dict(DEFAULT_MODEL)
    grid = FINE_GRID if workload == "sweep-fine" else DEFAULT_GRID
    if workload == "epochs-daily":
        model.update(daily_tables(seed, model["T"]))
    return {
        "model": model,
        "grid": dict(grid),
        "controls": dict(CONTROLS),
        "oracle": {"n_paths": CHAIN_PATHS, "seed": seed, "sde_h2": None},
        "eval": dict(EVAL),
        "sweep_k": list(SWEEP_K),
    }


def config_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization: the same seed gives the same bytes."""
    return json.dumps(make_config(workload, seed), sort_keys=True,
                      indent=1).encode()
