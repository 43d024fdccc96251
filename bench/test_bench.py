"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from attnmv.lattice import GridSpec  # noqa: E402
from attnmv.market import RegimeModel, example_model, validate_model  # noqa: E402
from attnmv.solver import ControlGrid, solve  # noqa: E402


@pytest.fixture(scope="module")
def short_run():
    model = example_model(T=0.2)
    spec = GridSpec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=200)
    grid = ControlGrid.regular(d=1, u_max=2.0, du=0.5,
                               pi_min=model.attention_min,
                               pi_max=model.attention_max, n_pi=5)
    return model, solve(model, spec, grid)


def test_corrupted_policy_row_fails_a_check_and_is_counted(short_run):
    model, fields = short_run
    clean = workloads.Checks()
    workloads.check_fields(clean, model, fields, "solve")
    assert (clean.attempted, clean.failed) == (3, 0)

    # move one node to the other attention extreme, as criterion 04 does
    node = int(fields.lat.index_of(10, np.array([1])))
    row = fields.policy[100]
    n_pi = len(fields.grid.pi_levels)
    saved = int(row[node])
    row[node] = (saved // n_pi) * n_pi if saved % n_pi else saved + n_pi - 1
    try:
        bad = workloads.Checks()
        workloads.check_fields(bad, model, fields, "solve")
    finally:
        row[node] = saved
    ok = {e["check"]: e["ok"] for e in bad.entries}
    assert bad.attempted == 3 and bad.failed >= 1
    assert not ok["solve.spike_margins"]


def test_epoch_tables_repeat_per_seed_and_validate():
    first = inputs.config_bytes("epochs-daily", 7)
    assert inputs.config_bytes("epochs-daily", 7) == first
    assert inputs.config_bytes("epochs-daily", 8) != first
    model = RegimeModel.from_dict(json.loads(first)["model"])
    assert validate_model(model) == []
    assert model.n_epochs == 730
    theta = model.drift[:, :, 0] - model.riskfree
    assert theta.min() >= 0.0


def test_missing_hook_is_reported_missing_not_zero(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS[:3] + (
        ("filtering.filter_step", "attnmv.oracle", "no_such_name"),))
    hooks = tracing.Hooks(tracing.Calls())
    assert hooks.missing == ["filtering.filter_step"]
    one = tracing.iteration_metrics([], Counter(), 126)
    metrics, missing = tracing.layer_report([one], [0.0], 0.0, hooks.missing)
    for name in ("filtering.filter_step_calls", "filtering.filter_step_s",
                 "oracle.sde_self_s", "oracle.self_s"):
        assert name in missing and name not in metrics
    assert "solver.solve_s" in metrics


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.BENCHMARKED)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in tracing.PER_LAYER]


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
