import json
from pathlib import Path

import numpy as np
import pytest

from attnmv.cli import _parse_ladder, build_parser, load_config, main
from attnmv.errors import ConfigError
from attnmv.market import compose_objective

HERE = Path(__file__).resolve().parent
DEFAULT_CONFIG = HERE.parent / "configs" / "default.json"


def short_config(tmp_path, **extra):
    """Default config shrunk to a fast horizon for CLI round trips."""
    with open(DEFAULT_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["model"]["T"] = 0.05
    cfg["oracle"]["n_paths"] = 2000
    cfg["slice_times"] = [0.0]
    cfg["eval"] = {"t": 0.0, "x": 2.0, "phi": [0.2]}
    cfg["refine_eval"] = {"t": 0.0, "x": 2.0, "phi": [0.4]}
    cfg["ladder"] = [[0.4, 0.002], [0.2, 0.001]]
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_defaults_and_overrides(tmp_path):
    cfg = load_config(None)
    assert cfg.h1 == 0.2 and cfg.h2 == 0.001
    assert cfg.model.m == 2
    path = short_config(tmp_path)
    cfg = load_config(path)
    assert cfg.model.T == 0.05
    assert cfg.refine_phi == [0.4]


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/does/not/exist.json")


@pytest.mark.parametrize("section, key, value", [
    ("oracle", "seed", 1.5), ("oracle", "n_paths", 2500.7),
    ("controls", "n_pi", 2.9), ("oracle", "seed", "7"),
    ("oracle", "n_paths", None), ("controls", "n_pi", True),
])
def test_load_config_rejects_non_integers(tmp_path, section, key, value):
    # a fraction used to be truncated without a word (seed 1.5 ran as 1)
    path = short_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg.setdefault(section, {})[key] = value
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=f"{section}.{key} must be an integer"):
        load_config(path)


def test_load_config_accepts_integral_floats(tmp_path):
    path = short_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["oracle"].update(seed=7.0, n_paths=2500.0)
    path.write_text(json.dumps(cfg))
    loaded = load_config(path)
    assert (loaded.seed, loaded.n_paths) == (7, 2500)
    assert type(loaded.seed) is int and type(loaded.n_paths) is int


def test_check_rejects_fractional_seed(tmp_path, capsys):
    cfgp = short_config(tmp_path)
    cfg = json.loads(cfgp.read_text())
    cfg["oracle"]["seed"] = 1.5
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "x"
    rc = main(["check", "--config", str(cfgp), "--output-dir", str(out)])
    assert rc == 2
    assert "oracle.seed must be an integer, got 1.5" in capsys.readouterr().err
    assert not (out / "check_report.json").exists()


def test_parse_ladder():
    assert _parse_ladder("0.4:0.004,0.2:0.001") == [(0.4, 0.004), (0.2, 0.001)]
    with pytest.raises(ConfigError):
        _parse_ladder("0.4-0.004")


def test_solve_artifacts_and_exit(tmp_path):
    cfgp = short_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfgp), "--output-dir", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert (out / "slice_t0.0.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["derived"]["n_nodes"] == 126
    assert man["config"]["grid"]["h1"] == 0.2
    data = np.genfromtxt(out / "slice_t0.0.csv", delimiter=",", names=True)
    assert len(data) == 126


def test_solve_default_config_masks_no_pair(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(DEFAULT_CONFIG),
                 "--output-dir", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["derived"]["masked_pairs"] == 0


def test_solve_frozen_value_equals_wealth(tmp_path):
    cfgp = short_config(tmp_path)
    with open(cfgp) as fh:
        cfg = json.load(fh)
    cfg["model"]["generator"] = [[0.0, 0.0], [0.0, 0.0]]
    cfg["model"]["riskfree"] = 0.0
    cfg["model"]["drift"] = [[0.0], [0.0]]
    cfg["model"]["signal_levels"] = [1.0, 1.0]
    cfg["model"]["cost_coeff"] = 0.0
    cfg["controls"]["u_max"] = 0.0
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "frozen"
    assert main(["solve", "--config", str(cfgp), "--output-dir", str(out)]) == 0
    data = np.genfromtxt(out / "slice_t0.0.csv", delimiter=",", names=True)
    # nothing moves, so V keeps its terminal value J(x, 0) = -(gamma/2) x
    np.testing.assert_array_equal(
        data["V"], compose_objective(data["x"], 0.0, 0.5, "paper-literal"))
    np.testing.assert_array_equal(data["g"], data["x"])


def test_solve_rejects_bad_h1(tmp_path):
    cfgp = short_config(tmp_path)
    rc = main(["solve", "--config", str(cfgp), "--h1", "0.3",
               "--output-dir", str(tmp_path / "bad")])
    assert rc == 2


def test_solve_debug_stencils(tmp_path):
    cfgp = short_config(tmp_path)
    out = tmp_path / "dbg"
    rc = main(["solve", "--config", str(cfgp), "--output-dir", str(out),
               "--debug-stencils"])
    assert rc == 0
    rows = np.genfromtxt(out / "stencils_t0.csv", delimiter=",", names=True)
    probs = np.stack([rows[f"p{o}"] for o in range(5)])
    np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-12)


def test_artifacts_bit_identical(tmp_path):
    cfgp = short_config(tmp_path)
    out = tmp_path / "det"
    assert main(["solve", "--config", str(cfgp), "--output-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()
              if p.suffix in (".csv", ".json")}
    assert main(["solve", "--config", str(cfgp), "--output-dir", str(out)]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob, name


def test_check_report_bit_identical(tmp_path):
    cfgp = short_config(tmp_path)
    out = tmp_path / "detcheck"
    assert main(["check", "--config", str(cfgp), "--output-dir", str(out)]) == 0
    blob = (out / "check_report.json").read_bytes()
    assert main(["check", "--config", str(cfgp), "--output-dir", str(out)]) == 0
    assert (out / "check_report.json").read_bytes() == blob


def test_sweep_k_artifacts(tmp_path):
    # zero-cost information is an admissible sweep entry
    cfgp = short_config(tmp_path, sweep_k=[0.0, 0.1, 0.5])
    out = tmp_path / "sweep"
    assert main(["sweep-k", "--config", str(cfgp), "--output-dir", str(out)]) == 0
    v = np.genfromtxt(out / "fig1_value.csv", delimiter=",", names=True)
    assert set(v.dtype.names) == {"x", "V_k00", "V_k01", "V_k05"}
    assert len(v) == 21
    for name in ("fig2_ratio.csv", "fig3_attention.csv", "fig4_surface.csv"):
        assert (out / name).exists()
    surf = np.genfromtxt(out / "fig4_surface.csv", delimiter=",", names=True)
    assert len(surf) == 126


def test_sweep_k_at_the_horizon_writes_nan_policy(tmp_path):
    # the terminal slice has no policy; sweep-k used to raise IndexError
    # there after its first solve
    cfgp = short_config(tmp_path, eval={"t": 0.05, "x": 2.0, "phi": [0.2]})
    out = tmp_path / "sweep"
    assert main(["sweep-k", "--config", str(cfgp), "--output-dir", str(out)]) == 0
    v = np.genfromtxt(out / "fig1_value.csv", delimiter=",", names=True)
    assert np.isfinite(v["V_k01"]).all()
    for name in ("fig2_ratio.csv", "fig3_attention.csv"):
        table = np.genfromtxt(out / name, delimiter=",", names=True)
        assert len(table) == 21
        for col in table.dtype.names[1:]:
            assert np.isnan(table[col]).all()


def _without_vol(cfg):
    del cfg["model"]["vol"]


MALFORMED = {
    "not-json": "{not json",
    "top-level-list": "[1, 2]",
    "model-without-vol": _without_vol,
    "h1-not-a-number": lambda cfg: cfg["grid"].update(h1="0.2x"),
    "phi-scalar": lambda cfg: cfg["eval"].update(phi=0.2),
    "grid-null": lambda cfg: cfg.update(grid=None),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_is_config_error(tmp_path, capsys, monkeypatch,
                                          edit):
    # each used to exit 1 with a traceback
    import attnmv.cli
    monkeypatch.setattr(attnmv.cli, "solve", None)
    cfgp = short_config(tmp_path)
    if isinstance(edit, str):
        cfgp.write_text(edit)
    else:
        cfg = json.loads(cfgp.read_text())
        edit(cfg)
        cfgp.write_text(json.dumps(cfg))
    rc = main(["solve", "--config", str(cfgp),
               "--output-dir", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config error: config file {cfgp}" in err
    assert "Traceback" not in err


def run_edited(tmp_path, command, section, update, *flags):
    """Run ``command`` on the short config with ``section`` updated."""
    cfgp = short_config(tmp_path)
    cfg = json.loads(cfgp.read_text())
    cfg[section].update(update)
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "s"
    return main([command, "--config", str(cfgp), "--output-dir", str(out),
                 *flags]), out


OFF_GRID_EVAL = [
    ({"phi": [0.3]}, "evaluation phi=[0.3] not on the grid"),
    ({"x": 2.1}, "evaluation x=2.1 not on the grid"),
    ({"x": 4.2}, "evaluation x=4.2 not on the grid"),
    ({"phi": [-0.2]}, "evaluation phi=[-0.2] not on the grid"),
    ({"phi": [1.2]}, "evaluation phi=[1.2] not on the grid"),
    ({"phi": [0.2, 0.2]}, "evaluation phi=[0.2, 0.2] not on the grid"),
]


@pytest.mark.parametrize("point, message", OFF_GRID_EVAL)
def test_sweep_k_rejects_off_grid_eval(tmp_path, capsys, point, message):
    # the curves used to be written at the nearest grid point without a
    # word; phi = [-0.2] ran at the phi = 1 node and [1.2] raised IndexError
    rc, out = run_edited(tmp_path, "sweep-k", "eval", point)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("point, message", OFF_GRID_EVAL)
def test_solve_rejects_off_grid_eval(tmp_path, capsys, point, message):
    rc, out = run_edited(tmp_path, "solve", "eval", point)
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command, section, point, flags, message", [
    ("solve", "eval", {"phi": [-0.2]}, (),
     "evaluation phi=[-0.2] not on the grid"),
    ("sweep-k", "eval", {"phi": [-0.2]}, (),
     "evaluation phi=[-0.2] not on the grid"),
    ("check", "eval", {"phi": [-0.2]}, (),
     "evaluation phi=[-0.2] not on the grid"),
    ("solve", "eval", {"t": 0.0005}, (), "evaluation t=0.0005 not on"),
    ("refine", "refine_eval", {"phi": [-0.2]}, (),
     "evaluation phi=[-0.2] not on the grid"),
    # on the first rung's grid (h1 = 0.2) but not on the second's (0.4)
    ("refine", "refine_eval", {"x": 2.2}, ("--ladder", "0.2:0.001,0.4:0.002"),
     "evaluation x=2.2 not on the grid"),
], ids=["solve", "sweep-k", "check", "solve-t", "refine", "refine-rung-2"])
def test_bad_eval_point_fails_before_any_solve(tmp_path, capsys, monkeypatch,
                                               command, section, point, flags,
                                               message):
    # each command found the evaluation point only after its solve (check
    # after its strict builds and three checks, refine after a whole rung)
    import attnmv.cli
    solves = []

    def spy(*args, **kwargs):
        solves.append(args)
        raise AssertionError("solve ran before the evaluation point check")
    monkeypatch.setattr(attnmv.cli, "solve", spy)
    rc, out = run_edited(tmp_path, command, section, point, *flags)
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert solves == []


def test_solve_bad_slice_time_fails_before_any_solve(tmp_path, capsys,
                                                     monkeypatch):
    # the slice files before a bad slice time used to be written first
    import attnmv.cli
    monkeypatch.setattr(attnmv.cli, "solve", None)
    cfgp = short_config(tmp_path, slice_times=[0.0, 0.0105])
    out = tmp_path / "s"
    assert main(["solve", "--config", str(cfgp), "--output-dir",
                 str(out)]) == 2
    assert "config error: slice time 0.0105 not on the time grid" \
        in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("controls, message", [
    ({"du": 0.0}, "du must be finite and > 0"),
    ({"du": -0.5}, "du must be finite and > 0"),
    ({"du": float("nan")}, "du must be finite and > 0"),
    ({"u_max": -1.0}, "u_max must be finite and >= 0"),
    ({"u_max": float("inf")}, "u_max must be finite and >= 0"),
    ({"u_max": 2.0, "du": 0.3}, "u_max/du = 6.666666666666667 is not an integer"),
])
def test_solve_rejects_bad_control_grid(tmp_path, capsys, controls, message):
    # du = 0 ended in ZeroDivisionError, -0.5 and nan in ValueError (exit
    # 1), and u_max = 2, du = 0.3 silently stepped by 0.2857
    rc, out = run_edited(tmp_path, "solve", "controls", controls)
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("source", ["flag", "key"])
def test_convention_overrides_the_model(tmp_path, source):
    # the convention lives in the model alone, so the manifest names the
    # convention that was solved
    extra = {"convention": "mean-minus-variance"} if source == "key" else {}
    flags = ["--convention", "mean-minus-variance"] if source == "flag" else []
    cfgp = short_config(tmp_path, **extra)
    args = build_parser().parse_args(["solve", "--config", str(cfgp), *flags])
    assert load_config(cfgp, args).model.objective_convention \
        == "mean-minus-variance"
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfgp), "--output-dir", str(out),
                 *flags]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["model"]["objective_convention"] \
        == "mean-minus-variance"
    assert "convention" not in man["config"]


def test_bad_convention_key_is_config_error(tmp_path, capsys):
    cfgp = short_config(tmp_path, convention="mean-variance")
    rc = main(["solve", "--config", str(cfgp),
               "--output-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "objective_convention must be one of" in capsys.readouterr().err


def test_every_subcommand_writes_timing(tmp_path):
    cfgp = short_config(tmp_path)
    override = tmp_path / "corrupt.json"
    override.write_text(json.dumps({"overrides": [[10, 66, 4]]}))
    runs = [("solve", [], 0), ("sweep-k", [], 0), ("check", [], 0),
            ("refine", [], 0),
            ("check", ["--policy-override", str(override)], 4)]
    for i, (command, flags, code) in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert main([command, "--config", str(cfgp), "--output-dir", str(out),
                     *flags]) == code
        assert (out / "timing.txt").read_text().startswith(
            f"{command} wall time: ")


@pytest.mark.parametrize("flags, message", [
    (["solve", "--h2", "0"], "h2 must be finite and > 0, got 0.0"),
    (["check", "--h2", "0"], "h2 must be finite and > 0, got 0.0"),
    (["solve", "--h2", "nan"], "h2 must be finite and > 0, got nan"),
    (["refine", "--ladder", "0.2:nan"], "h2 must be finite and > 0, got nan"),
    (["solve", "--slice-times", "nan"], "slice time nan not on the time grid"),
    (["refine", "--ladder", "0.2:0"], "h2 must be finite and > 0, got 0.0"),
    (["solve", "--h1", "inf"], "h1, h2, x_min and x_max must be finite"),
    (["refine", "--h2", "0"], "h2 must be finite and > 0, got 0.0"),
], ids=["solve-h2=0", "check-h2=0", "solve-h2=nan", "refine-rung-h2=nan",
        "solve-slice=nan", "refine-rung-h2=0", "solve-h1=inf",
        "refine-h2=0"])
def test_bad_step_or_time_is_config_error(tmp_path, capsys, flags, message):
    # h2 = 0 raised ZeroDivisionError and nan ValueError (refine --h2 0
    # only after its whole ladder, when it wrote the manifest); h1 = inf
    # passed the grid check and failed on the evaluation point
    cfgp = short_config(tmp_path)
    rc = main([*flags, "--config", str(cfgp),
               "--output-dir", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["solve", "--slice-times", "a"], "--slice-times: bad number list 'a'"),
    (["sweep-k", "--sweep-k", "0.1,x"], "--sweep-k: bad number list '0.1,x'"),
], ids=["solve-slice-times", "sweep-k"])
def test_bad_number_list_is_config_error(tmp_path, capsys, flags, message):
    # a bare ValueError used to escape main, exit 1 with a traceback
    cfgp = short_config(tmp_path)
    rc = main([*flags, "--config", str(cfgp),
               "--output-dir", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config error: {message}" in err
    assert "Traceback" not in err


def test_sweep_k_rejects_non_finite_cost_before_any_solve(tmp_path, capsys,
                                                          monkeypatch):
    # k = nan used to fail the third solve with a scheme error (exit 3)
    import attnmv.cli
    solves = []
    monkeypatch.setattr(attnmv.cli, "solve",
                        lambda *args, **kwargs: solves.append(args))
    cfgp = short_config(tmp_path)
    rc = main(["sweep-k", "--sweep-k", "0.1,nan", "--config", str(cfgp),
               "--output-dir", str(tmp_path / "s")])
    assert rc == 2
    assert ("config error: invalid model at k=nan: cost_coeff must be finite"
            in capsys.readouterr().err)
    assert solves == []


def test_sweep_k_empty_list_rejected(tmp_path):
    cfgp = short_config(tmp_path, sweep_k=[])
    rc = main(["sweep-k", "--config", str(cfgp),
               "--output-dir", str(tmp_path / "s")])
    assert rc == 2


def test_check_passes_on_default(tmp_path):
    cfgp = short_config(tmp_path)
    out = tmp_path / "check"
    rc = main(["check", "--config", str(cfgp), "--output-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "check_report.json").read_text())
    assert all(v["pass"] for v in report["properties"].values())
    expected = {"stencil_validity", "local_consistency",
                "terminal_and_propagation", "spike_margins",
                "g_consistency_mc", "filter_marginal"}
    assert set(report["properties"]) == expected


def test_check_dump_terminal(tmp_path):
    cfgp = short_config(tmp_path)
    out = tmp_path / "check_dump"
    rc = main(["check", "--config", str(cfgp), "--output-dir", str(out),
               "--dump-terminal"])
    assert rc == 0
    rows = (out / "terminal_wealth.csv").read_text().splitlines()
    assert rows[0] == "x_T" and len(rows) == 2001


def test_check_detects_corrupted_policy(tmp_path):
    cfgp = short_config(tmp_path)
    # replace the optimal lowest attention with the highest at one node
    override = tmp_path / "corrupt.json"
    override.write_text(json.dumps({"overrides": [[10, 66, 4]]}))
    out = tmp_path / "check_bad"
    rc = main(["check", "--config", str(cfgp), "--output-dir", str(out),
               "--policy-override", str(override)])
    assert rc == 4
    report = json.loads((out / "check_report.json").read_text())
    assert not report["properties"]["spike_margins"]["pass"]


def test_check_rejects_perturbed_generator(tmp_path):
    cfgp = short_config(tmp_path)
    with open(cfgp) as fh:
        cfg = json.load(fh)
    cfg["model"]["generator"] = [[-1.0, 0.9], [1.5, -1.5]]
    cfgp.write_text(json.dumps(cfg))
    rc = main(["check", "--config", str(cfgp),
               "--output-dir", str(tmp_path / "x")])
    assert rc == 2


def never_build_or_solve(monkeypatch):
    """Spies on every build and solve; returns the list of their calls."""
    import attnmv.cli
    import attnmv.solver
    calls = []

    def spy(name):
        def called(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called before the config check")
        return called
    monkeypatch.setattr(attnmv.cli, "solve", spy("solve"))
    monkeypatch.setattr(attnmv.cli, "build_stencil_batch",
                        spy("build_stencil_batch"))
    monkeypatch.setattr(attnmv.solver, "build_stencil_batch",
                        spy("build_stencil_batch"))
    return calls


def rejects_bad_path_count(command, tmp_path, capsys, monkeypatch):
    calls = never_build_or_solve(monkeypatch)
    cfgp = short_config(tmp_path)
    rc = main([command, "--config", str(cfgp), "--paths", "1",
               "--output-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "n_paths >= 2" in capsys.readouterr().err
    assert calls == []


def rejects_negative_seed(command, tmp_path, capsys, monkeypatch):
    calls = never_build_or_solve(monkeypatch)
    cfgp = short_config(tmp_path)
    out = tmp_path / "x"
    rc = main([command, "--config", str(cfgp), "--seed", "-1",
               "--paths", "10", "--output-dir", str(out)])
    assert rc == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert calls == []
    assert not any(out.glob("*.json"))


def test_check_rejects_bad_path_count(tmp_path, capsys, monkeypatch):
    # an oracle input outside its domain exits with the configuration
    # code when the config loads, before any stencil build or solve
    rejects_bad_path_count("check", tmp_path, capsys, monkeypatch)


def test_check_rejects_negative_seed(tmp_path, capsys, monkeypatch):
    # rejected when the config loads, not by the oracle after the solve
    # or by numpy mid-run
    rejects_negative_seed("check", tmp_path, capsys, monkeypatch)


def test_refine_rejects_bad_path_count(tmp_path, capsys, monkeypatch):
    # refine used to solve its whole first rung before the chain oracle
    # rejected the count
    rejects_bad_path_count("refine", tmp_path, capsys, monkeypatch)


def test_refine_rejects_negative_seed(tmp_path, capsys, monkeypatch):
    rejects_negative_seed("refine", tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("key, value, message", [
    ("n_paths", 1, "need n_paths >= 2, got 1"),
    ("seed", -3, "seed must be a non-negative integer, got -3")])
def test_load_config_rejects_oracle_domain(tmp_path, key, value, message):
    with open(DEFAULT_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["oracle"][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_check_builds_each_epoch_once_per_pass(tmp_path, monkeypatch):
    # the cache holds one epoch, so each pass over the slices builds every
    # epoch once: the strict checks, the solve (backward from the last
    # epoch), the g-residual and spike checks (one pass; epoch 0 is still
    # held from the solve) and the chain oracle
    import attnmv.cli
    import attnmv.solver
    from attnmv.kernel import build_stencil_batch
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return build_stencil_batch(*args, **kwargs)
    monkeypatch.setattr(attnmv.cli, "build_stencil_batch", counted)
    monkeypatch.setattr(attnmv.solver, "build_stencil_batch", counted)
    with open(DEFAULT_CONFIG) as fh:
        model = json.load(fh)["model"]
    model["T"] = 0.05
    model["riskfree"] = {"times": [0.0, 0.02], "values": [[0.03, 0.03],
                                                          [0.05, 0.01]]}
    cfgp = short_config(tmp_path, model=model)
    rc = main(["check", "--config", str(cfgp),
               "--output-dir", str(tmp_path / "x")])
    assert rc == 0
    assert calls == [0.0, 0.02, 0.02, 0.0, 0.02, 0.0, 0.02]


@pytest.mark.parametrize("content", [
    {"overrides": [[0, 5, 999]]}, {"overrides": [[5000, 3, 3]]},
    {"overrides": [[0, -1, 3]]}, {"overrides": [[0, 3, -2]]}, {},
    {"overrides": [[1.5, 3, 3]]}, {"overrides": [[0, 3]]},
    {"overrides": [[True, 3, 3]]}, {"overrides": [[10**400, 3, 3]]},
    {"overrides": [[float("nan"), 3, 3]]}, {"overrides": [0, 3, 3]},
    {"overrides": "[[0, 3, 3]]"}, [[0, 3, 3]], "not json"])
def test_check_rejects_bad_policy_override(tmp_path, monkeypatch, capsys,
                                           content):
    # entries out of range used to crash with an IndexError after the
    # solve, negative ones wrapped to the last node or control, and an
    # empty object or a fraction passed without a word
    import attnmv.cli

    def never(*args, **kwargs):
        raise AssertionError("built or solved before the override check")
    monkeypatch.setattr(attnmv.cli, "solve", never)
    monkeypatch.setattr(attnmv.cli, "build_stencil_batch", never)
    override = tmp_path / "override.json"
    override.write_text(content if isinstance(content, str)
                        else json.dumps(content))
    rc = main(["check", "--config", str(short_config(tmp_path)),
               "--policy-override", str(override),
               "--output-dir", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: policy override" in err
    assert "Traceback" not in err


def test_check_wrong_horizon_is_config_error(tmp_path, capsys):
    # h2 = 0.3 also fails the strict step-size build; the horizon check
    # must run first and exit with the configuration code
    rc = main(["check", "--config", str(DEFAULT_CONFIG), "--h2", "0.3",
               "--output-dir", str(tmp_path / "x")])
    assert rc == 2
    assert "n_steps * h2 = 2.1 does not equal the horizon 2.0" \
        in capsys.readouterr().err


def test_check_off_grid_marginal_time_fails_before_any_build(
        tmp_path, capsys, monkeypatch):
    # the filter-marginal time min(0.5, T) was checked against h2 only by
    # the last check, after the strict builds, the solve and the chain
    import attnmv.cli
    import attnmv.solver
    builds = []

    def spy(*args, **kwargs):
        builds.append(args)
        raise AssertionError("a stencil batch was built before the check")
    monkeypatch.setattr(attnmv.cli, "build_stencil_batch", spy)
    monkeypatch.setattr(attnmv.solver, "build_stencil_batch", spy)
    with open(DEFAULT_CONFIG) as fh:
        model = json.load(fh)["model"]
    model["T"] = 0.6
    out = tmp_path / "x"
    rc = main(["check", "--config", str(short_config(tmp_path, model=model)),
               "--h2", "0.0012", "--output-dir", str(out)])
    assert rc == 2
    assert "config error: t 0.5 is not a multiple of the step 0.0012" \
        in capsys.readouterr().err
    assert builds == []
    assert not (out / "check_report.json").exists()


def test_refine_checks_main_horizon_before_any_solve(tmp_path, capsys,
                                                     monkeypatch):
    # --h2 0.0007 does not divide T = 2; refine used to solve its ladder
    # and record n_steps 2857 in its manifest
    import attnmv.cli
    solves = []
    monkeypatch.setattr(attnmv.cli, "solve",
                        lambda *args, **kwargs: solves.append(args))
    out = tmp_path / "r"
    rc = main(["refine", "--config", str(DEFAULT_CONFIG), "--h2", "0.0007",
               "--output-dir", str(out)])
    assert rc == 2
    assert "does not equal the horizon 2.0" in capsys.readouterr().err
    assert solves == []
    assert not (out / "refine_manifest.json").exists()


def test_refine_cauchy_table(tmp_path):
    cfgp = short_config(tmp_path)
    out = tmp_path / "refine"
    rc = main(["refine", "--config", str(cfgp), "--output-dir", str(out),
               "--paths", "500"])
    assert rc == 0
    man = json.loads((out / "refine_manifest.json").read_text())
    assert len(man["values"]) == 2
    tab = np.genfromtxt(out / "refine.csv", delimiter=",", names=True)
    assert tab["h1"].tolist() == [0.4, 0.2]


def test_refine_frozen_identical_values(tmp_path):
    cfgp = short_config(tmp_path)
    with open(cfgp) as fh:
        cfg = json.load(fh)
    cfg["model"]["generator"] = [[0.0, 0.0], [0.0, 0.0]]
    cfg["model"]["riskfree"] = 0.0
    cfg["model"]["drift"] = [[0.0], [0.0]]
    cfg["model"]["signal_levels"] = [1.0, 1.0]
    cfg["model"]["cost_coeff"] = 0.0
    cfg["controls"]["u_max"] = 0.0
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "rf"
    assert main(["refine", "--config", str(cfgp),
                 "--output-dir", str(out)]) == 0
    man = json.loads((out / "refine_manifest.json").read_text())
    assert man["values"][0] == man["values"][1] == -0.25 * 2.0
    assert man["diffs"][1] == 0.0
    assert man["cauchy"] is True


def test_refine_cfl_violation_exit_code(tmp_path):
    # h2/h1^2 = 20: the non-stay mass exceeds 1 for every control at the
    # fast-switching low-belief nodes, so the rung must abort
    cfgp = short_config(tmp_path)
    rc = main(["refine", "--config", str(cfgp), "--ladder", "0.05:0.05",
               "--output-dir", str(tmp_path / "cfl")])
    assert rc == 3
