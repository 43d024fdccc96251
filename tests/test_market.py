from dataclasses import replace

import numpy as np
import pytest

from attnmv.errors import ConfigError, DomainError
from attnmv.market import RegimeModel, example_model, validate_model


def test_validate_accepts_valid_generator():
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]])
    assert validate_model(mdl) == []


def test_validate_rejects_bad_row_sum():
    mdl = example_model(generator=[[-1.0, 0.5], [2.0, -2.0]])
    msgs = validate_model(mdl)
    assert any("row sum" in m for m in msgs)


def test_validate_rejects_degenerate_vol():
    mdl = example_model(vol=[[[0.0]], [[0.0]]])
    msgs = validate_model(mdl)
    assert any("degenerate diffusion" in m for m in msgs)
    # one degenerate epoch and regime in the middle of a long table: the
    # stacked check fails and the message names exactly that pair
    n = 200
    vol = np.tile(np.array([[[0.20]], [[0.35]]]), (n, 1, 1, 1))
    vol[117, 1] = 0.0
    long = example_model(vol={"times": (np.arange(n) * 0.01).tolist(),
                              "values": vol.tolist()})
    assert validate_model(long) == [
        "vol(epoch 117, regime 1): degenerate diffusion, vol*vol^T not "
        "positive definite"]
    vol[117, 1] = 0.35
    assert validate_model(replace(long, vol=vol)) == []


def test_epoch_of_matches_searchsorted():
    rng = np.random.default_rng(5)
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 40))])
    vol = [[[[0.20]], [[0.35]]]] * len(breaks)
    mdl = example_model(vol={"times": breaks.tolist(), "values": vol})
    times = np.concatenate([breaks, rng.uniform(0.0, 2.0, 500),
                            [2.0, 1e-300, -1e-13],
                            np.nextafter(breaks, -1.0)[1:],
                            np.nextafter(breaks, 3.0)])
    for t in times:
        want = int(np.searchsorted(breaks, t, side="right") - 1) if t > 0 else 0
        assert mdl.epoch_of(float(t)) == want
        assert mdl.epoch_of(t) == want
    with pytest.raises(DomainError):
        mdl.epoch_of(2.0 + 1e-9)
    with pytest.raises(DomainError):
        mdl.epoch_of(-1e-9)


def test_validate_rejects_negative_offdiagonal():
    mdl = example_model(generator=[[0.5, -0.5], [2.0, -2.0]])
    assert any("off-diagonal" in m for m in validate_model(mdl))


FINITE_FIELDS = ("T", "generator", "time_breaks", "riskfree", "drift", "vol",
                 "signal_levels", "cost_coeff", "attention_min",
                 "attention_max", "risk_aversion")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", FINITE_FIELDS)
def test_validate_rejects_non_finite(name, bad):
    # a NaN drift used to pass and fail only in the solve, as a scheme error
    mdl = example_model(riskfree={"times": [0.0, 1.0],
                                  "values": [[0.03, 0.03], [0.04, 0.02]]})
    assert validate_model(mdl) == []
    value = getattr(mdl, name)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[-1] = bad
    else:
        value = bad
    msgs = validate_model(replace(mdl, **{name: value}))
    assert f"{name} must be finite" in msgs


def test_example_model_is_valid():
    assert validate_model(example_model()) == []


def test_theta_hand_values():
    mdl = example_model(riskfree=0.03, drift=[[0.08], [0.08]])
    assert mdl.theta_at(0.0)[0] == pytest.approx(np.array([0.05]), abs=1e-15)
    # zero excess return when drift equals the rate
    mdl2 = example_model(riskfree=0.03, drift=[[0.03], [0.03]])
    assert mdl2.theta_at(0.5)[1] == pytest.approx(np.array([0.0]), abs=1e-15)


def test_theta_two_assets():
    mdl = example_model(d=2, riskfree=0.05,
                        drift=[[0.08, 0.05], [0.08, 0.05]],
                        vol=[np.eye(2).tolist()] * 2)
    np.testing.assert_allclose(mdl.theta_at(0.0)[0], [0.03, 0.0], atol=1e-15)


def test_theta_rejects_bad_regime_and_time():
    mdl = example_model()
    with pytest.raises(IndexError):
        mdl.theta_at(0.0)[5]
    with pytest.raises(DomainError):
        mdl.theta_at(mdl.T + 1.0)[0]


def test_theta_linear_in_drift():
    base = example_model()
    delta = 0.013
    shifted = example_model(drift=[[0.08 + delta], [0.035 + delta]])
    for i in range(2):
        assert shifted.theta_at(0.0)[i, 0] == pytest.approx(
            base.theta_at(0.0)[i, 0] + delta, abs=1e-15)


def test_piecewise_constant_tables():
    mdl = example_model(riskfree={"times": [0.0, 1.0],
                                  "values": [[0.03, 0.03], [0.05, 0.05]]})
    assert mdl.riskfree_at(0.5)[0] == 0.03
    assert mdl.riskfree_at(1.0)[0] == 0.05
    assert mdl.riskfree_at(1.7)[1] == 0.05
    # drift table kept constant across the merged breakpoints
    assert mdl.drift[mdl.epoch_of(1.7)][0, 0] == 0.08


def test_roundtrip_dict():
    mdl = example_model()
    again = RegimeModel.from_dict(mdl.to_dict())
    assert validate_model(again) == []
    np.testing.assert_array_equal(again.generator, mdl.generator)
    np.testing.assert_array_equal(again.vol, mdl.vol)


def test_load_model_from_shipped_config():
    from pathlib import Path

    from attnmv.cli import load_config
    path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    mdl = load_config(path).model
    assert validate_model(mdl) == []
    assert mdl.m == 2 and mdl.d == 1


@pytest.mark.parametrize("key, value", [
    ("m", 2.5), ("d", 1.9), ("m", "2"), ("d", None), ("m", True),
])
def test_from_dict_rejects_non_integer_counts(key, value):
    # a fractional count used to be truncated without a word (m=2.5 ran as 2)
    with pytest.raises(ConfigError, match=f"model.{key} must be an integer"):
        example_model(**{key: value})


def test_from_dict_accepts_integral_float_counts():
    mdl = example_model(m=2.0, d=1.0)
    assert (mdl.m, mdl.d) == (2, 1)
    assert type(mdl.m) is int and type(mdl.d) is int
