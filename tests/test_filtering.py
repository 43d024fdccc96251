import numpy as np
import pytest

from attnmv.errors import DomainError
from attnmv.filtering import (check_belief, filter_step, full_belief,
                              project_simplex)
from attnmv.market import example_model


def test_full_belief_complement():
    np.testing.assert_allclose(full_belief(np.array([0.2])), [0.2, 0.8])


def test_full_belief_vertex_m3():
    np.testing.assert_allclose(full_belief(np.array([1.0, 0.0])), [1.0, 0.0, 0.0])


def test_check_belief_rejects_off_simplex():
    check_belief(np.array([0.5, 0.5]), 3)
    for phi, m in ((np.array([0.5, 0.6]), 3), (np.array([-0.1]), 2),
                   (np.array([1.2]), 2), (np.array([np.nan]), 2),
                   (np.array([0.2]), 3)):
        with pytest.raises(DomainError):
            check_belief(phi, m)


# filter_step is the one belief-step formula: its drift is read off a step
# with dw = 0, its noise loading off the difference of two steps

def _drift(mdl, phi, h=0.01):
    phi = np.asarray(phi, dtype=np.float64)
    return (filter_step(mdl, phi, 1.0, 0.0, h) - phi) / h


def _loading(mdl, phi, pi, dw=0.1, h=0.01):
    phi = np.asarray(phi, dtype=np.float64)
    return (filter_step(mdl, phi, pi, dw, h)
            - filter_step(mdl, phi, pi, 0.0, h)) / dw


def test_zeta_bar_hand_value():
    # loading phi (zeta_0 - zeta_bar) at pi = 1, with zeta_bar = 0.8
    mdl = example_model(signal_levels=[0.0, 1.0])
    assert -_loading(mdl, [0.2], 1.0)[0] / 0.2 == pytest.approx(0.8)


def test_zeta_bar_vertex_and_constant():
    # zeta_bar = zeta_0 - loading / phi at pi = 1
    mdl = example_model(signal_levels=[3.0, 7.0])
    assert 3.0 - _loading(mdl, [1.0], 1.0)[0] == pytest.approx(3.0)
    assert 3.0 - _loading(mdl, [0.25], 1.0)[0] / 0.25 == pytest.approx(6.0)
    const = example_model(signal_levels=[2.5, 2.5])
    for phi in (0.3, 1.0):
        assert 2.5 - _loading(const, [phi], 1.0)[0] / phi == pytest.approx(2.5)


def test_filter_drift_hand_value():
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]])
    assert _drift(mdl, [0.2])[0] == pytest.approx(1.4)


def test_filter_drift_frozen_chain():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]])
    assert _drift(mdl, [0.37])[0] == 0.0


def test_filter_drift_stationary_point():
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]])
    assert _drift(mdl, [2.0 / 3.0], h=1.0)[0] == pytest.approx(0.0, abs=1e-15)


def test_filter_diffusion_hand_value():
    mdl = example_model(signal_levels=[0.0, 1.0], attention_max=4.0)
    assert _loading(mdl, [0.2], 4.0)[0] == pytest.approx(-0.32)


def test_filter_diffusion_vanishes():
    mdl = example_model(signal_levels=[0.0, 1.0])
    assert _loading(mdl, [1.0], 1.0)[0] == pytest.approx(0.0)
    assert _loading(mdl, [0.0], 1.0)[0] == pytest.approx(0.0)
    const = example_model(signal_levels=[5.0, 5.0])
    assert _loading(const, [0.4], 1.0)[0] == pytest.approx(0.0)


def test_filter_diffusion_sqrt_scaling():
    # a difference of two steps carries the rounding of phi (ulp 5.6e-17)
    mdl = example_model(signal_levels=[0.0, 1.0])
    one = _loading(mdl, [0.3], 0.5)
    two = _loading(mdl, [0.3], 1.0)
    np.testing.assert_allclose(two, one * np.sqrt(2.0), rtol=1e-12)


def test_filter_step_hand_value():
    # phi=0.2, drift 1.4, diffusion -0.16 at pi=1: step 0.01, dW=0.1
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]],
                        signal_levels=[0.0, 1.0])
    out = filter_step(mdl, np.array([0.2]), 1.0, 0.1, 0.01)
    assert out[0] == pytest.approx(0.198, abs=1e-15)


def test_filter_step_frozen_identity():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]],
                        signal_levels=[1.0, 1.0])
    for phi in (0.0, 0.4, 1.0):
        out = filter_step(mdl, np.array([phi]), 1.5, 0.3, 0.01)
        assert out[0] == pytest.approx(phi)


def test_filter_step_stays_in_simplex():
    rng = np.random.default_rng(42)
    mdl = example_model(m=3, generator=[[-2.0, 1.0, 1.0],
                                        [0.5, -1.0, 0.5],
                                        [1.0, 1.5, -2.5]],
                        riskfree=0.03, drift=[[0.08], [0.05], [0.02]],
                        vol=[[[0.2]], [[0.3]], [[0.4]]],
                        signal_levels=[0.0, 1.0, 2.0])
    for _ in range(500):
        raw = rng.dirichlet([1.0, 1.0, 1.0])[:2]
        pi = rng.uniform(mdl.attention_min, mdl.attention_max)
        dw = rng.normal(scale=np.sqrt(0.05))
        out = filter_step(mdl, raw, pi, dw, 0.05)
        assert np.all(out >= 0.0)
        assert out.sum() <= 1.0 + 1e-12
        full = full_belief(out)
        assert full.sum() == pytest.approx(1.0, abs=1e-12)


def test_project_simplex_rescales():
    out = project_simplex(np.array([0.9, 0.4]))
    assert out.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(out, [0.9 / 1.3, 0.4 / 1.3])
    inside = project_simplex(np.array([0.2, 0.3]))
    np.testing.assert_array_equal(inside, [0.2, 0.3])


def test_batched_matches_scalar():
    rng = np.random.default_rng(3)
    mdl = example_model(m=3, generator=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5],
                                        [1.0, 1.5, -2.5]],
                        riskfree=0.03, drift=[[0.08], [0.05], [0.02]],
                        vol=[[[0.2]], [[0.3]], [[0.4]]],
                        signal_levels=[0.0, 1.0, 2.0])
    phi = rng.dirichlet([1.0, 1.0, 1.0], size=200)[:, :2]
    pi = rng.uniform(mdl.attention_min, mdl.attention_max, size=200)
    dw = rng.normal(scale=np.sqrt(0.05), size=200)
    batch = filter_step(mdl, phi, pi, dw, 0.05)
    for row, args in zip(batch, zip(phi, pi, dw)):
        np.testing.assert_array_equal(row, filter_step(mdl, *args, 0.05))


def test_filter_step_rejects_bad_inputs():
    # the policy supplies pi at every step, so each step checks its range
    mdl = example_model()
    for pi in (10.0, mdl.attention_min / 2.0, np.array([1.0, 10.0])):
        with pytest.raises(DomainError, match="attention"):
            filter_step(mdl, np.array([[0.2], [0.3]]), pi, 0.1, 0.01)
