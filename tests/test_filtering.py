import numpy as np
import pytest

from attnmv.errors import DomainError
from attnmv.filtering import (filter_diffusion, filter_drift, filter_step,
                              full_belief, project_simplex, zeta_bar)
from attnmv.market import example_model


def test_full_belief_complement():
    np.testing.assert_allclose(full_belief(np.array([0.2])), [0.2, 0.8])


def test_full_belief_vertex_m3():
    np.testing.assert_allclose(full_belief(np.array([1.0, 0.0])), [1.0, 0.0, 0.0])


def test_full_belief_rejects_oversum():
    with pytest.raises(DomainError):
        full_belief(np.array([0.5, 0.6]))
    with pytest.raises(DomainError):
        full_belief(np.array([-0.1]))


def test_zeta_bar_hand_value():
    mdl = example_model(signal_levels=[0.0, 1.0])
    assert zeta_bar(mdl, np.array([0.2])) == pytest.approx(0.8)


def test_zeta_bar_vertex_and_constant():
    mdl = example_model(signal_levels=[3.0, 7.0])
    assert zeta_bar(mdl, np.array([1.0])) == pytest.approx(3.0)
    const = example_model(signal_levels=[2.5, 2.5])
    for phi in (0.0, 0.3, 1.0):
        assert zeta_bar(const, np.array([phi])) == pytest.approx(2.5)


def test_filter_drift_hand_value():
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]])
    assert filter_drift(mdl, np.array([0.2]))[0] == pytest.approx(1.4)


def test_filter_drift_frozen_chain():
    mdl = example_model(generator=[[0.0, 0.0], [0.0, 0.0]])
    assert filter_drift(mdl, np.array([0.37]))[0] == 0.0


def test_filter_drift_stationary_point():
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]])
    assert filter_drift(mdl, np.array([2.0 / 3.0]))[0] == pytest.approx(0.0, abs=1e-15)


def test_filter_diffusion_hand_value():
    mdl = example_model(signal_levels=[0.0, 1.0], attention_max=4.0)
    out = filter_diffusion(mdl, np.array([0.2]), 4.0)
    assert out[0] == pytest.approx(-0.32)


def test_filter_diffusion_vanishes():
    mdl = example_model(signal_levels=[0.0, 1.0])
    assert filter_diffusion(mdl, np.array([1.0]), 1.0)[0] == pytest.approx(0.0)
    assert filter_diffusion(mdl, np.array([0.0]), 1.0)[0] == pytest.approx(0.0)
    const = example_model(signal_levels=[5.0, 5.0])
    assert filter_diffusion(const, np.array([0.4]), 1.0)[0] == pytest.approx(0.0)


def test_filter_diffusion_sqrt_scaling():
    mdl = example_model(signal_levels=[0.0, 1.0])
    one = filter_diffusion(mdl, np.array([0.3]), 0.5)
    two = filter_diffusion(mdl, np.array([0.3]), 1.0)
    np.testing.assert_allclose(two, one * np.sqrt(2.0), rtol=1e-15)


def test_filter_diffusion_bounds():
    mdl = example_model()
    with pytest.raises(DomainError):
        filter_diffusion(mdl, np.array([0.3]), 10.0)


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
    mdl = example_model(generator=[[-1.0, 1.0], [2.0, -2.0]])
    batch = np.array([[0.2], [0.5], [0.9]])
    drift = filter_drift(mdl, batch)
    for row, phi in zip(drift, batch):
        assert row[0] == pytest.approx(filter_drift(mdl, phi)[0])


def test_filter_step_is_drift_plus_diffusion():
    # filter_step shares one validated full belief between the two terms;
    # the result is the composition of the public pieces, bit for bit
    rng = np.random.default_rng(3)
    mdl = example_model(m=3, generator=[[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5],
                                        [1.0, 1.5, -2.5]],
                        riskfree=0.03, drift=[[0.08], [0.05], [0.02]],
                        vol=[[[0.2]], [[0.3]], [[0.4]]],
                        signal_levels=[0.0, 1.0, 2.0])
    phi = rng.dirichlet([1.0, 1.0, 1.0], size=200)[:, :2]
    pi = rng.uniform(mdl.attention_min, mdl.attention_max, size=200)
    dw = rng.normal(scale=np.sqrt(0.05), size=200)
    ref = project_simplex(phi + filter_drift(mdl, phi) * 0.05
                          + filter_diffusion(mdl, phi, pi) * dw[:, None])
    np.testing.assert_array_equal(filter_step(mdl, phi, pi, dw, 0.05), ref)


def test_filter_step_rejects_bad_inputs():
    mdl = example_model()
    for phi, pi, h in ((np.array([1.2]), 1.0, 0.01),     # off the simplex
                       (np.array([0.2]), 10.0, 0.01),    # attention too high
                       (np.array([0.2]), 1.0, 0.0)):     # step size
        with pytest.raises(DomainError):
            filter_step(mdl, phi, pi, 0.1, h)
