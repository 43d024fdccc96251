"""Row ``c`` of a control batch is the one-control build of control ``c``,
and the batch's moment report is the worst of the one-control reports."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from attnmv.kernel import (  # noqa: E402
    ConsistencyReport, build_stencil_batch, consistency_sweep)
from attnmv.lattice import GridSpec, build_grid  # noqa: E402
from attnmv.market import example_model  # noqa: E402

SPEC = GridSpec(h1=0.25, h2=0.001, x_min=0.0, x_max=2.0, n_steps=10)


def _model(m: int, d: int):
    """Two or three regimes, ``d`` correlated assets, two coefficient epochs."""
    drift = [[0.08 - 0.02 * i + 0.01 * l for l in range(d)] for i in range(m)]
    vol = [[[(0.2 + 0.1 * i) if l == j else 0.05 * (l > j) for j in range(d)]
            for l in range(d)] for i in range(m)]
    generator = [[-1.0, 1.0], [1.5, -1.5]] if m == 2 else \
        [[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 1.5, -2.5]]
    return example_model(
        m=m, d=d, T=1.0, generator=generator,
        signal_levels=[0.0, 1.0] if m == 2 else [0.0, 1.0, 2.0],
        riskfree={"times": [0.0, 0.5], "values": [[0.03] * m, [0.01] * m]},
        drift={"times": [0.0, 0.5],
               "values": [drift, [[v * 0.5 for v in row] for row in drift]]},
        vol=vol)


def _rows(m, d):
    return st.lists(st.tuples(
        st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d),
        st.floats(0.0, 2.0)), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3]), d=st.sampled_from([1, 2]),
       t=st.sampled_from([0.0, 0.7]))
def test_batch_row_is_one_control_build(data, m, d, t):
    controls = data.draw(_rows(m, d))
    u_arr = np.array([u for u, _ in controls])
    pi_arr = np.array([pi for _, pi in controls])
    mdl, lat = _model(m, d), build_grid(SPEC, m)
    full = build_stencil_batch(mdl, lat, t, u_arr, pi_arr)
    rep = consistency_sweep(mdl, lat, t, u_arr, pi_arr)
    ones = []
    for ci in range(len(pi_arr)):
        one = build_stencil_batch(mdl, lat, t, u_arr[ci:ci + 1],
                                  pi_arr[ci:ci + 1])
        for name in ("probs", "valid"):
            assert getattr(one, name)[0].tobytes() == \
                getattr(full, name)[ci].tobytes()
        ones.append(consistency_sweep(mdl, lat, t, u_arr[ci:ci + 1],
                                      pi_arr[ci:ci + 1]))
    assert rep == ConsistencyReport(max(r.mean_dev for r in ones),
                                    max(r.second_dev for r in ones))
