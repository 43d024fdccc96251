import math

import numpy as np
import pytest

from attnmv.errors import ConfigError
from attnmv.lattice import GridSpec, build_grid, outcome_offsets


def make_spec(h1=0.2, h2=0.001, x_min=0.0, x_max=4.0, n_steps=2000):
    return GridSpec(h1=h1, h2=h2, x_min=x_min, x_max=x_max, n_steps=n_steps)


def test_default_grid_counts():
    lat = build_grid(make_spec(), 2)
    assert lat.n_x == 21
    assert lat.n_phi == 6
    assert lat.n_nodes == 126


def test_phi_levels_h1_half():
    lat = build_grid(make_spec(h1=0.5, x_max=4.0), 2)
    np.testing.assert_allclose(np.unique(lat.phi), [0.0, 0.5, 1.0])


def test_rejects_h1_not_dividing_range():
    with pytest.raises(ConfigError, match="grid invariant"):
        make_spec(h1=0.3)


def test_coarse_h1_without_vertex():
    # 1/h1 is not integral: allowed, the belief grid just stops below 1
    lat = build_grid(make_spec(h1=0.4), 2)
    np.testing.assert_allclose(np.unique(lat.phi), [0.0, 0.4, 0.8])
    assert lat.n_x == 11


def test_simplex_count_matches_binomial():
    for h1, m in [(0.2, 2), (0.2, 3), (0.5, 3), (0.25, 4)]:
        lat = build_grid(make_spec(h1=h1, x_max=1.0 if h1 == 0.25 else 4.0), m)
        assert lat.n_phi == math.comb(lat.K + m - 1, m - 1)


def test_node_coordinates():
    lat = build_grid(make_spec(), 2)
    assert lat.x[int(lat.index_of(0, np.array([0])))] == 0.0
    node = int(lat.index_of(7, np.array([5])))
    assert lat.x[node] == pytest.approx(1.4)
    assert lat.phi[node][0] == pytest.approx(1.0)


def test_roundtrip_indexing():
    lat = build_grid(make_spec(h1=0.5, x_max=2.0), 3)
    for idx in range(lat.n_nodes):
        again = int(lat.index_of(int(lat.ix[idx]), lat.iphi[idx]))
        assert again == idx


def test_roundtrip_through_states():
    # every node's real-valued state re-indexes to the same node
    for m in (2, 3):
        lat = build_grid(make_spec(h1=0.2, x_max=2.0), m)
        back = lat.nearest_node(lat.x, lat.phi)
        np.testing.assert_array_equal(back, np.arange(lat.n_nodes))


def test_lexicographic_order():
    lat = build_grid(make_spec(), 2)
    keys = list(zip(lat.ix.tolist(), [tuple(r) for r in lat.iphi.tolist()]))
    assert keys == sorted(keys)


def test_clamp_interior_and_boundary():
    lat = build_grid(make_spec(), 2)
    interior = int(lat.index_of(5, np.array([2])))
    # outcome 1 = x + h1
    assert int(lat.neighbors[interior, 1]) == int(lat.index_of(6, np.array([2])))
    top = int(lat.index_of(lat.n_x - 1, np.array([2])))
    assert int(lat.neighbors[top, 1]) == top
    vertex = int(lat.index_of(5, np.array([5])))
    # outcome 3 = phi1 + h1 runs off the simplex: move cancelled
    assert int(lat.neighbors[vertex, 3]) == vertex
    zero = int(lat.index_of(5, np.array([0])))
    assert int(lat.neighbors[zero, 4]) == zero


def test_clamp_idempotent_and_in_grid():
    lat = build_grid(make_spec(h1=0.5, x_max=2.0), 3)
    for idx in range(lat.n_nodes):
        for o in range(lat.n_out):
            dest = int(lat.neighbors[idx, o])
            assert 0 <= dest < lat.n_nodes
            # moving "nowhere" from the destination is the destination
            assert int(lat.neighbors[dest, 0]) == dest


def test_outcome_catalog_size():
    assert len(outcome_offsets(2)) == 5
    assert len(outcome_offsets(3)) == 15
    lat = build_grid(make_spec(h1=0.5, x_max=2.0), 3)
    assert lat.n_out == 15


@pytest.mark.parametrize("m", [2, 3, 4])
def test_no_outcome_moves_wealth_and_belief_together(m):
    # the moment sweep keeps the belief coordinates' moments per lattice
    # because no outcome moves wealth and a belief coordinate at once
    for dx, dphi in outcome_offsets(m):
        assert dx == 0 or not np.any(dphi)


def test_nearest_node_roundtrip_and_offgrid():
    lat = build_grid(make_spec(), 2)
    idx = lat.nearest_node(np.array([1.4]), np.array([[0.2]]))
    assert int(idx[0]) == int(lat.index_of(7, np.array([1])))
    # off-grid states snap; out-of-range wealth clamps
    idx = lat.nearest_node(np.array([1.49, 9.0, -3.0]),
                           np.array([[0.29], [0.0], [1.3]]))
    assert int(idx[0]) == int(lat.index_of(7, np.array([1])))
    assert int(idx[1]) == int(lat.index_of(20, np.array([0])))
    assert int(idx[2]) == int(lat.index_of(0, np.array([5])))


def test_nearest_node_removes_simplex_excess():
    # rounding gives (3, 3) and (1, 5), both above K = 5: the largest
    # coordinate loses the excess, the lowest index first on a tie
    lat = build_grid(make_spec(), 3)
    idx = lat.nearest_node(np.array([1.0, 1.0]),
                           np.array([[0.55, 0.55], [0.2, 0.95]]))
    assert int(idx[0]) == int(lat.index_of(5, np.array([2, 3])))
    assert int(idx[1]) == int(lat.index_of(5, np.array([1, 4])))


def test_negative_wealth_range():
    lat = build_grid(make_spec(x_min=-1.0, x_max=1.0), 2)
    assert lat.n_x == 11
    assert lat.x.min() == -1.0
    assert lat.x[int(lat.index_of(2, np.array([0])))] == pytest.approx(-0.6)


def test_horizon_check():
    spec = make_spec()
    spec.check_horizon(2.0)
    with pytest.raises(ConfigError):
        spec.check_horizon(1.5)
