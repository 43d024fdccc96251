"""Discretization of the wealth-belief state space and of time.

A single step ``h1`` is shared by the wealth coordinate and the belief
coordinates (the differing physical units live in the coefficients, not in
the grid).  Wealth is truncated to ``[x_min, x_max]``; beliefs live on the
integer-scaled simplex ``{iphi >= 0 : h1 * sum(iphi) <= 1}``.  Nodes are
ordered lexicographically by ``(ix, iphi)``; this ordering is part of the
CSV output contract.

The transition law of the approximating chain moves along a fixed catalog
of displacements ("outcomes"): stay, wealth +-h1, one belief coordinate
+-h1, and, for three or more regimes, paired belief moves +-(e_i +- e_k).
Displacements that would leave the grid are projected to the nearest
boundary node (the wealth index clamps; an infeasible belief move is
cancelled), so off-grid mass is assigned to a boundary node and the law
stays a probability distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .market import FloatArray

_REL = 1e-9


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) <= _REL * max(1.0, abs(x))


@dataclass(frozen=True)
class GridSpec:
    """Step sizes and wealth range of the lattice.

    ``n_steps * h2`` must equal the model horizon (checked at solve time).
    ``(x_max - x_min) / h1`` must be integral.  ``1 / h1`` need not be: the
    belief grid simply stops at the largest multiple of ``h1`` below 1, so
    the simplex vertices at 1 are grid points only when ``1 / h1`` is
    integral.
    """

    h1: float
    h2: float
    x_min: float
    x_max: float
    n_steps: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.h1, self.h2, self.x_min,
                                       self.x_max))):
            raise ConfigError("h1, h2, x_min and x_max must be finite")
        if not self.h1 > 0 or not self.h2 > 0:
            raise ConfigError("h1 and h2 must be > 0")
        if not self.x_min < self.x_max:
            raise ConfigError("x_min must be < x_max")
        if not _is_integral((self.x_max - self.x_min) / self.h1):
            raise ConfigError(
                f"grid invariant violated: (x_max - x_min)/h1 = "
                f"{(self.x_max - self.x_min) / self.h1} is not an integer")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")

    @property
    def n_x(self) -> int:
        return int(round((self.x_max - self.x_min) / self.h1)) + 1

    @property
    def horizon(self) -> float:
        return self.n_steps * self.h2

    def check_horizon(self, T: float) -> None:
        if not math.isclose(self.horizon, T, rel_tol=1e-9, abs_tol=1e-12):
            raise ConfigError(
                f"n_steps * h2 = {self.horizon} does not equal the horizon {T}")


def outcome_offsets(m: int) -> list[tuple[int, FloatArray]]:
    """Canonical displacement catalog: (dx_steps, dphi_steps) per outcome.

    Order: stay; wealth +-1; belief coordinate i +-1 for each i; then for
    every ordered pair (i, k), i != k, the four paired moves
    +(e_i+e_k), -(e_i+e_k), +(e_i-e_k), -(e_i-e_k).
    """
    mm = m - 1
    zero = np.zeros(mm, dtype=np.int64)
    out: list[tuple[int, FloatArray]] = [(0, zero)]
    out += [(1, zero), (-1, zero)]
    for i in range(mm):
        e = np.zeros(mm, dtype=np.int64)
        e[i] = 1
        out += [(0, e), (0, -e)]
    for i in range(mm):
        for k in range(mm):
            if i == k:
                continue
            ei = np.zeros(mm, dtype=np.int64)
            ek = np.zeros(mm, dtype=np.int64)
            ei[i] = 1
            ek[k] = 1
            out += [(0, ei + ek), (0, -(ei + ek)), (0, ei - ek), (0, -(ei - ek))]
    return out


class Lattice:
    """Enumerated grid of (wealth, belief) nodes with neighbor tables.

    Attributes
    ----------
    x : (n_nodes,) wealth per node
    phi : (n_nodes, m-1) belief per node
    ix : (n_nodes,) wealth index
    iphi : (n_nodes, m-1) belief indices
    neighbors : (n_nodes, n_outcomes) destination node per outcome,
        after boundary projection
    neighbors_t : (n_outcomes, n_nodes) the same table outcome-major and
        C-contiguous, the layout the solver gathers through
    clamped : (n_nodes, n_outcomes) bool, True where the raw displacement
        left the grid and was projected
    memo : the kernel's read-only terms shared by every build on this
        lattice, ``{name: (key, value)}``
    """

    def __init__(self, spec: GridSpec, m: int):
        if m < 2:
            raise ConfigError("m must be >= 2")
        self.spec = spec
        self.m = m
        h1 = spec.h1
        self.K = int(math.floor(1.0 / h1 + _REL))
        mm = m - 1

        phi_rows = []
        self._enumerate_simplex(np.zeros(mm, dtype=np.int64), 0, self.K, phi_rows)
        self.iphi_levels = np.array(phi_rows, dtype=np.int64)          # (n_phi, mm)
        self.n_phi = len(phi_rows)
        self.n_x = spec.n_x
        self.n_nodes = self.n_x * self.n_phi

        # lexicographic node order: ix major, then iphi rows (already lex sorted)
        self.ix = np.repeat(np.arange(self.n_x, dtype=np.int64), self.n_phi)
        self.iphi = np.tile(self.iphi_levels, (self.n_x, 1))
        self.x = spec.x_min + self.ix * h1
        self.phi = self.iphi * h1

        # belief-row lookup: mixed-radix key over (K+1) digits
        self._strides = (self.K + 1) ** np.arange(mm, dtype=np.int64)
        keys = self.iphi_levels @ self._strides
        self._phi_row = np.full((self.K + 1) ** mm, -1, dtype=np.int64)
        self._phi_row[keys] = np.arange(self.n_phi)

        self.offsets = outcome_offsets(m)
        self.n_out = len(self.offsets)
        # physical displacement per outcome, scaled by h1: (n_out, 1+mm)
        self.displacements = np.array(
            [[dx] + list(dphi) for dx, dphi in self.offsets], dtype=np.float64) * h1

        self.neighbors, self.clamped = self._build_neighbors()
        self.neighbors_t = np.ascontiguousarray(self.neighbors.T)
        self.memo: dict = {}

    @staticmethod
    def _enumerate_simplex(work, pos, budget, out):
        if pos == len(work):
            out.append(work.copy())
            return
        for v in range(budget + 1):
            work[pos] = v
            Lattice._enumerate_simplex(work, pos + 1, budget - v, out)
        work[pos] = 0

    # -- indexing ----------------------------------------------------------

    def phi_row_of(self, iphi) -> np.ndarray:
        """Row index of belief-index vectors; -1 for infeasible vectors."""
        iphi = np.asarray(iphi, dtype=np.int64)
        key = iphi @ self._strides
        return self._phi_row[key]

    def index_of(self, ix, iphi) -> np.ndarray:
        row = self.phi_row_of(iphi)
        return np.asarray(ix, dtype=np.int64) * self.n_phi + row

    def _build_neighbors(self):
        nbr = np.empty((self.n_nodes, self.n_out), dtype=np.int64)
        clamped = np.zeros((self.n_nodes, self.n_out), dtype=bool)
        for o, (dx, dphi) in enumerate(self.offsets):
            ix2 = np.clip(self.ix + dx, 0, self.n_x - 1)
            x_clamp = ix2 != self.ix + dx
            w = self.iphi_levels + dphi
            ok = np.all(w >= 0, axis=1) & (w.sum(axis=1) <= self.K)
            rows = np.where(ok, self.phi_row_of(np.where(ok[:, None], w, 0)),
                            np.arange(self.n_phi))
            phi_clamp = ~ok
            nbr[:, o] = ix2 * self.n_phi + np.tile(rows, self.n_x)
            clamped[:, o] = x_clamp | np.tile(phi_clamp, self.n_x)
        return nbr, clamped

    # -- states ------------------------------------------------------------

    def nearest_node(self, x, phi) -> np.ndarray:
        """Nearest-node lookup for off-grid states (vectorized).

        Wealth rounds and clamps to the range; belief coordinates round and
        clamp to be nonnegative, then any simplex excess is removed by
        decrementing the largest coordinates (deterministic tie-break on
        the lowest index).
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        phi = np.atleast_2d(np.asarray(phi, dtype=np.float64))
        h1 = self.spec.h1
        ix = np.rint((x - self.spec.x_min) / h1).astype(np.int64)
        np.minimum(np.maximum(ix, 0, out=ix), self.n_x - 1, out=ix)
        w = np.rint(phi / h1).astype(np.int64)
        np.minimum(np.maximum(w, 0, out=w), self.K, out=w)
        if self.m > 2:      # one coordinate clipped to K is on the simplex
            # column sums: exact in int64, cheaper than short-row reductions
            excess = sum(w.T) - self.K
            for b in np.flatnonzero(excess > 0):
                row = w[b]
                for _ in range(int(excess[b])):
                    row[int(np.argmax(row))] -= 1
        key = sum(w.T * self._strides[:, None])
        return ix * self.n_phi + self._phi_row[key]


def build_grid(spec: GridSpec, m: int) -> Lattice:
    """Enumerate the full lattice (deterministic lexicographic order)."""
    return Lattice(spec, m)

