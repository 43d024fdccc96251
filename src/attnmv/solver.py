"""Backward induction for the coupled value / auxiliary-mean pair.

Per time slice the solver carries the equilibrium value ``V`` and the
auxiliary function ``g`` (conditional mean of terminal wealth under the
equilibrium feedback law).  With ``J(mean, var)`` the model's objective
(``market.compose_objective``), ``b = J(0, 1)`` and ``s = sign(b)`` (``J``
is minimized where ``s = 1``), the step from slice ``n+1`` to ``n`` is the
extended HJB equation taken exactly on the chain:

* control ``c`` scores ``s E_c[V_{n+1}] + |b| Var_c[g_{n+1}]`` under its
  stencil law; the lowest score is the policy (ties go to the enumeration
  order: smallest position, then smallest attention) and ``V_n = s min``;
* ``g_n`` is the stencil average of ``g_{n+1}`` under that control.

From ``V_N = J(x, 0)`` and ``g_N = x`` this gives ``V = J(g, h - g^2)``,
``h`` the conditional second moment of terminal wealth.  The sweep and the
one-step ("spike") check read the same ``_candidates`` table from the same
cached batch, so a solved run's spike margin is exactly zero.

Every per-slice contraction gathers ``V`` and ``g`` through the lattice's
outcome-major neighbour table ``neighbors_t`` (``(n_out, n_nodes)``, nodes
contiguous) and reduces ``(n_out, n_nodes)`` planes over the outcomes.
With these operands einsum's inner loop runs over contiguous nodes, while
each sum still adds the outcomes one after another in index order: the
bits are those of the node-major contraction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SchemeError
from .kernel import StencilBatch, build_stencil_batch
from .lattice import GridSpec, Lattice, _is_integral, build_grid
from .market import (FloatArray, RegimeModel, compose_objective,
                     validate_model)

log = logging.getLogger("attnmv")


@dataclass(frozen=True)
class ControlGrid:
    """Finite search set for the per-node minimization.

    ``u_levels`` spans ``[0, u_max]^d`` with step ``du`` (always containing
    the zero position); ``pi_levels`` spans the attention interval
    inclusively.  The flattened enumeration (positions outer, attention
    inner, both ascending) is the deterministic tie-break order.
    """

    u_levels: FloatArray      # (n_u, d)
    pi_levels: FloatArray     # (n_pi,)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.u_levels, dtype=np.float64))
        p = np.asarray(self.pi_levels, dtype=np.float64)
        if u.size == 0 or p.size == 0:
            raise ConfigError("control grid must be non-empty")
        if not np.any(np.all(u == 0.0, axis=1)):
            raise ConfigError("u_levels must include the zero position")
        object.__setattr__(self, "u_levels", u)
        object.__setattr__(self, "pi_levels", p)

    @classmethod
    def regular(cls, d: int, u_max: float, du: float,
                pi_min: float, pi_max: float, n_pi: int) -> "ControlGrid":
        if not (math.isfinite(du) and du > 0):
            raise ConfigError(f"du must be finite and > 0, got {du}")
        if not (math.isfinite(u_max) and u_max >= 0):
            raise ConfigError(f"u_max must be finite and >= 0, got {u_max}")
        if not _is_integral(u_max / du):
            raise ConfigError(f"u_max/du = {u_max / du} is not an integer")
        n_u = int(round(u_max / du)) + 1
        axis = np.linspace(0.0, u_max, n_u)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        u = np.stack([g.ravel() for g in grids], axis=1)
        if n_pi < 1:
            raise ConfigError("n_pi must be >= 1")
        pi = np.linspace(pi_min, pi_max, n_pi) if n_pi > 1 else np.array([pi_min])
        return cls(u_levels=u, pi_levels=pi)

    @property
    def n_controls(self) -> int:
        return len(self.u_levels) * len(self.pi_levels)

    def enumerate(self) -> tuple[FloatArray, FloatArray]:
        """(u, pi) arrays of shape (n_controls, d) and (n_controls,)."""
        n_u, d = self.u_levels.shape
        n_pi = len(self.pi_levels)
        u = np.repeat(self.u_levels, n_pi, axis=0)
        pi = np.tile(self.pi_levels, n_u)
        return u, pi


@dataclass
class SolutionFields:
    """Per-slice arrays of the solved backward recursion.

    ``V[n]`` and ``g[n]`` are defined for ``n = 0..N``; ``policy[n]`` (an
    index into the control grid enumeration) for ``n = 0..N-1``.
    """

    model: RegimeModel
    spec: GridSpec
    lat: Lattice
    grid: ControlGrid
    V: FloatArray             # (N+1, n_nodes)
    g: FloatArray             # (N+1, n_nodes)
    policy: np.ndarray        # (N, n_nodes) int32
    cfl_max_mass: float = 0.0
    stay_residual: float = 0.0
    masked_pairs: int = 0     # invalid (control, node) pairs, all epochs
    clamped_mass: FloatArray = field(default_factory=lambda: np.zeros(0))

    def time_of(self, n: int) -> float:
        return n * self.spec.h2

    def policy_u(self, n: int) -> FloatArray:
        """Position per node at slice ``n``; NaN on the terminal slice."""
        return self._policy_levels(n, 0)

    def policy_pi(self, n: int) -> FloatArray:
        """Attention per node at slice ``n``; NaN on the terminal slice."""
        return self._policy_levels(n, 1)

    def _policy_levels(self, n: int, which: int) -> FloatArray:
        levels = self.grid.enumerate()[which]
        if n == len(self.policy):          # the terminal slice has no policy
            return np.full((self.lat.n_nodes,) + levels.shape[1:], np.nan)
        return levels[self.policy[n]]


# ---------------------------------------------------------------------------
# candidate evaluation


def _variance_weight(model: RegimeModel) -> float:
    """``b = J(0, 1)``, the objective's weight on the variance (never 0)."""
    return compose_objective(0.0, 1.0, model.risk_aversion,
                             model.objective_convention)


def _candidates(cache: StencilCache, batch: StencilBatch, V_next: FloatArray,
                g_next: FloatArray) -> FloatArray:
    """``s E_c[V] + |b| Var_c[g]`` (n_c, n_nodes); invalid controls get +inf.

    ``Var_c`` is taken of ``g`` minus the node's own value: the same
    variance with small squares, so a pure stay scores exactly ``s V``.
    The gathered planes are outcome-major ``(n_out, n)``, so the einsums'
    inner loop runs over contiguous nodes and adds the outcomes in index
    order, the order of the node-major ``(n, n_out)`` contraction.
    """
    b = _variance_weight(cache.model)
    nbr = cache.lat.neighbors_t
    dg = g_next[nbr] - g_next                                   # (n_out, n)
    cand = np.einsum("con,on->cn", batch.probs,
                     np.sign(b) * V_next[nbr] + abs(b) * (dg * dg))
    mean = np.einsum("con,on->cn", batch.probs, dg)
    cand -= abs(b) * (mean * mean)
    if not batch.valid.all():
        cand = np.where(batch.valid, cand, np.inf)
    return cand


# ---------------------------------------------------------------------------
# the backward sweep


class EpochSummary(NamedTuple):
    """What the solve reports of one epoch's batch."""

    max_mass: float           # largest non-stay mass
    stay_residual: float
    masked_pairs: int         # invalid (control, node) pairs


class StencilCache:
    """The stencil batch of one coefficient epoch at a time.

    ``batch(t)`` returns the batch of the epoch holding ``t``; on a miss it
    drops the batch it holds before building the next, so memory does not
    grow with the number of epochs.  Every pass over the slices (the
    backward sweep, the post-hoc checks, the chain oracle) moves through
    the epochs in order, so it builds each epoch once per pass.  The
    first build of an epoch records its ``EpochSummary`` in ``epochs``.
    """

    def __init__(self, model, lat, grid):
        self.model = model
        self.lat = lat
        self.grid = grid
        self.u_arr, self.pi_arr = grid.enumerate()
        self.law_index = np.arange(lat.n_out * lat.n_nodes).reshape(
            lat.n_out, lat.n_nodes)                     # for ``_select``
        self.batches: dict[int, StencilBatch] = {}     # at most one epoch
        self.epochs: dict[int, EpochSummary] = {}      # by epoch index

    def batch(self, t: float) -> StencilBatch:
        e = self.model.epoch_of(t)
        if e not in self.batches:
            self.batches.clear()
            t_epoch = float(self.model.time_breaks[e])
            b = build_stencil_batch(
                self.model, self.lat, t_epoch, self.u_arr, self.pi_arr)
            self.batches[e] = b
            if e not in self.epochs:
                self.epochs[e] = EpochSummary(
                    b.max_mass, b.stay_residual, int((~b.valid).sum()))
        return self.batches[e]


def _select(probs: FloatArray, idx: np.ndarray,
            law_index: np.ndarray) -> FloatArray:
    """probs (n_c, n_out, n) selected per node -> (n_out, n), C-contiguous.

    ``law_index`` is ``arange(n_out * n).reshape(n_out, n)``, the flat
    index of control 0's law, so one flat ``take`` gives entry ``(o, j)``
    as ``probs[idx[j], o, j]``.  The layout matters: against the
    outcome-major gather of ``g`` the ``g`` einsum runs over contiguous
    nodes and adds the outcomes in index order; a transposed view would
    be summed in another order.
    """
    return probs.take(law_index + idx * law_index.size)


def _slice_batch(model: RegimeModel, fields: SolutionFields, n: int,
                 cache: StencilCache) -> StencilBatch:
    """The batch of slice ``n``; ``cache`` must be built for ``model``."""
    if model is not cache.model:
        raise ConfigError("stencil cache built for another model")
    return cache.batch(fields.time_of(n))


def step_back(model: RegimeModel, fields: SolutionFields, n: int,
              cache: StencilCache) -> None:
    """Populate slice ``n`` of ``fields`` from slice ``n + 1``."""
    lat = fields.lat
    batch = _slice_batch(model, fields, n, cache)
    cand = _candidates(cache, batch, fields.V[n + 1], fields.g[n + 1])
    idx = np.argmin(cand, axis=0)
    best = cand[idx, np.arange(lat.n_nodes)]
    if not np.all(np.isfinite(best)):
        bad = int(np.argmax(~np.isfinite(best)))
        stay = batch.probs[:, 0, bad]
        # a smaller h2 cures a negative self mass (the factor given closes
        # the mildest one) but never a negative belief weight
        if not (stay < 0.0).any():
            raise SchemeError(
                f"no control has a valid transition law at node {bad} (slice "
                f"{n}) and none has a negative self mass: belief diffusion "
                "not diagonally dominant, no time-step reduction can fix this",
                node=bad)
        shrink = float(1.0 / (1.0 - stay[stay < 0.0].max()))
        raise SchemeError(
            f"every control violates the step-size condition at node {bad} "
            f"(slice {n}); h2 must be at most {shrink:.6g} times its value",
            node=bad, shrink=shrink)
    fields.V[n] = np.sign(_variance_weight(cache.model)) * best
    fields.policy[n] = idx.astype(np.int32)
    probs_sel = _select(batch.probs, idx, cache.law_index)
    fields.g[n] = np.einsum("on,on->n", probs_sel,
                             fields.g[n + 1][lat.neighbors_t])
    if fields.clamped_mass.size:
        fields.clamped_mass[n] = float(
            (probs_sel * lat.clamped.T).sum() / lat.n_nodes)


def solve(model: RegimeModel, spec: GridSpec, grid: ControlGrid,
          *, progress: bool = False,
          cache: StencilCache | None = None) -> SolutionFields:
    """Run the full backward sweep from the terminal slice to time zero.

    A ``cache`` built from this ``model``, ``grid`` and a lattice on
    ``spec`` lends its lattice and the batch it holds.  The CFL mass,
    stay residual and masked-pair count cover every epoch in the cache's
    ``epochs`` table, each counted once.
    """
    bad = validate_model(model)
    if bad:
        raise ConfigError("invalid model: " + "; ".join(bad))
    spec.check_horizon(model.T)
    if cache is None:
        cache = StencilCache(model, build_grid(spec, model.m), grid)
    elif cache.model is not model or cache.grid is not grid \
            or cache.lat.spec != spec:
        raise ConfigError("stencil cache built for another model, control "
                          "grid or grid spec")
    lat = cache.lat
    N = spec.n_steps
    fields = SolutionFields(
        model=model, spec=spec, lat=lat, grid=grid,
        V=np.empty((N + 1, lat.n_nodes)),
        g=np.empty((N + 1, lat.n_nodes)),
        policy=np.empty((N, lat.n_nodes), dtype=np.int32),
        clamped_mass=np.zeros(N),
    )
    fields.V[N] = compose_objective(lat.x, 0.0, model.risk_aversion,
                                    model.objective_convention)
    fields.g[N] = lat.x
    report_every = max(1, N // 10)
    for n in range(N - 1, -1, -1):
        step_back(model, fields, n, cache)
        if progress and n % report_every == 0:
            log.info("slice %d/%d done", N - n, N)
    epochs = cache.epochs.values()
    fields.cfl_max_mass = max(s.max_mass for s in epochs)
    fields.stay_residual = max(s.stay_residual for s in epochs)
    fields.masked_pairs = sum(s.masked_pairs for s in epochs)
    return fields


# ---------------------------------------------------------------------------
# post-hoc checks and derived quantities


def spike_margins(model: RegimeModel, fields: SolutionFields, n: int,
                  cache: StencilCache) -> FloatArray:
    """Per-node one-step deviation margin at slice ``n``.

    ``min_c candidate(c) - candidate(stored policy)``; nonnegative up to
    roundoff exactly when the stored policy is the per-node argmin.
    """
    lat = fields.lat
    batch = _slice_batch(model, fields, n, cache)
    cand = _candidates(cache, batch, fields.V[n + 1], fields.g[n + 1])
    stored = cand[fields.policy[n], np.arange(lat.n_nodes)]
    return cand.min(axis=0) - stored


def g_residuals(model: RegimeModel, fields: SolutionFields, n: int,
                cache: StencilCache) -> FloatArray:
    """|g_n - stencil average of g_{n+1} under the stored policy| per node."""
    lat = fields.lat
    batch = _slice_batch(model, fields, n, cache)
    probs_sel = _select(batch.probs, fields.policy[n], cache.law_index)
    expect = np.einsum("on,on->n", probs_sel,
                       fields.g[n + 1][lat.neighbors_t])
    return np.abs(fields.g[n] - expect)


def ratio_policy(fields: SolutionFields, n: int) -> FloatArray:
    """Risky-position-to-wealth ratio u/x per node at slice ``n``; NaN at x = 0."""
    x = fields.lat.x
    u = fields.policy_u(n)
    defined = x != 0.0
    w = np.full_like(u, np.nan)
    w[defined] = u[defined] / x[defined, None]
    return w
