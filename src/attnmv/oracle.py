"""Independent Monte-Carlo verification of the lattice solution.

Two simulators cross-check the backward recursion:

* ``simulate_sde`` integrates the filtered wealth-belief dynamics by
  Euler-Maruyama under a feedback policy (wealth and belief driven by
  independent Brownian increments).  Its own drift code sums regimes,
  then positions, in index order on length-B path arrays, with no BLAS
  product or einsum;
* ``simulate_chain`` carries the approximating chain's exact terminal
  law forward under the stored policy, one slice at a time, and samples
  it: each path takes one uniform and ends at the inverse cumulative law
  at it, so the sample mean estimates the auxiliary function ``g`` at the
  start node.  The law itself holds ``g`` exactly; the samples keep the
  Monte-Carlo summary and the per-path terminal wealth of the artifacts.

``marginal_check`` validates the belief simulation alone against the
matrix exponential of the generator transpose: the belief mean follows
the forward equation regardless of the attention level.  The exponential
is ``_expm``, a scaled and squared Taylor sum, so numpy is the only
dependency.

Randomness contract: path ``i`` of a run with seed ``s`` draws the stream
of ``np.random.default_rng([s, i])``, so paths do not depend on batching
and identical seeds reproduce identical summaries.  The streams are not
built one ``default_rng`` at a time: every path's PCG64 state comes from
one vectorized pass that copies numpy's ``SeedSequence`` hashing and the
PCG64 seeding step exactly, and a test checks the rows against
``default_rng`` itself.  Seeds must be non-negative integers and path
indices below ``2**32``, so a path index is one entropy word.  Paths run
in batches of at most ``_MAX_BATCH`` paths, spread over up to one forked
worker per CPU of the affinity mask (in the calling process with one CPU
or one batch); ~150 MB of streams are in flight in all, and results
return in path order.

Every input from outside is checked once, before the first stream is
drawn or the chain's first batch is built; the step loops do not re-check
the belief, which each step's projection keeps on the simplex.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .filtering import check_attention, check_belief, filter_step, full_belief
from .market import FloatArray, RegimeModel, compose_objective
from .solver import SolutionFields, StencilCache, _select


@dataclass
class McSummary:
    """Moment estimates of terminal wealth from one simulation run."""

    n_paths: int
    mean_XT: float
    var_XT: float
    objective: float
    se_mean: float
    se_var: float
    boundary_hits: float

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(samples: FloatArray, model: RegimeModel,
              boundary_hits: float) -> McSummary:
    """Population-moment summary of terminal wealth samples.

    The objective follows ``model.objective_convention``.
    """
    n = len(samples)
    if n < 2:
        raise DomainError("need at least 2 paths")
    mean = float(samples.mean())
    centered = samples - mean
    var = float((centered ** 2).mean())
    m4 = float((centered ** 4).mean())
    se_mean = float(np.sqrt(var / n))
    se_var = float(np.sqrt(max(m4 - var * var, 0.0) / n))
    return McSummary(
        n_paths=n, mean_XT=mean, var_XT=var,
        objective=compose_objective(mean, var, model.risk_aversion,
                                    model.objective_convention),
        se_mean=se_mean, se_var=se_var, boundary_hits=float(boundary_hits))


def write_terminal_csv(path, samples: FloatArray) -> None:
    """Dump per-path terminal wealth (one column) for distribution plots."""
    with open(path, "w", newline="\n") as fh:
        fh.write("x_T\n")
        for v in samples:
            fh.write(repr(float(v)) + "\n")


# numpy's SeedSequence hash constants and the PCG64 LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _seed_states(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` per path.

    ``entropy`` holds the uint32 entropy words, one (count,) array per
    word; returns (count, 4) uint64.  The hash constants evolve the same
    way for every path, so they stay Python ints.
    """
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * _MULT_A & _M32
        v = v * np.uint32(hc)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hc = _INIT_B
    out = []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(hc)
        hc = hc * _MULT_B & _M32
        v = v * np.uint32(hc)
        out.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    return np.stack([out[2 * k] | out[2 * k + 1] << np.uint64(32)
                     for k in range(4)], axis=1)


def _path_streams(seed: int, first: int, count: int, shape: tuple,
                  draw: str) -> FloatArray:
    """Rows of ``Generator.<draw>`` output, path ``i`` seeded ``(seed, i)``.

    Row ``j`` equals ``default_rng([seed, first + j]).<draw>(shape)``: each
    path's PCG64 state is set on one reused generator, as PCG64 seeding
    sets it (``inc = 2 initseq + 1``, two LCG steps around ``initstate``).
    Needs ``first + count <= 2**32``, so each path index is one entropy
    word; ``_walk_paths`` ensures it.
    """
    out = np.empty((count, *shape))
    bitgen = np.random.PCG64(0)
    fill = getattr(np.random.Generator(bitgen), draw)
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0,
             "uinteger": 0}
    seed = int(seed)
    seed_words = [(seed >> s) & _M32
                  for s in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.full(count, w, dtype=np.uint32) for w in seed_words]
    words.append(np.arange(first, first + count, dtype=np.uint32))
    for j, row in enumerate(_seed_states(words)):
        s_hi, s_lo, q_hi, q_lo = row.tolist()
        inc = ((q_hi << 65) | (q_lo << 1) | 1) & _M128
        inner["inc"] = inc
        inner["state"] = (((s_hi << 64) + s_lo + inc) * _PCG_MULT
                          + inc) & _M128
        bitgen.state = state
        fill(out=out[j])
    return out


# A forked worker's batch function: set once per worker by the pool's
# initializer, so only a batch's first path index is pickled to it.
_worker_batch = None


def _adopt_batch(batch) -> None:
    global _worker_batch
    _worker_batch = batch


def _run_batch(first: int):
    return _worker_batch(first)


# Paths per batch at most; above 256 paths, a batch also holds at most
# ~20 M / cpus stream entries (~150 MB of float64 over all the workers).
_MAX_BATCH = 8192


def _check_paths(n_paths: int, seed: int) -> None:
    """Reject a path count or seed that ``_walk_paths`` cannot run."""
    if n_paths < 2:
        raise DomainError(f"need n_paths >= 2, got {n_paths}")
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or seed < 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if n_paths > 1 << 32:
        raise DomainError(f"path indices must stay below 2**32, got {n_paths} "
                          "paths")


def _walk_paths(walk, n_paths: int, seed: int, shape: tuple,
                draw: str) -> list:
    """``walk(streams)`` per batch of paths, in path order.

    Checks the arguments before any path is drawn.  A batch holds at most
    ``_MAX_BATCH`` paths and, above 256 paths, at most ~20 M / ``cpus``
    stream entries, where ``cpus`` counts the affinity mask; the batches
    come in multiples of ``cpus`` of equal size, none below 256 paths.
    ``streams`` is a batch's ``_path_streams`` rows.  With more than one
    batch and CPU, up to ``cpus`` forked workers run the batches, so ~150
    MB of streams are in flight in all; the workers inherit ``walk`` and
    everything it reads, and only path indices and results are pickled.
    Otherwise the batches run here, one after another.
    """
    _check_paths(n_paths, seed)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1
    cap = min(_MAX_BATCH,
              max(256, 20_000_000 // (cpus * max(1, math.prod(shape)))))
    # the fewest batches under the cap, rounded up to a multiple of the
    # CPUs so that the workers get equal shares, but no batch below 256
    n_batches = -(-n_paths // cap)
    n_batches = -(-n_batches // cpus) * cpus
    size = max(-(-n_paths // n_batches), min(cap, 256))
    firsts = range(0, n_paths, size)

    def batch(first):
        return walk(_path_streams(seed, first, min(size, n_paths - first),
                                  shape, draw))

    workers = min(cpus, len(firsts))
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers,
                                     multiprocessing.get_context("fork"),
                                     initializer=_adopt_batch,
                                     initargs=(batch,)) as pool:
                return list(pool.map(_run_batch, firsts))
    return [batch(first) for first in firsts]


def _step_count(span: float, h2: float, name: str) -> int:
    """Number of steps ``h2`` in ``span``, which it must divide."""
    if not (math.isfinite(h2) and h2 > 0):
        raise DomainError(f"step h2 must be finite and > 0, got {h2}")
    n_steps = int(round(span / h2))
    if n_steps < 1 or abs(n_steps * h2 - span) > 1e-9 * max(1.0, span):
        raise DomainError(f"{name} {span} is not a multiple of the step {h2}")
    return n_steps


class FeedbackPolicy:
    """Nearest-node lookup of the stored feedback law (no interpolation)."""

    def __init__(self, fields: SolutionFields):
        self.fields = fields
        self.u_all, self.pi_all = fields.grid.enumerate()

    def __call__(self, t: float, x: FloatArray, phi: FloatArray):
        f = self.fields
        n = min(math.floor(t / f.spec.h2 + 1e-9), f.spec.n_steps - 1)
        node = f.lat.nearest_node(x, phi)
        return (self.u_all[f.policy[n]][node],
                self.pi_all[f.policy[n]][node])


class ConstantPolicy:
    """Fixed control everywhere (for oracle unit tests)."""

    def __init__(self, u, pi: float):
        self.u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        self.pi = float(pi)

    def __call__(self, t, x, phi):
        n = len(np.atleast_1d(x))
        return np.tile(self.u, (n, 1)), np.full(n, self.pi)


def _dot(a, b):
    """``a[0] * b[0] + a[1] * b[1] + ...``, added in index order."""
    out = a[0] * b[0]
    for p, q in zip(a[1:], b[1:]):
        out = out + p * q
    return out


def simulate_sde(model: RegimeModel, policy, t0: float, x0: float,
                 phi0: FloatArray, n_paths: int, seed: int, *,
                 h2: float, x_bounds: tuple[float, float]) -> McSummary:
    """Euler-Maruyama simulation of the filtered wealth-belief system.

    Wealth moves with the belief-averaged drift and volatility row, the
    belief with the filter step; the two noises are independent.  Paths
    that leave ``x_bounds`` are counted, never clipped.
    """
    if not (math.isfinite(t0) and 0 <= t0 < model.T):
        raise DomainError(f"t0 must be finite and in [0, T), got {t0}")
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    check_belief(phi0, model.m)
    n_steps = _step_count(model.T - t0, h2, "horizon")
    m, d, k = model.m, model.d, model.cost_coeff
    sqrt_h2 = np.sqrt(h2)
    lo, hi = x_bounds
    times = [t0 + j * h2 for j in range(n_steps)]
    epochs = [model.epoch_of(t) for t in times]
    # per epoch: r[i], theta[i][l] and vol_t[i][j][l] = vol[i][l][j]
    coeffs = {e: (model.riskfree_at(t).tolist(), model.theta_at(t).tolist(),
                  model.vol_at(t).transpose(0, 2, 1).tolist())
              for e, t in dict(zip(epochs, times)).items()}

    def walk(dw):
        count = len(dw)
        x = np.full(count, float(x0))
        phi = np.tile(np.asarray(phi0, dtype=np.float64), (count, 1))
        out = np.zeros(count, dtype=bool)
        for j, (t, e) in enumerate(zip(times, epochs)):
            r, theta, vol_t = coeffs[e]
            u, pi = policy(t, x, phi)
            ul = [u[:, l] for l in range(d)]
            w = [phi[:, i] for i in range(m - 1)]
            w.append(1.0 - sum(w[1:], w[0]))
            bbar = _dot(w, [r[i] * x + _dot(ul, theta[i]) for i in range(m)]) \
                - k * pi * pi * x
            sbar = [_dot(w, [_dot(ul, vol_t[i][jj]) for i in range(m)])
                    for jj in range(d)]
            x = x + bbar * h2 + _dot(sbar, dw[:, j, :d].T) * sqrt_h2
            phi = filter_step(model, phi, pi, dw[:, j, d] * sqrt_h2, h2)
            out |= (x < lo) | (x > hi)
        return x, int(out.sum())

    parts = _walk_paths(walk, n_paths, seed, (n_steps, d + 1),
                        "standard_normal")
    terminal = np.concatenate([x for x, _ in parts])
    return summarize(terminal, model, sum(n for _, n in parts) / n_paths)


def _chain_law(fields: SolutionFields, start_node: int,
               cache: StencilCache) -> tuple[FloatArray, FloatArray]:
    """The chain's exact terminal law from ``start_node``: ``(clear, hit)``.

    Both are (n_nodes,): the probability of ending at each node without
    ever occupying a wealth-edge node, and the same for the paths that did
    (the start node counts).  One forward pass over the slices in time
    order, so ``cache`` builds each epoch once.
    """
    lat = fields.lat
    edge = (lat.ix == 0) | (lat.ix == lat.n_x - 1)
    to = lat.neighbors.ravel()
    clear, hit = np.zeros(lat.n_nodes), np.zeros(lat.n_nodes)
    (hit if edge[start_node] else clear)[start_node] = 1.0
    for n in range(fields.spec.n_steps):
        batch = cache.batch(fields.time_of(n))
        sel = _select(batch.probs, fields.policy[n],
                      cache.law_index).T                  # (n_nodes, n_out)
        clear, hit = (np.bincount(to, (sel * p[:, None]).ravel(), lat.n_nodes)
                      for p in (clear, hit))
        hit[edge] += clear[edge]
        clear[edge] = 0.0
    return clear, hit


def simulate_chain(model: RegimeModel, fields: SolutionFields, start_node: int,
                   n_paths: int, seed: int, *, terminal_csv=None,
                   cache: StencilCache | None = None) -> McSummary:
    """Sample the chain's terminal wealth under the stored feedback policy.

    ``_chain_law`` gives the chain's exact terminal law, so its mean is
    ``g`` at the start node up to roundoff.  Path ``i`` draws the first
    uniform of its stream and takes the (node, hit) outcome at which the
    law's cumulative sum passes it: the same distribution as a walk of
    the chain, from one draw per path.  ``boundary_hits`` is the fraction
    of paths that ever occupy a wealth-edge node.  A lent ``cache`` saves
    the first build when it holds the first slice's epoch.
    """
    lat = fields.lat
    if (not isinstance(start_node, (int, np.integer))
            or isinstance(start_node, bool)
            or not 0 <= start_node < lat.n_nodes):
        raise DomainError(f"start_node must be an integer in [0, "
                          f"{lat.n_nodes}), got {start_node!r}")
    _check_paths(n_paths, seed)
    if cache is None:
        cache = StencilCache(model, lat, fields.grid)
    law = np.concatenate(_chain_law(fields, start_node, cache))
    cdf = np.cumsum(law)

    # a uniform is below 1, so its product with the total rounds below it
    # and the search never passes the last outcome; an outcome without
    # mass is never taken
    def walk(uni):
        return np.searchsorted(cdf, uni[:, 0] * cdf[-1], side="right")

    k = np.concatenate(_walk_paths(walk, n_paths, seed, (1,), "random"))
    terminal = lat.x[k % lat.n_nodes]
    if terminal_csv is not None:
        write_terminal_csv(terminal_csv, terminal)
    return summarize(terminal, model, (k >= lat.n_nodes).sum() / n_paths)


def _expm(a: FloatArray) -> FloatArray:
    """Matrix exponential by scaling and squaring a Taylor sum.

    ``a`` is scaled by ``2**-s`` until its max-row-sum norm is at most
    1/2, where 20 terms leave a truncation error below 1e-25; the sum is
    then squared ``s`` times (Moler & Van Loan, SIAM Review 45, 2003).
    """
    # the norm is below 2**e for frexp's exponent e, so s = e + 1 will do
    s = max(0, math.frexp(float(np.abs(a).sum(axis=1).max()))[1] + 1)
    a = a * 2.0 ** -s
    term = out = np.eye(len(a))
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@dataclass
class MarginalReport:
    """Belief-mean agreement with the forward-equation oracle."""

    t: float
    n_paths: int
    mean: FloatArray          # (m,) sample mean of the full belief at t
    target: FloatArray        # (m,) exp(Q^T t) applied to the start belief
    se: FloatArray            # (m,) standard errors
    max_dev: float
    dev_over_3se: float

    def ok(self) -> bool:
        return self.dev_over_3se <= 1.0


def marginal_check(model: RegimeModel, phi0: FloatArray, pi: float, t: float,
                   n_paths: int, seed: int, *,
                   h2: float = 1e-3) -> MarginalReport:
    """Simulate the belief alone; compare its mean with the forward flow."""
    if not 0 < t <= model.T + 1e-12:
        raise DomainError(f"t must lie in (0, T], got {t}")
    check_attention(model, pi)
    check_belief(phi0, model.m)
    n_steps = _step_count(t, h2, "t")
    sqrt_h2 = np.sqrt(h2)

    def walk(dw):
        phi = np.tile(np.asarray(phi0, dtype=np.float64), (len(dw), 1))
        for j in range(n_steps):
            phi = filter_step(model, phi, pi, dw[:, j] * sqrt_h2, h2)
        return full_belief(phi)

    full = np.concatenate(_walk_paths(walk, n_paths, seed, (n_steps,),
                                      "standard_normal"))
    mean = full.sum(axis=0) / n_paths
    ssq = (full ** 2).sum(axis=0)
    var = np.maximum(ssq / n_paths - mean ** 2, 0.0)
    se = np.sqrt(var / n_paths)
    target = _expm(model.generator.T * t) @ full_belief(phi0)
    dev = np.abs(mean - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dev == 0.0, 0.0, dev / (3.0 * se))
    return MarginalReport(t=t, n_paths=n_paths, mean=mean, target=target,
                          se=se, max_dev=float(dev.max()),
                          dev_over_3se=float(np.nanmax(ratios)))
