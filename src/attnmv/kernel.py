"""One-step transition law of the approximating chain.

For a node ``(x, phi)`` and a control ``(u, pi)`` the chain moves along the
lattice displacement catalog with probabilities built from upwind first
differences and central second differences of the filtered dynamics:

* wealth +-h1 carries ``(sbar^2 + 2 bbar^{+/-} h1) h2 / (2 h1^2)`` where
  ``bbar`` is the belief-averaged wealth drift and ``sbar^2`` the squared
  belief-averaged volatility row;
* belief coordinate i +-h1 carries the diagonal diffusion coefficient
  ``a_ii/2 - sum_{k != i} |a_ik| / 2`` plus the upwinded filter drift,
  all times ``h2 / h1^2``, with ``a = v v^T`` and
  ``v_i = sqrt(pi) phi_i (zeta_i - zeta_bar)``;
* the paired moves +-(e_i +- e_k) carry the sign parts of the
  off-diagonal ``a_ik`` times ``h2 / (4 h1^2)`` per ordered pair;
* the self-transition takes the complementary mass, which closes the law
  to total mass exactly 1 whenever all entries are nonnegative.

Nonnegativity of the belief-diagonal entries requires the belief diffusion
matrix to be diagonally dominant; with two regimes this always holds, with
three or more it restricts the admissible beliefs (the construction fails
fast with a scheme error rather than clipping).

The one-step mean is exact (equal to the drift times ``h2``); second
central moments match the diffusion times ``h2`` up to ``O(h1 h2)``.
Moments are evaluated on the raw displacement catalog; boundary projection
is monitored separately through occupancy metrics.

Every law is built by ``_coefficients`` for all controls of an epoch at
once, keeping the operation order of a one-control build, so row ``c`` of
a batch is bit-identical to a build of control ``c`` alone; ``_validate``
is the one check that clips float dust, closes the self mass and masks or
rejects invalid laws.  There is no single-node builder: the law of one
(node, control) pair is column ``n`` of row ``c`` of ``build_stencil_batch``.

Only the wealth rows change between coefficient epochs: the riskfree
rate, drift and volatility carry the time breaks.  The belief rows
(belief-diagonal and paired), the filter drift, the loadings ``v``, the
validator's tolerance and the belief terms of the closed-form stay are
built by ``_belief_rows`` and kept, read-only, in one slot per lattice,
keyed by the bytes of the attention levels, the generator and the signal
levels; a build with another key replaces the slot.  Every caller of the
builder shares it.  An epoch's build then forms ``bbar``, ``ssT``, the
wealth rows and the stay and validates the whole law, each operation on
the operands and in the order of a build from scratch, so every batch is
bit-identical to one.

Summation order: the builder, the validator and the moment sweep work on
(n_c, n_nodes) planes, and every sum over regimes, assets, outcomes or
belief pairs ``(i, k)`` (row-major) adds those planes in index order
(``_index_sum``).  No step reduces over a short trailing axis.  Index
order is also numpy's order for a sum over a trailing axis of fewer than 8
entries, so a plane sum has the bits of that array reduction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SchemeError
from .filtering import full_belief
from .lattice import Lattice
from .market import FloatArray, RegimeModel

#: entries more negative than this (relative to the coefficient scale) are
#: genuine scheme failures; tinier negatives are float cancellation noise
_NEG_TOL = 1e-13


def _index_sum(planes):
    """Sum of equal-shape arrays, added one after another in index order."""
    planes = iter(planes)
    total = np.array(next(planes), dtype=np.float64)
    for p in planes:
        total += p
    return total


class _BeliefRows(NamedTuple):
    """The parts of every epoch's law that only the beliefs shape.

    Built from the lattice, the attention levels, the generator and the
    signal levels, none of which change between coefficient epochs.
    """

    full: FloatArray         # (n, m) full belief per node
    qtil: FloatArray         # (n, m-1) filter drift
    v: FloatArray            # (m-1, n_c, n) belief noise loadings
    raw: FloatArray          # (n_c, n_out-3, n) belief-diagonal, paired rows
    neg_tol: FloatArray      # (n_c, 1) tolerance for negative weights
    quad: FloatArray         # (n_c, n) belief term of the closed-form stay
    abs_q: FloatArray        # (n,) sum_i |qtil_i|


# One slot per lattice: the belief rows of the last attention levels,
# generator and signal levels it was built with (keyed by their bytes)
_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _belief_rows(model: RegimeModel, lat: Lattice, pi_arr) -> _BeliefRows:
    """The belief rows for ``pi_arr`` on ``lat``, built once per key."""
    pi_arr = np.asarray(pi_arr, dtype=np.float64)
    key = tuple(np.ascontiguousarray(a, dtype=np.float64).tobytes()
                for a in (pi_arr, model.generator, model.signal_levels))
    slot = _ROWS.get(lat)
    if slot is not None and slot[0] == key:
        return slot[1]
    h1, h2 = lat.spec.h1, lat.spec.h2
    mm = model.m - 1
    c = h2 / (h1 * h1)
    full = full_belief(lat.phi)                                  # (n, m)
    zbar = full @ model.signal_levels
    qtil = (full @ model.generator)[:, :mm]                      # (n, mm)
    sqrt_pi = np.sqrt(pi_arr)[:, None]
    v = np.stack([(sqrt_pi * lat.phi[:, i])
                  * (model.signal_levels[i] - zbar) for i in range(mm)])
    absv = np.abs(v)
    abs_total = _index_sum(absv)                                 # sum_k |v_k|

    raw = np.empty((len(pi_arr), lat.n_out - 3, lat.n_nodes))
    for i in range(mm):
        # a_ii/2 - sum_{k != i} |a_ik|/2, as a_ii - |v_i| sum_k |v_k| / 2
        diag = v[i] * v[i] - 0.5 * (absv[i] * abs_total)
        raw[:, 2 * i] = (diag + np.maximum(qtil[:, i], 0.0) * h1) * c
        raw[:, 2 * i + 1] = (diag + np.maximum(-qtil[:, i], 0.0) * h1) * c
    o = 2 * mm
    for i in range(mm):
        for k in range(mm):
            if i == k:
                continue
            a_ik = v[i] * v[k]
            ap = np.maximum(a_ik, 0.0) * (0.25 * c)
            am = np.maximum(-a_ik, 0.0) * (0.25 * c)
            raw[:, o] = ap
            raw[:, o + 1] = ap
            raw[:, o + 2] = am
            raw[:, o + 3] = am
            o += 4

    # max |a_ik| over nodes and pairs is the square of the largest |v_i|
    # (rounding is monotone, so the two agree bit for bit)
    vmax = absv.max(axis=(0, 2), initial=0.0)
    neg_tol = -(_NEG_TOL * np.maximum(1.0, vmax * vmax))[:, None]
    quad = (h2 / (2 * h1 * h1)) * (
        _index_sum(absv[i] * absv[k] for i in range(mm) for k in range(mm))
        - 3.0 * _index_sum(v[i] * v[i] for i in range(mm)))
    abs_q = _index_sum(np.abs(qtil[:, i]) for i in range(mm))
    rows = _BeliefRows(full, qtil, v, raw, neg_tol, quad, abs_q)
    for a in rows:
        a.flags.writeable = False
    _ROWS[lat] = (key, rows)
    return rows


def _coefficients(model: RegimeModel, lat: Lattice, t: float, u_arr, pi_arr):
    """Raw probability tables of every control, plus the consistency targets.

    ``u_arr`` (n_c, d) and ``pi_arr`` (n_c,) give ``probs`` (n_c, n_out,
    n_nodes), ``bbar`` and ``ssT`` (n_c, n_nodes), ``qtil`` (n_nodes, m-1)
    and the belief noise loadings ``v`` (m-1, n_c, n_nodes), so that the
    belief covariance is ``a_ik = v[i] * v[k]``.  Each control's entries are
    the same floating-point operations, in the same order, as a build for
    that control alone.  Only the wealth rows depend on ``t``; the belief
    rows come from ``_belief_rows``.  No validation is performed here;
    callers decide between fail-fast and masking.
    """
    h1, h2 = lat.spec.h1, lat.spec.h2
    c = h2 / (h1 * h1)
    u_arr = np.asarray(u_arr, dtype=np.float64)
    pi_arr = np.asarray(pi_arr, dtype=np.float64)
    rows = _belief_rows(model, lat, pi_arr)
    full = rows.full

    r = model.riskfree_at(t)
    th_u = (model.theta_at(t) @ u_arr[:, :, None])[:, :, 0]      # (c, m)
    bbar = _index_sum(full[:, i] * (r[i] * lat.x + th_u[:, i, None])
                      for i in range(model.m)) \
        - (model.cost_coeff * pi_arr * pi_arr)[:, None] * lat.x
    usig = np.einsum("cl,mlj->cmj", u_arr, model.vol_at(t))
    sbar = full @ usig                                           # (c, n, d)
    ssT = _index_sum(sbar[:, :, j] * sbar[:, :, j]
                     for j in range(sbar.shape[2]))

    probs = np.empty((len(pi_arr), lat.n_out, lat.n_nodes))
    probs[:, 1] = (ssT + 2.0 * np.maximum(bbar, 0.0) * h1) * (0.5 * c)
    probs[:, 2] = (ssT + 2.0 * np.maximum(-bbar, 0.0) * h1) * (0.5 * c)
    probs[:, 3:] = rows.raw
    probs[:, 0] = 1.0 - _index_sum(probs[:, j] for j in range(1, lat.n_out))
    return probs, bbar, rows.qtil, ssT, rows.v


def _stay_closed_form(bbar, ssT, rows: _BeliefRows, h1, h2):
    """Self-transition mass from its closed-form expression (diagnostic).

    Algebraically identical to the complement used in the construction;
    the residual against it is reported so any non-closure would surface.
    """
    return rows.quad \
        - ((np.abs(bbar) + rows.abs_q) * h1 + ssT) * h2 / (h1 * h1) \
        + 1.0


def _validate(probs, neg_tol, *, strict: bool):
    """Clip float dust, close the self mass and mark or reject invalid laws.

    ``probs`` (n_c, n_out, n) is updated in place; ``neg_tol`` (n_c, 1) is
    each control's tolerance for negative weights.  Returns ``(valid,
    nonstay)``, both (n_c, n).  With ``strict`` the first invalid control
    raises, its body weights checked before its self mass, as a loop over
    controls would.
    """
    body = probs[:, 1:]
    bad = body[:, 0] < neg_tol
    for o in range(1, body.shape[1]):
        bad |= body[:, o] < neg_tol
    nonstay = _index_sum(np.maximum(body[:, o], 0.0)
                         for o in range(body.shape[1]))
    stay = 1.0 - nonstay
    valid = ~(bad | (stay < 0.0))
    if strict and not valid.all():
        ci = int(np.argmin(valid.all(axis=1)))
        if bad[ci].any():
            bad_ci = body[ci] < neg_tol[ci]
            o, n = np.unravel_index(np.argmax(bad_ci), bad_ci.shape)
            raise SchemeError(
                f"negative transition weight at node {n}, "
                f"outcome {o + 1}, control {ci} ({body[ci, o, n]:.3e}); "
                "belief diffusion not diagonally dominant, no time-step "
                "reduction can fix this",
                node=int(n), control=ci, entry=int(o + 1),
                value=float(body[ci, o, n]), shrink=None)
        n = int(np.argmin(stay[ci]))
        raise SchemeError(
            f"self-transition probability at node {n}, control "
            f"{ci} is negative ({stay[ci, n]:.3e}): time step too large; h2 "
            f"must be at most {1.0 / nonstay[ci, n]:.6g} times its value",
            node=n, control=ci, entry=0,
            value=float(stay[ci, n]), shrink=float(1.0 / nonstay[ci, n]))
    np.maximum(body, 0.0, out=body)
    probs[:, 0] = stay
    return valid, nonstay


@dataclass
class StencilBatch:
    """Vectorized stencils for a set of controls at one coefficient epoch.

    ``probs[c, o, n]`` is the weight of outcome ``o`` from node ``n`` under
    control ``c``; ``valid[c, n]`` marks probability laws with all entries
    in [0, 1].
    """

    probs: FloatArray        # (n_c, n_out, n_nodes)
    valid: np.ndarray        # (n_c, n_nodes) bool
    max_mass: float          # largest non-stay mass encountered
    stay_residual: float     # |closed-form self mass - complement|, max


def build_stencil_batch(model: RegimeModel, lat: Lattice, t: float,
                        u_arr: FloatArray, pi_arr: FloatArray,
                        *, strict: bool = False) -> StencilBatch:
    """Stencils for every control in ``(u_arr, pi_arr)`` at time ``t``.

    With ``strict`` any invalid entry raises; otherwise invalid
    (control, node) pairs are only masked out in ``valid``.
    """
    probs, bbar, _, ssT, _ = _coefficients(model, lat, t, u_arr, pi_arr)
    rows = _belief_rows(model, lat, pi_arr)     # the slot just used
    valid, nonstay = _validate(probs, rows.neg_tol, strict=strict)
    res = _stay_closed_form(bbar, ssT, rows, lat.spec.h1, lat.spec.h2) \
        - probs[:, 0]
    return StencilBatch(probs=probs, valid=valid,
                        max_mass=float(nonstay.max(initial=0.0)),
                        stay_residual=float(np.abs(res[valid]).max(initial=0.0)))


@dataclass
class ConsistencyReport:
    """Deviations of one-step moments from the local-consistency targets."""

    mean_dev: float          # max |E[dY] - f h2|
    second_dev: float        # max |CentralMoment2[dY] - Sigma Sigma' h2|


def _moment_deviations(model: RegimeModel, lat: Lattice, t: float,
                       u_arr: FloatArray, pi_arr: FloatArray):
    """Moment deviations of every control, each of shape (n_c, n_nodes).

    One pass over the outcomes forms ``p d_i`` for each coordinate ``i`` an
    outcome moves; the moments add ``p d_i`` and ``(p d_i) d_j`` in outcome
    order.  Terms of a coordinate an outcome leaves fixed are exact zeros
    and are skipped.  Every displacement coordinate is 0 or +-h1, so
    ``(p d_i) d_j = (p d_j) d_i`` and the upper triangle of the second
    moment holds every deviation.
    """
    h2 = lat.spec.h2
    probs, bbar, qtil, ssT, v = _coefficients(model, lat, t, u_arr, pi_arr)
    disp = lat.displacements                                     # (n_out, 1+mm)
    dims = range(disp.shape[1])
    drift = [bbar] + [qtil[:, i] for i in range(len(v))]
    moved = [[(probs[:, o] * disp[o, i], disp[o])
              for o in range(lat.n_out) if disp[o, i] != 0.0] for i in dims]
    mean = [_index_sum(pd for pd, _ in moved[i]) for i in dims]
    mean_dev = np.zeros_like(bbar)
    second_dev = np.zeros_like(bbar)
    for i in dims:
        np.maximum(mean_dev, np.abs(mean[i] - drift[i] * h2), out=mean_dev)
        for j in dims[i:]:
            terms = [pd * d[j] for pd, d in moved[i] if d[j] != 0.0]
            dev = (_index_sum(terms) if terms else 0.0) - mean[i] * mean[j]
            if i == j == 0:
                dev -= ssT * h2
            elif i > 0:
                dev -= (v[i - 1] * v[j - 1]) * h2
            np.maximum(second_dev, np.abs(dev), out=second_dev)
    return mean_dev, second_dev


def consistency_sweep(model: RegimeModel, lat: Lattice, t: float,
                      u_arr: FloatArray, pi_arr: FloatArray) -> ConsistencyReport:
    """Worst-case moment deviations over all nodes and controls."""
    mean_dev, second_dev = _moment_deviations(model, lat, t, u_arr, pi_arr)
    return ConsistencyReport(mean_dev=float(mean_dev.max(initial=0.0)),
                             second_dev=float(second_dev.max(initial=0.0)))
