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

Every law is built for all controls of an epoch at once, keeping the
operation order of a one-control build, so row ``c`` of a batch is
bit-identical to a build of control ``c`` alone.  There is no single-node
builder: the law of one (node, control) pair is column ``n`` of row ``c``
of ``build_stencil_batch``.

Only the wealth rows change between coefficient epochs: the riskfree
rate, drift and volatility carry the time breaks.  Whatever several builds
share is kept read-only in one memo per lattice (``lat.memo``, through
``_memo``), which holds the last value of each named term and builds it
again when the term's key, made of the bytes of its inputs, changes:

* ``rows``, keyed by the attention levels, the generator, the signal
  levels and the cost coefficient: the belief rows (belief-diagonal and
  paired), the mask of (control, node) pairs where one of them is below
  the tolerance for negative weights, the filter drift, the loadings
  ``v``, the tolerance, the belief terms of the closed-form stay and the
  attention-cost plane ``(k pi^2) x``;
* ``ssT``, keyed by the shape and bytes of the positions and of the
  epoch's volatility: the squared belief-averaged volatility row;
* ``wealth``, keyed by the key of ``rows``, the positions and the epoch's
  riskfree rate, drift and volatility: ``bbar`` and the two wealth rows,
  so the moment sweep of an epoch reads those of the build before it;
* ``moments``, keyed like ``rows`` and built by the first moment sweep:
  the belief coordinates' one-step means and their largest mean and
  second-moment deviations.  No catalog outcome moves wealth and a belief
  coordinate together, so these do not depend on the epoch.

An epoch's build copies in the wealth rows and the stored belief rows
clipped at 0 and closes the stay.  The wealth rows are a square plus a
positive part, times a positive factor, so they are never negative: the
stored mask is the whole tolerance check, and clipping them would change
no bit.  The moment sweep has one half per kind of coordinate:
``_belief_moments`` builds ``moments`` once per lattice, and per epoch the
wealth rows give the wealth mean and every deviation involving wealth,
the cross terms reading the stored belief means.  Each operation has the
operands and the order of a build or sweep of the whole law from scratch,
so every batch and report is bit-identical to one.

Summation order: the builder and the moment sweep work on (n_c, n_nodes)
planes, and every sum over regimes, assets, outcomes or belief pairs
``(i, k)`` (row-major) adds those planes in index order (``_index_sum``).
No step reduces over a short trailing axis.  Index order is also numpy's
order for a sum over a trailing axis of fewer than 8 entries, so a plane
sum has the bits of that array reduction.
"""

from __future__ import annotations

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
    first = next(planes)
    second = next(planes, None)
    if second is None:
        return np.array(first, dtype=np.float64)
    total = np.add(first, second, dtype=np.float64)
    for p in planes:
        total += p
    return total


def _memo(lat: Lattice, name: str, key, build):
    """Term ``name`` of ``lat`` for ``key``; ``build()`` makes it on a miss.

    ``lat.memo`` holds ``{name: (key, value)}``, the last value of each
    term and the key it was built with.  The value it replaces is dropped
    first, so the two are never held together.
    """
    terms = lat.memo
    entry = terms.get(name)
    if entry is not None and entry[0] == key:
        return entry[1]
    terms.pop(name, None)
    terms[name] = (key, build())
    return terms[name][1]


def _key(*arrays) -> tuple:
    """The shape and bytes of each array, as float64."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    return tuple((a.shape, a.tobytes()) for a in arrays)


class _BeliefRows(NamedTuple):
    """The parts of every epoch's law that only the beliefs shape.

    Built from the lattice, the attention levels, the generator, the
    signal levels and the cost coefficient, none of which change between
    coefficient epochs.
    """

    full: FloatArray         # (n, m) full belief per node
    cols: FloatArray         # (m, n) the same, one row per regime
    qtil: FloatArray         # (n, m-1) filter drift
    v: FloatArray            # (m-1, n_c, n) belief noise loadings
    raw: FloatArray          # (n_c, n_out-3, n) belief-diagonal, paired rows
    bad: np.ndarray          # (n_c, n) some belief row below ``neg_tol``
    neg_tol: FloatArray      # (n_c, 1) tolerance for negative weights
    quad: FloatArray         # (n_c, n) belief term of the closed-form stay
    abs_q: FloatArray        # (n,) sum_i |qtil_i|
    cost: FloatArray         # (n_c, n) attention cost (k pi^2) x


def _belief_rows(model: RegimeModel, lat: Lattice, pi_arr) -> _BeliefRows:
    """The belief rows for ``pi_arr`` on ``lat``."""
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
    bad = raw[:, 0] < neg_tol
    for o in range(1, raw.shape[1]):
        bad |= raw[:, o] < neg_tol
    quad = (h2 / (2 * h1 * h1)) * (
        _index_sum(absv[i] * absv[k] for i in range(mm) for k in range(mm))
        - 3.0 * _index_sum(v[i] * v[i] for i in range(mm)))
    abs_q = _index_sum(np.abs(qtil[:, i]) for i in range(mm))
    cost = (model.cost_coeff * pi_arr * pi_arr)[:, None] * lat.x
    rows = _BeliefRows(full, np.ascontiguousarray(full.T), qtil, v, raw, bad,
                       neg_tol, quad, abs_q, cost)
    for a in rows:
        a.flags.writeable = False
    return rows


def _volatility_term(full: FloatArray, u_arr: FloatArray,
                     vol: FloatArray) -> FloatArray:
    """``ssT`` (n_c, n): the squared belief-averaged volatility row.

    ``vol`` (m, d, d) is one epoch's volatility.
    """
    usig = np.einsum("cl,mlj->cmj", u_arr, vol)
    sbar = full @ usig                                           # (c, n, d)
    ssT = _index_sum(sbar[:, :, j] * sbar[:, :, j]
                     for j in range(sbar.shape[2]))
    ssT.flags.writeable = False
    return ssT


class _WealthRows(NamedTuple):
    """The parts of one epoch's law that the time breaks move."""

    up: FloatArray           # (n_c, n) raw weight of wealth +h1
    down: FloatArray         # (n_c, n) raw weight of wealth -h1
    bbar: FloatArray         # (n_c, n) belief-averaged wealth drift
    ssT: FloatArray          # (n_c, n) squared averaged volatility row


def _wealth_rows(model: RegimeModel, lat: Lattice, e: int, u_arr,
                 rows: _BeliefRows) -> _WealthRows:
    """The wealth rows of every control in coefficient epoch ``e``.

    Each control's entries are the same floating-point operations, in the
    same order, as a build for that control alone.
    """
    h1, h2 = lat.spec.h1, lat.spec.h2
    c = h2 / (h1 * h1)
    r = model.riskfree[e]
    th_u = ((model.drift[e] - r[:, None]) @ u_arr[:, :, None])[:, :, 0]
    # bbar = sum_i phi_i (r_i x + th_u_i) - k pi^2 x, plane by plane in
    # place: numpy broadcasts a (c, 1) and an (n,) operand into a new
    # array far more slowly than it adds a column to a plane
    bbar = np.empty(rows.cost.shape)
    term = np.empty_like(bbar)
    for i in range(model.m):
        plane = bbar if i == 0 else term
        plane[...] = r[i] * lat.x
        plane += th_u[:, i, None]
        plane *= rows.cols[i]
        if i:
            bbar += term
    bbar -= rows.cost
    vol = model.vol[e]
    ssT = _memo(lat, "ssT", _key(u_arr, vol),
                lambda: _volatility_term(rows.full, u_arr, vol))
    # (ssT + 2 max(+-bbar, 0) h1) (c / 2); doubling is exact, so
    # 2 max(bbar, 0) h1 is max(bbar, 0) (2 h1)
    up = np.maximum(bbar, 0.0)
    down = np.negative(bbar)
    np.maximum(down, 0.0, out=down)
    for row in (up, down):
        row *= 2.0 * h1
        row += ssT
        row *= 0.5 * c
    for a in (up, down, bbar):
        a.flags.writeable = False
    return _WealthRows(up, down, bbar, ssT)


def _epoch_parts(model, lat, t, u_arr, pi_arr):
    """The belief rows' key, the belief rows and the epoch's wealth rows."""
    u_arr = np.asarray(u_arr, dtype=np.float64)
    pi_arr = np.asarray(pi_arr, dtype=np.float64)
    key = _key(pi_arr, model.generator, model.signal_levels,
               model.cost_coeff)
    rows = _memo(lat, "rows", key, lambda: _belief_rows(model, lat, pi_arr))
    e = model.epoch_of(t)
    w = _memo(lat, "wealth", key + _key(u_arr, model.riskfree[e],
                                        model.drift[e], model.vol[e]),
              lambda: _wealth_rows(model, lat, e, u_arr, rows))
    return key, rows, w


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


def _strict_error(valid, stay, nonstay, rows: _BeliefRows) -> SchemeError:
    """The error of the first invalid control.

    Its body weights are checked before its self mass, as a loop over
    controls would; only belief rows can fall below the tolerance.
    """
    ci = int(np.argmin(valid.all(axis=1)))
    if rows.bad[ci].any():
        bad_ci = rows.raw[ci] < rows.neg_tol[ci]
        o, n = np.unravel_index(np.argmax(bad_ci), bad_ci.shape)
        value = rows.raw[ci, o, n]
        return SchemeError(
            f"negative transition weight at node {n}, "
            f"outcome {o + 3}, control {ci} ({value:.3e}); "
            "belief diffusion not diagonally dominant, no time-step "
            "reduction can fix this",
            node=int(n), control=ci, entry=int(o + 3),
            value=float(value), shrink=None)
    n = int(np.argmin(stay[ci]))
    return SchemeError(
        f"self-transition probability at node {n}, control "
        f"{ci} is negative ({stay[ci, n]:.3e}): time step too large; h2 "
        f"must be at most {1.0 / nonstay[ci, n]:.6g} times its value",
        node=n, control=ci, entry=0,
        value=float(stay[ci, n]), shrink=float(1.0 / nonstay[ci, n]))


def build_stencil_batch(model: RegimeModel, lat: Lattice, t: float,
                        u_arr: FloatArray, pi_arr: FloatArray,
                        *, strict: bool = False) -> StencilBatch:
    """Stencils for every control in ``(u_arr, pi_arr)`` at time ``t``.

    Negative belief weights within the tolerance are clipped to 0 (the
    wealth rows are never negative) and the self mass closes the law.
    With ``strict`` the first invalid control raises; otherwise invalid
    (control, node) pairs are only masked out in ``valid``.
    """
    _, rows, w = _epoch_parts(model, lat, t, u_arr, pi_arr)
    h1, h2 = lat.spec.h1, lat.spec.h2
    probs = np.empty((len(rows.neg_tol), lat.n_out, lat.n_nodes))
    probs[:, 1] = w.up
    probs[:, 2] = w.down
    np.maximum(rows.raw, 0.0, out=probs[:, 3:])
    nonstay = _index_sum([w.up, w.down]
                         + [probs[:, o] for o in range(3, lat.n_out)])
    stay = probs[:, 0]
    np.subtract(1.0, nonstay, out=stay)
    valid = stay < 0.0
    valid |= rows.bad
    np.logical_not(valid, out=valid)
    if strict and not valid.all():
        raise _strict_error(valid, stay, nonstay, rows)
    # the residual of the closed-form self mass against the complement
    # surfaces any non-closure:
    # quad - ((|bbar| + abs_q) h1 + ssT) h2 / h1^2 + 1 - stay, in place
    res = np.abs(w.bbar)
    res += rows.abs_q
    res *= h1
    res += w.ssT
    res *= h2
    res /= h1 * h1
    np.subtract(rows.quad, res, out=res)
    res += 1.0
    res -= stay
    np.abs(res, out=res)
    return StencilBatch(
        probs=probs, valid=valid, max_mass=float(nonstay.max(initial=0.0)),
        stay_residual=float(res.max(initial=0.0, where=valid)))


@dataclass
class ConsistencyReport:
    """Deviations of one-step moments from the local-consistency targets."""

    mean_dev: float          # max |E[dY] - f h2|
    second_dev: float        # max |CentralMoment2[dY] - Sigma Sigma' h2|


def _belief_moments(rows: _BeliefRows, disp: np.ndarray, h2: float):
    """Belief coordinates' mean planes and largest mean, second deviations.

    The second moments cover the belief pairs (i, j >= i).  One pass over
    the belief outcomes (3 on) forms ``p d_i``; the moments add ``p d_i``
    and ``(p d_i) d_j`` in outcome order, skipping the exact zero terms of
    a coordinate an outcome leaves fixed.  Every displacement coordinate
    is 0 or +-h1, so ``(p d_i) d_j = (p d_j) d_i``.
    """
    disp = disp[:, 1:]
    mm = disp.shape[1]
    moved = [[(rows.raw[:, o - 3] * disp[o, i], disp[o])
              for o in range(3, len(disp)) if disp[o, i] != 0.0]
             for i in range(mm)]
    mean = [_index_sum(pd for pd, _ in moved[i]) for i in range(mm)]
    mean_dev = second_dev = np.float64(0.0)
    for i in range(mm):
        mean_dev = np.maximum(
            mean_dev, np.abs(mean[i] - rows.qtil[:, i] * h2).max(initial=0.0))
        for j in range(i, mm):
            # the paired moves leave no pair (i, j) without a term
            dev = (_index_sum(pd * d[j] for pd, d in moved[i] if d[j] != 0.0)
                   - mean[i] * mean[j])
            dev -= (rows.v[i] * rows.v[j]) * h2
            second_dev = np.maximum(second_dev,
                                    np.abs(dev).max(initial=0.0))
    for a in mean:
        a.flags.writeable = False
    return mean, mean_dev, second_dev


def consistency_sweep(model: RegimeModel, lat: Lattice, t: float,
                      u_arr: FloatArray, pi_arr: FloatArray) -> ConsistencyReport:
    """Worst-case moment deviations over all nodes and controls.

    Only outcomes 1 and 2 move wealth and neither moves a belief
    coordinate, so the wealth terms need only the epoch's wealth rows.
    """
    key, rows, w = _epoch_parts(model, lat, t, u_arr, pi_arr)
    disp, h2 = lat.displacements, lat.spec.h2
    mean, belief_mean_dev, belief_second_dev = _memo(
        lat, "moments", key, lambda: _belief_moments(rows, disp, h2))
    d1, d2 = disp[1, 0], disp[2, 0]
    up, down = w.up * d1, w.down * d2
    mean0 = np.add(up, down)
    mean_dev = np.abs(mean0 - w.bbar * h2).max(initial=0.0)
    dev = np.add(up * d1, down * d2) - mean0 * mean0
    dev -= w.ssT * h2
    second_dev = np.abs(dev).max(initial=0.0)
    for mean_j in mean:
        second_dev = np.maximum(second_dev,
                                np.abs(mean0 * mean_j).max(initial=0.0))
    return ConsistencyReport(
        mean_dev=float(np.maximum(mean_dev, belief_mean_dev)),
        second_dev=float(np.maximum(second_dev, belief_second_dev)))
