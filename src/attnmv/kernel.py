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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemeError
from .filtering import full_belief
from .lattice import Lattice
from .market import FloatArray, RegimeModel

#: entries more negative than this (relative to the coefficient scale) are
#: genuine scheme failures; tinier negatives are float cancellation noise
_NEG_TOL = 1e-13


def _coefficients(model: RegimeModel, lat: Lattice, t: float, u_arr, pi_arr):
    """Raw probability tables of every control, plus the consistency targets.

    ``u_arr`` (n_c, d) and ``pi_arr`` (n_c,) give ``probs`` (n_c, n_out,
    n_nodes), ``bbar`` and ``ssT`` (n_c, n_nodes), ``qtil`` (n_nodes, m-1)
    and ``a`` (n_c, n_nodes, m-1, m-1).  Each control's entries are the
    same floating-point operations, in the same order, as a build for that
    control alone.  No validation is performed here; callers decide between
    fail-fast and masking.
    """
    h1, h2 = lat.spec.h1, lat.spec.h2
    mm = model.m - 1
    c = h2 / (h1 * h1)
    u_arr = np.asarray(u_arr, dtype=np.float64)
    pi_arr = np.asarray(pi_arr, dtype=np.float64)

    full = full_belief(lat.phi, m=model.m, validate=False)       # (n, m)
    zbar = full @ model.signal_levels
    r = model.riskfree_at(t)
    th_u = (model.theta_at(t) @ u_arr[:, :, None])[:, None, :, 0]   # (c, 1, m)
    per_regime = (r[None, :] * lat.x[:, None]) + th_u
    bbar = (full * per_regime).sum(axis=2) \
        - (model.cost_coeff * pi_arr * pi_arr)[:, None] * lat.x
    usig = np.einsum("cl,mlj->cmj", u_arr, model.vol_at(t))
    sbar = full @ usig                                           # (c, n, d)
    ssT = (sbar * sbar).sum(axis=2)
    qtil = (full @ model.generator)[:, :mm]                      # (n, mm)

    v = (np.sqrt(pi_arr)[:, None, None] * lat.phi) \
        * (model.signal_levels[:mm][None, :] - zbar[:, None])
    a = v[..., :, None] * v[..., None, :]                        # (c, n, mm, mm)
    absrow = np.abs(v) * np.abs(v).sum(axis=2, keepdims=True)    # sum_k |a_ik|
    diag = np.einsum("cnii->cni", a) - 0.5 * absrow              # a_ii/2 - off/2

    probs = np.zeros((len(pi_arr), lat.n_out, lat.n_nodes))
    probs[:, 1] = (ssT + 2.0 * np.maximum(bbar, 0.0) * h1) * (0.5 * c)
    probs[:, 2] = (ssT + 2.0 * np.maximum(-bbar, 0.0) * h1) * (0.5 * c)
    for i in range(mm):
        probs[:, 3 + 2 * i] = (diag[:, :, i] + np.maximum(qtil[:, i], 0.0) * h1) * c
        probs[:, 4 + 2 * i] = (diag[:, :, i] + np.maximum(-qtil[:, i], 0.0) * h1) * c
    o = 3 + 2 * mm
    for i in range(mm):
        for k in range(mm):
            if i == k:
                continue
            ap = np.maximum(a[:, :, i, k], 0.0) * (0.25 * c)
            am = np.maximum(-a[:, :, i, k], 0.0) * (0.25 * c)
            probs[:, o] = ap
            probs[:, o + 1] = ap
            probs[:, o + 2] = am
            probs[:, o + 3] = am
            o += 4
    probs[:, 0] = 1.0 - probs[:, 1:].sum(axis=1)
    return probs, bbar, qtil, ssT, a


def _stay_closed_form(bbar, qtil, ssT, a, h1, h2):
    """Self-transition mass from its closed-form expression (diagnostic).

    Algebraically identical to the complement used in the construction;
    the residual against it is reported so any non-closure would surface.
    """
    quad = np.abs(a).sum(axis=(2, 3)) - 3.0 * np.einsum("cnii->cn", a)
    return (h2 / (2 * h1 * h1)) * quad \
        - ((np.abs(bbar) + np.abs(qtil).sum(axis=1)) * h1 + ssT) * h2 / (h1 * h1) \
        + 1.0


def _validate(probs, a, *, strict: bool):
    """Clip float dust, close the self mass and mark or reject invalid laws.

    ``probs`` (n_c, n_out, n) is updated in place; ``a`` (n_c, n, m-1, m-1)
    sets each control's tolerance for negative weights.  Returns ``(valid,
    nonstay)``, both (n_c, n).  With ``strict`` the first invalid control
    raises, its body weights checked before its self mass, as a loop over
    controls would.
    """
    scale = np.abs(a).max(axis=(1, 2, 3), initial=0.0)
    tol = _NEG_TOL * np.maximum(1.0, scale)
    body = probs[:, 1:]
    bad = body < -tol[:, None, None]
    clipped = np.clip(body, 0.0, None)
    # outcome by outcome: a lone column must sum in the order a full table
    # does, and numpy sums a lone column of 8 or more pairwise
    nonstay = clipped[:, 0].copy()
    for o in range(1, clipped.shape[1]):
        nonstay += clipped[:, o]
    stay = 1.0 - nonstay
    valid = ~(bad.any(axis=1) | (stay < 0.0))
    if strict and not valid.all():
        ci = int(np.argmin(valid.all(axis=1)))
        if bad[ci].any():
            o, n = np.unravel_index(np.argmax(bad[ci]), bad[ci].shape)
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
    body[...] = clipped
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
    probs, bbar, qtil, ssT, a = _coefficients(model, lat, t, u_arr, pi_arr)
    valid, nonstay = _validate(probs, a, strict=strict)
    res = _stay_closed_form(bbar, qtil, ssT, a, lat.spec.h1, lat.spec.h2) \
        - probs[:, 0]
    return StencilBatch(probs=probs, valid=valid,
                        max_mass=float(nonstay.max(initial=0.0)),
                        stay_residual=float(np.abs(res[valid]).max(initial=0.0)))


@dataclass
class ConsistencyReport:
    """Deviations of one-step moments from the local-consistency targets."""

    mean_dev: float          # max |E[dY] - f h2|
    second_dev: float        # max |CentralMoment2[dY] - Sigma Sigma' h2|
    second_scale: float      # second_dev / (h1 * h2)


def _moment_deviations(model: RegimeModel, lat: Lattice, t: float,
                       u_arr: FloatArray, pi_arr: FloatArray):
    """Moment deviations of every control, each of shape (n_c, n_nodes)."""
    h2 = lat.spec.h2
    probs, bbar, qtil, ssT, a = _coefficients(model, lat, t, u_arr, pi_arr)
    disp = lat.displacements                                     # (n_out, 1+mm)
    mean = np.einsum("con,od->cnd", probs, disp)                 # (c, n, 1+mm)
    target_mean = np.concatenate(
        [bbar[:, :, None], np.broadcast_to(qtil, bbar.shape + qtil.shape[1:])],
        axis=2) * h2
    mean_dev = np.abs(mean - target_mean).max(axis=2)

    second = np.einsum("con,od,oe->cnde", probs, disp, disp)
    second -= mean[:, :, :, None] * mean[:, :, None, :]
    target = np.zeros_like(second)
    target[:, :, 0, 0] = ssT * h2
    target[:, :, 1:, 1:] = a * h2
    second_dev = np.abs(second - target).max(axis=(2, 3))
    return mean_dev, second_dev


def consistency_sweep(model: RegimeModel, lat: Lattice, t: float,
                      u_arr: FloatArray, pi_arr: FloatArray) -> ConsistencyReport:
    """Worst-case moment deviations over all nodes and controls."""
    mean_dev, second_dev = _moment_deviations(model, lat, t, u_arr, pi_arr)
    worst_second = float(second_dev.max(initial=0.0))
    return ConsistencyReport(mean_dev=float(mean_dev.max(initial=0.0)),
                             second_dev=worst_second,
                             second_scale=worst_second / (lat.spec.h1 * lat.spec.h2))
