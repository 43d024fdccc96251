"""The transition law built whole, epoch by epoch: the tests' reference.

Every epoch's build forms the whole raw law (wealth rows, belief rows and
the raw stay) and validates it at once, and every moment sweep forms the
moments of every coordinate from that raw law.  Nothing is kept between
calls.  ``attnmv.kernel`` splits the same operations into a part built
once per lattice and a part built per epoch; its batches and reports
must equal these byte for byte.
"""

from __future__ import annotations

import numpy as np

from attnmv.errors import SchemeError
from attnmv.filtering import full_belief
from attnmv.kernel import ConsistencyReport, StencilBatch

NEG_TOL = 1e-13


def index_sum(planes):
    """Sum of equal-shape arrays, added one after another in index order."""
    planes = iter(planes)
    total = np.array(next(planes), dtype=np.float64)
    for p in planes:
        total += p
    return total


def coefficients(model, lat, t, u_arr, pi_arr):
    """Raw law of every control: ``(probs, bbar, qtil, ssT, v, neg_tol,
    quad, abs_q)``.

    ``probs`` (n_c, n_out, n) holds unclipped weights and the stay that
    closes them; ``a_ik = v[i] * v[k]`` is the belief covariance.
    """
    h1, h2 = lat.spec.h1, lat.spec.h2
    c = h2 / (h1 * h1)
    mm = model.m - 1
    u_arr = np.asarray(u_arr, dtype=np.float64)
    pi_arr = np.asarray(pi_arr, dtype=np.float64)

    full = full_belief(lat.phi)                                  # (n, m)
    zbar = full @ model.signal_levels
    qtil = (full @ model.generator)[:, :mm]                      # (n, mm)
    sqrt_pi = np.sqrt(pi_arr)[:, None]
    v = np.stack([(sqrt_pi * lat.phi[:, i])
                  * (model.signal_levels[i] - zbar) for i in range(mm)])
    absv = np.abs(v)
    abs_total = index_sum(absv)

    r = model.riskfree_at(t)
    th_u = (model.theta_at(t) @ u_arr[:, :, None])[:, :, 0]      # (c, m)
    bbar = index_sum(full[:, i] * (r[i] * lat.x + th_u[:, i, None])
                     for i in range(model.m)) \
        - (model.cost_coeff * pi_arr * pi_arr)[:, None] * lat.x
    usig = np.einsum("cl,mlj->cmj", u_arr, model.vol_at(t))
    sbar = full @ usig                                           # (c, n, d)
    ssT = index_sum(sbar[:, :, j] * sbar[:, :, j]
                    for j in range(sbar.shape[2]))

    probs = np.empty((len(pi_arr), lat.n_out, lat.n_nodes))
    probs[:, 1] = (ssT + 2.0 * np.maximum(bbar, 0.0) * h1) * (0.5 * c)
    probs[:, 2] = (ssT + 2.0 * np.maximum(-bbar, 0.0) * h1) * (0.5 * c)
    for i in range(mm):
        diag = v[i] * v[i] - 0.5 * (absv[i] * abs_total)
        probs[:, 3 + 2 * i] = (diag + np.maximum(qtil[:, i], 0.0) * h1) * c
        probs[:, 4 + 2 * i] = (diag + np.maximum(-qtil[:, i], 0.0) * h1) * c
    o = 3 + 2 * mm
    for i in range(mm):
        for k in range(mm):
            if i == k:
                continue
            a_ik = v[i] * v[k]
            ap = np.maximum(a_ik, 0.0) * (0.25 * c)
            am = np.maximum(-a_ik, 0.0) * (0.25 * c)
            probs[:, o] = ap
            probs[:, o + 1] = ap
            probs[:, o + 2] = am
            probs[:, o + 3] = am
            o += 4
    probs[:, 0] = 1.0 - index_sum(probs[:, j] for j in range(1, lat.n_out))

    vmax = absv.max(axis=(0, 2), initial=0.0)
    neg_tol = -(NEG_TOL * np.maximum(1.0, vmax * vmax))[:, None]
    quad = (h2 / (2 * h1 * h1)) * (
        index_sum(absv[i] * absv[k] for i in range(mm) for k in range(mm))
        - 3.0 * index_sum(v[i] * v[i] for i in range(mm)))
    abs_q = index_sum(np.abs(qtil[:, i]) for i in range(mm))
    return probs, bbar, qtil, ssT, v, neg_tol, quad, abs_q


def validate(probs, neg_tol, *, strict):
    """Clip float dust, close the self mass, mark or reject invalid laws.

    ``probs`` is updated in place; returns ``(valid, nonstay)``.
    """
    body = probs[:, 1:]
    bad = body[:, 0] < neg_tol
    for o in range(1, body.shape[1]):
        bad |= body[:, o] < neg_tol
    nonstay = index_sum(np.maximum(body[:, o], 0.0)
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


def build_stencil_batch(model, lat, t, u_arr, pi_arr, *, strict=False):
    """The validated batch of every control at time ``t``."""
    h1, h2 = lat.spec.h1, lat.spec.h2
    probs, bbar, _, ssT, _, neg_tol, quad, abs_q = coefficients(
        model, lat, t, u_arr, pi_arr)
    valid, nonstay = validate(probs, neg_tol, strict=strict)
    closed = quad - ((np.abs(bbar) + abs_q) * h1 + ssT) * h2 / (h1 * h1) \
        + 1.0
    res = closed - probs[:, 0]
    return StencilBatch(probs=probs, valid=valid,
                        max_mass=float(nonstay.max(initial=0.0)),
                        stay_residual=float(np.abs(res[valid]).max(initial=0.0)))


def moment_deviations(model, lat, t, u_arr, pi_arr):
    """Moment deviations of every control, each of shape (n_c, n_nodes).

    One pass over the outcomes forms ``p d_i`` for each coordinate ``i``
    an outcome moves; the moments add ``p d_i`` and ``(p d_i) d_j`` in
    outcome order, skipping the exact zero terms.
    """
    h2 = lat.spec.h2
    probs, bbar, qtil, ssT, v, *_ = coefficients(model, lat, t, u_arr, pi_arr)
    disp = lat.displacements
    dims = range(disp.shape[1])
    drift = [bbar] + [qtil[:, i] for i in range(len(v))]
    moved = [[(probs[:, o] * disp[o, i], disp[o])
              for o in range(lat.n_out) if disp[o, i] != 0.0] for i in dims]
    mean = [index_sum(pd for pd, _ in moved[i]) for i in dims]
    mean_dev = np.zeros_like(bbar)
    second_dev = np.zeros_like(bbar)
    for i in dims:
        np.maximum(mean_dev, np.abs(mean[i] - drift[i] * h2), out=mean_dev)
        for j in dims[i:]:
            terms = [pd * d[j] for pd, d in moved[i] if d[j] != 0.0]
            dev = (index_sum(terms) if terms else 0.0) - mean[i] * mean[j]
            if i == j == 0:
                dev -= ssT * h2
            elif i > 0:
                dev -= (v[i - 1] * v[j - 1]) * h2
            np.maximum(second_dev, np.abs(dev), out=second_dev)
    return mean_dev, second_dev


def consistency_sweep(model, lat, t, u_arr, pi_arr):
    """Worst-case moment deviations over all nodes and controls."""
    mean_dev, second_dev = moment_deviations(model, lat, t, u_arr, pi_arr)
    return ConsistencyReport(mean_dev=float(mean_dev.max(initial=0.0)),
                             second_dev=float(second_dev.max(initial=0.0)))
