"""Nonlinear filter for the hidden regime, parameterized on the belief simplex.

The belief state is the vector ``phi`` of posterior probabilities of the
first ``m - 1`` regimes; the last coordinate is implied, ``1 - sum(phi)``.
Attention ``pi`` scales the informativeness of the observation: the belief
diffusion is ``sqrt(pi) * phi_i * (zeta_i - zeta_bar)`` per coordinate while
the drift is the generator-transpose action, independent of ``pi``.
The lattice's transition law (``kernel._belief_rows``) computes its own
copy of both, kept apart so that the SDE oracle, which steps the belief
with ``filter_step``, stays independent of the chain it checks.

Beliefs from outside are checked once with ``check_belief``; a step does
not re-check its input, because ``project_simplex`` puts every step's
output back on the simplex.  All functions accept a single belief of shape
``(m-1,)`` or a batch of shape ``(..., m-1)`` and broadcast over the
leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .market import FloatArray, RegimeModel

#: tolerance for simplex membership checks
_ATOL = 1e-12


def check_belief(phi: FloatArray, m: int) -> None:
    """Raise DomainError unless ``phi`` is a finite point of the belief simplex."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[-1] != m - 1:
        raise DomainError(f"belief must have {m - 1} coordinates, got {phi.shape[-1]}")
    if not np.isfinite(phi).all():
        raise DomainError("belief has a non-finite coordinate")
    if np.any(phi < -_ATOL):
        raise DomainError("belief has a negative coordinate")
    if np.any(phi.sum(axis=-1) > 1.0 + _ATOL):
        raise DomainError("belief coordinates sum to more than 1")


def check_attention(model: RegimeModel, pi) -> None:
    """Raise DomainError unless every ``pi`` lies in the attention range."""
    pi = np.asarray(pi, dtype=np.float64)
    if not np.all((pi >= model.attention_min - _ATOL)
                  & (pi <= model.attention_max + _ATOL)):
        raise DomainError(
            f"attention outside [{model.attention_min}, {model.attention_max}]")


def full_belief(phi: FloatArray) -> FloatArray:
    """Append the implied last coordinate; the result sums to exactly 1."""
    phi = np.asarray(phi, dtype=np.float64)
    last = 1.0 - phi.sum(axis=-1, keepdims=True)
    return np.concatenate([phi, last], axis=-1)


def project_simplex(phi: FloatArray) -> FloatArray:
    """Clamp coordinates to [0, 1], then rescale the full vector to sum 1.

    When the clamped head already sums to <= 1 the input is returned
    unchanged (the implied last coordinate absorbs the slack), so on-simplex
    beliefs are fixed points.
    """
    phi = np.clip(np.asarray(phi, dtype=np.float64), 0.0, 1.0)
    total = phi.sum(axis=-1, keepdims=True)
    scale = np.where(total > 1.0, total, 1.0)
    return phi / scale


def filter_step(model: RegimeModel, phi: FloatArray, pi, dw, h: float) -> FloatArray:
    """One Euler step of the belief dynamics, projected back onto the simplex.

    ``dw`` is a Gaussian increment with variance ``h`` supplied by the
    caller (so wealth and belief noise can be coupled externally).  The
    caller checks ``phi`` and ``h > 0`` once, before the first step;
    ``pi`` comes anew from the policy at every step, so its range is
    checked here.
    """
    check_attention(model, pi)
    pi_arr = np.asarray(pi, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    full = full_belief(phi)
    zbar = full @ model.signal_levels
    head = model.signal_levels[: model.m - 1]
    diff = np.sqrt(pi_arr)[..., None] * phi * (head - zbar[..., None])
    drift = (full @ model.generator)[..., : model.m - 1]
    proposed = phi + drift * h + diff * np.asarray(dw, dtype=np.float64)[..., None]
    return project_simplex(proposed)
