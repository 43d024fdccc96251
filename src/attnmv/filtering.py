"""Nonlinear filter for the hidden regime, parameterized on the belief simplex.

The belief state is the vector ``phi`` of posterior probabilities of the
first ``m - 1`` regimes; the last coordinate is implied, ``1 - sum(phi)``.
Attention ``pi`` scales the informativeness of the observation: the belief
diffusion is ``sqrt(pi) * phi_i * (zeta_i - zeta_bar)`` per coordinate while
the drift is the generator-transpose action, independent of ``pi``.

All functions accept a single belief of shape ``(m-1,)`` or a batch of
shape ``(..., m-1)`` and broadcast over the leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .market import FloatArray, RegimeModel

#: tolerance for simplex membership checks
_ATOL = 1e-12


def check_belief(phi: FloatArray, m: int) -> None:
    """Raise DomainError unless ``phi`` lies in the belief simplex."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[-1] != m - 1:
        raise DomainError(f"belief must have {m - 1} coordinates, got {phi.shape[-1]}")
    if np.any(phi < -_ATOL):
        raise DomainError("belief has a negative coordinate")
    if np.any(phi.sum(axis=-1) > 1.0 + _ATOL):
        raise DomainError("belief coordinates sum to more than 1")


def full_belief(phi: FloatArray, *, validate: bool = True, m: int | None = None) -> FloatArray:
    """Append the implied last coordinate; the result sums to exactly 1."""
    phi = np.asarray(phi, dtype=np.float64)
    if validate:
        check_belief(phi, (m if m is not None else phi.shape[-1] + 1))
    last = 1.0 - phi.sum(axis=-1, keepdims=True)
    return np.concatenate([phi, last], axis=-1)


def zeta_bar(model: RegimeModel, phi: FloatArray) -> FloatArray | float:
    """Belief-weighted mean signal level."""
    full = full_belief(phi, m=model.m)
    out = full @ model.signal_levels
    return float(out) if out.ndim == 0 else out


def filter_drift(model: RegimeModel, phi: FloatArray) -> FloatArray:
    """Generator-transpose action on the full belief, first m-1 coordinates."""
    full = full_belief(phi, m=model.m)
    return (full @ model.generator)[..., : model.m - 1]


def filter_diffusion(model: RegimeModel, phi: FloatArray, pi) -> FloatArray:
    """Per-coordinate noise loading sqrt(pi) * phi_i * (zeta_i - zeta_bar)."""
    phi = np.asarray(phi, dtype=np.float64)
    return _loading(model, phi, full_belief(phi, m=model.m), pi)


def _loading(model: RegimeModel, phi: FloatArray, full: FloatArray, pi):
    pi_arr = np.asarray(pi, dtype=np.float64)
    if np.any(pi_arr < model.attention_min - _ATOL) or \
            np.any(pi_arr > model.attention_max + _ATOL):
        raise DomainError(
            f"attention outside [{model.attention_min}, {model.attention_max}]")
    zbar = full @ model.signal_levels
    head = model.signal_levels[: model.m - 1]
    return np.sqrt(pi_arr)[..., None] * phi * (head - zbar[..., None])


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
    caller (so wealth and belief noise can be coupled externally).
    """
    if not h > 0:
        raise DomainError("step size h must be > 0")
    phi = np.asarray(phi, dtype=np.float64)
    full = full_belief(phi, m=model.m)          # validated once per step
    diff = _loading(model, phi, full, pi)
    drift = (full @ model.generator)[..., : model.m - 1]
    proposed = phi + drift * h + diff * np.asarray(dw, dtype=np.float64)[..., None]
    return project_simplex(proposed)
