"""Market model: regime-dependent coefficients, attention cost, validation.

The market has one bond and ``d`` risky assets whose rates, drifts and
volatilities depend on a hidden finite-state regime chain with generator
``Q``.  The investor observes a noisy signal whose level is regime dependent
(``signal_levels``) and whose precision ``pi`` (attention) she controls at a
running cost ``cost_coeff * pi**2 * wealth``.

Time dependence of ``riskfree``/``drift``/``vol`` is supported through
piecewise-constant tables keyed by left breakpoints; the common case is a
single row (constant coefficients).  Regimes are indexed ``0 .. m-1``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DomainError

FloatArray = NDArray[np.float64]

CONVENTIONS = ("paper-literal", "mean-minus-variance")


def compose_objective(mean, var, gamma: float, convention: str):
    """``J(mean, var)`` of terminal wealth, elementwise; minimized where
    ``J(0, 1) > 0``, maximized where it is negative."""
    if convention == "paper-literal":
        return var - 0.5 * gamma * mean
    if convention == "mean-minus-variance":
        return mean - 0.5 * gamma * var
    raise DomainError(f"unknown objective convention {convention!r}")


def as_int(value, name: str) -> int:
    """``value`` as an int; a fraction or a non-number is a ConfigError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RegimeModel:
    """All market, signal and cost parameters.

    Immutable after construction; safe to share across workers.

    Attributes
    ----------
    m, d : int
        Number of hidden regimes (>= 2) and of risky assets (>= 1).
    T : float
        Horizon in years.
    generator : (m, m) array
        Regime-chain generator; rows sum to zero, off-diagonals >= 0.
    time_breaks : (n_epochs,) array
        Left endpoints of the piecewise-constant coefficient epochs,
        starting at 0.0.
    riskfree : (n_epochs, m) array
    drift : (n_epochs, m, d) array
    vol : (n_epochs, m, d, d) array
    signal_levels : (m,) array
        Signal level per regime.
    cost_coeff : float
        k in the attention cost k * pi**2 * wealth (>= 0).
    attention_min, attention_max : float
        Bounds of the attention control, 0 < min <= max.
    risk_aversion : float
        gamma > 0 weighting the variance/mean trade-off.
    objective_convention : str
        One of ``CONVENTIONS``: the functional ``compose_objective`` of
        terminal wealth that the recursion optimizes (its terminal value,
        sense and variance weight) and the oracles report.
    """

    m: int
    d: int
    T: float
    generator: FloatArray
    time_breaks: FloatArray
    riskfree: FloatArray
    drift: FloatArray
    vol: FloatArray
    signal_levels: FloatArray
    cost_coeff: float
    attention_min: float
    attention_max: float
    risk_aversion: float
    objective_convention: str = "paper-literal"

    @classmethod
    def from_dict(cls, cfg: dict) -> "RegimeModel":
        """Build from a plain dict (the JSON config schema).

        ``riskfree``/``drift``/``vol`` accept either a constant entry
        (scalar riskfree, or nested lists without a time axis) or a table
        ``{"times": [...], "values": [...]}`` of piecewise-constant rows.
        Tables with different breakpoints are merged onto their union.
        """
        m = as_int(cfg["m"], "model.m")
        d = as_int(cfg["d"], "model.d")

        def parse(name, tail):
            v = cfg[name]
            if isinstance(v, dict):
                times = [float(s) for s in v["times"]]
                vals = v["values"]
            else:
                times, vals = [0.0], v
            arr = np.asarray(vals, dtype=np.float64)
            if name == "riskfree" and arr.ndim == 0:
                arr = np.full((m,), float(arr))      # one rate for all regimes
            if arr.ndim == len(tail):
                arr = arr[None, ...]                 # single epoch, no time axis
            want = (len(times),) + tail
            if arr.shape != want:
                raise ConfigError(f"{name}: expected shape {want}, got {arr.shape}")
            st = np.asarray(times)
            if st[0] != 0.0 or np.any(np.diff(st) <= 0):
                raise ConfigError(f"{name}: table times must start at 0 and increase")
            return st, arr

        times_r, rf = parse("riskfree", (m,))
        times_mu, mu = parse("drift", (m, d))
        times_s, vl = parse("vol", (m, d, d))
        times = np.asarray(sorted(set(times_r) | set(times_mu) | set(times_s)))

        def align(src_times, rows):
            idx = np.searchsorted(src_times, times, side="right") - 1
            return rows[idx]

        riskfree = align(times_r, rf)
        drift = align(times_mu, mu)
        vol = align(times_s, vl)

        return cls(
            m=m,
            d=d,
            T=float(cfg["T"]),
            generator=np.asarray(cfg["generator"], dtype=np.float64),
            time_breaks=np.asarray(times, dtype=np.float64),
            riskfree=riskfree,
            drift=drift,
            vol=vol,
            signal_levels=np.asarray(cfg["signal_levels"], dtype=np.float64),
            cost_coeff=float(cfg["cost_coeff"]),
            attention_min=float(cfg["attention_min"]),
            attention_max=float(cfg["attention_max"]),
            risk_aversion=float(cfg["risk_aversion"]),
            objective_convention=cfg.get("objective_convention", "paper-literal"),
        )

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "d": self.d,
            "T": self.T,
            "generator": self.generator.tolist(),
            "riskfree": {"times": self.time_breaks.tolist(), "values": self.riskfree.tolist()},
            "drift": {"times": self.time_breaks.tolist(), "values": self.drift.tolist()},
            "vol": {"times": self.time_breaks.tolist(), "values": self.vol.tolist()},
            "signal_levels": self.signal_levels.tolist(),
            "cost_coeff": self.cost_coeff,
            "attention_min": self.attention_min,
            "attention_max": self.attention_max,
            "risk_aversion": self.risk_aversion,
            "objective_convention": self.objective_convention,
        }

    # -- coefficient lookup ------------------------------------------------

    @property
    def n_epochs(self) -> int:
        return len(self.time_breaks)

    @cached_property
    def _breaks(self) -> list[float]:
        """``time_breaks`` as a list, for the bisection in ``epoch_of``."""
        return self.time_breaks.tolist()

    def epoch_of(self, t: float) -> int:
        """Index of the coefficient epoch containing time ``t``."""
        if not (-1e-12 <= t <= self.T + 1e-12):
            raise DomainError(f"time {t} outside [0, {self.T}]")
        return bisect_right(self._breaks, t) - 1 if t > 0 else 0

    def riskfree_at(self, t: float) -> FloatArray:
        """(m,) bond rate per regime at time ``t``."""
        return self.riskfree[self.epoch_of(t)]

    def vol_at(self, t: float) -> FloatArray:
        """(m, d, d) volatility matrix per regime at time ``t``."""
        return self.vol[self.epoch_of(t)]

    def theta_at(self, t: float) -> FloatArray:
        """(m, d) excess return mu - r per regime at time ``t``."""
        e = self.epoch_of(t)
        return self.drift[e] - self.riskfree[e][:, None]

    def with_cost(self, k: float) -> "RegimeModel":
        """Copy of the model with a different attention-cost coefficient."""
        return replace(self, cost_coeff=float(k))


def validate_model(model: RegimeModel) -> list[str]:
    """Check every model invariant; return a list of violations (empty = ok)."""
    out: list[str] = []
    for name in ("T", "generator", "time_breaks", "riskfree", "drift", "vol",
                 "signal_levels", "cost_coeff", "attention_min",
                 "attention_max", "risk_aversion"):
        if not np.isfinite(getattr(model, name)).all():
            out.append(f"{name} must be finite")
    m, d = model.m, model.d
    if m < 2:
        out.append("m must be >= 2")
    if d < 1:
        out.append("d must be >= 1")
    if not model.T > 0:
        out.append("T must be > 0")
    Q = model.generator
    if Q.shape != (m, m):
        out.append(f"generator: expected shape {(m, m)}, got {Q.shape}")
    else:
        rs = Q.sum(axis=1)
        for i in range(m):
            if abs(rs[i]) > 1e-10:
                out.append(f"generator row {i}: row sum != 0 (got {rs[i]:.3g})")
            for j in range(m):
                if i != j and Q[i, j] < 0:
                    out.append(f"generator[{i},{j}] off-diagonal < 0")
    if model.signal_levels.shape != (m,):
        out.append("signal_levels: wrong length")
    if model.cost_coeff < 0:
        out.append("cost_coeff must be >= 0")
    if not model.attention_min > 0:
        out.append("attention_min must be > 0")
    if model.attention_min > model.attention_max:
        out.append("attention_min > attention_max")
    if not model.risk_aversion > 0:
        out.append("risk_aversion must be > 0")
    if model.objective_convention not in CONVENTIONS:
        out.append(f"objective_convention must be one of {CONVENTIONS}")
    if model.riskfree.shape != (model.n_epochs, m):
        out.append("riskfree table: wrong shape")
    if model.drift.shape != (model.n_epochs, m, d):
        out.append("drift table: wrong shape")
    if model.vol.shape != (model.n_epochs, m, d, d):
        out.append("vol table: wrong shape")
    else:
        try:        # every epoch and regime at once; the loop names the bad ones
            np.linalg.cholesky(model.vol @ np.swapaxes(model.vol, -1, -2))
        except np.linalg.LinAlgError:
            for e in range(model.n_epochs):
                for i in range(m):
                    s = model.vol[e, i]
                    try:
                        np.linalg.cholesky(s @ s.T)
                    except np.linalg.LinAlgError:
                        out.append(f"vol(epoch {e}, regime {i}): degenerate "
                                   "diffusion, vol*vol^T not positive definite")
    if model.time_breaks.ndim != 1 or model.time_breaks[0] != 0.0 or \
            np.any(np.diff(model.time_breaks) <= 0):
        out.append("time_breaks must be strictly increasing and start at 0.0")
    return out


def example_model(**overrides) -> RegimeModel:
    """The repository's illustrative two-regime, one-asset default market.

    The coefficients are illustrative only: a persistent bull regime with
    higher drift and lower volatility, a bear regime with near-zero excess
    return.  Excess returns are kept nonnegative in both regimes.
    """
    cfg = {
        "m": 2,
        "d": 1,
        "T": 2.0,
        "generator": [[-1.0, 1.0], [1.5, -1.5]],
        "riskfree": [0.03, 0.03],
        "drift": [[0.08], [0.035]],
        "vol": [[[0.20]], [[0.35]]],
        "signal_levels": [0.0, 1.0],
        "cost_coeff": 0.1,
        "attention_min": 0.001,
        "attention_max": 2.0,
        "risk_aversion": 0.5,
        "objective_convention": "paper-literal",
    }
    cfg.update(overrides)
    return RegimeModel.from_dict(cfg)
