"""Seeded Monte Carlo SGD of the single-layer depth regressor.

Two simulation modes:

* ``idealized`` -- every gradient is ``h * eps(eta)`` with i.i.d. noise
  ``eta ~ N(0, sigma^2)`` and features ``h ~ N(0, I_dim)``; this is exactly
  the stochastic process the convergence decomposition assumes, so the mean
  squared deviation from the optimal weight equals
  ``s_T * dim * Var(eps) + ||w_init - w_star||^2``.
* ``literal`` -- the true residual ``w.h - z`` with noisy targets
  ``z = w_star.h - eta``; weight-dependent, provided for qualitative study.

Randomness is counter-based (Philox) and keyed per trial, so results are
bitwise identical regardless of trial execution order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import losses as _losses
from .losses import LossKind, NoiseModel, closed_form_variance, gradient_array

__all__ = [
    "StepSchedule",
    "SgdConfig",
    "TrialResult",
    "EnsembleStats",
    "ConvergenceFit",
    "SweepRow",
    "run_trial",
    "run_ensemble",
    "fit_lemma1",
    "sweep",
]

# Stream tags keep the per-trial, gradient-variance, and per-row streams of a
# single base seed statistically independent.
_TRIAL_STREAM = 0x51D
_GRAD_STREAM = 0x6EAD
_ROW_STREAM = 0x5EED


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


@dataclass(frozen=True)
class StepSchedule:
    """SGD step sizes s_j: ``scale/j`` (square summable) or constant ``scale``."""

    kind: str = "inverse_j"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("inverse_j", "constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.scale > 0:
            raise ValueError("scale must be > 0")

    def steps(self, t: int) -> np.ndarray:
        j = np.arange(1, t + 1, dtype=np.float64)
        if self.kind == "inverse_j":
            return self.scale / j
        return np.full(t, self.scale)

    def cumulative_square_sum(self, t: int) -> float:
        """s_T = sum of squared step sizes up to T (-> pi^2/6 for scale-1 1/j)."""
        s = self.steps(t)
        return float(np.sum(s * s))


@dataclass
class SgdConfig:
    """Full specification of one Monte Carlo SGD experiment."""

    dim: int
    sigma: float
    loss: LossKind
    steps: int
    trials: int = 1
    mode: str = "idealized"
    w_star: np.ndarray | None = None
    w_init: np.ndarray | None = None
    schedule: StepSchedule = field(default_factory=StepSchedule)
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.steps < 1 or self.trials < 1:
            raise ValueError("dim, steps and trials must be >= 1")
        if self.mode not in ("idealized", "literal"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.sigma >= 0:
            raise ValueError("sigma must be >= 0")
        if self.w_star is None:
            self.w_star = np.zeros(self.dim)
        self.w_star = np.asarray(self.w_star, dtype=np.float64)
        if self.w_init is None:
            # idealized isolates the Var(eps) term by starting at the optimum
            self.w_init = self.w_star.copy() if self.mode == "idealized" else np.zeros(self.dim)
        self.w_init = np.asarray(self.w_init, dtype=np.float64)
        if self.w_star.shape != (self.dim,) or self.w_init.shape != (self.dim,):
            raise ValueError("w_star and w_init must have length dim")


@dataclass(frozen=True)
class TrialResult:
    final_weight: np.ndarray
    deviation_sq: float
    trial_index: int


@dataclass(frozen=True)
class EnsembleStats:
    mean_deviation_sq: float
    std_error: float
    empirical_grad_variance: float
    config_echo: SgdConfig


@dataclass(frozen=True)
class ConvergenceFit:
    c1: float
    c2: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def run_trial(config: SgdConfig, trial_index: int) -> TrialResult:
    """Run one seeded trial of T SGD steps and report the squared deviation
    of the final weight from the optimum."""
    rng = _rng(config.base_seed, trial_index, _TRIAL_STREAM)
    t = config.steps
    h = rng.standard_normal((t, config.dim))
    eta = rng.standard_normal(t) * config.sigma
    s = config.schedule.steps(t)
    if config.mode == "idealized":
        eps = gradient_array(config.loss, eta)
        w = config.w_init - (s * eps) @ h
    else:
        w = config.w_init.copy()
        loss = config.loss
        w_star = config.w_star
        for j in range(t):
            hj = h[j]
            target = w_star @ hj - eta[j]
            resid = w @ hj - target
            w -= s[j] * _losses.loss_gradient(loss, resid) * hj
    dev = w - config.w_star
    return TrialResult(final_weight=w, deviation_sq=float(dev @ dev), trial_index=trial_index)


def empirical_gradient_variance(
    loss: LossKind, sigma: float, base_seed: int = 0, samples: int = 1_000_000
) -> tuple[float, float]:
    """Monte Carlo gradient variance over fresh noise draws.

    Returns ``(variance, standard_error)`` where the standard error is that of
    the variance estimator itself.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rng = _rng(base_seed, _GRAD_STREAM)
    eta = rng.standard_normal(samples) * sigma
    eps = gradient_array(loss, eta)
    var = float(np.var(eps))
    sq = (eps - eps.mean()) ** 2
    se = float(np.std(sq) / np.sqrt(samples))
    return var, se


def run_ensemble(config: SgdConfig) -> EnsembleStats:
    """Average deviation over independent trials (reduced in trial order)."""
    devs = np.empty(config.trials)
    for i in range(config.trials):
        devs[i] = run_trial(config, i).deviation_sq
    mean = float(devs.mean())
    se = float(devs.std(ddof=1) / np.sqrt(config.trials)) if config.trials > 1 else 0.0
    var, _ = empirical_gradient_variance(config.loss, config.sigma, config.base_seed)
    return EnsembleStats(
        mean_deviation_sq=mean,
        std_error=se,
        empirical_grad_variance=var,
        config_echo=config,
    )


def fit_lemma1(points: Sequence[tuple[float, float]]) -> ConvergenceFit:
    """Ordinary least-squares line through (gradient variance, mean deviation)
    points; slope c1, intercept c2."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.ptp(x) == 0:
        raise ValueError("degenerate fit: all variance values equal; vary sigma or loss")
    c1, c2 = np.polyfit(x, y, 1)
    pred = c1 * x + c2
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ConvergenceFit(c1=float(c1), c2=float(c2), r_squared=max(0.0, min(1.0, r2)), points=tuple(pts))


@dataclass(frozen=True)
class SweepRow:
    loss: str
    length: float
    sigma: float
    var_closed: float | None
    var_empirical: float
    mean_dev: float
    std_err: float


def sweep(
    lengths: Iterable[float],
    sigmas: Iterable[float],
    losses: Iterable[str],
    template: SgdConfig,
) -> list[SweepRow]:
    """Cartesian sweep over (loss, length, sigma); deterministic in base_seed.

    Non-dice losses do not depend on the object length but the length column
    is still recorded so the table stays rectangular.
    """
    lengths = list(lengths)
    sigmas = list(sigmas)
    losses = list(losses)
    if not lengths or not sigmas or not losses:
        raise ValueError("sweep axes must be non-empty")
    beta = template.loss.beta if template.loss.kind == "smooth_l1" else 1.0
    rows: list[SweepRow] = []
    row_index = 0
    for loss_name in losses:
        for length in lengths:
            loss = LossKind.parse(loss_name, length, beta)
            for sigma in sigmas:
                seed = int(np.random.SeedSequence([template.base_seed, row_index, _ROW_STREAM]).generate_state(1)[0])
                cfg = replace(template, loss=loss, sigma=sigma, base_seed=seed)
                stats = run_ensemble(cfg)
                rows.append(
                    SweepRow(
                        loss=loss_name,
                        length=length,
                        sigma=sigma,
                        var_closed=closed_form_variance(loss, NoiseModel(sigma)),
                        var_empirical=stats.empirical_grad_variance,
                        mean_dev=stats.mean_deviation_sq,
                        std_err=stats.std_error,
                    )
                )
                row_index += 1
    return rows
