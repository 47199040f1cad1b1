"""Seeded Monte Carlo SGD of the single-layer depth regressor.

Two simulation modes:

* ``idealized`` -- every gradient is ``eps_j h_j`` with ``eps_j = eps(eta_j)``
  for i.i.d. noise ``eta_j ~ N(0, sigma^2)`` and features ``h_j ~ N(0, I_dim)``
  independent of it: exactly the process of the paper's Lemma 1.  After T
  steps ``w_T = w_init - sum_j s_j eps_j h_j``.  Given the gradients, that sum
  is a linear combination of independent standard normal vectors, so it is
  exactly ``N(0, S I_dim)`` with ``S = sum_j s_j^2 eps_j^2``.  A trial
  therefore draws its T noise values, then one ``z ~ N(0, I_dim)``, and
  returns ``w_init - sqrt(S) z``: the same final weight distribution as T
  feature draws, at ``dim`` normals instead of ``T * dim``.  Taking the
  expectation gives Lemma 1, ``E||w_T - w_star||^2 = s_T * dim * Var(eps) +
  ||w_init - w_star||^2`` (the noise is symmetric, so ``E eps = 0``).
* ``literal`` -- the true residual ``w.h - z`` with noisy targets
  ``z = w_star.h - eta``; weight-dependent, provided for qualitative study.
  A trial draws its T features, then its T noise values; a block of trials
  steps together as one (trials, dim) weight array.

Randomness is counter-based (Philox).  Trial ``i`` of base seed ``b`` draws
from counter 0 of the stream keyed by
``SeedSequence([b, i, 0x51D]).generate_state(2, np.uint64)``.  The keys of
all trials of a call are computed at once on the calling thread (one
``SeedSequence`` each below 8 trials, where that is cheaper than the
vectorized pass), and one generator is re-keyed before each trial, so
results are bitwise identical regardless of trial execution order, block
size or thread count.

Idealized trials run on every CPU the process may use: a call splits its
trials into contiguous slices, one per CPU, runs the first on the calling
thread and each other on a thread of its own, and joins every thread before
it returns or raises.  Outputs do not depend on the CPU count.  Philox draws
and NumPy ufuncs on T-long arrays release the GIL, but a short trial holds it
for most of its time: on 2 CPUs at dim 8, two threads ran trials of
1,500-2,000 steps at 0.6-1.4x the speed of one, and from 3,000 steps mostly
at 1.1-1.5x.  Below 3,000 steps, or below 32 trials per thread (16 each were
no faster than one thread; a thread costs about 0.14 ms to start and join),
a call runs inline, as :func:`run_trial` does.  Literal trials step in a
Python loop that holds the GIL, and always run inline.

The empirical gradient variance scales one standard-normal draw per base
seed by sigma.  A :func:`sweep` makes that draw once for all its rows, so each
row is still exactly its own estimator, but the rows are correlated.
"""

from __future__ import annotations

import itertools
import operator
import os
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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
_BLOCK_BYTES = 4 << 20  # literal mode: all arrays of one block of trials, a few MB
_HASH_MIN_TRIALS = 8  # shorter ranges key each trial with its own SeedSequence
_THREAD_MIN_STEPS = 3000  # idealized trials this long release the GIL for most of their time
_THREAD_MIN_TRIALS = 32  # per thread: two threads of 16 trials were no faster than one thread
VARIANCE_SAMPLES = 1_000_000  # noise draws behind each empirical gradient variance
_MASK32 = 0xFFFFFFFF


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _words(n: int) -> list[int]:
    """The uint32 words, least significant first, that SeedSequence reads from an int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hashmix(value: np.ndarray, first: int, rows: int, init: int = 0x43B0D7E5, mult: int = 0x931E8875) -> np.ndarray:
    """SeedSequence's hashmix at steps ``first .. first + rows - 1`` of its running
    constant ``init * mult**k`` mod 2**32, one step per row of the result."""
    c = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + rows + 1)], np.uint32)
    value = (value ^ c[:-1, None]) * c[1:, None]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> np.uint32(16))


def _seed_keys(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(2, np.uint64)`` for each column ``e`` of a (words, n)
    uint32 array: NumPy's mixing of a pool of four words, each step for all n columns at once."""
    pool = np.zeros((4, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = _hashmix(pool, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], 4 + 3 * src, 3))
    for k, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hashmix(word, 16 + 4 * k, 4))
    state = _hashmix(pool, 0, 4, 0x8B51F9DD, 0x58F38DED).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def _trial_keys(base_seed: int, trials: range) -> np.ndarray:
    """Row k is trial ``trials[k]``'s Philox key, ``SeedSequence([base_seed, trials[k], 0x51D])
    .generate_state(2, np.uint64)``.  A range of 8 or more is keyed in one vectorized pass, in pieces
    split where an index's upper words change."""
    if len(trials) < _HASH_MIN_TRIALS:
        keys = [np.random.SeedSequence([base_seed, i, _TRIAL_STREAM]).generate_state(2, np.uint64) for i in trials]
        return np.array(keys, dtype=np.uint64).reshape(-1, 2)
    keys = np.empty((len(trials), 2), dtype=np.uint64)
    head, tail, start = _words(base_seed), _words(_TRIAL_STREAM), trials.start
    edges = [start, *range(((start >> 32) + 1) << 32, trials.stop, 1 << 32), trials.stop] if trials else []
    for a, b in itertools.pairwise(edges):
        entropy = np.array([*head, 0, *_words(a)[1:], *tail], dtype=np.uint32)
        entropy = entropy[:, None].repeat(b - a, axis=1)
        entropy[len(head)] = np.arange(a & _MASK32, (a & _MASK32) + b - a, dtype=np.uint32)
        keys[a - start : b - start] = _seed_keys(entropy)
    return keys


def _keyed_streams(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One generator, re-keyed to counter 0 of each row's stream in turn."""
    bit_generator = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    rng = np.random.Generator(bit_generator)
    for state["state"]["key"] in keys.tolist():
        bit_generator.state = state
        yield rng


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is Linux-only
        return os.cpu_count() or 1


def _in_threads(fill: Callable[[np.ndarray, np.ndarray], None], w: np.ndarray, keys: np.ndarray, parts: int) -> None:
    """``fill(rows, row_keys)`` on ``parts`` contiguous slices of the rows of ``w`` and ``keys``:
    the first on the calling thread, each other on a thread started here.  Every thread is
    joined before this returns or raises; a worker's exception is then raised here."""
    edges = [len(w) * k // parts for k in range(parts + 1)]
    slices = [(w[a:b], keys[a:b]) for a, b in itertools.pairwise(edges)]
    errors: list[BaseException] = []

    def work(rows: np.ndarray, row_keys: np.ndarray) -> None:
        try:
            fill(rows, row_keys)
        except BaseException as exc:  # handed to the calling thread, which raises it
            errors.append(exc)

    threads = []
    try:
        for args in slices[1:]:
            thread = threading.Thread(target=work, args=args)
            thread.start()
            threads.append(thread)
        fill(*slices[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _variance_noise(base_seed: int, samples: int = VARIANCE_SAMPLES) -> np.ndarray:
    """The standard-normal draw behind the empirical gradient variance of
    ``base_seed``, before it is scaled by sigma."""
    return _rng(base_seed, _GRAD_STREAM).standard_normal(samples)


@dataclass(frozen=True)
class StepSchedule:
    """SGD step sizes s_j: ``scale/j`` (square summable) or constant ``scale``."""

    kind: str = "inverse_j"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("inverse_j", "constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be > 0 and finite")

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
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be >= 0 and finite")
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
    config_echo: SgdConfig

    @cached_property
    def empirical_grad_variance(self) -> float:
        """Gradient variance of 10**6 noise draws on the stream of the
        ensemble's own base seed, drawn when first read.  :func:`sweep` does
        not read it: its rows share one draw on the template's seed."""
        c = self.config_echo
        eta = _variance_noise(c.base_seed)
        eta *= c.sigma
        return _gradient_variance(c.loss, eta)[0]


@dataclass(frozen=True)
class ConvergenceFit:
    c1: float
    c2: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def _simulate(config: SgdConfig, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Final weights (one row per trial) and their squared deviations from
    the optimum.  Idealized trials run on up to one thread per CPU; literal
    trials step a block of trials at a time."""
    t, dim = config.steps, config.dim
    s = config.schedule.steps(t)
    w = np.empty((len(trials), dim))
    keys = _trial_keys(config.base_seed, trials)
    if config.mode == "idealized":

        def fill(rows: np.ndarray, row_keys: np.ndarray) -> None:
            eta = np.empty(t)
            for row, rng in zip(rows, _keyed_streams(row_keys)):
                rng.standard_normal(out=eta)
                eta *= config.sigma
                g = s * gradient_array(config.loss, eta)
                row[:] = config.w_init - np.sqrt((g * g).sum()) * rng.standard_normal(dim)

        parts = min(_cpu_count(), len(trials) // _THREAD_MIN_TRIALS) if t >= _THREAD_MIN_STEPS else 1
        _in_threads(fill, w, keys, max(parts, 1))
    else:
        streams = _keyed_streams(keys)
        # a block holds its features step-major, its targets, and one trial's draw
        chunk = max(1, _BLOCK_BYTES // (8 * t * (dim + 1)) - 1)
        h_trial, eta = np.empty((t, dim)), np.empty(t)
        for start in range(0, len(trials), chunk):
            block = w[start : start + chunk]
            h, target = np.empty((t, len(block), dim)), np.empty((t, len(block)))
            for k, rng in zip(range(len(block)), streams):
                rng.standard_normal(out=h_trial)
                rng.standard_normal(out=eta)
                eta *= config.sigma
                h[:, k] = h_trial
                # target and residual share one reduction, so w = w_star gives 0 exactly
                target[:, k] = (config.w_star * h_trial).sum(1) - eta
            block[:] = config.w_init
            for j in range(t):
                hj = h[j]
                resid = (block * hj).sum(1) - target[j]
                block -= (s[j] * gradient_array(config.loss, resid))[:, None] * hj
    dev = w - config.w_star
    return w, (dev * dev).sum(1)


def run_trial(config: SgdConfig, trial_index: int) -> TrialResult:
    """Run one seeded trial of T SGD steps and report the squared deviation
    of the final weight from the optimum."""
    w, dev_sq = _simulate(config, range(trial_index, trial_index + 1))
    return TrialResult(final_weight=w[0], deviation_sq=float(dev_sq[0]), trial_index=trial_index)


def _gradient_variance(loss: LossKind, eta: np.ndarray) -> tuple[float, np.ndarray]:
    """Variance of the loss gradients at the residuals ``eta``, and the gradients."""
    eps = gradient_array(loss, eta)
    return float(np.var(eps)), eps


def empirical_gradient_variance(
    loss: LossKind, sigma: float, base_seed: int = 0, samples: int = VARIANCE_SAMPLES
) -> tuple[float, float]:
    """Monte Carlo gradient variance over ``samples`` noise draws.

    Returns ``(variance, standard_error)`` where the standard error is that of
    the variance estimator itself.
    """
    NoiseModel(sigma)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    eta = _variance_noise(base_seed, samples)
    eta *= sigma
    var, eps = _gradient_variance(loss, eta)
    sq = (eps - eps.mean()) ** 2
    se = float(np.std(sq) / np.sqrt(samples))
    return var, se


def run_ensemble(config: SgdConfig) -> EnsembleStats:
    """Average deviation over independent trials (reduced in trial order).
    The gradient-variance draw is made only when its field is read."""
    _, devs = _simulate(config, range(config.trials))
    se = float(devs.std(ddof=1) / np.sqrt(config.trials)) if config.trials > 1 else 0.0
    return EnsembleStats(mean_deviation_sq=float(devs.mean()), std_error=se, config_echo=config)


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

    Every axis value is checked before any work.  Each row runs an ensemble
    on its own seed; its ``var_empirical`` scales one draw shared by all rows,
    so it equals ``empirical_gradient_variance(loss, sigma, template.base_seed)[0]``.
    Rows whose gradients are exactly those at ``sign(z)`` (l1, and dice while
    no ``|sigma z|`` passes the length) share one variance pass per loss.

    Non-dice losses do not depend on the object length but the length column
    is still recorded so the table stays rectangular.
    """
    axes = list(losses), list(lengths), list(sigmas)
    if not all(axes):
        raise ValueError("sweep axes must be non-empty")
    beta = template.loss.beta if template.loss.kind == "smooth_l1" else 1.0
    cells = [(name, length, LossKind.parse(name, length, beta)) for name, length in itertools.product(*axes[:2])]
    noises = [NoiseModel(sigma) for sigma in axes[2]]
    z = _variance_noise(template.base_seed)
    eta = np.abs(z)
    z_min, z_max = eta.min(), eta.max()
    sign_only: dict[LossKind, float] = {}  # per loss, the variance of its gradients at sign(z)
    rows: list[SweepRow] = []
    for row_index, ((loss_name, length, loss), noise) in enumerate(itertools.product(cells, noises)):
        seed = int(np.random.SeedSequence([template.base_seed, row_index, _ROW_STREAM]).generate_state(1)[0])
        stats = run_ensemble(replace(template, loss=loss, sigma=noise.sigma, base_seed=seed))
        # sigma * z has z's sign while no product rounds to 0, and dice reads only that sign
        # while every |sigma * z| <= length: such a row's gradients are those at sign(z)
        at_sign = noise.sigma * z_min > 0 and (
            loss.kind == "l1" or loss.kind == "dice" and noise.sigma * z_max <= loss.length)
        if at_sign and loss in sign_only:
            var = sign_only[loss]
        else:
            np.multiply(z, noise.sigma, out=eta)
            var = _gradient_variance(loss, eta)[0]
            if at_sign:
                sign_only[loss] = var
        rows.append(SweepRow(loss=loss_name, length=length, sigma=noise.sigma,
                             var_closed=closed_form_variance(loss, noise),
                             var_empirical=var,
                             mean_dev=stats.mean_deviation_sq, std_err=stats.std_error))
    return rows
