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
``SeedSequence([b, i, 0x51D]).generate_state(2, np.uint64)``.  A call keys
all its trials in one vectorized pass on the calling thread and re-keys one
generator before each trial, so results are bitwise identical regardless of
trial execution order, block size or thread count.

Idealized trials run on every CPU the process may use: a call splits its
trials into contiguous slices, one per CPU, runs the first on the calling
thread and each other on a thread of a ``ThreadPoolExecutor``, and joins
every pool thread before it returns or raises.  Outputs do not depend on the
CPU count.  Philox draws and NumPy ufuncs on T-long arrays release the GIL,
but a short trial holds it for most of its time: on 2 CPUs at dim 8, two
threads ran trials of 1,500-2,000 steps at 0.6-1.4x the speed of one, and
from 3,000 steps mostly at 1.1-1.5x.  Below 3,000 steps, or below 32 trials
per thread (16 each were no faster than one thread; a thread costs about
0.14 ms to start and join), a call runs inline, as :func:`run_trial` does.
Each slice allocates its own two T-long buffers, for the noise and for the
gradients, which it scales and squares in place; no buffer is shared between
threads.  Literal trials step in a Python loop that holds the GIL: they run inline.

The empirical gradient variance scales one standard-normal draw per base seed
by sigma, then takes the gradients (:func:`~bevlab.losses.gradient_array` with
``out`` set to the draw) and ``np.var``'s reduction in the draw's own buffer: a
pass holds one array of ``samples`` floats plus a 128 KB scratch block (and,
for dice, that block's masks).  A :func:`sweep` makes the draw once for all its
rows and works in a second array, so each row is still exactly its own
estimator, but the rows correlate.  A variance, an ensemble's mean or a
standard error that overflows float64 raises ValueError naming sigma: the
standard errors square squared deviations, about sigma**4 for l2.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

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
_THREAD_MIN_STEPS = 3000  # idealized trials this long release the GIL for most of their time
_THREAD_MIN_TRIALS = 32  # per thread: two threads of 16 trials were no faster than one thread
VARIANCE_SAMPLES = 1_000_000  # noise draws behind each empirical gradient variance
_MASK32 = 0xFFFFFFFF


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _words(n: int) -> list[int]:
    """The uint32 words, least significant first, that SeedSequence reads from an int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


@cache
def _hash_constants(first: int, rows: int, init: int, mult: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 at k = first .. first + rows, as a read-only column."""
    c = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + rows + 1)], np.uint32)[:, None]
    c.flags.writeable = False
    return c


def _hashmix(value: np.ndarray, first: int, rows: int, init: int = 0x43B0D7E5, mult: int = 0x931E8875) -> np.ndarray:
    """SeedSequence's hashmix at steps ``first .. first + rows - 1`` of its running
    constant, one step per row of the result."""
    c = _hash_constants(first, rows, init, mult)
    value = (value ^ c[:-1]) * c[1:]
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
    .generate_state(2, np.uint64)``, computed in one vectorized pass, in pieces split where an
    index's upper words change."""
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


def _variance_noise(base_seed: int, samples: int = VARIANCE_SAMPLES) -> np.ndarray:
    """The standard-normal draw behind ``base_seed``'s empirical gradient variance, unscaled."""
    return _rng(base_seed, _GRAD_STREAM).standard_normal(samples)


@dataclass(frozen=True)
class StepSchedule:
    """SGD step sizes s_j = ``scale/j``, square summable."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be > 0 and finite")

    def steps(self, t: int) -> np.ndarray:
        return self.scale / np.arange(1, t + 1, dtype=np.float64)

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
        if not all(1 <= n <= sys.maxsize for n in (self.dim, self.steps, self.trials)):
            raise ValueError(f"dim, steps and trials must be >= 1 and at most {sys.maxsize}")
        if self.mode not in ("idealized", "literal"):
            raise ValueError(f"unknown mode {self.mode!r}")
        closed_form_variance(self.loss, NoiseModel(self.sigma))  # checks sigma, and for l2 its square
        if self.w_star is None:
            self.w_star = np.zeros(self.dim)
        self.w_star = np.asarray(self.w_star, dtype=np.float64)
        if self.w_init is None:
            # idealized isolates the Var(eps) term by starting at the optimum
            self.w_init = self.w_star.copy() if self.mode == "idealized" else np.zeros(self.dim)
        self.w_init = np.asarray(self.w_init, dtype=np.float64)
        if self.w_star.shape != (self.dim,) or self.w_init.shape != (self.dim,):
            raise ValueError("w_star and w_init must have length dim")
        if not (np.isfinite(self.w_star).all() and np.isfinite(self.w_init).all()):
            raise ValueError("w_star and w_init must be finite")


@dataclass(frozen=True)
class TrialResult:
    final_weight: np.ndarray
    deviation_sq: float


@dataclass(frozen=True)
class EnsembleStats:
    mean_deviation_sq: float
    std_error: float
    config_echo: SgdConfig

    @cached_property
    def empirical_grad_variance(self) -> float:
        """:func:`empirical_gradient_variance` on the ensemble's own base seed, without its
        standard error, drawn when first read; :func:`sweep` does not read it, its rows share one draw."""
        c = self.config_echo
        z = _variance_noise(c.base_seed)
        return _gradient_variance(c.loss, z, c.sigma, z)


@dataclass(frozen=True)
class ConvergenceFit:
    c1: float
    c2: float
    r_squared: float


def _simulate(config: SgdConfig, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Final weights (one row per trial) and their squared deviations from
    the optimum.  Idealized trials run on up to one thread per CPU; literal
    trials step a block of trials at a time."""
    t, dim = config.steps, config.dim
    s = config.schedule.steps(t)
    w = np.empty((len(trials), dim))
    keys = _trial_keys(config.base_seed, trials)
    if config.mode == "idealized":
        # a pool gives queued work to any thread that is done, so each slice waits until all have a thread
        handed_out = Future()

        def fill(rows: np.ndarray, row_keys: np.ndarray) -> None:
            handed_out.result()
            eta, g = np.empty(t), np.empty(t)  # this thread's own buffers
            sigma, loss, w_init = config.sigma, config.loss, config.w_init
            # at a huge l2 sigma the sum of squares overflows; run_ensemble reports it, naming sigma
            with np.errstate(over="ignore"):
                for row, rng in zip(rows, _keyed_streams(row_keys)):
                    rng.standard_normal(out=eta)
                    eta *= sigma
                    g = gradient_array(loss, eta, out=g)
                    g *= s  # in place, the bits of s * g and then of g * g
                    g *= g
                    np.subtract(w_init, math.sqrt(np.add.reduce(g)) * rng.standard_normal(dim), out=row)

        parts = max(1, min(_cpu_count(), len(trials) // _THREAD_MIN_TRIALS)) if t >= _THREAD_MIN_STEPS else 1
        slices = list(zip(np.array_split(w, parts), np.array_split(keys, parts)))
        # leaving the block joins every pool thread; result() raises a worker's exception
        with ThreadPoolExecutor(max(parts - 1, 1)) as pool:
            try:
                futures = [pool.submit(fill, *args) for args in slices[1:]]
            finally:
                handed_out.set_result(None)
            fill(*slices[0])
            for future in futures:
                future.result()
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
            prod = np.empty_like(block)
            for hj, target_j, s_j in zip(h, target, s):  # in place, the bits of the allocating step
                resid = np.add.reduce(np.multiply(block, hj, out=prod), axis=1)
                resid -= target_j
                g = gradient_array(config.loss, resid)
                g *= s_j
                block -= np.multiply(g[:, None], hj, out=prod)
    dev = w - config.w_star
    with np.errstate(over="ignore"):  # a huge l2 weight squares past float64; run_ensemble reports it, naming sigma
        return w, (dev * dev).sum(1)


def run_trial(config: SgdConfig, trial_index: int) -> TrialResult:
    """Run one seeded trial of T SGD steps and report the squared deviation
    of the final weight from the optimum."""
    w, dev_sq = _simulate(config, range(trial_index, trial_index + 1))
    return TrialResult(final_weight=w[0], deviation_sq=float(dev_sq[0]))


def _variance(x: np.ndarray) -> float:
    """``np.var(x)`` by its own operations in ``x``'s buffer, left holding the squared deviations."""
    x -= np.add.reduce(x) / x.size
    np.square(x, out=x)
    return float(np.add.reduce(x) / x.size)


def _finite(sigma: float, what: str, value: float) -> float:
    """``value``, a statistic of finite inputs at noise ``sigma``; ValueError naming sigma if it overflowed."""
    if not math.isfinite(value):
        raise ValueError(f"the {what} overflows float64 at sigma {sigma:g}")
    return value


def _gradient_variance(loss: LossKind, z: np.ndarray, sigma: float, out: np.ndarray) -> float:
    """``float(np.var(gradient_array(loss, sigma * z)))`` in ``out``'s buffer (``z`` itself allowed), left
    as :func:`_variance` leaves it; raises ValueError naming sigma when it overflows."""
    with np.errstate(over="ignore"):  # l1, dice and smooth-L1 read an overflowed sigma * z rightly
        np.multiply(z, sigma, out=out)
        return _finite(sigma, "gradient variance", _variance(gradient_array(loss, out, out=out)))


def empirical_gradient_variance(
    loss: LossKind, sigma: float, base_seed: int = 0, samples: int = VARIANCE_SAMPLES
) -> tuple[float, float]:
    """Monte Carlo gradient variance over ``samples`` noise draws.

    Returns ``(variance, standard_error)`` where the standard error is that of
    the variance estimator itself.  Raises ValueError naming sigma when either
    overflows: the standard error squares squared deviations, about sigma**4 for l2.
    """
    NoiseModel(sigma)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    eta = _variance_noise(base_seed, samples)
    var = _gradient_variance(loss, eta, sigma, eta)  # leaves the squared deviations in eta
    with np.errstate(over="ignore"):
        se = float(np.sqrt(_variance(eta)) / np.sqrt(samples))  # their np.std over sqrt(samples)
    return var, _finite(sigma, "standard error of the gradient variance", se)


def run_ensemble(config: SgdConfig) -> EnsembleStats:
    """Average deviation over independent trials (reduced in trial order).
    The gradient-variance draw is made only when its field is read.  Raises
    ValueError naming sigma when the mean or standard error overflows: the
    standard error squares squared deviations, about sigma**4 for l2."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed trial gives inf - inf in the std
        _, devs = _simulate(config, range(config.trials))
        mean = float(devs.mean())
        se = float(devs.std(ddof=1) / np.sqrt(config.trials)) if config.trials > 1 else 0.0
    return EnsembleStats(mean_deviation_sq=_finite(config.sigma, "ensemble's mean squared deviation", mean),
                         std_error=_finite(config.sigma, "ensemble's standard error", se), config_echo=config)


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
    return ConvergenceFit(c1=float(c1), c2=float(c2), r_squared=max(0.0, min(1.0, r2)))


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

    Every axis value is checked before any work; a length must be finite for
    every loss.  Each row runs an ensemble on its own seed; its
    ``var_empirical`` scales one draw shared by all rows,
    so it equals ``empirical_gradient_variance(loss, sigma, template.base_seed)[0]``.
    Rows whose gradients are exactly those at ``sign(z)`` (l1, and dice while
    no ``|sigma z|`` passes the length) share one variance pass per loss.

    Non-dice losses do not depend on the object length but the length column
    is still recorded so the table stays rectangular.  Smooth-L1 rows use beta = 1.
    """
    axes = list(losses), list(lengths), list(sigmas)
    if not all(axes):
        raise ValueError("sweep axes must be non-empty")
    cells = [(name, length, LossKind.parse(name, length)) for name, length in itertools.product(*axes[:2])]
    if not all(map(math.isfinite, axes[1])):  # dice checks its lengths; the other losses only echo them
        raise ValueError("sweep lengths must be finite")
    noises = [NoiseModel(sigma) for sigma in axes[2]]
    grid = [(cell, noise, closed_form_variance(cell[2], noise)) for cell, noise in itertools.product(cells, noises)]
    z = _variance_noise(template.base_seed)
    eta = np.abs(z)
    z_min, z_max = eta.min(), eta.max()
    sign_only: dict[LossKind, float] = {}  # per loss, the variance of its gradients at sign(z)
    rows: list[SweepRow] = []
    for row_index, ((loss_name, length, loss), noise, var_closed) in enumerate(grid):
        seed = _seed(template.base_seed, row_index, _ROW_STREAM)
        stats = run_ensemble(replace(template, loss=loss, sigma=noise.sigma, base_seed=seed))
        # sigma * z has z's sign while no product rounds to 0, and dice reads only that sign
        # while every |sigma * z| <= length: such a row's gradients are those at sign(z)
        at_sign = noise.sigma * z_min > 0 and (
            loss.kind == "l1" or loss.kind == "dice" and noise.sigma * z_max <= loss.length)
        if at_sign and loss in sign_only:
            var = sign_only[loss]
        else:
            var = _gradient_variance(loss, z, noise.sigma, eta)
            if at_sign:
                sign_only[loss] = var
        rows.append(SweepRow(loss=loss_name, length=length, sigma=noise.sigma,
                             var_closed=var_closed,
                             var_empirical=var,
                             mean_dev=stats.mean_deviation_sq, std_err=stats.std_error))
    return rows
