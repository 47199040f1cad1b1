"""Loss families, closed-form gradient variances, and critical noise thresholds.

The losses operate on a scalar depth residual ``eta`` (meters).  Four families
are supported:

* ``l1``        : absolute error, gradient ``sign(eta)``, variance 1.
* ``l2``        : half squared error, gradient ``eta``, variance ``sigma**2``.
* ``smooth_l1`` : Huber-style transition at ``beta``; variance ``sigma**2 (Erf(a)
                  - 2 r phi(r)) + beta**2 Erfc(a)`` with ``r = beta/sigma``,
                  ``a = r/sqrt(2)`` and ``phi`` the standard normal density.
                  Tests check it; :func:`closed_form_variance` returns None,
                  so ``variance`` and ``sweep`` output leave its cell empty.
* ``dice``      : 1D overlap loss for an object of length ``ell``; gradient
                  ``sign(eta)/ell`` inside ``|eta| <= ell`` and 0 outside,
                  variance ``Erf(ell / (sqrt(2) sigma)) / ell**2``.

The critical-noise solver finds ``sigma_m``, the unique positive root of
``sigma**2 = Erf(ell / (sqrt(2) sigma)) / ell**2``, and combines it with the
L1-branch threshold ``sqrt(2)/ell * erf_inv(ell**2)`` (defined only for
``ell < 1``) into the overall threshold ``sigma_c``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LossKind",
    "NoiseModel",
    "ThresholdResult",
    "erf_inv",
    "loss_value",
    "loss_gradient",
    "gradient_array",
    "closed_form_variance",
    "sigma_m",
    "sigma_c",
]

_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

_KINDS = ("l1", "l2", "smooth_l1", "dice")
# values per scratch block of an in-place l1 or dice gradient: NumPy's sign takes a slow loop
# when it writes over its own input (NumPy 2.4 on a 2-CPU Xeon: 6.0 ms per 10^6 values, 1.6 ms into another buffer)
_SCRATCH_VALUES = 16_384


@dataclass(frozen=True)
class LossKind:
    """One member of the loss family: a variant tag plus its parameters.

    ``beta`` is required for ``smooth_l1`` (transition point, meters) and
    ``length`` for ``dice`` (object length, meters); both must be positive
    and finite, and the length's square a normal, finite float.
    """

    kind: str
    beta: float | None = None
    length: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "smooth_l1":
            if self.beta is None or not 0 < self.beta < math.inf:
                raise ValueError("smooth_l1 requires a finite beta > 0")
        if self.kind == "dice":
            if self.length is None or not (0 < self.length and _normal_square(self.length)):
                raise ValueError("dice requires a finite length > 0 with a normal, finite square")

    @classmethod
    def l1(cls) -> "LossKind":
        return cls("l1")

    @classmethod
    def l2(cls) -> "LossKind":
        return cls("l2")

    @classmethod
    def smooth_l1(cls, beta: float) -> "LossKind":
        return cls("smooth_l1", beta=beta)

    @classmethod
    def dice(cls, length: float) -> "LossKind":
        return cls("dice", length=length)

    @classmethod
    def parse(cls, name: str, length: float | None = None, beta: float = 1.0) -> "LossKind":
        """Loss from its name: ``l1``, ``l2``, ``smooth_l1`` (or ``smoothl1``)
        or ``dice``, case-insensitive, with ``-`` read as ``_``.

        ``beta`` applies to smooth_l1 and ``length`` to dice only; raises
        ValueError for an unknown name or for dice without a length.
        """
        kind = name.lower().replace("-", "_")
        kind = "smooth_l1" if kind == "smoothl1" else kind
        return cls(kind, beta=beta if kind == "smooth_l1" else None, length=length if kind == "dice" else None)

    def label(self) -> str:
        if self.kind == "dice":
            return f"dice(l={self.length:g})"
        if self.kind == "smooth_l1":
            return f"smooth_l1(beta={self.beta:g})"
        return self.kind


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean Gaussian depth noise with standard deviation sigma."""

    sigma: float

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be >= 0 and finite")


@dataclass(frozen=True)
class ThresholdResult:
    """Output of the critical-noise-threshold solver for one object length."""

    sigma_m: float
    sigma_l1: float
    sigma_c: float
    length: float
    solver_residual: float
    iterations: int


def _normal_square(x: float) -> bool:  # neither 0, subnormal nor inf
    return sys.float_info.min <= x * x < math.inf


def _bisect(below: Callable[[float], bool], lo: float, hi: float,
            done: Callable[[float, float, int], bool]) -> tuple[float, int]:
    """Double ``hi`` while ``below(hi)`` and halve ``lo`` while not ``below(lo)``, then halve
    ``[lo, hi]`` until ``done(lo, hi, steps)`` or until its midpoint is one of its ends;
    returns the bracket's midpoint and the number of halvings."""
    while below(hi):
        hi *= 2.0
    while not below(lo):
        lo *= 0.5
    steps = 0
    while not done(lo, hi, steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: no halving can narrow the bracket
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
        steps += 1
    return 0.5 * (lo + hi), steps


def erf_inv(p: float) -> float:
    """Inverse error function on (-1, 1).

    Raises ValueError outside the open interval; callers hitting ``p >= 1``
    must fall back to the trivially-satisfied L1 branch (sigma_l1 = 0).
    """
    if not -1.0 < p < 1.0:
        raise ValueError(f"erf_inv domain is (-1, 1), got {p}")
    if p == 0.0:
        return 0.0
    q = abs(p)
    x, _ = _bisect(lambda x: math.erf(x) < q, 0.0, 1.0, lambda lo, hi, steps: steps == 60)
    # Newton polish; derivative of erf is 2/sqrt(pi) * exp(-x^2)
    for _ in range(4):
        x -= (math.erf(x) - q) / (_TWO_OVER_SQRT_PI * math.exp(-x * x))
    return math.copysign(x, p)


def loss_value(kind: LossKind, eta: float) -> float:
    """Loss evaluated at residual eta."""
    a = abs(eta)
    if kind.kind == "l1":
        return a
    if kind.kind == "l2":
        return 0.5 * eta * eta
    if kind.kind == "smooth_l1":
        b = kind.beta
        if a <= b:
            return 0.5 * eta * eta
        return b * (a - 0.5 * b)
    # dice
    ell = kind.length
    return a / ell if a <= ell else 1.0


def loss_gradient(kind: LossKind, eta: float) -> float:
    """Gradient of the loss with respect to the residual: the scalar case of
    :func:`gradient_array`."""
    return float(gradient_array(kind, eta))


def gradient_array(kind: LossKind, eta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the loss at each residual.

    At the measure-zero kinks: sign-based losses give 0 at eta = 0, and the
    dice gradient keeps its interior value at |eta| = ell.

    ``out=None`` allocates the result.  Otherwise the gradients are written
    into ``out``, which is returned; ``out`` may be ``eta`` itself.  Every
    form gives the allocating form's bits for every float (signed zeros,
    subnormals, infinities and NaN).  Writing l1 or dice gradients over a
    contiguous ``eta`` goes through one scratch block of 16,384 values (128 KB)
    at a time.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if out is not eta or kind.kind not in ("l1", "dice") or not eta.flags.c_contiguous:
        return _gradient(kind, eta, out)
    flat = eta.reshape(-1)
    scratch = np.empty(min(flat.size, _SCRATCH_VALUES))
    for start in range(0, flat.size, _SCRATCH_VALUES):
        block = flat[start : start + _SCRATCH_VALUES]
        block[...] = _gradient(kind, block, scratch[: block.size])
    return out


def _gradient(kind: LossKind, eta: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """:func:`gradient_array` on a float64 ``eta``, for an ``out`` that is None,
    ``eta`` itself or apart from it."""
    if kind.kind == "l1":
        return np.sign(eta, out=out)
    if kind.kind == "l2":
        if out is None:
            return eta.copy()
        if out is not eta:
            np.copyto(out, eta)
        return out
    if kind.kind == "smooth_l1":
        return np.clip(eta, -kind.beta, kind.beta, out=out)
    inside = np.abs(eta) <= kind.length  # False for NaN
    out = np.sign(eta, out=np.empty_like(eta) if out is None else out)
    out /= kind.length
    np.copyto(out, 0.0, where=~inside)
    return out


def closed_form_variance(kind: LossKind, noise: NoiseModel) -> float | None:
    """Closed-form gradient variance, or None for smooth_l1, whose formula
    (module docstring) the reports leave out.  Raises ValueError for l2 at a
    sigma whose square overflows.

    The dice formula ``Erf(ell/(sqrt(2) sigma)) / ell**2`` is continued to
    ``sigma = 0`` by its limit ``1/ell**2``; l1's is 1 at every sigma.  The
    empirical variance at ``sigma = 0`` is 0 instead, for both: every
    residual is 0, and :func:`gradient_array` gives 0 at the kink.
    """
    sigma = noise.sigma
    if kind.kind == "l1":
        return 1.0
    if kind.kind == "l2":  # the one variance that squares sigma
        if not sigma * sigma < math.inf:
            raise ValueError("l2 requires a sigma whose square is finite")
        return sigma * sigma
    if kind.kind == "smooth_l1":
        return None
    ell = kind.length
    if sigma == 0.0:
        return 1.0 / (ell * ell)
    return math.erf(ell / (_SQRT2 * sigma)) / (ell * ell)


def _fixed_point_residual(sigma: float, length: float) -> float:
    return sigma * sigma - math.erf(length / (_SQRT2 * sigma)) / (length * length)


def sigma_m(length: float) -> float:
    """Noise level where the dice and L2 gradient variances cross.

    Unique positive root of ``sigma**2 = Erf(ell/(sqrt(2) sigma)) / ell**2``
    (left side strictly increasing, right side strictly decreasing), found by
    bisection on the bracket ``[1e-6, max(1, 2/ell)]``, widened until it holds
    the root, to a width of 1e-12, relative to the root below 1e-6.
    """
    root, _, _ = _solve_sigma_m(length)
    return root


def _solve_sigma_m(length: float) -> tuple[float, float, int]:
    if not (0 < length and _normal_square(length)):
        raise ValueError("length must be > 0 and finite, with a normal, finite square")
    root, iterations = _bisect(lambda s: _fixed_point_residual(s, length) < 0, 1e-6, max(1.0, 2.0 / length),
                               lambda lo, hi, steps: hi - lo <= 1e-12 * (1.0 if lo >= 1e-6 else lo))
    return root, _fixed_point_residual(root, length), iterations


def sigma_c(length: float) -> ThresholdResult:
    """Critical noise threshold beyond which dice converges better than both
    L1 and L2.

    For ``ell**2 >= 1`` the L1 comparison holds for every sigma, so the L1
    branch contributes 0; otherwise it is ``sqrt(2)/ell * erf_inv(ell**2)``.
    """
    root, residual, iterations = _solve_sigma_m(length)
    if length * length >= 1.0:
        s_l1 = 0.0
    else:
        s_l1 = _SQRT2 / length * erf_inv(length * length)
    return ThresholdResult(
        sigma_m=root,
        sigma_l1=s_l1,
        sigma_c=max(root, s_l1),
        length=length,
        solver_residual=residual,
        iterations=iterations,
    )
