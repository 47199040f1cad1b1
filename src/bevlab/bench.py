"""End-to-end synthetic benchmark: train the linear depth model under each
loss, predict depths on a fresh scene of along-ray objects, and compare the
resulting AP3D.

Scenes place objects on disjoint rays (no inter-object interaction); every
ground-truth depth satisfies ``z = w_star . h`` exactly by rescaling the
feature along ``w_star``.  Prediction scores are uniform (1.0) and ranking is
stable, so AP is the all-point AP of the TP/FP sequence in object order, not
the match rate.

A scene's predictions and ground truths are one columnar frame, evaluated
whole: the evaluator pairs each prediction only with the ground truths its
footprint can reach, which on disjoint rays is the one on its own ray.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .geometry import Box3D, BoxArray, RayObject, interval_overlaps, ray_iou
from .losses import LossKind, NoiseModel, sigma_c
from .metrics import ALL_BIN, FrameSet, evaluate
from .sgd import SgdConfig, _rng, _seed, run_trial

__all__ = [
    "SceneConfig",
    "SyntheticScene",
    "TheoremRow",
    "TheoremReport",
    "generate_scene",
    "simulate_predictions",
    "ray_box_iou",
    "theorem1_experiment",
]

_SCENE_STREAM = 0x5CE
_TRAIN_STREAM = 0x17A1
_RAY_SPACING = 1000.0  # meters between rays; far beyond any box extent


@dataclass(frozen=True)
class SceneConfig:
    """A scene's categories, size, depth range and seed.  :func:`generate_scene`
    does not read ``sigma``; it stays for callers that pass it."""

    categories: tuple[tuple[str, float], ...]  # (name, length)
    objects_per_category: int
    depth_range: tuple[float, float] = (20.0, 80.0)
    feature_dim: int = 16
    sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        z_min, z_max = map(float, self.depth_range)  # as Python floats, an overflow is inf and no warning
        mid = 0.5 * (z_min + z_max)  # the norm of w_star, whose square generate_scene divides by
        if not (np.inf > z_max > z_min > 0 and np.inf > mid * mid):
            raise ValueError("depth_range must satisfy z_max > z_min > 0 and be finite, with a finite midpoint squared")
        if not all(1 <= n <= sys.maxsize for n in (self.objects_per_category, self.feature_dim)):
            raise ValueError(f"objects_per_category and feature_dim must be >= 1 and at most {sys.maxsize}")
        if not all(0 < length < np.inf for _, length in self.categories):
            raise ValueError("object lengths must be > 0 and finite")


@dataclass
class SyntheticScene:
    """Objects on disjoint rays sharing one hidden optimal weight."""

    config: SceneConfig
    w_star: np.ndarray
    lengths: np.ndarray  # (n,)
    depths: np.ndarray  # (n,), equals features @ w_star exactly
    features: np.ndarray  # (n, dim)
    codes: np.ndarray  # (n,), per object, into names
    names: tuple[str, ...]  # distinct categories in order of first appearance

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def categories(self) -> list[str]:
        """Each object's category name."""
        return [self.names[c] for c in self.codes.tolist()]


def generate_scene(config: SceneConfig) -> SyntheticScene:
    """Deterministically draw a scene: w_star from the scaled unit sphere,
    features standard normal rescaled along w_star so depths land uniformly
    in the configured range."""
    rng = _rng(config.seed, _SCENE_STREAM)
    dim = config.feature_dim
    z_min, z_max = config.depth_range
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    w_star = direction * 0.5 * (z_min + z_max)
    n = len(config.categories) * config.objects_per_category
    names = tuple(dict.fromkeys(name for name, _ in config.categories))  # a repeated name keeps its first code
    codes = np.repeat([names.index(name) for name, _ in config.categories], config.objects_per_category)
    lengths = np.repeat(np.array([length for _, length in config.categories], dtype=np.float64),
                        config.objects_per_category)
    h0 = rng.standard_normal((n, dim))
    z = rng.uniform(z_min, z_max, size=n)
    w_sq = float(w_star @ w_star)
    correction = (z - h0 @ w_star) / w_sq
    features = h0 + correction[:, None] * w_star
    return SyntheticScene(
        config=config,
        w_star=w_star,
        lengths=lengths,
        depths=z,
        features=features,
        codes=codes,
        names=names,
    )


def simulate_predictions(scene: SyntheticScene, weight: np.ndarray) -> FrameSet:
    """One degenerate box prediction per GT object at depth ``weight . h``
    with the category's true length, object i on the ray x = i * 1 km; all
    scores 1.0.  The frame is built from columns."""
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != (scene.config.feature_dim,):
        raise ValueError("weight dimension mismatch")
    n = len(scene)
    ell, zero, x = scene.lengths, np.zeros(n), np.arange(n) * _RAY_SPACING

    def boxes(z, scores=None):
        return BoxArray(np.column_stack([x, zero, z, ell, ell, ell, zero]), scene.codes, scene.names, scores)

    return FrameSet.from_columns("synthetic", boxes(scene.features @ weight, np.ones(n)), boxes(scene.depths))


def ray_box_iou(a: Box3D, b: Box3D) -> float:
    """Along-ray 1D IoU of two degenerate boxes; zero across distinct rays."""
    if abs(a.x - b.x) >= 0.5 * (a.w + b.w):
        return 0.0
    return ray_iou(RayObject(a.z, a.l), RayObject(b.z, b.l))


def _ray_box_iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ray_box_iou of each row pair of two (K, 7) box value arrays, with the
    same float operations."""
    inter = interval_overlaps(a[:, 2], a[:, 3], b[:, 2], b[:, 3])
    union = a[:, 3] + b[:, 3] - inter
    same_ray = np.abs(a[:, 0] - b[:, 0]) < 0.5 * (a[:, 4] + b[:, 4])
    ok = same_ray & (union > 0)
    return np.where(ok, inter / np.where(ok, union, 1.0), 0.0)


# The vectorized twin that evaluate() uses in place of the scalar IoU.
ray_box_iou.pairwise = _ray_box_iou_pairs


@dataclass(frozen=True)
class TheoremRow:
    loss: str
    length: float
    sigma: float
    seed: int
    ap50: float
    ap25: float
    mean_abs_err: float


@dataclass
class TheoremReport:
    rows: list[TheoremRow]
    mean_ap50: dict[tuple[str, float], float]  # (loss, length)
    mean_ap25: dict[tuple[str, float], float]
    win_rate_vs_l1: dict[float, float]  # length -> fraction of seeds dice beats L1 at AP50
    win_rate_vs_l2: dict[float, float]
    sigma: float
    sigma_c: dict[float, float]
    precondition_met: dict[float, bool]


def theorem1_experiment(
    lengths: Sequence[float],
    sigma: float,
    sgd_template: SgdConfig,
    n_seeds: int,
    objects_per_category: int = 10_000,
) -> TheoremReport:
    """For each length and seed, train L1 / L2 / dice models on the idealized
    simulator and evaluate their AP3D on a fresh synthetic scene.  Raises
    ValueError naming sigma when a trained weight overflows float64."""
    NoiseModel(sigma)
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    lengths = list(lengths)
    if not lengths or len(set(lengths)) < len(lengths):  # each length keys its own means and win rates
        raise ValueError("lengths must be non-empty and distinct")
    rows: list[TheoremRow] = []
    sigma_c_map = {ell: sigma_c(ell).sigma_c for ell in lengths}
    dim = sgd_template.dim
    for ell_idx, ell in enumerate(lengths):
        name = f"obj{ell:g}m"
        losses = {"l1": LossKind.l1(), "l2": LossKind.l2(), "dice": LossKind.dice(ell)}
        for seed_idx in range(n_seeds):
            scene_seed = _seed(sgd_template.base_seed, ell_idx, seed_idx, _SCENE_STREAM)
            scene = generate_scene(
                SceneConfig(
                    categories=((name, ell),),
                    objects_per_category=objects_per_category,
                    feature_dim=dim,
                    sigma=sigma,
                    seed=scene_seed,
                )
            )
            for loss_idx, (loss_name, loss) in enumerate(losses.items()):
                train_seed = _seed(sgd_template.base_seed, ell_idx, seed_idx, loss_idx, _TRAIN_STREAM)
                cfg = replace(
                    sgd_template,
                    loss=loss,
                    sigma=sigma,
                    mode="idealized",
                    trials=1,
                    w_star=scene.w_star,
                    w_init=scene.w_star.copy(),
                    base_seed=train_seed,
                )
                w_conv = run_trial(cfg, 0).final_weight
                if not np.isfinite(w_conv).all():  # an l2 step's sum of squared gradients passed float64
                    raise ValueError(f"the {loss_name}-trained weight overflows float64 at sigma {sigma:g}")
                frame = simulate_predictions(scene, w_conv)
                report = evaluate([frame], thresholds=(0.5, 0.25), iou_fn=ray_box_iou)
                rows.append(
                    TheoremRow(
                        loss=loss_name,
                        length=ell,
                        sigma=sigma,
                        seed=seed_idx,
                        ap50=report.curves[(name, 0.5, ALL_BIN)].ap,
                        ap25=report.curves[(name, 0.25, ALL_BIN)].ap,
                        mean_abs_err=float(np.abs(scene.features @ (w_conv - scene.w_star)).mean()),
                    )
                )

    def aps(kind: str, loss_name: str, ell: float) -> list[float]:
        """The ``kind`` AP of each seed of one (loss, length) cell, in seed order."""
        return [getattr(r, kind) for r in rows if r.loss == loss_name and r.length == ell]

    def mean_ap(kind: str) -> dict[tuple[str, float], float]:
        return {(name, ell): float(np.mean(aps(kind, name, ell))) for name in ("l1", "l2", "dice") for ell in lengths}

    def dice_win_rate(rival: str) -> dict[float, float]:
        """Per length, the fraction of seeds where dice's AP50 beats the rival's."""
        return {ell: sum(d > r for d, r in zip(aps("ap50", "dice", ell), aps("ap50", rival, ell))) / n_seeds
                for ell in lengths}

    return TheoremReport(
        rows=rows,
        mean_ap50=mean_ap("ap50"),
        mean_ap25=mean_ap("ap25"),
        win_rate_vs_l1=dice_win_rate("l1"),
        win_rate_vs_l2=dice_win_rate("l2"),
        sigma=sigma,
        sigma_c=sigma_c_map,
        precondition_met={ell: sigma >= sigma_c_map[ell] for ell in lengths},
    )
