import numpy as np
import pytest

from bevlab.bench import (
    SceneConfig,
    generate_scene,
    ray_box_iou,
    simulate_predictions,
    theorem1_experiment,
)
from bevlab.bench import _split_frames
from bevlab.geometry import Box3D
from bevlab.losses import sigma_c
from bevlab.metrics import ALL_BIN, evaluate
from bevlab.sgd import SgdConfig
from bevlab.losses import LossKind
from oracle_eval import oracle_ap


def small_config(**kw):
    defaults = dict(
        categories=(("car", 4.0), ("truck", 12.0)),
        objects_per_category=50,
        feature_dim=8,
        sigma=0.5,
        seed=7,
    )
    defaults.update(kw)
    return SceneConfig(**defaults)


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(small_config())
        b = generate_scene(small_config())
        assert np.array_equal(a.w_star, b.w_star)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.depths, b.depths)

    def test_seed_changes_scene(self):
        a = generate_scene(small_config(seed=7))
        b = generate_scene(small_config(seed=8))
        assert not np.array_equal(a.depths, b.depths)

    def test_cardinality_and_categories(self):
        scene = generate_scene(small_config())
        assert len(scene) == 100
        assert scene.categories.count("car") == 50
        assert scene.categories.count("truck") == 50
        assert set(scene.lengths.tolist()) == {4.0, 12.0}

    def test_depths_within_range(self):
        scene = generate_scene(small_config())
        z_min, z_max = scene.config.depth_range
        assert scene.depths.min() >= z_min
        assert scene.depths.max() <= z_max

    def test_depth_is_exact_linear_response(self):
        scene = generate_scene(small_config())
        assert np.allclose(scene.features @ scene.w_star, scene.depths, atol=1e-9)

    def test_w_star_norm_is_mid_depth(self):
        scene = generate_scene(small_config(depth_range=(20.0, 80.0)))
        assert np.linalg.norm(scene.w_star) == pytest.approx(50.0, abs=1e-9)

    def test_mean_depth_near_mid(self):
        scene = generate_scene(small_config(objects_per_category=1000))
        assert scene.depths.mean() == pytest.approx(50.0, rel=0.01)

    def test_invalid_depth_range(self):
        with pytest.raises(ValueError):
            small_config(depth_range=(10.0, 5.0))


class TestRayBoxIou:
    def _box(self, x, z, ell, score=None):
        return Box3D(x=x, y=0.0, z=z, l=ell, w=ell, h=ell, yaw=0.0, category="car", score=score)

    def test_same_ray_identical(self):
        assert ray_box_iou(self._box(0, 30, 4), self._box(0, 30, 4)) == 1.0

    def test_same_ray_shift(self):
        # [28,32] vs [29,33]: intersection 3, union 5
        assert ray_box_iou(self._box(0, 30, 4), self._box(0, 31, 4)) == pytest.approx(0.6)

    def test_distinct_rays(self):
        assert ray_box_iou(self._box(0, 30, 4), self._box(1000, 30, 4)) == 0.0


class TestSimulatePredictions:
    def test_perfect_weight_gives_perfect_ap(self):
        scene = generate_scene(small_config())
        frame = simulate_predictions(scene, scene.w_star)
        report = evaluate(_split_frames(frame), thresholds=(0.5, 0.25), iou_fn=ray_box_iou)
        assert report.map_per_threshold[0.5] == 1.0
        assert report.map_per_threshold[0.25] == 1.0

    def test_weight_dim_mismatch(self):
        scene = generate_scene(small_config())
        with pytest.raises(ValueError):
            simulate_predictions(scene, np.zeros(3))

    def test_split_frames_preserve_evaluation(self):
        scene = generate_scene(small_config(objects_per_category=30))
        rng = np.random.default_rng(11)
        weight = scene.w_star + rng.normal(0, 0.3, scene.w_star.shape)
        frame = simulate_predictions(scene, weight)
        whole = evaluate([frame], thresholds=(0.5,), iou_fn=ray_box_iou)
        split = evaluate(_split_frames(frame), thresholds=(0.5,), iou_fn=ray_box_iou)
        for key, curve in whole.curves.items():
            assert split.curves[key].ap == pytest.approx(curve.ap, abs=1e-12)
            assert split.curves[key].n_gt == curve.n_gt

    def test_ap_equals_residual_match_rate(self):
        # uniform scores and one prediction per GT on its own ray: the
        # detections rank in object order, object i is a TP at IoU threshold t
        # exactly when (l - |eta|) / (l + |eta|) >= t, and AP is the
        # all-point AP of that TP/FP sequence -- not the match rate, since
        # only some objects match at this weight noise
        scene = generate_scene(small_config(categories=(("car", 4.0),), objects_per_category=400))
        rng = np.random.default_rng(3)
        weight = scene.w_star + rng.normal(0, 0.6, scene.w_star.shape)
        frame = simulate_predictions(scene, weight)
        resid = np.abs(scene.features @ weight - scene.depths)
        for thr in (0.5, 0.25):
            flags = resid <= 4.0 * (1 - thr) / (1 + thr)
            assert 0.0 < flags.mean() < 1.0
            expected = oracle_ap([(1.0, bool(f)) for f in flags], len(flags))
            report = evaluate(_split_frames(frame), thresholds=(thr,), iou_fn=ray_box_iou)
            assert report.curves[("car", thr, ALL_BIN)].ap == pytest.approx(expected, abs=1e-9)


class TestTheorem1Experiment:
    def _template(self, **kw):
        defaults = dict(dim=8, sigma=0.5, loss=LossKind.l1(), steps=500, base_seed=1)
        defaults.update(kw)
        return SgdConfig(**defaults)

    def test_noiseless_training_is_perfect(self):
        report = theorem1_experiment(
            [12.0], sigma=0.0, sgd_template=self._template(sigma=0.0), n_seeds=2, objects_per_category=100
        )
        for row in report.rows:
            assert row.ap50 == 1.0
            assert row.mean_abs_err == 0.0
        assert report.win_rate_vs_l1[12.0] == 0.0

    def test_smoke_dice_wins_beyond_threshold(self):
        sigma = 0.5
        report = theorem1_experiment(
            [12.0], sigma=sigma, sgd_template=self._template(), n_seeds=3, objects_per_category=400
        )
        assert report.precondition_met[12.0]
        assert report.sigma_c[12.0] == pytest.approx(sigma_c(12.0).sigma_c)
        assert report.mean_ap50[("dice", 12.0)] > report.mean_ap50[("l1", 12.0)]
        assert report.mean_ap50[("dice", 12.0)] > report.mean_ap50[("l2", 12.0)]
        assert report.win_rate_vs_l1[12.0] >= 2 / 3

    def test_deterministic(self):
        kwargs = dict(
            lengths=[4.0], sigma=0.3, sgd_template=self._template(steps=200), n_seeds=2, objects_per_category=50
        )
        a = theorem1_experiment(**kwargs)
        b = theorem1_experiment(**kwargs)
        assert a.rows == b.rows

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_experiment([4.0], sigma=-1.0, sgd_template=self._template(), n_seeds=1)
        with pytest.raises(ValueError):
            theorem1_experiment([4.0], sigma=0.5, sgd_template=self._template(), n_seeds=0)
