import numpy as np
import pytest

from bevlab.bench import (
    SceneConfig,
    generate_scene,
    ray_box_iou,
    simulate_predictions,
    theorem1_experiment,
)
from bevlab.geometry import Box3D, BoxArray
from bevlab.losses import sigma_c
from bevlab.metrics import ALL_BIN, FrameSet, evaluate
from bevlab.sgd import SgdConfig
from bevlab.losses import LossKind
from oracle_eval import oracle_ap


def split_frames(frame, chunk=25):
    """The frame cut into frames of ``chunk`` consecutive rays."""
    n = len(frame.ground_truths)
    return [
        FrameSet(f"{frame.frame_id}:{start}", frame.predictions[start : start + chunk],
                 frame.ground_truths[start : start + chunk])
        for start in range(0, n, chunk)
    ]


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

    def test_vectorized_twin_is_bit_identical(self):
        rng = np.random.default_rng(13)
        # rays 0, 1 and 1000 m apart; lengths and depths that touch, nest and miss
        a = [self._box(float(rng.choice([0.0, 1.0, 1000.0])), float(rng.choice([30.0, 32.0, rng.uniform(20, 40)])),
                       float(rng.choice([2.0, 4.0, rng.uniform(0.5, 12)]))) for _ in range(400)]
        b = [self._box(float(rng.choice([0.0, 1.0])), float(rng.choice([30.0, 34.0, rng.uniform(20, 40)])),
                       float(rng.choice([2.0, 4.0, rng.uniform(0.5, 12)]))) for _ in range(400)]
        got = ray_box_iou.pairwise(BoxArray.from_boxes(a).values, BoxArray.from_boxes(b).values)
        assert got.tolist() == [ray_box_iou(p, q) for p, q in zip(a, b)]


class TestSimulatePredictions:
    def test_perfect_weight_gives_perfect_ap(self):
        scene = generate_scene(small_config())
        frame = simulate_predictions(scene, scene.w_star)
        report = evaluate([frame], thresholds=(0.5, 0.25), iou_fn=ray_box_iou)
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
        split = evaluate(split_frames(frame), thresholds=(0.5,), iou_fn=ray_box_iou)
        for key, curve in whole.curves.items():
            assert split.curves[key].ap == curve.ap
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
            report = evaluate([frame], thresholds=(thr,), iou_fn=ray_box_iou)
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
        with pytest.raises(ValueError, match="lengths must be non-empty"):
            theorem1_experiment([], sigma=0.5, sgd_template=self._template(), n_seeds=1)

    def test_rows_pinned(self):
        # rows of the per-object evaluator that scored each scene in frames
        # of 25 rays; the columnar one must give them to the last bit
        report = theorem1_experiment(
            [12.0, 4.0], sigma=0.5, sgd_template=self._template(), n_seeds=2, objects_per_category=2000
        )
        got = [(r.loss, r.length, r.seed, r.ap50, r.ap25, r.mean_abs_err) for r in report.rows]
        assert got == PINNED_ROWS
        assert all(r.sigma == 0.5 for r in report.rows)


# (loss, length, seed, ap50, ap25, mean_abs_err)
PINNED_ROWS = [
    ("l1", 12.0, 0, 0.7223557075674587, 0.9836618725682549, 2.3049605129727744),
    ("l2", 12.0, 0, 0.9944362278465029, 1.0, 1.1278894390774634),
    ("dice", 12.0, 0, 1.0, 1.0, 0.27729535008375716),
    ("l1", 12.0, 1, 0.6799992332156273, 0.978660357462606, 2.4040124995014422),
    ("l2", 12.0, 1, 1.0, 1.0, 0.7092583252098086),
    ("dice", 12.0, 1, 1.0, 1.0, 0.22490450016582791),
    ("l1", 4.0, 0, 0.04827796345608827, 0.15612218392556498, 3.553478934028621),
    ("l2", 4.0, 0, 0.4554537884104073, 0.8736124053707202, 1.0765297771888114),
    ("dice", 4.0, 0, 0.46914777648962547, 0.8771933407558801, 1.074633820433219),
    ("l1", 4.0, 1, 0.15809011315692648, 0.42382719118806356, 2.0887648549542197),
    ("l2", 4.0, 1, 0.5446693009836918, 0.9010673422588032, 0.9782264734078078),
    ("dice", 4.0, 1, 0.9336190016286304, 1.0, 0.5172474934343787),
]
