import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import bevlab
from bevlab import bench
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
        z_min, z_max = bench._DEPTH_RANGE
        assert scene.depths.min() >= z_min
        assert scene.depths.max() <= z_max

    def test_depth_is_exact_linear_response(self):
        scene = generate_scene(small_config())
        assert np.allclose(scene.features @ scene.w_star, scene.depths, atol=1e-9)

    def test_w_star_norm_is_mid_depth(self):
        scene = generate_scene(small_config())
        assert np.linalg.norm(scene.w_star) == pytest.approx(50.0, abs=1e-9)

    def test_mean_depth_near_mid(self):
        scene = generate_scene(small_config(objects_per_category=1000))
        assert scene.depths.mean() == pytest.approx(50.0, rel=0.01)

    @pytest.mark.parametrize("field,value,message", [
        ("categories", (("car", np.inf),), "object lengths must be > 0 and finite"),
        ("categories", (("car", 4.0), ("truck", np.nan)), "object lengths must be > 0 and finite"),
        ("feature_dim", 0, "objects_per_category and feature_dim must be >= 1"),
        ("objects_per_category", 0, "objects_per_category and feature_dim must be >= 1"),
    ])
    def test_rejected_at_construction(self, field, value, message):
        # caught here, not later in generate_scene or simulate_predictions
        with pytest.raises(ValueError, match=message):
            small_config(**{field: value})


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

    def test_category_codes_in_order_of_first_appearance(self):
        # a repeated category name shares its first code, in the scene and in its frames
        scene = generate_scene(small_config(categories=(("truck", 12.0), ("car", 4.0), ("truck", 12.0)),
                                            objects_per_category=3))
        assert scene.names == ("truck", "car")
        assert scene.codes.tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0]
        assert [scene.names[c] for c in scene.codes] == scene.categories
        frame = simulate_predictions(scene, scene.w_star)
        for boxes in (frame.pred_boxes, frame.gt_boxes):
            assert boxes.names == ("truck", "car") and boxes.codes.tolist() == scene.codes.tolist()
        report = evaluate([frame], thresholds=(0.5,), iou_fn=ray_box_iou)
        assert report.categories == ("car", "truck")
        assert report.curves[("truck", 0.5, ALL_BIN)].n_gt == 6

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

    def test_repeated_length_rejected(self):
        # each length keys its own means and win rates, so a repeat would pool two copies' rows
        with pytest.raises(ValueError, match="lengths must be non-empty and distinct"):
            theorem1_experiment([4.0, 12.0, 4.0], sigma=0.5, sgd_template=self._template(), n_seeds=1,
                                objects_per_category=10)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma(self, sigma):
        # the template's own sigma is finite; the experiment's must be too
        with pytest.raises(ValueError, match="sigma must be >= 0 and finite"):
            theorem1_experiment([4.0], sigma=sigma, sgd_template=self._template(), n_seeds=1)

    def test_overflowed_l2_weight_names_sigma(self):
        # sigma's square is finite, but an l2 step's sum of squared gradients is not: the
        # error names sigma, and no box check or matmul warning sees the infinite weight
        with pytest.raises(ValueError, match=r"^the l2-trained weight overflows float64 at sigma 1e\+154$"):
            theorem1_experiment([4.0], sigma=1e154, sgd_template=self._template(steps=50), n_seeds=1,
                                objects_per_category=20)

    def test_overflowed_l2_deviation_is_quiet(self):
        # below that sigma the l2 weight stays finite but its squared deviation does not; the
        # experiment never reads the deviation, so it warns of no overflow and scores every row
        report = theorem1_experiment([4.0], sigma=3e153, sgd_template=self._template(steps=50), n_seeds=2,
                                     objects_per_category=50)
        assert [(r.loss, r.ap50) for r in report.rows if r.loss != "l1"] == [("l2", 0.0), ("dice", 1.0)] * 2

    def test_rows_pinned(self, monkeypatch):
        # rows of the idealized trainer's streams; scoring each trained
        # weight's frame in frames of 25 rays of Box3D lists gives the same AP
        # to the last bit
        frames = []

        def recording(scene, weight):
            frames.append(simulate_predictions(scene, weight))
            return frames[-1]

        monkeypatch.setattr(bench, "simulate_predictions", recording)
        report = theorem1_experiment(
            [12.0, 4.0], sigma=0.5, sgd_template=self._template(), n_seeds=2, objects_per_category=2000
        )
        got = [(r.loss, r.length, r.seed, r.ap50, r.ap25, r.mean_abs_err) for r in report.rows]
        assert got == PINNED_ROWS
        assert all(r.sigma == 0.5 for r in report.rows)
        assert len(frames) == len(report.rows)
        for row, frame in zip(report.rows, frames):
            split = evaluate(split_frames(frame), thresholds=(0.5, 0.25), iou_fn=ray_box_iou)
            name = f"obj{row.length:g}m"
            assert split.curves[(name, 0.5, ALL_BIN)].ap == row.ap50
            assert split.curves[(name, 0.25, ALL_BIN)].ap == row.ap25


# (loss, length, seed, ap50, ap25, mean_abs_err)
PINNED_ROWS = [
    ("l1", 12.0, 0, 0.48379817532639247, 0.875823366827253, 3.1339641344796445),
    ("l2", 12.0, 0, 0.33388151194917803, 0.7265484433006586, 4.031092427550379),
    ("dice", 12.0, 0, 1.0, 1.0, 0.27932278828660134),
    ("l1", 12.0, 1, 0.8034063945711647, 0.9954833746619902, 2.0453130503752104),
    ("l2", 12.0, 1, 0.7760421159963844, 0.9952603466926953, 2.077849088811291),
    ("dice", 12.0, 1, 1.0, 1.0, 0.32886236623301396),
    ("l1", 4.0, 0, 0.21159662177107633, 0.5149394019084534, 1.7886660714008622),
    ("l2", 4.0, 0, 0.2376575174119478, 0.5867781222131971, 1.6254991273721975),
    ("dice", 4.0, 0, 0.8478505904521104, 0.9925621612199969, 0.6234584446013876),
    ("l1", 4.0, 1, 0.07745987177633185, 0.2329763108012248, 2.9671294116822247),
    ("l2", 4.0, 1, 0.3440858002629764, 0.7576743947662558, 1.2992380789960438),
    ("dice", 4.0, 1, 0.4967686467317604, 0.8544152845066151, 1.0549111207867214),
]


# The BLAS and LAPACK calls of bench and sgd: the feature-dim dot products (np.linalg.norm, w @ w), the
# matrix-vector products over objects, and polyfit's least squares.  OpenBLAS sums a dot product of more
# than 10,000 values on several threads, so the dims stay at or below that.
BLAS_RESULTS = textwrap.dedent("""
    import hashlib
    import numpy as np
    from bevlab import bench, sgd
    from bevlab.losses import LossKind

    digest = hashlib.sha256()
    for dim, n in ((16, 100_000), (64, 20_000), (3, 50_000), (700, 200)):
        scene = bench.generate_scene(bench.SceneConfig((("car", 4.0), ("truck", 12.0)), n, feature_dim=dim, seed=dim))
        predicted = bench.simulate_predictions(scene, np.random.default_rng(dim).standard_normal(dim))
        for values in (scene.w_star, scene.depths, scene.features, predicted.pred_boxes.values):
            digest.update(values.tobytes())
    template = sgd.SgdConfig(dim=16, sigma=0.5, loss=LossKind.l1(), steps=300, base_seed=1)
    digest.update(repr(bench.theorem1_experiment([4.0, 12.0], 0.5, template, 2, 12_000).rows).encode())
    rng = np.random.default_rng(5)
    for n in (3, 1000, 100_000):
        x = rng.uniform(0, 2, n)
        digest.update(repr(sgd.fit_lemma1(zip(x, 0.3 * x + 0.1 + rng.normal(0, 0.01, n)))).encode())
    print(digest.hexdigest())
""")


def test_results_independent_of_blas_threads():
    src = Path(bevlab.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        done = subprocess.run([sys.executable, "-c", BLAS_RESULTS], capture_output=True, text=True, timeout=120,
                              env={**os.environ, **blas, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]
