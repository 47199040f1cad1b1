import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from bevlab import sgd
from bevlab.losses import LossKind, NoiseModel, closed_form_variance, gradient_array
from bevlab.sgd import (
    SgdConfig,
    StepSchedule,
    empirical_gradient_variance,
    fit_lemma1,
    run_ensemble,
    run_trial,
    sweep,
)


class TestStepSchedule:
    def test_inverse_j_steps(self):
        s = StepSchedule().steps(4)
        assert np.allclose(s, [1, 0.5, 1 / 3, 0.25])

    def test_constant(self):
        assert np.allclose(StepSchedule("constant", 0.1).steps(3), [0.1, 0.1, 0.1])

    def test_cumulative_square_sum_basel_limit(self):
        assert StepSchedule().cumulative_square_sum(10**6) == pytest.approx(math.pi**2 / 6, abs=1e-5)

    def test_scale(self):
        assert StepSchedule(scale=2.0).cumulative_square_sum(10) == pytest.approx(
            4 * StepSchedule().cumulative_square_sum(10)
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            StepSchedule("exp")
        with pytest.raises(ValueError):
            StepSchedule(scale=0.0)

    @pytest.mark.parametrize("scale", [math.inf, math.nan])
    def test_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be > 0 and finite"):
            StepSchedule(scale=scale)


class TestRunTrial:
    def test_literal_noiseless_at_optimum_stays_put(self):
        w_star = np.array([1.0, -2.0, 0.5])
        cfg = SgdConfig(
            dim=3, sigma=0.0, loss=LossKind.l2(), steps=50, mode="literal", w_star=w_star, w_init=w_star.copy()
        )
        assert run_trial(cfg, 0).deviation_sq == 0.0

    def test_single_l1_step_magnitude(self):
        # one idealized step: |w1 - w*| = s1 |sign(eta)| |h1|, so E(dev^2) = E(h^2) = 1
        devs = []
        for i in range(4000):
            cfg = SgdConfig(dim=1, sigma=1.0, loss=LossKind.l1(), steps=1, base_seed=3)
            devs.append(run_trial(cfg, i).deviation_sq)
        assert np.mean(devs) == pytest.approx(1.0, rel=0.1)

    def test_deterministic(self):
        cfg = SgdConfig(dim=4, sigma=0.7, loss=LossKind.dice(2.0), steps=100, base_seed=9)
        a = run_trial(cfg, 5)
        b = run_trial(cfg, 5)
        assert np.array_equal(a.final_weight, b.final_weight)
        assert a.deviation_sq == b.deviation_sq

    def test_trials_independent_of_order(self):
        cfg = SgdConfig(dim=4, sigma=0.7, loss=LossKind.l2(), steps=100, base_seed=9)
        forward = [run_trial(cfg, i).deviation_sq for i in range(5)]
        backward = [run_trial(cfg, i).deviation_sq for i in reversed(range(5))]
        assert forward == backward[::-1]

    def test_idealized_dice_matches_decomposition(self):
        # E(dev^2) = s_T * dim * Var(eps) + ||w_init - w*||^2 with w_init = w*
        ell, sigma, steps, trials, dim = 12.0, 0.5, 2000, 2000, 4
        cfg = SgdConfig(dim=dim, sigma=sigma, loss=LossKind.dice(ell), steps=steps, trials=trials, base_seed=1)
        stats = run_ensemble(cfg)
        s_t = StepSchedule().cumulative_square_sum(steps)
        expected = s_t * dim * closed_form_variance(LossKind.dice(ell), NoiseModel(sigma))
        assert stats.mean_deviation_sq == pytest.approx(expected, rel=0.10)


class TestRunEnsemble:
    def test_single_trial_reduces_to_run_trial(self):
        cfg = SgdConfig(dim=3, sigma=0.5, loss=LossKind.l2(), steps=200, trials=1, base_seed=2)
        assert run_ensemble(cfg).mean_deviation_sq == run_trial(cfg, 0).deviation_sq

    def test_bitwise_reproducible(self):
        cfg = SgdConfig(dim=3, sigma=0.5, loss=LossKind.l1(), steps=200, trials=20, base_seed=2)
        a = run_ensemble(cfg)
        b = run_ensemble(cfg)
        assert a.mean_deviation_sq == b.mean_deviation_sq
        assert a.std_error == b.std_error
        assert a.empirical_grad_variance == b.empirical_grad_variance

    def test_l2_empirical_variance(self):
        var, se = empirical_gradient_variance(LossKind.l2(), 1.0, base_seed=4)
        assert abs(var - 1.0) <= 3 * se

    def test_dice_empirical_variance(self):
        var, se = empirical_gradient_variance(LossKind.dice(12.0), 0.5, base_seed=4)
        expected = closed_form_variance(LossKind.dice(12.0), NoiseModel(0.5))
        assert expected == pytest.approx(0.006944, abs=1e-6)
        assert abs(var - expected) <= 3 * se + 1e-9

    @pytest.mark.parametrize("sigma", [math.nan, -2.0, math.inf, -math.inf])
    def test_sigma_checked(self, sigma):
        with pytest.raises(ValueError, match="sigma must be >= 0 and finite"):
            empirical_gradient_variance(LossKind.l2(), sigma, samples=10)


class TestFitLemma1:
    def test_exact_line(self):
        fit = fit_lemma1([(1, 3), (2, 5), (3, 7)])
        assert fit.c1 == pytest.approx(2.0)
        assert fit.c2 == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(ValueError):
            fit_lemma1([(1, 3), (1, 5), (1, 7)])

    def test_too_few(self):
        with pytest.raises(ValueError):
            fit_lemma1([(1, 3)])

    def test_residual_orthogonality(self):
        pts = [(0.1, 2.3), (0.5, 3.1), (0.9, 5.7), (1.4, 6.0)]
        fit = fit_lemma1(pts)
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        resid = y - (fit.c1 * x + fit.c2)
        assert abs(resid.sum()) <= 1e-9
        assert abs((resid * x).sum()) <= 1e-9

    def test_monte_carlo_configs_fit_line(self):
        # smaller sibling of the acceptance criterion
        steps, trials, dim = 1000, 300, 4
        configs = [
            (LossKind.l1(), 1.0),
            (LossKind.l2(), 0.5),
            (LossKind.l2(), 1.0),
            (LossKind.dice(1.0), 0.5),
            (LossKind.dice(2.0), 1.0),
            (LossKind.l2(), 0.25),
        ]
        points = []
        for i, (loss, sigma) in enumerate(configs):
            cfg = SgdConfig(dim=dim, sigma=sigma, loss=loss, steps=steps, trials=trials, base_seed=100 + i)
            stats = run_ensemble(cfg)
            points.append((closed_form_variance(loss, NoiseModel(sigma)), stats.mean_deviation_sq))
        fit = fit_lemma1(points)
        assert fit.r_squared >= 0.98
        expected_slope = StepSchedule().cumulative_square_sum(steps) * dim
        assert fit.c1 == pytest.approx(expected_slope, rel=0.10)


class TestSweep:
    def _template(self, **kw):
        defaults = dict(dim=2, sigma=0.0, loss=LossKind.l1(), steps=100, trials=20, base_seed=5)
        defaults.update(kw)
        return SgdConfig(**defaults)

    def test_single_row_l1(self):
        rows = sweep([4.0], [1.0], ["l1"], self._template())
        assert len(rows) == 1
        assert rows[0].var_closed == 1.0

    def test_row_ordering_and_cartesian(self):
        rows = sweep([4.0, 12.0], [0.5, 1.0], ["l1", "dice"], self._template())
        keys = [(r.loss, r.length, r.sigma) for r in rows]
        assert keys == sorted(keys, key=lambda k: (["l1", "dice"].index(k[0]), k[1], k[2]))
        assert len(rows) == 8

    def test_dice_below_l2_beyond_sigma_m(self):
        from bevlab.losses import sigma_m

        rows = sweep([12.0], [0.05, 0.2, 0.5, 1.0], ["l2", "dice"], self._template())
        crossing = sigma_m(12.0)
        l2 = {r.sigma: r.var_closed for r in rows if r.loss == "l2"}
        dice = {r.sigma: r.var_closed for r in rows if r.loss == "dice"}
        for s in l2:
            if s > crossing:
                assert dice[s] < l2[s]
            else:
                assert dice[s] > l2[s]

    def test_deterministic(self):
        a = sweep([12.0], [0.5], ["dice"], self._template())
        b = sweep([12.0], [0.5], ["dice"], self._template())
        assert a == b

    def test_empty_axes(self):
        with pytest.raises(ValueError):
            sweep([], [1.0], ["l1"], self._template())

    # sigma 5 puts some |sigma z| beyond both lengths; smooth_l1 takes the template's beta
    SHARED = dict(lengths=[4.0, 12.0], sigmas=[0.0, 0.3, 5.0], losses=["l1", "l2", "dice", "smooth_l1"])

    def test_var_empirical_is_the_estimator_of_its_row(self):
        template = self._template(loss=LossKind.smooth_l1(0.5), steps=10, trials=2)
        # 1e-310 keeps every sigma * z nonzero; at the edge sigmas only the largest |sigma z| moves across 4
        z_max = float(np.abs(sgd._variance_noise(template.base_seed)).max())
        edge = [4.0 / z_max * (1 - 1e-12), 4.0 / z_max * (1 + 1e-12)]
        assert edge[0] * z_max <= 4.0 < edge[1] * z_max
        rows = sweep(**{**self.SHARED, "sigmas": [*self.SHARED["sigmas"], 1e-310, *edge]}, template=template)
        assert len(rows) == 48
        for r in rows:
            loss = LossKind.parse(r.loss, r.length, beta=0.5)
            assert r.var_empirical == empirical_gradient_variance(loss, r.sigma, template.base_seed)[0], r

    @pytest.mark.parametrize("mode", ["idealized", "literal"])
    def test_ensemble_columns_equal_run_ensemble(self, mode):
        template = self._template(steps=30, trials=4, mode=mode)
        rows = sweep([4.0], [0.0, 0.5], ["l2", "dice"], template)
        for row_index, r in enumerate(rows):
            seed = int(np.random.SeedSequence([template.base_seed, row_index, sgd._ROW_STREAM]).generate_state(1)[0])
            stats = run_ensemble(replace(template, loss=LossKind.parse(r.loss, r.length), sigma=r.sigma,
                                         base_seed=seed))
            assert (r.mean_dev, r.std_err) == (stats.mean_deviation_sq, stats.std_error)

    def test_one_noise_draw_per_sweep(self, monkeypatch):
        draws, grad_streams = [], []
        draw, rng = sgd._variance_noise, sgd._rng

        def counted_draw(*args, **kwargs):
            draws.append(draw(*args, **kwargs))
            return draws[-1]

        def counted_rng(*key):
            grad_streams.append(key[1:] == (sgd._GRAD_STREAM,))
            return rng(*key)

        monkeypatch.setattr(sgd, "_variance_noise", counted_draw)
        monkeypatch.setattr(sgd, "_rng", counted_rng)
        rows = sweep(**self.SHARED, template=self._template(steps=10, trials=2))
        assert len(rows) == 24
        assert [len(z) for z in draws] == [10**6]
        assert sum(grad_streams) == 1

    def test_sign_only_rows_share_one_variance_pass_per_loss(self, monkeypatch):
        passes = []
        gradient_variance = sgd._gradient_variance

        def counted(loss, eta):
            passes.append(loss.kind)
            return gradient_variance(loss, eta)

        monkeypatch.setattr(sgd, "_gradient_variance", counted)
        # the lemma1 benchmark's sweep: l1 and dice(12) rows read sign(z) at every sigma, l2 rows do not
        rows = sweep([12.0], [0.25, 0.5, 2.0], ["l1", "l2", "dice"], self._template(dim=8, steps=10, trials=2))
        assert len(rows) == 9
        assert sorted(passes) == ["dice", "l1", "l2", "l2", "l2"]

    def test_rows_share_the_draw(self):
        # sign(sigma z) = sign(z) for sigma > 0, and dice(l=12) reads sign(z)/12 while every |sigma z| <= 12
        rows = sweep([12.0], [0.25, 0.5, 2.0], ["l1", "dice"], self._template(steps=10, trials=2))
        assert len({r.var_empirical for r in rows if r.loss == "l1"}) == 1
        assert len({r.var_empirical for r in rows if r.loss == "dice"}) == 1


class TestConfigValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SgdConfig(dim=3, sigma=0.1, loss=LossKind.l1(), steps=10, w_star=np.zeros(2))

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be >= 0 and finite"):
            SgdConfig(dim=3, sigma=sigma, loss=LossKind.l1(), steps=10)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SgdConfig(dim=3, sigma=0.1, loss=LossKind.l1(), steps=10, mode="adam")

    def test_literal_default_init_is_zero(self):
        cfg = SgdConfig(dim=3, sigma=0.1, loss=LossKind.l1(), steps=10, mode="literal", w_star=np.ones(3))
        assert np.array_equal(cfg.w_init, np.zeros(3))

    def test_idealized_default_init_is_w_star(self):
        cfg = SgdConfig(dim=3, sigma=0.1, loss=LossKind.l1(), steps=10, w_star=np.ones(3))
        assert np.array_equal(cfg.w_init, np.ones(3))


def _trial_rng(config, trial_index):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([config.base_seed, trial_index, 0x51D])))


def old_idealized_deviation(config, trial_index):
    """The idealized trial as it was before the N(0, S I) reduction: T feature
    vectors drawn and summed."""
    rng = _trial_rng(config, trial_index)
    t = config.steps
    h = rng.standard_normal((t, config.dim))
    eta = rng.standard_normal(t) * config.sigma
    w = config.w_init - (config.schedule.steps(t) * gradient_array(config.loss, eta)) @ h
    dev = w - config.w_star
    return float(dev @ dev)


def old_scalar_gradient(kind, eta):
    if kind.kind == "l1":
        return float(np.sign(eta))
    if kind.kind == "l2":
        return eta
    if kind.kind == "smooth_l1":
        return min(max(eta, -kind.beta), kind.beta)
    return float(np.sign(eta)) / kind.length if abs(eta) <= kind.length else 0.0


def old_literal_weight(config, trial_index):
    """The literal trial as it was before the block loop: T scalar steps."""
    rng = _trial_rng(config, trial_index)
    t = config.steps
    h = rng.standard_normal((t, config.dim))
    eta = rng.standard_normal(t) * config.sigma
    s = config.schedule.steps(t)
    w = config.w_init.copy()
    for j in range(t):
        target = config.w_star @ h[j] - eta[j]
        resid = w @ h[j] - target
        w -= s[j] * old_scalar_gradient(config.loss, resid) * h[j]
    return w


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, at, side="right") / len(a)
                        - np.searchsorted(b, at, side="right") / len(b)).max())


class TestSimulatorAgainstOldPaths:
    @pytest.mark.parametrize("loss", [LossKind.l1(), LossKind.l2(), LossKind.dice(1.0)], ids=["l1", "l2", "dice"])
    def test_idealized_same_distribution_as_feature_draws(self, loss):
        n, alpha = 3000, 1e-3
        old_cfg = SgdConfig(dim=4, sigma=0.5, loss=loss, steps=200, base_seed=71)
        new_cfg = SgdConfig(dim=4, sigma=0.5, loss=loss, steps=200, base_seed=72)
        old = [old_idealized_deviation(old_cfg, i) for i in range(n)]
        new = [run_trial(new_cfg, i).deviation_sq for i in range(n)]
        critical = math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt(2 / n)
        assert ks_statistic(old, new) <= critical

    @pytest.mark.parametrize(
        "loss", [LossKind.l1(), LossKind.l2(), LossKind.smooth_l1(0.5), LossKind.dice(2.0)],
        ids=["l1", "l2", "smooth_l1", "dice"],
    )
    def test_literal_matches_scalar_loop(self, loss):
        cfg = SgdConfig(dim=3, sigma=0.5, loss=loss, steps=300, mode="literal",
                        w_star=np.array([1.0, -2.0, 0.5]), base_seed=8)
        for i in range(15):
            old = old_literal_weight(cfg, i)
            new = run_trial(cfg, i).final_weight
            assert np.linalg.norm(new - old) <= 1e-12 * np.linalg.norm(old)

    @pytest.mark.parametrize("mode", ["idealized", "literal"])
    def test_ensemble_across_blocks_equals_single_trials(self, mode, monkeypatch):
        cfg = SgdConfig(dim=3, sigma=0.5, loss=LossKind.dice(2.0), steps=100, trials=7, mode=mode,
                        w_star=np.array([1.0, -2.0, 0.5]), base_seed=6)
        # literal blocks of 3, 3 and 1 trials: a block's bound also covers one trial's draw buffers
        monkeypatch.setattr(sgd, "_BLOCK_BYTES", (3 + 1) * 8 * cfg.steps * (cfg.dim + 1))
        single = [run_trial(cfg, i) for i in range(cfg.trials)]
        weights, dev_sq = sgd._simulate(cfg, range(cfg.trials))
        assert np.array_equal(weights, [r.final_weight for r in single])
        devs = np.array([r.deviation_sq for r in single])
        assert np.array_equal(dev_sq, devs)
        stats = run_ensemble(cfg)
        assert stats.mean_deviation_sq == devs.mean()
        assert stats.std_error == devs.std(ddof=1) / math.sqrt(cfg.trials)

    def test_variance_drawn_only_when_read(self, monkeypatch):
        calls = []
        draw = sgd._variance_noise

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        expected = empirical_gradient_variance(LossKind.dice(4.0), 0.7, 12)[0]
        monkeypatch.setattr(sgd, "_variance_noise", counted)
        cfg = SgdConfig(dim=2, sigma=0.7, loss=LossKind.dice(4.0), steps=50, trials=3, base_seed=12)
        stats = run_ensemble(cfg)
        assert calls == []
        assert stats.empirical_grad_variance == expected
        assert stats.empirical_grad_variance == expected
        assert len(calls) == 1  # drawn once, on the first read


def seed_sequence_keys(base_seed, trials):
    return np.array([np.random.SeedSequence([base_seed, i, 0x51D]).generate_state(2, np.uint64) for i in trials],
                    dtype=np.uint64).reshape(-1, 2)


def parent_idealized_weight(config, trial_index):
    """The idealized trial as it was with one generator built per trial."""
    rng = _trial_rng(config, trial_index)
    t = config.steps
    g = config.schedule.steps(t) * gradient_array(config.loss, rng.standard_normal(t) * config.sigma)
    return config.w_init - np.sqrt((g * g).sum()) * rng.standard_normal(config.dim)


def parent_literal_weights(config, trials, chunk):
    """The literal block loop as it was with one generator built per trial
    and each step's targets reduced inside the step loop."""
    t, dim = config.steps, config.dim
    s = config.schedule.steps(t)
    w = np.empty((len(trials), dim))
    for start in range(0, len(trials), chunk):
        rngs = [_trial_rng(config, i) for i in trials[start : start + chunk]]
        block = w[start : start + len(rngs)]
        h, eta = np.empty((len(rngs), t, dim)), np.empty((len(rngs), t))
        for rng, h_trial, eta_trial in zip(rngs, h, eta):
            rng.standard_normal(out=h_trial)
            rng.standard_normal(out=eta_trial)
        eta *= config.sigma
        block[:] = config.w_init
        for j in range(t):
            hj = h[:, j]
            target = (config.w_star * hj).sum(1) - eta[:, j]
            resid = (block * hj).sum(1) - target
            block -= (s[j] * gradient_array(config.loss, resid))[:, None] * hj
    return w


class TestKeyedStreams:
    @pytest.mark.parametrize("base_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5])
    # ranges shorter than _HASH_MIN_TRIALS take one SeedSequence per trial, longer ones the vectorized hash
    @pytest.mark.parametrize("trials", [range(0, 40), range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 2),
                                        range(9, 9), range(2**32 - 5, 2**32 + 5), range(2**64 - 6, 2**64 + 6)],
                             ids=["from-0", "across-2^32", "across-2^64", "empty", "across-2^32-hashed",
                                  "across-2^64-hashed"])
    def test_keys_equal_seed_sequence(self, base_seed, trials):
        keys = sgd._trial_keys(base_seed, trials)
        assert keys.dtype == np.uint64 and keys.shape == (len(trials), 2)
        assert np.array_equal(keys, seed_sequence_keys(base_seed, trials))

    @pytest.mark.parametrize("loss", [LossKind.l1(), LossKind.l2(), LossKind.smooth_l1(0.5), LossKind.dice(2.0)],
                             ids=["l1", "l2", "smooth_l1", "dice"])
    @pytest.mark.parametrize("base_seed", [0, 7, 2**33 + 1])
    def test_idealized_equals_one_generator_per_trial(self, loss, base_seed):
        cfg = SgdConfig(dim=3, sigma=0.6, loss=loss, steps=150, trials=9, base_seed=base_seed)
        expected = np.array([parent_idealized_weight(cfg, i) for i in range(cfg.trials)])
        weights, dev_sq = sgd._simulate(cfg, range(cfg.trials))
        assert np.array_equal(weights, expected)
        devs = ((expected - cfg.w_star) ** 2).sum(1)
        assert np.array_equal(dev_sq, devs)
        stats = run_ensemble(cfg)
        assert stats.mean_deviation_sq == devs.mean()
        assert stats.std_error == devs.std(ddof=1) / math.sqrt(cfg.trials)
        for i in (0, 4, 2**32 + 3):
            assert np.array_equal(run_trial(cfg, i).final_weight, parent_idealized_weight(cfg, i))

    @pytest.mark.parametrize("dim", [1, 3, 8, 9, 17, 130])
    def test_literal_equals_parent_block_loop(self, dim, monkeypatch):
        cfg = SgdConfig(dim=dim, sigma=0.5, loss=LossKind.dice(2.0), steps=60, trials=7, mode="literal",
                        w_star=np.linspace(-1.0, 2.0, dim), base_seed=13)
        for chunk in (1, 3, 7):
            monkeypatch.setattr(sgd, "_BLOCK_BYTES", (chunk + 1) * 8 * cfg.steps * (cfg.dim + 1))
            weights, _ = sgd._simulate(cfg, range(2, 2 + cfg.trials))
            assert np.array_equal(weights, parent_literal_weights(cfg, range(2, 2 + cfg.trials), 3)), chunk

    @pytest.mark.parametrize("mode", ["idealized", "literal"])
    def test_one_bit_generator_per_simulation(self, mode, monkeypatch):
        """At most one Philox per worker thread: one in all for literal trials,
        which never leave the calling thread."""
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", counted)
        monkeypatch.setattr(sgd, "_BLOCK_BYTES", 0)  # literal blocks of one trial
        monkeypatch.setattr(sgd, "_THREAD_MIN_STEPS", 1)
        monkeypatch.setattr(sgd, "_THREAD_MIN_TRIALS", 2)
        cfg = SgdConfig(dim=2, sigma=0.5, loss=LossKind.l1(), steps=20, trials=6, mode=mode, base_seed=4)
        for workers in (1, 2, 3, 8):
            monkeypatch.setattr(sgd, "_cpu_count", lambda: workers)
            del built[:]
            run_ensemble(cfg)
            assert len(built) == (min(workers, 3) if mode == "idealized" else 1)
            del built[:]
            run_trial(cfg, 3)
            assert len(built) == 1

    def test_negative_seed_or_index_is_rejected_as_numpy_does(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.SeedSequence([-1, 0, sgd._TRIAL_STREAM])
        message = str(numpy_error.value)
        cfg = SgdConfig(dim=2, sigma=0.5, loss=LossKind.l1(), steps=10, trials=3)
        for mode in ("idealized", "literal"):
            bad_seed = replace(cfg, mode=mode, base_seed=-1)
            # both key paths: one SeedSequence per trial, and the vectorized hash from 8 trials
            for call in (lambda: run_ensemble(bad_seed), lambda: run_trial(bad_seed, 0),
                         lambda: run_trial(replace(cfg, mode=mode), -1), lambda: sgd._trial_keys(0, range(-2, 3)),
                         lambda: run_ensemble(replace(bad_seed, trials=20)), lambda: sgd._trial_keys(0, range(-2, 30))):
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == message

    def test_trial_index_past_2_to_the_32(self):
        cfg = SgdConfig(dim=2, sigma=0.5, loss=LossKind.l1(), steps=10)
        assert np.array_equal(run_trial(cfg, 2**32 + 3).final_weight, parent_idealized_weight(cfg, 2**32 + 3))
        literal = replace(cfg, mode="literal")
        expected = parent_literal_weights(literal, range(2**32 + 3, 2**32 + 4), 1)[0]
        assert np.array_equal(run_trial(literal, 2**32 + 3).final_weight, expected)


def gradient_threads(monkeypatch):
    """The threads that compute gradients, one entry per call (the objects,
    since a finished thread's ident can be reused)."""
    ids = []

    def recorded(loss, eta):
        ids.append(threading.current_thread())
        return gradient_array(loss, eta)

    monkeypatch.setattr(sgd, "gradient_array", recorded)
    return ids


class TestThreadedTrials:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_idealized_bit_identical_across_worker_counts(self, workers, monkeypatch):
        monkeypatch.setattr(sgd, "_cpu_count", lambda: workers)
        ids = gradient_threads(monkeypatch)
        per_thread, min_steps = sgd._THREAD_MIN_TRIALS, sgd._THREAD_MIN_STEPS
        # trial counts and step counts on both sides of the inline thresholds
        shapes = [(1, min_steps), (2 * per_thread - 1, min_steps), (2 * per_thread, min_steps),
                  (3 * per_thread + 5, min_steps), (2 * per_thread, min_steps - 1)]
        if workers == 8:
            shapes.append((8 * per_thread, min_steps))
        for trials, steps in shapes:
            cfg = SgdConfig(dim=3, sigma=0.6, loss=LossKind.dice(2.0), steps=steps, trials=trials, base_seed=17)
            expected = np.array([parent_idealized_weight(cfg, i) for i in range(trials)])
            devs = ((expected - cfg.w_star) ** 2).sum(1)
            del ids[:]
            weights, dev_sq = sgd._simulate(cfg, range(trials))
            assert np.array_equal(weights, expected) and np.array_equal(dev_sq, devs), (trials, steps)
            parts = min(workers, trials // per_thread) if steps >= min_steps else 1
            assert len(set(ids)) == max(parts, 1), (trials, steps)
            stats = run_ensemble(cfg)
            assert stats.mean_deviation_sq == devs.mean()
            assert stats.std_error == (devs.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0)
        assert np.array_equal(run_trial(cfg, 2**32 + 3).final_weight, parent_idealized_weight(cfg, 2**32 + 3))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_small_slices_across_2_to_the_32(self, workers, monkeypatch):
        monkeypatch.setattr(sgd, "_cpu_count", lambda: workers)
        monkeypatch.setattr(sgd, "_THREAD_MIN_TRIALS", 1)
        monkeypatch.setattr(sgd, "_THREAD_MIN_STEPS", 1)
        cfg = SgdConfig(dim=2, sigma=0.5, loss=LossKind.l1(), steps=40, base_seed=2**33 + 1)
        for trials in (range(1), range(1, 3), range(5, 14), range(2**32 - 4, 2**32 + 5)):
            expected = np.array([parent_idealized_weight(cfg, i) for i in trials]).reshape(-1, 2)
            assert np.array_equal(sgd._simulate(cfg, trials)[0], expected), trials
        assert np.array_equal(run_trial(cfg, 2**32 + 3).final_weight, parent_idealized_weight(cfg, 2**32 + 3))

    @pytest.mark.parametrize("fails_on", ["worker", "caller"])
    def test_exception_reaches_caller_and_no_thread_outlives_the_call(self, fails_on, monkeypatch):
        monkeypatch.setattr(sgd, "_cpu_count", lambda: 3)
        monkeypatch.setattr(sgd, "_THREAD_MIN_TRIALS", 1)
        monkeypatch.setattr(sgd, "_THREAD_MIN_STEPS", 1)
        caller = threading.get_ident()
        error = RuntimeError("gradient failed")

        def failing(loss, eta):
            if (threading.get_ident() == caller) == (fails_on == "caller"):
                raise error
            return gradient_array(loss, eta)

        cfg = SgdConfig(dim=2, sigma=0.5, loss=LossKind.l1(), steps=30, trials=9)
        before = threading.active_count()
        expected = run_ensemble(cfg)
        assert threading.active_count() == before
        expected = (expected.mean_deviation_sq, expected.std_error)
        monkeypatch.setattr(sgd, "gradient_array", failing)
        with pytest.raises(RuntimeError) as exc:
            run_ensemble(cfg)
        assert exc.value is error
        assert threading.active_count() == before
        monkeypatch.setattr(sgd, "gradient_array", gradient_array)
        stats = run_ensemble(cfg)
        assert (stats.mean_deviation_sq, stats.std_error) == expected
