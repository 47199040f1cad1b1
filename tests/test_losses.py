import dataclasses
import math
from math import erf  # closed_form_variance, sigma_m and erf_inv call it: TestErf checks it against mpmath

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevlab import sgd
from bevlab.losses import (
    LossKind,
    NoiseModel,
    ThresholdResult,
    closed_form_variance,
    erf_inv,
    gradient_array,
    loss_gradient,
    loss_value,
    sigma_c,
    sigma_m,
)

mpmath.mp.dps = 50


def erf_oracle(x: float) -> float:
    """Independent high-precision error function (mpmath, 50 digits)."""
    return float(mpmath.erf(x))


class TestErf:
    def test_origin(self):
        assert erf(0.0) == 0.0

    def test_saturation(self):
        assert abs(erf(6.0) - 1.0) <= 1e-12

    def test_reference_point(self):
        assert erf(1.0) == pytest.approx(0.842700793, abs=1e-9)

    def test_against_oracle_grid(self):
        for x in np.linspace(-6.0, 6.0, 241):
            assert abs(erf(float(x)) - erf_oracle(float(x))) <= 1e-12

    @given(st.floats(-6, 6))
    def test_odd(self, x):
        assert erf(-x) == -erf(x)


class TestErfInv:
    def test_origin(self):
        assert erf_inv(0.0) == 0.0

    def test_round_trip_known(self):
        assert erf_inv(0.842700793) == pytest.approx(1.0, abs=1e-6)

    def test_quarter(self):
        # bisection-on-erf oracle value
        assert erf_inv(0.25) == pytest.approx(0.225312, abs=1e-5)

    @given(st.floats(-0.999999, 0.999999))
    @settings(max_examples=200)
    def test_round_trip(self, p):
        assert erf(erf_inv(p)) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("p", [1.0, -1.0, 1.5, -2.0])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            erf_inv(p)


def parent_erf_inv(p: float) -> float:
    """erf_inv as it was with its own bracketing loop."""
    if not -1.0 < p < 1.0:
        raise ValueError(f"erf_inv domain is (-1, 1), got {p}")
    if p == 0.0:
        return 0.0
    q = abs(p)
    lo, hi = 0.0, 1.0
    while math.erf(hi) < q:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < q:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):
        x -= (math.erf(x) - q) / (2.0 / math.sqrt(math.pi) * math.exp(-x * x))
    return math.copysign(x, p)


def parent_sigma_c(length: float) -> ThresholdResult:
    """sigma_c as it was with its own bracketing loop for sigma_m."""

    def residual(sigma):
        return sigma * sigma - math.erf(length / (math.sqrt(2.0) * sigma)) / (length * length)

    lo = 1e-6
    hi = max(1.0, 2.0 / length)
    while residual(hi) < 0:
        hi *= 2.0
    iterations = 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = 0.5 * (lo + hi)
    s_l1 = 0.0 if length * length >= 1.0 else math.sqrt(2.0) / length * parent_erf_inv(length * length)
    return ThresholdResult(sigma_m=root, sigma_l1=s_l1, sigma_c=max(root, s_l1), length=length,
                           solver_residual=residual(root), iterations=iterations)


def bits(values) -> list:
    """Floats as their exact hex strings, so -0.0 and 0.0 differ; other values unchanged."""
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestBisectionMatchesParent:
    def test_erf_inv_bit_identical(self):
        rng = np.random.default_rng(2024)
        near_one = [1.0 - 2.0**-k for k in range(1, 54)]
        subnormal = [5e-324, 2.0**-1074 * 3, 2.0**-1060, 2.0**-1023, 2.2250738585072e-308]
        ps = [*near_one, *subnormal, 1e-300, 1e-17, 0.25, 0.5, *rng.uniform(-1.0, 1.0, 6_000).tolist(),
              *(10.0 ** rng.uniform(-320.0, 0.0, 6_000)).tolist()]
        ps += [-p for p in ps[: len(near_one) + len(subnormal)]]
        assert len(ps) >= 12_000
        assert bits(map(erf_inv, ps)) == bits(map(parent_erf_inv, ps))

    def test_sigma_c_bit_identical(self):
        rng = np.random.default_rng(2025)
        lengths = [0.01, 0.3, 0.9, 1.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 4.0, 12.0, 1000.0,
                   *(10.0 ** rng.uniform(-2.0, 3.0, 8_000)).tolist()]
        assert len(lengths) >= 8_000
        got = [bits(dataclasses.astuple(sigma_c(ell))) for ell in lengths]
        assert got == [bits(dataclasses.astuple(parent_sigma_c(ell))) for ell in lengths]

    def test_sigma_c_bit_identical_wherever_the_parent_ends(self):
        # the parent's loop ends while its root lies in [1e-6, ~4300]: lengths from 1e-10 to 10**5.9
        lengths = (10.0 ** np.random.default_rng(2026).uniform(-10.0, 5.9, 500)).tolist() + [1e5]
        got = [bits(dataclasses.astuple(sigma_c(ell))) for ell in lengths]
        assert got == [bits(dataclasses.astuple(parent_sigma_c(ell))) for ell in lengths]


class TestSigmaMAtExtremeLengths:
    """Below ~1e-11 the root lies where floats are more than 1e-12 apart, and above ~1e6
    below the bracket's 1e-6: the solver ends there too, on the fixed point."""

    @pytest.mark.parametrize("length", [1e-12, 1e-20, 1e7, 1e12, 1.5e-154, 1.3e154])
    def test_ends_on_the_fixed_point(self, length):
        root = sigma_m(length)
        assert math.isclose(root, math.sqrt(math.erf(length / (math.sqrt(2.0) * root))) / length, rel_tol=1e-9)

    @pytest.mark.parametrize("length", [1e-300, 1e-155, 1.4e154, 1e200, 0.0, -1.0])
    def test_square_not_normal_and_finite_is_rejected(self, length):
        with pytest.raises(ValueError, match="length must be > 0 and finite, with a normal, finite square"):
            sigma_m(length)
        with pytest.raises(ValueError, match="dice requires a finite length > 0 with a normal, finite square"):
            LossKind.dice(length)


class TestLossValue:
    def test_dice_inside(self):
        assert loss_value(LossKind.dice(2.0), 0.5) == 0.25

    def test_dice_saturated(self):
        assert loss_value(LossKind.dice(2.0), 3.0) == 1.0

    def test_l2_zero(self):
        assert loss_value(LossKind.l2(), 0.0) == 0.0

    def test_smooth_l1_matches_huber(self):
        kind = LossKind.smooth_l1(1.0)
        assert loss_value(kind, 0.5) == pytest.approx(0.125)
        assert loss_value(kind, 2.0) == pytest.approx(1.5)


class TestLossGradient:
    def test_l1_sign(self):
        assert loss_gradient(LossKind.l1(), -2.0) == -1.0

    def test_dice_inside(self):
        assert loss_gradient(LossKind.dice(2.0), 0.5) == 0.5

    def test_dice_outside(self):
        assert loss_gradient(LossKind.dice(2.0), 5.0) == 0.0

    def test_kinks_zero_at_origin(self):
        assert loss_gradient(LossKind.l1(), 0.0) == 0.0
        assert loss_gradient(LossKind.dice(2.0), 0.0) == 0.0

    @pytest.mark.parametrize(
        "kind",
        [LossKind.l1(), LossKind.l2(), LossKind.smooth_l1(0.7), LossKind.dice(1.8)],
        ids=lambda k: k.label(),
    )
    def test_matches_finite_difference(self, kind):
        rng = np.random.default_rng(7)
        kinks = [0.0]
        if kind.kind == "dice":
            kinks += [kind.length, -kind.length]
        if kind.kind == "smooth_l1":
            kinks += [kind.beta, -kind.beta]
        step = 1e-7
        checked = 0
        while checked < 1000:
            eta = float(rng.uniform(-4, 4))
            if any(abs(eta - k) < 1e-3 for k in kinks):
                continue
            fd = (loss_value(kind, eta + step) - loss_value(kind, eta - step)) / (2 * step)
            assert loss_gradient(kind, eta) == pytest.approx(fd, abs=1e-6)
            checked += 1

    @pytest.mark.parametrize(
        "kind",
        [LossKind.l1(), LossKind.l2(), LossKind.smooth_l1(0.7), LossKind.dice(1.8)],
        ids=lambda k: k.label(),
    )
    def test_scalar_is_array_case(self, kind):
        etas = [0.0, -0.0, 0.7, -0.7, 1.8, -1.8, 1e-300, -3.5, 2.25]
        got = [loss_gradient(kind, eta) for eta in etas]
        assert all(type(g) is float for g in got)
        assert got == gradient_array(kind, np.array(etas)).tolist()


def smooth_l1_variance(beta: float, sigma: float) -> float:
    """Smooth-L1 gradient variance under N(0, sigma^2) noise:
    sigma^2 (erf(a) - 2 r phi(r)) + beta^2 erfc(a), r = beta/sigma, a = r/sqrt(2)."""
    r = beta / sigma
    a = r / math.sqrt(2.0)
    phi = math.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
    return sigma * sigma * (math.erf(a) - 2.0 * r * phi) + beta * beta * math.erfc(a)


class TestClosedFormVariance:
    def test_l1_constant(self):
        assert closed_form_variance(LossKind.l1(), NoiseModel(7.3)) == 1.0

    def test_l2(self):
        assert closed_form_variance(LossKind.l2(), NoiseModel(0.5)) == 0.25

    def test_dice_erf_one(self):
        got = closed_form_variance(LossKind.dice(1.0), NoiseModel(1.0 / math.sqrt(2.0)))
        assert got == pytest.approx(0.842700793, abs=1e-9)

    def test_smooth_l1_absent(self):
        assert closed_form_variance(LossKind.smooth_l1(1.0), NoiseModel(1.0)) is None

    @pytest.mark.parametrize("beta,sigma", [(0.5, 1.0), (1.0, 0.3), (0.7, 2.0), (0.01, 5.0), (5.0, 0.1), (2.0, 1.5)])
    def test_smooth_l1_formula_equals_quadrature(self, beta, sigma):
        # Var = E clip(eta, -beta, beta)^2, the gradient's mean being 0 by symmetry
        b, s = mpmath.mpf(beta), mpmath.mpf(sigma)
        density = lambda x: mpmath.npdf(x, 0, s)  # noqa: E731
        exact = 2 * mpmath.quad(lambda x: min(x, b) ** 2 * density(x), [0, b, mpmath.inf])
        assert smooth_l1_variance(beta, sigma) == pytest.approx(float(exact), rel=1e-6)

    @pytest.mark.parametrize("beta,sigma", [(0.5, 1.0), (1.0, 0.3), (0.7, 2.0)])
    def test_smooth_l1_formula_equals_empirical(self, beta, sigma):
        loss = LossKind.smooth_l1(beta)
        var, se = sgd.empirical_gradient_variance(loss, sigma, base_seed=13)
        assert abs(var - smooth_l1_variance(beta, sigma)) <= 4 * se
        assert closed_form_variance(loss, NoiseModel(sigma)) is None

    def test_dice_sigma_zero_limit(self):
        assert closed_form_variance(LossKind.dice(4.0), NoiseModel(0.0)) == pytest.approx(1 / 16)

    @given(
        st.floats(0.05, 5.0),
        st.floats(0.01, 5.0),
        st.floats(0.01, 5.0),
    )
    @settings(max_examples=200)
    def test_monotone_decreasing_in_sigma(self, ell, s1, s2):
        # erf rounds to the same float64 over wide ranges (to 1.0 near x = 6),
        # so strict decrease is only required where the exact gap exceeds the
        # few ulps of rounding in the two float evaluations
        lo, hi = sorted((s1, s2))
        if hi - lo < 1e-9:
            return
        v_lo = closed_form_variance(LossKind.dice(ell), NoiseModel(lo))
        v_hi = closed_form_variance(LossKind.dice(ell), NoiseModel(hi))
        assert v_hi <= v_lo
        x = mpmath.mpf(ell) / mpmath.sqrt(2)
        exact_gap = (mpmath.erf(x / lo) - mpmath.erf(x / hi)) / mpmath.mpf(ell) ** 2
        if exact_gap > 16 * math.ulp(v_lo):
            assert v_hi < v_lo

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.05, 5.0))
    @settings(max_examples=200)
    def test_monotone_decreasing_in_length(self, l1, l2, sigma):
        lo, hi = sorted((l1, l2))
        if hi - lo < 1e-9:
            return
        v_small = closed_form_variance(LossKind.dice(lo), NoiseModel(sigma))
        v_large = closed_form_variance(LossKind.dice(hi), NoiseModel(sigma))
        assert v_large < v_small

    def test_limits(self):
        ell = 3.0
        near_zero = closed_form_variance(LossKind.dice(ell), NoiseModel(1e-6))
        assert near_zero == pytest.approx(1 / ell**2, rel=1e-12)
        assert closed_form_variance(LossKind.dice(ell), NoiseModel(1e6)) < 1e-6

    @pytest.mark.parametrize(
        "kind,sigma",
        [
            (LossKind.l1(), 1.0),
            (LossKind.l2(), 0.7),
            (LossKind.dice(2.0), 0.8),
            (LossKind.dice(12.0), 0.5),
        ],
        ids=["l1", "l2", "dice2", "dice12"],
    )
    def test_monte_carlo_agreement(self, kind, sigma):
        rng = np.random.default_rng(11)
        n = 10**6
        eta = rng.standard_normal(n) * sigma
        from bevlab.losses import gradient_array

        eps = gradient_array(kind, eta)
        var = eps.var()
        se = np.std((eps - eps.mean()) ** 2) / math.sqrt(n)
        assert abs(var - closed_form_variance(kind, NoiseModel(sigma))) <= 3 * se + 1e-12


class TestThresholds:
    def test_length_4(self):
        assert sigma_m(4.0) == pytest.approx(0.2500, abs=0.0005)

    def test_length_12(self):
        assert sigma_m(12.0) == pytest.approx(0.0833, abs=0.0005)

    def test_length_1_bracket(self):
        assert 0.80 < sigma_m(1.0) < 0.95

    @given(st.floats(0.1, 50.0))
    @settings(max_examples=100)
    def test_residual(self, ell):
        root = sigma_m(ell)
        residual = root**2 - erf(ell / (math.sqrt(2) * root)) / ell**2
        assert abs(residual) <= 1e-10

    def test_sigma_c_large_objects_use_sigma_m(self):
        for ell in (4.0, 12.0):
            result = sigma_c(ell)
            assert result.sigma_l1 == 0.0
            assert result.sigma_c == result.sigma_m == sigma_m(ell)

    def test_sigma_c_small_object_l1_branch(self):
        result = sigma_c(0.5)
        assert result.sigma_l1 == pytest.approx(math.sqrt(2) / 0.5 * erf_inv(0.25), rel=1e-12)
        assert result.sigma_l1 == pytest.approx(0.6373, abs=1e-3)
        assert result.sigma_c == max(result.sigma_m, result.sigma_l1)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            sigma_c(0.0)
        with pytest.raises(ValueError):
            sigma_c(-1.0)

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_non_finite_length(self, length):
        with pytest.raises(ValueError, match="length must be > 0 and finite"):
            sigma_c(length)
        with pytest.raises(ValueError, match="length must be > 0 and finite"):
            sigma_m(length)


class TestLossKindValidation:
    def test_dice_needs_length(self):
        with pytest.raises(ValueError):
            LossKind("dice")

    def test_smooth_l1_needs_beta(self):
        with pytest.raises(ValueError):
            LossKind("smooth_l1")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LossKind("hinge")

    @pytest.mark.parametrize(
        "name,want",
        [
            ("l1", LossKind.l1()),
            ("L2", LossKind.l2()),
            ("smooth_l1", LossKind.smooth_l1(0.5)),
            ("Smooth-L1", LossKind.smooth_l1(0.5)),
            ("smoothl1", LossKind.smooth_l1(0.5)),
            ("DICE", LossKind.dice(3.0)),
        ],
    )
    def test_parse(self, name, want):
        assert LossKind.parse(name, length=3.0, beta=0.5) == want

    @pytest.mark.parametrize("name,length", [("hinge", 3.0), ("dice", None), ("l1 ", None)])
    def test_parse_rejects(self, name, length):
        with pytest.raises(ValueError):
            LossKind.parse(name, length)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    def test_l2_sigma_whose_square_overflows(self):
        # only l2's variance squares sigma; the others stay defined at any finite sigma
        assert closed_form_variance(LossKind.l2(), NoiseModel(1e154)) == 1e154 * 1e154
        with pytest.raises(ValueError, match="l2 requires a sigma whose square is finite"):
            closed_form_variance(LossKind.l2(), NoiseModel(1e155))
        assert closed_form_variance(LossKind.l1(), NoiseModel(1e300)) == 1.0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values(self, value):
        with pytest.raises(ValueError, match="sigma must be >= 0 and finite"):
            NoiseModel(value)
        with pytest.raises(ValueError, match="dice requires a finite length > 0"):
            LossKind.dice(value)
        with pytest.raises(ValueError, match="smooth_l1 requires a finite beta > 0"):
            LossKind.smooth_l1(value)
