"""Leaf-value math: sigmoid, residuals, Newton step, leaf loss, bisection solver."""

import math

import numpy as np
import pytest

from gradboost import (
    NEWTON_DENOMINATOR_FLOOR,
    LeafSample,
    exact_leaf_value,
    leaf_loss,
    leaf_loss_derivative,
    leaf_value_terms,
    log_odds,
    newton_leaf_value,
    newton_step,
    residuals,
    sigmoid,
)


def _sample(labels, scores):
    return LeafSample(np.asarray(labels, dtype=float), np.asarray(scores, dtype=float))


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_small_positive_score(self):
        # one-fifteenth of a unit of evidence nudges the probability to ~0.5167
        assert abs(sigmoid(2.0 / 30.0) - 0.5167) < 5e-5

    def test_small_negative_score(self):
        assert abs(sigmoid(-0.057) - 0.48575) < 5e-5

    def test_extreme_arguments_stay_finite(self):
        assert sigmoid(700.0) == pytest.approx(1.0)
        assert sigmoid(-700.0) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(sigmoid(np.array([-700.0, 700.0]))).all()

    def test_symmetry(self):
        zs = np.linspace(-30.0, 30.0, 601)
        np.testing.assert_allclose(sigmoid(zs) + sigmoid(-zs), 1.0, rtol=0, atol=1e-15)

    def test_monotonic(self):
        zs = np.linspace(-20.0, 20.0, 401)
        assert (np.diff(sigmoid(zs)) > 0).all()

    def test_scalar_in_scalar_out(self):
        assert isinstance(sigmoid(1.0), float)
        assert isinstance(sigmoid(np.array([1.0])), np.ndarray)


class TestLogOdds:
    def test_round_trip(self):
        ps = np.array([1e-12, 0.01, 0.3, 0.5, 0.9, 1 - 1e-12])
        np.testing.assert_allclose(sigmoid(log_odds(ps)), ps, rtol=1e-12, atol=0)

    def test_half_maps_to_zero(self):
        assert log_odds(0.5) == 0.0


class TestResiduals:
    def test_example(self):
        np.testing.assert_allclose(
            residuals(np.array([1.0]), np.array([0.5167])), [0.4833], rtol=0, atol=1e-15
        )

    def test_range_is_open_unit_interval(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, 100).astype(float)
        p = sigmoid(rng.uniform(-5, 5, 100))
        r = residuals(y, p)
        assert (r > -1).all() and (r < 1).all()


class TestLeafSample:
    def test_from_scores_matches_from_probs(self):
        y = np.array([1.0, 0.0])
        s = np.array([0.3, -0.2])
        a = LeafSample(y, s)
        b = LeafSample.from_probs(y, sigmoid(s))
        np.testing.assert_allclose(a.prior_probs, b.prior_probs, rtol=0, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LeafSample(np.array([]), np.array([]))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            LeafSample(np.array([0.5]), np.array([0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LeafSample(np.array([1.0]), np.array([0.0, 0.0]))

    def test_prior_probs_are_the_sigmoid_of_the_scores(self):
        # bit for bit, also on any subset of the rows, as when the booster
        # builds one sample per leaf from the round's score array
        rng = np.random.default_rng(11)
        scores = np.concatenate([rng.uniform(-40.0, 40.0, 200), [0.0, -0.0, 700.0, -700.0]])
        labels = rng.integers(0, 2, scores.size).astype(float)
        full = sigmoid(scores)
        for _ in range(20):
            members = np.flatnonzero(rng.random(scores.size) < rng.random())
            if members.size:
                sample = LeafSample(labels[members], scores[members])
                got = [p.hex() for p in sample.prior_probs.tolist()]
                assert got == [p.hex() for p in full[members].tolist()]

    def test_prior_probs_is_not_an_argument(self):
        with pytest.raises(TypeError):
            LeafSample(np.array([1.0]), np.array([0.0]), np.array([0.5]))


class TestNewtonStep:
    def test_two_thirds_on_fresh_mixed_leaf(self):
        # two hits and a miss, all starting from even odds: step = 0.5 / 0.75
        value = newton_leaf_value(_sample([1, 1, 0], [0, 0, 0]))
        assert abs(value - 2.0 / 3.0) < 1e-12

    def test_negative_step_after_one_round(self):
        y = np.array([1.0, 0.0])
        p = np.array([0.5167, 0.5167])
        value = newton_leaf_value(LeafSample.from_probs(y, p))
        assert abs(value - (-0.0669)) < 5e-5

    def test_zero_residual_sum_gives_zero(self):
        assert newton_leaf_value(_sample([1, 0], [0, 0])) == 0.0

    def test_denominator_floor(self):
        # a single confident-miss instance has hessian ~4e-18, far below the floor
        sample = _sample([1], [-40.0])
        num, den = leaf_value_terms(sample)
        assert den < NEWTON_DENOMINATOR_FLOOR
        assert newton_leaf_value(sample) == num / NEWTON_DENOMINATOR_FLOOR

    def test_matches_gradient_over_hessian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            y = rng.integers(0, 2, n).astype(float)
            y[0] = 1.0 - y[1] if n > 1 else y[0]
            sample = _sample(y, rng.uniform(-3, 3, n))
            num, den = leaf_value_terms(sample)
            # Newton step == -(slope at zero) / curvature
            assert abs(newton_leaf_value(sample) - (-leaf_loss_derivative(0.0, sample) / den)) < 1e-12

    def test_even_odds_leaf_is_four_times_mean_residual(self):
        y = np.array([1.0, 1.0, 0.0, 1.0])
        sample = _sample(y, np.zeros(4))
        r = residuals(y, sample.prior_probs)
        assert abs(newton_leaf_value(sample) - 4.0 * r.mean()) < 1e-12

    def test_raw_step_helper(self):
        assert newton_step(0.5, 0.75) == 0.5 / 0.75
        assert newton_step(1.0, 0.0) == 1.0 / NEWTON_DENOMINATOR_FLOOR


class TestLeafLoss:
    def test_fresh_mixed_leaf_at_zero(self):
        # three even-odds instances each contribute ln 2
        sample = _sample([1, 1, 0], [0, 0, 0])
        assert abs(leaf_loss(0.0, sample) - 3.0 * math.log(2.0)) < 1e-12

    def test_fresh_mixed_leaf_at_optimum(self):
        sample = _sample([1, 1, 0], [0, 0, 0])
        assert abs(leaf_loss(math.log(2.0), sample) - 1.9095425048844388) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            sample = _sample(rng.integers(0, 2, n).astype(float), rng.uniform(-5, 5, n))
            assert leaf_loss(rng.uniform(-5, 5), sample) >= 0.0

    def test_stable_at_extreme_scores_and_values(self):
        sample = _sample([1.0, 0.0], [50.0, -50.0])
        for value in (-30.0, 0.0, 30.0):
            assert np.isfinite(leaf_loss(value, sample))


class TestLeafLossDerivative:
    def test_slope_at_zero_on_fresh_mixed_leaf(self):
        # derivative at zero = sum(p - y) = 1.5 - 2 = -0.5
        assert abs(leaf_loss_derivative(0.0, _sample([1, 1, 0], [0, 0, 0])) - (-0.5)) < 1e-15

    def test_matches_central_difference(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(30):
            n = int(rng.integers(2, 15))
            y = rng.integers(0, 2, n).astype(float)
            sample = _sample(y, rng.uniform(-4, 4, n))
            for value in (-1.0, 0.0, 0.5):
                analytic = leaf_loss_derivative(value, sample)
                numeric = (leaf_loss(value + h, sample) - leaf_loss(value - h, sample)) / (2 * h)
                # central differences carry ~1e-10 absolute float noise near flat spots
                assert abs(analytic - numeric) <= max(1e-6 * abs(analytic), 1e-8)

    def test_strictly_increasing(self):
        sample = _sample([1, 0, 0], [0.5, -0.3, 0.1])
        values = np.linspace(-10, 10, 201)
        ds = [leaf_loss_derivative(v, sample) for v in values]
        assert all(b > a for a, b in zip(ds, ds[1:]))


class TestExactLeafValue:
    def test_balanced_leaf_optimum_is_zero(self):
        assert abs(exact_leaf_value(_sample([1, 0], [0, 0]))) < 1e-10

    def test_fresh_mixed_leaf_optimum_is_log_two(self):
        # 2 hits / 1 miss from even odds: optimum probability 2/3, value ln 2
        assert abs(exact_leaf_value(_sample([1, 1, 0], [0, 0, 0])) - math.log(2.0)) < 1e-8

    def test_pure_leaf_clamps_to_bound(self):
        assert exact_leaf_value(_sample([1, 1], [0, 0]), bound=10.0) == 10.0
        assert exact_leaf_value(_sample([0, 0], [0, 0]), bound=10.0) == -10.0

    def test_rejects_bad_bound_and_tol(self):
        sample = _sample([1, 0], [0, 0])
        with pytest.raises(ValueError):
            exact_leaf_value(sample, bound=0.0)
        with pytest.raises(ValueError):
            exact_leaf_value(sample, tol=0.0)

    def test_derivative_at_result_is_small(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            y = rng.integers(0, 2, n).astype(float)
            y[0] = 1.0 - y[1]  # keep the leaf mixed so the optimum is interior
            sample = _sample(y, rng.uniform(-4, 4, n))
            value = exact_leaf_value(sample, tol=1e-10)
            assert abs(leaf_loss_derivative(value, sample)) <= 1e-10

    def test_permutation_invariant(self):
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        s = np.array([0.3, -1.2, 0.7, -0.4, 2.0])
        base = exact_leaf_value(_sample(y, s))
        rng = np.random.default_rng(23)
        for _ in range(5):
            order = rng.permutation(5)
            assert exact_leaf_value(_sample(y[order], s[order])) == base

    def test_beats_zero_and_newton(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            y = rng.integers(0, 2, n).astype(float)
            y[0] = 1.0 - y[1]
            sample = _sample(y, rng.uniform(-4, 4, n))
            best = leaf_loss(exact_leaf_value(sample), sample)
            assert best <= leaf_loss(0.0, sample) + 1e-9
            assert best <= leaf_loss(newton_leaf_value(sample), sample) + 1e-9


def test_full_newton_step_can_overshoot_exact_loss():
    """The undamped quadratic step is not a descent guarantee.

    With two instances already pushed far negative but split one hit / one
    miss, the curvature is tiny and the Newton step rockets past the optimum:
    the leaf loss at the full step is worse than doing nothing.  The shrunken
    step actually applied during boosting (learning_rate * value) is what
    restores the improvement; see
    test_booster.py::test_damped_step_improves_each_mixed_leaf.
    """
    sample = _sample([1.0, 0.0], [-3.0, -3.0])
    gamma = newton_leaf_value(sample)
    assert abs(gamma - 10.0178749274099) < 1e-10
    assert leaf_loss(gamma, sample) > leaf_loss(0.0, sample)
    # the midpoint solver still finds the true optimum, which does improve
    exact = exact_leaf_value(sample)
    assert leaf_loss(exact, sample) < leaf_loss(0.0, sample)
