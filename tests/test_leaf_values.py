"""Leaf-value math: sigmoid, Newton step, leaf loss, bisection solver."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradboost import (
    NEWTON_DENOMINATOR_FLOOR,
    DataError,
    LeafSample,
    exact_leaf_value,
    leaf_loss,
    leaf_loss_derivative,
    leaf_value_terms,
    newton_leaf_value,
    newton_step,
    sigmoid,
)
from gradboost import leaf_values
from gradboost.leaf_values import EXACT_LEAF_BOUND, EXACT_LEAF_TOL

from conftest import NOT_NUMBERS


# zero of both signs, the smallest subnormal and normal, where exp(-|z|) leaves
# the subnormals and where it reaches 0, and the non-finite values
SPECIAL_SCORES = [0.0, 5e-324, 2.2250738585072014e-308, 708.5, 745.0, 745.2, math.inf, math.nan]
SCORES = st.one_of(
    st.sampled_from(SPECIAL_SCORES + [-z for z in SPECIAL_SCORES]),
    # full-precision multiples of 2**-46 in [-128, 128]: hypothesis's bounded
    # floats favour short mantissas, on which any exp is exact enough
    st.integers(-(2**53), 2**53).map(lambda k: k * 2.0**-46),
    st.floats(-800.0, 800.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
# each score as a Python float, a numpy float64 and a 0-d array, and the
# other scalars a caller may pass: Python ints and numpy float32s
SCALARS = st.one_of(
    SCORES.flatmap(lambda z: st.sampled_from([z, np.float64(z), np.array(z)])),
    st.integers(-1000, 1000),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
)


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every float64 bit pattern: NaNs, infinities, subnormals and zeros included
FLOAT_BITS = st.integers(0, 2**64 - 1).map(_from_bits)
# full 52-bit mantissas of either sign with |z| in [2**-8, 2**10), where exp
# rounds in its last bit: another exp or formula shows there, and random bit
# patterns land there rarely
ROUNDING_SCORES = st.builds(
    lambda sign, exponent, mantissa: _from_bits(sign << 63 | exponent << 52 | mantissa),
    st.integers(0, 1), st.integers(1015, 1032), st.integers(0, 2**52 - 1),
)
# where exp(-|z|) leaves the subnormals, reaches 0, or makes 1 + e round to 1
EDGE_SCORES = [0.0, 5e-324, 2.225073858507201e-308, 36.7, 709.78, 745.2, math.inf]
ORACLE_SCORES = st.one_of(
    FLOAT_BITS, ROUNDING_SCORES, st.sampled_from(EDGE_SCORES + [-z for z in EDGE_SCORES]), SCORES
)


@st.composite
def score_arrays(draw):
    """A 1-d or 2-d float64 array of mixed-sign scores; any dimension may be 0."""
    shape = tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=2)))
    cells = draw(st.lists(ORACLE_SCORES, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(cells, dtype=np.float64).reshape(shape)


def _reference_sigmoid(z):
    """The two-formula logistic function sigmoid replaced: 1 / (1 + exp(-z))
    for z >= 0 and exp(z) / (1 + exp(z)) below, on the array path behind two
    masks.  sigmoid must equal it bit for bit on every input but NaN."""
    if type(z) is float or np.ndim(z) == 0:
        z = float(z)
        if z >= 0.0:
            return 1.0 / (1.0 + float(np.exp(-z)))
        expz = float(np.exp(z))
        return expz / (1.0 + expz)
    arr = np.asarray(z, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    expz = np.exp(arr[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _assert_same_bits(got, expected):
    """Equal under float.hex, cell by cell; a NaN need only meet a NaN, of either sign."""
    got, expected = np.ravel(got).tolist(), np.ravel(expected).tolist()
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert math.isnan(g) if math.isnan(e) else g.hex() == e.hex()


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

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_refuses_an_array_that_is_not_numbers(self, cells, dtype):
        message = re.escape(f"z must hold numbers, got dtype {dtype}")
        for z in (np.ravel(cells), np.ravel(cells)[0, ...]):  # 1-d, and 0-d
            with pytest.raises(DataError, match=message):
                sigmoid(z)

    @pytest.mark.parametrize("z, dtype", [("1.5", "<U3"), (True, "bool")])
    def test_refuses_a_scalar_that_is_not_a_number(self, z, dtype):
        with pytest.raises(DataError, match=re.escape(f"z must hold numbers, got dtype {dtype}")):
            sigmoid(z)

    @settings(max_examples=200)
    @given(st.lists(SCALARS, min_size=1, max_size=40))
    def test_a_scalar_scores_bit_for_bit_as_in_an_array(self, zs):
        for z in zs:
            p = sigmoid(z)
            assert type(p) is float
            assert p.hex() == float(sigmoid(np.array([z]))[0]).hex()

    @settings(max_examples=300)
    @given(st.lists(ORACLE_SCORES, min_size=1, max_size=40), st.integers(-(2**63), 2**63))
    def test_a_scalar_equals_the_two_formula_reference(self, zs, integer):
        for z in [integer, *zs]:
            for scalar in (z, np.float64(z), np.array(z)):
                p = sigmoid(scalar)
                assert type(p) is float
                _assert_same_bits(p, _reference_sigmoid(scalar))

    @settings(max_examples=300)
    @given(score_arrays())
    def test_an_array_equals_the_two_formula_reference(self, zs):
        p = sigmoid(zs)
        assert type(p) is np.ndarray and p.dtype == np.float64 and p.shape == zs.shape
        _assert_same_bits(p, _reference_sigmoid(zs))


class TestLeafSample:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LeafSample(np.array([]), np.array([]))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            LeafSample(np.array([0.5]), np.array([0.0]))

    def test_rejects_length_mismatch(self):
        message = re.escape("prior_scores must have shape (1,), got (2,)")
        with pytest.raises(ValueError, match=message):
            LeafSample(np.array([1.0]), np.array([0.0, 0.0]))

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_rejects_labels_and_scores_that_are_not_numbers(self, cells, dtype):
        with pytest.raises(DataError, match=re.escape(f"labels must hold numbers, got dtype {dtype}")):
            LeafSample(np.ravel(cells), np.zeros(2))
        message = re.escape(f"prior_scores must hold numbers, got dtype {dtype}")
        with pytest.raises(DataError, match=message):
            LeafSample(np.array([1.0, 0.0]), np.ravel(cells))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match="prior_scores must be finite"):
            LeafSample(np.array([1.0, 0.0]), np.array([0.0, bad]))

    def test_prior_probs_are_the_sigmoid_of_the_scores(self):
        # bit for bit, also on any subset of the rows: the booster sums each
        # leaf's Newton terms over probs[members], gathered from the round's
        # one sigmoid of every row's score
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
        value = newton_leaf_value(LeafSample(y, np.log(p) - np.log1p(-p)))
        assert abs(value - (-0.0669)) < 5e-5

    def test_zero_residual_sum_gives_zero(self):
        assert newton_leaf_value(_sample([1, 0], [0, 0])) == 0.0

    def test_denominator_floor(self):
        # a single confident-miss instance has hessian ~4e-18, far below the floor
        sample = _sample([1], [-40.0])
        num, den = leaf_value_terms(sample.labels, sample.prior_probs)
        assert den < NEWTON_DENOMINATOR_FLOOR
        assert newton_leaf_value(sample) == num / NEWTON_DENOMINATOR_FLOOR

    def test_matches_gradient_over_hessian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            y = rng.integers(0, 2, n).astype(float)
            y[0] = 1.0 - y[1] if n > 1 else y[0]
            sample = _sample(y, rng.uniform(-3, 3, n))
            num, den = leaf_value_terms(sample.labels, sample.prior_probs)
            # Newton step == -(slope at zero) / curvature
            assert abs(newton_leaf_value(sample) - (-leaf_loss_derivative(0.0, sample) / den)) < 1e-12

    def test_even_odds_leaf_is_four_times_mean_residual(self):
        y = np.array([1.0, 1.0, 0.0, 1.0])
        sample = _sample(y, np.zeros(4))
        r = y - sample.prior_probs
        assert abs(newton_leaf_value(sample) - 4.0 * r.mean()) < 1e-12

    def test_terms_read_lists_and_scalars_as_arrays(self):
        expected = leaf_value_terms(np.array([1.0, 0.0]), np.array([0.25, 0.5]))
        assert leaf_value_terms([1, 0], [0.25, 0.5]) == expected
        assert leaf_value_terms(1.0, 0.25) == leaf_value_terms(np.array([1.0]), np.array([0.25]))
        assert leaf_value_terms(np.float64(1.0), np.array(0.25)) == (0.75, 0.1875)
        with pytest.raises(ValueError, match=re.escape("probs must have shape (1,), got (3,)")):
            leaf_value_terms([1.0], [0.25, 0.5, 0.75])

    def test_terms_refuse_a_column_of_labels_with_a_row_of_probs(self):
        # as total_loss refuses them, instead of ravelling both to two rows
        with pytest.raises(DataError, match=re.escape("probs must have shape (2, 1), got (2,)")):
            leaf_value_terms([[1.0], [0.0]], [0.25, 0.5])

    @pytest.mark.parametrize("cells, dtype", NOT_NUMBERS)
    def test_terms_refuse_labels_and_probs_that_are_not_numbers(self, cells, dtype):
        with pytest.raises(DataError, match=re.escape(f"labels must hold numbers, got dtype {dtype}")):
            leaf_value_terms(np.ravel(cells), [0.25, 0.5])
        with pytest.raises(DataError, match=re.escape(f"probs must hold numbers, got dtype {dtype}")):
            leaf_value_terms([1.0, 0.0], np.ravel(cells))

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
        assert EXACT_LEAF_BOUND == 30.0
        assert exact_leaf_value(_sample([1, 1], [0, 0])) == 30.0
        assert exact_leaf_value(_sample([0, 0], [0, 0])) == -30.0

    def test_derivative_at_result_is_small(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            y = rng.integers(0, 2, n).astype(float)
            y[0] = 1.0 - y[1]  # keep the leaf mixed so the optimum is interior
            sample = _sample(y, rng.uniform(-4, 4, n))
            value = exact_leaf_value(sample)
            assert abs(leaf_loss_derivative(value, sample)) <= EXACT_LEAF_TOL == 1e-10

    def test_bisection_stops_once_the_interval_is_too_narrow_to_halve(self, monkeypatch):
        # with a tolerance of 0 no derivative is small enough to stop on, so the
        # interval's width ends the search: 2 end points and 56 halvings of 60
        monkeypatch.setattr(leaf_values, "EXACT_LEAF_TOL", 0.0)
        derivatives = []

        def derivative(value, sample):
            derivatives.append(leaf_loss_derivative(value, sample))
            return derivatives[-1]

        monkeypatch.setattr(leaf_values, "leaf_loss_derivative", derivative)
        value = exact_leaf_value(_sample([1, 1, 0], [0, 0, 0]))
        assert abs(value - math.log(2.0)) <= 1e-15
        assert len(derivatives) == 58
        assert 0.0 not in derivatives

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
