"""Scalar math behind leaf values: sigmoid, the logistic loss of scores, the
second-order (Newton) leaf step, and an exact bisection minimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import binary_labels, float_array, frozen_copy

NEWTON_DENOMINATOR_FLOOR = 1e-12
EXACT_LEAF_BOUND = 30.0
EXACT_LEAF_TOL = 1e-10


def sigmoid(z):
    """Logistic function, stable for every z: one formula on e = exp(-|z|),
    which is never above 1, as 1 / (1 + e) for z >= 0 and e / (1 + e) below.

    Accepts a scalar or an array of numbers (float_array); returns a float for
    scalar input.  A scalar takes the same formula with e a Python float, bit
    for bit the array result: it calls numpy's exp, not math.exp, which
    differs in the last bit on some arguments.  NaN gives NaN.
    """
    if type(z) is not float:  # a Python float, the common case, skips float_array's ~1 us
        z = float_array(z, "z")
        if z.ndim:
            e = np.exp(-np.abs(z))
            return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    e = float(np.exp(-abs(z)))
    return 1.0 / (1.0 + e) if z >= 0.0 else e / (1.0 + e)


def _labels_and_scores(labels, scores, what: str) -> tuple[np.ndarray, np.ndarray]:
    """labels and scores, named what, as float_arrays of one shape, the labels
    binary_labels and the scores finite; anything else is a ValueError."""
    y = float_array(labels, "labels")
    s = float_array(scores, what, y.shape, finite=True)
    return binary_labels(y), s


def total_loss(labels, scores) -> float:
    """Total cross-entropy of binary labels against raw scores (log-odds): the
    exact sum of log(1 + e^s) - y*s, or inf when it passes the float range.
    Arrays that are not of numbers or of different shapes, labels other than
    exactly 0 or 1 and a score that is not finite are refused with a ValueError."""
    y, s = _labels_and_scores(labels, scores, "scores")
    # log(1 + e^s) with the exponent shifted to be non-positive, so no term overflows
    terms = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s))) - y * s
    try:
        return math.fsum(terms.ravel().tolist())  # ravel: a 0-d array's tolist is a float
    except OverflowError:  # fsum's "intermediate overflow"
        return math.inf


@dataclass(frozen=True)
class LeafSample:
    """The instances routed to one leaf, as flat frozen_copy arrays: binary labels,
    the scores the model assigned them before this leaf's update, their sigmoid."""

    labels: np.ndarray
    prior_scores: np.ndarray
    prior_probs: np.ndarray = field(init=False)

    def __post_init__(self):
        labels, scores = _labels_and_scores(self.labels, self.prior_scores, "prior_scores")
        labels, scores = labels.reshape(-1), scores.reshape(-1)
        if labels.size == 0:
            raise ValueError("a leaf sample must hold at least one instance")
        object.__setattr__(self, "labels", frozen_copy(labels))
        object.__setattr__(self, "prior_scores", frozen_copy(scores))
        object.__setattr__(self, "prior_probs", frozen_copy(sigmoid(scores)))

    def __reduce__(self):
        return LeafSample, (self.labels, self.prior_scores)


def leaf_value_terms(labels: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """Sums feeding the second-order step over a leaf's rows: (sum of
    labels - probs, sum of probs * (1 - probs)).

    Both use exact (order-independent) summation so row order never changes
    the result.  Lists and scalars are read as float_arrays, which must be of
    one shape: numpy would otherwise broadcast a single label over every prob.
    """
    labels = float_array(labels, "labels")
    probs = float_array(probs, "probs", labels.shape)
    numerator = math.fsum((labels - probs).ravel().tolist())  # a 0-d array's tolist is a float
    denominator = math.fsum((probs * (1.0 - probs)).ravel().tolist())
    return numerator, denominator


def newton_step(residual_sum: float, hessian_sum: float) -> float:
    """One second-order step from the summed terms; the floor keeps the
    division defined when curvature vanishes."""
    return residual_sum / max(hessian_sum, NEWTON_DENOMINATOR_FLOOR)


def newton_leaf_value(sample: LeafSample) -> float:
    """Closed-form leaf value: summed residuals over summed p(1-p)."""
    numerator, denominator = leaf_value_terms(sample.labels, sample.prior_probs)
    return newton_step(numerator, denominator)


def leaf_loss(value: float, sample: LeafSample) -> float:
    """Exact negative log-likelihood of the leaf's instances after adding
    `value` to each prior score.  Always non-negative."""
    return total_loss(sample.labels, sample.prior_scores + float(value))


def leaf_loss_derivative(value: float, sample: LeafSample) -> float:
    """d(leaf_loss)/d(value): sum of sigmoid(score + value) - label.

    Strictly increasing in `value`, which is what makes bisection valid.
    """
    shifted = sample.prior_scores + float(value)
    terms = sigmoid(shifted) - sample.labels
    return math.fsum(terms.tolist())


def exact_leaf_value(sample: LeafSample) -> float:
    """Minimize the exact leaf loss by bisecting its strictly increasing
    derivative on [-EXACT_LEAF_BOUND, EXACT_LEAF_BOUND], that is [-30, 30].

    Returns a value whose derivative magnitude is at most EXACT_LEAF_TOL
    (1e-10).  For a single-class sample the derivative never crosses zero
    inside the interval, so the bound endpoint with the smaller |derivative|
    is returned instead.
    """
    lo, hi = -EXACT_LEAF_BOUND, EXACT_LEAF_BOUND
    d_lo = leaf_loss_derivative(lo, sample)
    d_hi = leaf_loss_derivative(hi, sample)
    if d_lo >= 0.0 or d_hi <= 0.0:
        return lo if abs(d_lo) <= abs(d_hi) else hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = leaf_loss_derivative(mid, sample)
        if abs(d_mid) <= EXACT_LEAF_TOL:
            return mid
        if d_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    return mid
