"""Scalar math behind leaf values: sigmoid, residuals, logistic leaf loss,
the second-order (Newton) leaf step, and an exact bisection minimizer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NEWTON_DENOMINATOR_FLOOR = 1e-12


def sigmoid(z):
    """Logistic function, stable for |z| up to ~700.

    Branches so the exponentiated argument is never positive.  Accepts a
    scalar or an array; returns a float for scalar input.
    """
    scalar = np.ndim(z) == 0
    arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    expz = np.exp(arr[~pos])
    out[~pos] = expz / (1.0 + expz)
    return float(out[0]) if scalar else out


def log_odds(p):
    """Inverse of sigmoid: log(p / (1 - p)) for p in (0, 1)."""
    scalar = np.ndim(p) == 0
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    out = np.log(arr) - np.log1p(-arr)
    return float(out[0]) if scalar else out


def residuals(labels, probs):
    """Per-instance pseudo-residuals: label minus current probability."""
    return np.asarray(labels, dtype=np.float64) - np.asarray(probs, dtype=np.float64)


def _softplus(t: np.ndarray) -> np.ndarray:
    # log(1 + e^t) without overflow: shift so the exponent is non-positive
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


@dataclass(frozen=True)
class LeafSample:
    """The instances routed to one leaf: binary labels, the scores the model
    assigned them before this leaf's update, and those scores' sigmoid."""

    labels: np.ndarray
    prior_scores: np.ndarray
    prior_probs: np.ndarray = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        scores = np.asarray(self.prior_scores, dtype=np.float64).reshape(-1)
        if labels.size != scores.size:
            raise ValueError("labels and prior_scores must have equal length")
        if labels.size == 0:
            raise ValueError("a leaf sample must hold at least one instance")
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError("labels must be exactly 0 or 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior_scores", scores)
        object.__setattr__(self, "prior_probs", sigmoid(scores))

    def __len__(self) -> int:
        return self.labels.size

    @classmethod
    def from_probs(cls, labels, probs) -> "LeafSample":
        return cls(labels, log_odds(probs))


def leaf_value_terms(sample: LeafSample) -> tuple[float, float]:
    """Sums feeding the second-order step: (sum of residuals, sum of p(1-p)).

    Both use exact (order-independent) summation so row order never changes
    the result.
    """
    numerator = math.fsum((sample.labels - sample.prior_probs).tolist())
    denominator = math.fsum((sample.prior_probs * (1.0 - sample.prior_probs)).tolist())
    return numerator, denominator


def newton_step(residual_sum: float, hessian_sum: float) -> float:
    """One second-order step from the summed terms; the floor keeps the
    division defined when curvature vanishes."""
    return residual_sum / max(hessian_sum, NEWTON_DENOMINATOR_FLOOR)


def newton_leaf_value(sample: LeafSample) -> float:
    """Closed-form leaf value: summed residuals over summed p(1-p)."""
    numerator, denominator = leaf_value_terms(sample)
    return newton_step(numerator, denominator)


def leaf_loss(value: float, sample: LeafSample) -> float:
    """Exact negative log-likelihood of the leaf's instances after adding
    `value` to each prior score.  Always non-negative."""
    shifted = sample.prior_scores + float(value)
    terms = _softplus(shifted) - sample.labels * shifted
    return math.fsum(terms.tolist())


def leaf_loss_derivative(value: float, sample: LeafSample) -> float:
    """d(leaf_loss)/d(value): sum of sigmoid(score + value) - label.

    Strictly increasing in `value`, which is what makes bisection valid.
    """
    shifted = sample.prior_scores + float(value)
    terms = sigmoid(shifted) - sample.labels
    return math.fsum(np.atleast_1d(terms).tolist())


def exact_leaf_value(sample: LeafSample, bound: float = 30.0, tol: float = 1e-10) -> float:
    """Minimize the exact leaf loss by bisecting its strictly increasing
    derivative on [-bound, bound].

    Returns a value whose derivative magnitude is at most tol.  For a
    single-class sample the derivative never crosses zero inside the
    interval, so the bound endpoint with the smaller |derivative| is
    returned instead.
    """
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = -float(bound), float(bound)
    d_lo = leaf_loss_derivative(lo, sample)
    d_hi = leaf_loss_derivative(hi, sample)
    if d_lo >= 0.0 or d_hi <= 0.0:
        return lo if abs(d_lo) <= abs(d_hi) else hi
    mid = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d_mid = leaf_loss_derivative(mid, sample)
        if abs(d_mid) <= tol:
            return mid
        if d_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    return mid
