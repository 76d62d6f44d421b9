"""The one-dimensional problem inside every leaf, solved three ways.

Run from the repository root:

    python3 demos/03_leaf_value_math.py

Once a tree has grouped instances into a leaf, choosing the leaf's additive
score value is a one-dimensional convex problem: minimize the summed
log-loss of the leaf's members as a function of that single value.  This
demo compares

  * the closed-form one-step (Newton) value sum(r) / sum(p(1-p)) the booster
    actually computes,
  * the exact minimizer found by bisection on the loss derivative, and
  * the loss curve itself,

then shows why the booster multiplies the step by a small learning rate: the
raw step can overshoot the minimum badly, while the damped step cannot.
"""

import math

import numpy as np

from gradboost import (
    LeafSample,
    exact_leaf_value,
    leaf_loss,
    newton_leaf_value,
)

# ------------------------------------------------ a fresh two-vs-one leaf
# Two positive instances, one negative, all starting at score 0 (p = 0.5).
sample = LeafSample(np.array([1.0, 1.0, 0.0]), np.zeros(3))
newton = newton_leaf_value(sample)
exact = exact_leaf_value(sample)

print("fresh leaf, labels [1, 1, 0], all scores 0:")
print(f"  one-step value   sum(r)/sum(p(1-p)) = 0.5/0.75 = {newton:.12f}")
print(f"  exact minimizer  (bisection)        = {exact:.12f}")
print(f"  ln 2 for comparison                 = {math.log(2.0):.12f}")
print("  the exact optimum moves the leaf probability to 2/3, matching the")
print("  2-of-3 label frequency; the one-step value lands close but short.\n")

print("  loss along the leaf-value axis:")
for value in (0.0, newton, exact, 1.5):
    print(f"    value {value:+.6f}: loss {leaf_loss(value, sample):.6f}")

# ------------------------------------------- where the raw step goes wrong
# One hit and one miss whose scores are already far negative.  The curvature
# p(1-p) is tiny there, so dividing by it produces a huge jump.
bad = LeafSample(np.array([1.0, 0.0]), np.array([-3.0, -3.0]))
raw = newton_leaf_value(bad)
best = exact_leaf_value(bad)

print("\nleaf with labels [1, 0] and both scores already at -3:")
print(f"  one-step value: {raw:.6f}   exact minimizer: {best:.6f}")
print(f"  loss at 0 (do nothing):      {leaf_loss(0.0, bad):.6f}")
print(f"  loss at the raw step:        {leaf_loss(raw, bad):.6f}   <-- WORSE than doing nothing")
print(f"  loss at the exact minimizer: {leaf_loss(best, bad):.6f}")

# ---------------------------------------------------- the damping rescue
print("\n  the same step scaled by the 0.1 learning rate:")
damped = 0.1 * raw
print(f"  loss at 0.1 * step = {damped:.6f}: {leaf_loss(damped, bad):.6f}  (an improvement)")

print("\n  sweep of scale factors applied to the raw step:")
for scale in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
    loss = leaf_loss(scale * raw, bad)
    marker = " <-- past the optimum, loss rising" if scale >= 0.6 else ""
    print(f"    scale {scale:.2f}: loss {loss:.6f}{marker}")
print(
    "\nmoral: the raw quadratic step is only trustworthy near the current"
    "\nscores; shrinking it keeps every round inside the descending part of"
    "\nthe curve, which is what makes the training loss fall monotonically."
)
