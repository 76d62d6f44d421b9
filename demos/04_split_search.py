"""How the regression tree picks its split threshold.

Run from the repository root:

    python3 demos/04_split_search.py

A depth-1 tree fitted to residuals considers one candidate threshold per gap
between adjacent distinct feature values (the midpoint), scores each by the
summed squared error of the two sides around their own means, and keeps the
strict minimizer.  This demo prints the full candidate table for the
six-point dataset's first boosting round and shows where the free search
disagrees with the hand-picked walkthrough threshold.
"""

from pathlib import Path

import numpy as np

from gradboost import best_split, fit_tree, load_csv

HERE = Path(__file__).parent

dataset = load_csv(HERE / "data" / "six_points.csv", expect_labels=True)
x = dataset.features[:, 0]
# first-round residuals: every probability starts at 0.5, so r = y - 0.5
residuals = dataset.labels - 0.5

print("feature values:", x.tolist())
print("residuals:     ", residuals.tolist(), "\n")


def side_sse(values):
    if len(values) == 0:
        return 0.0
    return float(np.sum((values - values.mean()) ** 2))


node_sse = side_sse(residuals)
print(f"node SSE before splitting: {node_sse:.6f}\n")

print("candidate table (midpoints of adjacent distinct values):")
print("  threshold   left members      right members     SSE after")
xs = np.sort(np.unique(x))
for lo, hi in zip(xs, xs[1:]):
    threshold = (lo + hi) / 2.0
    left = residuals[x <= threshold]
    right = residuals[x > threshold]
    sse = side_sse(left) + side_sse(right)
    left_ids = " ".join(str(i + 1) for i in range(6) if x[i] <= threshold)
    right_ids = " ".join(str(i + 1) for i in range(6) if x[i] > threshold)
    print(f"  {threshold:>8}    {{{left_ids:<11}}}    {{{right_ids:<11}}}    {sse:.6f}")

found = best_split(dataset.features, residuals, np.arange(6))
print(
    f"\nsearch result: feature {found.feature_index}, threshold {found.threshold},"
    f" SSE {found.sse_after:.6f}"
)
print(
    "note the exact tie between 1.4 and 7.45: both isolate one +0.5 or -0.5"
    "\nresidual.  Ties break toward the lower threshold, so 1.4 wins."
)
print(
    "\nthe guided walkthrough instead forces x <= 3.5 (SSE 1.333...) to keep"
    "\nits arithmetic tidy; a freely fitted stump prefers the outer gap:"
)
tree, leaf_rows = fit_tree(dataset.features, residuals, max_depth=1)
print(f"  freely fitted stump splits at x <= {tree.root.threshold}")
# the grower hands back each leaf's rows, so the booster never routes them again
for leaf_id, rows in enumerate(leaf_rows, start=1):
    print(f"  leaf {leaf_id} holds points {{{' '.join(str(i + 1) for i in rows)}}}")

# ------------------------------------------------- a constraint worth knowing
print("\nminimum-leaf-size constraint (min_count) on the same residuals:")
for min_count in (1, 2, 3):
    found = best_split(dataset.features, residuals, np.arange(6), min_count=min_count)
    if found is None:
        print(f"  min_count={min_count}: no admissible split")
    else:
        print(
            f"  min_count={min_count}: threshold {found.threshold},"
            f" SSE {found.sse_after:.6f}"
        )
print("  larger min_count rules out the outer gaps and falls back to middle cuts.")
