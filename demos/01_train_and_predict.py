"""Train a boosted-stump classifier on a CSV and score new points.

Run from the repository root:

    python3 demos/01_train_and_predict.py

The same workflow is available from the command line:

    gradboost train --data demos/data/six_points.csv --out /tmp/model.json
    gradboost predict --model /tmp/model.json --data new_points.csv
"""

from pathlib import Path

import numpy as np

from gradboost import TrainConfig, load_csv, train
from gradboost.booster import deserialize_model, serialize_model

HERE = Path(__file__).parent

# ---------------------------------------------------------------- load data
dataset = load_csv(HERE / "data" / "six_points.csv", expect_labels=True)
print(f"loaded {dataset.n_rows} rows, features {dataset.feature_names}")
print(f"labels: {dataset.labels.astype(int).tolist()}")

# ------------------------------------------------------------------- train
# Three rounds of depth-1 trees (stumps).  Each round fits the current
# residuals y - p, converts each leaf's mean pull into an additive score
# step, and applies one tenth of it.
config = TrainConfig(n_trees=3, learning_rate=0.1, max_depth=1)
model, trace = train(dataset, config)

print("\nper-round training loss (negative log-likelihood):")
baseline = dataset.n_rows * np.log(2.0)
print(f"  round 0 (all scores zero): {baseline:.6f}")
for record in trace.records:
    chosen = model.trees[record.iteration - 1].root
    print(
        f"  round {record.iteration}: {record.total_loss:.6f}"
        f"   (split x <= {chosen.threshold})"
    )

# ----------------------------------------------------------------- predict
print("\nscoring new points:")
for x in (1.0, 2.0, 5.0, 7.0):
    point = np.array([x])
    raw = model.predict_raw(point)
    proba = model.predict_proba(point)
    label = model.predict_label(point)
    print(f"  x={x:>4}: raw score {raw:+.6f}, probability {proba:.6f}, label {label}")

# ------------------------------------------------------- save / load model
# The JSON document stores every threshold and leaf value in full precision,
# so a reloaded model reproduces raw scores bit for bit.
text = serialize_model(model)
restored = deserialize_model(text)
grid = np.linspace(0.0, 10.0, 100)
identical = all(
    restored.predict_raw(np.array([g])) == model.predict_raw(np.array([g])) for g in grid
)
print(f"\nmodel JSON is {len(text)} bytes; reload reproduces scores bit-for-bit: {identical}")
