"""Independent output oracle: recomputes what gradboost should have written
from the model JSON alone, with json, csv and math.

It deliberately imports nothing from gradboost, so a bug in the package's
routing, score accumulation or sigmoid cannot hide in the check.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

MAX_PROBLEMS = 5


def read_model(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_rows(path: Path):
    """(feature rows as float lists, labels as ints or None) of a header-first CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        labeled = header[-1] == "label"
        rows, labels = [], []
        for cells in reader:
            if labeled:
                labels.append(int(cells[-1]))
                cells = cells[:-1]
            rows.append([float(c) for c in cells])
    return rows, (labels if labeled else None)


def leaf(node: dict, x) -> dict:
    while "leaf_id" not in node:
        node = node["left"] if x[node["feature_index"]] <= node["threshold"] else node["right"]
    return node


def raw_scores(model: dict, rows) -> list[float]:
    """Sum of learning_rate * gamma over the trees, in tree order, per row."""
    rate = model["learning_rate"]
    scores = [0.0] * len(rows)
    for tree in model["trees"]:
        for i, x in enumerate(rows):
            scores[i] += rate * leaf(tree, x)["gamma"]
    return scores


def sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _printed_matches(text: str, value: float) -> bool:
    """A 6-decimal printed number agrees with value up to one last-digit rounding step."""
    return abs(round(float(text) * 1e6) - round(value * 1e6)) <= 1


def check_predictions(model: dict, rows, path: Path, threshold: float = 0.5) -> list[str]:
    """The prediction CSV scores every row like the oracle, to 6 decimals."""
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["index", "raw_score", "probability", "label"]:
            return [f"{path.name}: unexpected header"]
        lines = list(reader)
    if len(lines) != len(rows):
        return [f"{path.name}: {len(lines)} rows, expected {len(rows)}"]
    for i, (cells, raw) in enumerate(zip(lines, raw_scores(model, rows))):
        prob = sigmoid(raw)
        label_ok = abs(prob - threshold) < 1e-12 or int(cells[3]) == (1 if prob >= threshold else 0)
        if (
            int(cells[0]) != i + 1
            or not _printed_matches(cells[1], raw)
            or not _printed_matches(cells[2], prob)
            or not label_ok
        ):
            problems.append(f"{path.name} row {i + 1}: {cells} but oracle raw {raw!r}, p {prob!r}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems


def log_loss(model: dict, rows, labels) -> float:
    """math.fsum log-loss of the model's probabilities on labeled rows."""
    terms = []
    for y, raw in zip(labels, raw_scores(model, rows)):
        p = sigmoid(raw)
        terms.append(-math.log(p) if y == 1 else -math.log1p(-p))
    return math.fsum(terms)


def check_train_loss(model: dict, rows, labels, printed: str) -> list[str]:
    """`gradboost train` printed the final training loss of the model it saved."""
    expected = log_loss(model, rows, labels)
    if not _printed_matches(printed.strip(), expected):
        return [f"train printed loss {printed.strip()!r}, oracle {expected:.6f}"]
    return []


def check_trace(model: dict, rows, labels, path: Path) -> list[str]:
    """Each round of the trace CSV lists p_prev and r like the oracle, and its
    leaf member lists partition rows 1..n exactly as the oracle routes them."""
    n = len(rows)
    rate = model["learning_rate"]
    scores = [0.0] * n
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for m, tree in enumerate(model["trees"], start=1):
            if next(reader, None) != [f"iteration {m}"]:
                return problems + [f"{path.name}: missing banner of iteration {m}"]
            next(reader)  # residual table header
            for i in range(n):
                cells = next(reader)
                p_prev = sigmoid(scores[i])
                if not (
                    int(cells[0]) == i + 1
                    and _printed_matches(cells[-2], p_prev)
                    and _printed_matches(cells[-1], labels[i] - p_prev)
                ):
                    problems.append(f"{path.name} iteration {m} row {i + 1}: {cells[-2:]}, oracle p {p_prev!r}")
                    if len(problems) >= MAX_PROBLEMS:
                        return problems
            blank, leaf_header = next(reader, None), next(reader, None)
            if blank != [] or leaf_header is None:
                return problems + [f"{path.name}: iteration {m} residual table not closed"]
            routed = [leaf(tree, x) for x in rows]
            seen = []
            for cells in reader:
                if not cells:
                    break
                leaf_id = int(cells[1])
                members = [int(j) for j in cells[2].split()]
                seen.extend(members)
                if any(routed[j - 1]["leaf_id"] != leaf_id for j in members):
                    problems.append(f"{path.name} iteration {m}: leaf {leaf_id} members differ from oracle routing")
            if sorted(seen) != list(range(1, n + 1)):
                problems.append(f"{path.name} iteration {m}: leaf members do not partition 1..{n}")
            for i, node in enumerate(routed):
                scores[i] += rate * node["gamma"]
            if len(problems) >= MAX_PROBLEMS:
                return problems
        if next(reader, None) is not None:
            problems.append(f"{path.name}: rows after the last iteration")
    return problems


def check_probabilities(model: dict, rows, probs) -> list[str]:
    """Single-row Model.predict_proba results equal the oracle's up to float rounding."""
    problems = []
    for i, (raw, p) in enumerate(zip(raw_scores(model, rows), probs)):
        if not math.isclose(p, sigmoid(raw), rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"predict_proba row {i + 1}: {p!r}, oracle {sigmoid(raw)!r}")
            if len(problems) >= MAX_PROBLEMS:
                break
    return problems
