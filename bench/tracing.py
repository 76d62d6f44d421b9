"""Spans and counters around gradboost's public functions, recorded from
outside the package by rebinding module and class attributes.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory and are written out once, when the run ends.  Counting work done inside
a wrapper (sorting a node's columns to count distinct cut points, summing a
trace's array bytes) pauses the tracer's clock, so it shows in no span.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.paused_ns = 0
        self.counts: Counter = Counter()
        self._saved: list = []

    def clock(self) -> int:
        return time.perf_counter_ns() - self.paused_ns

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(counts, result, *args, **kwargs) runs
        after it on the paused clock."""
        self.names.append(name)
        name_id = len(self.names) - 1

        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                spans[span_id] = (name_id, start, end, parent, self.op)
            if count is not None:
                t0 = time.perf_counter_ns()
                count(self.counts, result, *args, **kwargs)
                self.paused_ns += time.perf_counter_ns() - t0
            return result

        return traced

    def prepare(self, gradboost) -> None:
        """Build the wrappers for every layer boundary the benchmark measures."""
        cli, booster, tree, leaf_values = (
            gradboost.cli, gradboost.booster, gradboost.tree, gradboost.leaf_values,
        )
        sigmoid = self.wrap("leaf_values.sigmoid", leaf_values.sigmoid)
        plan = [
            # load_csv, train, replay, save_model and load_model are looked up in cli's
            # namespace; fit_tree, LeafSample, leaf_value_terms and total_loss in booster's
            (cli, "load_csv", "dataset.load_csv", _count_rows),
            (booster, "fit_tree", "tree.fit_tree", None),
            (tree, "best_split", "tree.best_split", _count_split_search),
            (tree.RegressionTree, "leaf_assignment", "tree.leaf_assignment", _count_routed),
            (booster.Model, "predict_raw", "booster.predict_raw", _count_predict_raw),
            (cli, "train", "booster.train", _count_trace_bytes),
            (cli, "replay", "booster.replay", _count_trace_bytes),
            (booster, "total_loss", "booster.total_loss", None),
            (booster, "LeafSample", "leaf_values.leaf_sample", None),
            (booster, "leaf_value_terms", "leaf_values.leaf_value_terms", _count_leaves),
            (cli, "save_model", "cli.save_model", _count_model_bytes),
            (cli, "load_model", "cli.load_model", _count_model_bytes),
            (cli, "write_predictions", "cli.write_predictions", _count_output_bytes),
            (cli, "write_trace", "cli.write_trace", _count_output_bytes),
        ]
        self._saved = [
            (owner, attr, getattr(owner, attr), self.wrap(name, getattr(owner, attr), count))
            for owner, attr, name, count in plan
        ]
        self._saved += [
            (module, "sigmoid", leaf_values.sigmoid, sigmoid) for module in (booster, cli, leaf_values)
        ]

    def install(self) -> None:
        for owner, attr, _, traced in self._saved:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._saved:
            setattr(owner, attr, original)

    def totals(self, first: int = 0) -> tuple[Counter, Counter]:
        """(summed duration, summed self time) in ns per span name, over the
        spans from index first on, which must not be children of earlier spans.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because calls nest.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent - first] += end - start
        total, own = Counter(), Counter()
        for (name_id, start, end, _, _), children in zip(spans, child_ns):
            name = self.names[name_id]
            total[name] += end - start
            own[name] += end - start - children
        return total, own

    def write(self, path) -> None:
        """Every span as CSV: id, name, start and end in ns, parent id, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for span_id, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{span_id},{self.names[name_id]},{start},{end},{parent},{op}\n")


def _count_rows(counts, dataset, *args, **kwargs):
    counts["rows_parsed"] += dataset.n_rows


def _count_split_search(counts, result, features, residuals, instance_set, min_count=1):
    node = np.sort(np.asarray(features)[np.asarray(instance_set)], axis=0)
    n, d = node.shape
    counts["best_split_calls"] += 1
    counts["candidates_scanned"] += d * max(n - 1, 0)
    counts["distinct_cuts"] += int(np.count_nonzero(node[1:] != node[:-1]))
    counts["splits_found"] += result is not None


def _count_routed(counts, result, *args, **kwargs):
    counts["rows_routed"] += sum(members.size for members in result.values())


def _count_predict_raw(counts, result, *args, **kwargs):
    counts["predict_raw_calls"] += 1


def _count_trace_bytes(counts, result, *args, **kwargs):
    trace = result[1] if isinstance(result, tuple) else result  # train returns (model, trace)
    arrays = {}
    for record in trace.records:
        for a in (record.residuals, record.leaf_ids, record.prior_probs, record.scores, record.probs):
            arrays[id(a)] = a
        for leaf in record.leaves:
            arrays[id(leaf.members)] = leaf.members
    counts["trace_bytes"] += sum(a.nbytes for a in arrays.values())


def _count_leaves(counts, result, *args, **kwargs):
    counts["leaves_evaluated"] += 1


def _count_model_bytes(counts, result, *args, **kwargs):
    path = args[-1] if args else kwargs["path"]
    counts["model_bytes"] += os.path.getsize(path)


def _count_output_bytes(counts, result, fh, *args, **kwargs):
    fh.flush()
    counts["output_bytes"] += os.fstat(fh.fileno()).st_size
