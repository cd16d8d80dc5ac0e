"""Span tracing of one g2i process, and the per-layer metrics made from it.

Each traced function is replaced at the binding its caller looks up at call
time (``imaging.solve_gw``, not ``transport.solve_gw``, because ``imaging``
imported the name). A span records its name, start, end, parent span and
run id, plus what the function did (images scored, iterations, ...), so
every count is taken at the layer boundary where the work happens. Spans are
kept in memory and written out when the process ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import statistics
import sys
import time

STAGES = ("ingest", "cluster", "layout", "render", "train", "eval", "explain", "metrics")

# Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "graph.load_graph_calls", "graph.edges",
    "community.kmeans_calls", "community.kmeans_iters",
    "transport.solve_gw_calls", "transport.sinkhorn_calls", "transport.sinkhorn_fallbacks",
    "imaging.read_tensor_calls", "imaging.stacked_calls",
    "cnn.forward_calls", "cnn.forward_images",
    "cnn.loss_and_grad_calls", "cnn.train_images",
    "attribution.shapley_sample_calls", "attribution.coalitions",
)


def _stage_moves(stage):
    return f"run_s and peak_rss_mb on every workload: locates a change to the {stage} stage"


# (name, unit, better, which end-to-end metric it should move, on which workload).
# cli.<stage>_rss_mb is the process's peak RSS when the stage ends.
LAYER_METRICS = (
    *((f"cli.{s}_s", "s", "lower", _stage_moves(s)) for s in STAGES),
    *((f"cli.{s}_cpu_s", "s", "lower", _stage_moves(s)) for s in STAGES),
    *((f"cli.{s}_rss_mb", "MB", "lower", _stage_moves(s)) for s in STAGES),
    ("attribution.shapley_sample_s", "s", "lower", "run_s on sbm_ref"),
    ("attribution.shapley_sample_calls", "count", "lower", "run_s on sbm_ref"),
    ("attribution.coalitions", "count", "lower", "run_s on sbm_ref"),
    ("attribution.self_s", "s", "lower", "run_s on sbm_ref"),
    ("attribution.cluster_profiles_s", "s", "lower", "run_s on sbm_ref"),
    ("cnn.forward_s", "s", "lower", "run_s on sbm_ref"),
    ("cnn.forward_calls", "count", "lower", "run_s on sbm_ref"),
    ("cnn.forward_images", "count", "lower", "run_s on sbm_ref"),
    ("cnn.forward_us_per_image", "us", "lower", "run_s on sbm_ref"),
    ("transport.solve_gw_s", "s", "lower", "run_s on wide_features, a little on sbm_ref"),
    ("transport.solve_gw_calls", "count", "lower", "run_s on wide_features"),
    ("transport.gw_converged_frac", "frac", "higher", "run_s on wide_features"),
    ("transport.resolve_assignment_s", "s", "lower", "run_s on wide_features"),
    ("imaging.build_feature_layout_s", "s", "lower", "run_s on wide_features"),
    ("imaging.build_structural_layout_s", "s", "lower", "run_s on wide_features, sbm_ref"),
    ("transport.sinkhorn_calls", "count", "lower", "run_s on many_nodes; 0 elsewhere"),
    ("transport.sinkhorn_fallbacks", "count", "lower", "run_s on many_nodes"),
    ("transport.sinkhorn_ok_frac", "frac", "higher", "run_s on many_nodes"),
    ("cnn.loss_and_grad_s", "s", "lower", "run_s on many_nodes, and on sbm_ref"),
    ("cnn.loss_and_grad_calls", "count", "lower", "run_s on many_nodes"),
    ("cnn.train_images", "count", "lower", "run_s on many_nodes"),
    ("metrics.score_embedding_s", "s", "lower", "run_s and peak_rss_mb on many_nodes"),
    ("metrics.silhouette_s", "s", "lower", "run_s and peak_rss_mb on many_nodes"),
    ("metrics.ari", "1", "higher", "none: a pure speed change leaves it unchanged"),
    ("community.kmeans_s", "s", "lower", "run_s and peak_rss_mb on many_nodes"),
    ("community.kmeans_calls", "count", "lower", "run_s on many_nodes"),
    ("community.kmeans_iters", "count", "lower", "run_s on many_nodes"),
    ("graph.load_graph_s", "s", "lower", "run_s and peak_rss_mb on many_nodes"),
    ("graph.load_graph_calls", "count", "lower", "run_s on many_nodes"),
    ("graph.edges", "count", "lower", "none: a property of the input"),
    ("graph.write_graph_s", "s", "lower", "run_s on many_nodes"),
    ("imaging.render_all_s", "s", "lower", "run_s on many_nodes"),
    ("imaging.write_tensor_s", "s", "lower", "run_s on many_nodes"),
    ("imaging.read_tensor_s", "s", "lower", "run_s on many_nodes"),
    ("imaging.read_tensor_calls", "count", "lower", "run_s on many_nodes"),
    ("imaging.stacked_s", "s", "lower", "run_s on many_nodes"),
    ("imaging.stacked_calls", "count", "lower", "run_s on many_nodes"),
    ("imaging.tensor_bytes", "bytes", "lower", "run_s on many_nodes"),
    ("bench.trace_overhead_s", "s", "lower", "none: traced minus untraced run_s"),
)


class Tracer:
    """Records spans of the calls it wraps; one tracer per process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def wrap(self, name, fn, describe=None):
        """``fn`` recorded as span ``name`` (or ``name(*args)`` when callable);
        ``describe(span, bound_args, result)`` adds what the call did. A call
        that raises keeps its exception name."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name(*args) if callable(name) else name,
                    "run": self.run_id, "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            cpu = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.process_time() - cpu
                self._open.pop()
            if describe is not None:
                try:
                    describe(span, signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError) as exc:
                    # a later signature change must not break the traced run
                    span["describe_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self):
        """Wrap every traced binding of the imported ``g2i`` package. A binding
        that is missing is reported and skipped, and its metrics read 0."""
        from g2i import attribution, cli, cnn, community, imaging, metrics, transport

        targets = [
            (cli, "_run_stage", lambda stage, *_: f"cli.{stage}", _describe_stage),
            (cli, "load_graph", "graph.load_graph", _describe_graph),
            (cli, "write_graph", "graph.write_graph", None),
            (community, "kmeans", "community.kmeans", _describe_kmeans),
            (metrics, "score_embedding", "metrics.score_embedding", _describe_scores),
            (metrics, "silhouette", "metrics.silhouette", None),
            (imaging, "build_feature_layout", "imaging.build_feature_layout", None),
            (imaging, "build_structural_layout", "imaging.build_structural_layout", None),
            (imaging, "solve_gw", "transport.solve_gw", _describe_plan),
            (imaging, "resolve_assignment", "transport.resolve_assignment", None),
            (transport, "sinkhorn", "transport.sinkhorn", None),
            (imaging, "render_all", "imaging.render_all", None),
            (imaging, "write_tensor", "imaging.write_tensor", _describe_tensor_file),
            (imaging, "read_tensor", "imaging.read_tensor", None),
            (getattr(imaging, "ImageSet", None), "stacked", "imaging.stacked", None),
            (cnn, "forward", "cnn.forward", _describe_batch("batch")),
            (cnn, "loss_and_grad", "cnn.loss_and_grad", _describe_batch("labels")),
            (attribution, "class_global_importance", "attribution.class_global_importance", None),
            (attribution, "shapley_sample", "attribution.shapley_sample", _describe_shapley),
            (attribution, "cluster_profiles", "attribution.cluster_profiles", None),
        ]
        for owner, attr, name, describe in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"trace: binding {attr!r} is missing; its metrics read 0", file=sys.stderr)
                continue
            setattr(owner, attr, self.wrap(name, fn, describe))


def _describe_stage(span, args, result):
    span["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _describe_graph(span, args, graph):
    import numpy as np

    span["edges"] = int(np.count_nonzero(graph.adjacency)) // 2


def _describe_kmeans(span, args, result):
    span["iters"] = len(result[2])


def _describe_scores(span, args, scores):
    span["ari"] = float(scores.ari)


def _describe_plan(span, args, plan):
    span["converged"] = bool(plan.converged)


def _describe_tensor_file(span, args, result):
    span["bytes"] = os.path.getsize(args["path"])


def _describe_batch(arg):
    def describe(span, args, result):
        span["images"] = len(args[arg])
    return describe


def _describe_shapley(span, args, result):
    span["expected_coalitions"] = int(args["M"]) * (len(list(args["players"])) + 1)


# --- per-layer metrics from the spans of one traced run ---

def _dur(span):
    return span["end"] - span["start"]


def _ancestors(span, by_id):
    parent = span["parent"]
    while parent is not None:
        yield by_id[parent]
        parent = by_id[parent]["parent"]


def layer_metrics(spans):
    """Per-layer metrics of one traced run (every name in LAYER_METRICS except
    ``bench.trace_overhead_s``, which compares runs). Raises ValueError when
    the images scored inside Shapley sampling differ from
    calls x permutations x (players + 1)."""
    by_name, children = {}, {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)
    by_id = {s["id"]: s for s in spans}

    def total(name):
        return sum(_dur(s) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def field_sum(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    m = {}
    for stage in STAGES:
        runs = by_name.get(f"cli.{stage}", ())
        m[f"cli.{stage}_s"] = sum(_dur(s) for s in runs)
        m[f"cli.{stage}_cpu_s"] = sum(s.get("cpu_s", 0.0) for s in runs)
        m[f"cli.{stage}_rss_mb"] = max((s.get("rss_mb", 0.0) for s in runs), default=0.0)

    forward_in_shapley = sum(
        s.get("images", 0) for s in by_name.get("cnn.forward", ())
        if any(a["name"] == "attribution.shapley_sample" for a in _ancestors(s, by_id))
    )
    expected = field_sum("attribution.shapley_sample", "expected_coalitions")
    if forward_in_shapley != expected:
        raise ValueError(f"attribution.coalitions is {forward_in_shapley}, but shapley calls x "
                         f"permutations x (players + 1) is {expected}")
    m["attribution.shapley_sample_s"] = total("attribution.shapley_sample")
    m["attribution.shapley_sample_calls"] = calls("attribution.shapley_sample")
    m["attribution.coalitions"] = forward_in_shapley
    m["attribution.self_s"] = sum(
        _dur(s) - sum(_dur(c) for c in children.get(s["id"], ()))
        for s in spans if s["name"].startswith("attribution.")
    )
    m["attribution.cluster_profiles_s"] = total("attribution.cluster_profiles")

    m["cnn.forward_s"] = total("cnn.forward")
    m["cnn.forward_calls"] = calls("cnn.forward")
    m["cnn.forward_images"] = field_sum("cnn.forward", "images")
    m["cnn.forward_us_per_image"] = (
        1e6 * m["cnn.forward_s"] / m["cnn.forward_images"] if m["cnn.forward_images"] else 0.0
    )

    gw = by_name.get("transport.solve_gw", ())
    m["transport.solve_gw_s"] = total("transport.solve_gw")
    m["transport.solve_gw_calls"] = len(gw)
    m["transport.gw_converged_frac"] = (
        sum(s.get("converged", False) for s in gw) / len(gw) if gw else 1.0
    )
    m["transport.resolve_assignment_s"] = total("transport.resolve_assignment")
    m["imaging.build_feature_layout_s"] = total("imaging.build_feature_layout")
    m["imaging.build_structural_layout_s"] = total("imaging.build_structural_layout")

    sinkhorn = by_name.get("transport.sinkhorn", ())
    fallbacks = sum("error" in s for s in sinkhorn)
    m["transport.sinkhorn_calls"] = len(sinkhorn)
    m["transport.sinkhorn_fallbacks"] = fallbacks
    # with no call, no call failed
    m["transport.sinkhorn_ok_frac"] = (len(sinkhorn) - fallbacks) / len(sinkhorn) if sinkhorn else 1.0

    m["cnn.loss_and_grad_s"] = total("cnn.loss_and_grad")
    m["cnn.loss_and_grad_calls"] = calls("cnn.loss_and_grad")
    m["cnn.train_images"] = field_sum("cnn.loss_and_grad", "images")

    m["metrics.score_embedding_s"] = total("metrics.score_embedding")
    m["metrics.silhouette_s"] = total("metrics.silhouette")
    m["metrics.ari"] = max((s.get("ari", 0.0) for s in by_name.get("metrics.score_embedding", ())),
                           default=0.0)
    m["community.kmeans_s"] = total("community.kmeans")
    m["community.kmeans_calls"] = calls("community.kmeans")
    m["community.kmeans_iters"] = field_sum("community.kmeans", "iters")
    m["graph.load_graph_s"] = total("graph.load_graph")
    m["graph.load_graph_calls"] = calls("graph.load_graph")
    m["graph.edges"] = max((s.get("edges", 0) for s in by_name.get("graph.load_graph", ())), default=0)
    m["graph.write_graph_s"] = total("graph.write_graph")

    m["imaging.render_all_s"] = total("imaging.render_all")
    m["imaging.write_tensor_s"] = total("imaging.write_tensor")
    m["imaging.read_tensor_s"] = total("imaging.read_tensor")
    m["imaging.read_tensor_calls"] = calls("imaging.read_tensor")
    m["imaging.stacked_s"] = total("imaging.stacked")
    m["imaging.stacked_calls"] = calls("imaging.stacked")
    m["imaging.tensor_bytes"] = field_sum("imaging.write_tensor", "bytes")
    return m


def combine_runs(per_run, traced_run_s, untraced_run_s):
    """Per-layer metrics over several traced runs of one seed: the median of
    each timing and the count itself, which must repeat exactly. Returns
    (metrics, problems)."""
    problems = []
    for name in EXACT_COUNTS:
        values = {m[name] for m in per_run}
        if len(values) > 1:
            problems.append(f"count {name} differs across runs of one seed: {sorted(values)}")
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    for name in EXACT_COUNTS:
        out[name] = per_run[0][name]
    out["bench.trace_overhead_s"] = statistics.median(traced_run_s) - statistics.median(untraced_run_s)
    return out, problems
