"""Spans around the coarse public functions of each quadsemi layer.

Wrappers replace a function at every module attribute that holds it, so
callers inside the package (which bind names with ``from .x import f``)
reach the wrapper too.  Per-element functions such as ``evaluate`` or
``Field.mul`` are never wrapped: they run millions of times.  Spans stay
in memory; per-layer metrics are derived from them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function): the functions that get a span.
TRACED = [
    ("field", "make_field"),
    ("criterion", "reachable_subgraph"),
    ("criterion", "witness_word"),
    ("criterion", "word_irreducible"),
    ("criterion", "check_semigroup_irreducible"),
    ("criterion", "export_dot"),
    ("quadratic", "compose_word"),
    ("polys", "rabin_irreducible"),
    ("oracle", "crosscheck"),
    ("search", "census_pairs"),
    ("search", "verify_lemma_p7mod8"),
    ("search", "verify_prop_p3mod4"),
    ("cli", "main"),
]

# Span name -> (layer metric the span's self time adds to).
SELF_TIME = {
    "reachable_subgraph": "criterion.closure_s",
    "witness_word": "criterion.witness_s",
    "word_irreducible": "criterion.chain_s",
    "check_semigroup_irreducible": "criterion.decide_self_s",
    "export_dot": "criterion.export_dot_s",
    "compose_word": "quadratic.compose_word_s",
    "rabin_irreducible": "polys.rabin_s",
    "crosscheck": "oracle.self_s",
    "census_pairs": "search.self_s",
    "verify_lemma_p7mod8": "search.self_s",
    "verify_prop_p3mod4": "search.self_s",
    "main": "cli.self_s",
}

# Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "field.make_field_s": "s",
    "field.make_field_s.prime": "s",
    "field.make_field_s.table": "s",
    "field.make_field_s.digit": "s",
    "criterion.closure_s": "s",
    "criterion.closure_nodes": "count",
    "criterion.closure_edges": "count",
    "criterion.nodes_per_s": "1/s",
    "criterion.useful_node_ratio": "ratio",
    "criterion.witness_s": "s",
    "criterion.chain_s": "s",
    "criterion.first_square_depth": "steps",
    "criterion.decide_self_s": "s",
    "criterion.export_dot_s": "s",
    "search.self_s": "s",
    "quadratic.compose_word_s": "s",
    "polys.rabin_s": "s",
    "polys.rabin_calls": "count",
    "polys.rabin_cache_hits": "count",
    "polys.rabin_cache_misses": "count",
    "polys.dense_degree_sum": "count",
    "oracle.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}


def field_class(p: int, e: int) -> str:
    """prime, table (e > 1, q <= 1024) or digit (e > 1, q > 1024): the
    three construction paths of quadsemi.field at this benchmark's birth.
    """
    if e == 1:
        return "prime"
    return "table" if p**e <= 1024 else "digit"


class Tracer:
    """Records spans (name, start, end, parent, item) and exact counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = None
        self.counts = {
            "criterion.closure_nodes": 0,
            "criterion.closure_edges": 0,
            "useful_nodes": 0,
            "reducible_nodes": 0,
            "square_walks": 0,
            "square_depth_sum": 0,
            "polys.rabin_calls": 0,
            "polys.rabin_cache_hits": 0,
            "polys.rabin_cache_misses": 0,
            "polys.dense_degree_sum": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        """fn wrapped in a span; name is a label or a function of (args, kwargs)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else None, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self, package: str = "quadsemi") -> None:
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        observers = {
            "reachable_subgraph": self._observe_closure,
            "check_semigroup_irreducible": self._observe_verdict,
            "compose_word": self._observe_compose,
            "rabin_irreducible": self._observe_rabin,
        }
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
            name = _make_field_label if fn_name == "make_field" else fn_name
            wrapper = self._wrap(name, original, observers.get(fn_name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._restore):
            setattr(m, attr, value)
        self._restore.clear()

    # -- counts at the layer boundaries -------------------------------------

    def _observe_closure(self, args, graph) -> None:
        c = self.counts
        c["criterion.closure_nodes"] += len(graph.nodes)
        # one map evaluation, and one stored edge, per expanded source and
        # generator; sources are the seeds plus the nodes that are not seeds
        seeds = set(graph.seeds)
        sources = len(seeds) + len(graph.nodes) - len(seeds.intersection(graph.nodes))
        c["criterion.closure_edges"] += sources * len(args[0])

    def _observe_verdict(self, args, verdict) -> None:
        if verdict.irreducible:
            return
        c = self.counts
        graph = verdict.graph
        c["reducible_nodes"] += len(graph.nodes)
        if verdict.reason != "square_reachable":
            return  # a reducible generator needs no walk at all
        u, _, v = graph.first_square
        c["useful_nodes"] += graph.nodes.index(v) + 1
        depth, seeds = 1, set(graph.seeds)
        while u not in seeds:
            u = graph.parent[u][0]
            depth += 1
        c["square_walks"] += 1
        c["square_depth_sum"] += depth

    def _observe_compose(self, args, poly) -> None:
        self.counts["polys.dense_degree_sum"] += len(poly) - 1

    def _observe_rabin(self, args, result) -> None:
        self.counts["polys.rabin_calls"] += 1

    def collect_cache_stats(self) -> None:
        """Add the Rabin cache's hits and misses since its last clear."""
        cache = rabin_cache()
        if cache is not None:
            info = cache.cache_info()
            self.counts["polys.rabin_cache_hits"] += info.hits
            self.counts["polys.rabin_cache_misses"] += info.misses

    # -- derived metrics ------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {k: 0.0 for k, unit in LAYER_UNITS.items() if unit == "s"}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            if name.startswith("make_field"):
                # inclusive: set-up cost as a caller pays it, modulus search too
                out["field.make_field_s"] += end - start
                out["field.make_field_s." + name.split(":")[1]] += end - start
            else:
                out[SELF_TIME[name]] += end - start - inner
        c = self.counts
        out["criterion.closure_nodes"] = c["criterion.closure_nodes"]
        out["criterion.closure_edges"] = c["criterion.closure_edges"]
        out["criterion.nodes_per_s"] = (
            c["criterion.closure_nodes"] / out["criterion.closure_s"]
            if out["criterion.closure_s"]
            else 0.0
        )
        out["criterion.useful_node_ratio"] = (
            c["useful_nodes"] / c["reducible_nodes"] if c["reducible_nodes"] else 0.0
        )
        out["criterion.first_square_depth"] = (
            c["square_depth_sum"] / c["square_walks"] if c["square_walks"] else 0.0
        )
        for key in (
            "polys.rabin_calls",
            "polys.rabin_cache_hits",
            "polys.rabin_cache_misses",
            "polys.dense_degree_sum",
        ):
            out[key] = c[key]
        return out

    def write_spans(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, item."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def rabin_cache():
    """The process-lifetime cache behind rabin_irreducible, if any."""
    return getattr(sys.modules["quadsemi.polys"], "_rabin_cached", None)


def cold_cache() -> None:
    """Empty the Rabin cache, so the next item pays for it as a fresh
    process would.
    """
    cache = rabin_cache()
    if cache is not None:
        cache.cache_clear()


def _make_field_label(args, kwargs) -> str:
    p = args[0] if args else kwargs["p"]
    e = args[1] if len(args) > 1 else kwargs.get("e", 1)
    return "make_field:" + field_class(p, e)
