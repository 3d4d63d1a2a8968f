"""Spans and counters recorded at edgeind's module boundaries, from outside.

``install`` replaces each boundary name in the namespace where the caller
looks it up (``edgeind.search.canonical_form``, ``edgeind.kernels.count_ordered``,
...) with a wrapper that times the call.  Nothing under ``src/`` changes.

Calls made millions of times (canonical labelling, kernel calls, ledger
predicates) are *hot*: they are only aggregated, per layer boundary and per
enclosing recorded span, so a traced run stays tractable.  Every other
boundary call is kept as a span (name, start, end, parent, op) in memory and
written out as JSON lines when the run ends.  Self time of a call is its
duration minus the time covered by the boundary calls it made.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module whose namespace the caller uses, attribute, span name, hot)
BOUNDARIES = [
    ("edgeind.cli", "canonical_form", "canon.canonical_form", True),
    ("edgeind.search", "canonical_form", "canon.canonical_form", True),
    ("edgeind.canon", "canonical_form", "canon.canonical_form", True),
    ("edgeind.counting", "automorphism_order", "canon.automorphism_order", True),
    ("edgeind.blowups", "automorphism_order", "canon.automorphism_order", True),
    ("edgeind.entropy", "automorphism_order", "canon.automorphism_order", True),
    ("edgeind.cli", "count_induced", "counting.count_induced", True),
    ("edgeind.search", "count_induced", "counting.count_induced", True),
    ("edgeind.blowups", "count_induced", "counting.count_induced", True),
    ("edgeind.entropy", "alpha_extension_edges", "counting.alpha_extension_edges", True),
    ("edgeind.counting", "alpha_extension_edges", "counting.alpha_extension_edges", True),
    ("edgeind.entropy", "gamma_stats", "counting.gamma_stats", True),
    ("edgeind.kernels", "count_ordered", "kernels.count_ordered", True),
    ("edgeind.kernels", "enumerate_ordered", "kernels.enumerate_ordered", True),
    ("edgeind.cli", "blow_up", "blowups.blow_up", True),
    ("edgeind.search", "blow_up", "blowups.blow_up", True),
    ("edgeind.blowups", "blow_up", "blowups.blow_up", True),
    ("edgeind.cli", "optimize_part_sizes", "blowups.optimize_part_sizes", False),
    ("edgeind.search", "optimize_part_sizes", "blowups.optimize_part_sizes", False),
    ("edgeind.blowups", "optimize_part_sizes", "blowups.optimize_part_sizes", False),
    ("edgeind.cli", "bound_eval", "blowups.bound_eval", False),
    ("edgeind.search", "bound_eval", "blowups.bound_eval", False),
    ("edgeind.cli", "alpha_f", "fracind.alpha_f", True),
    ("edgeind.blowups", "alpha_f", "fracind.alpha_f", True),
    ("edgeind.cli", "optimal_weighting", "fracind.optimal_weighting", True),
    ("edgeind.blowups", "optimal_weighting", "fracind.optimal_weighting", True),
    ("edgeind.cli", "rho_exact", "search.rho_exact", False),
    ("edgeind.search", "rho_exact", "search.rho_exact", False),
    ("edgeind.cli", "verify_sandwich", "search.verify_sandwich", False),
    ("edgeind.search", "_level", "search.level", False),
    ("edgeind.search", "_children", "search.children", True),
    ("edgeind.search", "_scan", "search.scan", False),
    ("edgeind.search.ResultCache", "get", "search.cache.get", False),
    ("edgeind.search.ResultCache", "put", "search.cache.put", False),
    ("edgeind.entropy", "cycle_extension_ledger", "entropy.cycle_extension_ledger", True),
    ("edgeind.entropy", "induced_cycles", "entropy.induced_cycles", False),
    ("edgeind.entropy", "c6_hypergraph_check", "entropy.c6_hypergraph_check", False),
    ("edgeind.entropy", "verify_path_decomposition", "entropy.verify_path_decomposition", False),
    ("edgeind.entropy", "verify_chain_shearer", "entropy.verify_chain_shearer", False),
    ("edgeind.entropy", "full_tuple_identity", "entropy.full_tuple_identity", False),
]

# Sharded searches run ``_shard_worker`` in forked pool processes, which
# inherit the wrapped module; each task's aggregates go to a file that the
# parent merges after the op.  In the parent, the life of the pool (start,
# submit, waiting for the results, shut-down) is the span ``shards.wait``.
# It belongs to no layer: the work it waits for is in the workers' spans.
SHARD_WORKER = ("edgeind.search", "_shard_worker")
SHARD_POOL = ("edgeind.search", "ProcessPoolExecutor")


def _resolve(path):
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def _accumulate(table, name, calls, total, own):
    row = table.setdefault(name, [0, 0.0, 0.0])
    row[0] += calls
    row[1] += total
    row[2] += own


class Tracer:
    """Span stack plus per-name aggregates ``[calls, total_s, self_s]``.
    Sharded ops leave their workers' aggregates in ``shard_dir``."""

    def __init__(self, shard_dir):
        self.shard_dir = shard_dir
        self.reset()

    def reset(self):
        self.stack = []
        self.agg = {}
        self.spans = []
        self.counters = {"search.cache.hits": 0, "search.cache.misses": 0,
                         "search.classes_generated": 0}
        self.op = None
        self._next_id = 0

    def call(self, name, hot, fn, args, kwargs):
        span = self.begin(name, hot)
        try:
            return self._observe(name, fn(*args, **kwargs))
        finally:
            self.end(span)

    def begin(self, name, hot):
        frame = {"name": name, "hot": hot, "child": 0.0, "hot_calls": {}, "id": None}
        if not hot:
            self._next_id += 1
            frame["id"] = self._next_id
        frame["parent"] = self.stack[-1] if self.stack else None
        self.stack.append(frame)
        frame["start"] = time.perf_counter()
        return frame

    def end(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        name, parent = frame["name"], frame["parent"]
        elapsed = end - frame["start"]
        own = elapsed - frame["child"]
        _accumulate(self.agg, name, 1, elapsed, own)
        if parent is not None:
            parent["child"] += elapsed
        owner = next((f for f in reversed(self.stack) if f["id"] is not None), None)
        if frame["hot"]:
            if owner is not None:
                _accumulate(owner["hot_calls"], name, 1, elapsed, own)
        else:
            self.spans.append({
                "type": "span", "op": self.op, "id": frame["id"],
                "parent": owner["id"] if owner else None, "name": name,
                "start": frame["start"], "end": end, "self_s": own,
                "hot": {k: {"calls": c, "total_s": t, "self_s": s}
                        for k, (c, t, s) in sorted(frame["hot_calls"].items())},
            })

    def _observe(self, name, result):
        if name == "search.cache.get":
            key = "search.cache.misses" if result is None else "search.cache.hits"
            self.counters[key] += 1
        elif name == "search.children":
            self.counters["search.classes_generated"] += len(result)
        return result

    def run_op(self, op_name, fn):
        """Run one benchmark op as a top-level ``cli`` span."""
        self.op = op_name
        try:
            return self.call("cli", False, fn, (), {})
        finally:
            self.op = None

    def merge(self, payload):
        for name, row in payload["agg"].items():
            _accumulate(self.agg, name, *row)
        for key, value in payload["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.spans.extend(payload["spans"])

    def payload(self):
        return {"agg": self.agg, "counters": self.counters, "spans": self.spans}

    def merge_shard_files(self):
        if not os.path.isdir(self.shard_dir):
            return
        for entry in sorted(os.listdir(self.shard_dir)):
            path = os.path.join(self.shard_dir, entry)
            with open(path) as fh:
                self.merge(json.load(fh))
            os.remove(path)
        os.rmdir(self.shard_dir)


def install(tracer):
    """Wrap every boundary that exists in the imported program; returns the
    names of the boundaries found missing."""
    missing = []
    for owner_path, attr, name, hot in BOUNDARIES:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{owner_path}.{attr}")
            continue
        setattr(owner, attr, _wrap(tracer, name, hot, fn))
    owner = _resolve(SHARD_WORKER[0])
    fn = getattr(owner, SHARD_WORKER[1], None) if owner is not None else None
    if fn is not None:
        setattr(owner, SHARD_WORKER[1], _wrap_shard(tracer, fn))
    owner = _resolve(SHARD_POOL[0])
    cls = getattr(owner, SHARD_POOL[1], None) if owner is not None else None
    if cls is not None:
        setattr(owner, SHARD_POOL[1], _wrap_pool(tracer, cls))
    return missing


def _wrap(tracer, name, hot, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, hot, fn, args, kwargs)

    return wrapper


def _wrap_shard(tracer, fn):
    parent_pid = os.getpid()

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() == parent_pid:
            return fn(*args, **kwargs)
        op = tracer.op
        tracer.reset()
        tracer.op = op
        result = tracer.call("search.shard_worker", False, fn, args, kwargs)
        os.makedirs(tracer.shard_dir, exist_ok=True)
        path = os.path.join(tracer.shard_dir, f"shard-{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w") as fh:
            json.dump(tracer.payload(), fh)
        tracer.reset()
        return result

    return wrapper


def _wrap_pool(tracer, cls):
    class TracedPool(cls):
        def __enter__(self):
            self._span = tracer.begin("shards.wait", False)
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

    TracedPool.__name__ = cls.__name__
    return TracedPool
