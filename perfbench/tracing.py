"""Spans and counts around srrw_lab's layer entry points.

``install`` replaces module attributes that ``runner`` and ``metrics`` look
up at call time, so no file under ``src/`` changes and the wrapped
functions compute exactly what they computed before.  Spans are kept in
memory as ``[id, name, start, end, parent, thread]`` lists and returned to
the caller at the end of the pass.

``layer_metrics`` turns one pass's spans into per-layer numbers.  Times are
shares of wall time: an interval during which k spans are busy, none of
them an ancestor of another, gives dt/k to each.  The shares of all spans
under the ``runner.run`` roots therefore add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import threading
import time
from collections import Counter

import numpy as np

# span name -> per-layer time metric receiving its share of wall time
LAYER_TIME = {
    "runner.run": "runner.other_s",
    "metrics.estimator": "metrics.reduce_s",
    "forest.evolve": "forest.evolve_self_s",
    "streams.rng": "streams.rng_s",
    "metrics.collect": "metrics.collect_s",
    "metrics.weight_chain": "metrics.weight_chain_s",
    "oracle.exact": "oracle.exact_s",
    "evolving.profile": "evolving.profile_s",
}

MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.curves: list[dict] = []  # one record per estimator call
        self.peaks: Counter = Counter()
        self.evolve_cpu: dict[int, float] = {}  # evolve span id -> thread CPU seconds
        self._live_state = 0
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(tid, [])
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and threading.get_ident() != self._main:
            # pool workers run on behalf of the span the main thread is in
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        rec = [0, name, 0.0, 0.0, parent, threading.get_ident()]
        with self._lock:
            rec[0] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec[0])
        rec[2] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            stack.pop()

    def add(self, name: str, value=1):
        with self._lock:
            self.counts[name] += value

    def peak(self, name: str, value: float):
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    def live_state(self, delta: int):
        with self._lock:
            self._live_state += delta
            self.peaks["forest.state_mb"] = max(
                self.peaks["forest.state_mb"], self._live_state / MIB
            )


class _TimedGenerator:
    """Generator proxy timing the two draw methods the forest evolution uses."""

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def _draw(self, method, args, kwargs):
        with self._tracer.span("streams.rng"):
            out = method(*args, **kwargs)
        self._tracer.add("streams.variates", int(np.size(out)))
        return out

    def random(self, *args, **kwargs):
        return self._draw(self._gen.random, args, kwargs)

    def integers(self, *args, **kwargs):
        return self._draw(self._gen.integers, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function that restores them."""
    from srrw_lab import metrics, oracle, runner

    saved = []

    def patch(module, name, make):
        orig = getattr(module, name)
        saved.append((module, name, orig))
        setattr(module, name, functools.wraps(orig)(make(orig)))

    def stream(orig):
        def wrapped(*args, **kwargs):
            return _TimedGenerator(orig(*args, **kwargs), tracer)

        return wrapped

    def evolve(orig):
        def wrapped(*args, **kwargs):
            a = _bound(orig, args, kwargs)
            count, horizon = int(a["count"]), int(np.asarray(a["grid"])[-1])
            collect = a["collect"]

            def timed_collect(gi, t, histo):
                with tracer.span("metrics.collect"):
                    collect(gi, t, histo)
                tracer.add("metrics.collect_calls")

            # labels and sizes are int32 (count, horizon+1); histo is int64
            state = 8 * count * (horizon + 1) + 8 * count * int(a["modulus"])
            a["collect"] = timed_collect
            tracer.live_state(state)
            cpu0 = time.thread_time()
            try:
                with tracer.span("forest.evolve") as rec:
                    out = orig(**a)
            finally:
                tracer.live_state(-state)
            tracer.evolve_cpu[rec[0]] = time.thread_time() - cpu0
            tracer.add("forest.replica_steps", count * horizon)
            return out

        return wrapped

    def estimator(orig):
        def wrapped(*args, **kwargs):
            a = _bound(orig, args, kwargs)
            with tracer.span("metrics.estimator") as rec:
                curve = orig(*args, **kwargs)
            tracer.curves.append(
                {
                    "span": rec[0],
                    "estimator": orig.__name__,
                    "size": int(a.get("L", a.get("d", 0))),
                    "alpha": float(a["alpha"]),
                    "seed": int(a["master_seed"]),
                    "replicas": int(a["replicas"]),
                    "horizon": int(np.asarray(a["grid"])[-1]),
                    "threads": max(1, int(a["threads"] or 1)),
                }
            )
            return curve

        return wrapped

    def weight_chain(orig):
        def wrapped(*args, **kwargs):
            with tracer.span("metrics.weight_chain"):
                table = orig(*args, **kwargs)
            tracer.peak("metrics.weight_chain_mb", table.nbytes / MIB)
            return table

        return wrapped

    def mixing(orig):
        def wrapped(*args, **kwargs):
            run = orig(*args, **kwargs)
            tracer.add("metrics.horizon_doublings", len(run.horizons_tried) - 1)
            return run

        return wrapped

    def exact(orig):
        def wrapped(*args, **kwargs):
            n = int(_bound(orig, args, kwargs)["n"])
            with tracer.span("oracle.exact"):
                out = orig(*args, **kwargs)
            tracer.add("oracle.configs", 2 ** (n - 1) * math.factorial(n - 1))
            return out

        return wrapped

    def profile(orig):
        def wrapped(*args, **kwargs):
            a = _bound(orig, args, kwargs)
            with tracer.span("evolving.profile"):
                out = orig(*args, **kwargs)
            if a["mode"] == "exhaustive":
                tracer.add("evolving.subsets", (1 << a["group"].order) - 1)
            return out

        return wrapped

    patch(metrics, "stream", stream)
    patch(metrics, "evolve_size_histograms", evolve)
    patch(metrics, "rao_blackwell_cycle_curve", estimator)
    patch(metrics, "hypercube_tv_curve", estimator)
    patch(metrics, "hypercube_weight_chain_table", weight_chain)
    patch(metrics, "cycle_mixing_time", mixing)
    patch(metrics, "hypercube_mixing_time", mixing)
    patch(oracle, "exact_endpoint_distribution", exact)
    patch(runner, "iso_profile", profile)

    def restore():
        for module, name, orig in reversed(saved):
            setattr(module, name, orig)

    return restore


def wall_shares(spans: list[list]) -> list[float]:
    """Each span's share of wall time (see the module docstring)."""
    events = []
    for sid, _name, start, end, _parent, _thread in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    share = [0.0] * len(spans)
    busy_children = [0] * len(spans)
    active: set[int] = set()
    leaves: set[int] = set()
    last = None
    for t, starting, sid in events:
        if leaves:
            dt = (t - last) / len(leaves)
            for s in leaves:
                share[s] += dt
        last = t
        parent = spans[sid][4]
        if starting:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                busy_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                busy_children[parent] -= 1
                if busy_children[parent] == 0:
                    leaves.add(parent)
    return share


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass (0 where a layer did no work)."""
    spans = tracer.spans
    share = wall_shares(spans)
    out = {metric: 0.0 for metric in LAYER_TIME.values()}
    for rec, s in zip(spans, share):
        out[LAYER_TIME[rec[1]]] += s
    out["trace.wall_s"] = sum(r[3] - r[2] for r in spans if r[1] == "runner.run")

    c = tracer.counts
    steps = c["forest.replica_steps"]
    out["streams.variates"] = c["streams.variates"]
    out["forest.replica_steps"] = steps
    out["forest.ns_per_replica_step"] = 1e9 * _ratio(out["forest.evolve_self_s"], steps)
    out["forest.state_mb"] = tracer.peaks["forest.state_mb"]
    out["metrics.collect_calls"] = c["metrics.collect_calls"]
    out["metrics.weight_chain_mb"] = tracer.peaks["metrics.weight_chain_mb"]
    out["metrics.curves_built"] = len(tracer.curves)
    out["metrics.horizon_doublings"] = c["metrics.horizon_doublings"]
    out["oracle.configs"] = c["oracle.configs"]
    out["oracle.configs_per_s"] = _ratio(c["oracle.configs"], out["oracle.exact_s"])
    out["evolving.subsets"] = c["evolving.subsets"]
    out["evolving.subsets_per_s"] = _ratio(c["evolving.subsets"], out["evolving.profile_s"])

    # one curve per (estimator, size, alpha, seed, replicas) evolved to the
    # longest horizon asked for would serve every scan of that key
    needed: dict[tuple, int] = {}
    for cv in tracer.curves:
        key = (cv["estimator"], cv["size"], cv["alpha"], cv["seed"], cv["replicas"])
        needed[key] = max(needed.get(key, 0), cv["replicas"] * cv["horizon"])
    out["metrics.useful_step_frac"] = _ratio(sum(needed.values()), steps)

    # evolve CPU time (not wall: a thread waiting on the GIL is not busy)
    # over threads x the interval the chunks ran in
    evolves: dict[int, list] = {}
    for rec in spans:
        if rec[1] == "forest.evolve":
            evolves.setdefault(rec[4], []).append(rec)
    busy = capacity = 0.0
    for cv in tracer.curves:
        kids = evolves.get(cv["span"])
        if kids:
            busy += sum(tracer.evolve_cpu[r[0]] for r in kids)
            span = max(r[3] for r in kids) - min(r[2] for r in kids)
            capacity += cv["threads"] * span
    out["metrics.parallel_eff"] = _ratio(busy, capacity)
    return out
