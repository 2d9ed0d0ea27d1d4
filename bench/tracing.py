"""Spans around the calls into graphgauge's layers, recorded from outside.

``Tracer.install`` replaces every public function of the seven modules
with a wrapper, in every module that holds a reference to it (so a name
imported with ``from .graphlat import build_hypercubic`` is wrapped in
``cli`` and ``sampler`` too), and wraps ``LatticeGraph.neighbor``.  A
wrapper records one span (name, start, end, parent) per call while the
tracer is active and calls straight through while it is not.  Spans stay
in memory, in compact ``array`` buffers, until the run ends.

A few wrappers also count work where it happens (links proposed and
accepted, plaquettes evaluated, field points per site), so per-layer
rates are taken at the layer that does the work.
"""

from __future__ import annotations

import functools
import inspect
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

_PENDING = object()  # passed to hooks as the result before the call

MODULES = ("liealg", "graphlat", "potential", "wilson", "baseline", "sampler", "cli")


def _span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__qualname__


class Tracer:
    def __init__(self, gg):
        self.gg = gg
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []
        self.active = False
        self.counters = defaultdict(float)
        self._patches: list = []
        self._graphs_with_tables = weakref.WeakSet()
        self._hooks = {
            "sampler.staple_sum": self._staple_hook,
            "sampler.metropolis_sweep": self._sweep_hook,
            "wilson.wilson_action": self._action_hook,
            "potential.flatness_residual": self._flatness_hook,
            "baseline.violation_4d_embedded": self._embedded_hook,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for modname in MODULES:
            mod = getattr(self.gg, modname)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("graphgauge."):
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, _span_name(obj))
                self._patch(mod, attr, wrapped[id(obj)])
        graph_cls = self.gg.graphlat.LatticeGraph
        neighbor = self._wrap(graph_cls.neighbor, "graphlat.LatticeGraph.neighbor")
        self._patch(graph_cls, "neighbor", neighbor)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            if hook is not None:
                args, kwargs = hook(args, kwargs, _PENDING, 0.0) or (args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def span(self, name: str):
        """Context manager for a benchmark-level span (set-up, one op)."""
        return _Span(self, self._name_id(name))

    # -- counting hooks: called before the call (result _PENDING) and after ----

    def _staple_hook(self, args, kwargs, result, dt):
        if result is _PENDING:
            return None
        g = args[1] if len(args) > 1 else kwargs["g"]
        if g in self._graphs_with_tables:
            self.counters["sampler.staple_calls"] += 1
            self.counters["sampler.staple_s"] += dt
        else:
            self._graphs_with_tables.add(g)
            self.counters["sampler.tables_s"] += dt
        return None

    def _sweep_hook(self, args, kwargs, result, dt):
        if result is _PENDING:
            return None
        su = (args[0] if args else kwargs["lf"]).su
        links = su.shape[0] * su.shape[1]
        self.counters["sampler.proposed"] += links
        self.counters["sampler.accepted"] += round(result[1] * links)
        return None

    def _action_hook(self, args, kwargs, result, dt):
        if result is not _PENDING:
            self.counters["wilson.plaquettes"] += result.n_plaquettes
        return None

    def _flatness_hook(self, args, kwargs, result, dt):
        if result is not _PENDING:
            self.counters["potential.plaquettes"] += len(result.residuals)
        return None

    def _embedded_hook(self, args, kwargs, result, dt):
        if result is not _PENDING:
            # Two lattices (rotated and aligned) of sites_per_axis^4 sites each.
            self.counters["baseline.sites"] += 2 * result.extras["sites_per_axis"] ** 4
            return None
        # The wrapper carries __wrapped__, so this is the original's signature.
        bound = inspect.signature(self.gg.baseline.violation_4d_embedded).bind(*args, **kwargs)
        field_fn = bound.arguments["field_fn"]
        counters = self.counters

        def counted(x):
            x = np.asarray(x)
            counters["baseline.field_points"] += x.size // x.shape[-1]
            return field_fn(x)

        bound.arguments["field_fn"] = counted
        return bound.args, bound.kwargs

    # -- analysis ---------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: call count, total seconds, and self seconds."""
        name = np.frombuffer(self.span_name, dtype=np.intc)
        parent = np.frombuffer(self.span_parent, dtype=np.intc)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
        k = len(self.names)
        count = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(count[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.intc),
            parent=np.frombuffer(self.span_parent, dtype=np.intc),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.t = tracer
        self.nid = nid

    def __enter__(self):
        t = self.t
        if not t.active:
            self.sid = None
            return self
        self.sid = len(t.span_name)
        t.span_name.append(self.nid)
        t.span_parent.append(t.stack[-1] if t.stack else -1)
        t.span_start.append(time.perf_counter())
        t.span_end.append(0.0)
        t.stack.append(self.sid)
        return self

    def __exit__(self, *exc):
        if self.sid is not None:
            self.t.stack.pop()
            self.t.span_end[self.sid] = time.perf_counter()
        return False


def _rate(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(agg: dict, counters: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from spans and counters."""

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def total(name):
        return agg.get(name, {}).get("total_s", 0.0)

    c = counters
    m = {
        "graphlat.build_s": total("graphlat.build_hypercubic"),
        "graphlat.neighbor_calls": calls("graphlat.LatticeGraph.neighbor"),
        "liealg.proposal_calls": calls("liealg.random_sun_near_identity"),
        "liealg.proposal_s": total("liealg.random_sun_near_identity"),
        "liealg.haar_calls": calls("liealg.haar_random_sun"),
        "liealg.haar_s": total("liealg.haar_random_sun"),
        "liealg.expm5_calls": calls("liealg.expm5"),
        "liealg.expm5_s": total("liealg.expm5"),
        "wilson.random_links_s": total("wilson.random_links"),
        "wilson.validate_links_s": total("wilson.validate_links"),
        "wilson.action_calls": calls("wilson.wilson_action"),
        "wilson.action_s": total("wilson.wilson_action"),
        "wilson.action_ns_per_plaquette": _rate(
            total("wilson.wilson_action"), c["wilson.plaquettes"], 1e9
        ),
        "wilson.local_gauge_s": total("wilson.local_gauge_links"),
        "sampler.tables_s": c["sampler.tables_s"],
        "sampler.sweep_s": total("sampler.metropolis_sweep"),
        "sampler.us_per_link": _rate(total("sampler.metropolis_sweep"), c["sampler.proposed"], 1e6),
        "sampler.staple_calls": int(c["sampler.staple_calls"]),
        "sampler.staple_s": c["sampler.staple_s"],
        "sampler.measure_s": total("sampler.average_plaquette"),
        "sampler.acceptance": _rate(c["sampler.accepted"], c["sampler.proposed"]),
        "sampler.accepted": int(c["sampler.accepted"]),
        "sampler.proposed": int(c["sampler.proposed"]),
        "potential.flatness_s": total("potential.flatness_residual"),
        "potential.flatness_us_per_plaquette": _rate(
            total("potential.flatness_residual"), c["potential.plaquettes"], 1e6
        ),
        "baseline.embedded_s": total("baseline.violation_4d_embedded"),
        "baseline.field_points_per_site": _rate(c["baseline.field_points"], c["baseline.sites"]),
        "cli.report_io_s": total("cli.write_report") + total("cli.load_report"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(v["self_s"] for k, v in agg.items() if k.startswith(mod + "."))
    return m


def coverage(agg: dict, expect: dict) -> list:
    """Failures of the coverage check: spans that should fire and did not, and the reverse."""
    out = []
    for name in expect["fires"]:
        if agg.get(name, {}).get("calls", 0) == 0:
            out.append(f"coverage: {name} never fired")
    for prefix in expect["silent"]:
        for name, v in agg.items():
            if name.startswith(prefix) and v["calls"] > 0:
                out.append(f"coverage: {name} fired {v['calls']} times, expected idle")
    return out
