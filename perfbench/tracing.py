"""Span tracing of locmodel's layers from outside the package.

``install`` replaces each public function of weyl, admissible, latmod,
linalg, matschemes and cli (plus ``linalg._rref`` and
``linalg.Subspace.leq``) by a wrapper, wherever the function's name is
bound: in its own module, in every module that imported it by name, and
in module-level dispatch dicts such as ``cli._RUNNERS``.  Nothing under
``src/`` changes.

Every call opens a frame on one stack.  On exit its duration is added to
its name's total and, minus the time its child frames covered, to its
self time, so self times partition the traced interval.  A generator
function is timed over each resumption, and its yields are counted.
Spans (id, parent id, name, start, end) are kept in memory for every
plain call except the per-element kernels in ``AGGREGATE_ONLY``, whose
millions of calls are only summed; the parent id is that of the nearest
recorded ancestor.  ``Tracer.dump`` writes everything at the end.
"""

from __future__ import annotations

import collections
import inspect
import itertools
import json
import time

LAYERS = ("weyl", "admissible", "latmod", "linalg", "matschemes", "cli")

# Called once per group element, subspace or matrix: summed, not recorded.
AGGREGATE_ONLY = frozenset(
    {
        "weyl.length",
        "weyl.kappa",
        "weyl.translation",
        "weyl.identity",
        "weyl.finite",
        "weyl.simple_reflection",
        "weyl.coset_min",
        "weyl.parahoric_generators",
        "weyl.bruhat_leq",
        "weyl.solve_exact",
        "admissible.conv_membership",
        "linalg.rref",
        "linalg.rank",
        "linalg.leq",
        "linalg.meet",
        "linalg.join",
        "linalg.image",
        "linalg.preimage",
        "linalg.perp",
        "linalg.stable_under",
        "linalg.gaussian_binomial",
        "latmod.has_splitting_flag",
        "latmod.signature",
        "latmod.standard_point",
    }
)


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [start, child_seconds, recorded ancestor id]
        self.stats = {}  # name -> [calls, total_seconds, self_seconds]
        self.counters = collections.Counter()
        self.spans = []  # (id, parent_id, name, start, end)
        self._ids = itertools.count(1)

    def wrap(self, name, fn, hook=None):
        """A traced stand-in for fn; hook(counters, args, result) counts work."""
        stack, spans, ids, counters = self.stack, self.spans, self._ids, self.counters
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        record = name not in AGGREGATE_ONLY

        def close(frame, end):
            stack.pop()
            dur = end - frame[0]
            stat[1] += dur
            stat[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur

        if inspect.isgeneratorfunction(fn):
            yielded = name + ".yielded"

            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                stat[0] += 1
                try:
                    while True:
                        frame = [clock(), 0.0, stack[-1][2] if stack else 0]
                        stack.append(frame)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close(frame, clock())
                        counters[yielded] += 1
                        yield item
                finally:
                    inner.close()

            return traced_gen

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else 0
            frame = [clock(), 0.0, next(ids) if record else parent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                close(frame, end)
                stat[0] += 1
                if record:
                    spans.append((frame[2], parent, name, frame[0], end))
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "stats": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in sorted(self.stats.items())},
                    "counters": dict(sorted(self.counters.items())),
                    "span_fields": ["id", "parent", "name", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )


def install(tracer):
    """Wrap the layers' public functions in place; returns the tracer."""
    import importlib

    modules = {layer: importlib.import_module(f"locmodel.{layer}") for layer in LAYERS}
    weyl, linalg = modules["weyl"], modules["linalg"]
    length = weyl.length

    def downset(counters, args, result):
        counters["weyl.enumerate_below.subwords"] += 2 ** length(args[0])
        counters["weyl.enumerate_below.elements"] += len(result)

    def stable(counters, args, result):
        counters["linalg.stable_under.true"] += bool(result)

    def scanned(counters, args, result):
        n, _, _, p = args[:4]
        counters["matschemes.unitary_direct.matrices"] += p ** (n * (n + 1) // 2)

    hooks = {
        "weyl.enumerate_below": downset,
        "linalg.stable_under": stable,
        "matschemes.unitary_points_direct": scanned,
    }
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or (layer, attr) == ("linalg", "_rref")
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr.lstrip('_')}"
                wrapped[obj] = tracer.wrap(name, obj, hooks.get(name))
    linalg.Subspace.leq = tracer.wrap("linalg.leq", linalg.Subspace.leq)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
    return tracer


def _stat(stats, name, field):
    calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
    return {"calls": calls, "total_s": total, "self_s": self_s}[field]


def _ratio(num, den):
    return num / den if den else 0.0


# (metric name, unit, how to read it from (stats, counters))
PER_LAYER = [
    ("weyl.length.calls", "count", lambda s, c: _stat(s, "weyl.length", "calls")),
    ("weyl.length.self_s", "s", lambda s, c: _stat(s, "weyl.length", "self_s")),
    ("weyl.enumerate_below.self_s", "s", lambda s, c: _stat(s, "weyl.enumerate_below", "self_s")),
    ("weyl.enumerate_below.subwords", "count", lambda s, c: c["weyl.enumerate_below.subwords"]),
    ("weyl.enumerate_below.elements", "count", lambda s, c: c["weyl.enumerate_below.elements"]),
    ("weyl.downset_yield", "ratio", lambda s, c: _ratio(c["weyl.enumerate_below.elements"], c["weyl.enumerate_below.subwords"])),
    ("weyl.coset_min.calls", "count", lambda s, c: _stat(s, "weyl.coset_min", "calls")),
    ("weyl.coset_min.self_s", "s", lambda s, c: _stat(s, "weyl.coset_min", "self_s")),
    ("weyl.elements_of_length_leq.self_s", "s", lambda s, c: _stat(s, "weyl.elements_of_length_leq", "self_s")),
    ("weyl.solve_exact.calls", "count", lambda s, c: _stat(s, "weyl.solve_exact", "calls")),
    ("weyl.solve_exact.self_s", "s", lambda s, c: _stat(s, "weyl.solve_exact", "self_s")),
    ("weyl.reduced_word.self_s", "s", lambda s, c: _stat(s, "weyl.reduced_word", "self_s")),
    ("admissible.adm_set.calls", "count", lambda s, c: _stat(s, "admissible.adm_set", "calls")),
    ("admissible.adm_set.self_s", "s", lambda s, c: _stat(s, "admissible.adm_set", "self_s")),
    ("admissible.perm_set.self_s", "s", lambda s, c: _stat(s, "admissible.perm_set", "self_s")),
    ("admissible.conv_membership.calls", "count", lambda s, c: _stat(s, "admissible.conv_membership", "calls")),
    ("admissible.conv_membership.self_s", "s", lambda s, c: _stat(s, "admissible.conv_membership", "self_s")),
    ("admissible.stratum_count.self_s", "s", lambda s, c: _stat(s, "admissible.stratum_count", "self_s")),
    ("latmod.build_model.self_s", "s", lambda s, c: _stat(s, "latmod.build_model", "self_s")),
    ("latmod.naive_points.self_s", "s", lambda s, c: _stat(s, "latmod.naive_points", "self_s")),
    ("latmod.naive_points.yielded", "count", lambda s, c: c["latmod.naive_points.yielded"]),
    ("latmod.has_splitting_flag.calls", "count", lambda s, c: _stat(s, "latmod.has_splitting_flag", "calls")),
    ("latmod.has_splitting_flag.self_s", "s", lambda s, c: _stat(s, "latmod.has_splitting_flag", "self_s")),
    ("latmod.splitting_points.yielded", "count", lambda s, c: c["latmod.splitting_points.yielded"]),
    ("latmod.unramified_points.self_s", "s", lambda s, c: _stat(s, "latmod.unramified_points", "self_s")),
    ("latmod.classify_strata.self_s", "s", lambda s, c: _stat(s, "latmod.classify_strata", "self_s")),
    ("latmod.signature.calls", "count", lambda s, c: _stat(s, "latmod.signature", "calls")),
    ("latmod.signature.self_s", "s", lambda s, c: _stat(s, "latmod.signature", "self_s")),
    ("latmod.stable_yield", "ratio", lambda s, c: _ratio(c["linalg.stable_under.true"], _stat(s, "linalg.stable_under", "calls"))),
    ("linalg.rref.calls", "count", lambda s, c: _stat(s, "linalg.rref", "calls")),
    ("linalg.rref.self_s", "s", lambda s, c: _stat(s, "linalg.rref", "self_s")),
    ("linalg.enumerate_subspaces.yielded", "count", lambda s, c: c["linalg.enumerate_subspaces.yielded"]),
    ("linalg.subspaces_between.yielded", "count", lambda s, c: c["linalg.subspaces_between.yielded"]),
    ("linalg.leq.calls", "count", lambda s, c: _stat(s, "linalg.leq", "calls")),
    ("linalg.image.calls", "count", lambda s, c: _stat(s, "linalg.image", "calls")),
    ("linalg.meet.calls", "count", lambda s, c: _stat(s, "linalg.meet", "calls")),
    ("linalg.perp.calls", "count", lambda s, c: _stat(s, "linalg.perp", "calls")),
    ("matschemes.unitary_points_direct.self_s", "s", lambda s, c: _stat(s, "matschemes.unitary_points_direct", "self_s")),
    ("matschemes.unitary_direct.matrices", "count", lambda s, c: c["matschemes.unitary_direct.matrices"]),
    (
        "matschemes.unitary_direct.rate",
        "1/s",
        lambda s, c: _ratio(c["matschemes.unitary_direct.matrices"], _stat(s, "matschemes.unitary_points_direct", "total_s")),
    ),
    ("matschemes.unitary_points_stratified.self_s", "s", lambda s, c: _stat(s, "matschemes.unitary_points_stratified", "self_s")),
    ("matschemes.symplectic_P_points.self_s", "s", lambda s, c: _stat(s, "matschemes.symplectic_P_points", "self_s")),
    ("cli.cases", "count", lambda s, c: _stat(s, "cli.main", "calls")),
    ("cli.self_s", "s", lambda s, c: sum(v[2] for k, v in s.items() if k.startswith("cli."))),
]


def layer_metrics(stats, counters):
    counters = collections.Counter(counters)
    return {name: (read(stats, counters), unit) for name, unit, read in PER_LAYER}
