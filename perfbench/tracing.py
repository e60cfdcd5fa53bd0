"""Spans around the public functions of mechlift's modules.

The wrappers are installed from outside the package, so nothing under
``src/`` changes.  Wrapped are the public functions of ``geometry``,
``discretization``, ``mechanics``, ``linearizability``, ``integrators``
and ``cli``, a few private stages that are layers of their own (the
Newton solve, the extended-precision refinement, CSV and summary
output), the listed class methods, and ``numpy.linalg.solve``.  A
function that another module binds by value (``from .geometry import
float_array``) is replaced in every module that binds it, so each call
site goes through the wrapper.  Names a later version drops are skipped.

Every wrapped call is a span with a name, a start, an end and a parent
span.  The pendulum loop makes thousands of wrapped calls per step, so
a span is folded into a per-(parent, name) aggregate when it closes:
calls, total time and self time, which is the span's duration minus
the time covered by its child spans.  Operation spans, one per
benchmark operation, are kept whole.  Callables stored on a system
object (a pendulum's drift, a feedback gain) have no span of their
own; their time counts toward the span that calls them.
"""

import importlib
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("geometry", "discretization", "mechanics", "linearizability",
           "integrators", "cli")
PRIVATE = {
    "integrators": ("_damped_newton", "_refine_step"),
    "cli": ("_write_csv", "_write_summary"),
}
METHODS = {
    "geometry": {"Rotation": ("__init__",)},
    "discretization": {
        "DiscretizationMap": ("forward", "inverse", "jacobian"),
        "Diffeomorphism": ("forward", "inverse", "jacobian", "second_deriv"),
    },
    "mechanics": {
        "MFTransform": ("push_state",),
        "LinearMechanicalSystem": ("stacked", "as_mechanical_system"),
        "RigidBodySystem": ("exp_chart_system", "exp_chart_transform",
                            "to_chart", "from_chart"),
    },
}
# DiscretizationMap spans carry the map's layer: the tangent lift, the
# chart-transported map, or a built-in base map
_MAP_LAYER = {"tangent-lift": "tangent-lift", "lifted": "lifted"}


class Tracer:
    """In-memory span aggregates and counters for one process."""

    def __init__(self):
        self.enabled = False
        self.stack = []
        self.edges = {}
        self.counters = {}
        self.ops = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, name, start, frame):
        end = time.perf_counter()
        duration = end - start
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][1] += duration
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - frame[1]
        return start, end

    @contextmanager
    def op(self, name):
        """Root span of one benchmark operation; kept whole."""
        if not self.enabled:
            yield
            return
        frame = ["op:" + name, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            start, end = self._close(frame[0], start, frame)
            self.ops.append((name, start, end))

    def wrap(self, name, fn, namer=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = namer(args) if namer else name
            frame = [span, 0.0]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, start, frame)
            if after:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def snapshot(self):
        return {
            "edges": [[p, n, c, tot, slf] for (p, n), (c, tot, slf) in self.edges.items()],
            "counters": dict(self.counters),
            "ops": [list(o) for o in self.ops],
        }

    def merge(self, snap):
        for parent, name, calls, total, self_time in snap["edges"]:
            edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
            edge[0] += calls
            edge[1] += total
            edge[2] += self_time
        for name, amount in snap["counters"].items():
            self.count(name, amount)
        self.ops.extend(tuple(o) for o in snap["ops"])

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)


def _after_step(tracer, args, result):
    tracer.count("integrators.newton_iters", int(result.iterations))


def _after_samples(key):
    def after(tracer, args, result):
        tracer.count(key, len(args[1]))
    return after


AFTER = {
    "integrators.step_sode": _after_step,
    "discretization.verify_axioms": _after_samples("discretization.verify_axioms.samples"),
    "linearizability.check_planar": _after_samples("linearizability.points"),
    "linearizability.check_general": _after_samples("linearizability.points"),
}


def _map_namer(method):
    def namer(args):
        return f"discretization.map.{method}.{_MAP_LAYER.get(args[0].kind, 'base')}"
    return namer


def install(tracer):
    """Wrap mechlift's layers for ``tracer``."""
    mods = {name: importlib.import_module(f"mechlift.{name}") for name in MODULES}
    replace = {}
    for mod_name, mod in mods.items():
        names = [n for n, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and not n.startswith("_")]
        names += [n for n in PRIVATE.get(mod_name, ()) if hasattr(mod, n)]
        for n in names:
            fn = getattr(mod, n)
            span = f"{mod_name}.{n}"
            replace[id(fn)] = tracer.wrap(span, fn, after=AFTER.get(span))
        for cls_name, methods in METHODS.get(mod_name, {}).items():
            cls = getattr(mod, cls_name, None)
            for meth in methods:
                fn = cls and cls.__dict__.get(meth)
                if fn is None:
                    continue
                if cls_name == "DiscretizationMap":
                    wrapped = tracer.wrap(None, fn, namer=_map_namer(meth))
                elif cls_name == "Diffeomorphism":
                    wrapped = tracer.wrap(f"discretization.diffeo.{meth}", fn)
                else:
                    wrapped = tracer.wrap(f"{mod_name}.{cls_name}.{meth}", fn)
                setattr(cls, meth, wrapped)
    # rebind every module-level name that refers to a wrapped function
    for mod in list(mods.values()) + [importlib.import_module("mechlift")]:
        for n, obj in list(vars(mod).items()):
            if id(obj) in replace and inspect.isfunction(obj):
                setattr(mod, n, replace[id(obj)])
    np.linalg.solve = tracer.wrap("numpy.linalg.solve", np.linalg.solve)


# ---------------------------------------------------------------------------
# per-layer metrics from the aggregates
# ---------------------------------------------------------------------------

STEP_PARENTS = ("integrators.step_sode", "integrators._damped_newton",
                "integrators._refine_step")


class Summary:
    """Per-name totals of the span aggregates, over every parent."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.by_name = {}
        for (_, name), (calls, total, self_time) in tracer.edges.items():
            agg = self.by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_time

    def calls(self, *names):
        return sum(self.by_name.get(n, (0,))[0] for n in names)

    def calls_prefix(self, prefix):
        return sum(v[0] for n, v in self.by_name.items() if n.startswith(prefix))

    def self_ms(self, layer):
        return 1e3 * sum(v[2] for n, v in self.by_name.items()
                         if n.split(".", 1)[0] == layer)

    def residual_evals(self):
        return sum(c for (p, n), (c, _, _) in self.tracer.edges.items()
                   if p in STEP_PARENTS and n == "discretization.map.inverse.tangent-lift")

    def table(self):
        """Rows (name, calls, total ms, self ms, us/call) of the program's
        spans, heaviest self time first."""
        rows = [(n, c, 1e3 * t, 1e3 * s, 1e6 * t / c if c else 0.0)
                for n, (c, t, s) in self.by_name.items() if not n.startswith("op:")]
        return sorted(rows, key=lambda r: -r[3])
