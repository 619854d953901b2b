"""Per-layer counts and self times, by wrapping frameforms from outside.

`Tracer.install()` replaces public functions and methods of each
frameforms module with wrappers, wherever they are looked up: a module
function is replaced in every frameforms module (and in the package
namespace) that holds it, and a method is replaced on its class.  No
file of the program changes.

Hot scalar methods only count calls.  Coarser boundaries open a span:
they count calls and add the span's self time, its duration minus the
time of wrapped spans inside it.  Spans are aggregated per layer as
they close, and `close_job()` attributes them to the job that ran.
Garbage collection is timed through gc.callbacks.
"""

from __future__ import annotations

import gc
import sys
import time
from functools import wraps

# layer -> (module, attribute path) targets
TIMED = {
    "scalar.poly_mul": [("scalar", "Poly.__mul__"), ("scalar", "Poly.__rmul__")],
    "scalar.poly_substitute": [("scalar", "Poly.substitute")],
    "scalar.linear_solve": [("scalar", "linear_solve")],
    "exterior.wedge": [("exterior", "wedge")],
    "exterior.hook": [("exterior", "hook")],
    "exterior.substitute_form": [("exterior", "substitute_form")],
    "exterior.parse_print": [("exterior", "parse_form"), ("exterior", "print_form")],
    "manifold.d": [("manifold", "FrameManifold.d")],
    "basis.insert": [("basis", "Basis.insert"), ("basis", "AffineBasis.insert")],
    "basis.components": [("basis", "Basis.components")],
    "basis.dual_basis": [("basis", "Basis.dual_basis")],
    "connection.declare": [("connection", "Connection._declare")],
    "connection.gamma": [("connection", "Connection.gamma")],
    "connection.nabla": [
        ("connection", "Connection.nabla_vector"),
        ("connection", "Connection.nabla_form"),
        ("connection", "Connection.nabla_spinor"),
    ],
    "connection.torsion": [("connection", "Connection.torsion")],
    "spinors.apply": [("spinors", "CliffordTable.apply")],
    "spinors.build_table": [("spinors", "build_clifford_table")],
    "eds.equations_for_Vn": [("eds", "equations_for_Vn")],
    "eds.reduced_polar_equations": [("eds", "reduced_polar_equations")],
    "eds.cartan_test": [("eds", "cartan_test")],
    "cli.main": [("cli", "main")],
}

COUNTED = {
    "scalar.gaussian_mul": ["__mul__", "__rmul__"],
    "scalar.gaussian_add": ["__add__", "__radd__", "__sub__", "__rsub__"],
    "scalar.gaussian_div": ["__truediv__", "__rtruediv__"],
}

# The per-layer metrics the benchmark reports, as (name, unit).
METRICS = [
    ("runtime.gc_ms", "ms"),
    ("runtime.gc_collections", "count"),
    ("scalar.gaussian_mul.calls", "count"),
    ("scalar.gaussian_add.calls", "count"),
    ("scalar.gaussian_div.calls", "count"),
    ("scalar.poly_mul.calls", "count"),
    ("scalar.poly_mul.self_ms", "ms"),
    ("scalar.poly_substitute.calls", "count"),
    ("scalar.poly_substitute.self_ms", "ms"),
    ("scalar.linear_solve.calls", "count"),
    ("scalar.linear_solve.self_ms", "ms"),
    ("exterior.wedge.calls", "count"),
    ("exterior.wedge.self_ms", "ms"),
    ("exterior.hook.calls", "count"),
    ("exterior.hook.self_ms", "ms"),
    ("exterior.substitute_form.calls", "count"),
    ("exterior.substitute_form.self_ms", "ms"),
    ("exterior.parse_print.self_ms", "ms"),
    ("manifold.d.calls", "count"),
    ("manifold.d.self_ms", "ms"),
    ("basis.insert.calls", "count"),
    ("basis.insert.accepted", "count"),
    ("basis.insert.self_ms", "ms"),
    ("basis.components.calls", "count"),
    ("basis.components.self_ms", "ms"),
    ("basis.setups", "count"),
    ("basis.setup_ops", "count"),
    ("connection.declare.calls", "count"),
    ("connection.declare.self_ms", "ms"),
    ("connection.gamma.calls", "count"),
    ("connection.gamma.self_ms", "ms"),
    ("connection.nabla.self_ms", "ms"),
    ("connection.torsion.self_ms", "ms"),
    ("spinors.apply.calls", "count"),
    ("spinors.apply.self_ms", "ms"),
    ("spinors.build_table.self_ms", "ms"),
    ("eds.equations_for_Vn.self_ms", "ms"),
    ("eds.reduced_polar_equations.calls", "count"),
    ("eds.reduced_polar_equations.self_ms", "ms"),
    ("eds.cartan_test.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
]


def _resolve(module, path):
    obj = module
    for part in path.split(".")[:-1]:
        obj = getattr(obj, part)
    return obj, path.split(".")[-1]


class Tracer:
    """Wraps the program's layers and sums counts and self times per job."""

    def __init__(self):
        self.active = False
        self.counts = {}  # "layer.calls", "basis.insert.accepted", ... -> int
        self.seconds = {}  # "layer.self", "runtime.gc" -> raw seconds
        self.scaled = {}  # the same keys, seconds scaled to the reference speed
        self.per_job = {}
        self._last = ({}, {})
        self._stack = []
        self._gc_start = None
        self._undo = []

    # -- wrappers ----------------------------------------------------------------

    def _counter(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, layer, fn):
        counts, seconds, stack = self.counts, self.seconds, self._stack
        calls, self_key = layer + ".calls", layer + ".self"
        counts.setdefault(calls, 0)
        seconds.setdefault(self_key, 0.0)
        extra = _EXTRA.get(layer)
        perf = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            before = extra.before(args) if extra else None
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                counts[calls] += 1
                seconds[self_key] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if extra:
                extra.after(counts, args, before, out)
            return out

        return span

    def _gc_callback(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.seconds["runtime.gc"] = self.seconds.get("runtime.gc", 0.0) + time.perf_counter() - self._gc_start
            self.counts["runtime.gc_collections"] = self.counts.get("runtime.gc_collections", 0) + 1
            self._gc_start = None

    # -- install -------------------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "frameforms" or name.startswith("frameforms.")}
        for layer, targets in TIMED.items():
            for modname, path in targets:
                self._wrap(mods, mods["frameforms." + modname], path, lambda fn, l=layer: self._span(l, fn))
        gr = mods["frameforms.scalar"].GaussianRational
        for key, names in COUNTED.items():
            for name in names:
                self._wrap(mods, gr, name, lambda fn, k=key + ".calls": self._counter(k, fn))
        self.counts.setdefault("runtime.gc_collections", 0)
        self.seconds.setdefault("runtime.gc", 0.0)
        gc.callbacks.append(self._gc_callback)

    def _wrap(self, mods, root, path, make):
        owner, name = _resolve(root, path) if "." in path else (root, path)
        if name not in vars(owner):
            return  # renamed or removed in this version of the program; reads as 0
        original = vars(owner)[name]
        wrapper = make(original)
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))
        if isinstance(owner, type):
            return
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- results -----------------------------------------------------------------------

    def around(self, fn):
        """fn with tracing on while it runs."""

        def traced():
            self.active = True
            try:
                return fn()
            finally:
                self.active = False

        return traced

    def close_job(self, name, factor):
        """Attribute what was traced since the last job to `name`.

        factor scales raw seconds to the reference speed of that job.
        """
        counts, seconds = dict(self.counts), dict(self.seconds)
        last_counts, last_seconds = self._last
        delta = {k: (v - last_seconds.get(k, 0.0)) * factor for k, v in seconds.items()}
        for k, v in delta.items():
            self.scaled[k] = self.scaled.get(k, 0.0) + v
        self.per_job[name] = {
            "counts": {k: v - last_counts.get(k, 0) for k, v in counts.items() if v != last_counts.get(k, 0)},
            "self_ms": {k: v * 1000.0 for k, v in delta.items() if v},
        }
        self._last = (counts, seconds)

    def metrics(self):
        """The reported per-layer metrics: counts, and scaled self times in ms."""
        out = {}
        for name, unit in METRICS:
            if unit == "ms":  # "x.self_ms" reads the seconds kept under "x.self"
                value = self.scaled.get(name[: -len("_ms")], 0.0) * 1000.0
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out


class _BasisSetups:
    """Adds the Basis.setup_count and setup_ops a call spent to the counters."""

    @staticmethod
    def before(args):
        b = args[0]
        return getattr(b, "setup_count", 0), getattr(b, "setup_ops", 0)

    @staticmethod
    def after(counts, args, before, out):
        b = args[0]
        counts["basis.setups"] = counts.get("basis.setups", 0) + getattr(b, "setup_count", 0) - before[0]
        counts["basis.setup_ops"] = counts.get("basis.setup_ops", 0) + getattr(b, "setup_ops", 0) - before[1]


class _InsertAccepted:
    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(counts, args, before, out):
        counts["basis.insert.accepted"] = counts.get("basis.insert.accepted", 0) + bool(out)


_EXTRA = {
    "basis.components": _BasisSetups,
    "basis.dual_basis": _BasisSetups,
    "basis.insert": _InsertAccepted,
}
