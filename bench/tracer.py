"""Runtime tracing of the qhopf layers, installed from outside src/.

Every function and method defined in a layer module (`qhopf.<layer>`)
is wrapped. Methods are wrapped on their class attribute; a module-level
function is rebound under every name that refers to it, in every layer
module and in the package namespace, because `from .algebra import
mul_legs` makes `quasihopf.mul_legs` a second binding of the same
function. Closures that a layer hands to another layer as a callback
(an evaluator, builder, pair_fn, ...) are wrapped when they are passed,
so their time is charged to the layer that wrote them.

Each call keeps its duration and the time covered by its child calls on
a stack, so self time (duration minus child time) is summed per function
without storing every call. Calls longer than `keep_s` are also kept as
spans (id, parent id, name, start, end, request id) in memory and
written out by `write_spans` at the end of a run; the parent of a kept
span is always kept, because it lasts at least as long.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

LAYERS = ("cli", "specfile", "corpus", "report", "quasihopf", "coact",
          "products", "hopfmod", "doihopf", "classical", "algebra",
          "linalg", "tensor", "fields")

# Parameters through which a layer receives code written in another one.
CALLBACK_PARAMS = {"fn", "evaluator", "builder", "pair_fn", "apply_fn"}

# Fp.__init__ runs inside every Fp operation and is not wrapped, so that
# tracing GF(p) arithmetic costs one wrapper per operation, not two.
SKIP = {"fields.Fp.__init__"}

FP_ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__")


class Tracer:
    def __init__(self, keep_s: float = 1e-3):
        self.keep_s = keep_s
        self.stack = []
        self.stats = {}          # name -> [calls, self seconds, layer]
        self.spans = []
        self.counters = {"specfile.bytes_written": 0,
                         "specfile.bytes_read": 0,
                         "linalg.solve_linear.unknowns": 0,
                         "products.table_builds": 0,
                         "products.table_entries": 0,
                         "report.quantified_inputs": 0}
        self.request = None
        self._next_id = 1
        self._patches = []       # (owner, attribute, original value)
        self._hooks = {
            "specfile.serialize": self._on_serialize,
            "specfile.parse": self._on_parse,
            "linalg.solve_linear": self._on_solve,
            "products.ProductAlgebra.__init__": self._on_product,
        }

    # -- span bookkeeping ------------------------------------------------

    def _span_id(self, frame) -> int:
        if not frame[1]:
            frame[1] = self._next_id
            self._next_id += 1
        return frame[1]

    def _close(self, frame, name, stat, t0, t1):
        """Account one finished call whose frame is already popped."""
        stack = self.stack
        dur = t1 - t0
        stat[0] += 1
        stat[1] += dur - frame[0]
        if stack:
            stack[-1][0] += dur
        if dur >= self.keep_s:
            parent = self._span_id(stack[-1]) if stack else 0
            self.spans.append((self._span_id(frame), parent, name, t0, t1,
                               self.request))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, callbacks=()):
        stat = self.stats.setdefault(name, [0, 0.0, layer])
        stack = self.stack
        clock = time.perf_counter
        close = self._close
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(frame, name, stat, t0, t1)
            if hook is not None:
                hook(args, result)
            return result

        if callbacks:
            wrap_callback = self._wrap_callback

            def wrapper(*args, **kwargs):
                args = list(args)
                for pos, pname in callbacks:
                    if pos < len(args):
                        args[pos] = wrap_callback(args[pos], pname)
                    elif pname in kwargs:
                        kwargs[pname] = wrap_callback(kwargs[pname], pname)
                return traced(*args, **kwargs)
        else:
            wrapper = traced
        functools.update_wrapper(wrapper, fn)
        wrapper.__bench_wrapped__ = True
        return wrapper

    @staticmethod
    def _callback_slots(fn):
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            return ()
        return tuple((i, p) for i, p in enumerate(params)
                     if p in CALLBACK_PARAMS)

    def _wrap_callback(self, cb, pname: str):
        if not isinstance(cb, types.FunctionType) or \
                getattr(cb, "__bench_wrapped__", False):
            return cb
        module = cb.__module__ or ""
        if not module.startswith("qhopf."):
            return cb
        layer = module.split(".", 1)[1]
        w = self._wrap(cb, layer, "%s.%s" % (layer, cb.__qualname__))
        if pname == "pair_fn":
            counters = self.counters
            inner = w

            def counted(*args):
                counters["report.quantified_inputs"] += 1
                return inner(*args)

            counted.__bench_wrapped__ = True
            return counted
        return w

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every layer of `package` (the imported qhopf module)."""
        modules = [importlib.import_module("%s.%s" % (package.__name__, l))
                   for l in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[obj] = self._wrap(
                        obj, layer, "%s.%s" % (layer, obj.__qualname__),
                        self._callback_slots(obj))
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if name in SKIP:
                continue
            if isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrap(
                    obj, layer, name, self._callback_slots(obj)))
            elif isinstance(obj, (classmethod, staticmethod)):
                fn = obj.__func__
                self._patch(cls, attr, type(obj)(self._wrap(
                    fn, layer, name, self._callback_slots(fn))))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- counters set by hooks ----------------------------------------------

    def _on_serialize(self, args, text):
        self.counters["specfile.bytes_written"] += len(text.encode("utf-8"))

    def _on_parse(self, args, doc):
        self.counters["specfile.bytes_read"] += len(args[0].encode("utf-8"))

    def _on_solve(self, args, solution):
        cols = set()
        for row in args[0]:
            cols.update(row)
        self.counters["linalg.solve_linear.unknowns"] += len(cols)

    def _on_product(self, args, result):
        self.counters["products.table_builds"] += 1
        mult = getattr(args[0].alg, "mult", None)
        if mult is not None:
            self.counters["products.table_entries"] += sum(
                len(v) for v in mult.values())

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_by_layer(self) -> dict:
        out = {}
        for calls, self_s, layer in self.stats.values():
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def fp_summary(self):
        ops = sum(self.calls("fields.Fp.%s" % op) for op in FP_ARITHMETIC)
        self_s = sum(s for name, (c, s, l) in self.stats.items()
                     if name.startswith("fields.Fp."))
        return ops, self_s

    def top(self, n: int = 15) -> list:
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][1])[:n]
        return [{"name": k, "calls": c, "self_s": round(s, 6)}
                for k, (c, s, _) in rows]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, req in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "request": req}) + "\n")

