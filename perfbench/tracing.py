"""Spans around hopfkit's public functions, installed from outside the program.

`Tracer.install` replaces each public module-level function of the
layers below, and the methods named in METHODS, with a wrapper that
records a span: name, start, end and the enclosing span. Every binding
of a wrapped function inside hopfkit is replaced, so a function that
another module imported by name (`check_budget` in `pbw` and `hopf`,
`hilbert_series` in `subspace`) is traced on that path too.

Spans are recorded only while the benchmark has an operation open, are
kept in flat arrays in memory, and are written out once, by `dump`.
A span's self time is its duration minus the durations of its direct
children.
"""

import functools
import inspect
import json
import os
import sys
import weakref
from array import array
from time import perf_counter

LAYERS = ("cli", "pbw", "hopf", "subspace", "grading", "presfile", "freealg")

# as_coeff coerces every single coefficient; a span per call would
# measure the tracer rather than the kernel
SKIP = {"freealg.as_coeff"}

METHODS = {
    "pbw": {"Presentation": ("__init__", "normal_form", "multiply", "mono_product", "confluence",
                             "enumerate_basis")},
    "hopf": {"AntipodeTable": ("apply_mono", "apply")},
    "subspace": {"Subspace": ("add_vector", "reduce_vector"), "Truncation": ("center",)},
}

# per-layer metric -> (span names, "self" or "total"). Stage spans such
# as construction and confluence are given whole; the rest as self time.
TIMES = {
    "cli.self": (("cli.",), "self"),
    "pbw.construct": (("pbw.Presentation.__init__",), "total"),
    "pbw.confluence": (("pbw.Presentation.confluence",), "total"),
    "pbw.normal_form.self": (("pbw.Presentation.normal_form", "pbw.normal_form"), "self"),
    "pbw.multiply.self": (("pbw.Presentation.multiply",), "self"),
    "pbw.mono_product.self": (("pbw.Presentation.mono_product",), "self"),
    "hopf.compat": (("hopf.check_relation_compatibility",), "self"),
    "hopf.coassoc": (("hopf.check_coassociativity",), "self"),
    "hopf.antipode": (("hopf.solve_antipode",), "self"),
    "hopf.involutive": (("hopf.check_involutive_antipode",), "self"),
    "subspace.coradical.self": (("subspace.coradical_levels", "subspace.primitive_space"), "self"),
    "subspace.signature.self": (("subspace.signature",), "self"),
    "subspace.truncation.self": (("subspace.truncation_algebra", "subspace.power_ideal_span"), "self"),
    "subspace.center.self": (("subspace.Truncation.center",), "self"),
    "grading.self": (("grading.",), "self"),
    "presfile.parse.self": (("presfile.parse_presentation", "presfile.parse_expression"), "self"),
    "freealg.check_budget.self": (("freealg.check_budget",), "self"),
    "bench.self": (("bench.",), "self"),
}

CALLS = {
    "pbw.construct.calls": "pbw.Presentation.__init__",
    "pbw.normal_form.calls": "pbw.Presentation.normal_form",
    "pbw.multiply.calls": "pbw.Presentation.multiply",
    "pbw.mono_product.calls": "pbw.Presentation.mono_product",
    "hopf.apply_mono.calls": "hopf.AntipodeTable.apply_mono",
    "subspace.add_vector.calls": "subspace.Subspace.add_vector",
    "subspace.reduce_vector.calls": "subspace.Subspace.reduce_vector",
    "presfile.parse.calls": "presfile.parse_presentation",
    "freealg.check_budget.calls": "freealg.check_budget",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = False
        self.peak_terms = 0
        self.terms_out = 0
        self.mono_distinct = 0
        self._mono_seen = {}

    # ----- recording -------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def around(self, kind, call):
        """call, recorded as the root span of one benchmark operation."""
        name_id = self._name_id(f"bench.{kind}")

        def traced_op():
            self.active = True
            idx = self._open(name_id)
            try:
                return call()
            finally:
                self._close(idx)
                self.active = False

        return traced_op

    def _wrap(self, name, func, observe=None):
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = open_(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ----- observers -------------------------------------------------------

    def _budget(self, args, _result):
        if args[0] > self.peak_terms:
            self.peak_terms = args[0]

    def _normal_form(self, _args, result):
        self.terms_out += len(result.terms)

    def _mono_product(self, args, _result):
        pres, key = args[0], args[1:]
        seen = self._mono_seen.get(id(pres))
        if seen is None:
            seen = self._mono_seen[id(pres)] = set()
            weakref.finalize(pres, self._mono_seen.pop, id(pres), None)
        if key not in seen:
            seen.add(key)
            self.mono_distinct += 1

    # ----- installation ----------------------------------------------------

    def install(self):
        """Wrap the loaded hopfkit modules; call after importing hopfkit."""
        observers = {
            "freealg.check_budget": self._budget,
            "pbw.Presentation.normal_form": self._normal_form,
            "pbw.Presentation.mono_product": self._mono_product,
        }
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"hopfkit.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    replaced[obj] = self._wrap(name, obj, observers.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth], observers.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "hopfkit" or mod_name.startswith("hopfkit."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])

    # ----- results ---------------------------------------------------------

    def totals(self):
        """{span name: [calls, total seconds, self seconds]}."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        acc = [[0, 0.0, 0.0] for _ in self.names]
        for i in range(n):
            duration = end[i] - start[i]
            row = acc[name_of[i]]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        return dict(zip(self.names, acc))

    def layer_metrics(self):
        """(seconds per layer metric, counts) for the traced operations."""
        totals = self.totals()

        def pick(patterns):
            return [row for name, row in totals.items()
                    if any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)]

        seconds = {}
        for metric, (patterns, kind) in TIMES.items():
            column = 2 if kind == "self" else 1
            seconds[metric] = sum(row[column] for row in pick(patterns))
        seconds["traced.wall"] = sum(row[1] for row in pick(("bench.",)))
        counts = {metric: totals.get(name, [0])[0] for metric, name in CALLS.items()}
        counts["pbw.normal_form.terms_out"] = self.terms_out
        counts["pbw.mono_product.distinct"] = self.mono_distinct
        counts["freealg.peak_terms"] = self.peak_terms
        return seconds, counts

    def dump(self, directory, stem):
        """Write the spans: a JSON header and the four arrays, in order."""
        os.makedirs(directory, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "layout": "int32 name index, int32 parent span (-1 for roots), "
                      "float64 start, float64 end (perf_counter seconds), one array after another",
        }
        with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with open(os.path.join(directory, stem + ".spans"), "wb") as handle:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(handle)
