"""Spans around the library's entry functions, from outside the library.

``Tracer.install`` replaces named functions by wrappers in every
``dbrackets`` module namespace that holds them (and methods on their
classes), so calls made through module globals are seen wherever they come
from.  Each call records a span: name, start, end and the index of the
enclosing span.  Spans stay in memory in flat arrays and are written out
once, by ``write``.  A span's self time is its duration minus the time its
direct children cover.

Functions too hot to wrap (``_tadd``, the ``Fraction`` operators) stay
unwrapped; their cost shows as the self time of their callers.  Cache sizes
and hit ratios are read from outside: each cached entry point's calls are
compared with the growth of the bracket's cache.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, layer); "Class.method" patches a class attribute
TARGETS = (
    ("dbrackets.bimodule", "act", "bimodule.act"),
    ("dbrackets.dbracket", "_eval_words", "dbracket.eval"),
    ("dbrackets.dbracket", "eval_bracket", "dbracket.eval"),
    ("dbrackets.dbracket", "bracket_left", "dbracket.pair"),
    ("dbrackets.dbracket", "bracket_right", "dbracket.pair"),
    ("dbrackets.dbracket", "bracket_pair_left", "dbracket.pair"),
    ("dbrackets.dbracket", "bracket_pair_right", "dbracket.pair"),
    ("dbrackets.dbracket", "_jac_words", "dbracket.jac"),
    ("dbrackets.dbracket", "jacobiator", "dbracket.jac"),
    ("dbrackets.dbracket", "jacobiator_form", "dbracket.jac"),
    ("dbrackets.dbracket", "_jacobiator_form_raw", "dbracket.jac"),
    ("dbrackets.dbracket", "weak_jacobiator", "dbracket.jac"),
    ("dbrackets.dbracket", "_weak_words", "dbracket.jac"),
    ("dbrackets.dbracket", "_word_triples", "dbracket.sweep"),
    ("dbrackets.dbracket", "_gen_triples", "dbracket.sweep"),
    ("dbrackets.dbracket", "is_poisson", "dbracket.sweep"),
    ("dbrackets.dbracket", "is_weak_poisson", "dbracket.sweep"),
    ("dbrackets.dbracket", "check_antisymmetry", "dbracket.sweep"),
    ("dbrackets.freealg", "tensor3_perm", "freealg.tensor3_perm"),
    ("dbrackets.freealg", "poly_mul", "freealg.poly_mul"),
    ("dbrackets.gradient", "is_fully_noncommutative", "gradient.build"),
    ("dbrackets.gradient", "double_derivation", "gradient.build"),
    ("dbrackets.gradient", "gradient_gen_table", "gradient.build"),
    ("dbrackets.commpoly", "CPoly.__mul__", "commpoly.mul"),
    ("dbrackets.commpoly", "poisson_biderivation", "commpoly.biderivation"),
    ("dbrackets.repspace", "induce", "repspace.induce"),
    ("dbrackets.repspace", "eval_nc", "repspace.eval_nc"),
    ("dbrackets.repspace", "jacobi_sweep", "repspace.sweep"),
    ("dbrackets.repspace", "jacobi_defect", "repspace.sweep"),
    ("dbrackets.ybe", "cybe_defect", "ybe"),
    ("dbrackets.ybe", "standard_r", "ybe"),
    ("dbrackets.ybe", "casimir", "ybe"),
    ("dbrackets.ybe", "entry_bracket", "ybe"),
    ("dbrackets.ybe", "check_entry_jacobi", "ybe"),
    ("dbrackets.parsing", "parse_session", "parsing"),
    ("dbrackets.parsing", "parse_poly", "parsing"),
    ("dbrackets.parsing", "parse_tensor2", "parsing"),
    ("dbrackets.cli", "main", "cli"),
    ("dbrackets.cli", "run_text", "cli"),
    ("dbrackets.cli", "run", "cli"),
)

# which span's calls each ".calls" metric counts
CALLS = {
    "bimodule.act.calls": ("bimodule.act",),
    "dbracket.eval.calls": ("dbracket._eval_words",),
    "dbracket.pair.calls": ("dbracket.bracket_left", "dbracket.bracket_right",
                            "dbracket.bracket_pair_left",
                            "dbracket.bracket_pair_right"),
    "dbracket.jac.calls": ("dbracket._jac_words", "dbracket.jacobiator_form"),
    "freealg.tensor3_perm.calls": ("freealg.tensor3_perm",),
    "freealg.poly_mul.calls": ("freealg.poly_mul",),
    "commpoly.mul.calls": ("commpoly.CPoly.__mul__",),
    "commpoly.biderivation.calls": ("commpoly.poisson_biderivation",),
}

SELF_TIMES = ("bimodule.act", "dbracket.eval", "dbracket.pair", "dbracket.jac",
              "dbracket.sweep", "freealg.tensor3_perm", "freealg.poly_mul",
              "gradient.build", "commpoly.mul", "commpoly.biderivation",
              "repspace.induce", "repspace.eval_nc", "repspace.sweep", "ybe",
              "parsing", "cli")

# (child span, parents) pairs counted as checked triples / tuples
SWEEP_CHILDREN = {
    "dbracket.sweep.triples_checked": (
        ("dbracket._jac_words", "dbracket._weak_words"),
        ("dbracket.is_poisson", "dbracket.is_weak_poisson")),
    "repspace.sweep.tuples_checked": (
        ("repspace.jacobi_defect",), ("repspace.jacobi_sweep",)),
}


class _CountingIter:
    def __init__(self, it, tracer):
        self._it = iter(it)
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self._tracer.triples_built += 1
        return item


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.layer_of = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []
        self.act_terms_out = 0
        self.triples_built = 0
        # id(bracket) -> [bracket, eval baseline, jac baseline]
        self._brackets = {}

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every target; ``extra_modules`` are further namespaces (such
        as the job definitions) whose references to targets are replaced."""
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if mod is not None and name.startswith("dbrackets")]
        namespaces.extend(extra_modules)
        for module_name, attr, layer in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            short = module_name.split(".")[-1] + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    continue
                wrapper = self._wrap(fn, short, layer)
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, wrapper)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, short, layer)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._patches):
            setattr(owner, key, fn)
        self._patches.clear()

    def _wrap(self, fn, name, layer):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        self.layer_of[name] = layer
        after = self._after_hooks().get(name)
        before = (self._see_bracket
                  if name in ("dbracket._eval_words", "dbracket._jac_words",
                              "dbracket.jacobiator_form") else None)
        stack, names_a, parent_a = self._stack, self.name, self.parent
        start_a, end_a = self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start_a)
            names_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            end_a.append(0.0)
            if before is not None:
                before(args[0])
            stack.append(idx)
            start_a.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = perf_counter()
                stack.pop()
            if after is not None:
                result = after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _after_hooks(self):
        def act_out(result):
            self.act_terms_out += len(result.terms)
            return result

        def triples(result):
            if hasattr(result, "__len__"):
                self.triples_built += len(result)
                return result
            return _CountingIter(result, self)

        return {"bimodule.act": act_out, "dbracket._word_triples": triples}

    def _see_bracket(self, db):
        if id(db) not in self._brackets:
            self._brackets[id(db)] = [db, len(getattr(db, "_eval_cache", ())),
                                      len(getattr(db, "_jac_cache", ()))]

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Self time per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = [0.0] * len(self.names)
        for i in range(n):
            out[self.name[i]] += dur[i] - child[i]
        return dict(zip(self.names, out))

    def call_counts(self):
        counts = [0] * len(self.names)
        for nid in self.name:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def child_counts(self, children, parents):
        cids = {self._name_ids[c] for c in children if c in self._name_ids}
        pids = {self._name_ids[p] for p in parents if p in self._name_ids}
        total = 0
        for i, nid in enumerate(self.name):
            if nid in cids and self.parent[i] >= 0 \
                    and self.name[self.parent[i]] in pids:
                total += 1
        return total

    def metrics(self):
        """The per-layer metrics of everything traced so far."""
        selfs = self.self_times()
        calls = self.call_counts()
        out = {}
        for metric, spans in CALLS.items():
            out[metric] = sum(calls.get(s, 0) for s in spans)
        for layer in SELF_TIMES:
            out[f"{layer}.self_s"] = sum(t for name, t in selfs.items()
                                         if self.layer_of.get(name) == layer)
        out["bimodule.act.terms_out"] = self.act_terms_out
        for metric, (children, parents) in SWEEP_CHILDREN.items():
            out[metric] = self.child_counts(children, parents)
        out["dbracket.sweep.triples_built"] = self.triples_built
        for cache, calls_metric, prefix in (
                (1, "dbracket.eval.calls", "dbracket.eval"),
                (2, "dbracket.jac.calls", "dbracket.jac")):
            attr = "_eval_cache" if cache == 1 else "_jac_cache"
            entries = misses = 0
            for rec in self._brackets.values():
                size = len(getattr(rec[0], attr, ()))
                entries += size
                misses += size - rec[cache]
            n_calls = out[calls_metric]
            out[f"{prefix}.cache_entries"] = entries
            out[f"{prefix}.cache_hit_ratio"] = (
                (n_calls - misses) / n_calls if n_calls else 0.0)
        repspace = sys.modules.get("dbrackets.repspace")
        out["repspace.word_cache.entries"] = len(
            getattr(repspace, "_WORD_CACHE", ()) if repspace else ())
        return out

    def write(self, path):
        """All spans, times in integer nanoseconds from the first start."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {"names": self.names,
                "layers": [self.layer_of[n] for n in self.names],
                "name": self.name.tolist(), "parent": self.parent.tolist(),
                "start_ns": [round((t - t0) * 1e9) for t in self.start],
                "end_ns": [round((t - t0) * 1e9) for t in self.end]}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))
