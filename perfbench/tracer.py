"""Traced runs: wrap the program's public entry points from outside.

``Tracer.install`` replaces every binding of each target function (module
globals, re-exports and class attributes, aliases such as ``__radd__``
included) with a wrapper that times the call.  Each call is a span with a
name, start, end and parent.  The top two levels (a CLI command and what it
calls directly, such as a triangle build or an identity sweep) are kept
whole; deeper spans, which number in the millions in pinned mode, are
folded into per-name totals as they close.  A span's self time is its
duration minus the time covered by its child spans.  ``uninstall`` puts
every original object back.

The program's ``lru_cache`` objects are found by scanning the same modules,
and ``cache_info()`` is read at install and at the end, so the counts are
those of the traced commands alone.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Spans at a stack depth below this are kept whole.
RECORD_DEPTH = 2


def _poly_size(poly, stats):
    # a coefficient's size is the bit length of its numerator plus that of
    # its denominator
    stats["field.max_degree"] = max(stats["field.max_degree"], len(poly.coeffs) - 1)
    bits = stats["field.max_coeff_bits"]
    for c in poly.coeffs:
        b = c.numerator.bit_length() + c.denominator.bit_length()
        if b > bits:
            bits = b
    stats["field.max_coeff_bits"] = bits


def _series_precision(series, stats):
    if series.precision > stats["series.max_precision"]:
        stats["series.max_precision"] = series.precision


def _reports(reports, stats):
    stats["identities.reports"] += len(reports)


def _sweep_name(args, kwargs):
    return "identities." + (args[0] if args else kwargs["identity"])


# (span name or name function, module, attribute path, result observer)
TARGETS = (
    ("field.poly_mul", "field", "LambdaPoly.__mul__", _poly_size),
    ("field.poly_gcd", "field", "poly_gcd", None),
    ("field.elem_add", "field", "FieldElem.__add__", None),
    ("field.elem_mul", "field", "FieldElem.__mul__", None),
    ("field.elem_div", "field", "FieldElem.__truediv__", None),
    ("field.elem_div", "field", "FieldElem.__rtruediv__", None),
    ("series.mul", "series", "Series.mul", _series_precision),
    ("series.div", "series", "Series.div", _series_precision),
    ("series.pow", "series", "Series.pow", _series_precision),
    ("series.compose", "series", "Series.compose", _series_precision),
    ("core.degen_exp", "core", "degen_exp", None),
    ("core.degen_log", "core", "degen_log", None),
    ("core.falling", "core", "falling_factorial", None),
    ("core.falling", "core", "gen_falling", None),
    ("core.falling", "core", "one_falling", None),
    ("core.falling", "core", "int_falling", None),
    ("stirling.entry", "stirling", "stirling2_degen", None),
    ("stirling.entry", "stirling", "stirling1_degen", None),
    ("stirling.entry", "stirling", "stirling2r_gf", None),
    ("stirling.entry", "stirling", "stirling1r_gf", None),
    ("stirling.build_triangle", "stirling", "build_triangle", None),
    ("bernoulli.bernoulli", "bernoulli", "degen_bernoulli", None),
    ("bernoulli.bernoulli", "bernoulli", "trunc_degen_bernoulli", None),
    ("bernoulli.bell", "bernoulli", "bell_partial", None),
    ("bernoulli.klambda", "bernoulli", "k_lambda", None),
    (_sweep_name, "identities", "sweep", _reports),
    ("cli.main", "cli", "main", None),
)

# layers whose lru_cache objects are summed into <layer>.cache.*
CACHE_LAYERS = ("core", "stirling", "bernoulli")


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _owners(package):
    """Every namespace that can hold a binding of a program function: the
    package, its modules, and the classes they define."""
    mods = [package] + [mod for name, mod in sorted(sys.modules.items())
                        if name.startswith(package.__name__ + ".")]
    owners = list(mods)
    for mod in mods:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                owners.append(value)
    return owners


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.edges = Counter()
        self.stats = Counter()
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._caches = []

    def _wrap(self, name, fn, observe):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, total_s, edges = self.calls, self.self_s, self.total_s, self.edges
        spans, stats = self.spans, self.stats
        dynamic = callable(name)

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if dynamic else name
            parent = stack[-1] if stack else None
            depth = len(stack)
            span_id = None
            if depth < RECORD_DEPTH:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[span_name] += 1
                total_s[span_name] += duration
                self_s[span_name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    edges[parent[0], span_name] += 1
                if span_id is not None:
                    spans.append((span_id, span_name, start, end,
                                  None if parent is None else parent[2]))
            if observe is not None:
                observe(result, stats)
            return result

        return traced

    def install(self, package):
        """Wrap every target in ``package`` (the imported ``degenstir``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = _owners(package)
        for owner in owners:
            for value in vars(owner).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear") \
                        and all(value is not c for c, _, _ in self._caches):
                    layer = value.__module__.rsplit(".", 1)[-1]
                    self._caches.append((value, layer, value.cache_info()))
        for name, module, path, observe in TARGETS:
            mod = sys.modules["%s.%s" % (package.__name__, module)]
            original = _resolve(mod, path)
            wrapper = self._wrap(name, original, observe)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def cache_counts(self):
        """Per layer: hits and misses since install, and entries held now."""
        out = {layer: Counter() for layer in CACHE_LAYERS}
        for cache, layer, before in self._caches:
            if layer not in out:
                continue
            now = cache.cache_info()
            out[layer]["hits"] += now.hits - before.hits
            out[layer]["misses"] += now.misses - before.misses
            out[layer]["entries"] += now.currsize
        return out

    def summary(self):
        """Plain-data totals, spans and cache counts of everything traced."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "stats": dict(self.stats),
            "caches": {layer: dict(c) for layer, c in self.cache_counts().items()},
            "spans": [list(s) for s in sorted(self.spans)],
        }


# fixed here rather than read from the program, so that the metric names
# stay those listed in BENCHMARK.json
IDENTITY_TAGS = ("thm3", "thm4", "thm5", "thm6", "thm7", "thm8",
                 "delta", "expansion", "beta-closed")

_TIMED = ("field.poly_mul", "field.poly_gcd", "field.elem_add", "field.elem_mul",
          "field.elem_div", "series.mul", "series.div", "series.compose",
          "core.degen_exp", "core.falling", "stirling.entry",
          "bernoulli.bernoulli", "bernoulli.bell", "bernoulli.klambda")


def layer_metrics(summary, out_bytes):
    """The per-layer metrics of one traced iteration, by metric name."""
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    stats = summary["stats"]
    edges = {(p, c): n for p, c, n in summary["edges"]}
    m = {}
    for name in _TIMED:
        m[name + ".calls"] = (calls.get(name, 0), "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    m["field.max_degree"] = (stats.get("field.max_degree", 0), "count")
    m["field.max_coeff_bits"] = (stats.get("field.max_coeff_bits", 0), "bits")
    m["series.pow.calls"] = (calls.get("series.pow", 0), "count")
    m["series.pow.muls"] = (edges.get(("series.pow", "series.mul"), 0), "count")
    m["series.max_precision"] = (stats.get("series.max_precision", 0), "count")
    m["core.degen_log.calls"] = (calls.get("core.degen_log", 0), "count")
    m["stirling.build_triangle.s"] = (total_s.get("stirling.build_triangle", 0.0), "s")
    for layer in CACHE_LAYERS:
        c = summary["caches"][layer]
        hits, misses = c.get("hits", 0), c.get("misses", 0)
        m[layer + ".cache.hits"] = (hits, "count")
        m[layer + ".cache.misses"] = (misses, "count")
        m[layer + ".cache.entries"] = (c.get("entries", 0), "count")
        m[layer + ".cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0,
                                         "ratio")
    for tag in IDENTITY_TAGS:
        m["identities.%s.s" % tag] = (total_s.get("identities." + tag, 0.0), "s")
    m["identities.reports"] = (stats.get("identities.reports", 0), "count")
    m["cli.main.calls"] = (calls.get("cli.main", 0), "count")
    m["cli.self_s"] = (self_s.get("cli.main", 0.0), "s")
    m["cli.out_bytes"] = (out_bytes, "bytes")
    return m
