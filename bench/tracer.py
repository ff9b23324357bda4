"""Outside-in tracing of sieveforest: spans around its public functions.

Nothing under `src/` changes.  `install_sieveforest` rebinds each traced
function in every sieveforest module (and class) that holds it, so calls made
between modules go through the wrapper too.  A span records its name, start,
end and parent; a layer's self time is its duration minus the durations of
the spans it directly caused.  Spans are aggregated in memory per name, with
call counts between parent and child names; `keep_spans` also keeps every
span, for the self-tests.

Generators (`enumerate_family`, `enumerate_maps`) are timed step by step: a
plain wrapper would return before any member is produced.
"""
from __future__ import annotations

import contextlib
import functools
import time

_now = time.perf_counter


class Tracer:
    def __init__(self, keep_spans: bool = False):
        self._stack = []      # open spans: [name, start, child_seconds, id]
        self._ids = 0
        self.spans = {}       # name -> [calls, total_s, self_s]
        self.edges = {}       # "parent>child" -> calls
        self.counters = {}    # name -> count
        self.samples = {}     # name -> [value, ...]
        self.caches = {}      # name -> lru_cache-wrapped function
        self.kept = [] if keep_spans else None  # (id, parent id, name, start, end, self_s)
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> None:
        self._ids += 1
        self._stack.append([name, _now(), 0.0, self._ids])

    def _close(self) -> None:
        end = _now()
        name, start, child, sid = self._stack.pop()
        duration = end - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
            edge = parent[0] + ">" + name
            self.edges[edge] = self.edges.get(edge, 0) + 1
        if self.kept is not None:
            self.kept.append((sid, parent[3] if parent else 0, name, start, end,
                              duration - child))

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn, ops=None, tally=None):
        """Span per call.  `ops(*args)` adds to `<name>.ops` before the call;
        `tally(result)` adds to `<name>.tally` after it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ops is not None:
                self.count(name + ".ops", ops(*args))
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if tally is not None:
                self.count(name + ".tally", tally(result))
            return result
        return wrapper

    def timed_generator(self, name: str, fn):
        """Span per generator step; `<name>.members` counts the items of
        outermost generators (a generator stepping inside a span of the same
        name is delegated to, and its items are counted once, outside)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._steps(name, fn(*args, **kwargs))
        return wrapper

    def _steps(self, name, gen):
        with contextlib.closing(gen):
            while True:
                nested = bool(self._stack) and self._stack[-1][0] == name
                self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close()
                if not nested:
                    self.count(name + ".members")
                yield item

    def census(self, name: str, cached, members):
        """Count `<name>.members` on every cache miss of an lru-cached census:
        `members(args, result)` is how many members that census walked."""
        @functools.wraps(cached)
        def wrapper(*args):
            before = cached.cache_info().misses
            result = cached(*args)
            if cached.cache_info().misses != before:
                self.count(name + ".members", members(args, result))
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def rebind(self, original, wrapper, holders) -> None:
        """Replace `original` by `wrapper` wherever a holder refers to it."""
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
                    self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def raw(self) -> dict:
        """Aggregates as plain JSON data; see `merge` and `layer_metrics`."""
        caches = {name: list(fn.cache_info()[:2]) for name, fn in self.caches.items()}
        return {"spans": self.spans, "edges": self.edges,
                "counters": self.counters, "samples": self.samples,
                "caches": caches}


def install_sieveforest(tracer: Tracer) -> None:
    """Trace the layers the per-layer metrics name."""
    import sieveforest
    from sieveforest import cli, csp, maps, qseries, rotations, trees
    holders = [sieveforest, trees, rotations, maps, qseries, csp, cli]
    poly = qseries.QPolynomial
    tracer.caches["qseries.cyclotomic"] = qseries.cyclotomic

    def rebind(name, fn, kind="call", **kw):
        if kind == "generator":
            wrapper = tracer.timed_generator(name, fn)
        else:
            wrapper = tracer.timed(name, fn, **kw)
        tracer.rebind(fn, wrapper, holders + [poly])

    rebind("trees.enumerate", trees.enumerate_family, "generator")
    rebind("trees.stats", trees.stats)
    rebind("trees.shift_root", trees.shift_root)
    rebind("rotations.rotate", rotations.rotate)
    rebind("rotations.fix_count_bruteforce", rotations.fix_count_bruteforce)
    rebind("rotations.fix_count_closed", rotations.fix_count_closed)
    rebind("maps.btree_degree_distributions", maps.btree_degree_distributions)
    rebind("maps.enumerate_maps", maps.enumerate_maps, "generator")
    rebind("maps.rotate_btree", maps.rotate_btree)
    rebind("maps.rotate_map", maps.rotate_map)
    rebind("maps.rotate_ncm", maps.rotate_ncm)
    rebind("maps.fix_count_maps", maps.fix_count_maps)
    rebind("maps.fix_count_maps_closed", maps.fix_count_maps_closed)
    rebind("qseries.to_polynomial", qseries.to_polynomial)
    rebind("qseries.eval_expr_at_root", qseries.eval_expr_at_root)
    rebind("qseries.eval_at_primitive_root", qseries.eval_at_primitive_root)
    rebind("qseries.cyclotomic", qseries.cyclotomic)
    rebind("qseries.mul", poly.__mul__, ops=_mul_ops)
    rebind("qseries.divmod", poly.__divmod__, ops=_divmod_ops)
    rebind("csp.build_instance", csp.build_instance)
    rebind("csp.verify", csp.verify, tally=lambda report: len(report.rows))
    rebind("cli.run", cli.run)

    def census_size(args, result):
        return sum(count for _, count in result)

    def map_census_size(args, result):
        # a BTDeg census is a slice of the b-tree census counted below
        return 0 if isinstance(args[0], maps.BTDeg) else census_size(args, result)

    def btdeg_census_size(args, result):
        return sum(census_size(args, per_class) for per_class in result.values())

    for name, holder, attr, size in (
            ("rotations.census", rotations, "_period_census", census_size),
            ("maps.census", maps, "_map_period_census", map_census_size),
            ("maps.btdeg_census", maps, "_btdeg_census_all", btdeg_census_size)):
        cached = getattr(holder, attr)
        tracer.caches[name] = cached
        tracer.rebind(cached, tracer.census(name, cached, size), [holder])


def _mul_ops(a, b) -> int:
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _divmod_ops(a, d) -> int:
    # long division: one product per divisor coefficient per quotient term
    return max(0, len(a.coeffs) - len(d.coeffs) + 1) * len(d.coeffs)


def merge(a: dict, b: dict) -> dict:
    """Sum two `Tracer.raw()` results (samples are concatenated)."""
    out = {"spans": {}, "edges": {}, "counters": {}, "samples": {}, "caches": {}}
    for part in (a, b):
        for name, agg in part.get("spans", {}).items():
            cur = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                cur[i] += agg[i]
        for key in ("edges", "counters"):
            for name, value in part.get(key, {}).items():
                out[key][name] = out[key].get(name, 0) + value
        for name, values in part.get("samples", {}).items():
            out["samples"].setdefault(name, []).extend(values)
        for name, (hits, misses) in part.get("caches", {}).items():
            cur = out["caches"].setdefault(name, [0, 0])
            cur[0] += hits
            cur[1] += misses
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better) in report order.

PER_LAYER = (
    ("trees.enumerate.scanned", "count", "lower"),
    ("trees.enumerate.members", "count", "lower"),
    ("trees.enumerate.yield_ratio", "ratio", "higher"),
    ("trees.enumerate.self_s", "s", "lower"),
    ("trees.stats.calls", "count", "lower"),
    ("trees.stats.self_s", "s", "lower"),
    ("trees.shift_root.calls", "count", "lower"),
    ("trees.shift_root.self_s", "s", "lower"),
    ("rotations.rotate.calls", "count", "lower"),
    ("rotations.rotate.self_s", "s", "lower"),
    ("rotations.rotate_per_member", "ratio", "lower"),
    ("rotations.fix_count_bruteforce.calls", "count", "lower"),
    ("rotations.fix_count_bruteforce.self_s", "s", "lower"),
    ("rotations.census.hits", "count", "higher"),
    ("rotations.census.misses", "count", "lower"),
    ("rotations.fix_count_closed.calls", "count", "lower"),
    ("rotations.fix_count_closed.self_s", "s", "lower"),
    ("rotations.closed_fallback.calls", "count", "lower"),
    ("maps.btree_degree_distributions.calls", "count", "lower"),
    ("maps.btree_degree_distributions.self_s", "s", "lower"),
    ("maps.enumerate_maps.members", "count", "lower"),
    ("maps.enumerate_maps.self_s", "s", "lower"),
    ("maps.rotate_btree.calls", "count", "lower"),
    ("maps.rotate_btree.self_s", "s", "lower"),
    ("maps.rotate_map.calls", "count", "lower"),
    ("maps.rotate_map.self_s", "s", "lower"),
    ("maps.rotate_ncm.calls", "count", "lower"),
    ("maps.rotate_ncm.self_s", "s", "lower"),
    ("maps.rotate_per_member", "ratio", "lower"),
    ("maps.fix_count_maps.self_s", "s", "lower"),
    ("maps.census.hits", "count", "higher"),
    ("maps.census.misses", "count", "lower"),
    ("maps.fix_count_maps_closed.self_s", "s", "lower"),
    ("qseries.to_polynomial.calls", "count", "lower"),
    ("qseries.to_polynomial.self_s", "s", "lower"),
    ("qseries.eval_expr_at_root.calls", "count", "lower"),
    ("qseries.eval_expr_at_root.self_s", "s", "lower"),
    ("qseries.eval_fallback_ratio", "ratio", "lower"),
    ("qseries.eval_at_primitive_root.self_s", "s", "lower"),
    ("qseries.cyclotomic.misses", "count", "lower"),
    ("qseries.cyclotomic.self_s", "s", "lower"),
    ("qseries.mul.calls", "count", "lower"),
    ("qseries.mul.ops", "ops_computed", "lower"),
    ("qseries.mul.self_s", "s", "lower"),
    ("qseries.divmod.calls", "count", "lower"),
    ("qseries.divmod.ops", "ops_computed", "lower"),
    ("qseries.divmod.self_s", "s", "lower"),
    ("csp.build_instance.calls", "count", "lower"),
    ("csp.build_instance.self_s", "s", "lower"),
    ("csp.verify.calls", "count", "lower"),
    ("csp.verify.self_s", "s", "lower"),
    ("csp.rows", "count", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(raw: dict, overhead_ratio: float) -> dict:
    """Name -> value for every PER_LAYER metric, from merged raw aggregates."""
    spans, edges = raw.get("spans", {}), raw.get("edges", {})
    counters, caches = raw.get("counters", {}), raw.get("caches", {})

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    def cache(*names):
        return [sum(caches.get(n, [0, 0])[i] for n in names) for i in (0, 1)]

    out = {}
    scanned = edges.get("trees.enumerate>trees.stats", 0)
    members = counters.get("trees.enumerate.members", 0)
    out["trees.enumerate.scanned"] = scanned
    out["trees.enumerate.members"] = members
    out["trees.enumerate.yield_ratio"] = ratio(members, scanned)
    out["trees.enumerate.self_s"] = self_s("trees.enumerate")
    for name in ("trees.stats", "trees.shift_root", "rotations.rotate",
                 "rotations.fix_count_bruteforce", "rotations.fix_count_closed",
                 "maps.btree_degree_distributions", "maps.rotate_btree",
                 "maps.rotate_map", "maps.rotate_ncm", "qseries.to_polynomial",
                 "qseries.eval_expr_at_root", "qseries.mul", "qseries.divmod",
                 "csp.build_instance", "csp.verify", "cli.run"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    out["rotations.rotate_per_member"] = ratio(
        calls("rotations.rotate"), counters.get("rotations.census.members", 0))
    out["rotations.census.hits"], out["rotations.census.misses"] = \
        cache("rotations.census")
    out["rotations.closed_fallback.calls"] = edges.get(
        "rotations.fix_count_closed>rotations.fix_count_bruteforce", 0)
    out["maps.enumerate_maps.members"] = counters.get("maps.enumerate_maps.members", 0)
    out["maps.enumerate_maps.self_s"] = self_s("maps.enumerate_maps")
    out["maps.rotate_per_member"] = ratio(
        sum(calls(n) for n in ("maps.rotate_btree", "maps.rotate_map", "maps.rotate_ncm")),
        counters.get("maps.census.members", 0) + counters.get("maps.btdeg_census.members", 0))
    out["maps.fix_count_maps.self_s"] = self_s("maps.fix_count_maps")
    out["maps.census.hits"], out["maps.census.misses"] = \
        cache("maps.census", "maps.btdeg_census")
    out["maps.fix_count_maps_closed.self_s"] = self_s("maps.fix_count_maps_closed")
    out["qseries.eval_fallback_ratio"] = ratio(
        edges.get("qseries.eval_expr_at_root>qseries.to_polynomial", 0),
        calls("qseries.eval_expr_at_root"))
    out["qseries.eval_at_primitive_root.self_s"] = self_s("qseries.eval_at_primitive_root")
    out["qseries.cyclotomic.misses"] = cache("qseries.cyclotomic")[1]
    out["qseries.cyclotomic.self_s"] = self_s("qseries.cyclotomic")
    out["qseries.mul.ops"] = counters.get("qseries.mul.ops", 0)
    out["qseries.divmod.ops"] = counters.get("qseries.divmod.ops", 0)
    out["csp.rows"] = counters.get("csp.verify.tally", 0)
    imports = sorted(raw.get("samples", {}).get("cli.import_s", []))
    out["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _, _ in PER_LAYER}
