"""Layer spans and counts for the traced benchmark run.

`Tracer.install()` replaces the public function at each layer boundary with
a wrapper that records a span (name, start, end, parent) and the counts the
layer metrics need.  Spans are folded into per-name totals as they close, so
memory stays constant however many calls a run makes; a span's self time is
its duration minus the time covered by its direct child spans.

Several modules bind these functions by name at import (`lengths` imports
`product_array`, `minimalize_array` and `count_grid`; `buchsbaum_rim` and
`harness` import `stabilize` and `br_via_mixed`), so every `multlab` module
attribute that holds the original object is patched, not only the defining
one.  Nothing here changes what the functions compute.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, attribute, layer metric prefix)
TARGETS = (
    ("multlab.monomial", "product_array", "monomial.product_array"),
    ("multlab.monomial", "minimalize_array", "monomial.minimalize_array"),
    ("multlab.counting", "count_grid", "counting.count_grid"),
    ("multlab.lengths", "ProductSampler.colength_at",
     "lengths.ProductSampler.colength_at"),
    ("multlab.multiplicity", "stabilize", "multiplicity.stabilize"),
    ("multlab.buchsbaum_rim", "br_direct", "buchsbaum_rim.br_direct"),
    ("multlab.buchsbaum_rim", "br_via_mixed", "buchsbaum_rim.br_via_mixed"),
    ("multlab.buchsbaum_rim", "module_colength", "buchsbaum_rim.module_colength"),
    ("multlab.closure", "integral_closure", "closure.integral_closure"),
    ("multlab.closure", "newton_polyhedron_member",
     "closure.newton_polyhedron_member"),
    ("multlab.closure", "_phase_one_feasible", "closure._phase_one_feasible"),
    ("multlab.harness", "run_instance", "harness.run_instance"),
)
MEMO_LAYER = "lengths.ProductSampler.colength_at"


def _initial_base(order, policy):
    """The first base `stabilize` tries, mirroring its documented default."""
    start = None if policy is None else policy.initial_base
    if start is None:
        return max(2, max(order))
    if isinstance(start, int):
        return start
    return int(start[0])


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []  # one [child_seconds] cell per open span

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name, fn):
        stack, observe = self._stack, _OBSERVERS.get(name)
        memo = name == MEMO_LAYER

        def traced(*args, **kwargs):
            cell = [0.0]
            parent = stack[-1] if stack else None
            before = self._work_done() if memo else None
            stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - cell[0]
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            if memo and before == self._work_done():
                self.counts["colength_at.memo_hits"] += 1
            return result

        return traced

    def _work_done(self):
        """Products and counts so far: a sampler call that adds none was memoized."""
        return (self.calls["monomial.product_array"], self.calls["counting.count_grid"])

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "multlab" or n.startswith("multlab."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    # -- results ----------------------------------------------------------

    def raw(self) -> dict:
        """Additive totals, so shards can be summed before ratios are taken."""
        out = dict(self.counts)
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        return out


def _observe_product(counts, args, kwargs, result):
    counts["product_array.rows_out"] += int(result.shape[0])


def _observe_minimalize(counts, args, kwargs, result):
    counts["minimalize_array.rows_in"] += int(args[0].shape[0])
    counts["minimalize_array.rows_out"] += int(result.shape[0])


def _observe_count(counts, args, kwargs, result):
    gens, box = args[0], [int(b) for b in args[1]]
    counts["count_grid.gens"] += len(gens)
    volume = 1
    for b in box:
        volume *= max(b, 0)
    counts["count_grid.cells"] += volume // max(box) if volume else 0


def _observe_stabilize(counts, args, kwargs, result):
    order = tuple(args[1])
    policy = args[2] if len(args) > 2 else kwargs.get("policy")
    growth = 2 if policy is None else policy.growth
    base, rounds = _initial_base(order, policy), 1
    while base < result.base[0]:
        base *= growth
        rounds += 1
    counts["stabilize.rounds"] += rounds
    counts["stabilize.points"] += len(result.samples)


_OBSERVERS = {
    "monomial.product_array": _observe_product,
    "monomial.minimalize_array": _observe_minimalize,
    "counting.count_grid": _observe_count,
    "multiplicity.stabilize": _observe_stabilize,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from summed raw totals."""
    g = lambda key: raw.get(key, 0)  # noqa: E731
    p, m, c = "monomial.product_array", "monomial.minimalize_array", "counting.count_grid"
    s, st = "lengths.ProductSampler.colength_at", "multiplicity.stabilize"
    return {
        f"{p}.calls": g(f"{p}.calls"),
        f"{p}.self_s": g(f"{p}.self_s"),
        f"{p}.rows_out": g("product_array.rows_out"),
        f"{m}.calls": g(f"{m}.calls"),
        f"{m}.self_s": g(f"{m}.self_s"),
        f"{m}.rows_in": g("minimalize_array.rows_in"),
        f"{m}.keep_ratio": _ratio(g("minimalize_array.rows_out"), g("minimalize_array.rows_in")),
        f"{m}.per_product": _ratio(g(f"{m}.calls"), g(f"{p}.calls")),
        f"{c}.calls": g(f"{c}.calls"),
        f"{c}.self_s": g(f"{c}.self_s"),
        f"{c}.gens": g("count_grid.gens"),
        f"{c}.cells": g("count_grid.cells"),
        f"{s}.calls": g(f"{s}.calls"),
        f"{s}.self_s": g(f"{s}.self_s"),
        f"{s}.memo_hit_ratio": _ratio(g("colength_at.memo_hits"), g(f"{s}.calls")),
        f"{st}.calls": g(f"{st}.calls"),
        f"{st}.self_s": g(f"{st}.self_s"),
        f"{st}.rounds": g("stabilize.rounds"),
        f"{st}.points": g("stabilize.points"),
        "buchsbaum_rim.br_direct.total_s": g("buchsbaum_rim.br_direct.total_s"),
        "buchsbaum_rim.br_via_mixed.total_s": g("buchsbaum_rim.br_via_mixed.total_s"),
        "buchsbaum_rim.module_colength.calls": g("buchsbaum_rim.module_colength.calls"),
        "closure.integral_closure.calls": g("closure.integral_closure.calls"),
        "closure.integral_closure.total_s": g("closure.integral_closure.total_s"),
        "closure.newton_polyhedron_member.calls": g("closure.newton_polyhedron_member.calls"),
        "closure.newton_polyhedron_member.self_s": g("closure.newton_polyhedron_member.self_s"),
        "closure._phase_one_feasible.calls": g("closure._phase_one_feasible.calls"),
        "closure._phase_one_feasible.self_s": g("closure._phase_one_feasible.self_s"),
        "harness.run_instance.calls": g("harness.run_instance.calls"),
        "harness.run_instance.self_s": g("harness.run_instance.self_s"),
    }
