"""Spans and counts around calls into adual's public functions.

The tracer replaces each listed function object in every `adual.*` module
namespace that binds it (`from .core import f` copies the binding, so
`duality.enumerate_homs` and `core.enumerate_homs` are both wrapped).  Spans
are kept in memory as (name, start_ns, end_ns, parent, job, pass) and
written out when the run ends.  Counts are taken at the same boundaries from
arguments and results.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = {
    "core": (
        "closed_product_subset",
        "subuniverse_carriers",
        "enumerate_homs",
        "extend_partial_map",
        "power_algebra",
        "is_compatible_relation",
    ),
    "affine": ("find_affine_term", "lift_term_to_power", "eval_affine_combination"),
    "subcong": ("verify_galois", "meet_irreducibles", "kernel_quotient"),
    "homgroups": ("build_hk_group", "generating_family", "hom_divisibility_check"),
    "factorize": ("factor_morphism",),
    "entailment": ("reduce_to_bounded_arity", "verify_certificate", "refute_entailment"),
    "duality": ("build_alter_ego", "dual_of", "double_dual"),
    "textio": ("parse_document",),
    "cli": ("main",),
}
TRACED = [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _dual_counts(args, kwargs, D):
    h = len(D.homs)
    return {
        "index_tuples": sum(h**rel.arity for rel in D.ego.relations),
        "lifted_tuples": sum(len(t) for t in D.lifted),
    }


# Work counts from arguments and results, per traced function.
COUNTERS = {
    "core.closed_product_subset": lambda a, k, r: {"members": len(r)},
    "core.subuniverse_carriers": lambda a, k, r: {"carriers": len(r)},
    "core.enumerate_homs": lambda a, k, r: {"homs": len(r)},
    "core.power_algebra": lambda a, k, r: {"cells": sum(len(o.table) for o in r.ops)},
    "affine.lift_term_to_power": lambda a, k, r: {"cells": len(r.table)},
    "duality.build_alter_ego": lambda a, k, r: {"relations": len(r.relations)},
    "duality.dual_of": _dual_counts,
    "duality.double_dual": lambda a, k, r: {
        "candidates": _first(a, k).ego.base.size ** len(_first(a, k).homs),
        "survivors": len(r),
    },
    "homgroups.build_hk_group": lambda a, k, r: {"order": r.size},
}

# (child, parent, metric): child calls made directly by the parent.
CHILD_COUNTS = [
    ("core.closed_product_subset", "core.subuniverse_carriers", "core.subuniverse_carriers.closures"),
    ("core.extend_partial_map", "core.enumerate_homs", "core.enumerate_homs.assignments"),
]

# (metric, numerator, base): each ratio is reported next to its base.
RATIOS = [
    ("core.subuniverse_carriers.closures_per_carrier", "core.subuniverse_carriers.closures",
     "core.subuniverse_carriers.carriers"),
    ("core.enumerate_homs.hit_ratio", "core.enumerate_homs.homs", "core.enumerate_homs.assignments"),
    ("duality.dual_of.lifted_ratio", "duality.dual_of.lifted_tuples", "duality.dual_of.index_tuples"),
    ("duality.double_dual.survivor_ratio", "duality.double_dual.survivors",
     "duality.double_dual.candidates"),
]

COUNT_METRICS = [
    "core.closed_product_subset.members",
    "core.subuniverse_carriers.carriers",
    "core.enumerate_homs.homs",
    "core.enumerate_homs.assignments",
    "core.power_algebra.cells",
    "affine.lift_term_to_power.cells",
    "duality.build_alter_ego.relations",
    "duality.dual_of.index_tuples",
    "duality.dual_of.lifted_tuples",
    "duality.double_dual.candidates",
    "duality.double_dual.survivors",
    "homgroups.build_hk_group.order",
]


def metric_units():
    """Every per-layer metric and its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({metric: "count" for metric in COUNT_METRICS})
    units.update({metric: "ratio" for metric, _, _ in RATIOS})
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self, now_ns=perf_counter_ns):
        self.now_ns = now_ns
        self.spans = []
        self.stack = []
        self.counts = []  # one Counter per pass
        self.job = -1
        self.pass_index = -1
        self._undo = []

    def begin_pass(self):
        self.pass_index += 1
        self.counts.append(Counter())

    def begin_job(self):
        self.job += 1

    def _wrap(self, name, fn):
        spans, stack, now_ns = self.spans, self.stack, self.now_ns
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job, self.pass_index)
            if counter is not None:
                self.counts[-1].update(
                    {f"{name}.{key}": v for key, v in counter(args, kwargs, result).items()}
                )
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "adual" or n.startswith("adual.")]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules.get(f"adual.{module}"), attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        self._undo.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()

    def per_pass(self):
        """One dict of per-layer metrics per traced pass."""
        passes = defaultdict(lambda: {"calls": Counter(), "self": Counter(), "child": Counter()})
        child_dur = [0] * len(self.spans)
        for name, start, end, parent, _, p in self.spans:
            if parent >= 0:
                child_dur[parent] += end - start
        for sid, (name, start, end, parent, _, p) in enumerate(self.spans):
            agg = passes[p]
            agg["calls"][name] += 1
            agg["self"][name] += end - start - child_dur[sid]
            if parent >= 0:
                agg["child"][(name, self.spans[parent][0])] += 1
        out = []
        for p in range(self.pass_index + 1):
            agg = passes[p]
            m = {}
            for name in TRACED:
                m[f"{name}.calls"] = agg["calls"][name]
                m[f"{name}.self_s"] = agg["self"][name] / 1e9
            counts = self.counts[p]
            for child, parent, metric in CHILD_COUNTS:
                counts[metric] = agg["child"][(child, parent)]
            for metric in COUNT_METRICS:
                m[metric] = counts[metric]
            for metric, num, base in RATIOS:
                m[metric] = counts[num] / counts[base] if counts[base] else 0.0
            out.append(m)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,job,pass\n")
            for sid, span in enumerate(self.spans):
                fh.write(f"{sid}," + ",".join(map(str, span)) + "\n")


def median_metrics(per_pass):
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
