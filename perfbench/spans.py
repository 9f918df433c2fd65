"""Per-layer tracing for the traced run, done entirely from outside ``src/``.

:meth:`Tracer.install` wraps the public entry points of each layer (a
module of the package) in every module that holds them by name and records
one span per call; :meth:`Tracer.uninstall` puts the originals back.  A
span's self time is its duration minus the time of the spans it caused.
Spans stay in memory until :meth:`Tracer.write`.

When the compiled kernels are active, every compiled kernel call is kept
with its arguments and result and replayed through the pure-Python kernels
afterwards; ``kernel.parity_mismatches`` counts disagreements.
"""

from __future__ import annotations

import copy
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import seatlot

KERNELS = ("systematic_round_ints", "fixed_order_cells", "averaged_mask_lengths",
           "simulate_batch", "conditional_batch", "resample_batch")

# (module, attribute, span name); an attribute "Class.method" wraps a method.
TARGETS = [
    ("seatlot.cli", "main", "cli.main"),
    ("seatlot.cli", "parse_census", "cli.parse_census"),
    ("seatlot.cli", "fraction_str", "cli.render"),
    ("seatlot.cli", "decimal_str", "cli.render"),
    ("seatlot.cli", "Emitter.rows", "cli.render"),
    ("seatlot.cli", "Emitter.record", "cli.render"),
    ("seatlot.cli", "Emitter.note", "cli.render"),
    ("seatlot.core", "compute_quota", "core.compute_quota"),
    ("seatlot.lowerbound", "iterate_lower_bound",
     "lowerbound.iterate_lower_bound"),
    ("seatlot.lowerbound", "lower_bound_apportion",
     "lowerbound.lower_bound_apportion"),
    ("seatlot.stochastic", "stochastic_apportion",
     "stochastic.stochastic_apportion"),
    ("seatlot.stochastic", "_scheme_draw", "stochastic.scheme_draw"),
    ("seatlot.stochastic", "exact_distribution",
     "stochastic.exact_distribution"),
    ("seatlot.montecarlo", "simulate", "montecarlo.simulate"),
    ("seatlot.divisor", "divisor_apportion", "divisor.divisor_apportion"),
    ("seatlot.divisor", "divisor_with_bounds", "divisor.divisor_with_bounds"),
    ("seatlot.divisor", "hamilton_apportion", "divisor.hamilton_apportion"),
    ("seatlot.divisor", "detect_alabama", "divisor.detect_alabama"),
] + [(module, fn, f"kernel.{fn}")
     for module in ("seatlot._backend", "seatlot._kernels_py",
                    "seatlot._kernels_c")
     for fn in KERNELS]

# (name, unit, better); "per op" divides by the ops of the traced pass.
METRICS = [
    ("cli.parse_census.self_ms", "ms/op", "lower"),
    ("cli.render.self_ms", "ms/op", "lower"),
    ("cli.render.bytes", "B/op", "lower"),
    ("cli.main.self_ms", "ms/op", "lower"),
    ("core.compute_quota.calls_per_op", "1/op", "lower"),
    ("core.compute_quota.self_ms", "ms/op", "lower"),
    ("lowerbound.iterate_lower_bound.self_ms", "ms/op", "lower"),
    ("lowerbound.rounds_per_call", "1/call", "lower"),
    ("lowerbound.lower_bound_apportion.self_ms", "ms/op", "lower"),
    ("stochastic.stochastic_apportion.self_ms", "ms/op", "lower"),
    ("stochastic.scheme_draw.self_ms", "ms/op", "lower"),
    ("stochastic.exact_distribution.self_ms", "ms/op", "lower"),
    ("stochastic.law_support", "1/call", "lower"),
    ("kernel.systematic_round_ints.calls", "1/op", "lower"),
    ("kernel.systematic_round_ints.self_us", "us/call", "lower"),
    ("kernel.simulate_batch.self_ms", "ms/op", "lower"),
    ("kernel.simulate_batch.replicates", "1/op", "higher"),
    ("kernel.averaged_mask_lengths.self_ms", "ms/op", "lower"),
    ("kernel.averaged_mask_lengths.orderings", "1/op", "lower"),
    ("kernel.pure_calls", "1/op", "lower"),
    ("kernel.compiled_calls", "1/op", "higher"),
    ("kernel.fallback_ratio", "ratio", "lower"),
    ("kernel.parity_mismatches", "count", "lower"),
    ("montecarlo.simulate.self_ms", "ms/op", "lower"),
    ("divisor.divisor_apportion.self_ms", "ms/op", "lower"),
    ("divisor.divisor_apportion.seats", "1/call", "higher"),
    ("divisor.divisor_with_bounds.self_ms", "ms/op", "lower"),
    ("divisor.hamilton_apportion.self_ms", "ms/op", "lower"),
    ("divisor.detect_alabama.self_ms", "ms/op", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _getter(fn, name):
    """Reads argument ``name`` of a call to ``fn``, however it was passed."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, op, name, start, end)
        self.stack = []          # [id, name, start, child time, parent]
        self.next_id = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.compiled_log = []   # (kernel, args, kwargs, result) to replay
        self.op = None
        self.op_s = 0.0          # wall time of the ops traced
        self.ops = 0
        self._restore = []
        self._pure = {}

    # -- spans --------------------------------------------------------------

    def enter(self, name):
        parent = self.stack[-1][0] if self.stack else None
        self.next_id += 1
        self.stack.append([self.next_id, name, perf_counter(), 0.0, parent])

    def exit(self):
        end = perf_counter()
        sid, name, start, child, parent = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][3] += duration
        self.spans.append((sid, parent, self.op, name, start, end))

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                start = perf_counter()
                hook(args, kwargs, result)
                if self.stack:  # hook time is no layer's self time
                    self.stack[-1][3] += perf_counter() - start
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers ----------------------------------------------

    def _hook(self, module, attr, fn):
        counts = self.counts
        if module == "seatlot._backend":
            if attr == "simulate_batch":
                replicates = _getter(fn, "n")

                def hook(args, kwargs, result):
                    counts["dispatch"] += 1
                    counts["replicates"] += replicates(args, kwargs)
            elif attr == "averaged_mask_lengths":
                nums, fix_last = _getter(fn, "frac_nums"), _getter(fn, "fix_last")

                def hook(args, kwargs, result):
                    counts["dispatch"] += 1
                    s = len(nums(args, kwargs))
                    fix = fix_last(args, kwargs) and s > 1
                    counts["orderings"] += math.factorial(s - 1 if fix else s)
            else:
                def hook(args, kwargs, result):
                    counts["dispatch"] += 1
                    counts[f"calls:{attr}"] += 1
            return hook
        if module == "seatlot._kernels_py":
            def hook(args, kwargs, result):
                counts["pure"] += 1
            return hook
        if module == "seatlot._kernels_c":
            log = self.compiled_log

            def hook(args, kwargs, result):
                counts["compiled"] += 1
                log.append((attr, copy.deepcopy(args), copy.deepcopy(kwargs),
                            copy.deepcopy(result)))
            return hook
        if attr == "iterate_lower_bound":
            def hook(args, kwargs, result):
                counts["rounds"] += len(getattr(result, "rounds", ()))
            return hook
        if attr == "exact_distribution":
            def hook(args, kwargs, result):
                counts["law_support"] += len(result)
            return hook
        if attr == "divisor_apportion":
            prob = _getter(fn, "prob")

            def hook(args, kwargs, result):
                counts["divisor_seats"] += prob(args, kwargs).seats
            return hook
        return None

    def install(self):
        for module, attr, name in TARGETS:
            mod = sys.modules.get(module)
            holder_name, _, method = attr.rpartition(".")
            holder = getattr(mod, holder_name, None) if holder_name else mod
            original = getattr(holder, method, None)
            if original is None:
                continue  # layer entry point absent in this tree
            if module == "seatlot._kernels_py":
                self._pure[method] = original
            wrapper = self.wrap(name, original,
                                self._hook(module, method, original))
            if holder_name:
                self._patch(holder, method, original, wrapper)
                continue
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("seatlot")
                        and getattr(other, method, None) is original):
                    self._patch(other, method, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        self._restore.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def parity_mismatches(self) -> int:
        def canon(value):
            if isinstance(value, (list, tuple)):
                return [canon(v) for v in value]
            return value
        return sum(canon(self._pure[kernel](*args, **kwargs)) != canon(result)
                   for kernel, args, kwargs, result in self.compiled_log)

    def metrics(self, untraced_s: float, render_bytes: int,
                parity_mismatches: int) -> dict:
        ops = max(self.ops, 1)
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def per_op_ms(name):
            return 1000 * self_s[name] / ops

        def per_call(total, name):
            return total / calls[name] if calls[name] else 0.0

        dispatch = counts["dispatch"]
        # A dispatcher span and the implementation span nested in it share
        # one name, so kernel self time includes the dispatch cost.
        round_calls = counts["calls:systematic_round_ints"]
        values = {
            "cli.render.bytes": render_bytes / ops,
            "core.compute_quota.calls_per_op":
                calls["core.compute_quota"] / ops,
            "lowerbound.rounds_per_call":
                per_call(counts["rounds"], "lowerbound.iterate_lower_bound"),
            "stochastic.law_support":
                per_call(counts["law_support"], "stochastic.exact_distribution"),
            "kernel.systematic_round_ints.calls": round_calls / ops,
            "kernel.systematic_round_ints.self_us":
                1e6 * self_s["kernel.systematic_round_ints"] / round_calls
                if round_calls else 0.0,
            "kernel.simulate_batch.replicates": counts["replicates"] / ops,
            "kernel.averaged_mask_lengths.orderings": counts["orderings"] / ops,
            "kernel.pure_calls": counts["pure"] / ops,
            "kernel.compiled_calls": counts["compiled"] / ops,
            "kernel.fallback_ratio":
                counts["pure"] / dispatch
                if dispatch and seatlot.kernel_backend == "compiled" else 0.0,
            "kernel.parity_mismatches": parity_mismatches,
            "divisor.divisor_apportion.seats":
                per_call(counts["divisor_seats"], "divisor.divisor_apportion"),
            "trace.attributed_ratio": sum(self_s.values()) / self.op_s
            if self.op_s else 0.0,
            "trace.overhead_ratio": self.op_s / untraced_s if untraced_s else 0.0,
        }
        out = {}
        for name, unit, _better in METRICS:
            value = values.get(name)
            if value is None:
                value = per_op_ms(name.rsplit(".", 1)[0])
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as stream:
            for sid, parent, op, name, start, end in sorted(self.spans):
                stream.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start_s": start, "end_s": end}) + "\n")
