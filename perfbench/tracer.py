"""Span recorder that wraps the package's public functions from outside.

Nothing is traced inside the package. ``install`` replaces every public
function of the six modules with a wrapper, and rebinds the wrapper
wherever the original is bound: the module globals (so nested calls such
as ``matsunaga_rows -> beta_numbers`` nest), the names other modules took
with ``from .x import``, and the callables held in
``distributions.FAMILIES``. Each wrapper records one span; spans are
aggregated as they close (self time per function, per-layer counters),
and only the set of functions seen under each ``cli.cmd_*`` span is kept.

Generator functions are counted but open no span: their time is charged
to the span that consumes them, which lies in the same layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exact", "partitions", "distributions", "asymptotic", "oeis", "cli")

# exact producers: functions whose result is a whole sequence or triangle
PRODUCERS = frozenset({
    "stirling_signed_rows", "stirling_unsigned_rows", "b_table_rows",
    "bell_numbers", "beta_numbers", "matsunaga_rows", "weighted_matsunaga_rows",
    "abs_matsunaga_row", "pn_at_n", "poisson_moments", "arima_rows",
})


def _rows(result) -> int:
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], list):
        return len(result[0])  # pn_at_n: (values, normalized)
    rows = getattr(result, "rows", result)
    return len(rows)


class Recorder:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.max_rows: dict[str, int] = {}
        self.under: defaultdict[str, set[str]] = defaultdict(set)
        self._stack: list[list] = []  # open spans: [child seconds, layer]
        self._cmd: str | None = None

    # ------------------------------------------------------------ wrapping

    def wrap(self, layer: str, qual: str, fn):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                self.calls[qual] += 1
                if self._cmd is not None:
                    self.under[self._cmd].add(qual)
                return fn(*args, **kwargs)

            return gen_wrapper

        measure = self._measure_for(qual)
        stack = self._stack
        is_cmd = qual.startswith("cli.cmd_")

        def wrapper(*args, **kwargs):
            parent_layer = stack[-1][1] if stack else None
            if self._cmd is not None:
                self.under[self._cmd].add(qual)
            elif is_cmd:
                self._cmd = qual
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                if is_cmd and self._cmd == qual:
                    self._cmd = None
                self.self_s[qual] += dt - frame[0]
                self.calls[qual] += 1
            if measure is not None:
                measure(result, parent_layer)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _measure_for(self, qual: str):
        layer, _, name = qual.partition(".")
        counts = self.counts
        if layer == "exact" and name in PRODUCERS:
            def rows_built(result, parent_layer):
                n = _rows(result)
                counts["exact.rows_built"] += n
                if n > self.max_rows.get(qual, -1):
                    self.max_rows[qual] = n
            return rows_built
        if qual in ("partitions.enumerate_partitions", "partitions.collect_stats",
                    "partitions.genjiko_patterns"):
            def visits(result, parent_layer):
                if parent_layer == "partitions":
                    return  # already counted by the enclosing oracle call
                if isinstance(result, int):
                    counts["partitions.visits"] += result
                elif isinstance(result, list):
                    counts["partitions.visits"] += len(result)
                else:
                    counts["partitions.visits"] += result.total
            return visits
        if qual == "distributions.pmf_from_weights":
            # every DiscretePMF of the package is made here
            def support(result, parent_layer):
                counts["distributions.support_points"] += len(result.weights)
            return support
        if layer == "asymptotic" and name.startswith("solve_") and name.endswith("_saddle"):
            def saddle(result, parent_layer):
                counts["asymptotic.saddle_solves"] += 1
                counts["asymptotic.saddle_iterations"] += result.iterations
            return saddle
        if qual == "oeis.check_bfile":
            def compared(result, parent_layer):
                counts["oeis.terms_compared"] += result.compared
            return compared
        return None

    # ------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Per-layer aggregates of everything recorded so far."""
        out: dict = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(c for q, c in self.calls.items() if q.startswith(prefix))
            out[f"{layer}.self_s"] = sum(s for q, s in self.self_s.items() if q.startswith(prefix))
        for key in ("exact.rows_built", "partitions.visits", "distributions.support_points",
                    "asymptotic.saddle_solves", "asymptotic.saddle_iterations",
                    "oeis.terms_compared"):
            out[key] = self.counts[key]
        out["exact.max_rows_sum"] = sum(self.max_rows.values())
        out["functions"] = {q: [self.calls[q], self.self_s[q]] for q in sorted(self.calls)}
        out["under"] = {cmd: sorted(names) for cmd, names in sorted(self.under.items())}
        return out


def public_functions(module) -> dict:
    """Module-level functions defined in the module whose names have no
    leading underscore."""
    return {
        name: obj for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def install(rec: Recorder) -> dict:
    """Wrap and rebind every public function of the six modules; return
    ``{qualified name: original function}`` for the wrapped callables."""
    modules = {layer: importlib.import_module(f"bellnum.{layer}") for layer in LAYERS}
    wrappers = {}
    originals = {}
    for layer, mod in modules.items():
        for name, fn in public_functions(mod).items():
            qual = f"{layer}.{name}"
            wrappers[fn] = rec.wrap(layer, qual, fn)
            originals[qual] = fn
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    families = modules["distributions"].FAMILIES
    for fam_name, fam in list(families.items()):
        changes = {}
        for field in ("build", "mu_asym", "sigma2_asym"):
            fn = getattr(fam, field)
            if fn in wrappers:
                changes[field] = wrappers[fn]
            else:  # a lambda of the FAMILIES table
                qual = f"distributions.FAMILIES[{fam_name}].{field}"
                changes[field] = rec.wrap("distributions", qual, fn)
                originals[qual] = fn
        families[fam_name] = dataclasses.replace(fam, **changes)
    return originals
