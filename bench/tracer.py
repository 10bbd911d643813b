"""Per-layer tracing by wrapping finord's public functions from outside.

Every wrapped call records its self time: the time inside the call minus
the time spent in wrapped calls it made.  A few wrappers also count the
work handed to them (automaton states and letters, game positions, cache
hits).  A wrapper replaces its function wherever a finord module holds a
reference to it, so calls from one module into another are seen too;
nothing under ``src/`` changes.  The tracer records only while ``active``
is set, so the benchmark's own correctness checks never count.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc
from time import perf_counter

# (module, attribute, metric prefix); a dotted attribute names a method.
TARGETS = [
    ("finord.formula.parser", "parse", "parser.parse"),
    ("finord.formula.sugar", "desugar", "sugar.desugar"),
    ("finord.compiler", "compile", "compiler.compile_self"),
    ("finord.compiler", "base_automaton", "compiler.base_automaton"),
    ("finord.compiler", "spectrum", "compiler.spectrum_self"),
    ("finord.automata", "combine", "automata.combine"),
    ("finord.automata", "project", "automata.project"),
    ("finord.automata", "minimize", "automata.minimize"),
    ("finord.automata", "cylindrify", "automata.cylindrify"),
    ("finord.automata", "complement", "automata.complement"),
    ("finord.automata", "lasso_spectrum", "automata.lasso_spectrum"),
    ("finord.automata", "concat", "automata.concat"),
    ("finord.upsets", "UPSet.canonicalize", "upsets.canonicalize"),
    ("finord.upsets", "to_normal_form", "upsets.to_normal_form"),
    ("finord.upsets", "minkowski_sum", "upsets.minkowski_sum"),
    ("finord.model", "evaluate", "model.evaluate_self"),
    ("finord.model", "FiniteModel.bit_tables", "model.bit_tables"),
    ("finord.efgame", "ef_winner", "efgame.ef_winner_self"),
    ("finord.efgame", "atomic_agreement", "efgame.atomic_agreement"),
    ("finord.completions", "point_models", "completions.point_models_self"),
    ("finord.completions", "residue_extend", "completions.residue_extend"),
    ("finord.completions", "crt_solve", "completions.crt_solve"),
    ("finord.completions", "point_mul", "completions.point_mul"),
    ("finord.completions", "parse_point", "completions.parse_point"),
    ("finord.completions", "format_point", "completions.format_point"),
]

# Calls of these wrapped functions are counted under the given name.
_CALL_COUNTS = {
    "compiler.compile_self": "compiler.compile_calls",
    "automata.combine": "automata.combine_calls",
    "automata.project": "automata.project_calls",
    "automata.minimize": "automata.minimize_calls",
    "upsets.canonicalize": "upsets.canonicalize_calls",
    "model.evaluate_self": "model.evaluate_calls",
    "efgame.atomic_agreement": "efgame.positions",
}

COUNTS = sorted(set(_CALL_COUNTS.values()) | {
    "compiler.spectrum_hits", "compiler.spectrum_misses",
    "automata.states_in", "automata.states_out", "automata.max_states",
    "automata.max_width", "automata.transition_cells"})

# Every per-layer metric and its unit.
UNITS = {f"{prefix}_ms": "ms" for _, _, prefix in TARGETS}
UNITS.update(dict.fromkeys(COUNTS, "count"))
UNITS["model.peak_traced_mb"] = "MB"


class Tracer:
    """Per-layer totals, reset at the start of every pass.  Time that the
    speed sampler's signal handler spends inside a call (``sampler.spent``)
    is left out of it."""

    def __init__(self, sampler):
        self.active = False
        self.totals = dict.fromkeys(UNITS, 0.0)
        self._sampler = sampler
        self._stack: list[float] = []
        self._lasso_calls = 0

    def reset(self) -> None:
        self.totals.update(dict.fromkeys(UNITS, 0.0))

    def snapshot(self) -> dict[str, float]:
        """This pass's totals, times in ms."""
        return {name: value * 1000.0 if UNITS[name] == "ms" else value
                for name, value in self.totals.items()}

    def install(self) -> None:
        for module_name, attr, prefix in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, name, self._wrap(getattr(owner, name), prefix))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(original, prefix)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "finord" and not mod_name.startswith("finord."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, prefix: str):
        time_key = f"{prefix}_ms"
        count_key = _CALL_COUNTS.get(prefix)
        hook = _HOOKS.get(prefix)
        totals, stack, sampler = self.totals, self._stack, self._sampler

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            after = hook(self, args) if hook else None
            result = None
            paused = sampler.spent
            start = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start - (sampler.spent - paused)
                totals[time_key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if count_key:
                    totals[count_key] += 1
                if after:
                    after(result)

        wrapper.__wrapped__ = fn
        return wrapper


def _minimize_hook(tracer: Tracer, args):
    a, t = args[0], tracer.totals
    t["automata.states_in"] += a.n_states
    t["automata.transition_cells"] += a.n_states << a.width
    t["automata.max_states"] = max(t["automata.max_states"], a.n_states)
    t["automata.max_width"] = max(t["automata.max_width"], a.width)

    def after(result):
        if result is not None:
            t["automata.states_out"] += result.n_states
    return after


def _lasso_hook(tracer: Tracer, args):
    tracer._lasso_calls += 1


def _spectrum_hook(tracer: Tracer, args):
    """A spectrum call that reached lasso extraction missed the cache."""
    before = tracer._lasso_calls

    def after(result):
        missed = tracer._lasso_calls != before
        tracer.totals["compiler.spectrum_misses" if missed
                      else "compiler.spectrum_hits"] += 1
    return after


def _evaluate_hook(tracer: Tracer, args):
    """Peak traced memory of one evaluate call; numpy reports its buffers
    to tracemalloc."""
    tracemalloc.start()

    def after(result):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        key = "model.peak_traced_mb"
        tracer.totals[key] = max(tracer.totals[key], peak / 2 ** 20)
    return after


_HOOKS = {
    "automata.minimize": _minimize_hook,
    "automata.lasso_spectrum": _lasso_hook,
    "compiler.spectrum_self": _spectrum_hook,
    "model.evaluate_self": _evaluate_hook,
}
