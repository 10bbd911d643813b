"""The four workloads: their fixed query lists and their checks.

A workload builds its queries from finord's public builders and the seeded
generator in ``gen``.  Each query is one call into the library, made
through a module attribute at call time so that the tracer's wrappers see
it.  ``check`` compares one pass's outputs with answers computed apart
from the program (``checks``) and returns the indices of wrong outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable

import finord.compiler as compiler
import finord.completions as completions
import finord.efgame as efgame
import finord.formula.builders as builders
import finord.formula.parser as parser
import finord.model as model
import finord.upsets as upsets
from finord.formula.nodes import Not, Or

import checks
import gen


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    # what the checks need to know about the query
    data: object = None
    # untimed preparation, run just before the timed call
    prepare: Callable[[], None] | None = None


class Raised:
    """Output of a query that raised instead of answering."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"Raised({self.exc!r})"


def _late(module, name: str, *args):
    """A call of ``module.name`` that looks the function up when it runs,
    so that wrappers the tracer installs later see it."""
    return lambda: getattr(module, name)(*args)


PSI_SUMS = [(("eq", 1), ("eq", 2)), (("gt", 0), ("gt", 1)),
            (("eq", 0), ("gt", 2)), (("gt", 1), ("eq", 3)),
            (("eq", 2), ("eq", 2))]


def _psi_sum(a, b):
    return (builders.build_sum(builders.build_psi(*a), builders.build_psi(*b)),
            checks.sum_set(checks.psi_set(*a), checks.psi_set(*b)))


def _valid_sentences():
    """Axioms, comprehension and induction instances: all valid."""
    return [f for group in (builders.base_axioms(), builders.comp_samples(),
                            builders.induction_samples())
            for _name, f in group]


def corpus_families():
    """(label, sentence, expected set) for the corpus-style families."""
    out = []
    for i in range(5):
        for kind in ("eq", "gt"):
            out.append((f"psi_{kind}_{i}", builders.build_psi(kind, i),
                        checks.psi_set(kind, i)))
    for d in (1, 2, 3):
        for h in range(1, d + 1):
            out.append((f"rho_{d}_{h}", builders.build_rho(d, h),
                        checks.rho_set(d, h)))
    for a, b in PSI_SUMS:
        f, want = _psi_sum(a, b)
        out.append((f"sum_{a[0]}{a[1]}_{b[0]}{b[1]}", f, want))
    for i, f in enumerate(_valid_sentences()):
        out.append((f"valid_{i}", f, checks.NATURALS))
    return out


class Workload:
    name = ""

    def __init__(self):
        self.queries: list[Query] = []
        self._references = None

    def check(self, outputs: list) -> set[int]:
        """Indices of outputs that raised or disagree with the
        independent answers (computed on the first call)."""
        if self._references is None:
            self._references = self.references()
        bad = {i for i, out in enumerate(outputs) if isinstance(out, Raised)}
        return bad | self.wrong(outputs, self._references)

    def references(self):
        raise NotImplementedError

    def wrong(self, outputs: list, refs) -> set[int]:
        raise NotImplementedError


class Spectra(Workload):
    """Parse a sentence's text, then compute its spectrum from cold caches."""
    name = "spectra"
    RANDOM_COUNT = 1200
    SLOW_MAX_N = 5

    def __init__(self, seed: int):
        super().__init__()
        items = corpus_families()
        items += [(f"rho_{d}_1", builders.build_rho(d, 1),
                   checks.rho_set(d, 1)) for d in range(4, 9)]
        items += [(f"psi_{kind}_{n}", builders.build_psi(kind, n),
                   checks.psi_set(kind, n))
                  for kind in ("eq", "gt") for n in (10, 20, 30, 40)]
        items += [(f"random_{i}", f, None) for i, f in
                  enumerate(gen.random_sentences(seed, self.RANDOM_COUNT))]
        self.queries = [
            Query(label, _parse_spectrum(parser.format_formula(f)),
                  (f, want), compiler.clear_caches)
            for label, f, want in items]

    def references(self):
        # expected sets for the families; slow recursion for the rest
        return [want if want is not None else
                [model.slow_evaluate(model.FiniteModel(n), f)
                 for n in range(self.SLOW_MAX_N + 1)]
                for f, want in (q.data for q in self.queries)]

    def wrong(self, outputs, refs):
        bad = set()
        for i, (q, ref, out) in enumerate(zip(self.queries, refs, outputs)):
            f = q.data[0]
            if isinstance(out, Raised):
                continue
            parsed, s = out
            if parsed != f or not checks.is_canonical(s):
                bad.add(i)
            elif isinstance(ref, checks.SizeSet):
                if not checks.spectrum_matches(s, ref):
                    bad.add(i)
            elif [checks.upset_member(s, n) for n in range(len(ref))] != ref:
                bad.add(i)
        return bad


def _parse_spectrum(text: str):
    def call():
        f = parser.parse(text)
        return f, compiler.spectrum(f)
    return call


class Evaluate(Workload):
    """Brute-force truth of sentences in the n-atom model."""
    name = "evaluate"
    RANDOM_COUNT = 1000
    MAX_N = 8
    # d -> largest n for rho(d, h).  rho(3, h) stops at n = 8: at n = 9 it
    # takes 550 MB, at n = 10 about 4 GB.
    RHO_MAX_N = {1: 9, 2: 9, 3: 8}
    SLOW_MAX_N = 3
    MAX_SET_DEPTH = 6  # the psi sums nest five set quantifiers

    def __init__(self, seed: int):
        super().__init__()
        cases = []
        for d in (1, 2, 3):
            for h in range(1, d + 1):
                f, want = builders.build_rho(d, h), checks.rho_set(d, h)
                cases += [(f"rho_{d}_{h}@{n}", f, n, want)
                          for n in range(d, self.RHO_MAX_N[d] + 1)]
        others = [item for item in corpus_families()
                  if not item[0].startswith("rho_")]
        others += [(f"random_{i}", f, None) for i, f in
                   enumerate(gen.random_sentences(seed, self.RANDOM_COUNT))]
        for label, f, want in others:
            cases += [(f"{label}@{n}", f, n, want)
                      for n in range(self.MAX_N + 1)]
        self.queries = [Query(label, _evaluate(f, n), (f, n, want))
                        for label, f, n, want in cases]

    def references(self):
        spectra = {}
        refs = []
        for f, n, want in (q.data for q in self.queries):
            if want is not None:
                refs.append(want.pred(n))
            elif n <= self.SLOW_MAX_N:
                refs.append(model.slow_evaluate(model.FiniteModel(n), f))
            else:
                if f not in spectra:
                    spectra[f] = compiler.spectrum(f)
                refs.append(checks.upset_member(spectra[f], n))
        return refs

    def wrong(self, outputs, refs):
        return {i for i, (out, ref) in enumerate(zip(outputs, refs))
                if not isinstance(out, Raised) and out is not ref}


def _evaluate(f, n: int):
    return lambda: model.evaluate(model.FiniteModel(n), f,
                                  max_set_depth=Evaluate.MAX_SET_DEPTH)


class Games(Workload):
    """Winners of comparison games between power sets of two orders."""
    name = "games"
    GRID = 10
    ADJACENT = {3: 8, 4: 7}   # rounds -> largest right-hand size
    NAIVE_MAX = 3

    def __init__(self, seed: int):
        super().__init__()
        keys = [(m, n, k) for k in range(3) for m in range(self.GRID + 1)
                for n in range(self.GRID + 1)]
        keys += [(m, m + 1, k) for k, top in self.ADJACENT.items()
                 for m in range(top)]
        self.queries = [Query(f"ef_{m}_{n}_{k}",
                              _late(efgame, "ef_equiv", m, n, k), (m, n, k))
                        for m, n, k in keys]

    def references(self):
        return {(m, n, k): checks.naive_duplicator_wins(m, n, k)
                for k in range(3) for m in range(self.NAIVE_MAX + 1)
                for n in range(self.NAIVE_MAX + 1)}

    def wrong(self, outputs, refs):
        keys = [q.data for q in self.queries]
        verdicts = {key: out for key, out in zip(keys, outputs)
                    if not isinstance(out, Raised)}
        bad = checks.game_violations(verdicts, refs)
        bad |= {key for key, out in verdicts.items()
                if not isinstance(out, bool)}
        return {i for i, key in enumerate(keys) if key in bad}


PRIME_POWERS = {2: 3, 3: 2, 5: 1, 7: 1, 11: 1}   # prime -> largest exponent


class Decide(Workload):
    """Warm-cache decisions at limit points, and point arithmetic."""
    name = "decide"
    POINTS = {"fin": 8, "zs": 8, "tab": 12}
    MUL_PAIRS = 120
    MODULI_PER_SPEC = 6
    CRT_SYSTEMS = 60
    SUM_PAIRS = 30
    SUM_MAX_PERIODS = 60   # bound on the product of two summands' periods

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        sentences = []
        for d in range(1, 6):
            for h in range(1, d + 1):
                sentences.append((builders.build_rho(d, h),
                                  checks.rho_set(d, h)))
        for (d1, h1), (d2, h2) in [((2, 1), (3, 1)), ((2, 2), (3, 2)),
                                   ((2, 1), (3, 3)), ((4, 3), (3, 2)),
                                   ((4, 1), (5, 2))]:
            sentences.append((Or(builders.build_rho(d1, h1),
                                 builders.build_rho(d2, h2)),
                              checks.union_set(checks.rho_set(d1, h1),
                                               checks.rho_set(d2, h2))))
        for i in range(5):
            for kind in ("eq", "gt"):
                sentences.append((builders.build_psi(kind, i),
                                  checks.psi_set(kind, i)))
        sentences += [_psi_sum(a, b) for a, b in PSI_SUMS]
        sentences += [(f, checks.NATURALS) for f in _valid_sentences()]
        sentences += [(Not(f), checks.complement_set(want))
                      for f, want in sentences]
        self.sentences = sentences
        # set-up: warm the spectrum cache
        spectra = [compiler.spectrum(f) for f, _want in sentences]

        points = [("fin", 0)]
        points += [("fin", n) for n in rng.sample(range(1, 40),
                                                  self.POINTS["fin"] - 1)]
        points += [("zs", c) for c in rng.sample(range(0, 120),
                                                 self.POINTS["zs"])]
        points += [("tab", _random_table(rng))
                   for _ in range(self.POINTS["tab"])]
        objs = [_to_point(p) for p in points]

        for p, obj in zip(points, objs):
            for j, (f, _want) in enumerate(sentences):
                self._add("models", (p, j),
                          _late(completions, "point_models", obj, f))
        pairs = [(0, i) for i in range(len(points))]
        pairs += [(i, 0) for i in range(len(points))]
        pairs += [(rng.randrange(len(points)), rng.randrange(len(points)))
                  for _ in range(self.MUL_PAIRS)]
        for i, j in pairs:
            self._add("mul", (points[i], points[j]),
                      _late(completions, "point_mul", objs[i], objs[j]))
        for p, obj in zip(points, objs):
            self._add("format", p, _late(completions, "format_point", obj))
            self._add("parse", p, _late(completions, "parse_point",
                                        checks.point_text(p)))
        for p, obj in zip(points, objs):
            if p[0] == "fin":
                continue
            for d in rng.sample(range(2, 61), self.MODULI_PER_SPEC):
                self._add("extend", (p, d),
                          _late(completions, "residue_extend", obj.spec, d))
        for _ in range(self.CRT_SYSTEMS):
            system = _random_congruences(rng)
            self._add("crt", system, _late(completions, "crt_solve", system))
        small = [j for j, (_f, want) in enumerate(sentences)
                 if want.period <= 12]
        for _ in range(self.SUM_PAIRS):
            i, j = rng.choice(small), rng.choice(small)
            while sentences[i][1].period * sentences[j][1].period \
                    > self.SUM_MAX_PERIODS:
                j = rng.choice(small)
            self._add("sum", (i, j), _late(upsets, "minkowski_sum",
                                           spectra[i], spectra[j]))

    def _add(self, kind, data, call):
        label = f"{kind}_{len(self.queries)}"
        self.queries.append(Query(label, call, (kind, data)))

    def references(self):
        refs = []
        for kind, data in (q.data for q in self.queries):
            if kind == "models":
                p, j = data
                want = self.sentences[j][1]
                refs.append(want.pred(p[1]) if p[0] == "fin"
                            else checks.inf_expected(want, p))
            elif kind == "mul":
                refs.append(checks.point_add(*data))
            elif kind == "format":
                refs.append(checks.point_text(data))
            elif kind == "parse":
                refs.append(data)
            elif kind == "extend":
                refs.append(checks.residue_expected(*data))
            elif kind == "crt":
                refs.append(None)
            else:
                i, j = data
                refs.append(checks.canonical(checks.sum_set(
                    self.sentences[i][1], self.sentences[j][1])))
        return refs

    def wrong(self, outputs, refs):
        bad = set()
        answers = {}
        for i, (q, ref, out) in enumerate(zip(self.queries, refs, outputs)):
            kind, data = q.data
            if isinstance(out, Raised):
                continue
            if kind == "models":
                got = None if out is completions.UNDETERMINED else out
                answers[data] = (i, got)
                ok = got is ref
            elif kind in ("mul", "parse"):
                ok = _from_point(out) == ref
            elif kind == "format":
                ok = out == ref
            elif kind == "extend":
                ok = (out is completions.UNDETERMINED) if ref is None \
                    else out == ref
            elif kind == "crt":
                ok = checks.crt_ok(data, out)
            else:
                ok = checks.upset_fields(out) == ref
            if not ok:
                bad.add(i)
        # f and Not f are exclusive, and undetermined together
        half = len(self.sentences) // 2
        for (p, j), (i, got) in answers.items():
            if j >= half or (p, j + half) not in answers:
                continue
            k, neg = answers[(p, j + half)]
            if (got is None) != (neg is None) or (
                    got is not None and got == neg):
                bad.update({i, k})
        return bad


def _random_table(rng: random.Random):
    entries = []
    for prime, top in PRIME_POWERS.items():
        if rng.random() < 0.6:
            q = prime ** rng.randint(1, top)
            entries.append((q, rng.randrange(q)))
    return tuple(sorted(entries))


def _random_congruences(rng: random.Random):
    moduli = []
    for m in rng.sample(range(2, 40), 12):
        if all(gcd(m, other) == 1 for other in moduli):
            moduli.append(m)
        if len(moduli) == 4:
            break
    return tuple((m, rng.randrange(3 * m)) for m in moduli)


def _to_point(p):
    if p[0] == "fin":
        return completions.Fin(p[1])
    if p[0] == "zs":
        return completions.Inf(completions.ZeroShift(p[1]))
    return completions.Inf(completions.Table(p[1]))


def _from_point(obj):
    if isinstance(obj, completions.Fin):
        return ("fin", obj.n)
    if isinstance(obj, completions.Inf):
        spec = obj.spec
        if isinstance(spec, completions.ZeroShift):
            return ("zs", spec.c)
        if isinstance(spec, completions.Table):
            return ("tab", tuple(sorted(spec.entries)))
    return ("unknown", repr(obj))


WORKLOADS = {w.name: w for w in (Spectra, Evaluate, Games, Decide)}
