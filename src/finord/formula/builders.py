"""Sentence builders: size counters, residue classifiers, relativized sums,
comprehension instances, the base axioms, and normal-form reconstruction.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..upsets import NormalFormDescriptor
from .nodes import (And, At, AtomVar, BOT, Eq, Exle, ExistsAtom, ExistsSet,
                    FALSE, ForallAtom, ForallSet, Formula, Iff, Implies, MAX,
                    MIN, Mem, Not, Or, SetVar, Subset, TRUE, all_identifiers,
                    free_vars, fresh_names)
from .sugar import desugar, relativize

x_, y_, z_ = AtomVar("x"), AtomVar("y"), AtomVar("z")


def conj(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return TRUE
    f = parts[0]
    for p in parts[1:]:
        f = And(f, p)
    return f


def disj(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return FALSE
    f = parts[0]
    for p in parts[1:]:
        f = Or(f, p)
    return f


def build_psi(kind: str, n: int) -> Formula:
    """kind "gt": more than n atoms.  kind "eq": exactly n atoms.

    The count is expressed as an increasing chain of atoms (equivalent to
    pairwise-distinct existentials once atoms are linearly ordered), which
    keeps the number of simultaneously live variables constant.
    """
    if n < 0:
        raise ValueError("n must be a natural")
    if kind == "gt":
        return _chain(n + 1)
    if kind == "eq":
        if n == 0:
            return Not(_chain(1))
        return And(_chain(n), Not(_chain(n + 1)))
    raise ValueError(f"kind must be 'gt' or 'eq': {kind!r}")


def _chain(k: int) -> Formula:
    # there exist atoms c0 < c1 < ... < c(k-1)
    assert k >= 1
    body: Formula = TRUE
    for i in range(k - 1, 0, -1):
        body = ExistsAtom(f"c{i}", And(Exle(AtomVar(f"c{i-1}"), AtomVar(f"c{i}")), body))
    return ExistsAtom("c0", body)


def succ_formula(a: AtomVar, b: AtomVar, between: AtomVar) -> Formula:
    """b is the immediate successor atom of a."""
    return And(Exle(a, b),
               Not(ExistsAtom(between.name, And(Exle(a, between), Exle(between, b)))))


def build_rho(d: int, h: int) -> Formula:
    """True on a finite order exactly when its size n satisfies n >= d and
    n ≡ h (mod d), with h = d standing for residue 0.

    Shape: d nonempty parts partition the atoms, the first atom is in part 1,
    colors advance cyclically along atom successors, and the last atom is in
    part h.
    """
    if d < 1 or not 1 <= h <= d:
        raise ValueError("need d >= 1 and 1 <= h <= d")
    parts = [SetVar(f"A{i}") for i in range(1, d + 1)]
    nonbottom = conj([Not(Eq(p, BOT)) for p in parts])
    cover = ForallAtom(x_.name, disj([Mem(x_, p) for p in parts]))
    disjoint = conj([ForallAtom(x_.name,
                                Not(And(Mem(x_, parts[i]), Mem(x_, parts[j]))))
                     for i in range(d) for j in range(i + 1, d)])
    partition = And(cover, disjoint)
    first = Mem(MIN, parts[0])
    last = Mem(MAX, parts[h - 1])
    step = conj([Implies(Mem(x_, parts[i]), Mem(y_, parts[(i + 1) % d]))
                 for i in range(d)])
    cyclic = ForallAtom(x_.name, ForallAtom(y_.name,
                        Implies(succ_formula(x_, y_, z_), step)))
    body = conj([nonbottom, partition, first, cyclic, last])
    for p in reversed(parts):
        body = ExistsSet(p.name, body)
    return body


def build_sum(f: Formula, g: Formula) -> Formula:
    """A sentence true of a size exactly when it splits as a sum of a size
    satisfying f and one satisfying g: some downward-closed X and its
    complement Y carry f and g respectively."""
    if free_vars(f) or free_vars(g):
        raise ValueError("build_sum needs sentences")
    df, dg = desugar(f), desugar(g)
    fresh = fresh_names(all_identifiers(df) | all_identifiers(dg))
    xn, yn = next(fresh), next(fresh)
    xv, yv = SetVar(xn), SetVar(yn)
    u, v = AtomVar("u"), AtomVar("v")
    split = ForallAtom(u.name, Iff(Mem(u, xv), Not(Mem(u, yv))))
    closed_down = ForallAtom(u.name, ForallAtom(v.name,
                  Implies(And(Mem(v, xv), Exle(u, v)), Mem(u, xv))))
    return ExistsSet(xn, ExistsSet(yn,
           conj([split, closed_down,
                 relativize(df, xn),
                 relativize(dg, yn)])))


def build_comp(eta: Formula, atom_var: str, set_params: Sequence[str]) -> Formula:
    """Comprehension instance: for all parameter sets there is a set holding
    exactly the atoms satisfying eta(atom; parameters)."""
    allowed = set(set_params) | {atom_var}
    extra = free_vars(eta) - allowed
    if extra:
        raise ValueError(f"eta has unexpected free variables: {sorted(extra)}")
    xn = next(fresh_names(all_identifiers(eta) | set(set_params)))
    inner = ForallAtom(atom_var, Iff(Mem(AtomVar(atom_var), SetVar(xn)), eta))
    out: Formula = ExistsSet(xn, inner)
    for p in reversed(list(set_params)):
        out = ForallSet(p, out)
    return out


def base_axioms() -> list[tuple[str, Formula]]:
    """The finite axiom list for finite ordered power structures: atomic
    extensional bounded order of sets, atoms linearly and discretely ordered
    with endpoints, the order lift law, and least elements of nonempty sets."""
    X, Y, T = SetVar("X"), SetVar("Y"), SetVar("T")
    axs: list[tuple[str, Formula]] = []
    axs.append(("bot_least", ForallSet("X", Subset(BOT, X))))
    axs.append(("extensional", ForallSet("X", ForallSet("Y",
        Implies(ForallAtom("z", Iff(Mem(z_, X), Mem(z_, Y))), Eq(X, Y))))))
    axs.append(("top_exists", ExistsSet("T", ForallSet("X", Subset(X, T)))))
    axs.append(("atomic", ForallSet("X",
        Implies(Not(Eq(X, BOT)), ExistsAtom("x", Mem(x_, X))))))
    axs.append(("at_characterization", ForallSet("X", Iff(At(X),
        And(Not(Eq(X, BOT)),
            ForallSet("Y", Implies(Subset(Y, X), Or(Eq(Y, BOT), Eq(Y, X)))))))))
    axs.append(("order_irreflexive", ForallAtom("x", Not(Exle(x_, x_)))))
    axs.append(("order_transitive", ForallAtom("x", ForallAtom("y", ForallAtom("z",
        Implies(And(Exle(x_, y_), Exle(y_, z_)), Exle(x_, z_)))))))
    axs.append(("order_total", ForallAtom("x", ForallAtom("y",
        Or(Eq(x_, y_), Or(Exle(x_, y_), Exle(y_, x_)))))))
    axs.append(("order_lift", ForallSet("X", ForallSet("Y", Iff(Exle(X, Y),
        ExistsAtom("x", ExistsAtom("y",
            conj([Mem(x_, X), Mem(y_, Y), Exle(x_, y_)]))))))))
    axs.append(("endpoints", Implies(ExistsAtom("x", TRUE),
        And(ExistsAtom("x", ForallAtom("y", Not(Exle(y_, x_)))),
            ExistsAtom("x", ForallAtom("y", Not(Exle(x_, y_))))))))
    axs.append(("successors_exist", ForallAtom("x",
        Implies(ExistsAtom("y", Exle(x_, y_)),
                ExistsAtom("y", succ_formula(x_, y_, z_))))))
    axs.append(("predecessors_exist", ForallAtom("x",
        Implies(ExistsAtom("y", Exle(y_, x_)),
                ExistsAtom("y", succ_formula(y_, x_, z_))))))
    axs.append(("least_of_nonempty", ForallSet("X", Implies(Not(Eq(X, BOT)),
        ExistsAtom("x", And(Mem(x_, X),
            ForallAtom("y", Implies(Exle(y_, x_), Not(Mem(y_, X))))))))))
    return axs


def comp_samples() -> list[tuple[str, Formula]]:
    """Five comprehension instances over simple defining conditions."""
    Y, Z = SetVar("Y"), SetVar("Z")
    return [
        ("comp_complement", build_comp(Not(Mem(x_, Y)), "x", ["Y"])),
        ("comp_meet", build_comp(And(Mem(x_, Y), Mem(x_, Z)), "x", ["Y", "Z"])),
        ("comp_join", build_comp(Or(Mem(x_, Y), Mem(x_, Z)), "x", ["Y", "Z"])),
        ("comp_strict_lower", build_comp(ExistsAtom("y", And(Mem(y_, Y), Exle(x_, y_))),
                                         "x", ["Y"])),
        ("comp_first", build_comp(ForallAtom("y", Not(Exle(y_, x_))), "x", [])),
    ]


def induction_samples() -> list[tuple[str, Formula]]:
    """Three step-induction validities over the atom order."""
    X = SetVar("X")
    step_up = ForallAtom("x", ForallAtom("y",
        Implies(And(Mem(x_, X), succ_formula(x_, y_, z_)), Mem(y_, X))))
    step_down = ForallAtom("x", ForallAtom("y",
        Implies(And(Mem(y_, X), succ_formula(x_, y_, z_)), Mem(x_, X))))
    up = ForallSet("X", Implies(And(Mem(MIN, X), step_up),
                                ForallAtom("x", Mem(x_, X))))
    down = ForallSet("X", Implies(And(Mem(MAX, X), step_down),
                                  ForallAtom("x", Mem(x_, X))))
    comp_up = ForallSet("X", Implies(
        And(Not(Mem(MIN, X)),
            ForallAtom("x", ForallAtom("y",
                Implies(And(Not(Mem(x_, X)), succ_formula(x_, y_, z_)),
                        Not(Mem(y_, X)))))),
        ForallAtom("x", Not(Mem(x_, X)))))
    return [("induction_up", up), ("induction_down", down),
            ("induction_complement", comp_up)]


def reconstruct(nf: NormalFormDescriptor) -> Formula:
    """The disjunctive sentence a normal-form descriptor denotes: exact sizes
    up to the threshold, then residue classes beyond it."""
    size_part = [build_psi("eq", i) for i in sorted(nf.sizes)]
    out = disj(size_part)
    if nf.classes:
        tail = And(build_psi("gt", nf.threshold),
                   disj([build_rho(nf.period, h) for h in sorted(nf.classes)]))
        out = Or(out, tail) if size_part else tail
    return out
