"""DFA kernel: Boolean ops, projection, minimization, lasso extraction."""

import random
from operator import and_, eq, le, or_

import pytest

from finord import (Dfa, FiniteModel, ResourceLimitError, UPSet,
                    base_automaton, combine, complement, concat, cylindrify,
                    desugar, ef_winner, equivalent, lasso_spectrum, minimize,
                    parse, project, to_dot, unary_dfa)
from finord import compiler, efgame
from finord.automata import _cube_cover, _moore, _project


def all_x():
    """One track; accepts words whose X-bit is set at every position."""
    return Dfa(("X",), ((1, 0), (1, 1)), frozenset([0]))


def some_x():
    """One track; accepts words with at least one X-bit."""
    return Dfa(("X",), ((0, 1), (1, 1)), frozenset([1]))


def _random_dfa(rng, tracks):
    size = 1 << len(tracks)
    n = rng.randrange(1, 5)
    rows = tuple(tuple(rng.randrange(n) for _ in range(size))
                 for _ in range(n))
    accepting = frozenset(s for s in range(n) if rng.random() < 0.5)
    return Dfa(tracks, rows, accepting, rng.randrange(n))


def _words(width, upto):
    yield []
    stack = [[]]
    while stack:
        w = stack.pop()
        if len(w) == upto:
            continue
        for letter in range(1 << width):
            nxt = w + [letter]
            yield nxt
            stack.append(nxt)


def test_validation():
    with pytest.raises(ValueError):
        Dfa(("Y", "X"), ((0, 0, 0, 0),), frozenset())     # unsorted tracks
    with pytest.raises(ValueError):
        Dfa(("X",), ((0,),), frozenset())                  # row too short
    with pytest.raises(ValueError):
        Dfa(("X",), ((0, 2), (0, 1)), frozenset())         # bad target
    with pytest.raises(ValueError):
        Dfa((), ((0,),), frozenset([1]))                   # bad accepting
    with pytest.raises(ValueError):
        Dfa((), (), frozenset())                           # no states


def test_accepts_and_combine():
    both = combine(all_x(), some_x(), "and")
    assert both.accepts([1])
    assert not both.accepts([])
    assert not both.accepts([0, 1])
    either = combine(all_x(), some_x(), "or")
    assert either.accepts([]) and either.accepts([0, 1])
    implied = combine(some_x(), all_x(), "implies")
    assert implied.accepts([]) and implied.accepts([1, 1])
    assert not implied.accepts([0, 1])
    same = combine(all_x(), some_x(), "iff")
    assert same.accepts([1]) and same.accepts([0])
    assert not same.accepts([]) and not same.accepts([0, 1])
    with pytest.raises(ValueError):
        combine(all_x(), some_x(), "xor")


def test_complement_and_de_morgan_on_random_dfas():
    rng = random.Random(13)
    for _ in range(40):
        tracks = ((), ("X",), ("X", "Y"))[rng.randrange(3)]
        a = _random_dfa(rng, tracks)
        b = _random_dfa(rng, tracks)
        assert equivalent(complement(complement(a)), a)
        lhs = complement(combine(a, b, "and"))
        rhs = combine(complement(a), complement(b), "or")
        assert equivalent(lhs, rhs)
        assert equivalent(a, minimize(a))
        assert equivalent(combine(a, b, "implies"),
                          combine(complement(a), b, "or"))
        assert equivalent(combine(a, b, "iff"),
                          combine(combine(a, b, "and"),
                                  combine(complement(a), complement(b),
                                          "and"), "or"))


def test_combine_vs_word_oracle():
    rng = random.Random(19)
    ops = {"and": lambda p, q: p and q, "or": lambda p, q: p or q,
           "implies": lambda p, q: not p or q, "iff": lambda p, q: p == q}
    for _ in range(25):
        tracks = ((), ("X",), ("X", "Y"))[rng.randrange(3)]
        a = _random_dfa(rng, tracks)
        b = _random_dfa(rng, tracks)
        for op, want in ops.items():
            c = combine(a, b, op)
            for word in _words(len(tracks), 3):
                assert c.accepts(word) == want(a.accepts(word),
                                               b.accepts(word))


def test_minimize_idempotent_and_canonical():
    rng = random.Random(17)
    for _ in range(40):
        a = _random_dfa(rng, ("X",))
        m = minimize(a)
        assert minimize(m) == m
    # same language built two ways gives structurally equal automata
    e1 = minimize(combine(all_x(), some_x(), "or"))
    e2 = minimize(complement(combine(complement(some_x()),
                                     complement(all_x()), "and")))
    assert e1 == e2


def _reachable_part(a):
    """The states reachable from the initial one, renumbered in order."""
    seen = {a.initial}
    stack = [a.initial]
    while stack:
        for t in a.transitions[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    new = {s: i for i, s in enumerate(sorted(seen))}
    return Dfa(a.tracks, [[new[t] for t in a.transitions[s]] for s in new],
               {new[s] for s in a.accepting if s in seen}, new[a.initial])


def test_minimize_ignores_unreachable_states():
    rng = random.Random(37)
    for _ in range(200):
        tracks = ("X", "Y")[:rng.randrange(3)]
        n = rng.randrange(2, 9)
        # the states from `core` on are never reached
        core = rng.randrange(1, n)
        rows = [[rng.randrange(core if s < core else n)
                 for _ in range(1 << len(tracks))] for s in range(n)]
        a = Dfa(tracks, rows, {s for s in range(n) if rng.random() < 0.5},
                rng.randrange(core))
        reachable = _reachable_part(a)
        assert reachable.n_states < n
        m = minimize(a)
        assert m == minimize(reachable)
        for word in _words(len(tracks), 3):
            assert m.accepts(word) == a.accepts(word)


def test_minimize_collapses_redundant_all_accepting():
    red = Dfa((), ((1,), (2,), (3,), (0,)), frozenset([0, 1, 2, 3]))
    assert minimize(red).n_states == 1


def test_cylindrify_preserves_language():
    wide = cylindrify(all_x(), ("X", "Y"))
    assert wide.tracks == ("X", "Y")
    for word in _words(2, 4):
        shrunk = [letter & 1 for letter in word]
        assert wide.accepts(word) == all_x().accepts(shrunk)
    with pytest.raises(ValueError):
        cylindrify(all_x(), ("Y",))


def test_project_examples():
    anylen = project(all_x(), "X")
    assert anylen.tracks == ()
    assert anylen.accepts([]) and anylen.accepts([0, 0, 0])
    # exists X agreeing with Y pointwise: trivially true
    eq_xy = Dfa(("X", "Y"), ((0, 1, 1, 0), (1, 1, 1, 1)), frozenset([0]))
    ex_x = project(eq_xy, "X")
    assert ex_x.tracks == ("Y",)
    assert equivalent(ex_x, Dfa(("Y",), ((0, 0),), frozenset([0])))
    with pytest.raises(ValueError):
        project(all_x(), "Z")


def test_projection_vs_word_oracle():
    rng = random.Random(23)
    for _ in range(25):
        a = _random_dfa(rng, ("X", "Y"))
        p = project(a, "Y")
        for word in _words(1, 4):
            n = len(word)
            want = any(a.accepts([word[i] | (((combo >> i) & 1) << 1)
                                  for i in range(n)])
                       for combo in range(1 << n))
            assert p.accepts(word) == want


# operand track sets that differ from each other and from their union
_TRACK_SETS = ((), ("X",), ("Y",), ("X", "Y"), ("X", "Z"), ("Y", "Z"))


def _explicit_product(a, b, op):
    """Both operands cylindrified to their tracks' union, their product
    over every pair of states, then minimized."""
    keep = {"and": and_, "or": or_, "implies": le, "iff": eq}[op]
    tracks = tuple(sorted(set(a.tracks) | set(b.tracks)))
    a, b = cylindrify(a, tracks), cylindrify(b, tracks)
    nb = b.n_states
    rows = [[s * nb + t for s, t in zip(row_a, row_b)]
            for row_a in a.transitions for row_b in b.transitions]
    accepting = {s * nb + t for s in range(a.n_states) for t in range(nb)
                 if keep(s in a.accepting, t in b.accepting)}
    return minimize(Dfa(tracks, rows, accepting,
                        a.initial * nb + b.initial))


def test_combine_equals_minimized_explicit_product():
    rng = random.Random(43)
    for _ in range(60):
        a = _random_dfa(rng, rng.choice(_TRACK_SETS))
        b = _random_dfa(rng, rng.choice(_TRACK_SETS))
        for op in ("and", "or", "implies", "iff"):
            assert combine(a, b, op) == _explicit_product(a, b, op)


def test_universal_projection_is_the_dual_of_projection():
    rng = random.Random(47)
    for _ in range(60):
        a = _random_dfa(rng, rng.choice(_TRACK_SETS[1:]))
        for track in a.tracks:
            assert _project(a, track, False) == complement(
                project(complement(a), track))


def test_universal_projection_vs_word_oracle():
    rng = random.Random(53)
    for _ in range(25):
        a = _random_dfa(rng, ("X", "Y"))
        p = _project(a, "Y", False)
        assert p.tracks == ("X",)
        for word in _words(1, 4):
            n = len(word)
            want = all(a.accepts([word[i] | (((combo >> i) & 1) << 1)
                                  for i in range(n)])
                       for combo in range(1 << n))
            assert p.accepts(word) == want


def test_each_operation_builds_one_dfa(monkeypatch):
    a, b = cylindrify(some_x(), ("X", "Y")), all_x()
    body, forall = (desugar(parse(text))
                    for text in ("X sub Y", "all2 X. X sub Y"))
    base_automaton(body)  # its atomic shape is memoized from here on
    built = []
    post_init = Dfa.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Dfa, "__post_init__", counted)

    def constructions(call) -> int:
        built.clear()
        call()
        return len(built)

    assert constructions(lambda: combine(a, b, "and")) == 1
    assert constructions(lambda: project(a, "Y")) == 1
    assert constructions(lambda: _project(a, "Y", False)) == 1
    # beyond the base automaton of its body, the ∀ binder builds one
    assert constructions(lambda: compiler._compile(body)) == 1
    assert constructions(lambda: compiler._compile(forall)) == 2


def _refined_until_no_split(transitions, initial, labels):
    """Moore refinement run until a round splits no class, then the classes
    reachable from ``initial`` numbered breadth-first, letters ascending,
    each by the last of its states: (those states, successor rows)."""
    cls = list(labels)
    while True:
        sigs = {}
        new = [sigs.setdefault((c, *(cls[t] for t in row)), len(sigs))
               for c, row in zip(cls, transitions)]
        if len(sigs) == len(set(cls)):
            break
        cls = new
    rep = {c: s for s, c in enumerate(cls)}
    order, index, rows = [cls[initial]], {cls[initial]: 0}, []
    for c in order:
        for t in transitions[rep[c]]:
            if cls[t] not in index:
                index[cls[t]] = len(order)
                order.append(cls[t])
        rows.append(tuple(index[cls[t]] for t in transitions[rep[c]]))
    return [rep[c] for c in order], rows


def test_moore_stops_at_singleton_classes():
    rng = random.Random(59)
    cases = []
    for _ in range(60):
        a = _random_dfa(rng, rng.choice(_TRACK_SETS))
        n = a.n_states
        # labels that separate every state already, and acceptance
        cases.append((a.transitions, a.initial, rng.sample(range(n), n)))
        cases.append((a.transitions, a.initial,
                      [s in a.accepting for s in range(n)]))
    # M(2, 1) and M(2, 2) exceed the default state cap
    for k, j in ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0)):
        rows, outs = efgame._machine(k, j)
        cases.append((rows, 0, list(outs)))
    for transitions, initial, labels in cases:
        assert _moore(transitions, initial, labels) == \
            _refined_until_no_split(transitions, initial, labels)


def test_equivalent():
    assert equivalent(all_x(), all_x())
    assert not equivalent(all_x(), some_x())
    # different tracks are unified first
    top1 = Dfa((), ((0,),), frozenset([0]))
    top2 = Dfa(("X",), ((0, 0),), frozenset([0]))
    assert equivalent(top1, top2)


def test_lasso_roundtrip_on_random_upsets():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randrange(0, 5)
        d = rng.randrange(1, 6)
        s = UPSet(n, d,
                  frozenset(x for x in range(n) if rng.random() < 0.5),
                  frozenset(r for r in range(d) if rng.random() < 0.5)
                  ).canonicalize()
        assert lasso_spectrum(unary_dfa(s)) == s
        # membership agrees with direct acceptance well past the lasso
        dfa = unary_dfa(s)
        for k in range(n + 3 * d + 2):
            assert dfa.accepts([0] * k) == s.member(k)


def test_lasso_on_unminimized_automata():
    # initial state 3, state 0 unreachable, and 1 and 5 equivalent
    a = Dfa((), ((2,), (4,), (1,), (5,), (2,), (4,)), frozenset([1, 5]), 3)
    # lengths 1, 4, 7, ...: the walk 3 5 4 2 1 4 2 1 ... has tail 2
    assert lasso_spectrum(a) == UPSet(0, 3, frozenset(), frozenset([1]))
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(2, 9)
        # nothing leads to state 0, and the walk starts elsewhere
        rows = [(rng.randrange(1 if s else 0, n),) for s in range(n)]
        a = Dfa((), rows, {s for s in range(n) if rng.random() < 0.5},
                rng.randrange(1, n))
        s = lasso_spectrum(a)
        for k in range(3 * n):
            assert s.member(k) == a.accepts([0] * k), (a, k)


def test_lasso_requires_sentence_automaton():
    with pytest.raises(ValueError):
        lasso_spectrum(all_x())


def test_concat_adds_lengths():
    rng = random.Random(31)
    for _ in range(40):
        def rnd():
            n = rng.randrange(0, 4)
            d = rng.randrange(1, 5)
            return UPSet(n, d,
                         frozenset(x for x in range(n) if rng.random() < 0.5),
                         frozenset(r for r in range(d) if rng.random() < 0.5)
                         ).canonicalize()
        a, b = rnd(), rnd()
        got = lasso_spectrum(concat(unary_dfa(a), unary_dfa(b)))
        bound = a.threshold + b.threshold + 4 * a.period * b.period + 2
        want = {x + y for x in a.members_upto(bound) for y in b.members_upto(bound)}
        assert [k for k in range(bound) if got.member(k)] == \
            sorted(x for x in want if x < bound)
    with pytest.raises(ValueError):
        concat(all_x(), unary_dfa(UPSet.naturals()))


def test_state_cap(state_cap):
    state_cap(1)
    with pytest.raises(ResourceLimitError):
        combine(all_x(), some_x(), "and")
    with pytest.raises(ResourceLimitError):
        project(all_x(), "X")
    with pytest.raises(ResourceLimitError, match="projection"):
        concat(unary_dfa(UPSet(2, 1, {0}, {0})), unary_dfa(UPSet.naturals()))


def test_state_cap_message_names_stage_and_width(state_cap):
    wide = cylindrify(some_x(), ("X", "Y", "Z"))
    state_cap(1)
    with pytest.raises(ResourceLimitError, match=r"product .* 3 tracks"):
        combine(wide, all_x(), "or")
    with pytest.raises(ResourceLimitError, match=r"projection .* 3 tracks"):
        project(wide, "Y")


def test_state_cap_env_override(state_cap):
    state_cap(1)
    with pytest.raises(ResourceLimitError):
        combine(all_x(), some_x(), "and")
    state_cap("zero")
    with pytest.raises(ValueError):
        combine(all_x(), some_x(), "and")


def test_one_state_cap_binds_every_construction(state_cap):
    # atomic automata and the games' type machines read the cap that
    # products and projections read; their caches outlive clear_caches
    state_cap(1)
    compiler._shape_automaton.cache_clear()
    efgame._machine.cache_clear()
    with pytest.raises(ResourceLimitError, match="atomic automaton"):
        base_automaton(parse("X sub Y"))
    with pytest.raises(ResourceLimitError, match="type machine"):
        ef_winner(FiniteModel(3), FiniteModel(4), 2)


def test_state_cap_binds_hand_built_operands(state_cap):
    # a six-state cycle is minimal, so minimizing it or walking its lasso
    # discovers six states whatever the operand's own size
    cycle = Dfa((), tuple(((s + 1) % 6,) for s in range(6)), frozenset([0]))
    assert lasso_spectrum(cycle) == UPSet(0, 6, frozenset(), frozenset([0]))
    state_cap(3)
    with pytest.raises(ResourceLimitError,
                       match=r"^lasso exceeds state cap 3 \(operand of 6"):
        lasso_spectrum(cycle)
    with pytest.raises(ResourceLimitError,
                       match=r"^minimization exceeds state cap 3 \(operand"):
        minimize(cycle)


def test_to_dot_shape():
    dot = to_dot(minimize(some_x()))
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert "rankdir=LR" in dot
    assert '"()"' in to_dot(unary_dfa(UPSet.naturals()))


def test_cube_cover():
    assert _cube_cover({0, 1}, 2) == ["·0"]
    assert _cube_cover({0, 1, 2, 3}, 2) == ["··"]
    assert _cube_cover({0, 3}, 2) == ["00", "11"]
    assert _cube_cover({1, 3}, 2) == ["1·"]
    assert _cube_cover({5}, 3) == ["101"]
