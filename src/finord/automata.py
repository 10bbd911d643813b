"""Complete DFAs over bit-vector alphabets, one bit per named track.

A word of length n over {0,1}^w encodes an n-atom order together with one
subset of its positions per track: letter bit j (value ``(letter >> j) & 1``)
says whether position i belongs to the set named ``tracks[j]``.  Boolean
combinations, track projection, minimization, equivalence, unary
concatenation (a projection of split words), and lasso extraction are
provided; each operation builds one complete ``Dfa``, its minimal result, as
products and subset constructions feed Moore refinement (``_minimal``)
directly, and ``minimize`` is the entry for hand-built automata.  One
breadth-first discovery loop, ``_explore``, builds every automaton: the
product, the subset construction, the canonical renumbering after
minimization, and the lasso walk.  It reads the state cap,
``effective_state_cap()``: ``FINORD_STATE_CAP`` if set, else the default,
read at first use and again after ``compiler.clear_caches()``; so do the
Boolean operations on ``UPSet``, whose window is a unary lasso.  The cap
bounds what a call builds, hand-built operands included; memoized answers
(spectra, atomic shapes, type machines) stand whatever the cap, and
refusals are never memoized.  One step, ``_fact_step``, reads
the atomic facts of sets along a word for the compiler's atomic automata
and the game's type machines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
from itertools import filterfalse
from operator import add, and_, eq, le, or_

from .formula.nodes import ResourceLimitError
from .upsets import UPSet

DEFAULT_STATE_CAP = 10 ** 5
STATE_CAP_ENV = "FINORD_STATE_CAP"


@cache
def effective_state_cap() -> int:
    """The state cap of every automaton construction: the environment
    override, else the default."""
    try:
        value = int(os.environ.get(STATE_CAP_ENV, DEFAULT_STATE_CAP))
    except ValueError as exc:
        raise ValueError(f"{STATE_CAP_ENV} must be an integer") from exc
    if value < 1:
        raise ValueError(f"{STATE_CAP_ENV} must be positive")
    return value


@dataclass(frozen=True)
class Dfa:
    """Immutable complete DFA.  ``transitions[s][letter]`` is the successor
    of state s; the alphabet has exactly ``2 ** len(tracks)`` letters."""
    tracks: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]
    initial: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        object.__setattr__(self, "transitions",
                           tuple(tuple(row) for row in self.transitions))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        if list(self.tracks) != sorted(set(self.tracks)):
            raise ValueError("tracks must be strictly sorted names")
        n = len(self.transitions)
        if n == 0:
            raise ValueError("at least one state required")
        size = 1 << len(self.tracks)
        for row in self.transitions:
            if len(row) != size:
                raise ValueError("transition rows must cover the alphabet")
            if min(row) < 0 or max(row) >= n:
                raise ValueError("transition target out of range")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if not all(0 <= s < n for s in self.accepting):
            raise ValueError("accepting state out of range")

    @property
    def width(self) -> int:
        return len(self.tracks)

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def accepts(self, word) -> bool:
        state = self.initial
        for letter in word:
            if not 0 <= letter < (1 << self.width):
                raise ValueError(f"letter {letter} outside alphabet")
            state = self.transitions[state][letter]
        return state in self.accepting


def cylindrify(a: Dfa, tracks) -> Dfa:
    """The same language made indifferent to additional tracks."""
    tracks = tuple(tracks)
    if list(tracks) != sorted(set(tracks)):
        raise ValueError("tracks must be strictly sorted names")
    if not set(a.tracks) <= set(tracks):
        raise ValueError("new track list must contain the old tracks")
    if tracks == a.tracks:
        return a
    return Dfa(tracks, _read_letters(a.transitions, a.tracks, tracks),
               a.accepting, a.initial)


def _read_letters(transitions, names, tracks) -> tuple:
    """Rows over ``tracks`` from rows whose letter bit j is ``names[j]``."""
    bit = {tracks.index(t): 1 << j for j, t in enumerate(names)}
    lookup = [0]  # the old letter of each new one, doubled per new bit
    for p in range(len(tracks)):
        lookup += [old | bit[p] for old in lookup] if p in bit else lookup
    return tuple(tuple(map(row.__getitem__, lookup)) for row in transitions)


def _explore(start, successors, stage: tuple[str, str]):
    """Breadth-first discovery from ``start``, numbering each new state at
    its first occurrence in ascending letter order: (states in discovery
    order, successor rows).  ``stage`` is (name, operands) for the error
    raised past the state cap."""
    cap = effective_state_cap()
    index = {start: 0}
    order = [start]
    rows: list[tuple[int, ...]] = []
    for state in order:
        succ = successors(state)
        for new in filterfalse(index.__contains__, dict.fromkeys(succ)):
            index[new] = len(order)
            order.append(new)
        if len(order) > cap:
            raise ResourceLimitError(
                f"{stage[0]} exceeds state cap {cap} ({stage[1]})")
        rows.append(tuple(map(index.__getitem__, succ)))
    return order, rows


def _fact_start(j: int) -> tuple:
    """The atomic facts of j empty sets, where ``_fact_step`` starts."""
    return (0,) * j, ((True,) * j,) * j, ((False,) * j,) * j


def _fact_step(state: tuple, letter: int) -> tuple:
    """The atomic facts of j sets after one more atom, which set i holds
    when letter bit i is set: per set its size capped at 2, and the j×j
    tables sub[x][y] (X ⊆ Y) and exle[x][y] (some atom of X precedes some
    atom of Y), whose diagonal holds X ⊆ X and |X| ≥ 2."""
    pops, sub, exle = state
    bit = [letter >> i & 1 == 1 for i in range(len(pops))]
    return (tuple(min(p + b, 2) for p, b in zip(pops, bit)),
            tuple(tuple(s and (b or not a) for s, b in zip(row, bit))
                  for row, a in zip(sub, bit)),
            tuple(tuple(e or (b and p > 0) for e, b in zip(row, bit))
                  for row, p in zip(exle, pops)))


_OPS = {"and": and_, "or": or_, "implies": le, "iff": eq}


def combine(a: Dfa, b: Dfa, op: str) -> Dfa:
    """The Boolean connective op ("and", "or", "implies" or "iff") of two
    languages as one product over the unified track list, minimized."""
    if op not in _OPS:
        raise ValueError('op must be "and", "or", "implies" or "iff"')
    keep = _OPS[op]
    tracks = tuple(sorted(set(a.tracks) | set(b.tracks)))
    rows_a, rows_b = (x.transitions if x.tracks == tracks else _read_letters(
        x.transitions, x.tracks, tracks) for x in (a, b))
    nb = b.n_states

    # the reachable synchronous product over pair codes s*|B|+t
    def successors(code):
        s, t = divmod(code, nb)
        return list(map(add, map(nb.__mul__, rows_a[s]), rows_b[t]))

    order, rows = _explore(a.initial * nb + b.initial, successors, (
        "product",
        f"operands of {a.n_states} and {nb} states, {len(tracks)} tracks"))
    return _minimal(tracks, rows, 0, [
        keep(code // nb in a.accepting, code % nb in b.accepting)
        for code in order])


def complement(a: Dfa) -> Dfa:
    """Accepting-set flip; sound because automata are complete."""
    return Dfa(a.tracks, a.transitions,
               frozenset(range(a.n_states)) - a.accepting, a.initial)


def project(a: Dfa, track: str) -> Dfa:
    """Erase one track existentially: accept a word when some assignment of
    the erased bits is accepted; subset construction over state bitmasks,
    then minimized."""
    return _project(a, track, True)


def _project(a: Dfa, track: str, exists: bool) -> Dfa:
    """``project``, or universally (a subset accepts when all its states
    do), which is complement ∘ project ∘ complement with no complement."""
    if track not in a.tracks:
        raise ValueError(f"no track named {track}")
    order, rows = _subsets(a.transitions, a.initial, a.tracks.index(track), (
        "projection", f"operand of {a.n_states} states, {a.width} tracks"))
    acc = sum(1 << s for s in a.accepting)
    return _minimal(tuple(t for t in a.tracks if t != track), rows, 0, [
        subset & acc != 0 if exists else subset & acc == subset
        for subset in order])


def _subsets(transitions, initial: int, pos: int, stage):
    """Subset construction erasing letter bit ``pos``: (the state bitmasks
    in discovery order, successor rows)."""
    zeros = [((letter >> pos) << (pos + 1)) | (letter & ((1 << pos) - 1))
             for letter in range(len(transitions[0]) // 2)]
    ones = [base | (1 << pos) for base in zeros]
    bits = [1 << s for s in range(len(transitions))]
    # succ[s][letter]: mask of the states s reaches on either lift of letter
    succ = [list(map(or_, map(bits.__getitem__, map(row.__getitem__, zeros)),
                     map(bits.__getitem__, map(row.__getitem__, ones))))
            for row in transitions]

    def successors(subset):
        low = subset & -subset
        masks = succ[low.bit_length() - 1]
        subset ^= low
        while subset:
            low = subset & -subset
            masks = list(map(or_, masks, succ[low.bit_length() - 1]))
            subset ^= low
        return masks

    return _explore(bits[initial], successors, stage)


def minimize(a: Dfa) -> Dfa:
    """Language-minimal DFA with states renumbered in breadth-first
    discovery order (letters ascending), so equal languages over equal
    tracks yield structurally equal automata."""
    return _minimal(a.tracks, a.transitions, a.initial,
                    [s in a.accepting for s in range(a.n_states)])


def _minimal(tracks, rows, initial: int, labels: list) -> Dfa:
    """The minimal automaton of rows from ``initial`` whose states accept
    where ``labels`` is true: the one ``Dfa`` each operation builds."""
    reps, rows = _moore(rows, initial, labels)
    return Dfa(tracks, tuple(rows),
               frozenset(i for i, s in enumerate(reps) if labels[s]), 0)


def _moore(transitions, initial: int, labels: list):
    """Moore partition refinement from one hashable label per state, then
    the classes reachable from ``initial`` in canonical discovery order:
    (one member state per class, successor rows)."""
    n = len(transitions)
    cls, count = labels, len(set(labels))  # cls[s] is the class of s
    while count < n:  # singleton classes cannot split
        sigs: dict[tuple, int] = {}
        cls = [sigs.setdefault((c, *map(cls.__getitem__, row)), len(sigs))
               for c, row in zip(cls, transitions)]
        if len(sigs) == count:
            break
        count = len(sigs)
    # canonical numbering of the classes reachable from the initial one
    rep = dict(zip(cls, range(n)))

    def successors(c):
        return list(map(cls.__getitem__, transitions[rep[c]]))

    order, rows = _explore(cls[initial], successors, (
        "minimization", f"operand of {n} states"))
    return list(map(rep.__getitem__, order)), rows


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality: the "iff" combination minimizes to one accepting
    state."""
    both = combine(a, b, "iff")
    return both.n_states == 1 and 0 in both.accepting


def concat(a: Dfa, b: Dfa) -> Dfa:
    """Concatenation of two sentence (zero-track) languages; on unary
    alphabets this realizes addition of accepted lengths.  One automaton
    over a track "T" accepts the splits 1^x 0^y with x accepted by a and y
    by b (a reads the 1s, b the 0s, and one dead state takes every other
    word); projecting "T" away is the subset construction."""
    if a.width != 0 or b.width != 0:
        raise ValueError("concatenation is defined for zero-track automata")
    na = a.n_states
    dead = na + b.n_states
    enter_b = na + b.transitions[b.initial][0]
    # rows are (successor on letter 0, successor on letter 1)
    rows = [(enter_b if s in a.accepting else dead, row[0])
            for s, row in enumerate(a.transitions)]
    rows += [(na + row[0], dead) for row in b.transitions]
    rows.append((dead, dead))
    accepting = {na + t for t in b.accepting}
    if b.initial in b.accepting:
        accepting |= a.accepting
    return project(Dfa(("T",), rows, accepting, a.initial), "T")


def lasso_spectrum(a: Dfa) -> UPSet:
    """Accepted lengths of a sentence automaton, as a canonical ultimately
    periodic set: walk the unary chain until a state repeats; the prefix
    gives the finite part, the cycle the residues."""
    if a.width != 0:
        raise ValueError("lasso extraction needs a zero-track automaton")
    chain, rows = _explore(a.initial, a.transitions.__getitem__,
                           ("lasso", f"operand of {a.n_states} states"))
    tail = rows[-1][0]
    cycle = len(chain) - tail
    init = frozenset(i for i in range(tail) if chain[i] in a.accepting)
    residues = frozenset(i % cycle for i in range(tail, tail + cycle)
                         if chain[i] in a.accepting)
    return UPSet(threshold=tail, period=cycle, init=init,
                 residues=residues).canonicalize()


def to_dot(a: Dfa) -> str:
    """Graphviz text: doublecircle = accepting; edge labels are bit
    patterns, leftmost character = first track, '·' = don't care; the empty
    pattern of a zero-track automaton prints as '()'."""
    lines = ["digraph dfa {", "  rankdir=LR;"]
    if a.tracks:
        lines.append(f"  // tracks: {', '.join(a.tracks)}")
    lines.append("  __start [shape=point];")
    lines.append(f"  __start -> q{a.initial};")
    for s in range(a.n_states):
        shape = "doublecircle" if s in a.accepting else "circle"
        lines.append(f"  q{s} [shape={shape}];")
    for s in range(a.n_states):
        by_target: dict[int, list[int]] = {}
        for letter, t in enumerate(a.transitions[s]):
            by_target.setdefault(t, []).append(letter)
        for t in sorted(by_target):
            patterns = _cube_cover(set(by_target[t]), a.width)
            label = ",".join(patterns) if a.width else "()"
            lines.append(f'  q{s} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cube_cover(letters: set[int], width: int) -> list[str]:
    """Greedy cover of a letter set by subcubes, each printed as a bit
    pattern with '·' at don't-care positions."""
    remaining = set(letters)
    patterns = []
    for seed in sorted(letters):
        if seed not in remaining:
            continue
        care = (1 << width) - 1
        value = seed
        for b in range(width):
            bit = 1 << b
            if not care & bit:
                continue
            members = _cube_members(care & ~bit, value & ~bit, width)
            if all(m in letters for m in members):
                care &= ~bit
                value &= ~bit
        remaining -= set(_cube_members(care, value, width))
        patterns.append("".join(
            "·" if not care & (1 << j) else str((value >> j) & 1)
            for j in range(width)))
    return patterns


def _cube_members(care: int, value: int, width: int) -> list[int]:
    members = [value]
    for j in range(width):
        if not care & (1 << j):
            members += [m | (1 << j) for m in members]
    return members
