"""The benchmark's own checks: each must reject a deliberately wrong
answer, and each input generator must repeat itself for a seed.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import pytest

import checks
import gen
import workloads
from finord import UPSet, Fin, Inf, ZeroShift, point_models
from finord.formula.builders import build_rho


def _plain(data):
    """Query data with expected sets replaced by their canonical form, so
    two workloads built apart can be compared."""
    if isinstance(data, checks.SizeSet):
        return checks.canonical(data)
    if isinstance(data, tuple):
        return tuple(_plain(x) for x in data)
    return data


def _run(workload):
    outs = []
    for q in workload.queries:
        if q.prepare:
            q.prepare()
        outs.append(q.call())
    return outs


def test_random_sentences_repeat_for_a_seed():
    assert gen.random_sentences(11, 40) == gen.random_sentences(11, 40)
    assert gen.random_sentences(11, 40) != gen.random_sentences(12, 40)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_repeat_for_a_seed(name):
    cls = workloads.WORKLOADS[name]
    a, b = cls(5), cls(5)
    assert [q.label for q in a.queries] == [q.label for q in b.queries]
    assert [_plain(q.data) for q in a.queries] == \
        [_plain(q.data) for q in b.queries]


def test_canonical_forms_by_hand():
    # {4, 7, 10, ...}: 1 is not a member, so the threshold is 2
    assert checks.canonical(checks.rho_set(3, 1)) == \
        (2, 3, frozenset(), frozenset({1}))
    assert checks.canonical(checks.psi_set("eq", 2)) == \
        (3, 1, frozenset({2}), frozenset())
    both = checks.sum_set(checks.psi_set("gt", 0), checks.psi_set("gt", 1))
    assert checks.canonical(both) == (3, 1, frozenset(), frozenset({0}))
    assert checks.is_canonical(UPSet(2, 3, frozenset(), frozenset({1})))
    assert not checks.is_canonical(UPSet(2, 6, frozenset(), frozenset({1, 4})))


def test_naive_game_solver_by_hand():
    assert checks.naive_duplicator_wins(0, 1, 0)
    assert not checks.naive_duplicator_wins(0, 1, 1)
    assert checks.naive_duplicator_wins(2, 3, 1)
    assert not checks.naive_duplicator_wins(2, 3, 2)


def test_spectrum_check_rejects_wrong_period():
    w = workloads.Spectra(3)
    w.queries = [q for q in w.queries if q.label in ("rho_3_1", "random_0")]
    outs = _run(w)
    assert w.check(outs) == set()
    f, s = outs[0]
    p = s.period
    doubled = UPSet(s.threshold, 2 * p, s.init,
                    s.residues | {r + p for r in s.residues})
    longer = UPSet(s.threshold, p + 1, s.init, s.residues)
    for bad in (doubled, longer):
        assert w.check([(f, bad), outs[1]]) == {0}
    g, t = outs[1]
    assert w.check([outs[0], (g, t.complement())]) == {1}


def test_evaluate_check_rejects_flipped_answer():
    w = workloads.Evaluate(3)
    w.queries = [q for q in w.queries
                 if q.label in ("rho_2_1@5", "psi_eq_3@3", "random_0@2",
                                "random_0@6")]
    outs = _run(w)
    assert w.check(outs) == set()
    for i in range(len(outs)):
        flipped = list(outs)
        flipped[i] = not outs[i]
        assert w.check(flipped) == {i}


def test_game_check_rejects_flipped_verdict():
    w = workloads.Games(2)
    w.queries = [q for q in w.queries if q.data[2] <= 2 and
                 max(q.data[:2]) <= 4]
    outs = _run(w)
    assert w.check(outs) == set()
    index = {q.data: i for i, q in enumerate(w.queries)}
    # inside the naive solver's range, on the diagonal, and outside both,
    # where only symmetry, monotonicity and composition can tell
    for key in [(2, 3, 1), (3, 3, 2), (4, 2, 2)]:
        flipped = list(outs)
        flipped[index[key]] = not outs[index[key]]
        assert index[key] in w.check(flipped), key


@pytest.fixture(scope="module")
def decide():
    return workloads.Decide(4)


def test_decide_check_passes_a_true_pass(decide):
    assert decide.check(_run(decide)) == set()


def test_decide_check_rejects_shifted_residue(decide):
    outs = _run(decide)
    shifted = []
    for i, q in enumerate(decide.queries):
        kind, data = q.data
        if kind == "extend" and isinstance(outs[i], int):
            (_tag, _c), d = data
            wrong = list(outs)
            wrong[i] = (outs[i] + 1) % d
            shifted.append(i)
            assert decide.check(wrong) == {i}
    assert shifted


def test_decide_check_rejects_answer_at_shifted_point(decide):
    outs = _run(decide)
    f = build_rho(3, 1)
    j = next(j for j, (g, _want) in enumerate(decide.sentences) if g == f)
    hits = 0
    for i, q in enumerate(decide.queries):
        kind, data = q.data
        if kind == "models" and data[1] == j and data[0][0] == "zs":
            shifted = point_models(Inf(ZeroShift(data[0][1] + 1)), f)
            if shifted == outs[i]:
                continue
            wrong = list(outs)
            wrong[i] = shifted
            assert i in decide.check(wrong)
            hits += 1
    assert hits


def test_decide_check_rejects_broken_arithmetic(decide):
    outs = _run(decide)
    for i, q in enumerate(decide.queries):
        kind, data = q.data
        if kind == "crt":
            wrong = list(outs)
            wrong[i] = outs[i] + 1
            assert decide.check(wrong) == {i}
            break
    first_mul = next(i for i, q in enumerate(decide.queries)
                     if q.data[0] == "mul")
    wrong = list(outs)
    wrong[first_mul] = Fin(1)   # breaks Fin(0) as identity
    assert decide.check(wrong) == {first_mul}


def test_table_points_undetermined_exactly_when_residue_is_open():
    rho6 = checks.rho_set(6, 1)
    assert checks.inf_expected(rho6, ("tab", ((2, 1),))) is None
    assert checks.inf_expected(rho6, ("tab", ((2, 1), (3, 1)))) is True
    assert checks.inf_expected(rho6, ("tab", ((4, 2), (3, 1)))) is False
    assert checks.inf_expected(rho6, ("zs", 7)) is True
