"""Command-line interface: outputs, exit codes, error handling."""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finord import cli, format_formula
from test_formula_properties import formulas


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, err = run(capsys, "eval", "--n", "3", "ex1 x. true")
    assert (code, out, err) == (0, "true\n", "")
    code, out, _ = run(capsys, "eval", "--n", "0", "ex1 x. true")
    assert (code, out) == (0, "false\n")


def test_spectrum(capsys):
    code, out, err = run(capsys, "spectrum", "ex1 x. true")
    assert (code, out, err) == (0, "UP(init={};N=1;d=1;res={0})\n", "")
    code, out, _ = run(capsys, "spectrum", "false")
    assert (code, out) == (0, "UP(init={};N=0;d=1;res={})\n")


def test_valid(capsys):
    code, out, _ = run(capsys, "valid", "all2 X. bot sub X")
    assert (code, out) == (0, "valid\n")
    code, out, _ = run(capsys, "valid", "ex1 x. true")
    assert code == 0
    assert out == "invalid (countermodel n=0)\n"


def test_normalform(capsys):
    from finord import build_rho, format_formula
    code, out, _ = run(capsys, "normalform", format_formula(build_rho(3, 2)))
    assert (code, out) == (0, "N=3;d=3;sizes={};classes={2}\n")
    code, out, _ = run(capsys, "normalform", "true")
    assert (code, out) == (0, "N=1;d=1;sizes={0,1};classes={1}\n")


def test_decide(capsys):
    from finord import build_rho, format_formula
    rho44 = format_formula(build_rho(4, 4))
    code, out, _ = run(capsys, "decide", "--point", "inf:zero+0", rho44)
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "decide", "--point", "fin:4", rho44)
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "decide", "--point", "fin:6", rho44)
    assert (code, out) == (0, "false\n")
    rho31 = format_formula(build_rho(3, 1))
    code, out, _ = run(capsys, "decide", "--point", "inf:2^1=1", rho31)
    assert (code, out) == (0, "undetermined\n")


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "--points", "fin:2,fin:3,inf:zero+1")
    assert (code, out) == (0, "inf:zero+6\n")
    code, out, _ = run(capsys, "mul", "--points", "fin:2")
    assert (code, out) == (0, "fin:2\n")
    code, _, err = run(capsys, "mul", "--points", "")
    assert code == 1 and err.startswith("error:")


def test_efgame(capsys):
    code, out, _ = run(capsys, "efgame", "--left", "2", "--right", "3",
                       "--rounds", "1")
    assert (code, out) == (0, "Duplicator\n")
    code, out, _ = run(capsys, "efgame", "--left", "2", "--right", "3",
                       "--rounds", "2")
    assert (code, out) == (0, "Spoiler\n")


def test_compile_dot(capsys):
    code, out, _ = run(capsys, "compile", "--dot", "ex1 x. true")
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out
    code, _, err = run(capsys, "compile", "ex1 x. true")
    assert code == 1 and "dot" in err


def test_file_input(capsys, tmp_path):
    path = tmp_path / "sentences.txt"
    path.write_text("ex1 x. true\n\nfalse\n")
    code, out, _ = run(capsys, "spectrum", "--file", str(path))
    assert code == 0
    assert out.splitlines() == ["UP(init={};N=1;d=1;res={0})",
                                "UP(init={};N=0;d=1;res={})"]


def test_domain_errors_exit_1(capsys, tmp_path):
    # parse error
    code, _, err = run(capsys, "spectrum", "ex1 x.")
    assert code == 1 and err.startswith("error:")
    # free variables are not a sentence
    code, _, err = run(capsys, "spectrum", "at(X)")
    assert code == 1 and err.startswith("error:")
    # bad point serialization
    for point in ("fin:-1", "fin:00"):
        code, _, err = run(capsys, "decide", "--point", point, "true")
        assert code == 1 and err.startswith("error:")
    # table keys at or past 2^32 (here 2^30000000 and the prime 2^61 - 1)
    # are refused before they are computed or factored
    for point in ("inf:2^30000000=0", "inf:2305843009213693951^1=0"):
        code, _, err = run(capsys, "decide", "--point", point, "true")
        assert code == 1 and err.startswith("error:") and "2^32" in err
        assert err.count("\n") == 1
    # more nested binders than the evaluator has table axes
    code, _, err = run(capsys, "eval", "--n", "2", "~ex1 x. " * 33 + "true")
    assert code == 1 and err.startswith("error:") and "limit 32" in err
    # a formula file that is missing, or is not UTF-8 text
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"ex1 x. true\xe9\n")
    for path in (tmp_path / "missing.txt", latin1):
        code, _, err = run(capsys, "spectrum", "--file", str(path))
        assert code == 1 and err.startswith("error:")
        assert err.count("\n") == 1 and str(path) in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_state_cap_env(capsys, state_cap):
    state_cap(2)
    code, _, err = run(capsys, "spectrum", "ex1 x. ex1 y. ~(x = y)")
    assert code == 1
    assert err.startswith("error:") and "cap" in err


def test_valid_agrees_with_spectrum(capsys):
    from finord import UPSet, parse, pseudofinite_valid, spectrum
    for text in ("all2 X. bot sub X", "ex1 x. true", "true",
                 "all1 x. all1 y. (x << y -> ~(y << x))"):
        f = parse(text)
        assert pseudofinite_valid(f) == (spectrum(f) == UPSet.naturals())


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected first output line) for each ``finord ...  # output``
    line of the README's command block."""
    out = []
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"finord (.*?)\s+# (.*)", line)
        if m:
            out.append((shlex.split(m.group(1)), m.group(2)))
    return out


def test_readme_examples(capsys):
    examples = readme_examples()
    assert len(examples) == 9
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if "--dot" in argv:
            assert out.startswith("digraph"), argv
        else:
            assert out.splitlines()[0] == expected, argv


# -- fuzzing main: every argv ends in an answer, one error line, or usage --

NATS = st.integers(0, 3).map(str)
# rounds past any recursion limit, which only shortcuts may answer
ROUNDS = st.one_of(NATS, st.integers(0, 5000).map(str))
POINTS = st.one_of(
    st.integers(0, 5).map(lambda n: f"fin:{n}"),
    st.integers(0, 5).map(lambda c: f"inf:zero+{c}"),
    st.lists(st.tuples(st.sampled_from((2, 3, 4, 5)), st.integers(0, 3),
                       st.integers(0, 9)), max_size=3).map(
        lambda entries: "inf:" + ";".join(f"{p}^{j}={r}" for p, j, r in entries)),
    st.text(alphabet="finzero:+^=;0123456789-", max_size=12))
FORMULA_TOKENS = ("ex1", "all1", "ex2", "all2", "x", "y", "X", "Y", ".", "(",
                  ")", "&", "|", "~", "->", "<->", "=", "sub", "<<", "<", "at",
                  "bot", "min", "max", "true", "false", "X(x)", "@")
FORMULA_TEXTS = st.one_of(
    formulas(depth=2).map(format_formula),
    st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12).map(" ".join))
COMMANDS = ("eval", "spectrum", "valid", "normalform", "decide", "mul",
            "efgame", "compile")
# argv words mixed into otherwise well-formed command lines
ARGV_WORDS = COMMANDS + ("--n", "--point", "--points", "--left", "--right",
                         "--rounds", "--dot", "3", "true", "ex1 x.", "fin:2",
                         "-x", "")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "eval":
        argv += ["--n", draw(NATS)]
    elif command == "decide":
        argv += ["--point", draw(POINTS)]
    elif command == "mul":
        argv += ["--points", ",".join(draw(st.lists(POINTS, max_size=3)))]
    elif command == "efgame":
        for option, values in (("--left", NATS), ("--right", NATS),
                               ("--rounds", ROUNDS)):
            argv += [option, draw(values)]
    elif command == "compile" and draw(st.booleans()):
        argv.append("--dot")
    if command not in ("mul", "efgame"):
        argv.append(draw(FORMULA_TEXTS))
    for word in draw(st.lists(st.sampled_from(ARGV_WORDS), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
def test_main_ends_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
