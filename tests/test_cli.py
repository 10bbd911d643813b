"""Command-line interface: outputs, exit codes, error handling."""

import pytest

from finord import cli


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
    code, _, err = run(capsys, "decide", "--point", "fin:-1", "true")
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


def test_state_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("FINORD_STATE_CAP", "2")
    code, _, err = run(capsys, "spectrum", "ex1 x. ex1 y. ~(x = y)")
    assert code == 1
    assert err.startswith("error:") and "cap" in err


def test_valid_agrees_with_spectrum(capsys):
    from finord import UPSet, parse, pseudofinite_valid, spectrum
    for text in ("all2 X. bot sub X", "ex1 x. true", "true",
                 "all1 x. all1 y. (x << y -> ~(y << x))"):
        f = parse(text)
        assert pseudofinite_valid(f) == (spectrum(f) == UPSet.naturals())
