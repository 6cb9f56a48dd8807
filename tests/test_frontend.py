"""Tests for the text format, the random generator, and the CLI.

CLI behavior is pinned through run_cli's return codes and captured
output: 0 satisfiable, 1 unsatisfiable, 2 usage or parse problems, 3
when a recorded expectation or an oracle disagrees with the engine.
"""

import io
import json
import random
import sys

import pytest

from wsc.constraints import Eq, EqApp, Store, Sub, SubApp, format_atom, var
from wsc.engine import Verdict, solve
from wsc.frontend import (
    ATOM_KINDS,
    ParseError,
    corpus_problems,
    oracle_check,
    parse,
    random_atoms,
    report,
    run_cli,
    solved_classes,
)
from wsc.terms import Symbol

A = Symbol("a", 0)
F1 = Symbol("f", 1)
F2 = Symbol("f", 2)

x, y, z, u, v = var("x"), var("y"), var("z"), var("u"), var("v")

ROUTED_CLASH_TEXT = """\
y = f(u)
u = a()
z = f(x)
x <= y
x <= z
"""


# --- parsing -------------------------------------------------------------------


def test_parse_all_atom_kinds_in_order():
    text = "x = y\nx = f(y, z)\nu <= v\nu <= a()\n"
    problem = parse(text)
    assert problem.atoms == (
        Eq(x, y),
        EqApp(x, F2, (y, z)),
        Sub(u, v),
        SubApp(u, A, ()),
    )
    assert problem.expect is None
    assert problem.name == "<input>"


def test_parse_statement_separators():
    """Dots separate statements within a line; newlines end them too;
    comments and blank lines disappear."""
    text = "# header\nx = y. u <= v.\n\nz = a()  # trailing\n"
    problem = parse(text)
    assert problem.atoms == (Eq(x, y), Sub(u, v), EqApp(z, A, ()))


def test_parse_expect_directive():
    assert parse("# expect: sat\nx = y\n").expect == "sat"
    assert parse("x = y  # expect: unsat\n").expect == "unsat"
    assert parse("# expect: sat\n# expect: sat\n").expect == "sat"
    with pytest.raises(ParseError):
        parse("# expect: sat\n# expect: unsat\n")
    with pytest.raises(ParseError):
        parse("# expect: maybe\n")


def test_parse_errors_carry_positions():
    cases = [
        ("x = f(y", 1, 8),          # unclosed application
        ("= x", 1, 1),              # missing left-hand variable
        ("x == y", 1, 4),           # doubled operator
        ("f() = x", 1, 2),          # application on the left
        ("x = f(y))", 1, 9),        # trailing token
        ("x <= y & z", 1, 8),       # intersection without the flag
        ("x @ y", 1, 3),            # stray character
        ("x = a()\ny = f(", 2, 7),  # error on a later line
    ]
    for text, line, col in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col), text


def test_parse_arity_conflict_is_rejected():
    with pytest.raises(ParseError) as err:
        parse("x = f(y)\nz = f(u, v)\n")
    assert err.value.line == 2
    assert "f" in err.value.message
    # consistent reuse across operators is fine
    problem = parse("x = f(y)\nz <= f(u)\n")
    assert problem.atoms == (EqApp(x, F1, (y,)), SubApp(z, F1, (u,)))


def test_parse_reads_back_printed_stores():
    """Solver output can contain intersection variables; printing a
    store and re-parsing it under allow_intersection is lossless."""
    atoms = [Sub(z, var("x", "y")), SubApp(var("u", "v"), F1, (var("q"),))]
    text = "\n".join(format_atom(a) for a in atoms) + "\n"
    with pytest.raises(ParseError):
        parse(text)
    back = parse(text, allow_intersection=True)
    assert list(back.atoms) == atoms
    assert [format_atom(a) for a in back.atoms] == text.strip().split("\n")


def test_parse_empty_input():
    problem = parse("# nothing here\n\n")
    assert problem.atoms == ()
    assert problem.expect is None


# --- random instances -----------------------------------------------------------


def test_random_atoms_deterministic():
    a = random_atoms(random.Random(11))
    b = random_atoms(random.Random(11))
    assert a == b


def test_random_atoms_respects_bounds_and_kinds():
    rng = random.Random(5)
    for _ in range(200):
        atoms = random_atoms(rng, n_vars=3, n_symbols=2, n_atoms=6, kinds=("eq", "eqapp"))
        assert 1 <= len(atoms) <= 6
        for a in atoms:
            assert isinstance(a, (Eq, EqApp))
            if isinstance(a, EqApp):
                assert a.sym.name in ("a", "f")
            for q in [a.lhs] + list(a.args if isinstance(a, EqApp) else [a.rhs]):
                assert q.parts[0] in ("x0", "x1", "x2")


def test_random_atoms_validates_arguments():
    with pytest.raises(ValueError):
        random_atoms(random.Random(0), n_symbols=0)
    with pytest.raises(ValueError):
        random_atoms(random.Random(0), n_vars=0)
    with pytest.raises(ValueError):
        random_atoms(random.Random(0), n_atoms=0)
    with pytest.raises(ValueError):
        random_atoms(random.Random(0), kinds=("eq", "bogus"))
    with pytest.raises(ValueError):
        random_atoms(random.Random(0), kinds=())


# --- result reporting ---------------------------------------------------------------


def test_solved_classes_include_eliminated_variables():
    result = solve([Eq(x, y), EqApp(y, F1, (z,))])
    assert result.verdict == Verdict.SAT
    classes = solved_classes(result.store)
    assert {"vars": ["x", "y"], "constructor": "f/1"} in classes
    assert {"vars": ["z"], "constructor": None} in classes
    assert len(classes) == 2


def test_report_schema_and_stability():
    result = solve(parse(ROUTED_CLASH_TEXT).atoms)
    data = report(result)
    assert set(data) == {"status", "steps", "atoms", "classes"}
    assert data["status"] == "unsat"
    assert data["steps"] == 6
    assert all(isinstance(s, str) for s in data["atoms"])
    with_trace = report(result, include_trace=True)
    assert len(with_trace["trace"]) == 6
    # serializes cleanly and identically twice
    assert json.dumps(data, sort_keys=True) == json.dumps(report(result), sort_keys=True)


def test_oracle_check_agreement_and_disagreement():
    atoms = list(parse(ROUTED_CLASH_TEXT).atoms)
    assert oracle_check(atoms, Verdict.UNSAT) is None
    assert oracle_check(atoms, Verdict.SAT) is not None  # naive refutes it
    assert oracle_check([Eq(x, y)], Verdict.UNSAT) is not None  # unification says sat
    assert oracle_check([EqApp(x, A, ())], Verdict.UNSAT) is not None  # witness exists
    assert oracle_check([EqApp(x, A, ())], Verdict.SAT) is None


# --- command line -----------------------------------------------------------------


def test_cli_solve_exit_codes(tmp_path, capsys):
    sat = tmp_path / "sat.wsc"
    sat.write_text("x <= y\ny = f(x)\n")
    unsat = tmp_path / "unsat.wsc"
    unsat.write_text(ROUTED_CLASH_TEXT)
    assert run_cli(["solve", str(sat)]) == 0
    assert "sat after" in capsys.readouterr().out
    assert run_cli(["solve", str(unsat)]) == 1
    assert "unsat after 6 step(s)" in capsys.readouterr().out


def test_cli_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"x = a()\n")))
    assert run_cli(["solve", "-"]) == 0
    assert "sat" in capsys.readouterr().out


def test_cli_solve_json(tmp_path, capsys):
    f = tmp_path / "p.wsc"
    f.write_text("x = f(y)\nx = f(z)\n")
    assert run_cli(["solve", str(f), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "sat"
    assert {"vars": ["y", "z"], "constructor": None} in data["classes"]


def test_cli_solve_trace(tmp_path, capsys):
    f = tmp_path / "p.wsc"
    f.write_text(ROUTED_CLASH_TEXT)
    assert run_cli(["solve", str(f), "--trace"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("step 1: ")
    assert "=> bottom" in out


def test_cli_parse_error_location(tmp_path, capsys):
    f = tmp_path / "bad.wsc"
    f.write_text("x = a()\ny = f(\n")
    assert run_cli(["solve", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"{f}:2:7:" in err


def test_cli_non_utf8_input_is_a_usage_error(tmp_path, monkeypatch, capsys):
    data = b"x = f(y)\n\xff\xfe = a()\n"
    f = tmp_path / "bad.wsc"
    f.write_bytes(data)
    assert run_cli(["solve", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {f}: not UTF-8") and err.count("\n") == 1
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run_cli(["solve", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: <stdin>: not UTF-8") and err.count("\n") == 1


def test_cli_stdin_is_strict_utf8_whatever_its_error_handler(tmp_path, monkeypatch, capsys):
    # A stdin that decodes with surrogateescape (as it does with no
    # locale set) must not turn bad bytes into characters for the parser.
    data = b"x = f(y)\n\xff\xfe = a()\n"
    f = tmp_path / "bad.wsc"
    f.write_bytes(data)
    assert run_cli(["solve", str(f)]) == 2
    from_file = capsys.readouterr().err
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_cli(["solve", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == from_file.replace(str(f), "<stdin>")
    assert err == "error: <stdin>: not UTF-8 text (invalid start byte at byte 9)\n"


def test_cli_expectation_mismatch(tmp_path, capsys):
    f = tmp_path / "wrong.wsc"
    f.write_text("# expect: unsat\nx = a()\n")
    assert run_cli(["solve", str(f)]) == 3
    assert "expects unsat" in capsys.readouterr().err


def test_cli_oracle_check_agrees_on_normal_inputs(tmp_path):
    f = tmp_path / "p.wsc"
    f.write_text(ROUTED_CLASH_TEXT)
    assert run_cli(["solve", str(f), "--oracle-check"]) == 1


def test_cli_incremental_matches_batch(tmp_path, capsys):
    f = tmp_path / "p.wsc"
    f.write_text(ROUTED_CLASH_TEXT)
    assert run_cli(["solve", str(f), "--incremental"]) == 1
    incremental = capsys.readouterr().out
    assert "unsat" in incremental
    g = tmp_path / "q.wsc"
    g.write_text("x <= y\ny = f(x)\n")
    assert run_cli(["solve", str(g), "--incremental"]) == 0


def test_cli_packaged_examples_individually(capsys):
    """The three flagship corpus files solve to their documented exit
    codes, one of them under the oracle cross-check."""
    from importlib import resources

    corpus = resources.files("wsc") / "corpus"
    with resources.as_file(corpus / "two_below_one.wsc") as p:
        assert run_cli(["solve", str(p)]) == 0
    with resources.as_file(corpus / "routed_clash.wsc") as p:
        assert run_cli(["solve", str(p)]) == 1
    with resources.as_file(corpus / "shared_pair.wsc") as p:
        assert run_cli(["solve", str(p), "--oracle-check"]) == 0
    capsys.readouterr()


def test_cli_corpus_all_ok(capsys):
    assert run_cli(["corpus"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    problems = corpus_problems()
    assert len(lines) == len(problems) >= 9
    assert all(line.endswith(" ok") for line in lines)
    assert all(p.expect in ("sat", "unsat") for p in problems)


def test_cli_random_deterministic(capsys):
    args = ["random", "--seed", "k", "--count", "5", "--oracle-check"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    assert run_cli(args) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().split("\n")) == 5


def test_cli_random_no_sub_uses_equations_only(capsys):
    assert run_cli(["random", "--seed", "q", "--count", "3", "--no-sub", "--oracle-check"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--vars", "--atoms", "--symbols"])
def test_cli_random_rejects_empty_sizes(flag, capsys):
    assert run_cli(["random", flag, "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_random_rejects_negative_count(capsys):
    assert run_cli(["random", "--count", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert run_cli(["random", "--count", "0"]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_usage_errors(capsys):
    assert run_cli([]) == 2
    assert run_cli(["bogus"]) == 2
    assert run_cli(["--help"]) == 0
    capsys.readouterr()
