"""Tests for the text format, the random generator, and the CLI.

CLI behavior is pinned through run_cli's return codes and captured
output: 0 satisfiable, 1 unsatisfiable, 2 usage or parse problems, 3
when a recorded expectation or an oracle disagrees with the engine.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wsc
from wsc.constraints import Eq, EqApp, Sub, SubApp, format_atom, var
from wsc.engine import Solver, Verdict, solve
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
        ("x <= y & z", 1, 8),       # intersection variable in input
        ("x @ y", 1, 3),            # stray character
        ("x = a()\ny = f(", 2, 7),  # error on a later line
        ("x =", 1, 4),              # no right side
        ("x", 1, 2),                # no operator
        ("x = f(y,)", 1, 9),        # missing last argument
        ("x = f(,y)", 1, 7),        # missing first argument
        ("x&y = z", 1, 2),          # intersection variable on the left
        ("x = y z", 1, 7),          # two right sides
        ("x = = y. @", 1, 10),      # a stray character is found before the statement is read
        ("x\xa0= y", 1, 2),         # only spaces and tabs separate tokens
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


def test_parse_reads_back_formatted_atoms():
    """parse() reads format_atom's lines back as the atoms they print,
    whatever mix of separators joins them."""
    rng = random.Random(3)
    for _ in range(3000):
        atoms = random_atoms(rng, n_vars=6, n_symbols=3, n_atoms=10)
        text = format_atom(atoms[0])
        for a in atoms[1:]:
            text += rng.choice(("\n", ". ", " . ")) + format_atom(a)
        text += rng.choice(("", "  # note"))
        assert parse(text).atoms == tuple(atoms), text


def test_parse_empty_input():
    problem = parse("# nothing here\n\n")
    assert problem.atoms == ()
    assert problem.expect is None


# Pieces of generated parser inputs: names, operators, brackets, the
# separators, stray characters, spaces the format does not skip, line
# breaks, comments and expect directives.
PARSE_PIECES = (
    "x", "y", "z0", "_u", "f", "g", "a", "rec", "=", "<=", "==", "<", "(", ")",
    ",", "&", ".", "@", "\xe9", " ", "  ", "\t", "\xa0", "\u2003", "\n", "\r",
    "# note", "# expect: sat", "# expect: unsat", "# expect: maybe",
)
PARSE_STATEMENTS = (
    "x = y", "x <= y", "x = a()", "x = f(y)", "x <= g(y, z)", "u <= f(x)", "y = g(x,y)",
)


def parse_inputs(n):
    """n seeded inputs: half runs of random pieces, half lines of valid
    statements, in most of which one token is inserted or deleted."""
    rng = random.Random(7)
    for i in range(n):
        if i % 2 == 0:
            yield "".join(rng.choice(PARSE_PIECES) for _ in range(rng.randint(1, 12)))
            continue
        stmts = [rng.choice(PARSE_STATEMENTS) for _ in range(rng.randint(1, 3))]
        k = rng.randrange(len(stmts))
        toks = stmts[k].replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
        j, edit = rng.randrange(len(toks)), rng.random()
        if edit < 0.4:
            del toks[j]
        elif edit < 0.8:
            toks.insert(j + rng.randint(0, 1), rng.choice(PARSE_PIECES[:18]))
        stmts[k] = " ".join(toks)
        tail = rng.choice(("", "", ".", "  # note", " # expect: unsat"))
        yield rng.choice(("\n", ". ", " . ")).join(stmts) + tail


def parse_outcome_digest(n=20_000):
    """sha256 over what parse() makes of each input of parse_inputs(n):
    the atoms and the expect directive, or the error's message and
    position."""
    h = hashlib.sha256()
    for text in parse_inputs(n):
        try:
            problem = parse(text)
            out = f"{[format_atom(a) for a in problem.atoms]}|{problem.expect}"
        except ParseError as exc:
            out = f"error|{exc.message}|{exc.line}|{exc.col}"
        h.update(out.encode() + b"\n")
    return h.hexdigest()


# Every atom, directive and error message, line and column the reader
# gives: a change that alters any of them must update this digest on
# purpose.
PARSE_DIGEST = "d2a172eab2dd2538185052de224d16956a6659bb30b2de66be4fea11b56a2828"


def test_parse_outcomes_are_pinned():
    assert parse_outcome_digest() == PARSE_DIGEST


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


def test_late_atom_and_classes_read_the_one_elimination_record():
    """A chain x0 = x1, ..., x5 = x6 asserted one atom at a time leaves
    x6 as the surviving name.  A later atom on x0 lands on x6, and
    solved_classes reads the store's record without writing to it."""
    xs = [var(f"x{i}") for i in range(7)]
    s = Solver()
    for a, b in zip(xs, xs[1:]):
        s.assert_atom(Eq(a, b))
    assert set(s.store.elim.values()) == {f"x{i}" for i in range(6)}
    assert s.assert_atom(EqApp(xs[0], F1, (y,))) == Verdict.SAT
    assert EqApp(xs[6], F1, (y,)) in s.store.atom_list()
    record = dict(s.store.elim)
    classes = solved_classes(s.store)
    assert {"vars": [f"x{i}" for i in range(7)], "constructor": "f/1"} in classes
    assert s.store.elim == record


# Random instances weighted towards x = y, so that unused equations and
# the elimination record both feed the classes.
EQ_HEAVY_KINDS = ("eq", "eq", "eq") + ATOM_KINDS


def classes_digest():
    """sha256 over solved_classes() of 300 random stores: each batch
    solve, and the incremental store after every assert."""
    h = hashlib.sha256()

    def feed(store):
        h.update(json.dumps(solved_classes(store), sort_keys=True).encode() + b"\n")

    for i in range(300):
        atoms = random_atoms(random.Random(i), n_vars=6, n_symbols=3, n_atoms=14,
                             kinds=EQ_HEAVY_KINDS)
        feed(solve(atoms).store)
        s = Solver()
        for a in atoms:
            s.assert_atom(a)
            feed(s.store)
    return h.hexdigest()


# The classes that type diagnosis reports: a change that alters any of
# them must update this digest on purpose.
CLASSES_DIGEST = "5c8d1e7c541149b5b07e5eb397256ebc442c1ab0f1a4299b15c0f5a6bf5b6fb8"


def test_solved_classes_are_pinned():
    assert classes_digest() == CLASSES_DIGEST


def sat_classes_digest():
    """sha256 over solved_classes() of the stores of classes_digest()
    that end sat: each sat batch solve, and the incremental store after
    every assert whose verdict is sat."""
    h = hashlib.sha256()

    def feed(store):
        h.update(json.dumps(solved_classes(store), sort_keys=True).encode() + b"\n")

    for i in range(300):
        atoms = random_atoms(random.Random(i), n_vars=6, n_symbols=3, n_atoms=14,
                             kinds=EQ_HEAVY_KINDS)
        result = solve(atoms)
        if result.verdict is Verdict.SAT:
            feed(result.store)
        s = Solver()
        for a in atoms:
            if s.assert_atom(a) is Verdict.SAT:
                feed(s.store)
    return h.hexdigest()


# The classes of every sat store: they do not depend on the step at
# which a run stops, so a change of route alone leaves them as they are.
SAT_CLASSES_DIGEST = "ce50997ceb85267e7ac1387b590fcee306fa3c93647c4822a9a38cb90e4019dd"


def test_sat_solved_classes_are_pinned():
    assert sat_classes_digest() == SAT_CLASSES_DIGEST


def test_report_schema_and_stability():
    result = solve(parse(ROUTED_CLASH_TEXT).atoms)
    data = report(result)
    assert set(data) == {"status", "steps", "atoms", "classes"}
    assert data["status"] == "unsat"
    assert data["steps"] == 1
    assert all(isinstance(s, str) for s in data["atoms"])
    with_trace = report(result, include_trace=True)
    assert len(with_trace["trace"]) == 1
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
    assert "unsat after 1 step(s)" in capsys.readouterr().out


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


def test_python_m_wsc_runs_the_cli():
    """`python -m wsc corpus` runs the command line as `wsc corpus`
    does, with nothing on stderr."""
    src = str(Path(wsc.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "wsc", "corpus"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout.strip().split("\n")) == len(corpus_problems())


def test_a_closed_stdout_ends_in_exit_2_without_a_traceback():
    """`wsc random | head -1`: when the reader closes stdout early, the
    command exits 2, an output error, not 1 ("unsat"), and writes
    nothing on stderr, even with warnings as errors."""
    src = str(Path(wsc.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # Far more output than a pipe buffers, so the pipe breaks mid-run.
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "wsc", "random", "--count", "4000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env={**os.environ, "PYTHONPATH": path},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b"0-0: ")
    assert (proc.wait(timeout=60), err) == (2, b"")


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


def test_package_docstring_lists_the_public_api():
    """The package docstring names every export of wsc.__all__ once,
    beside the module it comes from, and nothing else."""
    listed = {}
    for line in wsc.__doc__.split("one place:")[1].strip().splitlines():
        if not line.startswith("   "):
            module, _, line = line.strip().partition(" ")
        for name in line.split("(")[0].replace(",", " ").split():
            listed[name] = module
    assert sorted(listed) == sorted(set(wsc.__all__) - {"__version__"})
    for name, module in listed.items():
        assert getattr(sys.modules[f"wsc.{module}"], name) is getattr(wsc, name), name
