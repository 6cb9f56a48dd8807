"""Tests for the product read off a solved store: the model it gives
on every sat verdict, judged by the independent oracles.check_witness,
its walk on deep stores, and `wsc solve --witness`."""

import json
import random

import pytest

from wsc.constraints import EqApp, Sub, SubApp, var
from wsc.engine import DEFAULT_PRIORITY, Solver, Verdict, solve, witness
from wsc.frontend import corpus_problems, random_atoms, run_cli
from wsc.oracles import check_witness, load_witness
from wsc.terms import Symbol

F1 = Symbol("f", 1)

PRIORITIES = [DEFAULT_PRIORITY, tuple(reversed(DEFAULT_PRIORITY))]


def chain(n):
    """C(n) = {x_i <= x_(i+1)} + {x_i = f(x_((i+1) mod n))}."""
    xs = [var(f"x{i}") for i in range(n)]
    return [Sub(xs[i], xs[i + 1]) for i in range(n - 1)] + [
        EqApp(xs[i], F1, (xs[(i + 1) % n],)) for i in range(n)
    ]


def assert_witnessed(atoms, result):
    """A sat verdict comes with a model of the input; unsat with none."""
    sigma = witness(result.store)
    if result.verdict == Verdict.SAT:
        assert sigma is not None and check_witness(sigma, atoms), atoms
    else:
        assert sigma is None


@pytest.mark.parametrize("suite, n_vars, n_symbols, n_atoms, count", [
    ("c3", 6, 3, 12, 1000),
    ("c5", 4, 2, 8, 500),
])
def test_the_witness_holds_on_random_batch_verdicts(suite, n_vars, n_symbols, n_atoms, count):
    sat = 0
    for i in range(count):
        atoms = random_atoms(random.Random(f"{suite}-{i}"), n_vars=n_vars,
                             n_symbols=n_symbols, n_atoms=n_atoms)
        result = solve(atoms)
        assert_witnessed(atoms, result)
        sat += result.verdict == Verdict.SAT
    assert sat > count // 4  # the suite has real coverage


def test_the_witness_holds_on_the_corpus_and_on_chains():
    cases = [list(p.atoms) for p in corpus_problems()] + [chain(n) for n in range(3, 25)]
    for atoms in cases:
        assert_witnessed(atoms, solve(atoms))
    assert all(solve(chain(n)).verdict == Verdict.SAT for n in range(3, 25))


@pytest.mark.parametrize("priority", PRIORITIES)
def test_the_witness_holds_after_every_sat_prefix(priority):
    for i in range(300):
        rng = random.Random(f"c6-{i}")
        atoms = random_atoms(rng)
        rng.shuffle(atoms)
        solver = Solver(priority=priority)
        for k, a in enumerate(atoms, start=1):
            if solver.assert_atom(a) == Verdict.UNSAT:
                assert witness(solver.store) is None
                break
            sigma = witness(solver.store)
            assert sigma is not None and check_witness(sigma, atoms[:k]), atoms[:k]


def test_a_deep_subsumption_chain_solves_without_recursion():
    n = 20_000
    xs = [var(f"x{i}") for i in range(n + 1)]
    result = solve([SubApp(xs[i], F1, (xs[i + 1],)) for i in range(n)])
    assert result.verdict == Verdict.SAT
    assert result.steps == 0


def test_cli_prints_the_witness(tmp_path, capsys):
    text = "w <= f(y)\nw <= f(z)\nz = g(b)\n"
    f = tmp_path / "p.wsc"
    f.write_text(text)
    assert run_cli(["solve", str(f), "--witness", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    sigma = load_witness(data["witness"])
    assert sorted(sigma) == ["b", "w", "y", "z"]
    atoms = [SubApp(var("w"), F1, (var("y"),)), SubApp(var("w"), F1, (var("z"),)),
             EqApp(var("z"), Symbol("g", 1), (var("b"),))]
    assert check_witness(sigma, atoms)
    assert run_cli(["solve", str(f), "--witness"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(data["witness"])
    f.write_text(text + "y = a()\n")
    assert run_cli(["solve", str(f), "--witness", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] is None


def test_a_hole_named_rec_reads_back(tmp_path, capsys):
    # `rec` is the term syntax's binder keyword, so the hole of the name
    # rec gets a fresh name, as a hole with no name of its own does
    f = tmp_path / "rec.wsc"
    f.write_text("x <= f(rec)\n")
    assert run_cli(["solve", str(f), "--witness"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("rec := h1\nx := f(h1)\n")
    sigma = load_witness(out[out.index("rec := "):])
    assert check_witness(sigma, [SubApp(var("x"), F1, (var("rec"),))])


def test_cli_prints_no_witness_line_for_an_input_without_atoms(tmp_path, capsys):
    f = tmp_path / "empty.wsc"
    f.write_text("# no atoms\n")
    assert run_cli(["solve", str(f), "--witness"]) == 0
    assert capsys.readouterr().out == "sat after 0 step(s)\n"
    assert run_cli(["solve", str(f), "--witness", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == ""
