"""Tests for the solver driver: batch solving, stepping, incremental
assertion, traces, and input validation."""

import hashlib
import itertools
import random
import re
from collections import Counter

import pytest

from wsc.constraints import Eq, EqApp, Sub, SubApp, var
from wsc.engine import (
    DEFAULT_PRIORITY,
    RuleId,
    Solver,
    Verdict,
    format_trace,
    solve,
)
from wsc.frontend import random_atoms
from wsc.terms import Symbol

A = Symbol("a", 0)
B = Symbol("b", 0)
F1 = Symbol("f", 1)
F2 = Symbol("f", 2)
G1 = Symbol("g", 1)
PAIR = Symbol("pair", 2)
CONS = Symbol("cons", 2)

x, y, z, u, v, w, p = (var(n) for n in ["x", "y", "z", "u", "v", "w", "p"])

TWO_HOLES_ONE_ROOT = [Sub(x, z), Sub(y, z), EqApp(x, A, ()), EqApp(y, B, ())]
ROUTED_CLASH = [
    EqApp(y, F1, (u,)),
    EqApp(u, A, ()),
    EqApp(z, F1, (x,)),
    Sub(x, y),
    Sub(x, z),
]
LOOP_BELOW = [Sub(x, y), EqApp(y, F1, (x,))]
LOOP_SELF = [Sub(x, y), EqApp(y, F1, (y,))]
DISTINCT_ARGS = [EqApp(x, F2, (u, v)), Sub(x, y), EqApp(y, F2, (z, z))]
GAMMA = [
    EqApp(p, PAIR, (u, v)),
    EqApp(v, CONS, (x, u)),
    Sub(y, u),
    Sub(y, v),
    EqApp(x, F2, (y, z)),
]


def random_base_atoms(rng, n_vars=5, n_atoms=8):
    names = [f"x{i}" for i in range(n_vars)]
    syms = [A, F1, F2]
    out = []
    for _ in range(rng.randint(1, n_atoms)):
        kind = rng.randrange(4)
        a, b = var(rng.choice(names)), var(rng.choice(names))
        if kind == 0:
            out.append(Eq(a, b))
        elif kind == 1:
            sym = rng.choice(syms)
            out.append(EqApp(a, sym, tuple(var(rng.choice(names)) for _ in range(sym.arity))))
        elif kind == 2:
            out.append(Sub(a, b))
        else:
            sym = rng.choice(syms)
            out.append(SubApp(a, sym, tuple(var(rng.choice(names)) for _ in range(sym.arity))))
    return out


# --- batch solving ---------------------------------------------------------------


def test_two_holes_below_one_root_is_sat():
    res = solve(TWO_HOLES_ONE_ROOT)
    assert res.verdict == Verdict.SAT


def test_routed_clash_is_unsat():
    res = solve(ROUTED_CLASH)
    assert res.verdict == Verdict.UNSAT
    assert res.trace[-1].rule == RuleId.CLASH
    assert res.trace[-1].contradiction


def test_distinct_argument_holes_stay_sat():
    res = solve(DISTINCT_ARGS)
    assert res.verdict == Verdict.SAT
    # u and v were never equated
    assert not any(isinstance(a, Eq) for a in res.store.atom_list())


def test_gamma_constraint_is_sat():
    res = solve(GAMMA)
    assert res.verdict == Verdict.SAT


def test_loops_terminate_quickly():
    for atoms in (LOOP_BELOW, LOOP_SELF):
        res = solve(atoms)
        assert res.verdict == Verdict.SAT
        assert res.steps < 100


def test_empty_conjunction_is_sat():
    res = solve([])
    assert res.verdict == Verdict.SAT
    assert res.steps == 0


def test_solve_is_deterministic():
    r1 = solve(ROUTED_CLASH)
    r2 = solve(ROUTED_CLASH)
    assert format_trace(r1.trace) == format_trace(r2.trace)
    assert r1.steps == r2.steps


def test_solved_stores_keep_equations_base_only():
    rng = random.Random(99)
    for _ in range(150):
        res = solve(random_base_atoms(rng))
        for a in res.store.atom_list():
            if isinstance(a, (Eq, EqApp)):
                assert all(len(q.parts) == 1 for q in (a.lhs,) + (a.args if isinstance(a, EqApp) else (a.rhs,)))


def chain(n):
    """C(n) = {x_i <= x_(i+1)} + {x_i = f(x_((i+1) mod n))}, in this order."""
    xs = [var(f"x{i}") for i in range(n)]
    return [Sub(xs[i], xs[i + 1]) for i in range(n - 1)] + [
        EqApp(xs[i], F1, (xs[(i + 1) % n],)) for i in range(n)
    ]


C3_TRACE = """\
step 1: Collapse on x0 <= x1, x1 <= x2 => x0 <= x1&x2
step 2: Descend2 on x1 <= x2, x2 = f(x0) => x1&x2 <= f(x0)
step 3: Propagate2 on x1&x2 <= f(x0), x1 = f(x2) => x1&x2 <= f(x0&x2)
step 4: Descend2 on x0 <= x1&x2, x2 = f(x0) => x0&x2 <= f(x0)
step 5: Propagate2 on x0&x2 <= f(x0), x0 = f(x1), x0 <= x1&x2, x1 = f(x2) => x0&x2 <= f(x0&x1&x2)
step 6: Descend2 on x0 <= x1&x2, x2 = f(x0) => x0&x1&x2 <= f(x0)
step 7: Propagate2 on x0&x1&x2 <= f(x0), x0 = f(x1), x0 <= x1&x2, x1 = f(x2) => x0&x1&x2 <= f(x0&x1&x2)
step 8: Descend1 on x0 = f(x1), x0 <= x1&x2, x2 = f(x0) => x1 <= x0
step 9: Propagate1 on x1 <= x2, x1 <= x0 => x1 <= x0&x2
step 10: Propagate1 on x1 <= x0, x1 <= x0&x2 => x1 <= x0&x2
step 11: Propagate2 on x1&x2 <= f(x0&x2), x1 <= x0&x2, x0 = f(x1) => x1&x2 <= f(x0&x1&x2)
step 12: Collapse on x0 <= x1&x2, x1 <= x0&x2 => x0 <= x0&x1&x2
step 13: Collapse on x1 <= x0&x2, x0 <= x0&x1&x2 => x1 <= x0&x1&x2
step 14: Descend1 on x1 = f(x2), x1 <= x0&x1&x2, x2 = f(x0) => x2 <= x0
step 15: Collapse on x2 <= x0, x0 <= x0&x1&x2 => x2 <= x0&x1&x2"""


# Steps and firings per rule (Collapse, Descend1, Descend2, Propagate1,
# Propagate2) of C(n).  A change that alters the firing order must
# update these on purpose.
CHAIN_FIRINGS = {
    3: (15, (4, 2, 3, 2, 4)),
    4: (26, (6, 3, 5, 4, 8)),
    5: (37, (8, 4, 7, 6, 12)),
    6: (48, (10, 5, 9, 8, 16)),
    7: (59, (12, 6, 11, 10, 20)),
    8: (70, (14, 7, 13, 12, 24)),
}


def test_chain_firing_order_is_pinned():
    assert format_trace(solve(chain(3)).trace) == C3_TRACE
    rules = (RuleId.COLLAPSE, RuleId.DESCEND1, RuleId.DESCEND2, RuleId.PROPAGATE1,
             RuleId.PROPAGATE2)
    for n, (steps, fired) in CHAIN_FIRINGS.items():
        res = solve(chain(n))
        assert res.verdict == Verdict.SAT
        assert res.steps == steps
        counts = Counter(e.rule for e in res.trace)
        assert tuple(counts[r] for r in rules) == fired
        assert sum(fired) == steps


def test_chain_steps_grow_linearly():
    # one Propagate1, Propagate2 or Collapse firing takes every current
    # partner, so C(n) no longer pays a step per intersection component
    for n in range(3, 17):
        assert solve(chain(n)).steps <= 11 * n


def route_digest():
    """sha256 over verdict, store and trace of 300 random conjunctions,
    each solved batch and then asserted one atom at a time, and of
    C(3..9)."""
    h = hashlib.sha256()

    def feed(verdicts, store, trace):
        h.update(f"{verdicts}|{store}|{format_trace(trace)}\n".encode())

    for i in range(300):
        atoms = random_atoms(random.Random(i), n_vars=6, n_symbols=3, n_atoms=12)
        res = solve(atoms)
        feed(res.verdict, res.store, res.trace)
        s = Solver()
        verdicts = [s.assert_atom(a).value for a in atoms]
        feed(",".join(verdicts), s.store, s.trace)
    for n in range(3, 10):
        res = solve(chain(n))
        feed(res.verdict, res.store, res.trace)
    return h.hexdigest()


# The rule agendas and indexes find the same first instance as a scan
# of the whole store would: a change that alters a verdict, a solved
# store or the route to it must update this digest on purpose.
ROUTE_DIGEST = "7b570d762693f2cea3bac3c56bf3838d2c2576785b94dc7368374edcd348bdbc"


def test_routes_are_pinned():
    assert route_digest() == ROUTE_DIGEST


def outcome_digest():
    """sha256 over the verdicts and the solved stores, as sorted atom
    strings, of the inputs of route_digest(): every per-assert verdict
    of the incremental runs, and no trace."""
    h = hashlib.sha256()

    def feed(verdicts, store):
        h.update(f"{verdicts}|{sorted(map(str, store.atom_list()))}\n".encode())

    for i in range(300):
        atoms = random_atoms(random.Random(i), n_vars=6, n_symbols=3, n_atoms=12)
        res = solve(atoms)
        feed(res.verdict, res.store)
        s = Solver()
        verdicts = [s.assert_atom(a).value for a in atoms]
        feed(",".join(verdicts), s.store)
    for n in range(3, 10):
        res = solve(chain(n))
        feed(res.verdict, res.store)
    return h.hexdigest()


# What a solver decides and the store it ends with, whatever route it
# takes there: a change of route alone leaves this digest as it is.
OUTCOME_DIGEST = "b2972fcc238650f8f78b10d00515f40300d0e05bb8b9046bc71d0c3eedcbe2be"


def test_verdicts_and_solved_stores_are_pinned():
    assert outcome_digest() == OUTCOME_DIGEST


# --- stepping ----------------------------------------------------------------------


def test_single_step_to_contradiction():
    s = Solver()
    s.insert(EqApp(x, A, ()))
    s.insert(EqApp(x, B, ()))
    assert s.verdict == Verdict.UNKNOWN
    assert s.step()
    assert s.verdict == Verdict.UNSAT
    assert s.step_count == 1
    assert not s.step()


def test_step_on_irreducible_store():
    s = Solver()
    s.insert(Sub(x, y))
    assert not s.step()
    assert s.verdict == Verdict.SAT


def test_stepping_the_loop_terminates_sat():
    s = Solver()
    s.insert(Sub(x, y))
    s.insert(EqApp(y, F1, (x,)))
    n = 0
    while s.step():
        n += 1
        assert n < 100
    assert s.verdict == Verdict.SAT


# --- incremental assertion -----------------------------------------------------------


def test_assert_atom_reaches_contradiction():
    s = Solver()
    assert s.assert_atom(EqApp(x, A, ())) == Verdict.SAT
    assert s.assert_atom(EqApp(x, B, ())) == Verdict.UNSAT
    # absorbing: anything after stays unsat
    assert s.assert_atom(Sub(y, z)) == Verdict.UNSAT


def test_all_routed_clash_orders_agree_with_batch():
    batch = solve(ROUTED_CLASH).verdict
    assert batch == Verdict.UNSAT
    for perm in itertools.permutations(ROUTED_CLASH):
        s = Solver()
        last = None
        for a in perm:
            last = s.assert_atom(a)
        assert last == batch


def test_incremental_matches_batch_on_random_inputs():
    rng = random.Random(77)
    for _ in range(60):
        atoms = random_base_atoms(rng)
        batch = solve(atoms).verdict
        order = atoms[:]
        rng.shuffle(order)
        s = Solver()
        last = Verdict.SAT
        for a in order:
            last = s.assert_atom(a)
        assert last == batch


def test_assertions_are_normalized_through_eliminations():
    s = Solver()
    s.assert_atom(Eq(x, y))
    s.assert_atom(EqApp(x, F1, (u,)))  # makes x or y disappear from the rest
    s.assert_atom(EqApp(x, G1, (u,)))  # conflicts regardless of naming
    assert s.verdict == Verdict.UNSAT


# --- traces and validation ------------------------------------------------------------


def test_trace_line_format():
    res = solve(ROUTED_CLASH)
    pat = re.compile(
        r"^step \d+: (Clash|Elim|Decom|Propagate1|Propagate2|Collapse|Descend1|Descend2)"
        r" on .+ => .+$"
    )
    lines = format_trace(res.trace).splitlines()
    assert lines
    for line in lines:
        assert pat.match(line), line
    assert lines[-1].endswith("=> bottom")


def test_trace_steps_are_sequential():
    res = solve(ROUTED_CLASH)
    assert [e.step for e in res.trace] == list(range(1, res.steps + 1))


def test_solve_rejects_intersection_variables():
    with pytest.raises(ValueError):
        solve([Sub(x, var("y", "z"))])
    with pytest.raises(ValueError):
        solve([SubApp(var("x", "y"), F1, (z,))])
    s = Solver()
    with pytest.raises(ValueError):
        s.assert_atom(Sub(var("x", "y"), z))


def test_priority_must_cover_every_rule():
    with pytest.raises(ValueError):
        Solver(priority=(RuleId.CLASH,))
    with pytest.raises(ValueError):
        Solver(priority=DEFAULT_PRIORITY + (RuleId.CLASH,))
    Solver(priority=tuple(reversed(DEFAULT_PRIORITY)))


def test_scrambled_priority_keeps_verdicts():
    scrambled = tuple(reversed(DEFAULT_PRIORITY))
    for atoms in (TWO_HOLES_ONE_ROOT, ROUTED_CLASH, LOOP_BELOW, DISTINCT_ARGS, GAMMA):
        assert solve(atoms).verdict == solve(atoms, priority=scrambled).verdict
