"""Tests for the individual rewrite rules, one store shape at a time.

Each rule function either fires (mutating the store and returning the
firing as (on, removed, added)) or returns None.  These tests pin down
the exact firings and before/after stores for the documented shapes,
including the guards that must NOT fire.
"""

import pytest

from wsc.constraints import (
    Eq,
    EqApp,
    Store,
    Sub,
    SubApp,
    determining_atoms,
    var,
)
from wsc.engine import (
    DEFAULT_PRIORITY,
    RuleId,
    Solver,
    Verdict,
    _descend1_at,
    rule_clash,
    rule_descend1,
    rule_elim,
)
from wsc.terms import Symbol

A = Symbol("a", 0)
B = Symbol("b", 0)
F1 = Symbol("f", 1)
F2 = Symbol("f", 2)
G1 = Symbol("g", 1)

x, y, z, u, v, w = (var(n) for n in "xyzuvw")


def store_of(*atoms):
    return Store(atoms)


def atoms_of(s):
    return set(s.atom_list())


# --- Decom: the store decomposes as it indexes ----------------------------------


def test_decom_replaces_first_equation():
    # a second x = f(·) decomposes as the store adds it: the larger id
    # stays, and the argument equations are added after it
    s = store_of(EqApp(x, F1, (u,)), EqApp(x, F1, (v,)))
    assert s.log == [
        ("Decom", (EqApp(x, F1, (u,)), EqApp(x, F1, (v,))), (EqApp(x, F1, (u,)),), (Eq(u, v),)),
    ]
    assert s.atoms() == [(1, EqApp(x, F1, (v,))), (2, Eq(u, v))]
    assert not s.contradiction


def test_decom_binary_symbol():
    s = store_of(EqApp(x, F2, (u, w)), EqApp(x, F2, (v, z)))
    assert s.log[0][3] == (Eq(u, v), Eq(w, z))
    assert atoms_of(s) == {Eq(u, v), Eq(w, z), EqApp(x, F2, (v, z))}


def test_decom_needs_two_equations_same_lhs_same_symbol():
    for atoms in ((EqApp(x, F1, (u,)),), (EqApp(x, F1, (u,)), EqApp(y, F1, (v,)))):
        s = store_of(*atoms)
        assert (s.log, atoms_of(s)) == ([], set(atoms))
    # another symbol is no Decom: both equations stay, and x holds two
    # symbols, for Clash to fire on
    atoms = (EqApp(x, F1, (u,)), EqApp(x, G1, (v,)))
    s = store_of(*atoms)
    assert (s.log, atoms_of(s)) == ([], set(atoms))
    assert not s.contradiction
    assert s.clash_candidates == {"x"}


def test_decom_inside_elim_waits_for_the_whole_substitution():
    # Elim moves x = f(u) onto y while y = f(x) still mentions x.  Met
    # at once, the pair would add u = x and bring x back; met after the
    # loop, it is y = f(u) against y = f(y), and adds u = y.
    s = store_of(Eq(x, y), EqApp(x, F1, (u,)), EqApp(y, F1, (x,)))
    assert rule_elim(s) == ((Eq(x, y),), (), ())
    assert s.log == [
        ("Decom", (EqApp(y, F1, (u,)), EqApp(y, F1, (y,))), (EqApp(y, F1, (u,)),), (Eq(u, y),)),
    ]
    assert atoms_of(s) == {Eq(x, y), EqApp(y, F1, (y,)), Eq(u, y)}
    assert s.elim == {0: "x"}
    assert not s.occurs_elsewhere("x", 0)


# --- Clash ---------------------------------------------------------------------


def test_clash_on_double_equation():
    # the store keeps both equations and logs nothing; x holds two
    # symbols, and Clash fires on it as the solver's first step
    s = store_of(EqApp(x, A, ()), EqApp(x, B, ()))
    assert (s.log, s.contradiction, s.clash_candidates) == ([], False, {"x"})
    assert rule_clash(s) == ((EqApp(x, A, ()), EqApp(x, B, ())), (), ())
    assert s.contradiction
    solver = Solver()
    solver.insert(EqApp(x, A, ()))
    solver.insert(EqApp(x, B, ()))
    assert solver.trace == []
    assert solver.run() == Verdict.UNSAT
    assert [str(e) for e in solver.trace] == ["step 1: Clash on x = a(), x = b() => bottom"]
    assert not solver.step()


def test_clash_on_double_subsumption():
    s = store_of(SubApp(x, A, ()), SubApp(x, B, ()))
    assert rule_clash(s) == ((SubApp(x, A, ()), SubApp(x, B, ())), (), ())
    assert s.contradiction


def test_clash_through_routed_determinations():
    # z is below x&y while x and y are rooted differently
    s = store_of(
        EqApp(x, F1, (u,)),
        EqApp(y, G1, (v,)),
        Sub(z, var("x", "y")),
    )
    # the routing atom is shared by both determinations and listed once
    on = (Sub(z, var("x", "y")), EqApp(x, F1, (u,)), EqApp(y, G1, (v,)))
    assert rule_clash(s) == (on, (), ())
    assert s.contradiction


def test_clash_between_component_and_intersection():
    # w <= f(y) and w <= f(z) put one child of w below both y = f(u)
    # and z = g(v): no rule fires, and the product's node {y, z}
    # carries f and g
    s = Solver()
    for a in (SubApp(w, F1, (y,)), SubApp(w, F1, (z,)), EqApp(y, F1, (u,)), EqApp(z, G1, (v,))):
        s.insert(a)
    assert s.run() == Verdict.UNSAT
    last = s.trace[-1]
    assert (last.rule, last.on) == (RuleId.CLASH, (EqApp(y, F1, (u,)), EqApp(z, G1, (v,))))
    assert str(last) == f"step {last.step}: Clash on y = f(u), z = g(v) => bottom"
    assert s.step_count == len(s.trace)


def test_clash_requires_two_distinct_symbols():
    assert rule_clash(store_of(EqApp(x, A, ()), SubApp(x, A, ()))) is None
    assert rule_clash(store_of(EqApp(x, F1, (u,)), EqApp(y, F1, (v,)))) is None
    # same name, different arity: two different constructors
    s = store_of(EqApp(x, F1, (u,)), SubApp(x, F2, (v, w)))
    assert rule_clash(s) is not None
    assert s.contradiction


def test_clash_on_a_base_variable_with_one_atom_of_its_own_and_one_routed():
    # x's own atoms carry one symbol, but x <= y routes a second to it
    s = store_of(EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, A, ()))
    assert rule_clash(s) == ((Sub(x, y), EqApp(y, A, ()), EqApp(x, F1, (u,))), (), ())
    assert s.contradiction


def test_clash_confirms_a_set_left_stale_by_a_removal():
    # The store keeps x's symbols {a, b}; removing atoms by hand leaves
    # the set as it was, and a look at x reads the determinations first.
    s = store_of(EqApp(x, A, ()), SubApp(x, B, ()))
    assert s.syms["x"] == {A, B} and s.clash_candidates == {"x"}
    s.remove(1)
    assert rule_clash(s) is None
    s.remove(0)
    assert rule_clash(s) is None and not s.contradiction
    # x stays a candidate, so a clash brought back by new atoms fires
    s.add(EqApp(x, A, ()))
    s.add(SubApp(x, B, ()))
    assert rule_clash(s) == ((EqApp(x, A, ()), SubApp(x, B, ())), (), ())


# --- Elim ----------------------------------------------------------------------


def test_elim_substitutes_inside_intersection_variables():
    s = store_of(Eq(x, y), Sub(z, var("x", "w")))
    assert rule_elim(s) == ((Eq(x, y),), (), ())
    assert atoms_of(s) == {Eq(x, y), Sub(z, var("y", "w"))}
    assert s.elim == {0: "x"}
    assert s.current("x") == "y"


def test_elim_rewrites_equations():
    s = store_of(Eq(x, y), EqApp(x, F1, (u,)))
    assert rule_elim(s) is not None
    assert atoms_of(s) == {Eq(x, y), EqApp(y, F1, (u,))}


def test_elim_needs_an_occurrence_elsewhere():
    assert rule_elim(store_of(Eq(x, y))) is None


def test_elim_fires_once_per_equation():
    s = store_of(Eq(x, y), Sub(z, x), Sub(w, y))
    assert rule_elim(s) is not None
    assert atoms_of(s) == {Eq(x, y), Sub(z, y), Sub(w, y)}
    # the equation is spent: y still occurs elsewhere, but re-running
    # would only ping-pong the two sides forever
    assert rule_elim(s) is None


def test_elim_can_eliminate_the_right_side():
    # x occurs nowhere else, y does: y is substituted away instead
    s = store_of(Eq(x, y), Sub(z, y))
    assert rule_elim(s) is not None
    assert atoms_of(s) == {Eq(x, y), Sub(z, x)}
    assert s.elim == {0: "y"}
    assert s.current("y") == "x"


def test_elim_skips_reflexive_equations():
    assert rule_elim(store_of(Eq(x, x), Sub(z, x))) is None


def test_elim_keeps_an_equation_until_a_side_occurs_elsewhere():
    s = Solver()
    s.assert_atom(Eq(x, y))
    assert s.step_count == 0
    s.assert_atom(Sub(z, x))
    assert [e.rule.value for e in s.trace] == ["Elim"]
    assert atoms_of(s.store) == {Eq(x, y), Sub(z, y)}


# --- the store's join: one x <= r per name -----------------------------------------


def test_a_second_subsumption_grows_the_one_atom_in_place():
    s = Store()
    i = s.add(Sub(x, var("y", "z")))
    assert s.add(Sub(x, u)) == i
    assert s.atoms() == [(i, Sub(x, var("u", "y", "z")))]
    assert s.add(Sub(x, v)) == i
    assert s.atoms() == [(i, Sub(x, var("u", "v", "y", "z")))]
    # the join is silent, like the dedup
    assert s.log == []


def test_a_covered_subsumption_adds_nothing():
    s = store_of(Sub(x, var("z", "u")), Sub(z, u))
    before = s.atoms()
    assert s.add(Sub(x, u)) == before[0][0]
    assert s.add(Sub(x, var("u", "z"))) == before[0][0]
    assert s.atoms() == before
    # z <= u sits on z: it is no second atom on x
    assert s.ids(Sub, x) == [before[0][0]]


def test_elim_moving_a_subsumption_onto_a_name_with_one_joins_them():
    # Elim moves x <= u onto y, which has y <= z: one y <= u&z stays,
    # under the smaller id
    s = store_of(Sub(y, z), Eq(x, y), Sub(x, u))
    assert rule_elim(s) == ((Eq(x, y),), (), ())
    assert s.atoms() == [(0, Sub(y, var("u", "z"))), (1, Eq(x, y))]
    assert s.elim == {1: "x"}
    # and the other way round, the moved atom having the smaller id
    s = store_of(Sub(x, u), Eq(x, y), Sub(y, z))
    assert rule_elim(s) == ((Eq(x, y),), (), ())
    assert s.atoms() == [(0, Sub(y, var("u", "z"))), (1, Eq(x, y))]
    assert s.log == []


# --- Descend1 --------------------------------------------------------------------


def test_descend1_pushes_subsumption_to_arguments():
    s = store_of(EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, F1, (z,)))
    assert rule_descend1(s) == (
        (EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, F1, (z,))),
        (),
        (Sub(u, z),),
    )
    assert atoms_of(s) == {EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, F1, (z,)), Sub(u, z)}


def test_descend1_never_descends_on_its_own_account():
    # a single equation does not determine its own left side "again":
    # nothing may be derived from x = f(u) alone
    assert rule_descend1(store_of(EqApp(x, F1, (u,)))) is None


def test_descend1_skips_its_own_equation_routed_back():
    # x <= x routes x's own equation to x a second time; that routed
    # determination is still the equation itself, so nothing descends
    assert rule_descend1(store_of(EqApp(x, F1, (u,)), Sub(x, x))) is None


def test_descend1_self_loop_does_not_duplicate():
    # x = f(y) alone must not spawn y <= y
    assert rule_descend1(store_of(EqApp(x, F1, (y,)))) is None


def test_descend1_covered_positions_are_skipped():
    # the subsumption x <= y already covers what f(y)'s argument asks for
    s = store_of(Sub(x, y), EqApp(x, F1, (x,)), SubApp(x, F1, (y,)))
    assert rule_descend1(s) is None
    # u covers u itself, by reflexivity, with no u <= u
    assert rule_descend1(store_of(EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, F1, (u,)))) is None
    assert rule_descend1(store_of(EqApp(x, F1, (u,)), SubApp(x, F1, (u,)))) is None


def test_descend1_adds_all_uncovered_positions_at_once():
    s = store_of(EqApp(x, F2, (u, v)), Sub(x, y), EqApp(y, F2, (z, z)))
    assert rule_descend1(s)[2] == (Sub(u, z), Sub(v, z))
    assert Sub(u, z) in s
    assert Sub(v, z) in s


def solvers(atoms):
    """A solver run batch and one run asserting one atom at a time, each
    under the default and the reversed priority."""
    for priority in (DEFAULT_PRIORITY, DEFAULT_PRIORITY[::-1]):
        batch = Solver(priority=priority)
        for a in atoms:
            batch.insert(a)
        batch.run()
        yield batch
        one_by_one = Solver(priority=priority)
        for a in atoms:
            one_by_one.assert_atom(a)
        yield one_by_one


def test_descend1_reads_up_to_the_nearest_equation():
    # x reads y = f(v), the first equation on its way, and not z = f(w)
    # behind it: with u <= v in place, a look at x = f(u) fires nothing
    chain = (EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, F1, (v,)), Sub(y, z), EqApp(z, F1, (w,)))
    s = store_of(*chain, Sub(u, v))
    assert _descend1_at(s, 0) is None
    # y = f(v) pushes v <= w, and u reaches w through v
    assert rule_descend1(s) == (chain[2:], (), (Sub(v, w),))
    assert rule_descend1(s) is None
    assert "w" in s.reachable(u)
    for solver in solvers(chain):
        assert solver.verdict is Verdict.SAT
        assert not any({chain[0], chain[4]} <= set(e.on) for e in solver.trace)
        assert "w" in solver.store.reachable(u)


def test_descend1_reads_past_a_name_with_no_equation():
    # y carries y <= f(v) and no equation, so x reads it and goes on to
    # z = f(w): both are pushed down to u
    s = store_of(EqApp(x, F1, (u,)), Sub(x, y), SubApp(y, F1, (v,)), Sub(y, z), EqApp(z, F1, (w,)))
    assert rule_descend1(s) == ((EqApp(x, F1, (u,)), Sub(x, y), SubApp(y, F1, (v,))), (), (Sub(u, v),))
    assert rule_descend1(s) == ((EqApp(x, F1, (u,)), Sub(x, y), EqApp(z, F1, (w,))),
                                (Sub(u, v),), (Sub(u, var("v", "w")),))
    assert rule_descend1(s) is None


def test_a_nearest_equation_with_another_symbol_clashes():
    # x stops at y = g(v) and never reads z = f(w) behind it; y holds g
    # and f, so Clash ends the run whatever the priority
    atoms = (EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, G1, (v,)), Sub(y, z), EqApp(z, F1, (w,)))
    for solver in solvers(atoms):
        assert solver.verdict is Verdict.UNSAT


def test_descend1_stops_at_its_own_equation_round_a_cycle():
    # x <= y <= x: the walk from x passes y, which has no equation, and
    # stops at x, reading x's own equation routed, which is skipped
    s = store_of(EqApp(x, F1, (u,)), Sub(x, y), Sub(y, x))
    assert determining_atoms(s, x, frontier=True) == [(0, None), (0, 1)]
    assert rule_descend1(s) is None
    # y <= f(v) on the way is read once
    s.add(SubApp(y, F1, (v,)))
    assert rule_descend1(s) == ((EqApp(x, F1, (u,)), Sub(x, y), SubApp(y, F1, (v,))), (), (Sub(u, v),))
    assert rule_descend1(s) is None


# --- general rule behavior ---------------------------------------------------------


def test_rules_are_inapplicable_on_contradiction():
    s = store_of(EqApp(x, A, ()), EqApp(x, B, ()))
    rule_clash(s)
    assert s.contradiction
    for rule in (rule_clash, rule_elim, rule_descend1):
        assert rule(s) is None


def test_every_firing_logs_one_event():
    # a firing reports only what it changed: removed atoms are gone from
    # the store, added ones are present; here Descend1 grows u <= v to
    # u <= v&z
    s = store_of(EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, F1, (z,)), Sub(u, v))
    on, removed, added = rule_descend1(s)
    assert (removed, added) == ((Sub(u, v),), (Sub(u, var("v", "z")),))
    assert all(a not in s for a in removed)
    assert all(a in s for a in added)
    assert on == (EqApp(x, F1, (u,)), Sub(x, y), EqApp(y, F1, (z,)))
    # one solver step logs the rule's firing, then each firing the store
    # made as it indexed atoms: Elim moves x = f(u) onto y, where it
    # decomposes against y = f(v)
    solver = Solver()
    for a in (Eq(x, y), EqApp(x, F1, (u,)), EqApp(y, F1, (v,))):
        solver.insert(a)
    assert solver.trace == []
    assert solver.step()
    assert [(e.step, e.rule) for e in solver.trace] == [(1, RuleId.ELIM), (2, RuleId.DECOM)]
    decom = solver.trace[1]
    assert (decom.removed, decom.added) == ((EqApp(y, F1, (u,)),), (Eq(u, v),))
    assert decom.removed[0] not in solver.store and decom.added[0] in solver.store
    assert solver.store.log == []
