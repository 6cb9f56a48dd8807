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
    var,
)
from wsc.engine import (
    Solver,
    rule_clash,
    rule_collapse,
    rule_decom,
    rule_descend1,
    rule_descend2,
    rule_elim,
    rule_propagate1,
    rule_propagate2,
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


# --- Decom ---------------------------------------------------------------------


def test_decom_replaces_first_equation():
    s = store_of(EqApp(x, F1, (u,)), EqApp(x, F1, (v,)))
    assert rule_decom(s) == (
        (EqApp(x, F1, (u,)), EqApp(x, F1, (v,))),
        (EqApp(x, F1, (u,)),),
        (Eq(u, v),),
    )
    assert atoms_of(s) == {Eq(u, v), EqApp(x, F1, (v,))}


def test_decom_binary_symbol():
    s = store_of(EqApp(x, F2, (u, w)), EqApp(x, F2, (v, z)))
    assert rule_decom(s)[2] == (Eq(u, v), Eq(w, z))
    assert atoms_of(s) == {Eq(u, v), Eq(w, z), EqApp(x, F2, (v, z))}


def test_decom_needs_two_equations_same_lhs_same_symbol():
    assert rule_decom(store_of(EqApp(x, F1, (u,)))) is None
    assert rule_decom(store_of(EqApp(x, F1, (u,)), EqApp(y, F1, (v,)))) is None
    assert rule_decom(store_of(EqApp(x, F1, (u,)), EqApp(x, G1, (v,)))) is None


# --- Clash ---------------------------------------------------------------------


def test_clash_on_double_equation():
    s = store_of(EqApp(x, A, ()), EqApp(x, B, ()))
    assert rule_clash(s) == ((EqApp(x, A, ()), EqApp(x, B, ())), (), ())
    assert s.contradiction


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
    # the intersection variable x&y is pinned to a() while its
    # component x is pinned to f: incompatible
    s = store_of(EqApp(x, F1, (u,)), SubApp(var("x", "y"), A, ()))
    on = (EqApp(x, F1, (u,)), SubApp(var("x", "y"), A, ()))
    assert rule_clash(s) == (on, (), ())
    assert s.contradiction


def test_clash_requires_two_distinct_symbols():
    assert rule_clash(store_of(EqApp(x, A, ()), SubApp(x, A, ()))) is None
    assert rule_clash(store_of(EqApp(x, F1, (u,)), EqApp(y, F1, (v,)))) is None
    # same name, different arity: two different constructors
    s = store_of(EqApp(x, F1, (u,)), SubApp(x, F2, (v, w)))
    assert rule_clash(s) is not None
    assert s.contradiction


# --- Elim ----------------------------------------------------------------------


def test_elim_substitutes_inside_intersection_variables():
    s = store_of(Eq(x, y), Sub(z, var("x", "w")))
    assert rule_elim(s) == ((Eq(x, y),), (), ())
    assert atoms_of(s) == {Eq(x, y), Sub(z, var("y", "w"))}
    assert s.elim == {"x": "y"}


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
    assert s.elim == {"y": "x"}


def test_elim_skips_reflexive_equations():
    assert rule_elim(store_of(Eq(x, x), Sub(z, x))) is None


# --- Propagate1 ------------------------------------------------------------------


def test_propagate1_grows_right_side():
    s = store_of(Sub(var("x", "y"), z), Sub(x, u))
    assert rule_propagate1(s) == (
        (Sub(var("x", "y"), z), Sub(x, u)),
        (Sub(var("x", "y"), z),),
        (Sub(var("x", "y"), var("z", "u")),),
    )
    assert atoms_of(s) == {Sub(var("x", "y"), var("z", "u")), Sub(x, u)}


def test_propagate1_applies_to_base_left_sides():
    s = store_of(Sub(x, z), Sub(x, u))
    assert rule_propagate1(s) is not None
    assert atoms_of(s) == {Sub(x, var("z", "u")), Sub(x, u)}


def test_propagate1_joins_every_component_in_one_firing():
    s = store_of(Sub(var("x", "y"), z), Sub(x, u), Sub(y, v))
    assert rule_propagate1(s) == (
        (Sub(var("x", "y"), z), Sub(x, u), Sub(y, v)),
        (Sub(var("x", "y"), z),),
        (Sub(var("x", "y"), var("z", "u", "v")),),
    )
    assert rule_propagate1(s) is None


def test_propagate1_guard():
    s = store_of(Sub(var("x", "y"), var("z", "u")), Sub(x, u))
    assert rule_propagate1(s) is None


# --- Propagate2 ------------------------------------------------------------------


def test_propagate2_intersects_arguments():
    s = store_of(SubApp(var("x", "y"), F1, (u,)), EqApp(x, F1, (v,)))
    grown = SubApp(var("x", "y"), F1, (var("u", "v"),))
    assert rule_propagate2(s) == (
        (SubApp(var("x", "y"), F1, (u,)), EqApp(x, F1, (v,))),
        (SubApp(var("x", "y"), F1, (u,)),),
        (grown,),
    )
    assert atoms_of(s) == {grown, EqApp(x, F1, (v,))}


def test_propagate2_joins_every_component_in_one_firing():
    s = store_of(SubApp(var("x", "y"), F1, (u,)), EqApp(x, F1, (v,)), EqApp(y, F1, (w,)))
    grown = SubApp(var("x", "y"), F1, (var("u", "v", "w"),))
    assert rule_propagate2(s) == (
        (SubApp(var("x", "y"), F1, (u,)), EqApp(x, F1, (v,)), EqApp(y, F1, (w,))),
        (SubApp(var("x", "y"), F1, (u,)),),
        (grown,),
    )
    assert rule_propagate2(s) is None


def test_propagate2_guard():
    s = store_of(SubApp(var("x", "y"), F1, (var("u", "v"),)), EqApp(x, F1, (v,)))
    assert rule_propagate2(s) is None


def test_propagate2_ignores_symbol_mismatch():
    s = store_of(SubApp(var("x", "y"), F1, (u,)), EqApp(x, G1, (v,)))
    assert rule_propagate2(s) is None
    # ... that shape is a contradiction, and Clash handles it
    on = (EqApp(x, G1, (v,)), SubApp(var("x", "y"), F1, (u,)))
    assert rule_clash(s) == (on, (), ())
    assert s.contradiction


# --- Collapse --------------------------------------------------------------------


def test_collapse_absorbs_chained_subsumption():
    s = store_of(Sub(x, var("y", "u")), Sub(y, z))
    assert rule_collapse(s) == (
        (Sub(x, var("y", "u")), Sub(y, z)),
        (Sub(x, var("y", "u")),),
        (Sub(x, var("y", "z", "u")),),
    )
    assert atoms_of(s) == {Sub(x, var("y", "z", "u")), Sub(y, z)}


def test_collapse_on_plain_chain():
    s = store_of(Sub(x, y), Sub(y, z))
    assert rule_collapse(s) is not None
    assert atoms_of(s) == {Sub(x, var("y", "z")), Sub(y, z)}


def test_collapse_takes_the_transitive_closure_in_one_firing():
    s = store_of(Sub(x, y), Sub(y, z), Sub(z, u))
    assert rule_collapse(s) == (
        (Sub(x, y), Sub(y, z), Sub(z, u)),
        (Sub(x, y),),
        (Sub(x, var("u", "y", "z")),),
    )
    assert atoms_of(s) == {Sub(x, var("u", "y", "z")), Sub(y, z), Sub(z, u)}


def test_collapse_guard():
    s = store_of(Sub(x, var("y", "z")), Sub(y, z))
    assert rule_collapse(s) is None


# --- Descend2 --------------------------------------------------------------------


def test_descend2_gives_intersection_variable_a_constraint():
    s = store_of(Sub(z, var("x", "y")), EqApp(x, F1, (u,)))
    new = SubApp(var("x", "y"), F1, (u,))
    assert rule_descend2(s) == ((EqApp(x, F1, (u,)),), (), (new,))
    assert atoms_of(s) == {Sub(z, var("x", "y")), EqApp(x, F1, (u,)), new}


def test_descend2_guard_already_determined():
    s = store_of(
        Sub(z, var("x", "y")),
        EqApp(x, F1, (u,)),
        SubApp(var("x", "y"), F1, (u,)),
    )
    assert rule_descend2(s) is None


def test_descend2_needs_an_intersection_variable():
    s = store_of(Sub(x, y), EqApp(x, F1, (u,)))
    assert rule_descend2(s) is None


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


def test_descend1_adds_all_uncovered_positions_at_once():
    s = store_of(EqApp(x, F2, (u, v)), Sub(x, y), EqApp(y, F2, (z, z)))
    assert rule_descend1(s)[2] == (Sub(u, z), Sub(v, z))
    assert Sub(u, z) in s
    assert Sub(v, z) in s


# --- general rule behavior ---------------------------------------------------------


def test_rules_are_inapplicable_on_contradiction():
    s = store_of(EqApp(x, A, ()), EqApp(x, B, ()))
    rule_clash(s)
    assert s.contradiction
    for rule in (
        rule_clash,
        rule_elim,
        rule_decom,
        rule_propagate1,
        rule_propagate2,
        rule_collapse,
        rule_descend1,
        rule_descend2,
    ):
        assert rule(s) is None


def test_every_firing_logs_one_event():
    # a firing reports only what it changed: removed atoms are gone from
    # the store, added ones are present
    s = store_of(EqApp(x, F1, (u,)), EqApp(x, F1, (v,)), Sub(w, x))
    on, removed, added = rule_decom(s)
    assert all(a not in s for a in removed)
    assert all(a in s for a in added)
    assert set(on) >= set(removed)
    # and one solver step logs exactly one trace entry
    solver = Solver()
    solver.insert(EqApp(x, F1, (u,)))
    solver.insert(EqApp(x, F1, (v,)))
    assert solver.step()
    assert len(solver.trace) == 1
