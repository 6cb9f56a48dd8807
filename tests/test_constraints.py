"""Tests for variables, atoms, stores, substitution, and determinedness."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsc.constraints import (
    Determination,
    Eq,
    EqApp,
    Store,
    Sub,
    SubApp,
    Var,
    atom_base_vars,
    atom_vars,
    determinations,
    format_atom,
    is_base_only,
    map_vars,
    subst_atom,
    var,
)
from wsc.engine import rule_descend1
from wsc.terms import Symbol

from reference import left_sides

A = Symbol("a", 0)
F1 = Symbol("f", 1)
F2 = Symbol("f", 2)
G1 = Symbol("g", 1)

x, y, z, u, w = var("x"), var("y"), var("z"), var("u"), var("w")


def random_var(rng, names="xyzuvw"):
    k = rng.choice([1, 1, 1, 2, 3])
    return Var(tuple(rng.sample(names, k)))


def determined(store, v):
    """All (f, ū) fixing name v's top constructor, immediate or routed."""
    return {(d.sym, d.args) for d in determinations(store, v)}


def random_sub_atoms(rng, n):
    """Random Sub/SubApp atoms on base left sides (intersection variables
    allowed on the right side of a Sub, the one place a store takes
    them)."""
    out = []
    for _ in range(n):
        lhs = var(rng.choice("xyzuvw"))
        if rng.random() < 0.5:
            out.append(Sub(lhs, random_var(rng)))
        else:
            sym = rng.choice([A, F1, F2])
            args = tuple(var(rng.choice("xyzuvw")) for _ in range(sym.arity))
            out.append(SubApp(lhs, sym, args))
    return out


# --- variables ---------------------------------------------------------------


def test_var_canonical_form():
    assert Var(("y", "x", "y")).parts == ("x", "y")
    assert var("x") == Var(("x",))
    # one value, and one hash, per set of names
    for v, w in [(Var(("y", "x", "y")), Var(("x", "y"))), (var("x"), Var(("x",))),
                 (Var(["y", "x"]), var("x", "y"))]:
        assert v == w and hash(v) == hash(w)
    assert var("x") != ("x",)
    assert var("x", "y") == var("y", "x")
    assert str(var("z", "x", "y")) == "x&y&z"
    assert var("x").is_base
    assert not var("x", "y").is_base
    rng = random.Random(302)
    for _ in range(100):
        v = random_var(rng)
        assert "x" in var("x", *v.parts).parts


def test_components():
    # Descend1's covered check compares components: a position whose
    # argument is z is covered by u <= r exactly when z is one of r's
    # parts.  The u <= z it adds joins that u <= r in place, so the
    # firing reports u <= r removed and u <= r&z added.
    eq, sub_app = EqApp(x, F1, (u,)), SubApp(x, F1, (z,))
    assert rule_descend1(Store([eq, sub_app, Sub(u, var("w", "y", "z"))])) is None
    s = Store([eq, sub_app, Sub(u, var("w", "y"))])
    assert rule_descend1(s) == ((eq, sub_app), (Sub(u, var("w", "y")),),
                                (Sub(u, var("w", "y", "z")),))
    assert s.atoms()[2] == (2, Sub(u, var("w", "y", "z")))


def test_var_rejects_empty():
    with pytest.raises(ValueError):
        Var(())


def test_var_rejects_a_bare_string():
    # A string is an iterable of one-character names: Var("x1") would
    # be the intersection 1&x.
    for name in ["x1", "ab", "x"]:
        with pytest.raises(TypeError, match=r"use var\(\)"):
            Var(name)
    assert var("x1").parts == ("x1",)


def test_copies_of_a_variable_are_the_variable():
    v = var("x", "y")
    for c in [pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v),
              copy.deepcopy(Sub(v, x)).lhs]:
        assert type(c) is Var and c == v and hash(c) == hash(v)


@settings(derandomize=True, database=None)
@given(st.lists(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3)))
def test_variables_sort_by_their_parts(names):
    vs = [Var(tuple(n)) for n in names]
    assert [v.parts for v in sorted(vs)] == sorted(v.parts for v in vs)
    for v, w in zip(vs, vs[1:]):
        assert (v <= w, v > w, v >= w) == (v.parts <= w.parts, v.parts > w.parts, v.parts >= w.parts)


def test_variables_are_checked_and_immutable():
    for bad in [("",), (1,), ("x", "")]:
        with pytest.raises(ValueError):
            Var(bad)
    v = var("x", "y")
    with pytest.raises(AttributeError):
        v.parts = ("z",)
    with pytest.raises(AttributeError):
        del v.is_base
    assert v.parts == ("x", "y") and not v.is_base
    with pytest.raises(TypeError):
        v < ("x",)


# --- atoms -------------------------------------------------------------------


def test_eq_is_an_unordered_pair():
    assert Eq(y, x) == Eq(x, y)
    assert Eq(y, x).lhs == x


def test_app_atoms_check_arity():
    with pytest.raises(ValueError):
        EqApp(x, F2, (y,))
    with pytest.raises(ValueError):
        SubApp(x, A, (y,))


def test_atoms_of_each_kind_are_distinct_values():
    # the kind tag keeps x = y apart from x <= y, and x = f(y) from x <= f(y)
    assert Eq(x, y) != Sub(x, y) and EqApp(x, F1, (y,)) != SubApp(x, F1, (y,))
    assert len(Store([Eq(x, y), Sub(x, y)])) == 2
    assert len(Store([EqApp(x, F1, (y,)), SubApp(x, F1, (y,))])) == 2
    assert [str(a) for a in Store([Sub(x, y), Eq(x, y)]).atom_list()] == ["x <= y", "x = y"]


def test_copies_of_an_atom_are_the_atom():
    for a in [Eq(y, x), EqApp(x, F2, (y, z)), Sub(x, var("y", "z")), SubApp(x, A, ())]:
        for c in [pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)]:
            assert type(c) is type(a) and c == a and hash(c) == hash(a)


def test_atoms_are_immutable():
    for a in [Eq(x, y), EqApp(x, F1, (y,)), Sub(x, y), SubApp(x, F1, (y,))]:
        for field in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, field, z)


def test_app_atoms_take_any_iterable_of_arguments():
    for kind in (EqApp, SubApp):
        assert kind(x, F2, [y, z]) == kind(x, F2, (v for v in (y, z))) == kind(x, F2, (y, z))
        assert kind(x, F2, [y, z]).args == (y, z)
        with pytest.raises(ValueError):
            kind(x, F2, [y])
        with pytest.raises(ValueError):
            kind(x, A, (v for v in (y,)))


def test_map_vars_keeps_the_kind():
    f = {x: u, y: w}.get
    for a, b in [(Eq(x, y), Eq(u, w)), (Sub(x, y), Sub(u, w)),
                 (EqApp(x, F1, (y,)), EqApp(u, F1, (w,))),
                 (SubApp(x, F1, (y,)), SubApp(u, F1, (w,)))]:
        c = map_vars(a, f)
        assert type(c) is type(a) and c == b


def test_atom_vars_and_base_vars():
    a = SubApp(var("x", "y"), F2, (z, var("u", "w")))
    assert atom_vars(a) == (var("x", "y"), z, var("u", "w"))
    assert atom_base_vars(a) == {"x", "y", "z", "u", "w"}
    assert not is_base_only(a)
    assert is_base_only(Eq(x, y))


def test_subst_atom_collapses_intersections():
    assert subst_atom(Sub(z, var("x", "y")), "x", "y") == Sub(z, y)
    assert subst_atom(Sub(z, var("x", "z")), "x", "y") == Sub(z, var("y", "z"))
    assert subst_atom(Eq(x, z), "x", "y") == Eq(y, z)
    assert subst_atom(EqApp(x, F1, (u,)), "u", "w") == EqApp(x, F1, (w,))


def test_format_atom():
    assert format_atom(Eq(x, y)) == "x = y"
    assert format_atom(EqApp(x, F2, (y, z))) == "x = f(y, z)"
    assert format_atom(EqApp(x, A, ())) == "x = a()"
    assert format_atom(Sub(x, var("y", "z"))) == "x <= y&z"
    assert format_atom(SubApp(var("x", "y"), G1, (u,))) == "x&y <= g(u)"


# --- store -------------------------------------------------------------------


def test_store_dedup_mode():
    s = Store([Eq(x, y), Eq(y, x), Sub(x, z)])
    assert len(s) == 2
    assert s.add(Eq(x, y)) == s.atoms()[0][0]
    assert len(s) == 2


def test_store_rejects_intersection_equations():
    with pytest.raises(ValueError):
        Store([Eq(var("x", "y"), z)])
    with pytest.raises(ValueError):
        Store([EqApp(x, F1, (var("y", "z"),))])
    # and intersection left sides of subsumptions
    with pytest.raises(ValueError):
        Store([Sub(var("x", "y"), z)])
    with pytest.raises(ValueError):
        Store([SubApp(var("x", "y"), F1, (z,))])
    # and intersection arguments of an x <= f(ū)
    with pytest.raises(ValueError):
        Store([SubApp(x, F1, (var("y", "z"),))])
    # a subsumption's right side is the one place for them
    Store([Sub(x, var("y", "z"))])


def test_store_indices_track_removal():
    s = Store()
    i = s.add(Sub(x, var("y", "z")))
    j = s.add(EqApp(y, F1, (u,)))
    assert left_sides(s) == {"x", "y"}
    assert s.base_vars() == {"x", "y", "z", "u"}
    s.remove(i)
    assert left_sides(s) == {"y"}
    assert s.base_vars() == {"y", "u"}
    assert s.ids(EqApp, "y") == [j]
    assert s.ids(Sub) == []


def test_store_rewrite_keeps_id_and_merges_duplicates():
    s = Store([Sub(x, y), Sub(z, y)])
    (i, _), (j, _) = s.atoms()
    # plain rewrite keeps the id
    k = s.rewrite(j, Sub(z, var("y", "u")))
    assert k == j
    # rewriting into an existing atom merges, keeping the other id
    k2 = s.rewrite(j, Sub(x, y))
    assert k2 == i
    assert len(s) == 1


def test_subst_all_with_skip():
    s = Store([Eq(x, y), EqApp(x, F1, (u,)), Sub(z, var("x", "w"))])
    (i, _), (j, _), (k, _) = s.atoms()
    s.subst_all("x", "y", skip={i})
    assert s.atom(i) == Eq(x, y)
    assert s.atom(j) == EqApp(y, F1, (u,))
    assert s.atom(k) == Sub(z, var("y", "w"))


# --- deep substitution -------------------------------------------------------


def test_deep_subst_examples():
    s = Store([Sub(z, var("x", "y"))])
    s.subst_all("x", "y")
    assert s.atom_list() == [Sub(z, y)]


def test_deep_subst_removes_all_occurrences():
    rng = random.Random(303)
    for _ in range(100):
        s = Store(random_sub_atoms(rng, rng.randint(1, 6)))
        s.subst_all("x", "y")
        assert "x" not in s.base_vars()


def test_deep_subst_idempotent():
    rng = random.Random(304)
    for _ in range(100):
        atoms = random_sub_atoms(rng, rng.randint(1, 6))
        once, twice = Store(atoms), Store(atoms)
        once.subst_all("x", "y")
        twice.subst_all("x", "y")
        twice.subst_all("x", "y")
        assert set(once.atom_list()) == set(twice.atom_list())


def test_deep_subst_preserves_components_alongside_equation():
    # with the equation x = y kept, substituting the remainder leaves
    # the component set of the whole conjunction unchanged
    rng = random.Random(305)
    for _ in range(150):
        rest = random_sub_atoms(rng, rng.randint(1, 6))
        whole = Store([Eq(x, y)] + rest)
        substituted = Store([Eq(x, y)] + [subst_atom(a, "x", "y") for a in rest])
        assert whole.base_vars() == substituted.base_vars()


def test_deep_subst_does_not_preserve_variable_sets():
    # the variable x&y occurs before substitution but not after
    atoms = [Eq(x, y), Sub(z, var("x", "y"))]
    before, after = Store(atoms), Store(atoms)
    after.subst_all("x", "y")

    def variables(s):
        return {v for a in s.atom_list() for v in atom_vars(a)}

    assert var("x", "y") in variables(before)
    assert var("x", "y") not in variables(after)


# --- congruence (equal atom sets) ---------------------------------------------


def test_congruent_is_order_insensitive():
    a, b = Eq(x, y), Sub(z, u)
    assert set(Store([a, b]).atom_list()) == set(Store([b, a]).atom_list())


def test_congruent_uses_canonical_variables():
    # reordered intersections are the same variable, hence the same atom
    s = Store([Sub(x, var("y", "z"))])
    t = Store([Sub(x, var("z", "y"))])
    assert set(s.atom_list()) == set(t.atom_list())
    assert len(Store(s.atom_list() + t.atom_list())) == 1


# --- determinedness ----------------------------------------------------------


def test_immediately_determined_examples():
    def immediate(s, v):
        return {(d.sym, d.args) for d in determinations(s, v) if d.via is None}

    s = Store([EqApp(x, F1, (y,))])
    assert immediate(s, "x") == {(F1, (y,))}

    s = Store([SubApp(x, G1, (u,))])
    assert immediate(s, "x") == {(G1, (u,))}

    s = Store([Sub(x, y)])
    assert immediate(s, "x") == set()


def test_determined_examples():
    s = Store([Sub(x, var("y", "z")), EqApp(y, F1, (u,))])
    assert determined(s, "x") == {(F1, (u,))}

    s = Store([EqApp(x, F1, (y,))])
    assert determined(s, "x") == {(F1, (y,))}

    s = Store([Sub(x, var("y", "z"))])
    assert determined(s, "x") == set()


def test_determined_routes_through_subapp_too():
    s = Store([Sub(x, var("y", "z")), SubApp(y, F1, (u,))])
    assert determined(s, "x") == {(F1, (u,))}


def test_determinations_report_sources():
    s = Store([Sub(x, var("y", "z")), EqApp(y, F1, (u,))])
    (sub_id, _), (eq_id, _) = s.atoms()
    [d] = determinations(s, "x")
    assert d == Determination(F1, (u,), at=eq_id, via=sub_id)


def test_intersection_determination_does_not_route():
    # only base components of the right side route determinations: x
    # reads y's f(u) through the component y of y&z.  An intersection
    # variable is no left side, and the index, keyed by name, has no
    # entry to ask for one (Store.add rejects it on a left side)
    s = Store([Sub(x, var("y", "z")), SubApp(y, F1, (u,))])
    assert determined(s, "x") == {(F1, (u,))}
