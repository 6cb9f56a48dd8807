"""Tests for variables, atoms, stores, substitution, and determinedness."""

import random

import pytest

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
    components,
    determinations,
    format_atom,
    is_base_only,
    subst_atom,
    var,
)
from wsc.terms import Symbol

A = Symbol("a", 0)
F1 = Symbol("f", 1)
F2 = Symbol("f", 2)
G1 = Symbol("g", 1)

x, y, z, u, w = var("x"), var("y"), var("z"), var("u"), var("w")


def random_var(rng, names="xyzuvw"):
    k = rng.choice([1, 1, 1, 2, 3])
    return Var(tuple(rng.sample(names, k)))


def determined(store, v):
    """All (f, ū) fixing v's top constructor, immediate or routed."""
    return {(d.sym, d.args) for d in determinations(store, v)}


def random_sub_atoms(rng, n):
    """Random Sub/SubApp atoms (intersection variables allowed)."""
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            out.append(Sub(random_var(rng), random_var(rng)))
        else:
            sym = rng.choice([A, F1, F2])
            args = tuple(random_var(rng) for _ in range(sym.arity))
            out.append(SubApp(random_var(rng), sym, args))
    return out


# --- variables ---------------------------------------------------------------


def test_var_canonical_form():
    assert Var(("y", "x", "y")).parts == ("x", "y")
    assert var("x") == Var(("x",))
    assert var("x", "y") == var("y", "x")
    assert str(var("z", "x", "y")) == "x&y&z"
    assert var("x").is_base
    assert not var("x", "y").is_base


def test_var_rejects_empty():
    with pytest.raises(ValueError):
        Var(())


def test_components():
    assert components(var("x", "y")) == {"x", "y"}
    assert components(var("x")) == {"x"}
    rng = random.Random(302)
    for _ in range(100):
        v = random_var(rng)
        assert "x" in components(var("x", *v.parts))


# --- atoms -------------------------------------------------------------------


def test_eq_is_an_unordered_pair():
    assert Eq(y, x) == Eq(x, y)
    assert Eq(y, x).lhs == x


def test_app_atoms_check_arity():
    with pytest.raises(ValueError):
        EqApp(x, F2, (y,))
    with pytest.raises(ValueError):
        SubApp(x, A, (y,))


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
    # subsumption atoms may mention intersection variables
    Store([Sub(x, var("y", "z")), SubApp(var("x", "y"), F1, (z,))])


def test_store_indices_track_removal():
    s = Store()
    i = s.add(Sub(x, var("y", "z")))
    j = s.add(EqApp(y, F1, (u,)))
    assert s.left_sides() == {x, y}
    assert s.intersection_vars() == [var("y", "z")]
    assert s.base_vars() == {"x", "y", "z", "u"}
    s.remove(i)
    assert s.left_sides() == {y}
    assert s.intersection_vars() == []
    assert s.base_vars() == {"y", "u"}
    assert s.ids(EqApp, y) == [j]
    assert s.ids(Sub) == []


def test_store_occurs_elsewhere():
    s = Store()
    i = s.add(Eq(x, y))
    assert not s.occurs_elsewhere("x", i)
    j = s.add(Sub(z, var("x", "w")))
    assert s.occurs_elsewhere("x", i)
    assert not s.occurs_elsewhere("y", i)  # y lives only in atom i
    assert s.occurs_elsewhere("y", j)


def test_store_rewrite_keeps_id_and_merges_duplicates():
    s = Store([Sub(x, y), Sub(x, z)])
    (i, _), (j, _) = s.atoms()
    # plain rewrite keeps the id
    k = s.rewrite(j, Sub(x, var("z", "u")))
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
    assert var("x", "y") in before.intersection_vars()
    assert var("x", "y") not in after.intersection_vars()
    assert before.intersection_vars() != after.intersection_vars()


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
    assert immediate(s, x) == {(F1, (y,))}

    s = Store([SubApp(var("x", "y"), G1, (u,))])
    assert immediate(s, var("x", "y")) == {(G1, (u,))}

    s = Store([Sub(x, y)])
    assert immediate(s, x) == set()


def test_determined_examples():
    s = Store([Sub(x, var("y", "z")), EqApp(y, F1, (u,))])
    assert determined(s, x) == {(F1, (u,))}

    s = Store([EqApp(x, F1, (y,))])
    assert determined(s, x) == {(F1, (y,))}

    s = Store([Sub(x, var("y", "z"))])
    assert determined(s, x) == set()


def test_determined_routes_through_subapp_too():
    s = Store([Sub(x, var("y", "z")), SubApp(y, F1, (u,))])
    assert determined(s, x) == {(F1, (u,))}


def test_determinations_report_sources():
    s = Store([Sub(x, var("y", "z")), EqApp(y, F1, (u,))])
    (sub_id, _), (eq_id, _) = s.atoms()
    [d] = determinations(s, x)
    assert d == Determination(F1, (u,), at=eq_id, via=sub_id)


def test_intersection_determination_does_not_route():
    # only base components of the right side route determinations;
    # an intersection variable's own determination stays its own
    s = Store([Sub(x, var("y", "z")), SubApp(var("y", "z"), F1, (u,))])
    assert determined(s, x) == set()
