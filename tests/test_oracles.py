"""Tests for the reference oracles.

The oracles exist to cross-check the rule engine, so they must stand on
their own: every expected value here is either worked out by hand on a
concrete input (the firing counts for the budgeted naive procedure, the
explicit witnesses) or checked against small exhaustive enumerations of
ground trees.  Nothing in this module consults the engine's answers.
"""

import hashlib
import random

import pytest

from wsc.constraints import Eq, EqApp, Sub, SubApp, var
from wsc.engine import Verdict
from wsc.frontend import random_atoms
from wsc.oracles import (
    NaiveResult,
    check_witness,
    dump_witness,
    enumerate_graphs,
    merge_graphs,
    naive_solve,
    rational_unify,
    witness_search,
)
from wsc.terms import (
    Symbol,
    app,
    format_term,
    graph_equal,
    hole,
    parse_term,
    weak_subsumes,
)

from reference import instance_member, load_witness

A = Symbol("a", 0)
B = Symbol("b", 0)
C = Symbol("c", 0)
F1 = Symbol("f", 1)
F2 = Symbol("f", 2)
G1 = Symbol("g", 1)
G2 = Symbol("g", 2)
PAIR = Symbol("pair", 2)
CONS = Symbol("cons", 2)

x, y, z, u, v, w, p = var("x"), var("y"), var("z"), var("u"), var("v"), var("w"), var("p")

TWO_HOLES_ONE_ROOT = [Sub(x, z), Sub(y, z), EqApp(x, A, ()), EqApp(y, B, ())]
ROUTED_CLASH = [
    EqApp(y, F1, (u,)),
    EqApp(u, A, ()),
    EqApp(z, F1, (x,)),
    Sub(x, y),
    Sub(x, z),
]
LOOP_BELOW = [Sub(x, y), EqApp(y, F1, (x,))]


def ground_trees(max_depth):
    """All hole-free trees over {a, b, f/1, g/2} up to the given depth."""
    level = [app(A), app(B)]
    for _ in range(max_depth):
        new = list(level)
        new.extend(app(F1, t) for t in level)
        new.extend(app(G2, s, t) for s in level for t in level)
        level = new
    return level


def member(tree, g):
    """Exact membership of a finite ground tree in g's instance set."""
    return instance_member(tree, g, len(tree.nodes()) * len(g.nodes()) + 1)


def random_base_atoms(rng, n_vars=4, n_atoms=6):
    names = [f"x{i}" for i in range(n_vars)]
    syms = [A, F1, G2]
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


# --- the budgeted naive procedure ---------------------------------------------


def test_naive_routed_clash_concludes():
    """Subsumption below two conflicting constructors is refuted; the
    run is deterministic, so the exact firing count is pinned: seven."""
    assert naive_solve(ROUTED_CLASH, budget=200) == NaiveResult.UNSAT
    assert naive_solve(ROUTED_CLASH, budget=7) == NaiveResult.UNSAT
    assert naive_solve(ROUTED_CLASH, budget=6) == NaiveResult.EXHAUSTED


def test_naive_loop_spends_whole_budget():
    """x below a constraint cycling through x descends forever."""
    assert naive_solve(LOOP_BELOW, budget=50) == NaiveResult.EXHAUSTED


def test_naive_constant_clash_is_immediate():
    assert naive_solve([EqApp(x, A, ()), EqApp(x, B, ())], budget=1) == NaiveResult.UNSAT


def test_naive_fixpoint_without_contradiction():
    """No rule applies at all: exhausted without spending anything."""
    atoms = [EqApp(x, F1, (y,)), EqApp(y, A, ())]
    assert naive_solve(atoms, budget=100) == NaiveResult.EXHAUSTED


def test_naive_applied_subsumption_desugars():
    """x <= f(y) introduces a middle variable whose equation then
    clashes with x = g(z)."""
    atoms = [SubApp(x, F1, (y,)), EqApp(x, G1, (z,))]
    assert naive_solve(atoms, budget=10) == NaiveResult.UNSAT


def test_naive_elimination_enables_clash():
    atoms = [Eq(x, y), EqApp(x, A, ()), EqApp(y, B, ())]
    assert naive_solve(atoms, budget=10) == NaiveResult.UNSAT


def test_naive_elimination_sees_the_names_a_rename_brings():
    """x = y renames x in x = f(y) and x = z, and only then does y occur
    outside y = z; eliminating y as well brings the clash: three
    firings."""
    atoms = [EqApp(z, A, ()), SubApp(z, A, ()), EqApp(x, F1, (y,)), Eq(x, y), Eq(x, z)]
    assert naive_solve(atoms, budget=3) == NaiveResult.UNSAT
    assert naive_solve(atoms, budget=2) == NaiveResult.EXHAUSTED


def test_naive_rejects_bad_input():
    with pytest.raises(ValueError):
        naive_solve([Sub(x, var("y", "z"))])
    with pytest.raises(ValueError):
        naive_solve([EqApp(x, A, ())], budget=-1)


# --- rational-tree unification -------------------------------------------------


def test_rational_self_loop_is_satisfiable():
    """No occurs check: x = f(x) denotes a perfectly good rational tree."""
    assert rational_unify([EqApp(x, F1, (x,))]) == Verdict.SAT


def test_rational_constructor_clash():
    assert rational_unify([EqApp(x, F1, (y,)), EqApp(x, G1, (y,))]) == Verdict.UNSAT


def test_rational_argument_propagation():
    """x = f(y, z) and x = f(u, v) with u = a(), v = b() force y and z;
    probing shows y is pinned to a()."""
    base = [
        EqApp(x, F2, (y, z)),
        EqApp(x, F2, (u, v)),
        EqApp(u, A, ()),
        EqApp(v, B, ()),
    ]
    assert rational_unify(base) == Verdict.SAT
    assert rational_unify(base + [EqApp(y, C, ())]) == Verdict.UNSAT
    assert rational_unify(base + [EqApp(w, A, ()), Eq(y, w)]) == Verdict.SAT


def test_rational_clash_through_equation_chain():
    atoms = [Eq(x, y), Eq(y, z), EqApp(x, A, ()), EqApp(z, B, ())]
    assert rational_unify(atoms) == Verdict.UNSAT


def test_rational_mutual_recursion():
    assert rational_unify([EqApp(x, F1, (y,)), EqApp(y, F1, (x,))]) == Verdict.SAT
    assert rational_unify([EqApp(x, F1, (y,)), EqApp(y, G1, (x,))]) == Verdict.SAT


def test_rational_rejects_subsumption_atoms():
    with pytest.raises(ValueError):
        rational_unify([Sub(x, y)])
    with pytest.raises(ValueError):
        rational_unify([SubApp(x, F1, (y,))])


# --- merging (intersection of instance sets) ------------------------------------


def test_merge_hole_yields_the_other_side():
    t = parse_term("f(a(), h2)")
    assert graph_equal(merge_graphs(hole("h"), t), t)
    assert graph_equal(merge_graphs(t, hole("h")), t)
    loop = parse_term("rec X. f(X)")
    assert graph_equal(merge_graphs(hole("h"), loop), loop)


def test_merge_clash_gives_none():
    assert merge_graphs(app(A), app(B)) is None
    assert merge_graphs(app(F1, app(A)), app(F1, app(B))) is None
    assert merge_graphs(app(F1, hole("h")), app(G1, hole("h"))) is None


def test_merge_overlays_structure():
    m = merge_graphs(parse_term("f(h1, a())"), parse_term("f(b(), h2)"))
    assert graph_equal(m, parse_term("f(b(), a())"))


def test_merge_with_a_cycle():
    """The loop f(f(f(...))) lies inside f(f(_)); merging recovers it."""
    m = merge_graphs(parse_term("rec X. f(X)"), parse_term("f(f(h))"))
    assert graph_equal(m, parse_term("rec X. f(X)"))


def test_merge_and_witness_check_deep_terms():
    # Nesting deeper than the interpreter's default recursion limit.
    deep = parse_term("f(" * 1500 + "x" + ")" * 1500)
    m = merge_graphs(deep, parse_term("y"))
    assert len(m.nodes()) == 1501
    assert weak_subsumes(m, deep) and weak_subsumes(deep, m)
    sigma = {"x": deep, "y": hole("y")}
    assert check_witness(sigma, [Sub(x, var("x", "y")), Sub(x, y)])
    assert not check_witness(sigma, [Sub(y, x)])


def test_merge_matches_instance_intersection():
    """On random graph pairs, the merge admits exactly the ground trees
    that both inputs admit (checked over an exhaustive small universe)."""
    rng = random.Random(20)
    universe = ground_trees(2)
    for _ in range(150):
        s = _random_graph(rng)
        t = _random_graph(rng)
        m = merge_graphs(s, t)
        for tree in universe:
            both = member(tree, s) and member(tree, t)
            if m is None:
                assert not both
            else:
                assert member(tree, m) == both


def _random_graph(rng, max_nodes=4):
    """A random well-formed graph, possibly cyclic, over {a, b, f/1, g/2}."""
    from wsc.terms import TermGraph

    n = rng.randint(1, max_nodes)
    pool = [A, B, F1, G2]
    labels, children, holes = {}, {}, {}
    for i in range(n):
        if rng.random() < 0.25:
            holes[i] = rng.choice(["hx", "hy"])
        else:
            sym = rng.choice(pool)
            labels[i] = sym
            children[i] = tuple(rng.randrange(n) for _ in range(sym.arity))
    reach = {0}
    stack = [0]
    while stack:
        m = stack.pop()
        for k in children.get(m, ()):
            if k not in reach:
                reach.add(k)
                stack.append(k)
    return TermGraph(
        0,
        {i: s for i, s in labels.items() if i in reach},
        {i: ks for i, ks in children.items() if i in reach},
        {i: h for i, h in holes.items() if i in reach},
    )


# --- witness checking -------------------------------------------------------------


def test_witness_two_constants_under_one_hole():
    sigma = {"x": app(A), "y": app(B), "z": hole("h")}
    assert check_witness(sigma, TWO_HOLES_ONE_ROOT)
    bad = {"x": app(A), "y": app(B), "z": app(A)}
    assert not check_witness(bad, TWO_HOLES_ONE_ROOT)


def test_witness_cyclic_solution():
    loop = parse_term("rec X. f(X)")
    assert check_witness({"x": loop, "y": loop}, LOOP_BELOW)


def test_witness_for_the_shared_pair_constraint():
    """A fully worked cyclic witness for the five-atom shared-pair
    input: y and v both denote the cycle cons(f(., hz), hu)."""
    gamma = [
        EqApp(p, PAIR, (u, v)),
        EqApp(v, CONS, (x, u)),
        Sub(y, u),
        Sub(y, v),
        EqApp(x, F2, (y, z)),
    ]
    cycle = "rec Y. cons(f(Y, hz), hu)"
    sigma = {
        "u": parse_term("hu"),
        "z": parse_term("hz"),
        "y": parse_term(cycle),
        "v": parse_term(cycle),
        "x": parse_term(f"f({cycle}, hz)"),
        "p": parse_term(f"pair(hu, {cycle})"),
    }
    assert check_witness(sigma, gamma)
    # tightening u to a constant breaks the pair equation
    broken = dict(sigma, u=app(A))
    assert not check_witness(broken, gamma)


def test_witness_intersection_variables_merge():
    atoms = [Sub(z, var("x", "y"))]
    sigma = {"x": parse_term("f(h1, a())"), "y": parse_term("f(b(), h2)"), "z": parse_term("f(b(), a())")}
    assert check_witness(sigma, atoms)
    sigma["z"] = parse_term("f(b(), b())")
    assert not check_witness(sigma, atoms)


def test_witness_empty_intersection_fails_every_atom():
    atoms = [Sub(z, var("x", "y"))]
    sigma = {"x": app(A), "y": app(B), "z": hole("h")}
    assert not check_witness(sigma, atoms)
    # ... even with the intersection on the forcing side
    assert not check_witness(sigma, [Sub(var("x", "y"), z)])


def test_witness_applied_subsumption():
    atoms = [SubApp(x, F1, (y,))]
    assert check_witness({"x": app(F1, app(A)), "y": hole("h")}, atoms)
    assert not check_witness({"x": app(F1, app(A)), "y": app(B)}, atoms)
    assert not check_witness({"x": app(A), "y": hole("h")}, atoms)


def test_witness_missing_assignment():
    with pytest.raises(ValueError):
        check_witness({"x": app(A)}, [Eq(x, y)])


def test_witness_empty_conjunction():
    assert check_witness({}, [])


def test_weak_instances_ignore_sharing():
    """f(a(), b()) is an instance of f(x, x) here: the two occurrences
    of a hole may be filled differently.  A reading that forced both
    occurrences to take the same value would reject it — pinned as a
    hard-coded check that the looser relation is used throughout."""
    shared = app(F2, hole("hx"), hole("hx"))
    target = app(F2, app(A), app(B))
    assert weak_subsumes(shared, target)
    # the applied subsumption atom agrees: v <= f(x, x) with x a hole
    assert check_witness({"v": target, "x": hole("hx")}, [SubApp(v, F2, (x, x))])
    # ... yet no single filling of the hole reproduces the target exactly
    assert all(not graph_equal(app(F2, t, t), target) for t in ground_trees(2))
    assert all(
        not check_witness({"v": target, "x": t}, [EqApp(v, F2, (x, x))])
        for t in ground_trees(2)
    )


# --- witness search ----------------------------------------------------------------


def test_search_finds_the_hole_witness():
    res = witness_search(TWO_HOLES_ONE_ROOT, max_depth=1, max_holes=1)
    assert res.witness is not None
    assert not res.exhausted
    assert check_witness(res.witness, TWO_HOLES_ONE_ROOT)
    assert res.witness["z"].labels == {}  # z came out as a hole


def test_search_refutes_constant_clash():
    res = witness_search([EqApp(x, A, ()), EqApp(x, B, ())], max_depth=2, max_holes=1)
    assert res.witness is None
    assert not res.exhausted  # the whole (empty) candidate space was covered


def test_search_finds_a_cyclic_witness():
    res = witness_search(LOOP_BELOW, max_depth=3, max_holes=1)
    assert res.witness is not None
    assert not res.exhausted
    assert check_witness(res.witness, LOOP_BELOW)
    assert graph_equal(res.witness["x"], parse_term("rec X. f(X)"))


def test_search_budget_runs_out():
    res = witness_search(LOOP_BELOW, max_depth=3, max_holes=1, budget=1)
    assert res.witness is None
    assert res.exhausted
    assert res.checked >= 1


def test_search_budget_edge_and_test_level():
    # x0 = g(x1, x0) is tested when x1, its last variable, is placed:
    # all of it, also the walk from x0 to its root's second child, which
    # reads x0 only.  The 297th candidate is the witness, so a budget of
    # 296 runs out on it and 297 finds it.
    x0, x1, x2 = var("x0"), var("x1"), var("x2")
    atoms = [Eq(x1, x2), EqApp(x2, A, ()), EqApp(x0, G2, (x1, x0))]
    res = witness_search(atoms, max_depth=2, max_holes=1, budget=296)
    assert res.witness is None and res.exhausted and res.checked == 297
    res = witness_search(atoms, max_depth=2, max_holes=1, budget=297)
    assert res.witness is not None and not res.exhausted and res.checked == 297
    assert list(res.witness) == ["x0", "x1", "x2"]
    assert check_witness(res.witness, atoms)


def test_search_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        witness_search(LOOP_BELOW, budget=-1)
    res = witness_search(LOOP_BELOW, budget=0)
    assert res.witness is None and res.exhausted and res.checked == 1


def test_search_routed_clash_space_is_empty():
    res = witness_search(ROUTED_CLASH, max_depth=2, max_holes=1, budget=200_000)
    assert res.witness is None
    assert not res.exhausted


def test_search_intersection_clash_space_is_empty():
    atoms = [EqApp(x, F1, (u,)), EqApp(y, G1, (v,)), Sub(z, var("x", "y"))]
    res = witness_search(atoms, max_depth=2, max_holes=1, budget=200_000)
    assert res.witness is None
    assert not res.exhausted


def test_search_is_not_limited_by_recursion_depth():
    # 1,201 variables: one level of a recursive search per variable
    ys = [var(f"y{i:04d}") for i in range(1200)]
    chain = [Sub(a, b) for a, b in zip(ys, ys[1:])]
    found = witness_search(chain, max_depth=2, max_holes=1, budget=20_000)
    assert found.witness is not None and not found.exhausted
    assert found.checked == 1200
    assert check_witness(found.witness, chain)
    z = var("z")
    res = witness_search(chain + [EqApp(z, A, ()), EqApp(z, F1, (z,))],
                         max_depth=2, max_holes=1, budget=20_000)
    assert res.witness is None and res.exhausted
    assert res.checked == 20_001


def test_search_empty_constraint():
    res = witness_search([])
    assert res.witness == {}
    assert not res.exhausted
    assert res.checked == 0


def test_enumerate_graphs_contains_the_loops():
    pool = enumerate_graphs([F1, A], max_depth=2, max_holes=1)
    rendered = {format_term(g) for g in pool}
    assert "rec X1. f(X1)" in rendered
    assert "h1" in rendered and "a()" in rendered
    # plain trees of depth two are in ...
    assert "f(f(a()))" in rendered
    # ... but nothing deeper
    assert "f(f(f(a())))" not in rendered


def search_digest():
    """sha256 over what witness_search returns on random_atoms inputs
    at two budgets: exhausted, checked, and the witness with its key
    order.  Every fifth input gets one atom on an intersection variable,
    which the search hands to check_witness."""
    h = hashlib.sha256()
    names = ["x0", "x1", "x2", "x3"]
    for i in range(600):
        rng = random.Random(i)
        atoms = random_atoms(rng, n_vars=4, n_symbols=3, n_atoms=6)
        if i % 5 == 0:
            a, b, c = rng.sample(names, 3)
            atoms.append(Sub(var(a, b), var(c)) if i % 10 == 0 else SubApp(var(c), F1, (var(a, b),)))
        for budget in (50, 3_000):
            res = witness_search(atoms, max_depth=2, max_holes=1, budget=budget)
            found = None if res.witness is None else (tuple(res.witness), dump_witness(res.witness))
            h.update(repr((res.exhausted, res.checked, found)).encode())
    return h.hexdigest()


# Which candidates the search tries, in what order, and what it returns:
# a change that alters any of these must update this digest on purpose.
SEARCH_DIGEST = "2673726f1bce964a49ce0525a8f914c6c6a17417e6fca38a664d86cdcffc30e2"


def test_witness_search_outcomes_are_pinned():
    assert search_digest() == SEARCH_DIGEST


def oracle_check_digest():
    """sha256 over witness_search results at budgets 2,000 and 20,000
    and naive_solve results at budgets 7 and 300, on random_atoms inputs
    of the shape the oracle-check benchmark solves: six variables, up to
    twelve atoms."""
    h = hashlib.sha256()
    for i in range(45):
        atoms = random_atoms(random.Random(i), n_vars=6, n_symbols=3, n_atoms=12)
        for budget in (2_000, 20_000):
            res = witness_search(atoms, max_depth=2, max_holes=1, budget=budget)
            found = None if res.witness is None else (tuple(res.witness), dump_witness(res.witness))
            h.update(repr((res.exhausted, res.checked, found)).encode())
        for budget in (7, 300):
            h.update(naive_solve(atoms, budget=budget).value.encode())
    return h.hexdigest()


# Larger inputs than SEARCH_DIGEST's, with most searches spending their
# whole budget, and the naive procedure cut short and run long.
ORACLE_CHECK_DIGEST = "d5871acd9568aa7b2e3e594869a432cd9c2f47a17e4f740d29088a36ea41c6bc"


def test_oracle_check_shaped_outcomes_are_pinned():
    assert oracle_check_digest() == ORACLE_CHECK_DIGEST


def test_witness_search_repeats_its_result():
    # the second search reads the pool the first one built, so even the
    # witness graphs, which compare by identity, are the same
    for atoms in (TWO_HOLES_ONE_ROOT, ROUTED_CLASH):
        assert witness_search(atoms) == witness_search(atoms)


def test_oracles_do_not_contradict_each_other():
    """If the naive procedure refutes an input, the brute-force search
    must not find a witness for it (both are sound, about opposite
    answers, so a clash would expose a bug in one of them)."""
    rng = random.Random(7)
    refuted = 0
    for _ in range(120):
        atoms = random_base_atoms(rng)
        if naive_solve(atoms, budget=150) == NaiveResult.UNSAT:
            refuted += 1
            res = witness_search(atoms, max_depth=2, max_holes=1, budget=20_000)
            assert res.witness is None
    assert refuted >= 10  # the sample actually exercises the claim


# --- witness files ------------------------------------------------------------------


def test_witness_roundtrip():
    sigma = {
        "x": parse_term("f(a(), h1)"),
        "y": parse_term("rec X. g(X)"),
        "z": hole("h2"),
    }
    text = dump_witness(sigma)
    back = load_witness(text)
    assert set(back) == set(sigma)
    for name in sigma:
        assert graph_equal(back[name], sigma[name])


def test_witness_file_comments_and_blanks():
    text = "# a witness\n\nx := f(a())  # cyclic not needed here\n\ny := h1\n"
    back = load_witness(text)
    assert set(back) == {"x", "y"}
    assert graph_equal(back["x"], parse_term("f(a())"))


def test_witness_file_errors():
    with pytest.raises(ValueError):
        load_witness("x = a()\n")
    with pytest.raises(ValueError):
        load_witness("1x := a()\n")
