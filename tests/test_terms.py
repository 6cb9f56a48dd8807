"""Tests for term graphs and the weak subsumption preorder.

The fixpoint-based deciders are checked against an independent oracle
that compares bounded unrollings path by path: on finite graphs, two
rational trees agree iff they agree down to depth |s| * |t| + 1 (a
discrepancy in the product graph is reachable without repeating a node
pair).  The oracle is deliberately a different algorithm (no relation
refinement) so the two can disagree if either is wrong.
"""

import random
import time

import pytest

from wsc.terms import (
    Symbol,
    TermGraph,
    TermSyntaxError,
    app,
    bisimilar,
    bisimulation_relation,
    format_term,
    graph_equal,
    hole,
    instance_member,
    parse_term,
    simulates,
    simulation_relation,
    weak_subsumes,
)

A = Symbol("a", 0)
B = Symbol("b", 0)
F1 = Symbol("f", 1)
F2 = Symbol("f", 2)
G1 = Symbol("g", 1)


# --- independent oracles -----------------------------------------------------


def unroll_equal(s, t, depth):
    """Path-by-path equality of the denoted trees down to `depth`."""

    def go(sn, tn, d):
        ls, lt = s.labels.get(sn), t.labels.get(tn)
        if ls is None and lt is None:
            return s.holes[sn] == t.holes[tn]
        if ls != lt:
            return False
        if d == 0:
            return True
        return all(go(si, ti, d - 1) for si, ti in zip(s.children[sn], t.children[tn]))

    return go(s.root, t.root, depth)


def unroll_forces(s, t, depth):
    """True iff wherever s is labeled (down to `depth`), t matches."""

    def go(sn, tn, d):
        ls = s.labels.get(sn)
        if ls is None:
            return True
        if t.labels.get(tn) != ls:
            return False
        if d == 0:
            return True
        return all(go(si, ti, d - 1) for si, ti in zip(s.children[sn], t.children[tn]))

    return go(s.root, t.root, depth)


def exact_depth(s, t):
    """Unrolling depth at which the bounded oracles become exact."""
    return len(s.nodes()) * len(t.nodes()) + 1


def random_graph(rng, max_nodes=5):
    """A random well-formed graph, possibly cyclic, over {a, b, f/1, g/2}."""
    n = rng.randint(1, max_nodes)
    pool = [A, B, F1, Symbol("g", 2)]
    labels, children, holes = {}, {}, {}
    for i in range(n):
        if rng.random() < 0.25:
            holes[i] = rng.choice(["x", "y", "z"])
        else:
            sym = rng.choice(pool)
            labels[i] = sym
            children[i] = tuple(rng.randrange(n) for _ in range(sym.arity))
    # restrict to the part reachable from node 0
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


def ground_trees(max_depth):
    """All hole-free trees over {a, b, f/1, g/2} up to the given depth."""
    level = [app(A), app(B)]
    for _ in range(max_depth):
        new = list(level)
        for s in level:
            new.append(app(F1, s))
        for s in level:
            for t in level:
                new.append(app(Symbol("g", 2), s, t))
        level = new
    return level


# --- construction and validation ---------------------------------------------


def test_symbol_identity_is_name_and_arity():
    assert Symbol("f", 1) == Symbol("f", 1)
    assert Symbol("f", 1) != Symbol("f", 2)
    assert Symbol("f", 1) != Symbol("g", 1)
    assert str(Symbol("f", 2)) == "f/2"


def test_app_checks_arity():
    with pytest.raises(ValueError):
        app(F2, hole("x"))


def test_validation_rejects_malformed_graphs():
    with pytest.raises(ValueError):
        TermGraph(0, {0: A}, {0: ()}, {0: "x"})  # labeled and hole
    with pytest.raises(ValueError):
        TermGraph(5, {0: A}, {0: ()}, {})  # root not a node
    with pytest.raises(ValueError):
        TermGraph(0, {0: F1}, {0: (7,)}, {})  # dangling child
    with pytest.raises(ValueError):
        TermGraph(0, {0: F2}, {0: (0,)}, {})  # arity/children mismatch
    with pytest.raises(ValueError):
        TermGraph(0, {0: A, 1: B}, {0: (), 1: ()}, {})  # node 1 unreachable


def test_cyclic_graph_is_well_formed():
    g = TermGraph(0, {0: F1}, {0: (0,)}, {})
    assert g.label(0) == F1


# --- weak_subsumes -----------------------------------------------------------


def test_weak_subsumes_shared_hole_is_weak():
    # f(a, b) is an instance of f(x, x): hole occurrences are independent
    s = parse_term("f(x, x)")
    t = parse_term("f(a(), b())")
    assert weak_subsumes(s, t)


def test_weak_subsumes_hole_above_everything():
    for text in ["a()", "f(a())", "rec X. f(X)", "g(a(), b())"]:
        assert weak_subsumes(hole("x"), parse_term(text))


def test_weak_subsumes_arity_mismatch():
    s = app(F1, app(A))
    t = app(F2, app(A), app(B))
    assert not weak_subsumes(s, t)
    assert not weak_subsumes(t, s)


def test_weak_subsumes_reflexive_on_random_cyclic_graphs():
    rng = random.Random(4201)
    for _ in range(200):
        g = random_graph(rng)
        assert weak_subsumes(g, g)


def test_weak_subsumes_matches_unroll_oracle():
    rng = random.Random(4202)
    for _ in range(400):
        s = random_graph(rng)
        t = random_graph(rng)
        assert weak_subsumes(s, t) == unroll_forces(s, t, exact_depth(s, t))


def test_weak_subsumes_agrees_with_simulation_relation():
    rng = random.Random(4208)
    for _ in range(3000):
        s = random_graph(rng)
        t = random_graph(rng)
        assert weak_subsumes(s, t) == ((s.root, t.root) in simulation_relation(s, t))


def test_weak_subsumes_deep_chain_is_fast():
    g = parse_term("f(" * 1500 + "x" + ")" * 1500)
    start = time.perf_counter()
    assert weak_subsumes(g, g)
    assert not weak_subsumes(g, parse_term("f(" * 1499 + "a()" + ")" * 1499))
    assert time.perf_counter() - start < 0.5


def test_weak_subsumes_transitive_sampled():
    rng = random.Random(4203)
    checked = 0
    for _ in range(600):
        s, t, u = (random_graph(rng) for _ in range(3))
        if weak_subsumes(s, t) and weak_subsumes(t, u):
            checked += 1
            assert weak_subsumes(s, u)
    assert checked > 0


def test_weak_subsumes_sound_against_instance_probing():
    # if every instance of t is an instance of s, then each small ground
    # tree passing the bounded membership probe for t passes it for s
    rng = random.Random(4204)
    universe = ground_trees(2)
    for _ in range(60):
        s = random_graph(rng, max_nodes=3)
        t = random_graph(rng, max_nodes=3)
        if not weak_subsumes(s, t):
            continue
        for u in universe:
            for k in (0, 1, 2, 3):
                if instance_member(u, t, k):
                    assert instance_member(u, s, k)


# --- graph_equal -------------------------------------------------------------


def test_graph_equal_unrolling_invariance():
    # both graphs denote the infinite tree f(f(f(...)))
    s = parse_term("rec X. f(X)")
    t = parse_term("rec X. f(f(X))")
    assert unroll_equal(s, t, exact_depth(s, t))  # oracle agrees first
    assert graph_equal(s, t)


def test_graph_equal_distinct_constants():
    assert not graph_equal(app(A), app(B))


def test_graph_equal_reflexive_and_matches_oracle():
    rng = random.Random(4205)
    for _ in range(400):
        s = random_graph(rng)
        t = random_graph(rng)
        assert graph_equal(s, s)
        assert graph_equal(s, t) == unroll_equal(s, t, exact_depth(s, t))


def test_graph_equal_respects_hole_names():
    assert not graph_equal(hole("x"), hole("y"))
    assert graph_equal(hole("x"), hole("x"))
    # shared versus duplicated hole nodes denote the same tree
    shared = parse_term("f(h, h)")
    dup = app(Symbol("f", 2), hole("h"), hole("h"))
    assert graph_equal(shared, dup)


def test_equal_implies_mutual_subsumption_but_not_conversely():
    rng = random.Random(4206)
    for _ in range(200):
        s = random_graph(rng)
        t = random_graph(rng)
        if graph_equal(s, t):
            assert weak_subsumes(s, t) and weak_subsumes(t, s)
    # two distinct holes subsume each other yet are not equal
    x, y = hole("x"), hole("y")
    assert weak_subsumes(x, y) and weak_subsumes(y, x)
    assert not graph_equal(x, y)


# --- instance_member ---------------------------------------------------------


def test_instance_member_weak_instances():
    t = parse_term("f(a(), b())")
    s = parse_term("f(x, x)")
    assert instance_member(t, s, 5)


def test_instance_member_top_label_mismatch():
    assert not instance_member(app(G1, app(A)), app(F1, hole("x")), 1)
    # the pair in view is checked before descending, so depth 0 suffices
    assert not instance_member(app(G1, app(A)), app(F1, hole("x")), 0)


def test_instance_member_hole_accepts_everything():
    for text in ["a()", "g(a())", "rec X. f(X)"]:
        for k in (0, 1, 4):
            assert instance_member(parse_term(text), hole("x"), k)


def test_instance_member_rejects_negative_depth():
    with pytest.raises(ValueError):
        instance_member(app(A), hole("x"), -1)


def test_instance_member_consistent_with_weak_subsumes():
    # members of Inst(t) within the probe bound are members of Inst(s)
    # whenever weak_subsumes(s, t); probe the cyclic example directly
    s = parse_term("f(x, x)")
    fab = parse_term("f(a(), b())")
    assert weak_subsumes(s, fab)
    assert instance_member(fab, s, 3)


# --- whole relations: the reference for the start-pair walks ------------------


def test_start_pair_walks_agree_with_the_whole_relations():
    rng = random.Random(4212)
    answers = set()
    for _ in range(600):
        s = random_graph(rng)
        t = random_graph(rng)
        sim = simulation_relation(s, t)
        bis = bisimulation_relation(s, t)
        for p in s.nodes():
            for q in t.nodes():
                in_sim = simulates(s, t, p, q)
                in_bis = bisimilar(s, t, p, q)
                assert in_sim == ((p, q) in sim)
                assert in_bis == ((p, q) in bis)
                answers.add((in_sim, in_bis))
    assert answers == {(False, False), (True, False), (True, True)}


def test_relation_functions_expose_node_pairs():
    s = parse_term("f(a(), b())")
    t = parse_term("f(a(), b())")
    sim = simulation_relation(s, t)
    bis = bisimulation_relation(s, t)
    assert (s.root, t.root) in sim
    assert (s.root, t.root) in bis
    # child nodes participate too: a-node of s simulates a-node of t
    sa = s.children[s.root][0]
    ta = t.children[t.root][0]
    assert (sa, ta) in sim


# --- textual syntax ----------------------------------------------------------


def test_parse_basic_forms():
    g = parse_term("f(x, a())")
    assert g.labels[g.root] == F2
    kid0, kid1 = g.children[g.root]
    assert g.holes[kid0] == "x"
    assert g.labels[kid1] == A


def test_parse_cycle():
    g = parse_term("rec X. f(X)")
    assert g.labels[g.root] == F1
    assert g.children[g.root] == (g.root,)


def test_parse_nested_rec_binders():
    g = parse_term("rec X. g(X, rec Y. f(Y))")
    assert g.children[g.root][0] == g.root
    inner = g.children[g.root][1]
    assert g.children[inner] == (inner,)


def test_parse_rejects_degenerate_and_malformed():
    for bad in ["rec X. X", "rec X. Y", "f(", "f(a(),)", "a() b", "f(a()", "", "x,", "?"]:
        with pytest.raises((TermSyntaxError, ValueError)):
            parse_term(bad)


def test_format_round_trip_examples():
    for text in [
        "x",
        "a()",
        "f(x, y)",
        "rec X. f(X)",
        "rec X. g(f(X), a())",
        "g(rec X. f(X), rec Y. f(Y))",
    ]:
        g = parse_term(text)
        assert graph_equal(parse_term(format_term(g)), g)


def test_format_round_trip_random():
    rng = random.Random(4207)
    for _ in range(300):
        g = random_graph(rng)
        assert graph_equal(parse_term(format_term(g)), g)


def test_format_binder_names_avoid_hole_names():
    # a cyclic graph containing a hole named like a generated binder
    g = TermGraph(0, {0: F2}, {0: (0, 1)}, {1: "X1"})
    text = format_term(g)
    back = parse_term(text)
    assert graph_equal(back, g)


def test_deep_terms_parse_and_round_trip():
    # Nesting deeper than the interpreter's default recursion limit.
    g = parse_term("f(" * 3000 + "x" + ")" * 3000)
    assert len(g.nodes()) == 3001
    deep = parse_term("rec X. " + "g(X, " * 1500 + "x" + ")" * 1500)
    assert graph_equal(parse_term(format_term(deep)), deep)
