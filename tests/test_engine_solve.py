"""Tests for the solver driver: batch solving, stepping, incremental
assertion, traces, and input validation."""

import hashlib
import itertools
import random
import re
from collections import Counter

import pytest

from wsc.constraints import Eq, EqApp, Sub, SubApp, atom_vars, var
from wsc.engine import (
    DEFAULT_PRIORITY,
    RuleId,
    Solver,
    Verdict,
    format_trace,
    solve,
    witness,
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
    # Intersection variables occur only on the right side of an x <= r,
    # in a batch result and after every assert: no rule writes one into
    # any other place of any kind of atom.
    def check(store):
        for a in store.atom_list():
            assert all(v.is_base for v in ((a.lhs,) if isinstance(a, Sub) else atom_vars(a))), a

    rng = random.Random(99)
    for _ in range(150):
        atoms = random_base_atoms(rng)
        check(solve(atoms).store)
        s = Solver()
        for a in atoms:
            s.assert_atom(a)
            check(s.store)


def chain(n):
    """C(n) = {x_i <= x_(i+1)} + {x_i = f(x_((i+1) mod n))}, in this order."""
    xs = [var(f"x{i}") for i in range(n)]
    return [Sub(xs[i], xs[i + 1]) for i in range(n - 1)] + [
        EqApp(xs[i], F1, (xs[(i + 1) % n],)) for i in range(n)
    ]


# x0 = f(x1) reads x1 = f(x2), which x1 <= x2 covers; x1 = f(x2) reads
# x2 = f(x0), and x2 reaches nothing, so it fires: x2 <= x0 closes the
# cycle, and then every name reaches every other.
C3_TRACE = """\
step 1: Descend1 on x1 = f(x2), x1 <= x2, x2 = f(x0) => x2 <= x0"""


# Steps and Descend1 firings of C(n).
# A change that alters the firing order must update these on purpose.
CHAIN_FIRINGS = {
    3: (1, 1),
    4: (1, 1),
    5: (1, 1),
    6: (1, 1),
    7: (1, 1),
    8: (1, 1),
}


def test_chain_firing_order_is_pinned():
    assert format_trace(solve(chain(3)).trace) == C3_TRACE
    for n, (steps, fired) in CHAIN_FIRINGS.items():
        res = solve(chain(n))
        assert res.verdict == Verdict.SAT
        assert res.steps == steps
        assert Counter(e.rule for e in res.trace) == Counter({RuleId.DESCEND1: fired})


def chain_orders(n):
    """C(n) in three orders of assertion: subsumptions first (chain(n)),
    equations first, and the chain's own, x_i = f(x_(i+1)) then
    x_i <= x_(i+1)."""
    subs, eqs = chain(n)[:n - 1], chain(n)[n - 1:]
    return [subs + eqs, eqs + subs, [a for e, s in itertools.zip_longest(eqs, subs)
                                     for a in (e, s) if a is not None]]


def test_chain_steps_grow_linearly():
    # A subsumption is read as reachability, so no step writes a
    # transitive closure into a right side, and a run pays no step per
    # pair of chain names, in whatever order a batch run gets the atoms.
    for n in (8, 16, 32):
        assert solve(chain(n)).steps <= n
        for seed in range(20):
            atoms = chain(n)
            random.Random(seed).shuffle(atoms)
            assert solve(atoms).steps <= n, (n, seed)
        for atoms in chain_orders(n):
            s = Solver()
            for a in atoms:
                s.assert_atom(a)
            assert s.verdict is Verdict.SAT
            assert s.step_count <= 2 * n, (n, atoms[0])


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
ROUTE_DIGEST = "93759c91f5535b07c0e3c90b19880f5f160f74e13d850c6d2a58c13570a247f7"


def test_routes_are_pinned():
    assert route_digest() == ROUTE_DIGEST


def base_outcome_digest():
    """sha256 over the inputs of route_digest(): the verdict of every
    run (batch, each assert of the incremental run, chains), and the
    atoms on a base left side, sorted, of every batch run that ends
    sat.  Incremental stores are left out: there Elim can rewrite an
    atom on an intersection left side into one on a base left side."""
    h = hashlib.sha256()

    def feed(verdicts, store=None):
        atoms = None if store is None else sorted(
            str(a) for a in store.atom_list() if a.lhs.is_base)
        h.update(f"{verdicts}|{atoms}\n".encode())

    def feed_batch(res):
        feed(res.verdict, res.store if res.verdict is Verdict.SAT else None)

    for i in range(300):
        atoms = random_atoms(random.Random(i), n_vars=6, n_symbols=3, n_atoms=12)
        feed_batch(solve(atoms))
        s = Solver()
        feed(",".join(s.assert_atom(a).value for a in atoms))
    for n in range(3, 10):
        feed_batch(solve(chain(n)))
    return h.hexdigest()


# What a solver decides, and the part of each batch solved store on base
# left sides, whatever route it takes there and whether or not it keeps
# atoms on intersection left sides.
BASE_OUTCOME_DIGEST = "fea29952686d8e2f8589a5bc64742e9cd700f0c07fd7174fb7b463a755062ec2"


def test_verdicts_and_base_solved_stores_are_pinned():
    assert base_outcome_digest() == BASE_OUTCOME_DIGEST


def verdict_digest():
    """sha256 over the verdicts alone of the runs of
    base_outcome_digest() (batch, each assert of the incremental run,
    chains), under the default priority and the reversed one."""
    h = hashlib.sha256()
    for priority in (DEFAULT_PRIORITY, tuple(reversed(DEFAULT_PRIORITY))):
        for i in range(300):
            atoms = random_atoms(random.Random(i), n_vars=6, n_symbols=3, n_atoms=12)
            s = Solver(priority=priority)
            verdicts = [solve(atoms, priority=priority).verdict.value]
            verdicts += [s.assert_atom(a).value for a in atoms]
            h.update(f"{','.join(verdicts)}\n".encode())
        for n in range(3, 10):
            h.update(f"{solve(chain(n), priority=priority).verdict}\n".encode())
    return h.hexdigest()


# What a solver decides, whatever the route and the solved store: a
# change of rules that keeps the verdicts leaves this digest as it is.
VERDICT_DIGEST = "4fbdfc9bb7956681b905d6201bd1fb06832efbfb199f50ec4aab0657b11a0895"


def test_verdicts_are_pinned():
    assert verdict_digest() == VERDICT_DIGEST


def test_an_indexed_atom_keys_only_the_instances_it_enables():
    q, r, t = var("q"), var("r"), var("t")
    s = Solver()
    for a in (EqApp(x, F1, (y,)), EqApp(z, F1, (u,)), EqApp(p, F1, (q,)),
              Sub(x, z), Sub(w, x), EqApp(w, F1, (v,))):
        s.assert_atom(a)
    ids = {a: i for i, a in s.store.atoms()}
    store = s.store

    def kept():
        """The Descend1 agenda, the Clash candidates and the kept sets."""
        return store.agenda, store.clash_candidates, store.syms

    only_f = {n: {F1} for n in "xzpw"}
    assert kept() == (set(), set(), only_f)
    # Every name holding {f} holds the one interned set.
    assert len({id(syms) for syms in store.syms.values()}) == 1
    # x <= z is in the solved store: adding it again keys nothing
    xz = store.add(Sub(x, z))
    assert kept() == (set(), set(), only_f)
    # x <= p grows that atom in place to x <= p&z, which brings f and
    # keys x's own equation; w, which reaches x, reads x's equation and
    # nothing past it, so the walk stops at x.  x holds p's f already,
    # so no set grows
    assert store.add(Sub(x, p)) == xz
    assert store.atom(xz) == Sub(x, var("p", "z"))
    assert kept() == ({ids[EqApp(x, F1, (y,))]}, set(), only_f)
    # z <= r and r <= t bring no symbol and key nothing
    store.agenda.clear()
    store.add(Sub(z, r))
    store.add(Sub(r, t))
    assert kept() == (set(), set(), only_f)
    # An atom on t walks back through r, which has no equation, to z,
    # which has one: z's equation is keyed, and not x's or w's behind it
    store.add(SubApp(t, F1, (q,)))
    assert kept() == ({ids[EqApp(z, F1, (u,))]}, set(), {**only_f, "r": {F1}, "t": {F1}})
    # An atom on p, which has an equation, keys only p's equations with
    # its symbol: none for g.  g joins the sets of p and of every name
    # that reaches p, each now a Clash candidate
    store.agenda.clear()
    store.add(SubApp(p, G1, (q,)))
    f_g = {F1, G1}
    assert kept() == (set(), {"p", "x", "w"},
                      {"x": f_g, "z": {F1}, "p": f_g, "w": f_g, "r": {F1}, "t": {F1}})


# --- stepping ----------------------------------------------------------------------


def test_single_step_to_contradiction():
    s = Solver()
    s.insert(EqApp(x, A, ()))
    s.insert(SubApp(x, B, ()))
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


def test_a_witness_leaves_the_store_as_it_is():
    # x's one child lies below y = a() and z = b(): the product clashes.
    # Asking for a witness first must not mark the store contradicted,
    # so that the run still logs the clash as its one Clash step
    atoms = [SubApp(x, F1, (y,)), SubApp(x, F1, (z,)), EqApp(y, A, ()), EqApp(z, B, ())]
    fresh, looked = Solver(), Solver()
    for a in atoms:
        fresh.insert(a)
        looked.insert(a)
    assert witness(looked.store) is None
    assert not looked.store.contradiction
    assert looked.run() == fresh.run() == Verdict.UNSAT
    assert format_trace(looked.trace) == format_trace(fresh.trace)
    assert format_trace(fresh.trace) == "step 1: Clash on y = a(), z = b() => bottom"


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
        r"^step \d+: (Clash|Elim|Decom|Descend1)"
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
    # also once a name is eliminated, when inserted atoms are mapped
    # through the names that stand for theirs
    s.assert_atom(Eq(x, y))
    s.assert_atom(EqApp(x, F1, (u,)))
    assert s.store.elim
    before = s.store.atom_list()
    for a in (SubApp(var("x", "u"), F1, (z,)), Eq(z, var("x", "u")), Sub(z, var("x", "u"))):
        with pytest.raises(ValueError):
            s.assert_atom(a)
    assert s.store.atom_list() == before


def test_priority_must_cover_every_rule():
    with pytest.raises(ValueError):
        Solver(priority=(RuleId.CLASH,))
    with pytest.raises(ValueError):
        Solver(priority=DEFAULT_PRIORITY + (RuleId.CLASH,))
    # Decom labels the store's own decompositions and is no rule
    with pytest.raises(ValueError):
        Solver(priority=DEFAULT_PRIORITY + (RuleId.DECOM,))
    Solver(priority=tuple(reversed(DEFAULT_PRIORITY)))


def test_scrambled_priority_keeps_verdicts():
    scrambled = tuple(reversed(DEFAULT_PRIORITY))
    for atoms in (TWO_HOLES_ONE_ROOT, ROUTED_CLASH, LOOP_BELOW, DISTINCT_ARGS, GAMMA):
        assert solve(atoms).verdict == solve(atoms, priority=scrambled).verdict
