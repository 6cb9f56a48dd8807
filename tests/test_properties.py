"""Property tests over seeded random instances: the verdict does not
depend on the rule priority or on variable names, a solved store holds
every atom once, no rule is enabled on a sat store rebuilt from
scratch, every step fires what it would fire on a store rebuilt from
scratch, solving the solved atoms again gives the same verdict, every
incremental verdict is the batch verdict of its prefix, the indexes a
store keeps through a run answer as a fresh store's do, each
elimination is kept once, as its solved equation, a left side never
holds two x = f(ū) with one symbol nor two x <= r, the atoms read as
determining a left side are those of its determinations and a Clash
look fires exactly on two symbols among them, a left side is determined
by the atoms on every name it reaches along x <= r edges, the store
keeps each name's determining symbols exactly, a Descend1 fixpoint
covers every determination, an unsat trace ends in its one Clash, on
atoms in the store, and a trace does not depend on where in memory its
variables live."""

import random
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsc.constraints import (
    Eq, EqApp, Store, Sub, SubApp, Var, atom_vars, determinations, determining_atoms, var,
)
from wsc.engine import (
    _RULES, DEFAULT_PRIORITY, RuleId, Solver, Verdict, _clash_at, format_trace, solve,
)
from wsc.frontend import ATOM_KINDS, random_atoms
from wsc.terms import Symbol

from reference import left_sides

N_VARS = 6
F = Symbol("f", 1)


def instances_of(kinds):
    return st.builds(
        lambda seed, n_atoms: random_atoms(
            random.Random(seed), n_vars=N_VARS, n_symbols=3, n_atoms=n_atoms, kinds=kinds
        ),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=12),
    )


instances = instances_of(ATOM_KINDS)
# Weighted towards x = y, so that Elim fires often and in chains.
eq_heavy_instances = instances_of(("eq", "eq", "eq") + ATOM_KINDS)
# Weighted towards x <= y, with x = y beside it, so that Elim moves
# subsumptions onto names that have one.
sub_heavy_instances = instances_of(("sub", "sub", "sub", "eq") + ATOM_KINDS)

checked = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def rename(a, names):
    def r(v):
        return Var(tuple(names[p] for p in v.parts))

    if isinstance(a, (Eq, Sub)):
        return type(a)(r(a.lhs), r(a.rhs))
    return type(a)(r(a.lhs), a.sym, tuple(r(u) for u in a.args))


@checked
@given(instances, st.permutations(DEFAULT_PRIORITY))
def test_every_priority_gives_the_default_verdict(atoms, priority):
    assert solve(atoms, priority=priority).verdict == solve(atoms).verdict


@checked
@given(instances, st.permutations(range(N_VARS)))
def test_renaming_base_variables_keeps_the_verdict(atoms, perm):
    names = {f"x{i}": f"x{j}" for i, j in enumerate(perm)}
    renamed = [rename(a, names) for a in atoms]
    assert solve(renamed).verdict == solve(atoms).verdict


@checked
@given(instances)
def test_solved_store_holds_each_atom_once(atoms):
    store = solve(atoms).store
    assert len(store) == len(set(store.atom_list()))


def incremental(atoms):
    solver = Solver()
    for a in atoms:
        solver.assert_atom(a)
    return solver


def fresh_copy(store):
    """A new store of the same atoms, in the same order, with the same
    eliminations recorded under the ids the atoms get there: 0, 1, ...
    in atom_list() order."""
    atoms = store.atoms()
    position = {k: i for i, (k, _) in enumerate(atoms)}
    fresh = Store()
    fresh.elim = {position[k]: gone for k, gone in store.elim.items()}
    for i, (_, a) in enumerate(atoms):
        assert fresh.add(a) == i
    return fresh


@checked
@given(instances)
def test_no_rule_is_enabled_on_a_solved_store(atoms):
    for solved in (solve(atoms), incremental(atoms)):
        if solved.verdict is not Verdict.SAT:
            continue
        for rule in _RULES.values():
            assert rule(fresh_copy(solved.store)) is None


def firings(trace):
    return [(e.rule, e.on, e.removed, e.added) for e in trace]


def run_against_fresh_stores(solver):
    """Step solver to a fixpoint.  Before each step, and until the store
    has a contradiction (a fresh store has no such flag), a solver on a
    fresh copy of the store fires what solver fires, or nothing when it
    fires nothing."""
    while not solver.store.contradiction:
        fresh = Solver(priority=solver.priority)
        fresh.store = fresh_copy(solver.store)
        fresh.step()
        done = len(solver.trace)
        stepped = solver.step()
        assert firings(fresh.trace) == firings(solver.trace[done:])
        if not stepped:
            break


@checked
@given(instances)
def test_every_step_fires_as_on_a_fresh_store(atoms):
    for priority in (DEFAULT_PRIORITY, DEFAULT_PRIORITY[::-1]):
        batch = Solver(priority=priority)
        for a in atoms:
            batch.insert(a)
        run_against_fresh_stores(batch)
        one_by_one = Solver(priority=priority)
        for a in atoms:
            if one_by_one.store.contradiction:
                break
            one_by_one.insert(a)
            run_against_fresh_stores(one_by_one)


@checked
@given(instances)
def test_resolving_the_solved_atoms_keeps_the_verdict(atoms):
    result = solve(atoms)
    again = Solver()
    # The solved atoms may hold intersection variables, which solve()
    # rejects as input; the rules accept them.
    again.store = Store(result.store.atom_list())
    assert again.run() == result.verdict


def index_answers(store):
    """What each index query of the store gives, in atoms rather than
    ids, so that a fresh store of the same atoms gives the same."""
    atoms = store.atom_list()
    variables = {v for a in atoms for v in atom_vars(a)}
    names = store.base_vars()

    def at(ids):
        return [store.atom(i) for i in ids]

    def reaching(y):
        """The names that reach y along x <= r edges, walked back over
        the index of right sides."""
        out, todo = set(), [y]
        while todo:
            for i in store._sub_rhs.get(todo.pop(), ()):
                x = store.atom(i).lhs.parts[0]
                if x not in out:
                    out.add(x)
                    todo.append(x)
        return out

    return {
        "ids": {
            (kind.__name__, v): at(store.ids(kind, v))
            for kind in (Eq, EqApp, Sub, SubApp)
            for v in variables | {None}
        },
        "left sides": left_sides(store),
        "base vars": names,
        "reaching": {y: reaching(y) for y in names},
        "determinations": {
            v: [
                (d.sym, d.args, store.atom(d.at), None if d.via is None else store.atom(d.via))
                for d in determinations(store, v)
            ]
            for v in variables
        },
    }


def assert_indexes_match_a_fresh_store(store):
    assert index_answers(store) == index_answers(Store(store.atom_list()))


@checked
@given(instances)
def test_indexes_and_incremental_verdicts_match_a_fresh_start(atoms):
    assert_indexes_match_a_fresh_store(solve(atoms).store)
    solver = Solver()
    for k, a in enumerate(atoms, start=1):
        assert solver.assert_atom(a) == solve(atoms[:k]).verdict
        assert_indexes_match_a_fresh_store(solver.store)


def assert_each_elimination_is_its_equation(store):
    """store.elim maps present x = y atoms to a side that occurs in that
    atom only, current() gives the other side, and no equation Elim
    has not used mentions an eliminated name."""
    for aid, gone in store.elim.items():
        a = store.get(aid)
        assert isinstance(a, Eq) and a.lhs != a.rhs
        sides = (a.lhs.parts[0], a.rhs.parts[0])
        assert gone in sides and not store.occurs_elsewhere(gone, aid)
        assert store.current(gone) == (sides[1] if sides[0] == gone else sides[0])
    gone_names = set(store.elim.values())
    for aid in store.ids(Eq):
        if aid not in store.elim:
            a = store.atom(aid)
            assert gone_names.isdisjoint(a.lhs.parts + a.rhs.parts)


@checked
@given(st.one_of(instances, eq_heavy_instances))
def test_each_elimination_is_kept_once_as_its_solved_equation(atoms):
    result = solve(atoms)
    if not result.store.contradiction:
        assert_each_elimination_is_its_equation(result.store)
    solver = Solver()
    for a in atoms:
        solver.assert_atom(a)
        if not solver.store.contradiction:
            assert_each_elimination_is_its_equation(solver.store)


def assert_one_equation_per_name_and_symbol(store):
    """No left side holds two x = f(ū) with one symbol, and every name
    in store.elim occurs in its own equation only."""
    for v in left_sides(store):
        syms = [store.atom(i).sym for i in store.ids(EqApp, v)]
        assert len(syms) == len(set(syms)), v
    for aid, gone in store.elim.items():
        assert store.get(aid) is not None and not store.occurs_elsewhere(gone, aid)


def check_after_every_insert_and_step(atoms, check):
    """Check the store after every insert and every step of a batch run
    and of one assert per atom, under the default and the reversed
    priority."""
    for priority in (DEFAULT_PRIORITY, DEFAULT_PRIORITY[::-1]):
        for batch in (True, False):
            solver = Solver(priority=priority)
            for k, a in enumerate(atoms, start=1):
                solver.insert(a)
                check(solver.store)
                if batch and k < len(atoms):
                    continue
                while solver.step():
                    check(solver.store)


@checked
@given(eq_heavy_instances)
# Random draws seldom give this shape: Elim moves x0 = f(x2) onto x1
# while x1 = f(x0) still mentions x0.
@example([Eq(var("x0"), var("x1")), EqApp(var("x0"), F, (var("x2"),)),
          EqApp(var("x1"), F, (var("x0"),))])
def test_a_left_side_keeps_one_equation_per_symbol_after_every_step(atoms):
    check_after_every_insert_and_step(atoms, assert_one_equation_per_name_and_symbol)


def assert_one_subsumption_per_name(store):
    for v in left_sides(store):
        assert len(store.ids(Sub, v)) <= 1, v


@checked
@given(sub_heavy_instances)
# Elim moves x0 <= x3 onto x1, which has x1 <= x2.
@example([Sub(var("x1"), var("x2")), Eq(var("x0"), var("x1")), Sub(var("x0"), var("x3"))])
def test_a_left_side_keeps_one_subsumption_after_every_step(atoms):
    check_after_every_insert_and_step(atoms, assert_one_subsumption_per_name)


def assert_clash_reads_the_determinations(store):
    """For every left side v, determining_atoms() gives the (at, via)
    pairs of determinations(), and a Clash look at v fires exactly when
    those determinations carry two symbols."""
    for v in left_sides(store):
        dets = determinations(store, v)
        assert Counter(determining_atoms(store, v)) == Counter((d.at, d.via) for d in dets), v
        was = store.contradiction
        fired = _clash_at(store, v) is not None
        store.contradiction = was  # a firing sets it; the run goes on as it was
        assert fired == (len({d.sym for d in dets}) > 1), v


@checked
@given(sub_heavy_instances)
# x0's determinations are a() on itself and f(x2) routed through x1.
@example([Sub(var("x0"), var("x1")), EqApp(var("x1"), F, (var("x2"),)),
          SubApp(var("x0"), Symbol("a", 0), ())])
def test_clash_looks_read_the_determinations_after_every_step(atoms):
    check_after_every_insert_and_step(atoms, assert_clash_reads_the_determinations)


def naive_reach(store, v):
    """The names reachable from v along one or more x <= r edges, by a
    naive fixpoint over the store's x <= r atoms."""
    edges = {a.lhs: set(a.rhs.parts) for a in store.atom_list() if isinstance(a, Sub)}
    reach = set(edges.get(v, ()))
    while True:
        more = reach.union(*(edges.get(var(y), ()) for y in reach))
        if more == reach:
            return reach
        reach = more


def assert_determining_atoms_are_those_of_every_reachable_name(store):
    """For every left side v, determining_atoms() gives each x = f(ū)
    and x <= f(ū) on v, unrouted, and each on a name v reaches, routed
    by v's x <= r."""
    for v in left_sides(store):
        reach = naive_reach(store, v)
        (route,) = store.ids(Sub, v) or (None,)
        want = Counter()
        for i, a in store.atoms():
            if isinstance(a, (EqApp, SubApp)):
                if a.lhs is v:
                    want[i, None] += 1
                if a.lhs.parts[0] in reach:
                    want[i, route] += 1
        assert Counter(determining_atoms(store, v)) == want, v


@checked
@given(sub_heavy_instances)
# x0 reaches x2 through x1 only, and x2 reaches x0 back.
@example([Sub(var("x0"), var("x1")), Sub(var("x1"), var("x2")), Sub(var("x2"), var("x0")),
          EqApp(var("x2"), F, (var("x0"),)), SubApp(var("x0"), Symbol("a", 0), ())])
def test_a_name_is_determined_by_every_name_it_reaches_after_every_step(atoms):
    check_after_every_insert_and_step(
        atoms, assert_determining_atoms_are_those_of_every_reachable_name)


def assert_kept_symbols_are_those_of_the_determinations(store):
    """Every name's kept set of symbols is that of the atoms
    determining_atoms() reads for it, and the Clash candidates are the
    names whose sets hold two."""
    for n in store.base_vars() | store.syms.keys():
        want = {store.atom(i).sym for i, _ in determining_atoms(store, var(n))}
        assert store.syms.get(n, frozenset()) == want, n
    assert store.clash_candidates == {n for n, syms in store.syms.items() if len(syms) > 1}


@checked
@given(st.one_of(sub_heavy_instances, eq_heavy_instances))
# A cycle of subsumptions: a() on x2 and f on x1 go round it.
@example([Sub(var("x0"), var("x1")), Sub(var("x1"), var("x2")), Sub(var("x2"), var("x0")),
          EqApp(var("x1"), F, (var("x0"),)), SubApp(var("x2"), Symbol("a", 0), ())])
# Elim eliminates x0, which holds {f, a}; under the reversed priority
# it fires before Clash.
@example([Sub(var("x3"), var("x0")), EqApp(var("x0"), F, (var("x2"),)),
          SubApp(var("x0"), Symbol("a", 0), ()), Eq(var("x0"), var("x1"))])
def test_each_name_keeps_the_symbols_that_determine_it_after_every_step(atoms):
    check_after_every_insert_and_step(
        atoms, assert_kept_symbols_are_those_of_the_determinations)


def assert_descend1_covers_every_determination(store):
    """For each x = f(ū) and each determination of x with symbol f, but
    for the equation itself, every component of its k-th argument is
    u_k or a name u_k reaches: Descend1 reads only as far as the nearest
    equation, and its fixpoint still covers the full determinations."""
    for aid in store.ids(EqApp):
        a = store.atom(aid)
        reach = {u: store.reachable(u) for u in a.args}
        for d in determinations(store, a.lhs):
            if d.at != aid and d.sym == a.sym:
                for u, v in zip(a.args, d.args):
                    assert all(p in u.parts or p in reach[u] for p in v.parts), (a, d)


@checked
@given(st.one_of(instances, sub_heavy_instances))
# x1 has no equation of its own, so x0 = f(x3) reads both x1's f(x4)
# and x2's f(x5) behind it.
@example([EqApp(var("x0"), F, (var("x3"),)), Sub(var("x0"), var("x1")),
          SubApp(var("x1"), F, (var("x4"),)), Sub(var("x1"), var("x2")),
          EqApp(var("x2"), F, (var("x5"),))])
def test_a_descend1_fixpoint_covers_every_determination(atoms):
    for priority in (DEFAULT_PRIORITY, DEFAULT_PRIORITY[::-1]):
        result = solve(atoms, priority=priority)
        if result.verdict is Verdict.SAT:
            assert_descend1_covers_every_determination(result.store)
        solver = Solver(priority=priority)
        for a in atoms:
            if solver.assert_atom(a) is Verdict.SAT:
                assert_descend1_covers_every_determination(solver.store)


def assert_unsat_runs_end_in_one_clash(atoms):
    """Batch and one atom at a time, under the default and the reversed
    priority: an unsat run logs exactly one Clash entry, as its last
    entry, and each of its on atoms is in the store right after the
    insert or step that logged it.  One atom at a time, the inserts go
    on after the verdict is unsat, and log nothing more."""
    for priority in (DEFAULT_PRIORITY, DEFAULT_PRIORITY[::-1]):
        for batch in (True, False):
            solver = Solver(priority=priority)
            clashes = []

            def logged(done):
                for e in solver.trace[done:]:
                    if e.rule is RuleId.CLASH:
                        clashes.append(e)
                        assert all(a in solver.store for a in e.on), e

            for k, a in enumerate(atoms, start=1):
                done = len(solver.trace)
                solver.insert(a)
                logged(done)
                if batch and k < len(atoms):
                    continue
                stepped = True
                while stepped:
                    done = len(solver.trace)
                    stepped = solver.step()
                    logged(done)
            if solver.verdict is Verdict.UNSAT:
                assert len(clashes) == 1 and solver.trace[-1] is clashes[0], atoms
            else:
                assert clashes == [], atoms


@checked
@given(st.one_of(instances, eq_heavy_instances))
# Elim moves x0 = a() onto x1, which holds x1 = f(x0), and then
# rewrites that to x1 = f(x1): Clash must name the pair as it stands
# after the whole substitution.
@example([Eq(var("x0"), var("x1")), EqApp(var("x0"), Symbol("a", 0), ()),
          EqApp(var("x1"), F, (var("x0"),))])
def test_an_unsat_trace_ends_in_one_clash_on_atoms_in_the_store(atoms):
    assert_unsat_runs_end_in_one_clash(atoms)


def traces(atoms):
    """The trace of a batch solve and of one assert_atom per atom."""
    return format_trace(solve(atoms).trace), format_trace(incremental(atoms).trace)


@settings(checked, max_examples=100)
@given(instances)
def test_traces_do_not_depend_on_variable_addresses(atoms):
    # Variables hash by identity, so set and dict order follow object
    # addresses; interning and dropping unrelated ones moves them.
    before = traces(atoms)
    unrelated = [Var((f"u{i}", f"u{i + 1}")) for i in range(3000)]
    assert traces(atoms) == before
    del unrelated
    assert traces(atoms) == before
