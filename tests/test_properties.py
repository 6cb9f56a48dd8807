"""Property tests over seeded random instances: the verdict does not
depend on the rule priority or on variable names, a solved store holds
every atom once, no rule is enabled on a sat store rebuilt from
scratch, and solving the solved atoms again gives the same verdict."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wsc.constraints import Eq, Store, Sub, Var
from wsc.engine import _RULES, RuleId, Solver, Verdict, solve
from wsc.frontend import random_atoms

N_VARS = 6

instances = st.builds(
    lambda seed, n_atoms: random_atoms(
        random.Random(seed), n_vars=N_VARS, n_symbols=3, n_atoms=n_atoms
    ),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=12),
)

checked = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def rename(a, names):
    def r(v):
        return Var(tuple(names[p] for p in v.parts))

    if isinstance(a, (Eq, Sub)):
        return type(a)(r(a.lhs), r(a.rhs))
    return type(a)(r(a.lhs), a.sym, tuple(r(u) for u in a.args))


@checked
@given(instances, st.permutations(list(RuleId)))
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


@checked
@given(instances)
def test_no_rule_is_enabled_on_a_solved_store(atoms):
    for solved in (solve(atoms).solver, incremental(atoms)):
        if solved.verdict is not Verdict.SAT:
            continue
        store = solved.store
        for rule in _RULES.values():
            fresh = Store(store.atom_list())
            fresh.solved_eqs = {fresh.add(store.atom(k)) for k in store.solved_eqs}
            assert rule(fresh) is None


@checked
@given(instances)
def test_resolving_the_solved_atoms_keeps_the_verdict(atoms):
    result = solve(atoms)
    again = Solver()
    # The solved atoms may hold intersection variables, which solve()
    # rejects as input; the rules accept them.
    again.store = Store(result.store.atom_list())
    assert again.run() == result.verdict
