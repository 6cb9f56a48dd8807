"""Property tests over seeded random instances: the verdict does not
depend on the rule priority or on variable names, and a solved store
holds every atom once."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wsc.constraints import Eq, Sub, Var
from wsc.engine import RuleId, solve
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
