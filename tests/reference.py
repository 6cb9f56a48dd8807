"""Reference definitions that only the tests use.

`instance_member` is the bounded membership probe that the term and
oracle tests check the deciders against.  `store_of` builds a store of
given atoms, and `subst_atom` substitutes on one atom as the store's
subst_all does on each.  `left_sides` lists the names a store's
property tests look at: those of its atoms' left sides, by which the
store keys its index.  `representatives` is the union-find whose
classes Store.current must give at a fixpoint.  `load_witness` reads
back the `name := term` text that oracles.dump_witness and `wsc solve
--witness` write.  `plain_witness_search` is the search that
oracles.witness_search must answer exactly as, without its pruning.
"""

from typing import Callable

from wsc.constraints import Atom, Eq, EqApp, Store, SubApp, atom_base_vars, map_vars, renaming
from wsc.oracles import SearchResult, check_witness, enumerate_graphs
from wsc.terms import TermGraph, parse_term


def store_of(*atoms: Atom) -> Store:
    """A new store with the atoms added in order."""
    store = Store()
    for a in atoms:
        store.add(a)
    return store


def subst_atom(a: Atom, x: str, y: str) -> Atom:
    """Deep substitution [y/x] on one atom (see constraints.renaming)."""
    return map_vars(a, renaming(x, y))


def representatives(store: Store) -> Callable[[str], str]:
    """find() of a union-find over the store's x = y atoms, in which the
    name each used equation eliminated points at its other side: the
    classes the equations imply, each named by a name still in use."""
    parent: dict[str, str] = {}

    def find(n: str) -> str:
        while n in parent:
            parent[n] = n = parent.get(parent[n], parent[n])
        return n

    for aid in store.ids(Eq):
        a = store.atom(aid)
        x, y = a.lhs.parts[0], a.rhs.parts[0]
        if store.elim.get(aid) == y:
            x, y = y, x
        x, y = find(x), find(y)
        if x != y:
            parent[x] = y
    return find


def left_sides(store: Store) -> set[str]:
    """The names that are the left side of some atom of store."""
    return {n for table in store._lhs.values() for n in table}


def instance_member(t: TermGraph, s: TermGraph, depth: int) -> bool:
    """Bounded probe: does t agree with s's labeled skeleton down to `depth`?

    Checks the pair currently in view before descending, so a root
    mismatch is caught even at depth 0.  `depth` counts edges descended.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def go(tn: int, sn: int, d: int) -> bool:
        lab = s.labels.get(sn)
        if lab is None:
            return True
        if t.labels.get(tn) != lab:
            return False
        if d == 0:
            return True
        return all(go(ti, si, d - 1) for ti, si in zip(t.children[tn], s.children[sn]))

    return go(t.root, s.root, depth)


def load_witness(text: str) -> dict[str, TermGraph]:
    """Parse `name := term` lines; `#` starts a comment."""
    out: dict[str, TermGraph] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":=" not in line:
            raise ValueError(f"line {lineno}: expected `name := term`")
        name, term = line.split(":=", 1)
        name = name.strip()
        if not name or not name.isidentifier():
            raise ValueError(f"line {lineno}: bad variable name {name!r}")
        out[name] = parse_term(term.strip())
    return out


def plain_witness_search(atoms, max_depth: int, max_holes: int, budget: int) -> SearchResult:
    """witness_search's answer the slow way: variables in sorted order,
    each over the enumerate_graphs() pool whose roots carry the symbols
    its applied atoms force, each atom judged by check_witness once its
    last variable is placed, and every placement counted once."""
    atoms = list(atoms)
    names = sorted({n for a in atoms for n in atom_base_vars(a)})
    applied = [a for a in atoms if isinstance(a, (EqApp, SubApp))]
    pool = enumerate_graphs({a.sym for a in applied}, max_depth, max_holes)
    forced = [{a.sym for a in applied if a.lhs.parts == (nm,)} for nm in names]
    pools = [[g for g in pool if not f or g.labels.get(g.root) in f] for f in forced]
    tested = [[a for a in atoms if max(atom_base_vars(a)) == nm] for nm in names]
    sigma: dict[str, TermGraph] = {}
    checked = 0

    def place(i: int) -> bool:
        nonlocal checked
        if i == len(names):
            return True
        for g in pools[i]:
            checked += 1
            if checked > budget:
                raise OverflowError
            sigma[names[i]] = g
            if check_witness(sigma, tested[i]) and place(i + 1):
                return True
        return False

    try:
        found = place(0)
    except OverflowError:
        return SearchResult(None, True, budget + 1)
    return SearchResult(dict(sigma) if found else None, False, checked)
