"""Variables, atomic constraints, stores, and the determinedness relations.

A variable is a nonempty set of base-variable names kept in a canonical
sorted tuple, so the set laws (associativity, commutativity,
idempotence of `&`) hold by representation: two variables denote the
same intersection iff they are the same object, since each value has
one shared Var (see Var).  A singleton is a base
variable; anything larger is an intersection variable, standing for the
trees admitted by every one of its components at once.

Atoms come in four shapes: x = y, x = f(ȳ), x <= y, and x <= f(ȳ)
(the last meaning: x is below some tree rooted f with the given
children, i.e. there is a u with x <= u and u = f(ȳ)).

A Store holds the current conjunction as a set of atoms indexed by
kind and left side, with at most one x = f(ȳ) per name and symbol and
at most one x <= r per name, plus the bookkeeping a solver needs: a
contradiction flag, the record of the equations used for elimination
and the name each one eliminated, and the log of the decompositions
the store made itself.  The x <= r atoms form a graph of names, each
name's one x <= r leading to the components of r.  A variable is
determined by the x = f(ȳ) and x <= f(ȳ) on it and on every name it
reaches in that graph.  Both the reachable names and the
determinations are read from the index on each request.  What the
store keeps beside the atoms is each name's set of determining symbols,
which only grows as atoms are indexed; reachability is not kept.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Container, Iterable, NamedTuple, Union
from weakref import KeyedRef

from .terms import Symbol

BaseVar = str


_interned: dict[tuple[str, ...], KeyedRef] = {}
# Held to build and register a Var and to drop a dead one's entry, so
# that threads never build two Vars for one value.  Reentrant: a Var
# that dies while the lock is held runs _forget in the same thread.
_interning = threading.RLock()


def _forget(ref: KeyedRef, table: dict = _interned, lock: threading.RLock = _interning) -> None:
    """The callback of an entry in the table of variables: drop the
    entry once its Var is gone, unless a newer Var holds the parts.
    The defaults keep the table and lock reachable while the
    interpreter clears module globals at exit."""
    with lock:
        if table.get(ref.key) is ref:
            del table[ref.key]


@functools.total_ordering
class Var:
    """A variable: a canonical nonempty tuple of base-variable names.

    len(parts) == 1 is a base variable; more parts make an intersection
    variable denoting the common instances of all components.

    Variables are hash-consed: Var(parts) returns the one live Var with
    those canonical parts, so equal variables are the same object, and
    hashing and equality are `object`'s identity.  A module table maps
    canonical parts to a weak reference, so an entry goes when its Var
    dies; only a miss canonicalises, and only a new Var runs
    __post_init__.  A Var is immutable, copies and pickles come back as
    the shared object, and variables order by their parts.
    """

    __slots__ = ("parts", "is_base", "__weakref__")
    parts: tuple[str, ...]
    is_base: bool

    def __new__(cls, parts: Iterable[str]) -> Var:
        try:
            ref = _interned.get(parts)
        except TypeError:  # an unhashable iterable of names, such as a list
            ref = None
        if ref is not None:
            v = ref()
            if v is not None:
                return v
        canon = tuple(sorted(set(parts)))
        with _interning:
            ref = _interned.get(canon)
            if ref is not None:
                v = ref()
                if v is not None:
                    return v
            self = object.__new__(cls)
            object.__setattr__(self, "parts", canon)
            self.__post_init__()
            _interned[canon] = KeyedRef(self, _forget, canon)
        return self

    def __post_init__(self) -> None:
        """Check the canonical parts of a new Var and fill is_base."""
        if not self.parts:
            raise ValueError("a variable needs at least one component")
        for p in self.parts:
            if not isinstance(p, str) or not p:
                raise ValueError(f"bad base variable name {p!r}")
        object.__setattr__(self, "is_base", len(self.parts) == 1)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return Var, (self.parts,)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is Var:
            return self.parts < other.parts
        return NotImplemented

    def __repr__(self) -> str:
        return f"Var(parts={self.parts!r})"

    def __str__(self) -> str:
        return "&".join(self.parts)


def var(*names: str) -> Var:
    """Convenience constructor: var('x') or var('x', 'y')."""
    return Var(tuple(names))


@dataclass(frozen=True, slots=True)
class Eq:
    """x = y.  Stored with the sides sorted, since x = y and y = x have
    identical solutions: rule matching treats the pair as unordered."""

    lhs: Var
    rhs: Var

    def __post_init__(self) -> None:
        if self.rhs < self.lhs:
            lhs, rhs = self.rhs, self.lhs
            object.__setattr__(self, "lhs", lhs)
            object.__setattr__(self, "rhs", rhs)

    def __str__(self) -> str:
        return format_atom(self)


def _check_args(self) -> None:
    """The __post_init__ of EqApp and SubApp: tuple the arguments and
    check their number against the symbol's arity."""
    object.__setattr__(self, "args", tuple(self.args))
    if len(self.args) != self.sym.arity:
        raise ValueError(f"{self.sym} expects {self.sym.arity} arguments, got {len(self.args)}")


@dataclass(frozen=True, slots=True)
class EqApp:
    """x = f(y1, ..., yn)."""

    lhs: Var
    sym: Symbol
    args: tuple[Var, ...]

    __post_init__ = _check_args

    def __str__(self) -> str:
        return format_atom(self)


@dataclass(frozen=True, slots=True)
class Sub:
    """x <= y: every instance of x is an instance of y."""

    lhs: Var
    rhs: Var

    def __str__(self) -> str:
        return format_atom(self)


@dataclass(frozen=True, slots=True)
class SubApp:
    """x <= f(y1, ..., yn): x is below some tree rooted f with these children."""

    lhs: Var
    sym: Symbol
    args: tuple[Var, ...]

    __post_init__ = _check_args

    def __str__(self) -> str:
        return format_atom(self)


Atom = Union[Eq, EqApp, Sub, SubApp]


def atom_vars(a: Atom) -> tuple[Var, ...]:
    """The variable occurrences of an atom, in positional order."""
    if isinstance(a, (Eq, Sub)):
        return (a.lhs, a.rhs)
    return (a.lhs,) + a.args


def atom_base_vars(a: Atom) -> set[str]:
    """All base-variable names mentioned anywhere in the atom."""
    out: set[str] = set()
    for v in atom_vars(a):
        out.update(v.parts)
    return out


def is_base_only(a: Atom) -> bool:
    return all(v.is_base for v in atom_vars(a))


def map_vars(a: Atom, f: Callable[[Var], Var]) -> Atom:
    """The atom of the same kind and symbol with f applied to each of
    its variables."""
    if isinstance(a, Eq):
        return Eq(f(a.lhs), f(a.rhs))
    if isinstance(a, Sub):
        return Sub(f(a.lhs), f(a.rhs))
    return type(a)(f(a.lhs), a.sym, tuple(map(f, a.args)))


def subst_atom(a: Atom, x: str, y: str) -> Atom:
    """Deep substitution [y/x] on one atom: componentwise inside every
    variable, re-canonicalizing (so {x,y}[y/x] collapses to {y})."""

    def sub(v: Var) -> Var:
        if x not in v.parts:
            return v
        return Var(tuple(y if p == x else p for p in v.parts))

    return map_vars(a, sub)


def format_atom(a: Atom) -> str:
    """Canonical one-line rendering; the frontend parser reads this back."""
    if isinstance(a, Eq):
        return f"{a.lhs} = {a.rhs}"
    if isinstance(a, EqApp):
        return f"{a.lhs} = {a.sym.name}({', '.join(map(str, a.args))})"
    if isinstance(a, Sub):
        return f"{a.lhs} <= {a.rhs}"
    return f"{a.lhs} <= {a.sym.name}({', '.join(map(str, a.args))})"


class Store:
    """A conjunction as an indexed set of atoms, with solver bookkeeping.

    Every atom present has exactly one id.  Adding an atom already
    present is a no-op, and a rewrite that produces an atom present
    under another id merges the two.

    Intersection variables occur only on the right side of an x <= r;
    that is the shape every reachable solver state has, and add()
    enforces it.

    One table maps each kind of atom and each left side to the ids of
    those atoms (ids()).  Beside it the store indexes the atoms by base
    variable and the x <= r atoms by the base components of r.
    reachable() walks the x <= r atoms forward from a variable through
    the left-side table, and the symbol sets and the agenda below walk
    them back through the right-side one.  determining_atoms() and
    determinations() read a variable's determinations, its own and those
    of every name it reaches, from these tables on each call.

    `syms` maps each base name to the symbols of its determinations, an
    interned frozenset shared by every name with the same symbols.  An
    indexed x = f(ū) or x <= f(ū) adds f to x and to every name that
    reaches x, and an indexed x <= r adds the symbols of r's components
    to x and to those names: a walk back over the right sides' index,
    which stops at a name that holds them already (a name holds those of
    every name it reaches).  Nothing takes a symbol away from a live
    name: the store removes atoms only as duplicates, by Decom, which
    leaves the symbol on its name, or by merging, and an x <= r only
    grows or is renamed.  subst_all(x, y) drops x's set, since x
    determines nothing after it.  So the sets are exact, unless a
    caller's own remove() leaves one too large.  `clash_candidates`
    holds the names whose sets hold two symbols.

    `agenda` is None until Descend1 first looks, and then holds the ids
    of the x = f(ū) whose Descend1 instance may be enabled.  Descend1
    reads a name only as far as the nearest names with an x = f(ū) of
    their own, and the agenda is keyed to match: once the store has
    indexed an atom, new or rewritten, it adds the equations with the
    atom's symbols on the names that read it that far, walking back
    over the right sides' index and stopping at each name with an
    equation (_key; engine.py says why no instance is missed).

    `elim` maps the id of each x = y that Elim used to the name it
    eliminated.  That name occurs in no other atom, so the equation is
    never removed or merged.  subst_all rewrites it whenever its other
    side is eliminated in turn, so current() finds the live name in one
    hop.  `unused_eqs` holds the ids of the x = y atoms with two sides
    that Elim may still use: indexing such an atom adds its id unless
    `elim` records it, and unindexing drops it.  Elim drops the id it
    uses.

    A name carries at most one x = f(ū) per symbol: the class table of
    unification.  add() and subst_all() meet a second one with the same
    symbol at once (Decom): the atom with the smaller id goes, and the
    argument equations ū = v̄ are added.  Inside subst_all they meet
    only after the whole substitution, else an argument equation could
    bring back the name being eliminated.  One with another symbol
    stays, and its name's set of symbols makes it a Clash candidate:
    the store normalises and never decides unsat, so nothing here sets
    `contradiction`.  `log` holds each decomposition, as ("Decom", on,
    removed, added), until a solver reads and clears it; once a rule
    has contradicted the store it logs nothing more.

    Likewise a name carries at most one x <= r: add() grows it in place
    to x <= r&u, keeping its id, and subst_all() joins one moved onto a
    name that has one into it after the whole substitution.  A join
    logs nothing, like the dedup (engine.py says why it is sound).
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.contradiction = False
        self._atoms: dict[int, Atom] = {}
        self._next_id = 0
        self._locs: dict[Atom, int] = {}
        self._occ: dict[str, set[int]] = {}
        self._lhs: dict[type, dict[Var, set[int]]] = {Eq: {}, EqApp: {}, Sub: {}, SubApp: {}}
        self._sub_rhs: dict[str, set[int]] = {}
        self.elim: dict[int, str] = {}
        self.unused_eqs: set[int] = set()
        self._base: dict[str, Var] = {}
        self.syms: dict[str, frozenset[Symbol]] = {}
        self._symsets: dict[frozenset[Symbol], frozenset[Symbol]] = {}
        self.clash_candidates: set[str] = set()
        self.agenda: set[int] | None = None
        self.log: list[tuple[str, tuple[Atom, ...], tuple[Atom, ...], tuple[Atom, ...]]] = []
        for a in atoms:
            self.add(a)

    # -- basic mutation --------------------------------------------------

    def add(self, a: Atom) -> int:
        """Insert an atom; returns its id (the existing one if present,
        or that of the x <= r on its name that an x <= u joins)."""
        if not (a.lhs.is_base if isinstance(a, Sub) else is_base_only(a)):
            raise ValueError(f"intersection variable off a right side of <=: {format_atom(a)}")
        if a in self._locs:
            return self._locs[a]
        if isinstance(a, Sub) and a.lhs in self._lhs[Sub]:
            (aid,) = self._lhs[Sub][a.lhs]
            return self.rewrite(aid, Sub(a.lhs, Var(self._atoms[aid].rhs.parts + a.rhs.parts)))
        aid = self._next_id
        self._next_id += 1
        self._atoms[aid] = a
        self._index(aid, a)
        if isinstance(a, EqApp):
            self._meet(aid, a)
        return aid

    def remove(self, aid: int) -> Atom:
        a = self._atoms.pop(aid)
        self._unindex(aid, a)
        return a

    def rewrite(self, aid: int, a: Atom) -> int:
        """Replace the atom at aid, keeping the id.  If the new atom is
        already present under another id, the two merge and that other
        id is returned."""
        old = self._atoms[aid]
        if a == old:
            return aid
        if a in self._locs:
            keep = self._locs[a]
            self.remove(aid)
            return keep
        self._unindex(aid, old)
        self._atoms[aid] = a
        self._index(aid, a)
        return aid

    def subst_all(self, x: str, y: str, skip: Iterable[int] = ()) -> None:
        """Deep substitution [y/x] applied to every atom (except `skip`).
        An x = f(ū) or x <= r moved onto y meets y's own y = f(·) or
        y <= s only once every atom is rewritten, so that the argument
        equations mention no x."""
        skipset = set(skip)
        moved = []
        for aid in sorted(self._occ.get(x, set()) - skipset):
            if aid in self._atoms:  # may have merged away already
                old = self._atoms[aid]
                a = subst_atom(old, x, y)
                if self.rewrite(aid, a) == aid and a.lhs is not old.lhs:
                    moved.append(aid)
        for aid in moved:
            a = self._atoms.get(aid)
            if isinstance(a, EqApp):  # may have met a larger id already
                self._meet(aid, a)
            elif isinstance(a, Sub) and len(self._lhs[Sub][a.lhs]) > 1:
                # the larger id goes and joins the smaller
                self.add(self.remove(max(self._lhs[Sub][a.lhs])))
        self.syms.pop(x, None)
        self.clash_candidates.discard(x)

    def _meet(self, aid: int, a: EqApp) -> None:
        """Meet the x = f(ū) at aid with another with the same symbol on
        its left side, if there is one: the pair decomposes (Decom), the
        smaller id goes, and the argument equations are added.  One with
        another symbol stays beside it, for Clash to fire on the name's
        symbol set.  Nothing is logged once the store is contradicted:
        nothing follows bottom."""
        same = [i for i in self._lhs[EqApp][a.lhs] if i != aid and self._atoms[i].sym == a.sym]
        if not same:
            return
        first, second = sorted((aid, same[0]))
        pair = (self._atoms[first], self._atoms[second])
        self.remove(first)
        added = tuple(Eq(u, v) for u, v in zip(pair[0].args, pair[1].args))
        if not self.contradiction:
            self.log.append(("Decom", pair, pair[:1], added))
        for eq in added:
            self.add(eq)

    # -- queries -----------------------------------------------------------

    def atom(self, aid: int) -> Atom:
        return self._atoms[aid]

    def get(self, aid: int) -> Atom | None:
        """The atom at aid, or None once it is removed or merged away."""
        return self._atoms.get(aid)

    def base_var(self, name: str) -> Var:
        """The base variable `name`, kept per store, so that a rule or
        a lookup asking for it reads a dict instead of calling Var."""
        v = self._base.get(name)
        if v is None:
            v = self._base[name] = Var((name,))
        return v

    def current(self, name: str) -> str:
        """The name that stands for base variable `name` now: the other
        side of the equation that eliminated it, else name itself."""
        occ = self._occ.get(name, ())
        if len(occ) == 1:
            (aid,) = occ
            if self.elim.get(aid) == name:
                a = self._atoms[aid]
                return a.rhs.parts[0] if a.lhs.parts[0] == name else a.lhs.parts[0]
        return name

    def atoms(self) -> list[tuple[int, Atom]]:
        return sorted(self._atoms.items())

    def atom_list(self) -> list[Atom]:
        return [a for _, a in self.atoms()]

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, a: Atom) -> bool:
        return a in self._locs

    def base_vars(self) -> set[str]:
        """All base variables occurring as a component anywhere."""
        return set(self._occ)

    def occurs_elsewhere(self, x: str, excl: int) -> bool:
        """Does base variable x occur as a component outside atom excl?"""
        occ = self._occ.get(x, ())
        return len(occ) > 1 or (len(occ) == 1 and excl not in occ)

    def reachable(self, v: Var, stop: Container[Var] = ()) -> dict[str, None]:
        """The names reachable from v along one or more x <= r edges:
        the components of v's x <= r, theirs, and so on, walked on each
        call.  The walk does not go on past a name whose variable is in
        `stop`."""
        sub, atoms, base = self._lhs[Sub], self._atoms, self._base
        seen: dict[str, None] = {}
        todo = [v]
        while todo:
            for sid in sub.get(todo.pop(), ()):
                for y in atoms[sid].rhs.parts:
                    if y not in seen:
                        seen[y] = None
                        yv = base.get(y) or self.base_var(y)
                        if yv not in stop:
                            todo.append(yv)
        return seen

    def ids(self, kind: type, lhs: Var | None = None) -> list[int]:
        """The ids of the atoms of this kind (Eq, EqApp, Sub or SubApp),
        only those on left side lhs if it is given, in ascending order."""
        table = self._lhs[kind]
        if lhs is None:
            return sorted(i for ids in table.values() for i in ids)
        return sorted(table.get(lhs, ()))

    def __str__(self) -> str:
        body = ", ".join(format_atom(a) for a in self.atom_list())
        return "bottom" if self.contradiction else "{" + body + "}"

    __repr__ = __str__

    # -- index plumbing -----------------------------------------------------

    def _index(self, aid: int, a: Atom) -> None:
        self._locs[a] = aid
        for b in atom_base_vars(a):
            self._occ.setdefault(b, set()).add(aid)
        self._lhs[type(a)].setdefault(a.lhs, set()).add(aid)
        if isinstance(a, Eq):
            if a.lhs != a.rhs and aid not in self.elim:
                self.unused_eqs.add(aid)
        elif isinstance(a, Sub):
            for y in a.rhs.parts:
                self._sub_rhs.setdefault(y, set()).add(aid)
            new = frozenset().union(*(self.syms.get(y, ()) for y in a.rhs.parts))
            self._spread(a.lhs.parts[0], new)
            self._key(a.lhs.parts[0], new, through=False)
        else:
            new = frozenset((a.sym,))
            self._spread(a.lhs.parts[0], new)
            self._key(a.lhs.parts[0], new, through=isinstance(a, EqApp))

    def _spread(self, name: str, new: frozenset[Symbol]) -> None:
        """Add the symbols `new` to the set of name and of every name
        that reaches it, stopping at a name that holds them already."""
        syms, atoms, sub_rhs = self.syms, self._atoms, self._sub_rhs
        todo = [name]
        while todo:
            n = todo.pop()
            old = syms.get(n, frozenset())
            if new <= old:
                continue
            s = old | new
            syms[n] = self._symsets.setdefault(s, s)
            if len(s) > 1:
                self.clash_candidates.add(n)
            todo += [atoms[sid].lhs.parts[0] for sid in sub_rhs.get(n, ())]

    def _key(self, name: str, syms: frozenset[Symbol], through: bool) -> None:
        """Add to the agenda, once Descend1 keeps one, the x = f(ū) with
        a symbol in syms on name and on every name found walking back
        from it over the x <= r edges.  The walk does not go on past a
        name with an x = f(ū) of its own, nor past name itself if it has
        one, unless `through`."""
        if self.agenda is None or not syms:
            return
        eqapps, atoms, sub_rhs = self._lhs[EqApp], self._atoms, self._sub_rhs
        names, seen = [name], {name}
        for n in names:  # grows while it is walked
            own = eqapps.get(self.base_var(n))
            if own:
                self.agenda.update(i for i in own if atoms[i].sym in syms)
                if not (through and n == name):
                    continue
            for sid in sub_rhs.get(n, ()):
                x = atoms[sid].lhs.parts[0]
                if x not in seen:
                    seen.add(x)
                    names.append(x)

    def _unindex(self, aid: int, a: Atom) -> None:
        del self._locs[a]
        for b in atom_base_vars(a):
            _drop(self._occ, b, aid)
        _drop(self._lhs[type(a)], a.lhs, aid)
        if isinstance(a, Eq):
            self.unused_eqs.discard(aid)
        elif isinstance(a, Sub):
            for y in a.rhs.parts:
                _drop(self._sub_rhs, y, aid)


def _drop(table: dict, key, aid: int) -> None:
    """Take aid out of table[key], and the key out once it has no ids."""
    ids = table[key]
    ids.discard(aid)
    if not ids:
        del table[key]


class Determination(NamedTuple):
    """One reason a variable's top constructor is fixed.

    at:  the atom id of the x = f(ū) / x <= f(ū) doing the determining
    via: the id of the x <= r atom routing through a component of r,
         or None when the determination is immediate
    """

    sym: Symbol
    args: tuple[Var, ...]
    at: int
    via: int | None


def determining_atoms(store: Store, v: Var, frontier: bool = False) -> list[tuple[int, int | None]]:
    """The atoms that determine v, as (id, route) pairs read from the
    store's left-side index: each x = f(ū) and x <= f(ū) on v, with
    route None, then those on every name reachable from v along x <= r
    edges (Store.reachable), with the id of v's one x <= r as the
    route.  With `frontier`, the walk stops at each name with an
    x = f(ū) of its own and reads only that: Descend1's reading, which
    engine.py shows is enough."""
    lhs = store._lhs
    tables = (lhs[EqApp], lhs[SubApp])
    stop = tables[0] if frontier else ()
    out = [(i, None) for t in tables for i in t.get(v, ())]
    for sid in lhs[Sub].get(v, ()):
        for y in store.reachable(v, stop):
            yv = store.base_var(y)
            out += [(i, sid) for t in (tables[:1] if yv in stop else tables)
                    for i in t.get(yv, ())]
    return out


def determinations(store: Store, v: Var) -> list[Determination]:
    """All determinations of v, immediate and routed: those of
    determining_atoms(), sorted by symbol, arguments, atom id and route
    (the immediate one first).  Each call builds a new list."""
    out = []
    for aid, via in determining_atoms(store, v):
        a = store.atom(aid)
        out.append(Determination(a.sym, a.args, aid, via))
    out.sort(key=lambda d: (d.sym, d.args, d.at, -1 if d.via is None else d.via))
    return out
