"""Variables, atomic constraints, stores, and the determinedness relations.

A variable is a nonempty set of base-variable names kept in a canonical
sorted tuple, so the set laws (associativity, commutativity,
idempotence of `&`) hold by representation: two variables denote the
same intersection iff they are equal values.  A singleton is a base
variable; anything larger is an intersection variable, standing for the
trees admitted by every one of its components at once.

Atoms come in four shapes: x = y, x = f(ȳ), x <= y, and x <= f(ȳ)
(the last meaning: x is below some tree rooted f with the given
children, i.e. there is a u with x <= u and u = f(ȳ)).

A Store holds the current conjunction as a set of atoms indexed by
kind and left side, plus the bookkeeping a solver needs: a
contradiction flag, the record of eliminated variables, which equations
have already been used for elimination, and an index of each variable's
determinations that every change to an atom keeps up to date.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Union

from .terms import Symbol

BaseVar = str


@dataclass(frozen=True, order=True, slots=True)
class Var:
    """A variable: a canonical nonempty tuple of base-variable names.

    len(parts) == 1 is a base variable; more parts make an intersection
    variable denoting the common instances of all components.
    """

    parts: tuple[str, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.parts)))
        if not canon:
            raise ValueError("a variable needs at least one component")
        for p in canon:
            if not isinstance(p, str) or not p:
                raise ValueError(f"bad base variable name {p!r}")
        object.__setattr__(self, "parts", canon)

    @property
    def is_base(self) -> bool:
        return len(self.parts) == 1

    def __str__(self) -> str:
        return "&".join(self.parts)


def var(*names: str) -> Var:
    """Convenience constructor: var('x') or var('x', 'y')."""
    return Var(tuple(names))


def components(x: Var) -> frozenset[str]:
    """The base variables making up x; every base variable is its own."""
    return frozenset(x.parts)


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


@dataclass(frozen=True, slots=True)
class EqApp:
    """x = f(y1, ..., yn)."""

    lhs: Var
    sym: Symbol
    args: tuple[Var, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.sym.arity:
            raise ValueError(f"{self.sym} expects {self.sym.arity} arguments, got {len(self.args)}")

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.sym.arity:
            raise ValueError(f"{self.sym} expects {self.sym.arity} arguments, got {len(self.args)}")

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

    Equations and their applied forms must be base-variable-only; that
    is the shape every reachable solver state has, and add() enforces
    it.  Subsumption atoms may freely mention intersection variables.

    One table maps each kind of atom and each left side to the ids of
    those atoms (ids()).  Beside it the store indexes the atoms by base
    variable, the x <= r atoms by the base components of r, and counts
    the occurrences of each intersection variable.  It also keeps what
    determinations() computed for each variable, and adds the id of
    every atom it indexes to the `changed` set of each (changed,
    enabled) pair in `agendas`, one pair per rule that keeps an agenda
    (see determinations() and engine.py).
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.contradiction = False
        self._atoms: dict[int, Atom] = {}
        self._next_id = 0
        self._locs: dict[Atom, int] = {}
        self._occ: dict[str, set[int]] = {}
        self._lhs: dict[type, dict[Var, set[int]]] = {Eq: {}, EqApp: {}, Sub: {}, SubApp: {}}
        self._sub_rhs: dict[str, set[int]] = {}
        self._inter: dict[Var, int] = {}
        self.solved_eqs: set[int] = set()
        self.elim: dict[str, str] = {}
        self._base: dict[str, Var] = {}
        self._dets: dict[Var, list[Determination]] = {}
        self.agendas: dict[str, tuple[set[int], set]] = {}
        for a in atoms:
            self.add(a)

    # -- basic mutation --------------------------------------------------

    def add(self, a: Atom) -> int:
        """Insert an atom; returns its id (the existing one if present)."""
        if isinstance(a, (Eq, EqApp)) and not is_base_only(a):
            raise ValueError(f"equational atom with an intersection variable: {format_atom(a)}")
        if a in self._locs:
            return self._locs[a]
        aid = self._next_id
        self._next_id += 1
        self._atoms[aid] = a
        self._index(aid, a)
        return aid

    def remove(self, aid: int) -> Atom:
        a = self._atoms.pop(aid)
        self._unindex(aid, a)
        self.solved_eqs.discard(aid)
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
            if aid in self.solved_eqs:
                self.solved_eqs.add(keep)
            self.remove(aid)
            return keep
        self._unindex(aid, old)
        self._atoms[aid] = a
        self._index(aid, a)
        return aid

    def subst_all(self, x: str, y: str, skip: Iterable[int] = ()) -> None:
        """Deep substitution [y/x] applied to every atom (except `skip`)."""
        skipset = set(skip)
        for aid in sorted(self._occ.get(x, set()) - skipset):
            if aid in self._atoms:  # may have merged away already
                self.rewrite(aid, subst_atom(self._atoms[aid], x, y))

    # -- queries -----------------------------------------------------------

    def atom(self, aid: int) -> Atom:
        return self._atoms[aid]

    def get(self, aid: int) -> Atom | None:
        """The atom at aid, or None once it is removed or merged away."""
        return self._atoms.get(aid)

    def base_var(self, name: str) -> Var:
        """The base variable `name`: one value per name for the life of
        the store, so a rule or a lookup asking for it builds no Var."""
        v = self._base.get(name)
        if v is None:
            v = self._base[name] = Var((name,))
        return v

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

    def lhs_ids(self, x: str) -> list[int]:
        """The ids of the x = f(ū), x <= y and x <= f(ū) atoms whose left
        side has base variable x as a component."""
        return [
            i
            for i in self._occ.get(x, ())
            if not isinstance(a := self._atoms[i], Eq) and x in a.lhs.parts
        ]

    def routing_ids(self, y: str) -> list[int]:
        """The ids of the x <= r atoms whose right side has base variable
        y as a component."""
        return list(self._sub_rhs.get(y, ()))

    def determined_vars(self, a: Atom) -> list[Var]:
        """The variables whose determinations atom a takes part in: its
        left side, and, when a determines a base y, the left side of
        every x <= r routing through y."""
        if isinstance(a, Eq):
            return []
        if isinstance(a, Sub) or not a.lhs.is_base:
            return [a.lhs]
        return [a.lhs] + [self._atoms[i].lhs for i in self.routing_ids(a.lhs.parts[0])]

    def ids(self, kind: type, lhs: Var | None = None) -> list[int]:
        """The ids of the atoms of this kind (Eq, EqApp, Sub or SubApp),
        only those on left side lhs if it is given, in ascending order."""
        table = self._lhs[kind]
        if lhs is None:
            return sorted(i for ids in table.values() for i in ids)
        return sorted(table.get(lhs, ()))

    def left_sides(self) -> set[Var]:
        """The variables that are the left side of some atom."""
        return {v for table in self._lhs.values() for v in table}

    def intersection_vars(self) -> list[Var]:
        """The intersection variables occurring in some atom, ascending."""
        return sorted(self._inter)

    def __str__(self) -> str:
        body = ", ".join(format_atom(a) for a in self.atom_list())
        return "bottom" if self.contradiction else "{" + body + "}"

    __repr__ = __str__

    # -- index plumbing -----------------------------------------------------

    def _forget_dets(self, a: Atom) -> None:
        """Drop the kept determinations that atom a takes part in."""
        for v in self.determined_vars(a):
            self._dets.pop(v, None)

    def _index(self, aid: int, a: Atom) -> None:
        self._forget_dets(a)
        for changed, _ in self.agendas.values():
            changed.add(aid)
        self._locs[a] = aid
        for b in atom_base_vars(a):
            self._occ.setdefault(b, set()).add(aid)
        for v in atom_vars(a):
            if not v.is_base:
                self._inter[v] = self._inter.get(v, 0) + 1
        self._lhs[type(a)].setdefault(a.lhs, set()).add(aid)
        if isinstance(a, Sub):
            for y in a.rhs.parts:
                self._sub_rhs.setdefault(y, set()).add(aid)

    def _unindex(self, aid: int, a: Atom) -> None:
        del self._locs[a]
        for b in atom_base_vars(a):
            _drop(self._occ, b, aid)
        for v in atom_vars(a):
            if not v.is_base:
                self._inter[v] -= 1
                if not self._inter[v]:
                    del self._inter[v]
        self._forget_dets(a)
        _drop(self._lhs[type(a)], a.lhs, aid)
        if isinstance(a, Sub):
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


def determinations(store: Store, v: Var) -> list[Determination]:
    """All determinations of v, immediate and routed, in a stable order.

    The result comes from the store's index.  It is computed on the
    first call for v and kept until an atom it depends on is added,
    removed or rewritten: an x = f(ū) or x <= f(ū) on v, a subsumption
    v <= r, or an x = f(ū) or x <= f(ū) on a base component of such an
    r.  The list is shared by every caller until then and must not be
    mutated.  Since it is recomputed whenever it could differ, it is
    always the list a fresh computation gives, and the rules that read
    it fire exactly as if nothing were kept.
    """
    out = store._dets.get(v)
    if out is not None:
        return out
    out = []
    for aid in store.ids(EqApp, v) + store.ids(SubApp, v):
        a = store.atom(aid)
        out.append(Determination(a.sym, a.args, aid, None))
    for sid in store.ids(Sub, v):
        for y in store.atom(sid).rhs.parts:
            yv = store.base_var(y)
            for aid in store.ids(EqApp, yv) + store.ids(SubApp, yv):
                a = store.atom(aid)
                out.append(Determination(a.sym, a.args, aid, sid))
    out.sort(key=lambda d: (d.sym, d.args, d.at, -1 if d.via is None else d.via))
    store._dets[v] = out
    return out
