"""The terminating rule engine for equations and subsumption constraints.

Four rewrite rules act on a Store, the store itself decomposes
equations and joins subsumptions as it indexes them, and a product
read off the store at each fixpoint decides what the rules leave open.
Each rule function either fires once — mutating the store in place and
returning the firing as (on, removed, added) atom tuples — or returns
None when it is inapplicable.  Every rule fires its first instance in
a fixed order: ascending atom id (ascending variable for Clash), then
components in sorted order.  So every firing is deterministic.
Collapse grows one atom, and one firing takes every current partner of
it: on is the atom, then each partner in the order it was joined.
Such a firing is the run of fine firings, one partner each, that the
paper's rule would make on that atom in a row, so soundness and
termination carry over.

Intersection variables occur only on the right side of an x <= r
(Store.add enforces it).  The paper's Descend2 made atoms on them, and
its Propagate2 wrote them into the arguments of an x <= f(ū); the
product below replaces both rules.

The equation phase is a class table, as in Huet's unification and in
oracles.rational_unify: a live name carries at most one x = f(ū).
When the store indexes a second x = f(·) on a name, new or moved there
by Elim, it makes the paper's Decom step on the pair at once if the
symbols agree: it keeps the larger id and adds the argument equations.
If they differ, that is the paper's Clash on the two equations.
That is Decom and Clash given precedence over every rule, which the
verdict does not depend on.  Inside Elim's substitution the pairs meet
only once every atom is rewritten, so that no argument equation brings
back the name being eliminated.  The store keeps each such firing in
Store.log, and the Solver logs it as a Decom or Clash step after the
insert or firing that caused it, so traces hold every derivation step.

Clash, Collapse and Descend1 each keep an agenda in the store: the
rule's key function and the keys (variables for Clash, atom ids for
the others) of the instances that may be enabled.  Whenever the store
indexes an atom, new or rewritten, it adds the keys of the instances
that atom enables as the store stands then.  A look checks the keys in
ascending order and drops each one that does not fire.  An instance
enabled at a look rests on atoms present at that look; the last of
them to be indexed found the others present in their current form, so
its keys include the instance.  Clash keys the variables whose
determinations the atom takes part in.  Collapse keys the x <= r atoms
a y <= z reaches and whose r lacks a component of z.  Descend1 keys
the x = f(ū) that the f(v̄) the atom determines would push subsumptions
down from.  Of a rewritten x <= r it reads only the components the
rewrite added, and only their own y = g(v̄) and y <= g(v̄): the
instances of the old components were keyed when the atom was last
indexed, and the subsumptions that cover them are never taken away.
Removals need not be reported: they only shrink determinations and the
subsumptions Collapse reads, and the subsumptions whose absence
Descend1 needs are never taken away, only grown, renamed along with
the rest of the store, or joined into the one x <= r on their name.  A
key that fires stays, so the agenda never lacks an enabled instance,
and the smallest key that fires is the instance the ascending scan
would have found first: traces are the same as with a whole-store
scan.  A Clash look reads the symbols of the atoms that determine its
variable from the store's index (constraints.determining_atoms), and a
Descend1 look the atoms there with its equation's symbol.  Sorted
determinations() lists are built only for the product and for a Clash
firing's on atoms; the store keeps none.

Elim reads the store's unused equations (Store.unused_eqs), the x = y
atoms with two sides that it has not used, in ascending order.  This
is not an agenda: an equation whose sides occur nowhere else does not
fire, yet must stay, since a later atom can give a side an occurrence.

The rules, and the store's own three:

  Clash       two incompatible constructors determined for a
              variable: contradiction.  The store fires it on a second
              x = f(ū) with another symbol.
  Elim        use an equation x = y to substitute one side away
              everywhere else (deep, inside intersection variables);
              each equation is used at most once.
  Decom       (the store's) two equations x = f(ū), x = f(v̄): replace
              the one with the smaller id by the pairwise argument
              equations.
  Join        (the store's) x <= z and x <= u, new or moved onto x by
              Elim: z grows to z & u in place (the paper's Propagate1),
              so a name carries at most one x <= r.  Sound both ways:
              oracles.check_witness reads an intersection as the merge
              of its components, so x <= z and x <= u hold exactly
              when x <= z&u does.  No step of its own, as the dedup
              has none; a Descend1 firing that grows an existing
              u <= r reports it as removed and u <= r&v as added.
  Collapse    w <= r absorbs y <= z for a component y of r: r grows to
              r & z, for every current such y <= z, and again for the
              components that adds, until none adds more (chains of
              subsumptions collapse into the right side in one firing).
  Descend1    an equation x = f(ū) whose left side is also determined
              as f(v̄) by the *rest* of the store (a determination whose
              determining atom is the equation itself is skipped) pushes
              subsumptions ū <= v̄ down to the arguments (positions
              already covered by an existing subsumption are skipped).

The product.  Where the rules stop without a contradiction, several
determinations of one name may still impose clashing structure on one
subtree: x <= f(y) and x <= f(z) with y = f(ū) and z = g(v̄) say that
the one child of x lies below both y and z.  The paper finds such
clashes in two steps.  Propagate2 joins x <= f(y) with every
determination f(v̄) of x, argument by argument, into x <= f(y&z), and
Descend2 gives the intersection variable y&z atoms of its own for
Clash to run on it and its components.  Here the store is read as a
graph of sets of names instead, as Dörre's (1994) automaton
construction for weak subsumption reads a conjunction as the product
of its variables' structures:

  - Representatives: a union-find over the store's x = y atoms, in
    which each name Elim eliminated points at the other side of its
    equation.
  - A node is a set of representatives.  A singleton whose name has an
    x = f(ū) is labelled f, with the singletons of ū as children.  Any
    other node takes the one symbol of its members' determinations;
    its k-th child is the set of the representatives of every
    component of every member determination's k-th argument.  A node
    with no determinations is a hole.

A node whose members' determinations carry two symbols is a clash.

The k-th child of the node {x} of a name with no x = f(ū) is the join
of the k-th arguments of all of x's determinations: the argument that
Propagate2 grows each x <= f(ū) to, and the intersection variable
whose atoms Descend2 would make.  So the product takes Propagate2's
intersection and Descend2's atoms once, at the fixpoint, and the
soundness and completeness below cover both rules.

Sound: reached from a name x along a path π, every member of a node
constrains the same position π of σ(x).  Each determination f(v̄) of a
member says that the tree there is rooted f and that its k-th child
lies below every component of v_k, which is what puts those components
into the k-th child node.  Two symbols at one position admit no tree.

Complete: with no clash every node carries one symbol or is a hole, so
the nodes form a term graph; witness() maps each name to its node.  An
x = y holds since both sides have one node, and an x = f(ū) since {x}
is labelled from it.  For nodes S ⊆ T, the graph at S weakly subsumes
the graph at T: T's determinations include S's, so T carries S's
symbol, and T's children include S's.  At a fixpoint an x <= r gives x
the determinations of every component of r (Collapse closes chains of
subsumptions), and below an x = f(ū) Descend1 has put each u_k under
the arguments of x's other determinations; with the inclusion above,
the subsumptions hold.  oracles.check_witness, which shares no code
with the product, judges the witness on every sat verdict of the tests.

Once Clash has stopped, every singleton carries one symbol, so a clash
sits at a node with two members.  The first such node on a path from a
name is the child of a singleton with determinations and no x = f(ū):
an equation's singleton has singleton children, and a hole has none.
So the fixpoint check walks from those singletons only, and a store of
equations does no product work at all.  A clash it finds is
recorded as a Clash firing on the atoms behind the two determinations
that disagree.

A Solver owns a store and drives the rules to a fixpoint under a
total rule priority; the default order fires Clash first and Descend1
last.  The verdict is sat iff a fixpoint is reached whose store and
product hold no contradiction — which priority is used does not
change the verdict, only the route.

Inputs must mention base variables only (intersection variables are
solver-internal); solve() and assert_atom() enforce this.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .constraints import (
    Atom,
    Determination,
    Eq,
    EqApp,
    Store,
    Sub,
    SubApp,
    Var,
    determinations,
    determining_atoms,
    format_atom,
    is_base_only,
    map_vars,
)
from .terms import Symbol, TermGraph


class Verdict(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


class RuleId(enum.Enum):
    """The label of a trace entry.  Decom labels only the store's own
    decompositions and is no rule of a priority."""

    CLASH = "Clash"
    ELIM = "Elim"
    DECOM = "Decom"
    COLLAPSE = "Collapse"
    DESCEND1 = "Descend1"

    def __str__(self) -> str:
        return self.value


DEFAULT_PRIORITY: tuple[RuleId, ...] = (
    RuleId.CLASH,
    RuleId.ELIM,
    RuleId.COLLAPSE,
    RuleId.DESCEND1,
)


# --- rules --------------------------------------------------------------------

# What a rule firing looked at, removed and added.
Firing = tuple[tuple[Atom, ...], tuple[Atom, ...], tuple[Atom, ...]]


def _sources(store: Store, d: Determination) -> tuple[Atom, ...]:
    """The atoms behind a determination: the routing atom, if any, then
    the determining one."""
    at = store.atom(d.at)
    return (at,) if d.via is None else (store.atom(d.via), at)


def _fire_enabled(
    store: Store,
    rule: RuleId,
    seed: Callable[[Store], Iterable],
    keys: Callable[[Store, int, Atom, Atom | None], Iterable],
    fire_at: Callable[[Store, Any], Firing | None],
) -> Firing | None:
    """Fire `rule` at the smallest key of its agenda that fires.

    The agenda is the rule's (keys, enabled) pair in store.agendas: its
    key function, and the keys of the instances that may be enabled.
    On the rule's first look every instance in the store (`seed`) is a
    candidate; from then on the store adds keys(store, aid, a, old) for
    each atom a it indexes at aid in place of old.  The keys checked
    before the one that fires do not fire and leave the agenda.
    Ascending order is the order of the whole-store scan the agenda
    replaces, so the same instance fires."""
    if store.contradiction:
        return None
    agenda = store.agendas.get(rule.value)
    if agenda is None:
        agenda = store.agendas[rule.value] = (keys, set(seed(store)))
    _, enabled = agenda
    for k in sorted(enabled):
        fired = fire_at(store, k)
        if fired is not None:
            return fired
        enabled.discard(k)
    return None


def _clash_keys(store: Store, aid: int, a: Atom, old: Atom | None) -> list[Var]:
    """The variables whose determinations atom a takes part in: those
    whose Clash status it can change."""
    return store.determined_vars(a)


def _includes(u: Var, v: Var) -> bool:
    """Is every component of v a component of u?"""
    return set(u.parts).issuperset(v.parts)


def _uncovered(store: Store, us: tuple[Var, ...], vs: tuple[Var, ...]) -> list[tuple[Var, Var]]:
    """The positions (u, v) of ū <= v̄ that no u <= r with every
    component of v in r covers."""
    return [
        (u, v) for u, v in zip(us, vs)
        if not any(_includes(store.atom(bid).rhs, v) for bid in store.ids(Sub, u))
    ]


def _clash(store: Store, dets: Sequence[Determination]) -> Firing | None:
    """A contradiction, on the atoms behind the first determination and
    the first after it with another symbol, if dets carry two symbols."""
    d1 = dets[0]
    d2 = next((d for d in dets if d.sym != d1.sym), None)
    if d2 is None:
        return None
    store.contradiction = True
    return tuple(dict.fromkeys(_sources(store, d1) + _sources(store, d2))), (), ()


def _clash_at(store: Store, w: Var) -> Firing | None:
    """A Clash firing on w if the atoms that determine it carry two
    symbols; only a firing builds w's determinations, for its on atoms."""
    if len({store.atom(i).sym for i, _ in determining_atoms(store, w)}) < 2:
        return None
    return _clash(store, determinations(store, w))


def rule_clash(store: Store) -> Firing | None:
    """Fire when some variable carries two different determined
    constructors.  The smallest such variable fires."""
    return _fire_enabled(store, RuleId.CLASH, Store.left_sides, _clash_keys, _clash_at)


def rule_elim(store: Store) -> Firing | None:
    """Use an equation to substitute one side away from the rest of the
    store.  The equation is kept, and store.elim records its id with
    the name it eliminated; a recorded equation is not used again.
    Preference: eliminate the smaller name.  The candidates are
    store.unused_eqs, smallest id first."""
    if store.contradiction:
        return None
    for aid in sorted(store.unused_eqs):
        a = store.atom(aid)
        xn, yn = a.lhs.parts[0], a.rhs.parts[0]
        if store.occurs_elsewhere(xn, aid):
            gone, kept = xn, yn
        elif store.occurs_elsewhere(yn, aid):
            gone, kept = yn, xn
        else:
            continue
        store.unused_eqs.discard(aid)
        store.subst_all(gone, kept, skip={aid})
        store.elim[aid] = gone
        return (a,), (), ()
    return None


def _collapse_keys(store: Store, aid: int, a: Atom, old: Atom | None) -> list[int]:
    """The x <= r atoms whose Collapse instance a new or rewritten atom
    can enable: for a y <= z, itself and each x <= r with y and not
    every component of z among the components of r."""
    if not isinstance(a, Sub):
        return []
    return [aid] + [i for i in store.routing_ids(a.lhs.parts[0])
                    if not _includes(store.atom(i).rhs, a.rhs)]


def _collapse_at(store: Store, aid: int) -> Firing | None:
    """Grow the right side of the x <= r at aid by the right side of
    the y <= z on each component y of r, and of the components that
    adds, until none adds more, in one firing."""
    a = store.get(aid)
    if a is None:
        return None
    on = [a]
    parts = set(a.rhs.parts)
    todo = list(a.rhs.parts)
    for name in todo:  # grows while it is walked
        for bid in store.ids(Sub, store.base_var(name)):
            b = store.atom(bid)
            new = [p for p in b.rhs.parts if p not in parts]
            if new:
                on.append(b)
                parts.update(new)
                todo.extend(new)
    if len(on) == 1:
        return None
    na = Sub(a.lhs, Var(tuple(parts)))
    store.rewrite(aid, na)
    return tuple(on), (a,), (na,)


def rule_collapse(store: Store) -> Firing | None:
    """x <= r and y <= z for a component y of r: grow r to r & z, for
    every current partner y <= z and then for those of the components
    that adds, until none adds more: the transitive closure in one
    firing.  The atom with the smallest id fires."""
    return _fire_enabled(store, RuleId.COLLAPSE, lambda s: s.ids(Sub), _collapse_keys, _collapse_at)


def _descend1_keys(store: Store, aid: int, a: Atom, old: Atom | None) -> list[int]:
    """The x = f(ū) atoms whose Descend1 instance a new or rewritten atom
    can enable: a itself, and those whose left side the atom determines
    as an f(v̄) with a position that no subsumption on ū covers.  A
    y = g(v̄) or y <= g(v̄) determines y, and the left side of each
    x <= r routing through y, as g(v̄); an x <= r determines x as each
    y = g(v̄) and y <= g(v̄) on a component y of r does.  Of a
    rewritten x <= r only the components the rewrite added count."""
    lhs = store._lhs
    if isinstance(a, Sub):
        had = old.rhs.parts if old is not None and old.lhs is a.lhs else ()
        brought = [store.atom(i) for y in a.rhs.parts if y not in had
                   for kind in (EqApp, SubApp) for i in lhs[kind].get(store.base_var(y), ())]
    else:
        brought = [a]
    return [aid] * isinstance(a, EqApp) + [
        i for v in store.determined_vars(a) for i in lhs[EqApp].get(v, ()) if i != aid
        for b in (store.atom(i),)
        if any(d.sym == b.sym and _uncovered(store, b.args, d.args) for d in brought)
    ]


def _descend1_at(store: Store, aid: int) -> Firing | None:
    a = store.get(aid)
    if a is None:
        return None
    # The determinations of a.lhs with a's symbol, but for a itself, in
    # determinations() order.
    same = []
    for i, via in determining_atoms(store, a.lhs):
        b = store.atom(i)
        if i != aid and b.sym == a.sym:
            same.append(Determination(b.sym, b.args, i, via))
    same.sort(key=lambda d: (d.args, d.at, -1 if d.via is None else d.via))
    for d in same:
        missing = _uncovered(store, a.args, d.args)
        if not missing:
            continue
        # Each u <= v joins the u <= r on u, if there is one.
        us = dict.fromkeys(u for u, _ in missing)
        removed = tuple(store.atom(i) for u in us for i in store.ids(Sub, u))
        for u, v in missing:
            store.add(Sub(u, v))
        added = tuple(store.atom(i) for u in us for i in store.ids(Sub, u))
        return tuple(dict.fromkeys((a,) + _sources(store, d))), removed, added
    return None


def rule_descend1(store: Store) -> Firing | None:
    """x = f(ū) where the rest of the store also determines x as f(v̄):
    push subsumption down to the arguments, adding ū_i <= v̄_i for every
    position not already covered by a subsumption on ū_i whose right
    side includes all components of v̄_i.  The atom with the smallest
    id fires.

    Determinations made by this equation itself, immediate or routed
    back to x through some x <= r, are skipped, so an equation never
    descends on account of itself."""
    return _fire_enabled(
        store, RuleId.DESCEND1, lambda s: s.ids(EqApp), _descend1_keys, _descend1_at
    )


_RULES: dict[RuleId, Callable[[Store], Firing | None]] = {
    RuleId.CLASH: rule_clash,
    RuleId.ELIM: rule_elim,
    RuleId.COLLAPSE: rule_collapse,
    RuleId.DESCEND1: rule_descend1,
}


# --- the product ------------------------------------------------------------------

# A node of the product: a set of representatives (see the module
# docstring).
Node = frozenset


def representatives(store: Store) -> Callable[[str], str]:
    """find() of a union-find over the store's x = y atoms, in which the
    name each used equation eliminated points at its other side: the
    classes the equations imply, each named by a name still in use."""
    parent: dict[str, str] = {}

    def find(n: str) -> str:
        while n in parent:
            parent[n] = n = parent.get(parent[n], parent[n])  # path halving
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


def _walk(store: Store, find: Callable[[str], str], roots: Sequence[str]
          ) -> tuple[dict[Node, tuple[Symbol | None, tuple[Node, ...]]], Firing | None]:
    """The nodes reached from the singletons of roots, depth first in
    the order of roots and of child positions, without recursion: each
    node's symbol and children (None and () for a hole), in the order
    first reached.  The walk stops at the first node whose members'
    determinations carry two symbols and returns its Clash firing."""
    eqapps = store._lhs[EqApp]
    nodes: dict[Node, tuple[Symbol | None, tuple[Node, ...]]] = {}
    stack = [Node((find(r),)) for r in reversed(roots)]
    while stack:
        node = stack.pop()
        if node in nodes:
            continue
        own = eqapps.get(store.base_var(next(iter(node)))) if len(node) == 1 else None
        if own:
            a = store.atom(min(own))
            sym, kids = a.sym, tuple(Node((find(u.parts[0]),)) for u in a.args)
        else:
            dets = [d for n in sorted(node) for d in determinations(store, store.base_var(n))]
            if not dets:
                nodes[node] = (None, ())
                continue
            fired = _clash(store, dets)
            if fired is not None:
                return nodes, fired
            sym = dets[0].sym
            kids = tuple(Node(find(c) for d in dets for c in d.args[k].parts)
                         for k in range(sym.arity))
        nodes[node] = (sym, kids)
        stack.extend(reversed(kids))
    return nodes, None


def _product_clash(store: Store) -> Firing | None:
    """A clash in the product of a store at a fixpoint of the rules,
    walked from the left sides of subsumptions with no x = f(ū).  A
    start with no determinations is a hole and ends its walk at once."""
    lhs = store._lhs
    starts = sorted(v.parts[0] for v in {*lhs[Sub], *lhs[SubApp]} if v not in lhs[EqApp])
    return _walk(store, representatives(store), starts)[1] if starts else None


def witness(store: Store) -> dict[str, TermGraph] | None:
    """A model of a solved store read off its product: each base name of
    the store maps to the term graph at its node.  A singleton hole is
    named after its representative, and any other hole gets a fresh
    name.  None when the store or its product holds a contradiction.
    On a store that is not at a fixpoint of the rules, the product need
    not be a model."""
    if store.contradiction:
        return None
    names = sorted(store.base_vars())
    find = representatives(store)
    nodes, clash = _walk(store, find, names)
    if clash is not None:
        return None
    number = {node: i for i, node in enumerate(nodes)}
    taken = set(names)
    fresh = (f"h{k}" for k in itertools.count(1) if f"h{k}" not in taken)
    labels: dict[int, Symbol] = {}
    children: dict[int, tuple[int, ...]] = {}
    holes: dict[int, str] = {}
    for node, (sym, kids) in nodes.items():
        i = number[node]
        if sym is None:
            holes[i] = next(iter(node)) if len(node) == 1 else next(fresh)
        else:
            labels[i], children[i] = sym, tuple(number[k] for k in kids)
    graphs: dict[int, TermGraph] = {}

    def graph(root: int) -> TermGraph:
        """The graph of the nodes reachable from root."""
        if root not in graphs:
            seen, todo = {root}, [root]
            while todo:
                for k in children.get(todo.pop(), ()):
                    if k not in seen:
                        seen.add(k)
                        todo.append(k)
            graphs[root] = TermGraph(
                root,
                {i: labels[i] for i in seen if i in labels},
                {i: children[i] for i in seen if i in children},
                {i: holes[i] for i in seen if i in holes},
            )
        return graphs[root]

    return {n: graph(number[Node((find(n),))]) for n in names}


# --- solver -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One rule firing: which rule, the atoms it looked at, and what
    it removed and added.  Only Clash derives bottom, so a Clash entry
    prints `=> bottom`; a clash in the product is a Clash entry on the
    atoms behind the two determinations that disagree."""

    step: int
    rule: RuleId
    on: tuple[Atom, ...]
    removed: tuple[Atom, ...]
    added: tuple[Atom, ...]

    def __str__(self) -> str:
        ons = ", ".join(format_atom(a) for a in self.on)
        if self.rule is RuleId.CLASH:
            outs = "bottom"
        elif self.added:
            outs = ", ".join(format_atom(a) for a in self.added)
        else:
            outs = "nothing"
        return f"step {self.step}: {self.rule.value} on {ons} => {outs}"


def format_trace(trace: Sequence[TraceEntry]) -> str:
    return "\n".join(str(e) for e in trace)


class Solver:
    """Incremental solver: assert atoms one at a time, read the verdict.

    Each variable of an asserted atom is mapped through
    Store.current(), so that a name already eliminated lands on the
    name that stands for it now.
    """

    def __init__(self, *, priority: Sequence[RuleId] = DEFAULT_PRIORITY):
        prio = tuple(priority)
        if len(prio) != len(_RULES) or set(prio) != _RULES.keys():
            raise ValueError("priority must list every rule exactly once")
        self.priority = prio
        self.store = Store()
        self.trace: list[TraceEntry] = []
        self.step_count = 0
        self.verdict = Verdict.SAT  # the empty conjunction is satisfiable

    def _normalize(self, a: Atom) -> Atom:
        return map_vars(a, lambda v: self.store.base_var(self.store.current(v.parts[0])))

    def insert(self, a: Atom) -> None:
        """Add one atom without running rules (input validation applies)."""
        if not is_base_only(a):
            raise ValueError(
                f"input atoms must use base variables only: {format_atom(a)}"
            )
        self.store.add(self._normalize(a))
        if self.verdict is not Verdict.UNSAT:
            self.verdict = Verdict.UNKNOWN
        self._record([])

    def step(self) -> bool:
        """Fire the first applicable rule by priority, or where none is,
        a clash in the product; False at fixpoint."""
        if self.store.contradiction:
            self.verdict = Verdict.UNSAT
            return False
        for rule in self.priority:
            fired = _RULES[rule](self.store)
            if fired is not None:
                return self._record([(rule, *fired)])
        fired = _product_clash(self.store)
        if fired is not None:
            return self._record([(RuleId.CLASH, *fired)])
        if self.verdict is not Verdict.UNSAT:
            self.verdict = Verdict.SAT
        return False

    def _record(self, firings: list[tuple]) -> bool:
        """Log the (rule, on, removed, added) firings, and then those
        the store made as it indexed atoms (Store.log), one step each;
        read a contradiction."""
        for rule, *fired in firings + self.store.log:
            self.step_count += 1
            self.trace.append(TraceEntry(self.step_count, RuleId(rule), *fired))
        self.store.log.clear()
        if self.store.contradiction:
            self.verdict = Verdict.UNSAT
        return True

    def run(self) -> Verdict:
        """Step to a fixpoint and return the verdict."""
        while self.step():
            pass
        return self.verdict

    def assert_atom(self, a: Atom) -> Verdict:
        """Insert one atom and re-solve.  Contradiction is absorbing."""
        if self.verdict is Verdict.UNSAT:
            return Verdict.UNSAT
        self.insert(a)
        return self.run()


@dataclass
class SolveResult:
    verdict: Verdict
    store: Store
    steps: int
    trace: list[TraceEntry]


def solve(atoms: Iterable[Atom], *, priority: Sequence[RuleId] = DEFAULT_PRIORITY) -> SolveResult:
    """Decide satisfiability of a conjunction of base-variable atoms."""
    s = Solver(priority=priority)
    for a in atoms:
        s.insert(a)
    s.run()
    return SolveResult(s.verdict, s.store, s.step_count, list(s.trace))
