"""The terminating rule engine for equations and subsumption constraints.

Three rewrite rules act on a Store, the store itself decomposes
equations and joins subsumptions as it indexes them, and a product
read off the store at each fixpoint decides what the rules leave open.
Each rule function either fires once — mutating the store in place and
returning the firing as (on, removed, added) atom tuples — or returns
None when it is inapplicable.  Every rule fires its first instance in
a fixed order read off the store as it stands: Clash at the smallest
variable, Elim and Descend1 at the smallest atom id.  So every firing
is deterministic.

Subsumption as reachability.  The components of a name's one x <= r
are its successors in a graph of names, and weak subsumption, a
preorder, holds along every path.  The paper's Collapse writes that
transitive closure into each right side (n² components on a chain of
n names, and an incremental step for each).  Here no rule does: the
closure is walked on demand, as Dörre's (1994) automaton for weak
subsumption reads the x <= y graph as its transition structure.  x is
determined as f(v̄) by each x = f(v̄) and x <= f(v̄) on x or on a name
x reaches along one or more edges (constraints.determining_atoms), and
u covers v when every component of v is u or reached from u
(Store.reachable).  Neither is kept, and a Descend1 look walks the
graph.  What the store keeps is each name's set of determining symbols
(Store.syms), so that a Clash look walks nothing.

Intersection variables occur only on the right side of an x <= r
(Store.add enforces it).  The paper's Descend2 made atoms on them, and
its Propagate2 wrote them into the arguments of an x <= f(ū); the
product below replaces both rules.

The equation phase is a class table, as in Huet's unification and in
oracles.rational_unify: a live name carries at most one x = f(ū) per
symbol.  When the store indexes a second x = f(·) with the same symbol
on a name, new or moved there by Elim, it makes the paper's Decom step
on the pair at once: it keeps the larger id and adds the argument
equations.  That is Decom given precedence over every rule, which the
verdict does not depend on.  Inside Elim's substitution the pairs meet
only once every atom is rewritten, so that no argument equation brings
back the name being eliminated.  The store keeps each decomposition in
Store.log, and the Solver logs it as a Decom step after the insert or
firing that caused it, so traces hold every derivation step.  An
x = g(·) with another symbol stays beside the first: its name then
holds two symbols, and Clash fires on it like on any other name.  So
the store only normalises, and only the rules and the product decide
unsat.

Clash reads the store's symbol sets.  Whenever the store indexes an
atom, new or rewritten, it adds the atom's symbol, or for an x <= r the
symbols of r's components, to its left side's set and to the set of
every name that reaches it, walking back over the x <= r edges and
stopping at a name that holds them already; a name whose set reaches
two symbols becomes a Clash candidate (Store.clash_candidates).  A
Clash look at a name is then one test, two symbols in its set, and the
smallest candidate fires.  The sets are exact, since no live name loses
a determining symbol (the Store docstring says why), so the first
candidate is the variable a whole-store scan in name order would find.
Only a firing builds that name's determinations(), for its on atoms;
they also confirm the set, which a caller's own Store.remove can leave
too large.  The bound: a name gains each symbol at most once, and a
walk goes on from a name, over the edges into it, only where it gained
one.  So over a whole run the walks cost O(|Σ| · (names + edges)) of
the x <= r graph, where Σ is the store's symbols, besides O(1) for
each indexed atom and O(|r|) to join the sets of an x <= r's
components.

Descend1 reads a name only as far as its nearest equations.  The
same-symbol determinations it pairs with x = f(ū) are the x = f(v̄) and
x <= f(v̄) on x, and then, walking forward over the x <= r edges from
x, for each name y reached: y's own y = f(v̄) if it has one, in which
case the walk does not go past y, else y's y <= f(v̄), and the walk
goes on (constraints.determining_atoms with frontier).  Each equation
stands for everything behind it, as a state of Dörre's automaton does.
A look sorts those, skips the equation itself, and walks from each
argument of the equation once if there are any, for the cover test.

Complete: a fixpoint of Descend1 so read is a fixpoint of the paper's
rule, which pairs x = f(ū) with every determination f(w̄) of x, on x
or on a name z that x reaches.  By induction on the shortest path from
x to z: if no name after x on it has an equation of its own, Descend1
read f(w̄), and each u_k covers w_k.  Else let y be the first that
has one, b = y = g(v̄).  If g differs from f, y holds two symbols (f
comes from z behind it), and Clash ends the run as unsat.  Otherwise
Descend1 read b for x, so u_k covers v_k; and f(w̄) determines y along
a shorter path, so v_k covers w_k (f(w̄) on y itself is read for b
directly).  v_k is a base name, so u_k reaches or is every component
of w_k, by transitivity.  The product's completeness below rests on
exactly this.

Descend1 keeps an agenda in the store (Store.agenda): the ids of the
x = f(ū) whose instance may be enabled.  It holds every x = f(ū) at
Descend1's first look; from then on, whenever the store indexes an
atom, it adds the equations that can read that atom (Store._key).  An
x = f(v̄) or x <= f(v̄) on y adds the equations with symbol f on y, and
on every name found walking back from y over the x <= r edges; the walk
goes on only through names with no equation of their own, and for an
x <= f(v̄) on a name with an equation it does not leave y.  An x <= r
adds only the equations with a symbol that r's components hold
(Store.syms), x's own if it has one and else those the same walk back
from x finds; with no such symbol it adds nothing.  A look checks the
ids in ascending order and drops each one that does not fire.  An
instance enabled at a look rests on atoms present at that look: its
equation, a path of x <= r edges through names with no equation, and
the determining atom at its end.  The last of them to be indexed found
the others present in their current form, and the names on the path
without an equation as they are, since a live name keeps an equation
once it has one (Decom leaves one of the pair).  So its keys include
the instance: the determining atom's walk back reaches the equation,
and an edge's components hold the determining symbol.  Removals need
not be reported: they only shrink determinations, take no equation
from a live name, so no read reaches further than before, and take no
path away, since an x <= r is only grown, renamed along with the rest
of the store (which merges names) or joined into the one on its name.
An id that fires stays, so the agenda never lacks an enabled instance,
and the smallest id that fires is the instance a whole-store scan in
id order would find: traces are the same as with a scan.  Sorted
determinations() lists are built only for the product and for a Clash
firing's on atoms; the store keeps none.

The cost.  An indexed atom walks back only as far as the nearest
equations, and a look reads only as far as them; on a chain whose
names all carry an equation, each is O(1) names.  What is left is the
cover test's walk from each argument: O(names reached).  Read that far,
each x_i = f(x_(i+1)) of a chain C(n) sees only x_(i+1) = f(x_(i+2)),
which x_(i+1) <= x_(i+2) covers, but for the last, x_(n−2) = f(x_(n−1)),
whose firing adds x_(n−1) <= x0 and closes the cycle.  So batch C(n)
takes one firing, whatever the order of its atoms, and one atom at a
time at most one firing per atom.

Elim reads the store's unused equations (Store.unused_eqs), the x = y
atoms with two sides that it has not used, in ascending order.  This
is not an agenda: an equation whose sides occur nowhere else does not
fire, yet must stay, since a later atom can give a side an occurrence.

The rules, and the store's own two:

  Clash       two incompatible constructors determined for a
              variable, two equations x = f(ū), x = g(v̄) included:
              contradiction.
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
  Descend1    an equation x = f(ū) whose left side is also determined
              as f(v̄) by the *rest* of the store (a determination whose
              determining atom is the equation itself is skipped) pushes
              subsumptions ū <= v̄ down to the arguments (positions
              where every component of v_k is u_k or already reachable
              from it are skipped).

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
is labelled from it.  For nodes S and T where T's determinations
include S's (as when S ⊆ T), the graph at S weakly subsumes the graph
at T: T carries S's symbol, and T's children include S's.  A node's
determinations are those of every name reachable from its members,
read along the transitions of Dörre's automaton, so an x <= r gives x
those of every component of r.  Below an x = f(ū), at a fixpoint,
Descend1 has made every component of the k-th arguments of x's other
determinations u_k or a name u_k reaches, so u_k's determinations
include theirs; with
the inclusion above, the subsumptions hold.  oracles.check_witness,
which shares no code with the product, judges the witness on every sat
verdict of the tests.

Once Clash has stopped, every singleton carries one symbol, so a clash
sits at a node with two members.  The first such node on a path from a
name is the child of a singleton with determinations and no x = f(ū):
an equation's singleton has singleton children, and a hole has none.
So the fixpoint check walks from those singletons only, and a store of
equations does no product work at all.  A clash it finds is
recorded as a Clash firing on the atoms behind the two determinations
that disagree.

A Solver owns a store and drives the rules to a fixpoint under a
total rule priority; the default order fires Clash, then Elim, then
Descend1.  The verdict is sat iff a fixpoint is reached whose store and
product hold no contradiction — which priority is used does not
change the verdict, only the route.

Inputs must mention base variables only (intersection variables are
solver-internal); solve() and assert_atom() enforce this.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
    DESCEND1 = "Descend1"

    def __str__(self) -> str:
        return self.value


DEFAULT_PRIORITY: tuple[RuleId, ...] = (
    RuleId.CLASH,
    RuleId.ELIM,
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
    """A Clash firing on w if the store's set of w's determining symbols
    holds two; only a firing builds w's determinations, for its on
    atoms.  They confirm the set, which a caller's own Store.remove can
    leave too large."""
    if len(store.syms.get(w.parts[0], ())) < 2:
        return None
    dets = determinations(store, w)
    return _clash(store, dets) if dets else None


def rule_clash(store: Store) -> Firing | None:
    """Fire when some variable carries two different determined
    constructors.  The smallest such variable fires: the candidates are
    store.clash_candidates, smallest name first."""
    if store.contradiction:
        return None
    for n in sorted(store.clash_candidates):
        fired = _clash_at(store, store.base_var(n))
        if fired is not None:
            return fired
    return None


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


def _descend1_at(store: Store, aid: int) -> Firing | None:
    a = store.get(aid)
    if a is None:
        return None
    # The determinations of a.lhs with a's symbol, but for a itself, in
    # determinations() order.
    same = []
    for i, via in determining_atoms(store, a.lhs, frontier=True):
        b = store.atom(i)
        if i != aid and b.sym == a.sym:
            same.append(Determination(b.sym, b.args, i, via))
    if not same:
        return None
    same.sort(key=lambda d: (d.args, d.at, -1 if d.via is None else d.via))
    # u_k covers v_k when every component of v_k is u_k or reachable
    # from it: weak subsumption is reflexive.
    reach = {u: store.reachable(u) for u in a.args}
    for d in same:
        missing = [(u, v) for u, v in zip(a.args, d.args)
                   if not all(p in u.parts or p in reach[u] for p in v.parts)]
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
    """x = f(ū) where the rest of the store also determines x as f(v̄),
    read as far as the nearest equations: push subsumption down to the
    arguments, adding ū_i <= v̄_i for every position where some
    component of v̄_i is neither ū_i nor reachable from it.
    The candidates are store.agenda, smallest id first.

    Determinations made by this equation itself, immediate or routed
    back to x through some x <= r, are skipped, so an equation never
    descends on account of itself."""
    if store.contradiction:
        return None
    if store.agenda is None:
        store.agenda = set(store.ids(EqApp))
    for aid in sorted(store.agenda):
        fired = _descend1_at(store, aid)
        if fired is not None:
            return fired
        store.agenda.discard(aid)
    return None


_RULES: dict[RuleId, Callable[[Store], Firing | None]] = {
    RuleId.CLASH: rule_clash,
    RuleId.ELIM: rule_elim,
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
    named after its representative, unless that is `rec`, the term
    syntax's binder keyword, and any other hole gets a fresh name, so
    that format_term's text reads back.  None when the store or its
    product holds a contradiction.
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
            holes[i] = next(iter(node)) if len(node) == 1 and "rec" not in node else next(fresh)
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
        """Log the (rule, on, removed, added) firings, and then the
        decompositions the store made as it indexed atoms (Store.log),
        one step each; read a contradiction."""
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
