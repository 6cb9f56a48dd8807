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
subsumption reads the x <= y graph as its transition structure.  x
is determined as f(v̄) by each x = f(v̄) and x <= f(v̄) on x or on a
name x reaches along one or more edges (its full read), and u covers v
when every component of v is u or reached from u (Store.reachable).
Neither is kept.  The rules and the product read a name's
determinations only as far as its nearest equations
(constraints.determining_atoms, below), as one state of the automaton
stands for everything behind it; the Clash lemma and the product's
frontier paragraph below show that nothing is lost.  What the store
keeps is each name's set of determining symbols, those of its full
read (Store.syms), so that Clash walks only from a name whose set
holds two.

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
Clash look at a name is then one test, two symbols in its set, and only
a candidate's determinations() are built, read as far as its nearest
equations: the smallest candidate whose read shows two symbols fires,
on the atoms behind the first two that differ.  A candidate's read can
show one, with its second symbol behind an equation, but the sets are
exact, since no live name loses a determining symbol (the Store
docstring says why), and then some candidate's read shows two:

Clash lemma: if some name's full read carries two symbols, some name's
read to its nearest equations does.  By induction on p + q, over a
name x and two atoms of its full read with symbols f ≠ g, on names at
shortest path lengths p and q from x.  x's read is not empty, since
the walk towards either atom reads it or stops at an equation; suppose
it shows one symbol only, h, and say g ≠ h, on atom b.  b is not in
x's read, so q > 0, and the walk from x stopped, on the shortest path
to b's name, at a name y with an equation of its own: before that
name, or at it, with b a y <= g(·), which a read of y's equations
skips.  x's read holds y's equation, so its symbol is h, and y is
determined by h on itself and by g at a path length less than q:
0 plus that is less than p + q, so by induction some name's read
shows two symbols.  (If p + q = 0, both atoms are x's own, and its
read holds both.)

So Clash is enabled in exactly the states in which a read past the
equations would enable it, and only the name it fires at and its on
atoms differ.  The read also confirms the set, which a caller's own
Store.remove can leave too large.  The bound: a name gains each symbol
at most once, and a walk goes on from a name, over the edges into it,
only where it gained one.  So over a whole run the walks cost
O(|Σ| · (names + edges)) of the x <= r graph, where Σ is the store's
symbols, besides O(1) for each indexed atom and O(|r|) to join the
sets of an x <= r's components.

Descend1 reads a name only as far as its nearest equations.  The
same-symbol determinations it pairs with x = f(ū) are the x = f(v̄) and
x <= f(v̄) on x, and then, walking forward over the x <= r edges from
x, for each name y reached: y's own y = f(v̄) if it has one, in which
case the walk does not go past y, else y's y <= f(v̄), and the walk
goes on (constraints.determining_atoms, the one read of determinations
in the engine).  Each equation stands for everything behind it, as a
state of Dörre's automaton does.  A look sorts those and skips the
equation itself.  For the cover test it walks once from each argument
asked for a name other than itself, and only until it has reached every
name it is asked for.

Complete: a fixpoint of Descend1 so read is a fixpoint of the paper's
rule, which pairs x = f(ū) with every determination f(w̄) of x, on x
or on a name z that x reaches.  By induction on the shortest path from
x to z: if no name after x on it has an equation of its own, Descend1
read f(w̄), and each u_k covers w_k.  Else let y be the first that
has one, b = y = g(v̄).  If g differs from f, y's full read holds two
symbols (f comes from z behind it), and by the Clash lemma Clash ends
the run as unsat.  Otherwise Descend1 read b for x, so u_k covers v_k;
and f(w̄) determines y along a shorter path, so v_k covers w_k (f(w̄)
on y itself is read for b directly).  v_k is a base name, so u_k reaches or is every component
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
look at a candidate; the store keeps none.

The cost.  An indexed atom walks back only as far as the nearest
equations, and a look reads only as far as them; on a chain whose
names all carry an equation, each is O(1) names.  So is the cover
test's walk from each argument, which ends at the names asked for.
Read that far, each x_i = f(x_(i+1)) of a chain C(n) sees only
x_(i+1) = f(x_(i+2)), which x_(i+1) <= x_(i+2) covers, one edge from
x_(i+1), but for the last, x_(n−2) = f(x_(n−1)), whose firing adds
x_(n−1) <= x0 and closes the cycle.  So batch C(n)
takes one firing, whatever the order of its atoms, and one atom at a
time at most one firing per atom.

Elim reads the store's unused equations (Store.unused_eqs), the x = y
atoms with two sides that it has not used, smallest id first, popping
them off the heap the store keeps beside the set (Store.unused_heap).
An equation whose sides occur nowhere else does not fire, yet must
stay, since a later atom can give a side an occurrence: Elim parks it
under both sides (Store.idle_eqs), and the store pushes it back on the
heap when it indexes an atom with either side, so that such an
equation is popped once, not at every look.  Of the sides that occur
in another atom, Elim eliminates the one that occurs in fewer atoms,
the smaller name of a tie: union by size, as in Tarjan's (1975) set
union, which gives Huet's (1976) unification its near-linear bound.
Where both sides occur elsewhere, an atom that is rewritten moves onto
a name in at least as many atoms as the one it leaves.  As in the
paper's rule, the side eliminated must occur elsewhere, so where one
side occurs nowhere else, all the other side's atoms move onto it.

The rules, and the store's own two:

  Clash       two incompatible constructors among a variable's
              determinations, read as far as its nearest equations,
              two equations x = f(ū), x = g(v̄) included:
              contradiction.
  Elim        use an equation x = y to substitute one side away
              everywhere else (deep, inside intersection variables),
              the side in fewer atoms; each equation is used at most
              once.
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

  - A node is a set of names.  A singleton whose name has an x = f(ū)
    is labelled f, with the singletons of ū as children.  Any other
    node takes the one symbol of its members' determinations, each
    member read as far as its nearest equations, and one with no
    Store.syms entry, which has none, skipped in O(1); its k-th child
    is the set of every component of every member determination's k-th
    argument.  A node with no determinations is a hole.
  - Representatives: at a fixpoint of Elim a name that occurs in an
    atom other than an x = y stands for its whole class (the frontier
    paragraph below), so the walk builds its nodes from the names in
    the atoms as they stand.  Only witness() reads a union-find over
    the store's x = y atoms (representatives(), in which each name Elim
    eliminated points at the other side of its equation), to start an
    eliminated name, or a side of an x = y that occurs nowhere else,
    at the node of its class.

A node whose members' determinations carry two symbols is a clash.

The k-th child of the node {x} of a name with no x = f(ū) is the join
of the k-th arguments of x's determinations: the argument that
Propagate2 grows each x <= f(ū) to, and the intersection variable
whose atoms Descend2 would make.  The paper joins those of x's full
read; at a fixpoint the join read to the nearest equations reaches the
same names (the frontier paragraph below).  So the product takes
Propagate2's intersection and Descend2's atoms once, at the fixpoint,
and the soundness and completeness below cover both rules.

Sound: reached from a name x along a path π, every member of a node
constrains the same position π of σ(x).  Each determination f(v̄) of a
member says that the tree there is rooted f and that its k-th child
lies below every component of v_k, which is what puts those components
into the k-th child node.  Two symbols at one position admit no tree.

Read to the nearest equations, the product loses nothing at a fixpoint
of the rules.  There a name that occurs in an atom other than an x = y
is its own representative (Elim has used every equation with a side
that occurs elsewhere), so a node of names is a node of the classes
the equations imply.  Let cl(S) be the names of S and those they
reach.  Take a name n and an atom d of its full read, on a name z.
Either n's read holds d, or the walk from n stopped, on the shortest
path to z, at a name y whose equation y = f(v̄) n's read holds, and y
is z or reaches it.  Then y's full read holds d and f, so by the Clash
lemma d carries f, and Descend1, complete for the paper's rule
(above), has made every component of d's k-th argument v_k or a name
v_k reaches.  So a node N, read either
way, carries the symbols of the full read of cl(N): a singleton with
an equation carries that equation's symbol, which by Clash is then the
only one.  And its k-th child has the cl of the k-th arguments of
every atom of that read: Descend1 covers them by the v_k of the
equations read, or of N's own equation.  Both depend on cl(N) alone.
The two walks start at the same singletons, so along each path they
meet nodes with the same cl, and a node with two symbols at the end of
a path in one walk is there in the other: both walks find the same
clashes, and only the on atoms of a clash, read to the nearest
equations, differ.

Complete: with no clash every node carries one symbol or is a hole, so
the nodes form a term graph; witness() maps each name to the node of
its representative, which is the name itself unless the name occurs
in x = y atoms only.  An x = y holds since both sides have one
representative, and an x = f(ū) since {x} is labelled from it.  For
nodes S and T with S ⊆ cl(T), the graph at S weakly subsumes the
graph at T.  Read to the nearest equations, T's determinations need
not include S's, so the argument goes through the full reads.  If S
is no hole, the full read of cl(T) holds that of cl(S), so T is no
hole, and since T carries the symbols of that read and is no clash,
it carries S's one symbol.  And S's k-th child is within cl of T's:
an atom of S's read is in the full read of cl(T), so, by the
paragraph above, the components of its k-th argument are in T's k-th
child or are reached from the v_k there of an equation y = f(v̄) that
T reads, or of T's own.  So the pairs with S ⊆ cl(T)
form a simulation.  An x <= r holds, since {y} ⊆ cl({x}) for each
component y of r, and oracles.check_witness reads r as the merge of
its components.  An x <= f(ū) holds, since {x} carries f and each u_k
is in x's k-th child or, under an x = f(v̄) of x's own, is v_k or
reached from it (Descend1): {u_k} ⊆ cl of x's k-th child.
oracles.check_witness, which shares no code with the product, judges
the witness on every sat verdict of the tests.

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
from heapq import heappop
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
    the first after it with another symbol, if dets carry two symbols.
    It leaves the store as it is: the caller that fires it marks the
    store contradicted."""
    d1 = dets[0]
    d2 = next((d for d in dets if d.sym != d1.sym), None)
    if d2 is None:
        return None
    return tuple(dict.fromkeys(_sources(store, d1) + _sources(store, d2))), (), ()


def _clash_at(store: Store, w: str) -> Firing | None:
    """A Clash firing on name w if w's determinations, read as far as
    its nearest equations, carry two symbols.  They are built only where
    the store's set of w's symbols, that of its full read, holds two,
    and may still show one, with the second behind an equation.  They
    also confirm the set, which a caller's own Store.remove can leave
    too large."""
    if len(store.syms.get(w, ())) < 2:
        return None
    dets = determinations(store, w)
    return _clash(store, dets) if dets else None


def rule_clash(store: Store) -> Firing | None:
    """Fire when some variable's determinations, read as far as its
    nearest equations, carry two different constructors.  The smallest
    such variable fires: the candidates are store.clash_candidates,
    smallest name first.  By the Clash lemma (module docstring) one
    fires whenever some variable's full read carries two."""
    if store.contradiction:
        return None
    for n in sorted(store.clash_candidates):
        fired = _clash_at(store, n)
        if fired is not None:
            store.contradiction = True
            return fired
    return None


def rule_elim(store: Store) -> Firing | None:
    """Use an equation to substitute one side away from the rest of the
    store.  The equation is kept, and store.elim records its id with
    the name it eliminated; a recorded equation is not used again.
    Preference: of the sides that occur in another atom, eliminate the
    one that occurs in fewer atoms, and of two that occur in as many,
    the smaller name.  The candidates are store.unused_eqs, smallest id
    first, popped off store.unused_heap; an id there that is no longer
    unused is dropped, and one whose sides occur nowhere else is parked
    in store.idle_eqs under both sides, until an atom gives one of them
    an occurrence."""
    if store.contradiction:
        return None
    heap, unused, occ = store.unused_heap, store.unused_eqs, store._occ
    while heap:
        aid = heappop(heap)
        if aid not in unused:
            continue
        a = store.atom(aid)
        xn, yn = a.lhs.parts[0], a.rhs.parts[0]
        nx, ny = len(occ[xn]), len(occ[yn])
        if nx == ny == 1:
            store.idle_eqs[xn] = store.idle_eqs[yn] = aid
            continue
        # A side in no other atom is never the one eliminated.
        gone, kept = (xn, yn) if ny == 1 or 1 < nx <= ny else (yn, xn)
        unused.discard(aid)
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
    for i, via in determining_atoms(store, a.lhs.parts[0]):
        b = store.atom(i)
        if i != aid and b.sym == a.sym:
            same.append(Determination(b.sym, b.args, i, via))
    if not same:
        return None
    same.sort(key=lambda d: (d.args, d.at, -1 if d.via is None else d.via))
    # u_k covers v_k when every component of v_k is u_k or reachable
    # from it: weak subsumption is reflexive.  Each u walks once, only
    # if it is asked for a name other than itself, and only until it has
    # reached every name it is asked for.
    asked: dict[str, set[str]] = {}
    for d in same:
        for u, v in zip(a.args, d.args):
            if v != u:
                asked.setdefault(u.parts[0], set()).update(v.parts)
    reach = {u: store.reachable(u, until=names - {u}) for u, names in asked.items()}
    for d in same:
        missing = [(u, v) for u, v in zip(a.args, d.args)
                   if not all(p in u.parts or p in reach[u.parts[0]] for p in v.parts)]
        if not missing:
            continue
        # Each u <= v joins the u <= r on u, if there is one.
        us = dict.fromkeys(u.parts[0] for u, _ in missing)
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

# A node of the product: a set of names (see the module docstring).
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


def _walk(store: Store, roots: Sequence[str]
          ) -> tuple[dict[Node, tuple[Symbol | None, tuple[Node, ...]]], Firing | None]:
    """The nodes reached from the singletons of roots, depth first in
    the order of roots and of child positions, without recursion: each
    node's symbol and children (None and () for a hole), in the order
    first reached.  Children are built from the names in the atoms as
    they stand, each its own representative at a fixpoint.  Each member
    of a node other than a singleton with an equation is read through
    determinations(), as far as its nearest equations, and a member
    with no Store.syms entry is skipped: it has no determinations, since
    the sets are never too small.  The walk
    stops at the first node whose members' determinations carry two
    symbols and returns its Clash firing."""
    eqapps, syms = store._lhs[EqApp], store.syms
    nodes: dict[Node, tuple[Symbol | None, tuple[Node, ...]]] = {}
    stack = [Node((r,)) for r in reversed(roots)]
    while stack:
        node = stack.pop()
        if node in nodes:
            continue
        own = eqapps.get(next(iter(node))) if len(node) == 1 else None
        if own:
            a = store.atom(min(own))
            sym, kids = a.sym, tuple(Node(u.parts) for u in a.args)
        else:
            dets = [d for n in sorted(node) if n in syms for d in determinations(store, n)]
            if not dets:
                nodes[node] = (None, ())
                continue
            fired = _clash(store, dets)
            if fired is not None:
                return nodes, fired
            sym = dets[0].sym
            kids = tuple(Node(c for d in dets for c in d.args[k].parts)
                         for k in range(sym.arity))
        nodes[node] = (sym, kids)
        stack.extend(reversed(kids))
    return nodes, None


def _product_clash(store: Store) -> Firing | None:
    """A clash in the product of a store at a fixpoint of the rules,
    walked from the left sides of subsumptions with no x = f(ū).  A
    start with no determinations is a hole and ends its walk at once."""
    lhs = store._lhs
    starts = sorted((lhs[Sub].keys() | lhs[SubApp].keys()) - lhs[EqApp].keys())
    return _walk(store, starts)[1] if starts else None


def witness(store: Store) -> dict[str, TermGraph] | None:
    """A model of a solved store read off its product: each base name of
    the store maps to the term graph at the node of its representative.
    A singleton hole is named after its member, unless that is `rec`,
    the term syntax's binder keyword, and any other hole gets a fresh
    name, so that format_term's text reads back.  None when the store
    or its product holds a contradiction; the store is left as it is.
    On a store that is not at a fixpoint of the rules, the product need
    not be a model."""
    if store.contradiction:
        return None
    names = sorted(store.base_vars())
    find = representatives(store)
    nodes, clash = _walk(store, [find(n) for n in names])
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
        """a with each base variable mapped to the name that stands for
        it now (Store.current), and an intersection variable kept, for
        Store.add to reject.  While no name is eliminated that is a
        itself, and a is returned unbuilt: current() is the identity
        then."""
        store = self.store
        if not store.elim:
            return a
        return map_vars(a, lambda v: Var((store.current(v.parts[0]),)) if v.is_base else v)

    def insert(self, a: Atom) -> None:
        """Add one atom without running rules.  Input atoms use base
        variables only: Store.add rejects an intersection anywhere but
        on the right side of an x <= r, and insert that one."""
        if isinstance(a, Sub) and not a.rhs.is_base:
            raise ValueError(f"input atoms must use base variables only: {format_atom(a)}")
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
            self.store.contradiction = True
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
