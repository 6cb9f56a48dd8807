"""Independent reference procedures used to cross-check the engine.

Four oracles, each deliberately built on different machinery than the
rule engine:

  naive_solve     a budgeted run of the simple-minded rewriting scheme
                  that replaces x <= y by a fresh copy of y's equation;
                  sound for unsatisfiability but prone to running
                  forever, hence the budget.
  rational_unify  classic union-find unification over rational trees
                  for the equation-only fragment (no occurs check; only
                  constructor clashes fail).
  check_witness   evaluates a candidate solution atom by atom against
                  the term-graph semantics.
  witness_search  brute-force enumeration of small term graphs, looking
                  for an assignment that check_witness accepts.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

from .constraints import (
    Atom,
    Eq,
    EqApp,
    Sub,
    SubApp,
    atom_base_vars,
    atom_vars,
    format_atom,
    is_base_only,
)
from .engine import Verdict
from .terms import (
    Symbol,
    TermGraph,
    app,
    bisimilar,
    format_term,
    graph_equal,
    hole,
    simulates,
    weak_subsumes,
)
# Unused here, but bench/tracing.py patches both names in this module.
from .terms import bisimulation_relation, simulation_relation  # noqa: F401


# --- the budgeted naive procedure ----------------------------------------------


class NaiveResult(enum.Enum):
    UNSAT = "unsat"
    EXHAUSTED = "exhausted"


def naive_solve(atoms: Iterable[Atom], budget: int = 200) -> NaiveResult:
    """Run the naive rewriting scheme for at most `budget` rule firings.

    State is a list of oriented facts; the rules, in priority order:

      clash    two equations x = f(...), x = g(...), f != g: contradiction
      decom    x = f(u1..un), x = f(v1..vn): replace the first equation
               by the argument equations ui = vi
      elim     x = y with x occurring elsewhere: substitute [y/x] in the
               rest (the equation is kept, and x never returns)
      descend  x <= y with y's first equation y = f(z1..zn): replace
               it by x = f(u1..un) for fresh u's, plus ui <= zi

    descend is what makes the scheme loop on cyclic constraints — the
    fresh variables (drawn from a reserved ~d* range) can multiply
    forever — so UNSAT is trustworthy and EXHAUSTED means nothing,
    covering both a spent budget and a fixpoint without contradiction.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    fresh = itertools.count(1)
    state: list[tuple] = []
    # How many facts mention each name, kept up to date by every change
    # to `state`: x occurs outside its x = y iff two facts mention it.
    facts_with: dict[str, int] = {}

    def names(t: tuple) -> set[str]:
        return {t[1], *t[3]} if t[0] == "eqapp" else {t[1], t[2]}

    def count(t: tuple, by: int) -> None:
        for n in names(t):
            facts_with[n] = facts_with.get(n, 0) + by

    def add(t: tuple) -> None:
        state.append(t)
        count(t, 1)

    def drop(k: int) -> None:
        count(state.pop(k), -1)

    def rename(name: str, old: str, new: str) -> str:
        return new if name == old else name

    for a in atoms:
        if not is_base_only(a):
            raise ValueError(f"input atoms must use base variables only: {format_atom(a)}")
        if isinstance(a, Eq):
            add(("eq", a.lhs.parts[0], a.rhs.parts[0]))
        elif isinstance(a, EqApp):
            add(("eqapp", a.lhs.parts[0], a.sym, tuple(v.parts[0] for v in a.args)))
        elif isinstance(a, Sub):
            add(("sub", a.lhs.parts[0], a.rhs.parts[0]))
        else:  # x <= f(ys): introduce the middle-man equation up front
            mid = f"~d{next(fresh)}"
            add(("sub", a.lhs.parts[0], mid))
            add(("eqapp", mid, a.sym, tuple(v.parts[0] for v in a.args)))

    spent = 0
    while spent < budget:
        # clash / decom: first equation pair on the same variable
        action = None
        first_app: dict[str, int] = {}
        for i, t in enumerate(state):
            if t[0] != "eqapp":
                continue
            j = first_app.setdefault(t[1], i)
            if j != i:
                other = state[j]
                action = ("clash",) if other[2] != t[2] else ("decom", j, i)
                break
        if action is None:
            for i, t in enumerate(state):
                if t[0] == "eq" and t[1] != t[2] and facts_with[t[1]] > 1:
                    action = ("elim", i)
                    break
        if action is None:
            # No clash or decom, so the pass above saw every equation:
            # first_app maps each name to its first x = f(ū).
            for i, t in enumerate(state):
                partner = first_app.get(t[2]) if t[0] == "sub" else None
                if partner is not None:
                    action = ("descend", i, partner)
                    break
        if action is None:
            return NaiveResult.EXHAUSTED  # fixpoint without contradiction
        spent += 1
        if action[0] == "clash":
            return NaiveResult.UNSAT
        if action[0] == "decom":
            j, i = action[1], action[2]
            _, _, _, us = state[j]
            _, _, _, vs = state[i]
            drop(j)
            for a, b in zip(us, vs):
                add(("eq", a, b))
        elif action[0] == "elim":
            i = action[1]
            _, old, new = state[i]
            for k, t in enumerate(state):
                if k == i or old not in names(t):
                    continue
                count(t, -1)
                if t[0] == "eqapp":
                    us = tuple(rename(n, old, new) for n in t[3])
                    state[k] = ("eqapp", rename(t[1], old, new), t[2], us)
                else:
                    state[k] = (t[0], rename(t[1], old, new), rename(t[2], old, new))
                count(state[k], 1)
        else:  # descend
            i, partner = action[1], action[2]
            _, x, _ = state[i]
            _, _, sym, zs = state[partner]
            us = tuple(f"~d{next(fresh)}" for _ in zs)
            drop(i)
            add(("eqapp", x, sym, us))
            for un, zn in zip(us, zs):
                add(("sub", un, zn))
    return NaiveResult.EXHAUSTED


# --- rational-tree unification ----------------------------------------------------


def rational_unify(atoms: Iterable[Atom]) -> Verdict:
    """Union-find unification over rational trees for equations only.

    There is no occurs check — x = f(x) simply binds the class of x to
    a cyclic shape — so the only failure is a constructor clash.
    """
    work: list[tuple[str, str]] = []
    parent: dict[str, str] = {}
    binding: dict[str, tuple[Symbol, tuple[str, ...]]] = {}

    def find(a: str) -> str:
        parent.setdefault(a, a)
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for a in atoms:
        if isinstance(a, (Sub, SubApp)):
            raise ValueError("rational_unify handles equations only")
        if not is_base_only(a):
            raise ValueError(f"input atoms must use base variables only: {format_atom(a)}")
        if isinstance(a, Eq):
            work.append((a.lhs.parts[0], a.rhs.parts[0]))
        else:
            r = find(a.lhs.parts[0])
            entry = (a.sym, tuple(v.parts[0] for v in a.args))
            if r in binding:
                old = binding[r]
                if old[0] != entry[0]:
                    return Verdict.UNSAT
                work.extend(zip(old[1], entry[1]))
            else:
                binding[r] = entry

    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[ra] = rb
        if ra in binding:
            ba = binding.pop(ra)
            if rb in binding:
                bb = binding[rb]
                if ba[0] != bb[0]:
                    return Verdict.UNSAT
                work.extend(zip(ba[1], bb[1]))
            else:
                binding[rb] = ba
    return Verdict.SAT


# --- witness checking ---------------------------------------------------------------


class _MergeClash(Exception):
    pass


def merge_graphs(s: TermGraph, t: TermGraph) -> TermGraph | None:
    """A graph whose instances are exactly the common instances of s
    and t, or None when the two admit no tree in common.

    Product construction: paired nodes must agree wherever both are
    labeled; a hole on one side surrenders to the other side's subgraph.
    Nodes are numbered depth first, parent before children; the walk
    keeps its own stack, so depth is not bounded by recursion.
    """
    labels: dict[int, Symbol] = {}
    children: dict[int, tuple[int, ...]] = {}
    holes: dict[int, str] = {}
    # ("p", ps, pt) pairs a node of s with one of t; ("s", n) and
    # ("t", n) copy a node of one side.
    memo: dict[tuple, int] = {}
    counter = itertools.count()
    # Labeled nodes whose children are being built: the node, the keys
    # of its children, and the child nodes so far.
    open_nodes: list[tuple[int, list[tuple], list[int]]] = []

    def enter(key: tuple) -> int:
        """The node for key; a new labeled one is opened."""
        if key in memo:
            return memo[key]
        nid = next(counter)
        memo[key] = nid
        kids: list[tuple] = []
        if key[0] == "p":
            _, ps, pt = key
            ls, lt = s.labels.get(ps), t.labels.get(pt)
            if ls is None and lt is None:
                lab = None
            elif ls is None:
                lab, kids = lt, [("t", k) for k in t.children[pt]]
            elif lt is None:
                lab, kids = ls, [("s", k) for k in s.children[ps]]
            elif ls == lt:
                lab, kids = ls, [("p", a, b) for a, b in zip(s.children[ps], t.children[pt])]
            else:
                raise _MergeClash
        else:
            side, gn = key
            g = s if side == "s" else t
            lab = g.labels.get(gn)
            kids = [(side, k) for k in g.children.get(gn, ())]
        if lab is None:
            holes[nid] = f"h{nid}"
        else:
            labels[nid] = lab
            open_nodes.append((nid, kids, []))
        return nid

    try:
        root = enter(("p", s.root, t.root))
        while open_nodes:
            nid, kids, done = open_nodes[-1]
            if len(done) < len(kids):
                done.append(enter(kids[len(done)]))
                continue
            open_nodes.pop()
            children[nid] = tuple(done)
    except _MergeClash:
        return None
    return TermGraph(root, labels, children, holes)


def check_witness(sigma: Mapping[str, TermGraph], atoms: Iterable[Atom]) -> bool:
    """Does the assignment satisfy every atom?

    Equations ask for tree equality; x <= y asks that y's skeleton
    covers x's instances; the applied form x <= f(ȳ) is checked against
    the least tree rooted f with the given children.  An intersection
    variable evaluates to the merge of its components' graphs; when the
    components admit no common tree, no atom mentioning it can hold.
    """

    def eval_var(v) -> TermGraph | None:
        g: TermGraph | None = None
        for name in v.parts:
            if name not in sigma:
                raise ValueError(f"witness assigns nothing to {name}")
            g = sigma[name] if g is None else merge_graphs(g, sigma[name])
            if g is None:
                return None
        return g

    for a in atoms:
        vals = [eval_var(v) for v in atom_vars(a)]
        if any(v is None for v in vals):
            return False
        if isinstance(a, Eq):
            ok = graph_equal(vals[0], vals[1])
        elif isinstance(a, Sub):
            ok = weak_subsumes(vals[1], vals[0])
        elif isinstance(a, EqApp):
            ok = graph_equal(vals[0], app(a.sym, *vals[1:]))
        else:
            ok = weak_subsumes(app(a.sym, *vals[1:]), vals[0])
        if not ok:
            return False
    return True


# --- witness search -----------------------------------------------------------------


def enumerate_graphs(
    symbols: Iterable[Symbol], max_depth: int, max_holes: int
) -> list[TermGraph]:
    """All trees over the symbols up to the depth, with up to max_holes
    distinct holes — plus every single-back-edge variant of those trees
    (each hole occurrence redirected to each of its ancestors).  That is
    the precise space searched: richer cyclic shapes are out of it.
    The list is in search order: fewest nodes first, then by the
    format_term text."""
    syms = sorted(set(symbols))
    base: dict[str, TermGraph] = {}
    for i in range(max_holes):
        g = hole(f"h{i + 1}")
        base[format_term(g)] = g
    for s in syms:
        if s.arity == 0:
            g = app(s)
            base[format_term(g)] = g
    seen = dict(base)
    for _ in range(max_depth):
        prev = list(seen.values())
        for s in syms:
            if s.arity == 0:
                continue
            for combo in itertools.product(prev, repeat=s.arity):
                g = app(s, *combo)
                key = format_term(g)
                if key not in seen:
                    seen[key] = g
    for g in list(seen.values()):
        for variant in _loop_variants(g):
            seen.setdefault(format_term(variant), variant)
    return [seen[key] for key in sorted(seen, key=lambda k: (len(seen[k].nodes()), k))]


@functools.lru_cache(maxsize=16)
def _graph_pool(
    symbols: tuple[Symbol, ...], max_depth: int, max_holes: int
) -> tuple[TermGraph, ...]:
    """enumerate_graphs(), kept per arguments, as a tuple: the searches
    that share a pool cannot change it."""
    return tuple(enumerate_graphs(symbols, max_depth, max_holes))


def _loop_variants(g: TermGraph) -> list[TermGraph]:
    """Each hole occurrence of a tree redirected to each strict ancestor."""
    parent: dict[int, int] = {}
    for n, ks in g.children.items():
        for k in ks:
            parent[k] = n
    out = []
    for h in sorted(g.holes):
        chain = []
        cur = h
        while cur != g.root:
            cur = parent[cur]
            chain.append(cur)
        for anc in chain:
            labels = dict(g.labels)
            children = {
                n: tuple(anc if k == h else k for k in ks)
                for n, ks in g.children.items()
            }
            holes = {n: nm for n, nm in g.holes.items() if n != h}
            out.append(TermGraph(g.root, labels, children, holes))
    return out


@dataclass
class SearchResult:
    """Outcome of a bounded witness search.

    witness    a satisfying assignment, or None
    exhausted  True when the candidate budget ran out — inconclusive;
               False with no witness means the whole space was searched
    checked    number of candidate placements examined
    """

    witness: dict[str, TermGraph] | None
    exhausted: bool
    checked: int


def witness_search(
    atoms: Iterable[Atom],
    max_depth: int = 2,
    max_holes: int = 1,
    budget: int = 100_000,
) -> SearchResult:
    """Brute-force search for a witness among small term graphs.

    Candidates per variable are the enumerate_graphs() pool over the
    constraint's own symbols (built once per symbol set and bounds, and
    shared by later searches), filtered by the root constructors the
    variable's applied atoms force on it.  Assignment proceeds variable
    by variable in sorted order, testing each atom once all its
    variables are placed, and takes each variable's candidates in pool
    order, so the first witness in that order is the one returned.

    A level works on the set of its candidates that pass, an int with
    one bit per pool position.  Each atom splits into conjuncts: x = y
    and x <= y are one walk between the roots; x = f(ȳ) and x <= f(ȳ)
    give a root-label test on x and, per argument, the walk from y_k to
    the k-th child of x's root.  Every conjunct is tested at its atom's
    level.  The level's set is the AND of its conjuncts' sets, each kept
    for the search under the pool positions of the conjunct's other
    variables and filled only on candidates the AND still holds.  Walk
    answers are cached per graph pair and start pair for the search.

    `checked` counts candidate placements, passing or not, exactly as a
    loop testing every candidate in turn would: the scan jumps to the
    next passing candidate and counts the ones it skips.  Past `budget`
    the search stops with `checked == budget + 1`.

    The search backjumps over repeated dead subtrees (Gaschnig 1979).
    reader[j] is the first level after j that tests an atom on
    names[j].  A subtree under level j that ends with no witness,
    having counted C placements and entered no level from reader[j]
    on, read nothing of names[j]'s candidate: each level's passing set
    depends only on the positions its conjuncts read.  So every
    candidate left at level j would walk that subtree again, count C
    again and find nothing; the search adds C per candidate left and
    closes the level, and the jump may cascade upward.  `checked`
    grows monotonically either way, so the witness, `exhausted` and
    `checked` are those of the plain loop, budget cut included.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    atom_list = list(atoms)
    names = sorted({n for a in atom_list for n in atom_base_vars(a)})
    symbols = tuple(sorted({a.sym for a in atom_list if isinstance(a, (EqApp, SubApp))}))
    pool = _graph_pool(symbols, max_depth, max_holes)

    forced: dict[str, set[Symbol]] = {}
    for a in atom_list:
        if isinstance(a, (EqApp, SubApp)) and a.lhs.is_base:
            forced.setdefault(a.lhs.parts[0], set()).add(a.sym)
    pools = [
        [g for g in pool if g.labels.get(g.root) in forced[nm]] if nm in forced else pool
        for nm in names
    ]

    # A conjunct is ("walk", walk, y, x, k): whether y's graph walks to
    # x's root, or to its root's k-th child; ("label", x, sym); or
    # ("atom", a) for an atom on an intersection variable.  The walks'
    # yes/no answers are kept by walk, graph pair and start node in x's
    # graph; every graph in the pool lives as long as the search.
    env: dict[str, TermGraph] = {}
    answers: dict[tuple, bool] = {}

    def holds(c: tuple, v: str, g: TermGraph | None) -> bool:
        """Whether c holds with g placed for v, the level's own variable,
        and env for the variables placed before it."""
        if c[0] == "walk":
            _, walk, y, x, k = c
            gy = g if y == v else env[y]
            gx = g if x == v else env[x]
            q = gx.root if k is None else gx.children[gx.root][k]
            key = (walk, id(gy), id(gx), q)
            ok = answers.get(key)
            if ok is None:
                ok = answers[key] = walk(gy, gx, gy.root, q)
            return ok
        if c[0] == "label":
            gx = g if c[1] == v else env[c[1]]
            return gx.labels.get(gx.root) == c[2]
        env[v] = g
        return check_witness(env, [c[1]])

    # Every conjunct of an atom goes to the level where the last of the
    # atom's variables is placed.  One that reads only variables placed
    # before it is all or nothing there.  An atom's label comes before
    # its walks below the root, which assume it.
    idx = {nm: i for i, nm in enumerate(names)}
    fixed: list[list[tuple]] = [[] for _ in names]
    varying: list[list[tuple]] = [[] for _ in names]
    # reader[j]: the first level after j that tests an atom on names[j]
    reader = [len(names)] * len(names)
    for a in atom_list:
        i = max(idx[n] for n in atom_base_vars(a))
        for n in atom_base_vars(a):
            if idx[n] < i:
                reader[idx[n]] = min(reader[idx[n]], i)
        if not is_base_only(a):
            conjuncts = [(("atom", a), set(atom_base_vars(a)))]
        else:
            x = a.lhs.parts[0]
            walk = bisimilar if isinstance(a, (Eq, EqApp)) else simulates
            if isinstance(a, (Eq, Sub)):
                y = a.rhs.parts[0]
                conjuncts = [(("walk", walk, y, x, None), {x, y})]
            else:
                conjuncts = [(("label", x, a.sym), {x})] + [
                    (("walk", walk, y.parts[0], x, k), {x, y.parts[0]})
                    for k, y in enumerate(a.args)
                ]
        for c, on in conjuncts:
            if names[i] not in on:
                fixed[i].append(c)
            else:
                others = sorted(idx[n] for n in on - {names[i]})
                key = operator.itemgetter(*others) if others else lambda pos: ()
                varying[i].append((key, {}, c))

    pos = [-1] * len(names)

    def passing(i: int) -> int:
        """The set of names[i]'s candidates that pass, given pos[:i]."""
        v, pool_i = names[i], pools[i]
        if not all(holds(c, v, None) for c in fixed[i]):
            return 0
        running = (1 << len(pool_i)) - 1
        for key, memo, c in varying[i]:
            k = key(pos)
            known, yes = memo.get(k, (0, 0))
            need = running & ~known
            if need:
                known |= need
                while need:
                    low = need & -need
                    if holds(c, v, pool_i[low.bit_length() - 1]):
                        yes |= low
                    need ^= low
                memo[k] = (known, yes)
            running &= yes
            if not running:
                break
        return running

    # Depth first over the variables in sorted order, without recursion:
    # left[i] is the set of names[i]'s passing candidates not tried yet,
    # and pos[i] the last position tried (-1 before the first); checked
    # counts every position up to it, passing or not.  Since pos[i] was
    # placed, mark[i] is what checked was then, and deep[i] the deepest
    # level entered.
    if not names:
        return SearchResult({}, False, 0)
    checked = 0
    left = [passing(0)]
    deep = [0] * len(names)
    mark = [0] * len(names)
    while left:
        i = len(left) - 1
        rest = left[i]
        # the next passing position, or the pool's last when none is left
        p = (rest & -rest).bit_length() - 1 if rest else len(pools[i]) - 1
        checked += p - pos[i]
        if checked > budget:
            return SearchResult(None, True, budget + 1)
        if i:
            deep[i - 1] = max(deep[i - 1], deep[i])
        if not rest:
            left.pop()
            if i and deep[i - 1] < reader[i - 1]:
                # every candidate left one level up repeats the subtree
                # just walked: charge them all, then scan to its end
                checked += left[-1].bit_count() * (checked - mark[i - 1])
                left[-1] = 0
            continue
        left[i], pos[i] = rest & (rest - 1), p
        env[names[i]] = pools[i][p]
        if i + 1 == len(names):
            return SearchResult({nm: env[nm] for nm in names}, False, checked)
        deep[i] = deep[i + 1] = i + 1
        mark[i] = checked
        pos[i + 1] = -1
        left.append(passing(i + 1))
    return SearchResult(None, False, checked)


# --- witness files -------------------------------------------------------------------


def dump_witness(sigma: Mapping[str, TermGraph]) -> str:
    """Render an assignment as `name := term` lines, each ending in a
    newline: the empty assignment is the empty string."""
    return "".join(f"{name} := {format_term(sigma[name])}\n" for name in sorted(sigma))
