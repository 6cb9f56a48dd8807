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
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

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
    parse_term,
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
      descend  x <= y with an equation y = f(z1..zn): replace it by
               x = f(u1..un) for fresh u's, plus ui <= zi

    descend is what makes the scheme loop on cyclic constraints — the
    fresh variables (drawn from a reserved ~d* range) can multiply
    forever — so UNSAT is trustworthy and EXHAUSTED means nothing,
    covering both a spent budget and a fixpoint without contradiction.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    fresh = itertools.count(1)
    state: list[tuple] = []
    for a in atoms:
        if not is_base_only(a):
            raise ValueError(f"input atoms must use base variables only: {format_atom(a)}")
        if isinstance(a, Eq):
            state.append(("eq", a.lhs.parts[0], a.rhs.parts[0]))
        elif isinstance(a, EqApp):
            state.append(("eqapp", a.lhs.parts[0], a.sym, tuple(v.parts[0] for v in a.args)))
        elif isinstance(a, Sub):
            state.append(("sub", a.lhs.parts[0], a.rhs.parts[0]))
        else:  # x <= f(ys): introduce the middle-man equation up front
            mid = f"~d{next(fresh)}"
            state.append(("sub", a.lhs.parts[0], mid))
            state.append(("eqapp", mid, a.sym, tuple(v.parts[0] for v in a.args)))

    def occurs(name: str, skip: int) -> bool:
        for i, t in enumerate(state):
            if i == skip:
                continue
            if t[1] == name:
                return True
            if t[0] in ("eq", "sub") and t[2] == name:
                return True
            if t[0] == "eqapp" and name in t[3]:
                return True
        return False

    def rename(name: str, old: str, new: str) -> str:
        return new if name == old else name

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
                if t[0] == "eq" and t[1] != t[2] and occurs(t[1], i):
                    action = ("elim", i)
                    break
        if action is None:
            for i, t in enumerate(state):
                if t[0] != "sub":
                    continue
                partner = next(
                    (j for j, o in enumerate(state) if o[0] == "eqapp" and o[1] == t[2]),
                    None,
                )
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
            del state[j]
            state.extend(("eq", a, b) for a, b in zip(us, vs))
        elif action[0] == "elim":
            i = action[1]
            _, old, new = state[i]
            for k, t in enumerate(state):
                if k == i:
                    continue
                if t[0] == "eq":
                    state[k] = ("eq", rename(t[1], old, new), rename(t[2], old, new))
                elif t[0] == "sub":
                    state[k] = ("sub", rename(t[1], old, new), rename(t[2], old, new))
                else:
                    state[k] = (
                        "eqapp",
                        rename(t[1], old, new),
                        t[2],
                        tuple(rename(n, old, new) for n in t[3]),
                    )
        else:  # descend
            i, partner = action[1], action[2]
            _, x, _ = state[i]
            _, _, sym, zs = state[partner]
            us = tuple(f"~d{next(fresh)}" for _ in zs)
            del state[i]
            state.append(("eqapp", x, sym, us))
            state.extend(("sub", un, zn) for un, zn in zip(us, zs))
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
    the precise space searched: richer cyclic shapes are out of it."""
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
    out = list(seen.values())
    for g in list(seen.values()):
        for variant in _loop_variants(g):
            key = format_term(variant)
            if key not in seen:
                seen[key] = variant
                out.append(variant)
    return out


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
    constraint's own symbols, filtered by the root constructors the
    variable's applied atoms force on it.  Assignment proceeds variable
    by variable in sorted order, checking each atom as soon as all its
    variables are placed, with simulation/bisimulation yes/no answers
    cached per graph pair and start pair across the whole search.
    """
    atom_list = list(atoms)
    names = sorted({n for a in atom_list for n in atom_base_vars(a)})
    symbols = sorted({a.sym for a in atom_list if isinstance(a, (EqApp, SubApp))})
    pool = enumerate_graphs(symbols, max_depth, max_holes)
    pool.sort(key=lambda g: (len(g.nodes()), format_term(g)))

    forced: dict[str, set[Symbol]] = {}
    for a in atom_list:
        if isinstance(a, (EqApp, SubApp)) and a.lhs.is_base:
            forced.setdefault(a.lhs.parts[0], set()).add(a.sym)
    pools = [
        [g for g in pool if g.labels.get(g.root) in forced[nm]] if nm in forced else pool
        for nm in names
    ]

    # The walks' yes/no answers, keyed by walk, graph pair and start
    # pair; every graph in the pool lives as long as the search.
    answers: dict[tuple, bool] = {}

    def ask(walk: Callable[..., bool], a: TermGraph, b: TermGraph, p: int, q: int) -> bool:
        key = (walk, id(a), id(b), p, q)
        ok = answers.get(key)
        if ok is None:
            ok = answers[key] = walk(a, b, p, q)
        return ok

    def test(a: Atom) -> Callable[[dict[str, TermGraph]], bool]:
        """Whether a holds once its variables are placed in env.

        x <= y asks whether y's graph simulates x's from the roots;
        x <= f(ys) asks it of each y against the matching child of x's
        root.  Equations ask bisimilar the same way round.
        """
        if not is_base_only(a):
            return lambda env: check_witness(env, [a])
        x = a.lhs.parts[0]
        walk = bisimilar if isinstance(a, (Eq, EqApp)) else simulates
        if isinstance(a, (Eq, Sub)):
            y = a.rhs.parts[0]
            return lambda env: ask(walk, env[y], env[x], env[y].root, env[x].root)
        sym, ys = a.sym, [v.parts[0] for v in a.args]

        def holds(env: dict[str, TermGraph]) -> bool:
            gx = env[x]
            return gx.labels.get(gx.root) == sym and all(
                ask(walk, env[y], gx, env[y].root, kid) for kid, y in zip(gx.children[gx.root], ys)
            )

        return holds

    # Each atom is tested when the last of its variables is placed.
    idx = {nm: i for i, nm in enumerate(names)}
    tests: list[list[Callable[[dict[str, TermGraph]], bool]]] = [[] for _ in names]
    for a in atom_list:
        tests[max(idx[n] for n in atom_base_vars(a))].append(test(a))

    # Depth first over the variables in sorted order, without recursion:
    # its[i] yields the candidates for names[i] not tried yet.
    checked = 0
    env: dict[str, TermGraph] = {}
    if not names:
        return SearchResult({}, False, 0)
    its = [iter(pools[0])]
    while its:
        i = len(its) - 1
        name, tests_i = names[i], tests[i]
        for g in its[i]:
            checked += 1
            if checked > budget:
                return SearchResult(None, True, checked)
            env[name] = g
            if all(t(env) for t in tests_i):
                break
        else:
            env.pop(name, None)
            its.pop()
            continue
        if i + 1 == len(names):
            return SearchResult(dict(env), False, checked)
        its.append(iter(pools[i + 1]))
    return SearchResult(None, False, checked)


# --- witness files -------------------------------------------------------------------


def dump_witness(sigma: Mapping[str, TermGraph]) -> str:
    """Render an assignment as `name := term` lines."""
    return "\n".join(f"{name} := {format_term(sigma[name])}" for name in sorted(sigma)) + "\n"


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
