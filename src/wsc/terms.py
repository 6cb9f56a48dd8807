"""Rational term graphs and the weak subsumption preorder.

A term graph is a rooted, finite, possibly cyclic graph whose nodes are
either labeled with a constructor symbol (and carry arity-many ordered
children) or are unlabeled holes.  A graph denotes a finite or infinite
tree by unrolling; cycles give the rational (infinitely deep, finitely
varied) trees.

The instance set of a graph is what its labeled skeleton permits: a hole
permits every tree, and a labeled node permits exactly trees with the
same constructor on top and permitted children below.  Note this is the
*weak* reading: two occurrences of the same hole are independent, so
f(a, b) is an instance of f(x, x).

``weak_subsumes(s, t)`` decides "every instance of t is an instance of
s": the roots must be related by the greatest simulation between the
two graphs, under which, wherever s is labeled, t carries the same
symbol and the child pairs simulate in turn.  ``graph_equal`` is the
analogous bisimulation (equality of denoted trees, hole names
respected).  ``simulates`` and ``bisimilar`` answer the same questions
for any start pair of nodes; all four walk only the node pairs
reachable from the start pair.  ``simulation_relation`` and
``bisimulation_relation`` build the whole greatest relations over
nodes(s) x nodes(t): they are reference definitions that library code
no longer calls.

All values here are immutable after construction and all operations are
pure, so everything is safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True, order=True)
class Symbol:
    """A constructor, identified by name *and* arity.

    The same name at two arities is two unrelated symbols; both clash
    detection and arity checks fall out of plain inequality of pairs.
    """

    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, eq=False)
class TermGraph:
    """A rooted term graph.  Nodes are ints; each node is labeled or a hole.

    labels:   node -> Symbol for labeled nodes
    children: node -> tuple of child nodes, len == label arity
    holes:    node -> hole identifier for unlabeled nodes

    ``eq=False``: graphs compare by identity; use graph_equal for
    semantic equality.
    """

    root: int
    labels: Mapping[int, Symbol]
    children: Mapping[int, tuple[int, ...]]
    holes: Mapping[int, str]

    def __post_init__(self) -> None:
        nodes = self.nodes()
        if set(self.labels) & set(self.holes):
            raise ValueError("a node cannot be both labeled and a hole")
        if self.root not in nodes:
            raise ValueError("root is not a node of the graph")
        if set(self.children) != set(self.labels):
            raise ValueError("children must be defined exactly on labeled nodes")
        for n, sym in self.labels.items():
            kids = self.children[n]
            if len(kids) != sym.arity:
                raise ValueError(f"node {n}: {sym} expects {sym.arity} children, got {len(kids)}")
            for k in kids:
                if k not in nodes:
                    raise ValueError(f"node {n} has dangling child {k}")
        # every node reachable from the root
        seen = {self.root}
        stack = [self.root]
        while stack:
            n = stack.pop()
            for k in self.children.get(n, ()):
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        if seen != nodes:
            raise ValueError("unreachable nodes present")

    def nodes(self) -> set[int]:
        return set(self.labels) | set(self.holes)

    def __str__(self) -> str:
        return format_term(self)

    def __repr__(self) -> str:
        return f"TermGraph({format_term(self)!r})"


def hole(name: str) -> TermGraph:
    """A single unlabeled node."""
    return TermGraph(0, {}, {}, {0: name})


def app(sym: Symbol | str, *args: TermGraph) -> TermGraph:
    """Apply a constructor to argument graphs (taking disjoint copies).

    A bare string is promoted to Symbol(name, len(args)).
    """
    if isinstance(sym, str):
        sym = Symbol(sym, len(args))
    if sym.arity != len(args):
        raise ValueError(f"{sym} applied to {len(args)} arguments")
    labels: dict[int, Symbol] = {0: sym}
    children: dict[int, tuple[int, ...]] = {}
    holes: dict[int, str] = {}
    kids = []
    off = 1
    for a in args:
        remap = {n: off + i for i, n in enumerate(sorted(a.nodes()))}
        labels.update({remap[n]: s for n, s in a.labels.items()})
        children.update({remap[n]: tuple(remap[k] for k in ks) for n, ks in a.children.items()})
        holes.update({remap[n]: h for n, h in a.holes.items()})
        kids.append(remap[a.root])
        off += len(remap)
    children[0] = tuple(kids)
    return TermGraph(0, labels, children, holes)


def simulation_relation(s: TermGraph, t: TermGraph) -> set[tuple[int, int]]:
    """Greatest relation R over nodes(s) x nodes(t) such that for (p, q) in R:
    if p is labeled then q carries the same symbol and all child pairs are in R.

    (s.root, t.root) in R  iff  every instance of t is an instance of s.
    """
    rel = {(p, q) for p in s.nodes() for q in t.nodes()}
    changed = True
    while changed:
        changed = False
        for p, q in list(rel):
            lab = s.labels.get(p)
            if lab is None:
                continue
            if t.labels.get(q) != lab or any(
                (pi, qi) not in rel for pi, qi in zip(s.children[p], t.children[q])
            ):
                rel.discard((p, q))
                changed = True
    return rel


def bisimulation_relation(s: TermGraph, t: TermGraph) -> set[tuple[int, int]]:
    """Greatest relation matching labels in both directions and hole names."""
    rel = {(p, q) for p in s.nodes() for q in t.nodes()}
    changed = True
    while changed:
        changed = False
        for p, q in list(rel):
            lp, lq = s.labels.get(p), t.labels.get(q)
            if lp is None and lq is None:
                ok = s.holes[p] == t.holes[q]
            elif lp is not None and lp == lq:
                ok = all((pi, qi) in rel for pi, qi in zip(s.children[p], t.children[q]))
            else:
                ok = False
            if not ok:
                rel.discard((p, q))
                changed = True
    return rel


def simulates(s: TermGraph, t: TermGraph, p: int, q: int) -> bool:
    """True iff (p, q) is in simulation_relation(s, t): every instance
    of t's subgraph at q is an instance of s's subgraph at p.

    The pair is in the relation iff every pair of nodes reached from it
    along the same child positions, below labeled nodes of s only,
    matches: only those pairs are visited.
    """
    seen = {(p, q)}
    stack = [(p, q)]
    while stack:
        m, n = stack.pop()
        lab = s.labels.get(m)
        if lab is None:
            continue
        if t.labels.get(n) != lab:
            return False
        for pair in zip(s.children[m], t.children[n]):
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def bisimilar(s: TermGraph, t: TermGraph, p: int, q: int) -> bool:
    """True iff (p, q) is in bisimulation_relation(s, t): the subgraphs
    at p and q denote the same tree, hole names included.

    A node's children are fixed by its label, so the pair is bisimilar
    iff every pair of nodes reached from it along the same child
    positions matches.  Only those pairs are visited, not all of
    nodes(s) x nodes(t).
    """
    seen = {(p, q)}
    stack = [(p, q)]
    while stack:
        m, n = stack.pop()
        lm, ln = s.labels.get(m), t.labels.get(n)
        if lm is None and ln is None:
            if s.holes[m] != t.holes[n]:
                return False
            continue
        if lm is None or lm != ln:
            return False
        for pair in zip(s.children[m], t.children[n]):
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def weak_subsumes(s: TermGraph, t: TermGraph) -> bool:
    """True iff every instance of t is an instance of s (t is below s).

    Holes in s constrain nothing; hole identity plays no role here.
    """
    return simulates(s, t, s.root, t.root)


def graph_equal(s: TermGraph, t: TermGraph) -> bool:
    """True iff s and t denote the same tree: same labels, and same hole
    names, along every path."""
    return bisimilar(s, t, s.root, t.root)


# ---------------------------------------------------------------------------
# Textual syntax.
#
#   term   ::=  "rec" NAME "." term     cyclic back-reference binder
#            |  NAME "(" [term ("," term)*] ")"
#            |  NAME                    a hole (or a back-reference if bound)
#
# Names match [A-Za-z_][A-Za-z0-9_]*; "rec" is reserved.  Symbols always
# carry parentheses (nullary: "a()"), so a bare name is never a symbol.
# The body of a "rec" must be an application: a cycle must pass through
# at least one constructor to denote anything.
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*({_NAME.pattern}|[().,]|\S)")


class TermSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    toks = _TOKEN.findall(text)
    for tok in toks:
        if tok not in "().," and not _NAME.fullmatch(tok):
            raise TermSyntaxError(f"bad character {tok!r} in term")
    return toks


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.i = 0
        self.labels: dict[int, Symbol] = {}
        self.children: dict[int, tuple[int, ...]] = {}
        self.holes: dict[int, str] = {}
        self.hole_ids: dict[str, int] = {}
        self.n = 0

    def fresh(self) -> int:
        self.n += 1
        return self.n - 1

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, what: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise TermSyntaxError("unexpected end of term")
        if what is not None and tok != what:
            raise TermSyntaxError(f"expected {what!r}, found {tok!r}")
        self.i += 1
        return tok

    def term(self) -> int:
        """Parse one term; returns its node.  Iterative, so nesting depth
        is not bounded by the interpreter's recursion limit."""
        # Applications whose arguments are being parsed: node, symbol
        # name, the argument nodes so far, and the binders in scope.
        open_apps: list[tuple[int, str, list[int], dict[str, int]]] = []
        env: dict[str, int] = {}
        into: int | None = None  # the node a rec binder names
        while True:
            tok = self.take()
            if tok == "rec":
                name = self.take()
                if not _NAME.fullmatch(name) or name == "rec":
                    raise TermSyntaxError(f"bad rec binder name {name!r}")
                self.take(".")
                if self.peek() == "rec" or (self.peek() is not None and self.toks[self.i + 1 : self.i + 2] == ["("]):
                    nid = self.fresh() if into is None else into
                    env, into = {**env, name: nid}, nid
                    continue
                raise TermSyntaxError("rec body must be an application")
            if not _NAME.fullmatch(tok):
                raise TermSyntaxError(f"expected a term, found {tok!r}")
            if self.peek() == "(":
                self.take("(")
                nid = self.fresh() if into is None else into
                into = None
                if self.peek() != ")":
                    open_apps.append((nid, tok, [], env))
                    continue
                self.take(")")
                self.labels[nid] = Symbol(tok, 0)
                self.children[nid] = ()
                done = nid
            else:
                # bare name: back-reference if bound, hole otherwise
                if into is not None:
                    raise TermSyntaxError("rec body must be an application")
                if tok in env:
                    done = env[tok]
                else:
                    if tok not in self.hole_ids:
                        nid = self.fresh()
                        self.hole_ids[tok] = nid
                        self.holes[nid] = tok
                    done = self.hole_ids[tok]
            # Hand the finished term to the application it is an argument
            # of, closing every application that it completes.
            while open_apps:
                nid, sym, args, app_env = open_apps[-1]
                args.append(done)
                if self.peek() == ",":
                    self.take(",")
                    env = app_env
                    break
                self.take(")")
                open_apps.pop()
                self.labels[nid] = Symbol(sym, len(args))
                self.children[nid] = tuple(args)
                done = nid
            else:
                return done


def parse_term(text: str) -> TermGraph:
    """Parse the textual term syntax into a graph."""
    p = _Parser(_tokenize(text))
    root = p.term()
    if p.peek() is not None:
        raise TermSyntaxError(f"trailing input after term: {p.peek()!r}")
    return TermGraph(root, p.labels, p.children, p.holes)


def format_term(g: TermGraph) -> str:
    """Print a graph in the textual syntax; cycles get `rec X. ...` binders.

    Acyclic sharing is unfolded (the denoted tree is unchanged).
    Round trip: graph_equal(parse_term(format_term(g)), g) holds when
    every symbol and hole name is a NAME of the syntax above and no hole
    is named `rec`, the binder keyword.
    """
    binder: dict[int, str] = {}
    used = set(g.holes.values())
    counter = [0]

    def fresh_binder() -> str:
        while True:
            counter[0] += 1
            name = f"X{counter[0]}"
            if name not in used and name != "rec":
                return name

    # Depth-first, without recursion: each open node keeps the texts of
    # its children so far; on_path holds the open nodes, so an edge
    # back to one of them is a cycle and prints its binder.
    on_path: set[int] = set()
    open_nodes: list[tuple[int, list[str]]] = []

    def enter(n: int) -> str | None:
        """The text of n if it is a hole or a back edge; else open it."""
        if n in g.holes:
            return g.holes[n]
        if n in on_path:
            if n not in binder:
                binder[n] = fresh_binder()
            return binder[n]
        on_path.add(n)
        open_nodes.append((n, []))
        return None

    text = enter(g.root)
    while open_nodes:
        n, parts = open_nodes[-1]
        kids = g.children[n]
        if len(parts) < len(kids):
            kid = enter(kids[len(parts)])
            if kid is not None:
                parts.append(kid)
            continue
        open_nodes.pop()
        on_path.discard(n)
        text = f"{g.labels[n].name}({', '.join(parts)})"
        if n in binder:
            text = f"rec {binder[n]}. {text}"
        if open_nodes:
            open_nodes[-1][1].append(text)
    return text
