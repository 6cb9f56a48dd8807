"""Reference definitions that only the tests use.

`instance_member` is the bounded membership probe that the term and
oracle tests check the deciders against.  `left_sides` lists the
names a store's property tests look at: those of its atoms' left
sides, by which the store keys its index.  `load_witness` reads back
the `name := term` text that oracles.dump_witness and `wsc solve
--witness` write.
"""

from wsc.constraints import Store
from wsc.terms import TermGraph, parse_term


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
